"""Graphviz DOT emission for trees, graphs and decompositions.

Conventions follow the figures this package reproduces: self-intersection
below the vertex, inner rate in bold, multiplicities in parentheses, strict
transforms as arrowheads, L-nodes drawn with a double circle.  Output is
deterministic: vertices and edges are emitted in sorted order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .carrousel import CarrouselNode, CarrouselTree
    from .decomp import Decomposition
    from .surfgraph import DualGraph, DualTree


def _q(s) -> str:
    return '"' + str(s).replace('"', r'\"') + '"'


def tree_to_dot(tree: DualTree) -> str:
    lines = ["graph tower {", "  node [shape=circle];"]
    for v in tree.vertices:
        label = f"E{v.id + 1}\\nq={v.rate}\\n{v.self_intersection}"
        mults = ",".join(f"{k}:{m}" for k, m in sorted(v.multiplicities.items()))
        if mults:
            label += f"\\n({mults})"
        lines.append(f"  v{v.id} [label={_q(label)}];")
    for a, b in sorted(tree.edges):
        lines.append(f"  v{a} -- v{b};")
    return _close(lines, tree.arrows, tree.ids())


def _close(lines: list, arrows, index) -> str:
    """Append the arrows (``index`` maps a vertex id to its DOT number)
    and the closing brace."""
    for i, arrow in enumerate(arrows):
        label = f"{arrow.name}({arrow.multiplicity})"
        lines.append(f"  a{i} [shape=none, label={_q(label)}];")
        lines.append(f"  v{index[arrow.vertex]} -- a{i} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_dot(graph: DualGraph) -> str:
    from .surfgraph import L_NODE
    lines = ["graph resolution {", "  node [shape=circle];"]
    ids = {vid: i for i, vid in enumerate(graph.vertices)}
    for vid, v in graph.vertices.items():
        parts = [str(vid), str(v.self_intersection)]
        if v.rate is not None:
            parts.insert(1, f"q={v.rate}")
        if v.genus:
            parts.append(f"[{v.genus}]")
        mults = ",".join(f"{k}:{m}" for k, m in sorted(v.multiplicities.items()))
        if mults:
            parts.append(f"({mults})")
        extra = ", peripheries=2" if L_NODE in v.flags else ""
        label = "\\n".join(parts)
        lines.append(f"  v{ids[vid]} [label={_q(label)}{extra}];")
    for a, b in sorted(graph.edges, key=lambda e: (str(e[0]), str(e[1]))):
        lines.append(f"  v{ids[a]} -- v{ids[b]};")
    return _close(lines, graph.arrows, ids)


def carrousel_to_dot(tree: CarrouselTree) -> str:
    lines = ["graph carrousel {", "  node [shape=circle];"]
    counter = [0]

    def walk(node: CarrouselNode) -> int:
        my = counter[0]
        counter[0] += 1
        if node.is_leaf():
            lines.append(f"  n{my} [shape=point, label={_q(node.leaf)}];")
            return my
        label = str(node.weight)
        if node.r is not None:
            label += f"\\nr={node.r},s={node.s}"
        lines.append(f"  n{my} [label={_q(label)}];")
        for child in node.children:
            cid = walk(child)
            attr = ""
            if child.edge_label is not None:
                attr = f" [label={_q(child.edge_label)}]"
            lines.append(f"  n{my} -- n{cid}{attr};")
        return my

    walk(tree.root)
    lines.append("}")
    return "\n".join(lines) + "\n"


_PIECE_COLORS = {"conical": "black", "B": "red", "D": "gray", "A": "white"}


def decomposition_to_dot(graph: DualGraph, decomposition: Decomposition) -> str:
    """Vertices colored by owning piece: black for conical/B(1), red for
    B(q>1), white for A, blue for special A-pieces."""
    owner = {}
    for p in decomposition.pieces.values():
        for vid in p.support:
            owner[vid] = p
    lines = ["graph decomposition {", "  node [shape=circle, style=filled];"]
    ids = {vid: i for i, vid in enumerate(graph.vertices)}
    for vid, v in graph.vertices.items():
        p = owner.get(vid)
        if p is None:
            color = "white"
        elif p.special:
            color = "lightblue"
        elif p.kind == "A":
            color = "white"
        elif all(q == 1 for q in p.rates):
            color = "black"
        else:
            color = _PIECE_COLORS.get(p.kind, "white")
        font = ", fontcolor=white" if color == "black" else ""
        label = str(vid)
        if v.rate is not None:
            label += f"\\n{v.rate}"
        lines.append(
            f"  v{ids[vid]} [label={_q(label)}, fillcolor={_q(color)}{font}];")
    for a, b in sorted(graph.edges, key=lambda e: (str(e[0]), str(e[1]))):
        lines.append(f"  v{ids[a]} -- v{ids[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
