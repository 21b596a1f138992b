"""Graphviz DOT emission for trees, graphs and decompositions.

Towers, graphs and decompositions share one writer: vertices in storage
order, edges sorted, each arrow a dashed edge to a label node.  A vertex
label stacks its name, ``q=`` its inner rate, its self-intersection, any
[genus] and its (multiplicities); L-nodes get a double circle."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .carrousel import CarrouselNode, CarrouselTree
    from .decomp import Decomposition, Piece
    from .surfgraph import DualGraph, DualTree, Vertex


def _esc(text) -> str:
    """User text (an id or a name) as it reads inside a quoted DOT string."""
    return str(text).replace("\\", "\\\\").replace('"', '\\"')


def _q(s) -> str:
    return f'"{s}"'


def _graph_dot(name: str, node: str, graph: DualGraph, attributes, edges,
               arrows=()) -> str:
    """DOT text of the graph ``name`` with default node style ``node``: each
    vertex v with ``attributes(v)``, then ``edges`` and ``arrows``."""
    ids = {vid: i for i, vid in enumerate(graph.ids())}
    lines = [f"graph {name} {{", f"  node [{node}];",
             *(f"  v{i} [{attributes(graph.vertices[vid])}];"
               for vid, i in ids.items()),
             *(f"  v{ids[a]} -- v{ids[b]};" for a, b in edges)]
    for i, a in enumerate(arrows):
        lines += [f"  a{i} [shape=none, label={_q(f'{_esc(a.name)}({a.multiplicity})')}];",
                  f"  v{ids[a.vertex]} -- a{i} [style=dashed];"]
    return "\n".join(lines) + "\n}\n"


def _sorted_edges(graph: DualGraph) -> list:
    return sorted(graph.edges, key=lambda e: (str(e[0]), str(e[1])))


def _mults(v: Vertex) -> str:
    mults = ",".join(f"{_esc(k)}:{m}" for k, m in sorted(v.multiplicities.items()))
    return f"\\n({mults})" if mults else ""


def tree_to_dot(tree: DualTree) -> str:
    return _graph_dot("tower", "shape=circle", tree, lambda v: "label=" + _q(
        f"E{v.id + 1}" + ("" if v.rate is None else f"\\nq={v.rate}")
        + f"\\n{v.self_intersection}" + _mults(v)), sorted(tree.edges), tree.arrows)


def graph_to_dot(graph: DualGraph) -> str:
    from .surfgraph import L_NODE

    def attributes(v: Vertex) -> str:
        rate = "" if v.rate is None else f"\\nq={v.rate}"
        genus = f"\\n[{v.genus}]" if v.genus else ""
        label = _q(f"{_esc(v.id)}{rate}\\n{v.self_intersection}{genus}{_mults(v)}")
        return f"label={label}" + (", peripheries=2" if L_NODE in v.flags else "")

    return _graph_dot("resolution", "shape=circle", graph, attributes,
                      _sorted_edges(graph), graph.arrows)


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


def _fill(p: Optional[Piece]) -> str:
    if p is not None and p.special:
        return "lightblue"
    if p is None or p.kind == "A":
        return "white"
    if all(q == 1 for q in p.rates):
        return "black"
    return "red" if p.kind == "B" else "gray"


def decomposition_to_dot(graph: DualGraph, decomposition: Decomposition) -> str:
    """Vertices labelled id over rate and filled by their piece: black for
    rate 1 (conical, B(1), D(1)), red for B(q > 1), gray for D(q > 1),
    lightblue for special A-pieces, white for other A-pieces and none."""
    owner = {vid: p for p in decomposition.pieces.values() for vid in p.support}

    def attributes(v: Vertex) -> str:
        fill = _fill(owner.get(v.id))
        label = _esc(v.id) + ("" if v.rate is None else f"\\n{v.rate}")
        return (f"label={_q(label)}, fillcolor={_q(fill)}"
                + (", fontcolor=white" if fill == "black" else ""))

    return _graph_dot("decomposition", "shape=circle, style=filled", graph,
                      attributes, _sorted_edges(graph))
