"""Node classification, thick-thin decomposition, and the geometric
decompositions of surface germs into standard pieces.

All operations work on decorated resolution graphs.  Pieces are the
standard metric models: B(q) (cone fibered with rate q), D(q) (disc fiber),
A(q,q') (annular, two rates), and conical = B(1).  A decomposition is a
partition of the graph's vertices into piece supports; strings between two
pieces with empty interior are supported on the edge itself.

The thick part of a germ is read off the graph as one zone per L-node (the
L-node, its attached bamboos, and the interiors of strings running from it
to other nodes); everything else is thin.  A string joining two L-nodes
stays thin: it is exactly the configuration of the non-conical A_k germs,
whose thin piece contains no node at all.

The inner (resp. outer) geometric decomposition keeps one B-piece per inner
(resp. outer) node and one A-piece per string between nodes; special
P-nodes contribute frozen A(q,q)-pieces in the inner decomposition.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .dualgraph import DELTA_NODE, GENERIC_LINEAR, L_NODE, P_NODE, DualGraph, reach
from .errors import DomainError, InputError
from .exactnum import rational_to_json

MODES = ("initial", "inner", "outer")


def _require_rates(graph: DualGraph, vids):
    vertices = graph.vertices
    for vid in vids:    # the message names every one, in vertex order
        if vertices[vid].rate is None:
            missing = [w for w, v in vertices.items() if v.rate is None and w in vids]
            raise InputError(f"vertices without inner rates: {missing}")


def _is_node(v, valence: int) -> bool:
    """Whether the vertex record ``v`` of that valence is a node in every
    mode: valence >= 3, positive genus or an L-node."""
    return valence >= 3 or v.genus > 0 or L_NODE in v.flags


def _nodes(graph: DualGraph, mode: str) -> dict:
    """The mode's nodes in vertex order, each mapped to whether it gets a
    frozen special A(q,q)-piece.

    Beyond ``_is_node``, inner mode takes the special P-nodes (P-nodes of
    valence two whose rate strictly exceeds both neighbour rates, all
    three of which must be given), which get the special piece; outer
    mode takes every P-node, and initial mode every P- and Delta-node.
    """
    if mode not in MODES:
        raise InputError(f"unknown decomposition mode {mode!r}")
    out, adjacent = {}, graph._adjacent
    for vid, v in graph.vertices.items():
        nbrs = adjacent[vid]
        if _is_node(v, len(nbrs)):
            out[vid] = False
        elif mode == "inner":
            if P_NODE in v.flags and len(nbrs) == 2:
                _require_rates(graph, (vid, *nbrs))
                if all(graph.vertices[w].rate < v.rate for w in nbrs):
                    out[vid] = True
        elif P_NODE in v.flags or (mode == "initial" and DELTA_NODE in v.flags):
            out[vid] = False
    return out


# -- thick-thin ---------------------------------------------------------------

class ThickThin(NamedTuple):
    thick_zones: tuple          # (l_node, frozenset of vertices) per L-node
    thin_zones: tuple           # frozenset of vertices per zone

    @property
    def metrically_conical(self) -> bool:
        return not self.thin_zones


def _walk_string(graph: DualGraph, node, start, nodes) -> tuple[list, object]:
    """Follow the string leaving ``node`` through its neighbour ``start``
    across vertices not in ``nodes``.  Returns the string's interior and
    the node it ends at, or None when it ends at a leaf (a bamboo).
    ``nodes`` holds every ``_is_node`` vertex, so the walk never forks."""
    chain = []
    prev, cur = node, start
    adjacent = graph._adjacent
    while cur not in nodes:
        chain.append(cur)
        ends = adjacent[cur]                     # one or two, cur not a node
        if len(ends) == 1:
            return chain, None
        prev, cur = cur, ends[ends[0] == prev]   # a double edge leads back
    return chain, cur


def thick_thin(graph: DualGraph) -> ThickThin:
    """Thick zones (one per L-node) and the thin complement."""
    if not graph.is_connected():
        raise InputError("thick_thin needs a connected graph")
    l_nodes = [vid for vid, v in graph.vertices.items() if L_NODE in v.flags]
    if not l_nodes:
        raise DomainError("graph has no L-node")
    for vid in l_nodes:
        for w in graph.neighbors(vid):
            if L_NODE in graph.vertices[w].flags:
                raise DomainError(f"adjacent L-nodes {vid!r} and {w!r}")

    nodes = {vid for vid, v in graph.vertices.items()
             if _is_node(v, graph.valence(vid))}
    thick: dict = {vid: {vid} for vid in l_nodes}
    for vid in l_nodes:
        for start in graph.neighbors(vid):
            chain, end = _walk_string(graph, vid, start, nodes)
            # bamboos and strings to a node thicken, except the interiors
            # of strings to an L-node
            if end is None or L_NODE not in graph.vertices[end].flags:
                thick[vid].update(chain)

    claimed = set().union(*thick.values())
    rest = {vid for vid in graph.vertices if vid not in claimed}
    zones = [frozenset(tree) for tree in graph.components(rest)]
    zones.sort(key=lambda z: sorted(map(str, z)))
    return ThickThin(tuple((vid, frozenset(thick[vid])) for vid in l_nodes),
                     tuple(zones))


def thin_zone_rate(graph: DualGraph, zone) -> Fraction:
    """Minimal inner rate over the zone, the contact rate of its fast loops."""
    _require_rates(graph, zone)
    q = min(graph.vertices[vid].rate for vid in zone)
    if q <= 1:
        raise DomainError(f"thin zone rate {q} not > 1; inconsistent input")
    return q


# -- pieces and decompositions ------------------------------------------------

class Piece(NamedTuple):
    pid: int
    kind: str                    # "B" | "D" | "A" | "conical"
    rates: tuple                 # (q,) or (q, q') with q <= q'
    support: frozenset = frozenset()
    edge_support: frozenset = frozenset()
    special: bool = False
    node: object = None          # central vertex for node pieces

    def describe(self) -> str:
        kind = {"conical": "B"}.get(self.kind, self.kind)
        label = kind + "(" + ",".join(str(q) for q in self.rates) + ")"
        return ("special " + label) if self.special else label


class Decomposition:
    """Pieces by pid, and the adjacent pairs of pids as frozensets."""

    __slots__ = ("mode", "pieces", "adjacency")

    def __init__(self, mode: str, pieces=None, adjacency=None):
        self.mode = mode
        self.pieces = {} if pieces is None else pieces
        self.adjacency = set() if adjacency is None else adjacency

    def supports_partition(self, graph_vertices) -> bool:
        """Whether each of the distinct ids ``graph_vertices`` is in one support."""
        supports = [p.support for p in self.pieces.values()]
        return (sum(map(len, supports)) == len(graph_vertices)
                and set().union(*supports).issuperset(graph_vertices))

    def to_json(self) -> dict:
        """The pieces in pid order."""
        return {"mode": self.mode,
                "pieces": [{"id": p.pid, "kind": p.kind,
                            "rates": [rational_to_json(q) for q in p.rates],
                            "special": p.special,
                            "support": sorted(map(str, p.support)),
                            "edge_support": sorted(map(str, p.edge_support))}
                           for p in map(self.pieces.__getitem__, sorted(self.pieces))],
                "adjacency": sorted([[a, b] if a < b else [b, a]
                                     for a, b in self.adjacency])}


def build_decomposition(graph: DualGraph, mode: str) -> Decomposition:
    """Inner, outer or initial geometric decomposition of the germ.

    B-pieces biject with the mode's nodes (each node plus its attached
    bamboos); A-pieces biject with the strings and edges joining two nodes.
    In inner mode a special P-node contributes a frozen A(q,q)-piece
    instead of a B-piece.  Each string is walked once, from its first node
    in vertex order: no walk starts at a node (a direct edge) or at the
    last interior vertex of a string walked before (its other end).
    Rates are read, so required, only at the nodes; an A-piece takes its
    rates from the nodes it joins.  A disconnected graph fails some check,
    and only then is the graph walked whole, to refuse it before all else.
    """
    vertices, adjacent = graph.vertices, graph._adjacent
    try:
        nodes = _nodes(graph, mode)
        if not nodes:
            raise DomainError("graph has no nodes for this mode")
        _require_rates(graph, nodes)

        pieces, adjacency, piece_of_node = {}, set(), {}
        strings, skip = [], set(nodes)  # (node, end node, interior, no edge)
        links = {vid: [] for vid in nodes}  # the nodes each string or edge joins
        for vid, special in nodes.items():
            q = vertices[vid].rate
            support = {vid}
            for start in adjacent[vid]:
                if start not in skip:
                    chain, end = _walk_string(graph, vid, start, nodes)
                    if end is None:
                        support.update(chain)  # bamboo
                    else:
                        strings.append((vid, end, frozenset(chain), frozenset()))
                        skip.add(chain[-1])
            pid = piece_of_node[vid] = len(pieces)
            pieces[pid] = Piece(pid, "A" if special else "B", (q, q) if special else (q,),
                                frozenset(support), frozenset(), special, vid)

        # direct edges between nodes become A-pieces supported on the edge, and
        # strings between two nodes A-pieces on their interior vertices
        joins = [(a, b, frozenset(), frozenset([("edge", i)]))
                 for i, (a, b) in enumerate(graph.edges) if a in nodes and b in nodes]
        for a, b, support, edges in joins + strings:
            pid, q, r = len(pieces), vertices[a].rate, vertices[b].rate
            pieces[pid] = Piece(pid, "A", (q, r) if q <= r else (r, q), support, edges)
            adjacency.add(frozenset((pid, piece_of_node[a])))
            adjacency.add(frozenset((pid, piece_of_node[b])))
            links[a].append(b)
            links[b].append(a)

        # holds iff connected: then each vertex but the nodes lies on one bamboo
        # or string, which the walks record once, and the nodes are joined
        d = Decomposition(mode, pieces, adjacency)
        if not (d.supports_partition(vertices.keys())
                and len(reach(links, next(iter(nodes)))) == len(nodes)):
            raise DomainError("piece supports do not partition the vertices")
        return d
    except (InputError, DomainError):
        if not graph.is_connected():
            raise InputError("decomposition needs a connected graph") from None
        raise


# -- classification signatures ------------------------------------------------

class Signature(NamedTuple):
    """A decomposition graph: piece id -> attributes (the strings and ints
    ``to_json`` writes), and piece edges."""

    metric: str
    nodes: dict
    edges: list

    def to_json(self) -> dict:
        return {"metric": self.metric,
                "nodes": [{**self.nodes[n], "id": n} for n in sorted(self.nodes)],
                "edges": [list(e) for e in self.edges]}


def _signature(graph: DualGraph, metric: str) -> Signature:
    """The metric's decomposition graph, with the piece attributes that
    ``inner_signature`` and ``outer_signature`` describe."""
    d = build_decomposition(graph, metric)
    nodes, mults = {}, {}
    for p in d.pieces.values():
        nodes[p.pid] = {"kind": "special-A" if p.special else p.kind,
                        "rates": tuple(map(str, p.rates))}
        if p.node is not None:
            v = graph.vertices[p.node]
            if GENERIC_LINEAR not in v.multiplicities:
                raise InputError(
                    f"vertex {p.node!r} lacks generic-linear multiplicities")
            mults[p.pid] = v.multiplicities[GENERIC_LINEAR]
            if metric == "outer":
                nodes[p.pid]["selfint"] = v.self_intersection
    scale = math.gcd(*mults.values()) if metric == "inner" and mults else 1
    if not scale:
        raise InputError("generic-linear multiplicities are 0 at every node piece")
    for pid, m in mults.items():
        nodes[pid]["mult"] = str(m // scale)
    return Signature(metric, nodes, sorted([(a, b) if a < b else (b, a)
                                            for a, b in d.adjacency]))


def inner_signature(graph: DualGraph) -> Signature:
    """Inner Lipschitz classification data: the inner decomposition graph
    with per-piece rates and scale-normalised generic-linear multiplicities."""
    return _signature(graph, "inner")


def outer_signature(graph: DualGraph) -> Signature:
    """Outer classification data: the outer decomposition graph with rate,
    self-intersection and generic-linear multiplicity at every node piece."""
    return _signature(graph, "outer")


def _refine(adj: list, colour: list) -> list:
    """Colour refinement to the stable partition: split every colour class
    by the multiset of neighbour colours until no class splits.  One
    palette serves every vertex, so equal colours on the two sides of a
    comparison mean equal roles."""
    classes = len(set(colour))
    while True:
        palette: dict = {}
        new = [palette.setdefault((c, *sorted(map(colour.__getitem__, ws))),
                                  len(palette))
               for c, ws in zip(colour, adj)]
        if len(palette) == classes:   # no class split: each only refines
            return new
        colour, classes = new, len(palette)


def _individualised(candidates, colour: list, c, first, fresh):
    """The colourings that give ``first`` and one of the ``candidates`` of
    colour ``c`` the colour ``fresh``, one per candidate, lazily.  A
    function, so that a generator waiting on the stack keeps its own
    arguments."""
    return ([fresh if u in (first, v) else k for u, k in enumerate(colour)]
            for v in candidates if colour[v] == c)


def _is_tree(adj: list, verts: range) -> bool:
    """Whether the vertices ``verts`` of ``adj`` form a tree: connected, with
    one edge fewer than vertices (so with no loop or repeated edge either)."""
    edges = sum(map(len, adj[verts.start:verts.stop])) // 2
    return len(verts) == edges + 1 == len(reach(adj, verts.start))


def signatures_equal(a: Signature, b: Signature) -> bool:
    """Isomorphism of the two decomposition graphs keeping every piece
    attribute, by colour refinement under one palette.  Refinement keeps
    unequal histograms unequal, so unequal initial ones stop before it.  If
    either side is a tree, equal histograms at the first stable colouring
    decide: refinement identifies every tree, even among graphs with cycles
    (Immerman-Lander, *Describing graphs: a first-order approach to graph
    canonization*, 1990).  Otherwise a stable colouring with equal
    histograms and singleton classes is a bijection, and a tie is broken by
    individualising one side-0 vertex of the smallest tied class against
    each candidate, depth first on an explicit stack of generators.
    Vertices are list indices: the pieces of ``a``, then those of ``b``."""
    if a.metric != b.metric:
        return False
    n, palette = len(a.nodes), {}
    colour = [palette.setdefault(frozenset(attrs.items()), len(palette))
              for sig in (a, b) for attrs in sig.nodes.values()]
    sides = (range(n), range(n, len(colour)))
    if sorted(colour[:n]) != sorted(colour[n:]):
        return False
    adj = [[] for _ in colour]
    for sig, side in zip((a, b), sides):
        at = dict(zip(sig.nodes, side))
        for x, y in sig.edges:
            adj[at[x]].append(at[y])
            adj[at[y]].append(at[x])
    tree = _is_tree(adj, sides[0]) or _is_tree(adj, sides[1])
    stack = [iter((colour,))]
    while stack:
        colour = next(stack[-1], None)
        if colour is None:
            stack.pop()
            continue
        colour = _refine(adj, colour)
        if sorted(colour[:n]) != sorted(colour[n:]):
            continue
        if tree or len(set(colour[:n])) == n:
            return True
        _, c = min((k, c) for c, k in Counter(colour[:n]).items() if k > 1)
        first = colour.index(c)             # a side-0 vertex: side 0 is first
        stack.append(_individualised(sides[1], colour, c, first, len(colour)))
    return False
