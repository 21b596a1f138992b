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
P-nodes contribute frozen A(q,q)-pieces in the inner decomposition.  The
test suite checks, on the towers of the three curve fixtures, that running
the amalgamation rules on the per-vertex pieces of ``csquare_decomposition``
gives the initial decomposition's piece labels and non-empty supports.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from fractions import Fraction
from heapq import heappop, heappush
from typing import NamedTuple

from .errors import DomainError, InputError
from .exactnum import rational_to_json
from .surfgraph import (DualGraph, DualTree, L_NODE, DELTA_NODE, P_NODE,
                        GENERIC_LINEAR)

MODES = ("initial", "inner", "outer")


def _require_rates(graph: DualGraph, vids):
    missing = [vid for vid, v in graph.vertices.items()
               if vid in vids and v.rate is None]
    if missing:
        raise InputError(f"vertices without inner rates: {missing}")


def _is_node(graph: DualGraph, vid) -> bool:
    """A node in every mode: valence >= 3, positive genus or an L-node."""
    v = graph.vertices[vid]
    return graph.valence(vid) >= 3 or v.genus > 0 or L_NODE in v.flags


def _nodes(graph: DualGraph, mode: str) -> dict:
    """The mode's nodes in vertex order, each mapped to whether it gets a
    frozen special A(q,q)-piece.

    Beyond ``_is_node``, inner mode takes the special P-nodes (P-nodes of
    valence two whose rate strictly exceeds both neighbour rates), which
    get the special piece; outer mode takes every P-node, and initial mode
    every P- and Delta-node.
    """
    if mode not in MODES:
        raise InputError(f"unknown decomposition mode {mode!r}")
    out = {}
    for vid, v in graph.vertices.items():
        if _is_node(graph, vid):
            out[vid] = False
        elif mode == "inner":
            nbrs = graph.neighbors(vid)
            if (P_NODE in v.flags and len(nbrs) == 2
                    and all(graph.vertices[w].rate < v.rate for w in nbrs)):
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
    while cur not in nodes:
        chain.append(cur)
        nxt = [w for w in graph.neighbors(cur) if w != prev]
        if not nxt:
            return chain, None
        prev, cur = cur, nxt[0]
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

    nodes = {vid for vid in graph.vertices if _is_node(graph, vid)}
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
    zones = []
    for vid in rest:
        if not any(vid in zone for zone in zones):
            zones.append(frozenset(graph.component(vid, rest)))
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

    def to_json(self) -> dict:
        return {"id": self.pid, "kind": self.kind,
                "rates": [rational_to_json(q) for q in self.rates],
                "special": self.special,
                "support": sorted(map(str, self.support)),
                "edge_support": sorted(map(str, self.edge_support))}


class Decomposition:
    """Pieces by pid, and the adjacent pairs of pids as frozensets."""

    __slots__ = ("mode", "pieces", "adjacency")

    def __init__(self, mode: str, pieces=None, adjacency=None):
        self.mode = mode
        self.pieces = {} if pieces is None else pieces
        self.adjacency = set() if adjacency is None else adjacency

    def add(self, kind: str, rates: tuple, joins=(), **fields) -> int:
        """Add a piece under the next pid, adjacent to the pieces ``joins``,
        and return its pid."""
        pid = len(self.pieces)
        self.pieces[pid] = Piece(pid, kind, rates, **fields)
        self.adjacency.update(frozenset((pid, j)) for j in joins)
        return pid

    def supports_partition(self, graph_vertices) -> bool:
        seen = []
        for p in self.pieces.values():
            seen.extend(p.support)
        return sorted(map(str, seen)) == sorted(map(str, graph_vertices))

    def to_json(self) -> dict:
        return {"mode": self.mode,
                "pieces": [self.pieces[k].to_json() for k in sorted(self.pieces)],
                "adjacency": sorted(sorted(pair) for pair in self.adjacency)}


def _rates_between(graph: DualGraph, a, b) -> tuple:
    """Rates of the A-piece joining the vertices a and b, smaller first."""
    return tuple(sorted((graph.vertices[a].rate, graph.vertices[b].rate)))


def csquare_decomposition(tree: DualTree) -> Decomposition:
    """Per-vertex geometric decomposition of the plane attached to a tower:
    one piece per exceptional curve (conical at the root, D at arrowless
    leaves, A(q,q) at arrowless valence-2 vertices, B otherwise) and one
    A(q,q')-piece per edge."""
    d = Decomposition("csquare")
    arrowed = {a.vertex for a in tree.arrows}
    for v in tree.vertices:
        q = v.rate
        arrows = v.id in arrowed
        valence = tree.valence(v.id)
        if v.id == tree.root:
            kind, rates = "conical", (Fraction(1),)
        elif valence == 1 and not arrows:
            kind, rates = "D", (q,)
        elif valence == 2 and not arrows:
            kind, rates = "A", (q, q)
        else:
            kind, rates = "B", (q,)
        d.add(kind, rates, support=frozenset([v.id]), node=v.id)
    # tower ids are creation positions, so the piece of vertex v has pid v
    for a, b in sorted(tree.edges):
        d.add("A", _rates_between(tree, a, b), (a, b),
              edge_support=frozenset([(min(a, b), max(a, b))]))
    return d


def _rule(x: Piece, rx: tuple, y: Piece, ry: tuple, one: int):
    """The first amalgamation rule that applies to the adjacent pieces x, y
    of integer rates rx, ry (1 is ``one``) in this orientation, as
    (eliminated rate, ordering pid, kept pid, new kind, new rates); kind and
    rates are None when the kept piece stays as it is.  None when none does."""
    low = min(x.pid, y.pid)
    # A(q,q') u A(q',q'') = A(q,q''): the rate other than s is the sum less s
    if x.kind == y.kind == "A" and (shared := set(rx) & set(ry)):
        s = max(shared)
        return s, low, low, "A", tuple(sorted((sum(rx) - s, sum(ry) - s)))
    # A(q,q') u D(q') = D(q)
    if x.kind == "A" and y.kind == "D" and ry[0] in rx:
        return ry[0], low, low, "D", (sum(rx) - ry[0],)
    # D(q) melts into a B or conical piece of the same rate
    if (x.kind == "D" and y.kind in ("B", "conical") and not y.special
            and rx[0] == ry[0]):
        return rx[0], x.pid, y.pid, None, None
    # rate-1 pieces merge into a conical piece
    if y.kind == "conical" and all(r == one for r in rx):
        return one, low, low, "conical", (one,)
    return None


def amalgamate(d: Decomposition) -> Decomposition:
    """Run the amalgamation rules to a stable state in canonical order.

    Rules: adjacent A-pieces sharing a rate merge; a D absorbs across its
    A-collar; a D melts into an adjacent B (or conical) piece of the same
    rate; adjacent all-rate-1 pieces merge into a conical piece.  Each step
    merges the pair whose rule eliminates the highest rate, then has the
    lowest ordering pid (the D's for a melt, else the lower of the two),
    then the lowest pair: a heap holds the pending rules under that key.  A
    rule reads only its two pieces, so a merge drops the rules at both and
    pushes those of the pairs at the kept piece; a popped key that is no
    longer its pair's rule is skipped.  That is O(P log P) on P pieces of
    bounded valence.  Confluence under relabeling is checked by the tests.
    """
    pieces = dict(d.pieces)
    # the rules read a rate q as the integer q * lcm: a Fraction compares slowly
    objs = {id(q): q for p in pieces.values() for q in p.rates}
    lcm = math.lcm(*(q.denominator for q in objs.values()))
    scaled = {i: q.numerator * (lcm // q.denominator) for i, q in objs.items()}
    values = {lcm: Fraction(1)} | {scaled[i]: q for i, q in objs.items()}
    ints = {pid: tuple([scaled[id(q)] for q in p.rates]) for pid, p in pieces.items()}
    nbrs = defaultdict(set)
    rules: dict = {}
    heap: list = []

    def evaluate(a, b):
        a, b = (a, b) if a < b else (b, a)
        if a in pieces and b in pieces:
            x, rx, y, ry = pieces[a], ints[a], pieces[b], ints[b]
            found = _rule(x, rx, y, ry, lcm) or _rule(y, ry, x, rx, lcm)
            if found:
                key = (-found[0], found[1], a, b)
                rules[a, b] = (key, *found[2:])
                heappush(heap, key)

    for a, b in d.adjacency:
        nbrs[a].add(b)
        nbrs[b].add(a)
        evaluate(a, b)
    while heap:
        key = heappop(heap)
        rule = rules.get(key[2:])
        if rule is None or rule[0] != key:
            continue  # stale: the pair merged or was evaluated again since
        _, keep, kind, new = rule
        drop = key[3] if keep == key[2] else key[2]
        for v in (keep, drop):
            for w in nbrs[v]:
                rules.pop((v, w) if v < w else (w, v), None)
        kept, gone = pieces[keep], pieces.pop(drop)
        support = kept.support | gone.support
        edges = kept.edge_support | gone.edge_support
        if kind is None:
            pieces[keep] = kept._replace(support=support, edge_support=edges)
        else:
            ints[keep] = new
            pieces[keep] = Piece(keep, kind, tuple([values[r] for r in new]),
                                 support, edges)
        nbrs[keep] = (nbrs[keep] | nbrs.pop(drop)) - {keep, drop}
        for w in nbrs[keep]:
            nbrs[w] = nbrs[w] - {drop} | {keep}
            evaluate(keep, w)
    return Decomposition(d.mode, pieces,
                         {frozenset((a, b)) for a in nbrs for b in nbrs[a]})


def build_decomposition(graph: DualGraph, mode: str) -> Decomposition:
    """Inner, outer or initial geometric decomposition of the germ.

    B-pieces biject with the mode's nodes (each node plus its attached
    bamboos); A-pieces biject with the strings and edges joining two nodes.
    In inner mode a special P-node contributes a frozen A(q,q)-piece
    instead of a B-piece.
    """
    _require_rates(graph, graph.vertices)
    if not graph.is_connected():
        raise InputError("decomposition needs a connected graph")
    nodes = _nodes(graph, mode)
    if not nodes:
        raise DomainError("graph has no nodes for this mode")

    d = Decomposition(mode)
    piece_of_node = {}
    strings = {}                # interior -> (node, end node), once per string
    for vid, special in nodes.items():
        q = graph.vertices[vid].rate
        support = {vid}
        for start in graph.neighbors(vid):
            chain, end = _walk_string(graph, vid, start, nodes)
            if end is None:
                support.update(chain)  # bamboo
            elif chain:
                strings.setdefault(frozenset(chain), (vid, end))
        if special:
            kind, rates = "A", (q, q)
        else:
            kind, rates = "B", (q,)
        piece_of_node[vid] = d.add(kind, rates, support=frozenset(support),
                                   special=special, node=vid)

    # direct edges between nodes become A-pieces supported on the edge
    for i, (a, b) in enumerate(graph.edges):
        if a in nodes and b in nodes:
            d.add("A", _rates_between(graph, a, b),
                  (piece_of_node[a], piece_of_node[b]),
                  edge_support=frozenset([("edge", i)]))

    # strings between two nodes become A-pieces on their interior vertices
    for chain, (a, b) in strings.items():
        d.add("A", _rates_between(graph, a, b),
              (piece_of_node[a], piece_of_node[b]), support=chain)

    if not d.supports_partition(list(graph.vertices)):
        raise DomainError("piece supports do not partition the vertices")
    return d


# -- classification signatures ------------------------------------------------

class Signature(NamedTuple):
    """A decomposition graph: piece id -> attributes, and piece edges."""

    metric: str
    nodes: dict
    edges: list

    def to_json(self) -> dict:
        nodes = []
        for n in sorted(self.nodes):
            a = dict(self.nodes[n])
            a["id"] = n
            if "mult" in a:
                a["mult"] = str(a["mult"])
            a["rates"] = list(a["rates"])
            nodes.append(a)
        return {"metric": self.metric, "nodes": nodes,
                "edges": [list(e) for e in self.edges]}


def _signature(graph: DualGraph, metric: str) -> Signature:
    """The metric's decomposition graph, with the piece attributes that
    ``inner_signature`` and ``outer_signature`` describe."""
    d = build_decomposition(graph, metric)
    nodes, mults = {}, {}
    for p in d.pieces.values():
        nodes[p.pid] = {"kind": "special-A" if p.special else p.kind,
                        "rates": tuple(str(q) for q in p.rates)}
        if p.node is not None:
            v = graph.vertices[p.node]
            if GENERIC_LINEAR not in v.multiplicities:
                raise InputError(
                    f"vertex {p.node!r} lacks generic-linear multiplicities")
            mults[p.pid] = v.multiplicities[GENERIC_LINEAR]
            if metric == "outer":
                nodes[p.pid]["selfint"] = v.self_intersection
    scale = math.gcd(*mults.values()) if metric == "inner" and mults else 1
    for pid, m in mults.items():
        nodes[pid]["mult"] = Fraction(m, scale)
    return Signature(metric, nodes,
                     sorted(tuple(sorted(pair)) for pair in d.adjacency))


def inner_signature(graph: DualGraph) -> Signature:
    """Inner Lipschitz classification data: the inner decomposition graph
    with per-piece rates and scale-normalised generic-linear multiplicities."""
    return _signature(graph, "inner")


def outer_signature(graph: DualGraph) -> Signature:
    """Outer classification data: the outer decomposition graph with rate,
    self-intersection and generic-linear multiplicity at every node piece."""
    return _signature(graph, "outer")


def _refine(adj: dict, colour: dict) -> dict:
    """Colour refinement to the stable partition: split every colour class
    by the multiset of neighbour colours until no class splits.  One
    palette serves every vertex, so equal colours on the two sides of a
    comparison mean equal roles."""
    while True:
        palette: dict = {}
        new = {v: palette.setdefault(
                   (colour[v], tuple(sorted(colour[w] for w in adj[v]))),
                   len(palette))
               for v in adj}
        if len(palette) == len(set(colour.values())):
            return new
        colour = new


def _individualised(adj: dict, colour: dict, c, first, fresh):
    """The colourings that give ``first`` and one side-1 vertex of colour
    ``c`` the colour ``fresh``, one per candidate, lazily.  A function, so
    that a generator waiting on the stack keeps its own arguments."""
    return ({**colour, first: fresh, v: fresh}
            for v in adj if v[0] == 1 and colour[v] == c)


def _isomorphic(adj: dict, colour: dict) -> bool:
    """Whether some bijection between side 0 and side 1 of ``adj`` keeps
    colours and edges.  A stable colouring with equal histograms whose
    classes are singletons is such a bijection; otherwise individualise
    one vertex of the smallest tied class against each candidate, depth
    first on an explicit stack of candidate generators.  Refinement keeps
    unequal histograms unequal, so unequal initial ones stop before it."""
    hist = [Counter(c for (side, _), c in colour.items() if side == s) for s in (0, 1)]
    stack = [iter((colour,))] if hist[0] == hist[1] else []
    while stack:
        colour = next(stack[-1], None)
        if colour is None:
            stack.pop()
            continue
        colour = _refine(adj, colour)
        hist = [Counter(c for (side, _), c in colour.items() if side == s)
                for s in (0, 1)]
        if hist[0] != hist[1]:
            continue
        tied = [c for c, k in hist[0].items() if k > 1]
        if not tied:
            return True
        c = min(tied, key=lambda c: (hist[0][c], c))
        first = next(v for v in adj if v[0] == 0 and colour[v] == c)
        stack.append(_individualised(adj, colour, c, first, len(colour)))
    return False


def signatures_equal(a: Signature, b: Signature) -> bool:
    """Isomorphism of the two decomposition graphs keeping every piece
    attribute, by colour refinement with backtracking on ties (colour
    refinement alone decides trees, so the backtracking only breaks
    symmetries there)."""
    if a.metric != b.metric:
        return False
    adj, colour, palette = {}, {}, {}
    for side, sig in enumerate((a, b)):
        for pid, attrs in sig.nodes.items():
            adj[side, pid] = []
            colour[side, pid] = palette.setdefault(
                tuple(sorted(attrs.items())), len(palette))
        for x, y in sig.edges:
            adj[side, x].append((side, y))
            adj[side, y].append((side, x))
    return _isomorphic(adj, colour)
