"""The one resolution graph type, ``DualGraph``, its tower form ``DualTree``, their
records, walks, blow-ups and ``verify_graph``; ``surfgraph`` is the calculus on them."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import InputError
from .exactnum import as_rational, eliminate, is_int

L_NODE = "L"
DELTA_NODE = "Delta"
P_NODE = "P"
KNOWN_FLAGS = (L_NODE, DELTA_NODE, P_NODE)
ARROW_KINDS = ("generic-linear", "polar", "function", "branch")

CURVE_FUNCTION = "f"
GENERIC_LINEAR = "h"


class Vertex:
    """An exceptional curve.  A tower vertex also keeps its unreduced
    inner-rate vector (p, q), and its rate is p/q."""

    __slots__ = ("id", "self_intersection", "genus", "rate", "multiplicities",
                 "flags", "rate_vector")

    def __init__(self, id, self_intersection: int, genus: int,
                 rate: Optional[Fraction], multiplicities: dict, flags: set,
                 rate_vector: Optional[tuple]):
        self.id = id
        self.self_intersection = self_intersection
        self.genus = genus
        self.rate = rate
        self.multiplicities = multiplicities
        self.flags = flags
        self.rate_vector = rate_vector


class Arrow(NamedTuple):
    """A strict transform meeting a vertex; ``branch`` names the curve
    branch it comes from, if any."""

    vertex: object
    name: str
    multiplicity: int
    kind: str = "function"
    branch: Optional[int] = None


# rate vector of a blown-up point, less those of the curves through it
_RATE_STEP = {0: (1, 1), 1: (1, 0), 2: (0, 0)}


def _negative_definite(minors) -> bool:
    return all(d * (-1) ** k > 0 for k, d in enumerate(minors, 1))


def _is_id(vid) -> bool:  # a string or an integer that is not a bool
    return type(vid) is str or type(vid) is int or isinstance(vid, str) or is_int(vid)


def _check_multiplicities(vid, mults: dict):
    """InputError unless each function name is a string and each
    multiplicity a non-negative integer (exact type first; 0 + True is 1)."""
    for name, m in mults.items():
        if not isinstance(name, str):
            raise InputError(f"vertex {vid!r}: function name {name!r} is not a string")
        if not (type(m) is int or is_int(m)) or m < 0:
            raise InputError(f"vertex {vid!r}: multiplicities must be non-negative "
                             "integers")


def reach(adjacent: dict, start, within=None) -> dict:
    """The breadth-first tree from ``start``, through ``within`` only when
    given: each vertex in the order the walk along the ``adjacent`` lists
    reaches it, mapped to its neighbour reached first, and ``start`` to None."""
    tree, order = {start: None}, [start]
    for v in order:
        for w in adjacent[v]:
            if w not in tree and (within is None or w in within):
                tree[w] = v
                order.append(w)
    return tree


class DualGraph:
    """Resolution graph: vertices with decorations, edges (multi-edges
    allowed, loops not), and arrows for strict transforms.  ``vertices``
    maps id to record; ``add_edge``, ``remove_edge`` and ``blow_up`` change
    ``edges`` and keep the adjacency lists."""

    def __init__(self):
        self.vertices = {}
        self.edges: list = []
        self.arrows: list = []
        self._adjacent: dict = {}

    # -- vertex storage (a DualTree keeps a list instead) -------------------

    def __contains__(self, vid) -> bool:
        return _is_id(vid) and vid in self.vertices

    def ids(self) -> list:
        return list(self.vertices)

    def _store(self, v: Vertex):
        if not _is_id(v.id):
            raise InputError(f"vertex id {v.id!r} is not a string or an integer")
        if v.id in self.vertices:
            raise InputError(f"duplicate vertex id {v.id!r}")
        self.vertices[v.id] = v

    # -- building -------------------------------------------------------------

    def add_vertex(self, vid, self_intersection, genus=0, rate=None,
                   multiplicities=None, flags=None, rate_vector=None) -> Vertex:
        if not is_int(self_intersection) or self_intersection >= 0:
            raise InputError(f"vertex {vid!r}: self_intersection must be a "
                             "negative integer")
        if not is_int(genus) or genus < 0:
            raise InputError(f"vertex {vid!r}: genus must be a non-negative integer")
        mults = dict(multiplicities or {})
        _check_multiplicities(vid, mults)
        if flags is not None and not isinstance(flags, (list, tuple, set, frozenset)):
            raise InputError(f"vertex {vid!r}: flags must be a list of names")
        bad = flags and [f for f in flags if f not in KNOWN_FLAGS]
        if bad:
            raise InputError(f"vertex {vid!r}: unknown flags {bad}")
        if rate_vector is not None:
            if not (isinstance(rate_vector, (list, tuple)) and len(rate_vector) == 2
                    and (type(rate_vector[0]) is type(rate_vector[1]) is int
                         or all(map(is_int, rate_vector))) and rate_vector[1] > 0):
                raise InputError(f"vertex {vid!r}: rate_vector must be two "
                                 "integers [p, q] with q > 0")
            rate_vector = tuple(rate_vector)
            if rate is None:
                rate = Fraction(*rate_vector)
            else:
                rate = rate if type(rate) is Fraction else as_rational(rate)
                if rate.numerator * rate_vector[1] != rate.denominator * rate_vector[0]:
                    raise InputError(f"vertex {vid!r}: rate {rate} is not the p/q of "
                                     f"rate_vector {list(rate_vector)}")
        v = Vertex(vid, self_intersection, genus,
                   rate if rate is None or type(rate) is Fraction else as_rational(rate),
                   mults, set(flags or ()), rate_vector)
        self._store(v)
        self._adjacent[vid] = []
        return v

    def add_edge(self, a, b):
        if a not in self or b not in self:
            raise InputError(f"edge ({a!r},{b!r}) references unknown vertex")
        if a == b:  # a good resolution has smooth curves: no loops
            raise InputError(f"edge ({a!r},{b!r}) joins a vertex to itself")
        self.edges.append((a, b))
        self._adjacent[a].append(b)
        self._adjacent[b].append(a)

    def remove_edge(self, a, b):
        edges, pair = self.edges, ((a, b), (b, a))
        for i in range(len(edges) - 1, -1, -1):  # blow-ups cut recent edges
            if edges[i] in pair:
                del edges[i]
                self._adjacent[a].remove(b)
                self._adjacent[b].remove(a)
                return
        raise InputError(f"no edge ({a!r},{b!r})")

    def add_arrow(self, vertex, name, multiplicity=1, kind="function",
                  branch=None):
        if vertex not in self:
            raise InputError(f"arrow references unknown vertex {vertex!r}")
        if not isinstance(name, str):
            raise InputError(f"arrow name {name!r} is not a string")
        if kind not in ARROW_KINDS:
            raise InputError(f"unknown arrow kind {kind!r}")
        if not is_int(multiplicity) or multiplicity < 1:
            raise InputError("arrow multiplicity must be a positive integer")
        if branch is not None and not is_int(branch):
            raise InputError(f"arrow branch {branch!r} is not an integer")
        self.arrows.append(Arrow(vertex, name, multiplicity, kind, branch))

    def blow_up(self, vid, curves: Sequence, strict: Optional[dict] = None
                ) -> Vertex:
        """Blow up the origin of the plane (no curves), a point of one
        curve, or the intersection point of two.  The new curve ``vid``
        (self-intersection -1) meets each of them, their self-intersections
        drop by one, and two of them stop meeting.

        Each function's multiplicity on the new curve is the sum over the
        curves through the point plus ``strict`` (function -> multiplicity
        of its strict transforms through the point).  The rate vector is
        (1,1) at the origin, v + (1,0) at a free point of a curve with
        vector v, and the componentwise sum v + v' at a satellite point;
        vectors are kept unreduced, since the sum is only right on those."""
        for e in curves:
            if e not in self:
                raise InputError(f"blow-up on unknown curve {e!r}")
            if self.vertices[e].rate_vector is None:
                raise InputError(f"blow-up on curve {e!r}, which has no rate vector")
        if len(curves) > 2 or curves[1:] and curves[0] not in self._adjacent[curves[1]]:
            raise InputError(f"curves {list(curves)!r} meet in no point to blow up")
        _check_multiplicities(vid, strict or {})
        old = [self.vertices[e] for e in curves]
        sums: dict = {}
        for source in [v.multiplicities for v in old] + [strict or {}]:
            for n, m in source.items():
                sums[n] = sums.get(n, 0) + m
        p, q = _RATE_STEP[len(old)]
        for v in old:
            p, q = p + v.rate_vector[0], q + v.rate_vector[1]
        new = Vertex(vid, -1, 0, Fraction(p, q), dict(sorted(sums.items())), set(), (p, q))
        self._store(new)
        self._adjacent[vid] = list(curves)
        for e in curves:
            self.vertices[e].self_intersection -= 1
            self.edges.append((e, vid))
            self._adjacent[e].append(vid)
        if len(curves) == 2:
            self.remove_edge(*curves)
        return new

    def copy(self) -> "DualGraph":
        """A graph of the same type that shares no mutable state with this
        one: each vertex is rebuilt with its own multiplicities and flags,
        and arrows, being immutable, are shared."""
        out = type(self)()
        for vid in self.ids():
            v = self.vertices[vid]
            out._store(Vertex(v.id, v.self_intersection, v.genus, v.rate,
                              dict(v.multiplicities), set(v.flags),
                              v.rate_vector))
        out.edges = list(self.edges)
        out.arrows = list(self.arrows)
        out._adjacent = {vid: list(ws) for vid, ws in self._adjacent.items()}
        return out

    # -- reading --------------------------------------------------------------

    def neighbors(self, vid) -> list:
        """The stored adjacency list of ``vid``: read it, never change it."""
        return self._adjacent[vid]

    def valence(self, vid) -> int:
        return len(self._adjacent[vid])

    def arrow_pairs(self, name) -> list[tuple]:
        """(vertex, multiplicity) of every arrow of the named function."""
        return [(a.vertex, a.multiplicity) for a in self.arrows if a.name == name]

    def function_names(self) -> list[str]:
        """Functions whose multiplicities some vertex stores."""
        return sorted({n for vid in self.ids()
                       for n in self.vertices[vid].multiplicities})

    def component(self, start, within=None) -> dict:
        """``reach`` from ``start`` in this graph."""
        return reach(self._adjacent, start, within)

    def components(self, within=None) -> list[dict]:
        """The breadth-first tree of each component of the graph, or of the
        vertices ``within``: ``component`` of each vertex that no earlier
        tree holds, in ``ids()`` order or that of ``within``."""
        trees, seen = [], set()
        for vid in self.ids() if within is None else within:
            if vid not in seen:
                trees.append(self.component(vid, within))
                seen.update(trees[-1])
        return trees

    def is_connected(self) -> bool:
        return len(self.components()) < 2

    def intersection_rows(self) -> tuple[dict, list[dict]]:
        """The row of each vertex id, and the intersection matrix as
        ``exactnum.eliminate`` rows in any order with each tree vertex
        before its parent, so that nothing fills in; here each component in
        reverse breadth-first order from its first vertex."""
        index = {w: i for i, w in enumerate(
            w for tree in self.components() for w in reversed(tree))}
        rows = [{i: self.vertices[vid].self_intersection}
                for vid, i in index.items()]
        for a, b in self.edges:
            i, j = index[a], index[b]
            rows[i][j] = rows[i].get(j, 0) + 1
            rows[j][i] = rows[j].get(i, 0) + 1
        return index, rows

    def determinant(self) -> int:
        return eliminate(self.intersection_rows()[1]).determinant

    def is_negative_definite(self) -> bool:
        """Sign test on the leading principal minors, (-1)^k minor_k > 0,
        all read off one ``exactnum.eliminate`` pass."""
        return _negative_definite(eliminate(self.intersection_rows()[1]).minors)

    def laufer_residuals(self, coefficients: dict, arrows: Sequence[tuple] = ()
                         ) -> dict:
        """Residual of the Laufer-zero condition at every vertex for the
        divisor with the given coefficients plus the given strict arrows."""
        arrow_mult: dict = {}
        for vid, mult in arrows:
            arrow_mult[vid] = arrow_mult.get(vid, 0) + mult
        out = {}
        for vid in self.ids():
            acc = coefficients.get(vid, 0) * self.vertices[vid].self_intersection
            for w in self._adjacent[vid]:
                acc += coefficients.get(w, 0)
            out[vid] = acc + arrow_mult.get(vid, 0)
        return out


class DualTree(DualGraph):
    """Decorated dual tree of a composition of point blow-ups over the
    plane: a DualGraph whose vertex ids are 0..n-1 in creation order, each
    vertex with a rate vector, stored as a list indexed by id, with the root 0."""

    root = 0

    def __init__(self):
        super().__init__()
        self.vertices = []

    def __contains__(self, vid) -> bool:
        return (type(vid) is int or is_int(vid)) and 0 <= vid < len(self.vertices)

    def ids(self) -> list:
        return list(range(len(self.vertices)))

    def _store(self, v: Vertex):
        if v.id != len(self.vertices) or not is_int(v.id):
            raise InputError(f"tower vertex id {v.id!r} is not its position "
                             f"{len(self.vertices)}")
        if v.rate_vector is None:
            raise InputError(f"tower vertex {v.id!r} has no rate_vector")
        self.vertices.append(v)


def verify_graph(graph: DualGraph) -> list[str]:
    """Problems of a resolution graph: not connected, not negative
    definite, or a function whose multiplicities some vertices store
    while others do not, or that fail Laufer-zero with its arrows."""
    return verify_graph_det(graph)[0]


def verify_graph_det(graph: DualGraph) -> tuple[list[str], int]:
    """``verify_graph``'s problems and the intersection determinant, both
    read off one elimination."""
    problems, starts = [], [next(iter(tree)) for tree in graph.components()]
    if starts[1:]:
        problems.append(f"graph is not connected: no path from vertex {starts[0]} "
                        f"to {', '.join(map(str, starts[1:]))}")
    elim = eliminate(graph.intersection_rows()[1])
    if not _negative_definite(elim.minors):
        problems.append("intersection matrix is not negative definite")
    for name in graph.function_names():
        coeffs = {vid: graph.vertices[vid].multiplicities.get(name)
                  for vid in graph.ids()}
        missing = [vid for vid, c in coeffs.items() if c is None]
        problems += [f"no multiplicity for {name!r} at vertex {vid}"
                     for vid in missing]
        if not missing:
            residuals = graph.laufer_residuals(coeffs, graph.arrow_pairs(name))
            problems += [f"laufer residual {r} for {name!r} at vertex {vid}"
                         for vid, r in residuals.items() if r]
    return problems, elim.determinant
