"""Calculus on decorated resolution graphs of normal surface germs.

Covers four operations: solving total-transform multiplicities from the
Laufer-zero conditions, componentwise minima of divisors (generic pencil
members), graph-level resolution of pencil base points, and the branched
double cover construction for hypersurfaces z^2 + f(x,y) built from a
parity-prepared embedded resolution of f.

On parity: an exceptional curve belongs to the branch locus of the double
cover exactly when its f-multiplicity is odd, so intersection points of two
odd components must be blown up first (the new curve has even multiplicity,
which separates the branch locus).  The combinatorial cover below requires
every adjacency of the prepared tree, arrows included, to pair an odd with
an even component; same-parity adjacencies are rejected.  The cover halves
self-intersections of odd vertices and doubles those of even ones, which is
the opposite assignment from the one a literal reading of the classical
recipe suggests but the only one that reproduces the known E8 graph and the
standard branched-cover computation.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from itertools import count
from typing import NamedTuple, Optional, Sequence

from .errors import DomainError, InputError, ResourceCapExceeded
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
        for m in mults.values():
            if not (type(m) is int or is_int(m)) or m < 0:
                raise InputError(f"vertex {vid!r}: multiplicities must be non-negative "
                                 "integers")
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
            rate = Fraction(*rate_vector) if rate is None else rate
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
        for m in (strict or {}).values():  # exact type first; 0 + True is the int 1
            if not (type(m) is int or is_int(m)):
                raise InputError(f"vertex {vid!r}: multiplicities must be non-negative "
                                 "integers")
        old = [self.vertices[e] for e in curves]
        sums: dict = {}
        for source in [v.multiplicities for v in old] + [strict or {}]:
            for n, m in source.items():
                sums[n] = sums.get(n, 0) + m
        # each sum starts at 0: an int, never a bool, when its terms are integers
        if not all(isinstance(m, int) and m >= 0 for m in sums.values()):
            raise InputError(f"vertex {vid!r}: multiplicities must be non-negative "
                             "integers")
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
    plane: a DualGraph whose vertex ids are 0..n-1 in creation order,
    stored as a list indexed by id, with the root 0."""

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


class Divisor(NamedTuple):
    """Compact-part coefficients of a total transform plus its strict part."""

    coefficients: dict
    strict_arrows: tuple = ()

    def coefficient(self, vid):
        return self.coefficients.get(vid, 0)

    def to_json(self) -> dict:
        return {"coefficients": {str(k): v for k, v in self.coefficients.items()},
                "strict": [{"vertex": str(v), "multiplicity": m}
                           for v, m in self.strict_arrows]}


def solve_multiplicities(graph: DualGraph, arrows, strict: bool = True) -> Divisor:
    """Unique divisor with Laufer-zero everywhere for the given strict part.

    ``arrows`` is either a function name (taking the graph's arrows of that
    name) or an explicit list of (vertex, multiplicity) pairs.  The linear
    system M*m = -b is solved exactly over the rationals; with ``strict``
    a non-integral solution is an error.
    """
    if isinstance(arrows, str):
        pairs = graph.arrow_pairs(arrows)
        if not pairs:
            raise InputError(f"graph has no arrows named {arrows!r}")
    else:
        pairs = list(arrows)
    index, rows = graph.intersection_rows()
    rhs = [0] * len(rows)
    for vid, mult in pairs:
        rhs[index[vid]] -= mult
    solved = eliminate(rows, rhs)
    if solved.solution is None:
        raise DomainError("singular intersection matrix")
    values = [solved.solution[index[vid]] for vid in graph.ids()]
    if strict and any(v.denominator != 1 for v in values):
        raise DomainError(f"non-integral multiplicities {values}")
    coeffs = {vid: v.numerator if v.denominator == 1 else v
              for vid, v in zip(graph.ids(), values)}
    return Divisor(coeffs, tuple(sorted(pairs, key=_arrow_order)))


def _arrow_order(pair: tuple) -> tuple:
    return str(pair[0]), pair[1]  # integer and string ids sort alike


def strict_part_from_residuals(graph: DualGraph, coefficients: dict) -> list[tuple]:
    """Arrows forced by Laufer-zero: multiplicity -residual at each vertex."""
    out = []
    for vid, r in graph.laufer_residuals(coefficients).items():
        if r > 0:
            raise DomainError(f"positive Laufer residual {r} at {vid!r}")
        if r < 0:
            out.append((vid, -r))
    return out


def pencil_min(graph: DualGraph, divisors: Sequence[Divisor]) -> Divisor:
    """Divisor of a generic member of the pencil: componentwise minimum of
    the compact parts, strict part recomputed from the residuals."""
    if not divisors:
        raise InputError("pencil_min needs at least one divisor")
    coeffs = {vid: min(d.coefficient(vid) for d in divisors) for vid in graph.ids()}
    arrows = strict_part_from_residuals(graph, coeffs)
    return Divisor(coeffs, tuple(sorted(arrows, key=_arrow_order)))


def has_base_point(divisors: Sequence[Divisor], vertex) -> bool:
    """The pencil has a base point on the curve iff the generators vanish
    to different orders along it."""
    values = {d.coefficient(vertex) for d in divisors}
    return len(values) > 1


class PencilStep(NamedTuple):
    vertex: object
    multiplicities: tuple


def _fresh_ids(graph: DualGraph):
    """New ids for ``graph``, each free once those before it are added: E<n>
    past the largest, the next integers, or the free v<k> from k = |V|."""
    ids = graph.ids()
    if all(isinstance(v, str) and re.fullmatch(r"E\d+", v) for v in ids):
        return (f"E{n}" for n in count(max(int(v[1:]) for v in ids) + 1))
    if all(isinstance(v, int) for v in ids):
        return count(max(ids) + 1)
    return (f"v{k}" for k in count(len(ids)) if f"v{k}" not in graph.vertices)


def resolve_pencil(graph: DualGraph, div_a: Divisor, div_b: Divisor, vertex,
                   cap: int = 64) -> tuple[DualGraph, list[PencilStep]]:
    """Blow up the base point of a two-generator pencil until both
    generators have equal multiplicity along the newest curve.

    Each step blows up the point of the current curve carried by the
    lower-multiplicity generator's strict transform: the new multiplicity
    of that generator grows by its arrow contribution (one), the other
    generator's pulls back unchanged.
    """
    g = graph.copy()
    ma, mb = div_a.coefficient(vertex), div_b.coefficient(vertex)
    steps: list[PencilStep] = [PencilStep(vertex, (ma, mb))]
    current, fresh = vertex, _fresh_ids(g)
    while ma != mb:
        if len(steps) > cap:
            raise ResourceCapExceeded(f"pencil resolution cap {cap} exceeded")
        new = next(fresh)
        g.vertices[current].self_intersection -= 1
        g.add_vertex(new, -1)
        g.add_edge(new, current)
        if ma < mb:
            ma += 1
        else:
            mb += 1
        current = new
        steps.append(PencilStep(current, (ma, mb)))
    return g, steps


# -- Laufer double cover ------------------------------------------------------

def _parity_items(tree: DualTree):
    """Edges and arrows of the total transform of f, with the
    multiplicities of their two sides."""
    m = [v.multiplicities.get(CURVE_FUNCTION, 0) for v in tree.vertices]
    for a, b in sorted(tree.edges):
        yield "edge", (a, b), m[a], m[b]
    for i, arrow in enumerate(tree.arrows):
        if arrow.name == CURVE_FUNCTION:
            yield "arrow", i, m[arrow.vertex], arrow.multiplicity


def laufer_parity_prepare(tree: DualTree) -> DualTree:
    """Blow up every intersection point of two odd-multiplicity components
    of the total transform, moving an arrow to the curve over its point;
    the result has no odd-odd adjacency, so the cover's branch locus is smooth.

    One pass over the input's items suffices: blowing up an odd-odd point
    gives an even curve, which creates no new odd-odd point, and leaves
    the multiplicities of the other items alone."""
    odd = [(kind, ref) for kind, ref, m1, m2 in _parity_items(tree)
           if m1 % 2 == 1 and m2 % 2 == 1]
    if not odd:
        return tree
    out = tree.copy()
    for (kind, ref), new in zip(odd, _fresh_ids(out)):
        if kind == "edge":
            out.blow_up(new, ref)
        else:
            arrow = out.arrows[ref]
            out.blow_up(new, (arrow.vertex,), {arrow.name: arrow.multiplicity})
            out.arrows[ref] = arrow._replace(vertex=new)
    return out


def laufer_double_cover(tree: DualTree) -> DualGraph:
    """Resolution graph of z^2 + f from a parity-prepared resolution of f.

    Requires strictly alternating parity: every edge and every arrow
    incidence pairs an odd component with an even one.  Odd vertices keep
    their multiplicity and halve their self-intersection; even vertices
    halve their multiplicity, double their self-intersection, and get genus
    k/2 - 1 from their k branch points.  Other tracked functions pull back
    with doubled multiplicity on odd (ramified) vertices.
    """
    branch_points: Counter = Counter()  # even vertex -> odd partners
    for kind, ref, m1, m2 in _parity_items(tree):
        if m1 % 2 == m2 % 2:
            parity = "odd-odd" if m1 % 2 else "even-even"
            raise DomainError(
                f"{parity} adjacency at {kind} {ref}; not in the combinatorial "
                "case of the double cover construction")
        if kind == "edge":  # a branch point on its even end
            branch_points[ref[m1 % 2]] += 1
        elif m2 % 2:  # an odd arrow meets an even vertex
            branch_points[tree.arrows[ref].vertex] += 1

    graph = tower_to_graph(tree)
    graph.arrows = [a for a in graph.arrows if a.name == CURVE_FUNCTION]
    other_names = [n for n in tree.function_names() if n != CURVE_FUNCTION]
    for v in graph.vertices.values():
        m = v.multiplicities.get(CURVE_FUNCTION, 0)
        if m % 2 == 1:
            if v.self_intersection % 2 != 0:
                raise DomainError(
                    f"odd self-intersection {v.self_intersection} at branch "
                    f"vertex {v.id} cannot be halved")
            v.self_intersection //= 2
            scale = 2
        else:
            k = branch_points[v.id]
            if k == 0:
                raise DomainError(
                    f"even vertex {v.id} has no branch points; the cover "
                    "splits over it")
            if k % 2 == 1:
                raise DomainError(f"odd branch point count {k} at vertex {v.id}")
            v.self_intersection *= 2
            v.multiplicities[CURVE_FUNCTION] = m // 2
            v.genus = k // 2 - 1
            scale = 1
        for n in other_names:
            v.multiplicities[n] = v.multiplicities.get(n, 0) * scale
    # strict parts of the other functions are forced by the residuals
    for n in other_names:
        coeffs = {vid: v.multiplicities[n] for vid, v in graph.vertices.items()}
        for vid, mult in strict_part_from_residuals(graph, coeffs):
            graph.add_arrow(vid, n, mult, "generic-linear" if n == GENERIC_LINEAR
                            else "function")
    return graph


def blowdownable_vertices(graph: DualGraph) -> list:
    """Rational -1 vertices of valence <= 2 carrying no arrows, excepting
    the curves that separate two L-curves (those exist precisely so that no
    two L-curves intersect).  A good minimal resolution has none."""
    out = []
    arrowed = {a.vertex for a in graph.arrows}
    for vid, v in graph.vertices.items():
        if v.self_intersection != -1 or v.genus != 0:
            continue
        if graph.valence(vid) > 2 or vid in arrowed:
            continue
        nbrs = graph.neighbors(vid)
        if len(nbrs) == 2 and all(L_NODE in graph.vertices[w].flags
                                  for w in nbrs):
            continue
        out.append(vid)
    return out


def tower_to_graph(tree: DualTree, flags: Optional[dict] = None) -> DualGraph:
    """The tower as a resolution graph with dict storage, edges sorted and
    the given vertex flags added."""
    graph = DualGraph()
    for v in tree.vertices:
        graph.add_vertex(v.id, v.self_intersection, v.genus, v.rate,
                         v.multiplicities, (flags or {}).get(v.id, ()),
                         v.rate_vector)
    for a, b in sorted(tree.edges):
        graph.add_edge(a, b)
    graph.arrows = list(tree.arrows)
    return graph
