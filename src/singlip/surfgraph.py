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

import copy
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DomainError, InputError, ResourceCapExceeded
from .exactnum import eliminate
from .tower import (DualTree, blow_up_arrow, blow_up_edge,
                    CURVE_FUNCTION, GENERIC_LINEAR)

L_NODE = "L"
DELTA_NODE = "Delta"
P_NODE = "P"
KNOWN_FLAGS = {L_NODE, DELTA_NODE, P_NODE}
ARROW_KINDS = {"generic-linear", "polar", "function", "branch"}


@dataclass
class GraphVertex:
    id: object
    self_intersection: int
    genus: int = 0
    rate: Optional[Fraction] = None
    multiplicities: dict = field(default_factory=dict)
    flags: set = field(default_factory=set)


@dataclass(frozen=True)
class GraphArrow:
    vertex: object
    name: str
    multiplicity: int
    kind: str = "function"


@dataclass
class DualGraph:
    """Resolution graph: vertices with decorations, edges (multi-edges
    allowed), and arrows for strict transforms."""

    vertices: dict = field(default_factory=dict)
    edges: list = field(default_factory=list)
    arrows: list = field(default_factory=list)

    def add_vertex(self, vid, self_intersection, genus=0, rate=None,
                   multiplicities=None, flags=None) -> GraphVertex:
        if vid in self.vertices:
            raise InputError(f"duplicate vertex id {vid!r}")
        v = GraphVertex(vid, self_intersection, genus,
                        None if rate is None else Fraction(rate),
                        dict(multiplicities or {}), set(flags or ()))
        bad = v.flags - KNOWN_FLAGS
        if bad:
            raise InputError(f"unknown vertex flags {sorted(bad)}")
        self.vertices[vid] = v
        return v

    def add_edge(self, a, b):
        if a not in self.vertices or b not in self.vertices:
            raise InputError(f"edge ({a!r},{b!r}) references unknown vertex")
        self.edges.append((a, b))

    def add_arrow(self, vertex, name, multiplicity=1, kind="function"):
        if vertex not in self.vertices:
            raise InputError(f"arrow references unknown vertex {vertex!r}")
        if kind not in ARROW_KINDS:
            raise InputError(f"unknown arrow kind {kind!r}")
        if not isinstance(multiplicity, int) or multiplicity < 1:
            raise InputError("arrow multiplicity must be a positive integer")
        self.arrows.append(GraphArrow(vertex, name, multiplicity, kind))

    def copy(self) -> "DualGraph":
        return copy.deepcopy(self)

    def ids(self) -> list:
        return list(self.vertices)

    def neighbors(self, vid) -> list:
        out = []
        for a, b in self.edges:
            if a == vid:
                out.append(b)
            if b == vid:
                out.append(a)
        return out

    def valence(self, vid) -> int:
        return len(self.neighbors(vid))

    def arrows_at(self, vid, name=None, kind=None) -> list[GraphArrow]:
        return [a for a in self.arrows if a.vertex == vid
                and (name is None or a.name == name)
                and (kind is None or a.kind == kind)]

    def is_connected(self) -> bool:
        ids = self.ids()
        if not ids:
            return True
        seen = {ids[0]}
        queue = [ids[0]]
        while queue:
            v = queue.pop()
            for w in self.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == len(ids)

    def intersection_matrix(self) -> list[list[int]]:
        ids = self.ids()
        index = {v: i for i, v in enumerate(ids)}
        m = [[0] * len(ids) for _ in ids]
        for v in ids:
            m[index[v]][index[v]] = self.vertices[v].self_intersection
        for a, b in self.edges:
            m[index[a]][index[b]] += 1
            m[index[b]][index[a]] += 1
        return m

    def determinant(self) -> int:
        return eliminate(self.intersection_matrix()).determinant

    def is_negative_definite(self) -> bool:
        """Sign test on the leading principal minors, (-1)^k minor_k > 0,
        all read off one ``exactnum.eliminate`` pass."""
        minors = eliminate(self.intersection_matrix()).minors
        return all(d * (-1) ** k > 0 for k, d in enumerate(minors, 1))

    def laufer_residuals(self, coefficients: dict, arrows: Sequence[tuple] = ()
                         ) -> dict:
        """Residual of the Laufer-zero condition at every vertex for the
        divisor with the given coefficients plus the given strict arrows."""
        arrow_mult: dict = {}
        for vid, mult in arrows:
            arrow_mult[vid] = arrow_mult.get(vid, 0) + mult
        out = {}
        for vid, v in self.vertices.items():
            acc = coefficients.get(vid, 0) * v.self_intersection
            for w in self.neighbors(vid):
                acc += coefficients.get(w, 0)
            acc += arrow_mult.get(vid, 0)
            out[vid] = acc
        return out


@dataclass(frozen=True)
class Divisor:
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
        pairs = [(a.vertex, a.multiplicity) for a in graph.arrows if a.name == arrows]
        if not pairs:
            raise InputError(f"graph has no arrows named {arrows!r}")
    else:
        pairs = list(arrows)
    ids = graph.ids()
    index = {v: i for i, v in enumerate(ids)}
    rhs = [0] * len(ids)
    for vid, mult in pairs:
        rhs[index[vid]] -= mult
    # exact solve by the shared Bareiss elimination, exactnum.eliminate
    solved = eliminate(graph.intersection_matrix(), rhs)
    if solved.solution is None:
        raise DomainError("singular intersection matrix")
    values = list(solved.solution)
    if strict and any(v.denominator != 1 for v in values):
        raise DomainError(f"non-integral multiplicities {values}")
    coeffs = {vid: (values[index[vid]].numerator if values[index[vid]].denominator == 1
                    else values[index[vid]]) for vid in ids}
    return Divisor(coeffs, tuple(sorted((str(v), mu) for v, mu in pairs)))


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
    return Divisor(coeffs, tuple((v, m) for v, m in sorted(arrows, key=str)))


def has_base_point(divisors: Sequence[Divisor], vertex) -> bool:
    """The pencil has a base point on the curve iff the generators vanish
    to different orders along it."""
    values = {d.coefficient(vertex) for d in divisors}
    return len(values) > 1


@dataclass(frozen=True)
class PencilStep:
    vertex: object
    multiplicities: tuple


def _fresh_id(graph: DualGraph):
    ids = graph.ids()
    if all(isinstance(v, str) and re.fullmatch(r"E\d+", v) for v in ids):
        return f"E{max(int(v[1:]) for v in ids) + 1}"
    if all(isinstance(v, int) for v in ids):
        return max(ids) + 1
    k = len(ids)
    while f"v{k}" in graph.vertices:
        k += 1
    return f"v{k}"


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
    current = vertex
    while ma != mb:
        if len(steps) > cap:
            raise ResourceCapExceeded(f"pencil resolution cap {cap} exceeded")
        new = _fresh_id(g)
        g.vertices[current].self_intersection -= 1
        g.add_vertex(new, -1)
        g.add_edge(new, current)
        if ma < mb:
            ma, mb = ma + 1, mb
        else:
            ma, mb = ma, mb + 1
        current = new
        steps.append(PencilStep(current, (ma, mb)))
    return g, steps


# -- Laufer double cover ------------------------------------------------------

def _parity_items(tree: DualTree, name: str):
    """Edges and arrows of the total transform of the named function,
    with the multiplicities of their two sides."""
    for a, b in sorted(tree.edges):
        yield ("edge", (a, b),
               tree.vertices[a].multiplicities.get(name, 0),
               tree.vertices[b].multiplicities.get(name, 0))
    for i, arrow in enumerate(tree.arrows):
        if arrow.name == name:
            yield ("arrow", i,
                   tree.vertices[arrow.vertex].multiplicities.get(name, 0),
                   arrow.multiplicity)


def laufer_parity_prepare(tree: DualTree, name: str = CURVE_FUNCTION) -> DualTree:
    """Blow up every intersection point of two odd-multiplicity components
    of the total transform (arrows counted); the result has no odd-odd
    adjacency, so the branch locus of the double cover is smooth."""
    out = tree
    changed = True
    while changed:
        changed = False
        for kind, ref, m1, m2 in list(_parity_items(out, name)):
            if m1 % 2 == 1 and m2 % 2 == 1:
                if kind == "edge":
                    out, _ = blow_up_edge(out, *ref)
                else:
                    out, _ = blow_up_arrow(out, ref)
                changed = True
                break
    return out


def laufer_double_cover(tree: DualTree, name: str = CURVE_FUNCTION) -> DualGraph:
    """Resolution graph of z^2 + f from a parity-prepared resolution of f.

    Requires strictly alternating parity: every edge and every arrow
    incidence pairs an odd component with an even one.  Odd vertices keep
    their multiplicity and halve their self-intersection; even vertices
    halve their multiplicity, double their self-intersection, and get genus
    k/2 - 1 from their k branch points.  Other tracked functions pull back
    with doubled multiplicity on odd (ramified) vertices.
    """
    for kind, ref, m1, m2 in _parity_items(tree, name):
        if m1 % 2 == m2 % 2:
            parity = "odd-odd" if m1 % 2 else "even-even"
            raise DomainError(
                f"{parity} adjacency at {kind} {ref}; not in the combinatorial "
                "case of the double cover construction")

    graph = DualGraph()
    other_names = [n for n in tree.function_names() if n != name]
    for v in tree.vertices:
        m = v.multiplicities.get(name, 0)
        if m % 2 == 1:
            if v.self_intersection % 2 != 0:
                raise DomainError(
                    f"odd self-intersection {v.self_intersection} at branch "
                    f"vertex {v.index} cannot be halved")
            self_int = v.self_intersection // 2
            mult = m
            genus = 0
            scale = {n: 2 for n in other_names}
        else:
            branch_points = sum(
                1 for w in tree.adjacency(v.index)
                if tree.vertices[w].multiplicities.get(name, 0) % 2 == 1)
            branch_points += sum(1 for a in tree.arrows_at(v.index, name)
                                 if a.multiplicity % 2 == 1)
            if branch_points == 0:
                raise DomainError(
                    f"even vertex {v.index} has no branch points; the cover "
                    "splits over it")
            if branch_points % 2 == 1:
                raise DomainError(
                    f"odd branch point count {branch_points} at vertex {v.index}")
            self_int = 2 * v.self_intersection
            mult = m // 2
            genus = branch_points // 2 - 1
            scale = {n: 1 for n in other_names}
        mults = {name: mult}
        for n in other_names:
            mults[n] = v.multiplicities.get(n, 0) * scale[n]
        graph.add_vertex(v.index, self_int, genus=genus, rate=v.rate,
                         multiplicities=mults)
    for a, b in sorted(tree.edges):
        graph.add_edge(a, b)
    for arrow in tree.arrows:
        if arrow.name == name:
            graph.add_arrow(arrow.vertex, name, arrow.multiplicity, arrow.kind)
    # strict parts of the other functions are forced by the residuals
    for n in other_names:
        coeffs = {v.index: graph.vertices[v.index].multiplicities[n]
                  for v in tree.vertices}
        for vid, mult in strict_part_from_residuals(graph, coeffs):
            graph.add_arrow(vid, n, mult, "generic-linear" if n == GENERIC_LINEAR
                            else "function")
    return graph


def blowdownable_vertices(graph: DualGraph) -> list:
    """Rational -1 vertices of valence <= 2 carrying no arrows, excepting
    the curves that separate two L-curves (those exist precisely so that no
    two L-curves intersect).  A good minimal resolution has none."""
    out = []
    for vid, v in graph.vertices.items():
        if v.self_intersection != -1 or v.genus != 0:
            continue
        if graph.valence(vid) > 2 or graph.arrows_at(vid):
            continue
        nbrs = graph.neighbors(vid)
        if len(nbrs) == 2 and all(L_NODE in graph.vertices[w].flags
                                  for w in nbrs):
            continue
        out.append(vid)
    return out


def tower_to_graph(tree: DualTree, flags: Optional[dict] = None) -> DualGraph:
    """View a blow-up tower as a decorated resolution graph."""
    graph = DualGraph()
    flags = flags or {}
    for v in tree.vertices:
        graph.add_vertex(v.index, v.self_intersection, genus=0, rate=v.rate,
                         multiplicities=dict(v.multiplicities),
                         flags=flags.get(v.index, ()))
    for a, b in sorted(tree.edges):
        graph.add_edge(a, b)
    for arrow in tree.arrows:
        graph.add_arrow(arrow.vertex, arrow.name, arrow.multiplicity,
                        arrow.kind)
    return graph
