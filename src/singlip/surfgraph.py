"""Calculus on decorated resolution graphs of normal surface germs, whose
type is ``dualgraph.DualGraph``.  Four operations: solving total-transform
multiplicities from the Laufer-zero conditions, componentwise minima of
divisors (generic pencil members), graph-level resolution of pencil base
points, and the branched double cover construction for hypersurfaces
z^2 + f(x,y) built from a parity-prepared embedded resolution of f.

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
from itertools import count
from typing import NamedTuple, Optional, Sequence

from .dualgraph import CURVE_FUNCTION, GENERIC_LINEAR, L_NODE, DualGraph, DualTree
from .errors import DomainError, InputError, ResourceCapExceeded
from .exactnum import eliminate


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
        raise DomainError(f"non-integral multiplicities [{', '.join(map(str, values))}]")
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
