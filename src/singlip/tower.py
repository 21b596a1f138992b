"""Embedded resolution towers of plane curve germs by iterated point blow-ups.

The simulator keeps, for every infinitely-near point currently carrying
branches, the pair of local coordinate functions restricted to each branch
parametrization (as exact rational-function series in the branch parameter).
Blowing up a point is then series division plus recentering, and deciding
which branches share the next center is an exact comparison of rational
constants.  Points get blown up exactly while the total transform fails to
be a normal crossings divisor with all branch arrows transversal at free
points, so the event sequence is the minimal one.

Every new exceptional curve receives:

  * self-intersection -1, decrementing the curves through the center;
  * an inner-rate vector: (1,1) at the origin, v + (1,0) at a free point of
    the curve with vector v, and the componentwise sum v + v' at a satellite
    point.  Vectors are deliberately kept unreduced; the satellite sum is
    only correct on unreduced vectors.
  * multiplicities of the tracked functions (the curve's own defining
    function "f" and a generic linear form "h"): the sum over curves through
    the center plus the local multiplicities of the branches through it.

Graph-level blow-ups of double points and arrow points (no series needed)
live here too; the double-cover pipeline builds on them.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DomainError, InputError, ResourceCapExceeded
from .exactnum import eliminate
from .series import (RatSeries, padd, pclean, pmul, pmul_trunc, pord, ppow_trunc,
                     pscale, ptrunc, series_fractional_power)
from .strands import PuiseuxBranch, strands_of

DEFAULT_EVENT_CAP = 512

CURVE_FUNCTION = "f"
GENERIC_LINEAR = "h"


@dataclass(frozen=True)
class Arrow:
    vertex: int
    name: str
    multiplicity: int
    kind: str = "function"
    branch: Optional[int] = None


@dataclass
class TowerVertex:
    index: int
    self_intersection: int
    rate_vector: tuple[int, int]
    multiplicities: dict

    @property
    def rate(self) -> Fraction:
        p, q = self.rate_vector
        return Fraction(p, q)


@dataclass(frozen=True)
class BlowupEvent:
    index: int
    center: tuple
    branches_through: tuple[tuple[int, int], ...]


@dataclass
class DualTree:
    """Decorated dual tree of a composition of point blow-ups over the plane."""

    vertices: list[TowerVertex] = field(default_factory=list)
    edges: set = field(default_factory=set)
    arrows: list[Arrow] = field(default_factory=list)
    root: int = 0

    def copy(self) -> "DualTree":
        return copy.deepcopy(self)

    def adjacency(self, v: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return sorted(out)

    def add_edge(self, a: int, b: int):
        self.edges.add(tuple(sorted((a, b))))

    def remove_edge(self, a: int, b: int):
        self.edges.discard(tuple(sorted((a, b))))

    def rates(self) -> list[Fraction]:
        return [v.rate for v in self.vertices]

    def function_names(self) -> list[str]:
        names = set()
        for v in self.vertices:
            names.update(v.multiplicities)
        return sorted(names)

    def arrows_at(self, v: int, name: Optional[str] = None) -> list[Arrow]:
        return [a for a in self.arrows
                if a.vertex == v and (name is None or a.name == name)]

    def intersection_matrix(self) -> list[list[int]]:
        n = len(self.vertices)
        m = [[0] * n for _ in range(n)]
        for i, v in enumerate(self.vertices):
            m[i][i] = v.self_intersection
        for a, b in self.edges:
            m[a][b] += 1
            m[b][a] += 1
        return m

    def determinant(self) -> int:
        return eliminate(self.intersection_matrix()).determinant

    def laufer_residuals(self, name: str) -> list[int]:
        """m_j*E_j^2 + sum of adjacent multiplicities + arrows of the
        function at j; zero everywhere exactly for a total transform."""
        out = []
        for v in self.vertices:
            m = v.multiplicities.get(name, 0)
            acc = m * v.self_intersection
            for w in self.adjacency(v.index):
                acc += self.vertices[w].multiplicities.get(name, 0)
            for a in self.arrows_at(v.index, name):
                acc += a.multiplicity
            out.append(acc)
        return out


@dataclass
class _Point:
    """An infinitely-near point currently carrying branch strict transforms."""

    pid: int
    key: tuple
    du: Optional[int]  # exceptional curve cut out by the first coordinate
    dv: Optional[int]  # exceptional curve cut out by the second, if any
    branches: dict     # branch id -> (RatSeries, RatSeries)
    parent: Optional["_Point"]
    transition: tuple  # ("origin",) | ("c1", landing constant) | ("c2",)


class Resolution:
    """Runs the minimal embedded resolution of a curve and keeps enough
    state to synthesize curvettes of every exceptional curve afterwards."""

    def __init__(self, curve: Sequence[PuiseuxBranch], event_cap: int = DEFAULT_EVENT_CAP,
                 track_generic: bool = True, record_determinants: bool = False):
        strands_of(curve)  # validates branches and rejects duplicates
        self.curve = list(curve)
        self.event_cap = event_cap
        self.track_generic = track_generic
        self.record_determinants = record_determinants
        self.prefix_determinants: list[int] = []
        self.tree = DualTree()
        self.events: list[BlowupEvent] = []
        self.creation_point: dict[int, _Point] = {}
        self._next_pid = 0
        self._active: dict[int, _Point] = {}
        self._seed()
        self._run()

    # -- setup ------------------------------------------------------------

    def _seed(self):
        branches = {}
        for i, b in enumerate(self.curve):
            x, y = b.parametrization()
            branches[i] = (RatSeries.from_poly({e: c for e, c in x.items()}),
                           RatSeries.from_poly({e: c for e, c in y.items()}))
        origin = _Point(self._new_pid(), ("origin",), None, None,
                        branches, None, ("origin",))
        self._active[origin.pid] = origin

    def _new_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    # -- main loop ----------------------------------------------------------

    def _run(self):
        while True:
            targets = sorted(p.pid for p in self._active.values() if self._needs_blowup(p))
            if not targets:
                break
            if len(self.events) >= self.event_cap:
                raise ResourceCapExceeded(
                    f"blow-up event cap {self.event_cap} exceeded")
            self._blow_up(self._active[targets[0]])
            if self.record_determinants:
                self.prefix_determinants.append(self.tree.determinant())
        self._attach_arrows()

    def _needs_blowup(self, p: _Point) -> bool:
        if p.key[0] == "origin":
            return True
        if len(p.branches) >= 2:
            return True
        if p.key[0] == "sat" and p.dv is not None:
            return True  # branch sitting on a double point of the divisor
        (bu, bv), = p.branches.values()
        a = bu.ord()
        b = bv.ord()
        local = a if b is None else min(a, b)
        if local >= 2:
            return True  # singular strict transform
        return a >= 2  # smooth but tangent to the exceptional curve

    def _blow_up(self, p: _Point):
        tree = self.tree
        new = len(tree.vertices)
        exceptional = [e for e in (p.du, p.dv) if e is not None]

        if not exceptional:
            vector = (1, 1)
        elif len(exceptional) == 1:
            pe, qe = tree.vertices[exceptional[0]].rate_vector
            vector = (pe + 1, qe)
        else:
            (p1, q1) = tree.vertices[exceptional[0]].rate_vector
            (p2, q2) = tree.vertices[exceptional[1]].rate_vector
            vector = (p1 + p2, q1 + q2)

        through = tuple(sorted(
            (bid, self._local_multiplicity(pair)) for bid, pair in p.branches.items()))
        mults = {}
        names = {CURVE_FUNCTION} | ({GENERIC_LINEAR} if self.track_generic else set())
        for name in names:
            acc = sum(tree.vertices[e].multiplicities.get(name, 0) for e in exceptional)
            if name == CURVE_FUNCTION:
                acc += sum(m for _, m in through)
            if name == GENERIC_LINEAR and p.key[0] == "origin":
                acc += 1
            mults[name] = acc

        tree.vertices.append(TowerVertex(new, -1, vector, mults))
        for e in exceptional:
            tree.vertices[e].self_intersection -= 1
            tree.add_edge(new, e)
        if len(exceptional) == 2:
            tree.remove_edge(*exceptional)

        if p.key[0] == "origin":
            center = ("origin",)
        elif len(exceptional) == 2:
            center = ("satellite", exceptional[0], exceptional[1])
        else:
            tag = p.key[2] if p.key[0] == "free" else "axis"
            center = ("free", exceptional[0], tag)
        self.events.append(BlowupEvent(len(self.events), center, through))

        if self.track_generic and p.key[0] == "origin":
            tree.arrows.append(Arrow(new, GENERIC_LINEAR, 1, "generic-linear"))

        self.creation_point[new] = p
        del self._active[p.pid]
        self._land_branches(p, new)

    @staticmethod
    def _local_multiplicity(pair) -> int:
        bu, bv = pair
        a = bu.ord()
        b = bv.ord()
        return a if b is None else min(a, b)

    def _land_branches(self, p: _Point, new: int):
        landings: dict[tuple, _Point] = {}
        for bid, (bu, bv) in sorted(p.branches.items()):
            a = bu.ord()
            b = bv.ord()
            if b is not None and b < a:
                key = ("sat", new, p.du)
                frame = (new, p.du)
                trans = ("c2",)
                pair = (bv, bu.div(bv))
            else:
                ratio = bv.div(bu)
                c = ratio.coeff(0)
                if c:
                    key = ("free", new, c)
                    frame = (new, None)
                    trans = ("c1", c)
                    pair = (bu, ratio.sub_const(c))
                else:
                    key = ("sat", new, p.dv)
                    frame = (new, p.dv)
                    trans = ("c1", Fraction(0))
                    pair = (bu, ratio)
            point = landings.get(key)
            if point is None:
                point = _Point(self._new_pid(), key, frame[0], frame[1], {}, p, trans)
                landings[key] = point
                self._active[point.pid] = point
            point.branches[bid] = pair

    def _attach_arrows(self):
        for point in sorted(self._active.values(), key=lambda q: q.pid):
            for bid, (bu, bv) in sorted(point.branches.items()):
                assert bu.ord() == 1 and point.du is not None
                self.tree.arrows.append(
                    Arrow(point.du, CURVE_FUNCTION, 1, "branch", branch=bid))

    # -- curvettes ----------------------------------------------------------

    def curvette_pair(self, vertex: int) -> tuple[PuiseuxBranch, PuiseuxBranch]:
        """Two curvettes with distinct free landing constants, normalised to
        a common x-coordinate scale so their contact is well defined."""
        n, _ = self._curvette_shape(vertex)
        c1, c2 = Fraction(2 ** n), Fraction(3 ** n)
        k = self._curvette_precision(vertex)
        a1, b1 = self._pushdown(vertex, c1)
        a2, b2 = self._pushdown(vertex, c2)
        kappa1 = a1[pord(a1)]
        kappa2 = a2[pord(a2)]
        rho = _nth_root(kappa2 / kappa1, n)
        a2, b2 = _reparametrize(a2, rho), _reparametrize(b2, rho)
        scale = 1 / kappa1
        g1 = _puiseux_from_parametrization(pscale(a1, scale), b1, k)
        g2 = _puiseux_from_parametrization(pscale(a2, scale), b2, k)
        return g1, g2

    def _pushdown(self, vertex: int, c: Fraction):
        a, b = {1: Fraction(1)}, {1: Fraction(c)}
        point = self.creation_point[vertex]
        while point is not None:
            t = point.transition
            if t[0] == "c1":
                b = pmul(a, padd(b, {0: t[1]}))
            elif t[0] == "c2":
                a, b = pmul(a, b), dict(a)
            point = point.parent
        return a, b

    def _curvette_shape(self, vertex: int) -> tuple[int, Fraction]:
        a, _ = self._pushdown(vertex, Fraction(1))
        return pord(a), self.tree.vertices[vertex].rate

    def _curvette_precision(self, vertex: int) -> int:
        # the pair differs first at the vertex rate, so the series only
        # needs to be exact slightly beyond t-order n*rate
        n, rate = self._curvette_shape(vertex)
        return (n * rate.numerator) // rate.denominator + 3


def _int_nth_root(x: int, n: int) -> int:
    if x < 2 or n == 1:
        return x
    guess = 1 << (-(-x.bit_length() // n))
    while True:
        nxt = ((n - 1) * guess + x // guess ** (n - 1)) // n
        if nxt >= guess:
            return guess
        guess = nxt


def _nth_root(r: Fraction, n: int) -> Fraction:
    num = _int_nth_root(r.numerator, n)
    den = _int_nth_root(r.denominator, n)
    if Fraction(num, den) ** n != r:
        raise DomainError(f"{r} has no rational {n}-th root")
    return Fraction(num, den)


def _reparametrize(p, rho: Fraction):
    """Substitute t -> t/rho in a polynomial."""
    return pclean({e: c / rho ** e for e, c in p.items()})


def _puiseux_from_parametrization(x, y, k: int) -> PuiseuxBranch:
    """Re-expand a polynomial parametrization (x(t), y(t)) as a Puiseux
    branch y(x) with all terms of t-order below k.

    x must be monic of some order n up to a unit (after the caller's
    scaling), so x^(m/n) = t^m * U^m with U = (1+w)^(1/n) computed once;
    the expansion peels leading terms of y against these exact powers."""
    n = pord(x)
    if n is None or x[n] != 1:
        raise DomainError("parametrization must have monic leading x-term")
    w = pclean({e - n: c for e, c in x.items() if e != n})  # x = t^n (1 + w)
    unit = series_fractional_power(padd({0: Fraction(1)}, w), Fraction(1, n), k)
    terms = []
    rest = ptrunc(dict(y), k)
    upow = {0: Fraction(1)}
    m_cur = 0
    while rest:
        o = pord(rest)
        if o >= k:
            break
        upow = pmul_trunc(upow, ppow_trunc(unit, o - m_cur, k), k)
        m_cur = o
        c = rest[o]
        terms.append((Fraction(o, n), c))
        peel = pscale({e + o: v for e, v in upow.items() if e + o < k}, -c)
        rest = pclean(ptrunc(padd(rest, peel), k))
    if any(e < 1 for e, _ in terms):
        raise DomainError("curvette has an exponent below 1")
    return PuiseuxBranch.from_terms(terms)


def resolve_curve(curve: Sequence[PuiseuxBranch], event_cap: int = DEFAULT_EVENT_CAP
                  ) -> tuple[list[BlowupEvent], DualTree]:
    """Minimal embedded resolution tower of the curve."""
    res = Resolution(curve, event_cap=event_cap)
    return res.events, res.tree


# -- graph-level blow-ups (no branch series involved) -----------------------

def blow_up_edge(tree: DualTree, a: int, b: int) -> tuple[DualTree, int]:
    """Blow up the intersection point of two exceptional curves."""
    if tuple(sorted((a, b))) not in tree.edges:
        raise InputError(f"no edge between {a} and {b}")
    out = tree.copy()
    new = len(out.vertices)
    va, vb = out.vertices[a], out.vertices[b]
    vector = (va.rate_vector[0] + vb.rate_vector[0],
              va.rate_vector[1] + vb.rate_vector[1])
    mults = {name: va.multiplicities.get(name, 0) + vb.multiplicities.get(name, 0)
             for name in set(va.multiplicities) | set(vb.multiplicities)}
    out.vertices.append(TowerVertex(new, -1, vector, mults))
    va.self_intersection -= 1
    vb.self_intersection -= 1
    out.remove_edge(a, b)
    out.add_edge(new, a)
    out.add_edge(new, b)
    return out, new


def blow_up_arrow(tree: DualTree, arrow_index: int) -> tuple[DualTree, int]:
    """Blow up the point where an arrow (a strict transform) meets its curve;
    the arrow moves to the new exceptional curve."""
    out = tree.copy()
    arrow = out.arrows[arrow_index]
    host = out.vertices[arrow.vertex]
    new = len(out.vertices)
    vector = (host.rate_vector[0] + 1, host.rate_vector[1])
    mults = dict(host.multiplicities)
    if arrow.name in mults:
        mults[arrow.name] = mults[arrow.name] + arrow.multiplicity
    else:
        mults[arrow.name] = arrow.multiplicity
    out.vertices.append(TowerVertex(new, -1, vector, mults))
    host.self_intersection -= 1
    out.add_edge(new, arrow.vertex)
    out.arrows[arrow_index] = Arrow(new, arrow.name, arrow.multiplicity,
                                    arrow.kind, arrow.branch)
    return out, new


def blow_all_double_points(tree: DualTree, name: str = CURVE_FUNCTION) -> DualTree:
    """Blow up every intersection point of the named function's total
    transform: all edges plus the points where its arrows meet their
    curves.  Decorative arrows of other functions are left alone."""
    out = tree.copy()
    for a, b in sorted(tree.edges):
        out, _ = blow_up_edge(out, a, b)
    for i, arrow in enumerate(tree.arrows):
        if arrow.name == name:
            out, _ = blow_up_arrow(out, i)
    return out


def extend_arrow_chain(tree: DualTree, arrow_index: int, steps: int) -> DualTree:
    """Blow up an arrow's attachment point repeatedly (a chain of free
    points following the strict transform)."""
    out = tree
    for _ in range(steps):
        out, _ = blow_up_arrow(out, arrow_index)
    return out


def branch_contact(tree: DualTree, first: int, second: int) -> Fraction:
    """Contact exponent of two resolved branches read off the tree: the
    rate of the deepest vertex common to the root paths of their arrows."""
    parent = {tree.root: None}
    queue = [tree.root]
    while queue:
        x = queue.pop(0)
        for w in tree.adjacency(x):
            if w not in parent:
                parent[w] = x
                queue.append(w)

    def path(branch):
        arrows = [a for a in tree.arrows if a.branch == branch]
        if not arrows:
            raise InputError(f"no arrow for branch {branch}")
        v = arrows[0].vertex
        out = set()
        while v is not None:
            out.add(v)
            v = parent[v]
        return out

    common = path(first) & path(second)
    return max(tree.vertices[v].rate for v in common)


@dataclass(frozen=True)
class TowerReport:
    laufer: dict
    determinant: int
    monotone_violations: tuple
    root_rate_ok: bool

    @property
    def ok(self) -> bool:
        return (all(all(r == 0 for r in rs) for rs in self.laufer.values())
                and abs(self.determinant) == 1
                and not self.monotone_violations
                and self.root_rate_ok)

    def problems(self) -> list[str]:
        out = []
        for name, rs in sorted(self.laufer.items()):
            for i, r in enumerate(rs):
                if r != 0:
                    out.append(f"laufer residual {r} for {name!r} at vertex {i}")
        if abs(self.determinant) != 1:
            out.append(f"intersection determinant {self.determinant} not +-1")
        for a, b in self.monotone_violations:
            out.append(f"rate not increasing from vertex {a} to {b}")
        if not self.root_rate_ok:
            out.append("root rate differs from 1")
        return out


def verify_tower(tree: DualTree) -> TowerReport:
    laufer = {name: tree.laufer_residuals(name) for name in tree.function_names()}
    det = tree.determinant() if tree.vertices else 0
    violations = []
    seen = {tree.root}
    queue = [tree.root]
    while queue:
        v = queue.pop()
        for w in tree.adjacency(v):
            if w not in seen:
                seen.add(w)
                if tree.vertices[w].rate <= tree.vertices[v].rate:
                    violations.append((v, w))
                queue.append(w)
    root_ok = bool(tree.vertices) and tree.vertices[tree.root].rate == 1
    return TowerReport(laufer, det, tuple(violations), root_ok)
