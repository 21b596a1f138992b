"""Embedded resolution towers of plane curve germs by iterated point blow-ups.

The simulator keeps, for every infinitely-near point currently carrying
branches, the pair of local coordinate functions restricted to each branch
parametrization (as exact rational-function series in the branch parameter).
Blowing up a point is then series division plus recentering, and deciding
which branches share the next center is an exact comparison of rational
constants.  Points get blown up exactly while the total transform fails to
be a normal crossings divisor with all branch arrows transversal at free
points, so the event sequence is the minimal one.

Each event is ``DualGraph.blow_up``, which sets the new curve's
self-intersection, unreduced inner-rate vector and multiplicities.  The
tracked functions are the curve's own defining function "f", whose strict
transform through a center is the branches through it with their local
multiplicities, and a generic linear form "h", whose strict transform
passes through the origin only.  The graph-level blow-ups of double points
and arrow points (no series needed) live in ``surfgraph``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DomainError, InputError, ResourceCapExceeded
from .series import (RatSeries, padd, pclean, pmul, pmul_trunc, pord, ppow_trunc,
                     pscale, ptrunc, series_fractional_power)
from .strands import PuiseuxBranch, strands_of
from .surfgraph import CURVE_FUNCTION, GENERIC_LINEAR, DualTree, verify_graph

DEFAULT_EVENT_CAP = 512


@dataclass(frozen=True)
class BlowupEvent:
    index: int
    center: tuple
    branches_through: tuple[tuple[int, int], ...]


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
                 record_determinants: bool = False):
        strands_of(curve)  # validates branches and rejects duplicates
        self.curve = list(curve)
        self.event_cap = event_cap
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
            branches[i] = (RatSeries.make(x), RatSeries.make(y))
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
        (pair,) = p.branches.values()
        if self._local_multiplicity(pair) >= 2:
            return True  # singular strict transform
        return pair[0].ord() >= 2  # smooth but tangent to the exceptional curve

    def _blow_up(self, p: _Point):
        tree = self.tree
        new = len(tree.vertices)
        exceptional = [e for e in (p.du, p.dv) if e is not None]
        through = tuple(sorted(
            (bid, self._local_multiplicity(pair)) for bid, pair in p.branches.items()))
        tree.blow_up(new, exceptional, {
            CURVE_FUNCTION: sum(m for _, m in through),
            GENERIC_LINEAR: int(p.key[0] == "origin")})

        if p.key[0] == "origin":
            center = ("origin",)
        elif len(exceptional) == 2:
            center = ("satellite", exceptional[0], exceptional[1])
        else:
            tag = p.key[2] if p.key[0] == "free" else "axis"
            center = ("free", exceptional[0], tag)
        self.events.append(BlowupEvent(len(self.events), center, through))

        if p.key[0] == "origin":
            tree.add_arrow(new, GENERIC_LINEAR, 1, "generic-linear")

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
                self.tree.add_arrow(point.du, CURVE_FUNCTION, 1, "branch", bid)

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


def branch_contact(tree: DualTree, first: int, second: int) -> Fraction:
    """Contact exponent of two resolved branches read off the tree: the
    rate of the deepest vertex common to the root paths of their arrows."""
    parent = {tree.root: None}
    parent.update((w, v) for v, w in _edges_from_root(tree))

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


def _edges_from_root(tree: DualTree):
    """(parent, child) for every vertex reachable from the root, depth
    first with neighbours in sorted order."""
    seen = {tree.root}
    stack = [tree.root] if tree.vertices else []
    while stack:
        v = stack.pop()
        for w in sorted(tree.neighbors(v)):
            if w not in seen:
                seen.add(w)
                yield v, w
                stack.append(w)


@dataclass(frozen=True)
class TowerReport:
    lines: tuple

    @property
    def ok(self) -> bool:
        return not self.lines

    def problems(self) -> list[str]:
        return list(self.lines)


def verify_tower(tree: DualTree) -> TowerReport:
    """The checks of every resolution graph (``surfgraph.verify_graph``)
    plus the tower's own: a connected tree with determinant +-1 whose
    rates increase away from a root of rate 1."""
    problems = verify_graph(tree)
    if not tree.is_connected() or len(tree.edges) != len(tree.vertices) - 1:
        problems.append("not a connected tree")
    det = tree.determinant()
    if abs(det) != 1:
        problems.append(f"intersection determinant {det} not +-1")
    problems += [f"rate not increasing from vertex {v} to {w}"
                 for v, w in _edges_from_root(tree)
                 if tree.vertices[w].rate <= tree.vertices[v].rate]
    if not tree.vertices or tree.vertices[tree.root].rate != 1:
        problems.append("root rate differs from 1")
    return TowerReport(tuple(problems))
