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

The event log records the whole tower: each center names the curves through
the blown-up point (none at the origin, one at a free point, two at a
satellite point), so replaying the events through ``DualGraph.blow_up``
rebuilds the tree, and the centers also fix the chain of coordinate changes
that leads to each point.  The tests read both off the log to check the
tower against independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InputError, ResourceCapExceeded
from .series import RatSeries
from .strands import PuiseuxBranch, strands_of
from .surfgraph import CURVE_FUNCTION, GENERIC_LINEAR, DualTree, verify_graph_det

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


class Resolution:
    """Runs the minimal embedded resolution of a curve; the results are
    ``events``, the blow-up log, and ``tree``, the decorated dual tree."""

    def __init__(self, curve: Sequence[PuiseuxBranch], event_cap: int = DEFAULT_EVENT_CAP):
        strands_of(curve)  # validates branches and rejects duplicates
        self.curve = list(curve)
        self.event_cap = event_cap
        self.tree = DualTree()
        self.events: list[BlowupEvent] = []
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
        origin = _Point(self._new_pid(), ("origin",), None, None, branches)
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
                key, dv = ("sat", new, p.du), p.du
                pair = (bv, bu.div(bv))
            else:
                ratio = bv.div(bu)
                c = ratio.coeff(0)
                if c:
                    key, dv = ("free", new, c), None
                    pair = (bu, ratio.sub_const(c))
                else:
                    key, dv = ("sat", new, p.dv), p.dv
                    pair = (bu, ratio)
            point = landings.get(key)
            if point is None:
                point = _Point(self._new_pid(), key, new, dv, {})
                landings[key] = point
                self._active[point.pid] = point
            point.branches[bid] = pair

    def _attach_arrows(self):
        for point in sorted(self._active.values(), key=lambda q: q.pid):
            for bid, (bu, bv) in sorted(point.branches.items()):
                assert bu.ord() == 1 and point.du is not None
                self.tree.add_arrow(point.du, CURVE_FUNCTION, 1, "branch", bid)


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
    problems, det = verify_graph_det(tree)
    if not tree.is_connected() or len(tree.edges) != len(tree.vertices) - 1:
        problems.append("not a connected tree")
    if abs(det) != 1:
        problems.append(f"intersection determinant {det} not +-1")
    problems += [f"rate not increasing from vertex {v} to {w}"
                 for v, w in _edges_from_root(tree)
                 if tree.vertices[w].rate <= tree.vertices[v].rate]
    if not tree.vertices or tree.vertices[tree.root].rate != 1:
        problems.append("root rate differs from 1")
    return TowerReport(tuple(problems))
