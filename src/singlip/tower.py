"""The resolver: embedded resolution towers of plane curve germs by point blow-ups.

The simulator keeps, for every infinitely-near point currently carrying
branches, the pair of local coordinate functions restricted to each branch
parametrization, as integer quotient series in the branch parameter cut at
a horizon (``series``).  Blowing up a point is then series division plus
recentering, and deciding which branches share the next center is an exact
comparison of rational constants.  Points get blown up exactly while the
total transform fails to be a normal crossings divisor with all branch
arrows transversal at free points, so the event sequence is the minimal
one.  A decision past a series' precision restarts the resolution at twice
the horizon, so a horizon too small costs time, never a different tower.

A point is the pair (center, branches): the center that the event blowing
it up records, and each branch id's two series, in id order.  The points
pass through one queue in creation order.  A popped point that needs a
blow-up is blown up and the points of the new curve are queued in the
order of their first branch; any other point is kept and gets its branch
arrows at the end, in pop order.  A point's branches are fixed once the
blow-up that creates it has landed them, so whether it needs a blow-up
never changes, and every later point is queued after it: the queue blows
up, at each step, the earliest created point that needs it.

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
that leads to each point; the tests check both against independent oracles.
A tower's checks and its graph form live with ``DualTree`` in ``dualgraph``.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Sequence

from .errors import ResourceCapExceeded
from .series import PrecisionExhausted, RatSeries
from .strands import DEFAULT_STRAND_CAP, PuiseuxBranch, check_curve
from .dualgraph import CURVE_FUNCTION, GENERIC_LINEAR, DualTree

DEFAULT_EVENT_CAP = 512


class BlowupEvent(NamedTuple):
    index: int
    center: tuple
    branches_through: tuple[tuple[int, int], ...]


def resolve_curve(curve: Sequence[PuiseuxBranch], event_cap: int = DEFAULT_EVENT_CAP,
                  strand_cap: int = DEFAULT_STRAND_CAP
                  ) -> tuple[list[BlowupEvent], DualTree]:
    """Minimal embedded resolution tower of the curve."""
    check_curve(curve, strand_cap)
    pairs = [b.parametrization() for b in curve]
    horizon = _horizon(pairs)
    while True:
        try:
            return _resolve(pairs, event_cap, horizon)
        except PrecisionExhausted:
            horizon *= 2


def _horizon(pairs: list) -> int:
    """The largest t-degree n * (last exponent) of a parametrization, which
    bounds n times each branch's characteristic exponents; a decision that
    still runs past a series' precision restarts at twice the horizon."""
    return max(max([*x, *y]) for x, y in pairs)


def _resolve(pairs: list, event_cap: int, horizon: int):
    tree = DualTree()
    events: list[BlowupEvent] = []
    queue = deque([(("origin",), {
        i: (RatSeries.make(x, horizon), RatSeries.make(y, horizon))
        for i, (x, y) in enumerate(pairs)})])
    kept = []
    while queue:
        center, branches = point = queue.popleft()
        if not _needs_blowup(center, branches):
            kept.append(point)
            continue
        if len(events) >= event_cap:
            raise ResourceCapExceeded(f"blow-up event cap {event_cap} exceeded")
        events.append(_blow_up(tree, center, branches))
        queue.extend(_land_branches(center, branches, events[-1].index))
    for center, branches in kept:
        for bid, (bu, _) in branches.items():
            assert bu.ord() == 1
            tree.add_arrow(center[1], CURVE_FUNCTION, 1, "branch", bid)
    return events, tree


def _needs_blowup(center: tuple, branches: dict) -> bool:
    if center[0] != "free" or len(branches) >= 2:
        return True  # the origin, a double point of the divisor, or two branches
    ((u, v),) = branches.values()
    if min(u.ord(), v.ord()) >= 2:
        return True  # singular strict transform
    return u.ord() >= 2  # smooth but tangent to the exceptional curve


def _curves_through(center: tuple) -> tuple:
    """The exceptional curves through a center: none at the origin, one at
    a free point, two at a satellite point."""
    return center[1:3] if center[0] == "satellite" else center[1:2]


def _blow_up(tree: DualTree, center: tuple, branches: dict) -> BlowupEvent:
    """Blow up the point in the tree; the new vertex id is the event index."""
    new = len(tree.vertices)
    through = tuple([(bid, min(u.ord(), v.ord())) for bid, (u, v) in branches.items()])
    origin = center[0] == "origin"
    tree.blow_up(new, _curves_through(center), {
        CURVE_FUNCTION: sum([m for _, m in through]), GENERIC_LINEAR: int(origin)})
    if origin:
        tree.add_arrow(new, GENERIC_LINEAR, 1, "generic-linear")
    return BlowupEvent(new, center, through)


def _land_branches(center: tuple, branches: dict, new: int) -> list[tuple]:
    """The points of the new curve ``new`` that the branches pass through,
    in the order of their first branch.  ``new`` meets each curve through
    ``center`` (cut out by the first, then second coordinate) at a
    satellite point, and a coordinate axis that is no such curve at "axis"."""
    meets = [("satellite", new, d) for d in _curves_through(center)]
    on_u, on_v = meets + [("free", new, "axis")] * (2 - len(meets))
    landings: dict[tuple, dict] = {}
    for bid, (bu, bv) in branches.items():
        if bv.order < bu.order:  # both read by _blow_up, so neither is None
            at, pair = on_u, (bv, bu.div(bv))
        else:
            ratio = bv.div(bu)
            if ratio.order == 0:  # a nonzero constant: num keeps no zero terms
                c = ratio.constant()
                at, pair = ("free", new, c), (bu, ratio.sub_const(c))
            else:
                at, pair = on_v, (bu, ratio)
        landings.setdefault(at, {})[bid] = pair
    return list(landings.items())
