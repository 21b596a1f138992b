"""A state machine over ``DualGraph`` and its tower form ``DualTree``:
drawn sequences of builder calls, each checked against a model of what
the graph must accept and hold.

The rules are ``add_vertex``, ``add_edge``, ``remove_edge``, ``add_arrow``,
``blow_up`` and ``copy``, over ids drawn from 0-3, "a", "1", "E1", True,
None and 2.0, so that a call may name an id of the wrong type, one that
equals a stored id without being one, or two ids that share a text.  Most
calls are valid, so that graphs grow; the others have one field drawn
from bad values.  The model keeps the ids, edges and arrows the calls
asked for, and says whether each call must be refused; a refused call
(``InputError``) must leave ``helpers.graph_state`` as it was.  A tower
takes only its next position as a new id, and only with a rate vector.
After every step:
- the ids, edges and arrows are the model's, and each adjacency list holds
  the other end of each of its vertex's edges;
- ``determinant()`` is the dense ``fraction_det`` of ``intersection_matrix``
  (and a blow-up negates it);
- ``components()`` partitions ``ids()``, and ``is_connected()`` says
  whether there is at most one component;
- ``laufer_residuals`` and, where the matrix is regular, the solved "h"
  multiplicities agree with the dense matrix; where it is singular,
  ``solve_multiplicities`` refuses;
- ``verify_graph`` gives ``verify_graph_det``'s problems, the first of them
  on connectivity exactly when the graph is not connected;
- ``graph_to_json`` (``tower_to_json``), ``dumps``, ``parse_graph``
  (``parse_tower``) and ``dumps`` again give the same bytes, when the graph
  has vertices and no two ids share a text;
- a graph copied earlier is as it was when copied.

Tier-1 runs a few hundred examples; run as a script, this file draws
``EXAMPLES`` of them:

    PYTHONPATH=src python tests/test_graph_machine.py
"""

import json
from fractions import Fraction

import pytest

from helpers import fraction_det, graph_state, intersection_matrix
from singlip.dualgraph import (ARROW_KINDS, KNOWN_FLAGS, DualGraph, DualTree, verify_graph,
                               verify_graph_det)
from singlip.errors import DomainError, InputError
from singlip.jsonio import dumps, graph_to_json, parse_graph, parse_tower, tower_to_json
from singlip.surfgraph import solve_multiplicities

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant, rule,
                                 run_state_machine_as_test)

IDS = [0, 1, 2, 3, "a", "1", "E1"]
ANY_IDS = IDS + [True, None, 2.0]
MULTS = st.dictionaries(st.sampled_from(["h", "f"]), st.integers(0, 3), max_size=2)
BAD_MULTS = st.sampled_from([{1: 1}, {"h": -1}, {"h": True}, {"f": 2.0}])
# a number that picks a stored id three times in four, else any of ANY_IDS
ENDS = st.integers(0, 10**6)


def _fields(good: dict, bad: dict):
    """Each field's value from ``good``, but half of the time one field's
    from ``bad``."""
    return st.sampled_from([None] * len(bad) + list(bad)).flatmap(
        lambda wrong: st.fixed_dictionaries(
            {k: bad[k] if k == wrong else s for k, s in good.items()}))


# an id is "new" (the first of IDS not stored) or "stored" (a stored one)
VERTEX = _fields(dict(
    vid=st.just("new"), si=st.sampled_from([-1, -2, -3]),
    genus=st.sampled_from([0, 0, 1]), mults=MULTS,
    flags=st.sampled_from([None, [], ["L"], ("P", "Delta"), {"L"}, frozenset("P")]),
    rate_vector=st.none() | st.tuples(st.integers(0, 3), st.integers(1, 3)),
    rate=st.none()), dict(
    vid=st.sampled_from([True, None, 2.0, "stored"]), si=st.sampled_from([0, 1, True, -2.0]),
    genus=st.sampled_from([-1, True]), mults=BAD_MULTS,
    flags=st.sampled_from(["LP", ["X"], True]),
    rate_vector=st.sampled_from([(1, 0), (True, 1), (1, 2.0), (1,)]),
    rate=st.sampled_from([Fraction(1), Fraction(7, 2)])))
ARROW = _fields(dict(
    name=st.sampled_from(["h", "f"]), multiplicity=st.integers(1, 3),
    kind=st.sampled_from(["function", "branch", "polar", "generic-linear"]),
    branch=st.sampled_from([None, 0, 2])), dict(
    name=st.sampled_from([1, None]), multiplicity=st.sampled_from([0, -1, True]),
    kind=st.just("curve"), branch=st.sampled_from([True, "0"])))
# curves: none, one rated, the ends of an edge between two rated; or two
# drawn ends, an unknown one, three, or one stored, rated or not
BLOW_UP = _fields(dict(vid=st.just("new"), shape=st.sampled_from([0, 1, 1, 2, 2]),
                       strict=st.none() | MULTS),
                  dict(vid=st.sampled_from([True, None, 2.0, "stored"]),
                       shape=st.sampled_from([3, 4, 5, 6]), strict=BAD_MULTS))


def _int(x) -> bool:
    return type(x) is int


def _id(x) -> bool:
    return type(x) in (int, str)


def _mults_ok(mults: dict) -> bool:
    return all(type(n) is str and _int(m) and m >= 0 for n, m in mults.items())


def _rate_vector_ok(rv) -> bool:
    return rv is None or len(rv) == 2 and _int(rv[0]) and _int(rv[1]) and rv[1] > 0


class GraphMachine(RuleBasedStateMachine):
    kind, to_json, parse = DualGraph, staticmethod(graph_to_json), staticmethod(parse_graph)

    def __init__(self):
        super().__init__()
        self.graph = self.kind()
        self.ids: list = []      # the model: ids in order, edges, arrows
        self.edges: list = []
        self.arrows: list = []
        self.rated: list = []    # ids with a rate vector
        self.copied = None       # (an earlier graph, its state when copied)

    def _known(self, x) -> bool:
        return _id(x) and x in self.ids

    def _fresh(self) -> list:
        """The ids a new vertex may take."""
        return [x for x in IDS if x not in self.ids]

    def _new_ok(self, vid, rate_vector) -> bool:
        """Whether a new vertex may take ``vid`` with that rate vector."""
        return _id(vid) and vid not in self.ids

    def _vid(self, vid, k: int):
        """``vid``, or for "new" the first fresh id and for "stored" a
        stored id, where there is one."""
        fresh = self._fresh()
        return (fresh[0] if vid == "new" and fresh else
                self.ids[k % len(self.ids)] if vid == "stored" and self.ids else
                IDS[k % len(IDS)] if vid in ("new", "stored") else vid)

    def _end(self, k: int):
        """A stored id if ``k % 4``, else one of ``ANY_IDS``."""
        pool = self.ids if k % 4 and self.ids else ANY_IDS
        return pool[k // 4 % len(pool)]

    def _pair(self, k: int) -> tuple:
        """The ends of a stored edge if ``k % 4``, either way round, or two
        drawn ends."""
        if k % 4 and self.edges:
            a, b = self.edges[k // 8 % len(self.edges)]
            return (a, b) if k // 4 % 2 else (b, a)
        return self._end(k // 4), self._end(k // 16)

    def _call(self, refused: bool, call) -> bool:
        """Run ``call``; it must raise InputError, and change nothing, iff
        the model says ``refused``.  Whether it ran."""
        before = graph_state(self.graph)
        try:
            call()
        except InputError:
            assert refused, "refused a call the model accepts"
            assert graph_state(self.graph) == before
            return False
        assert not refused, "accepted a call the model refuses"
        return True

    @initialize(n=st.integers(0, 4))
    def a_chain(self, n):
        """Start from a chain of ``n`` rated curves, so that graphs grow."""
        for vid in IDS[:n]:
            self.graph.add_vertex(vid, -2, rate_vector=(1, 1), multiplicities={"h": 1})
            self.ids.append(vid)
            self.rated.append(vid)
        for a, b in zip(IDS[:n], IDS[1:n]):
            self.graph.add_edge(a, b)
            self.edges.append((a, b))

    @rule(f=VERTEX, k=ENDS)
    def add_vertex(self, f, k):
        vid, rv, flags = self._vid(f["vid"], k), f["rate_vector"], f["flags"]
        refused = not (
            self._new_ok(vid, rv) and _int(f["si"]) and f["si"] < 0
            and _int(f["genus"]) and f["genus"] >= 0 and _mults_ok(f["mults"])
            and (flags is None or type(flags) in (list, tuple, set, frozenset)
                 and set(flags) <= set(KNOWN_FLAGS))
            and _rate_vector_ok(rv)
            and (f["rate"] is None or rv is None or f["rate"] == Fraction(*rv)))
        if self._call(refused, lambda: self.graph.add_vertex(
                vid, f["si"], f["genus"], f["rate"], f["mults"], flags, rv)):
            self.ids.append(vid)
            if rv is not None:
                self.rated.append(vid)

    @rule(k=ENDS)
    def add_edge(self, k):
        a, b = self._end(k), self._end(k // 4 + 1)
        refused = not (self._known(a) and self._known(b) and a != b)
        if self._call(refused, lambda: self.graph.add_edge(a, b)):
            self.edges.append((a, b))

    @rule(k=ENDS)
    def remove_edge(self, k):
        # the graph removes the last edge equal to (a, b) or (b, a)
        a, b = self._pair(k)
        hits = [i for i, e in enumerate(self.edges) if e in ((a, b), (b, a))]
        if self._call(not hits, lambda: self.graph.remove_edge(a, b)):
            del self.edges[hits[-1]]

    @rule(k=ENDS, f=ARROW)
    def add_arrow(self, k, f):
        vertex = self._end(k)
        refused = not (self._known(vertex) and type(f["name"]) is str
                       and f["kind"] in ARROW_KINDS and _int(f["multiplicity"])
                       and f["multiplicity"] >= 1
                       and (f["branch"] is None or _int(f["branch"])))
        if self._call(refused, lambda: self.graph.add_arrow(
                vertex, f["name"], f["multiplicity"], f["kind"], f["branch"])):
            self.arrows.append((vertex, f["name"], f["multiplicity"], f["kind"],
                                f["branch"]))

    @rule(f=BLOW_UP, k=ENDS)
    def blow_up(self, f, k):
        vid, shape = self._vid(f["vid"], k), f["shape"] if self.rated else 0
        pairs = [e for e in self.edges if e[0] in self.rated and e[1] in self.rated]
        curves = ([] if shape == 0
                  else [self.rated[k % len(self.rated)]] if shape == 1
                  else list(pairs[k % len(pairs)]) if shape == 2 and pairs
                  else [self._end(k), self._end(k // 4 + 1)] if shape in (2, 3)
                  else [self._end(k * 4)] if shape == 4
                  else [self.ids[k % len(self.ids)]] if shape == 6
                  else [self._end(k), self._end(k // 4 + 1), self._end(k // 16 + 2)])
        meet = len(curves) < 2 or len(curves) == 2 and any(
            e in ((curves[0], curves[1]), (curves[1], curves[0])) for e in self.edges)
        refused = not (all(self._known(x) and x in self.rated for x in curves)
                       and len(curves) <= 2 and meet and _mults_ok(f["strict"] or {})
                       and self._new_ok(vid, (1, 1)))
        det = self.graph.determinant()
        if self._call(refused, lambda: self.graph.blow_up(vid, curves, f["strict"])):
            assert self.graph.determinant() == -det
            self.ids.append(vid)
            self.rated.append(vid)
            self.edges += [(x, vid) for x in curves]
            if len(curves) == 2:     # the last edge between them goes
                del self.edges[max(i for i, e in enumerate(self.edges)
                                   if e in (tuple(curves), tuple(curves[::-1])))]

    @rule()
    def copy(self):
        old = self.graph
        self.graph = old.copy()
        assert type(self.graph) is self.kind
        assert graph_state(self.graph) == graph_state(old)
        self.copied = (old, graph_state(old))

    @invariant()
    def agrees_with_the_model(self):
        g = self.graph
        assert g.ids() == self.ids and g.edges == self.edges
        assert list(g.arrows) == self.arrows
        ends: dict = {vid: [] for vid in self.ids}
        for a, b in self.edges:
            ends[a].append(b)
            ends[b].append(a)
        assert all(sorted(map(repr, g.neighbors(v))) == sorted(map(repr, ws))
                   for v, ws in ends.items())

    @invariant()
    def determinant_is_the_dense_one(self):
        assert self.graph.determinant() == fraction_det(intersection_matrix(self.graph))

    @invariant()
    def components_partition_the_ids(self):
        trees = self.graph.components()
        assert sum(map(len, trees)) == len(self.ids)
        assert set().union(*trees) == set(self.ids)
        assert self.graph.is_connected() == (len(trees) < 2)

    @invariant()
    def laufer_and_solve_agree_with_the_dense_matrix(self):
        g = self.graph
        m = intersection_matrix(g)
        pairs = g.arrow_pairs("h")
        extra = [sum(k for v, k in pairs if v == vid) for vid in self.ids]
        coeffs = {vid: i + 1 for i, vid in enumerate(self.ids)}
        assert list(g.laufer_residuals(coeffs, pairs).values()) == [
            sum(a * (j + 1) for j, a in enumerate(row)) + b for row, b in zip(m, extra)]
        if pairs and fraction_det(m):
            solved = solve_multiplicities(g, "h", strict=False).coefficients
            x = [solved[vid] for vid in self.ids]
            assert [sum(a * v for a, v in zip(row, x)) + b
                    for row, b in zip(m, extra)] == [0] * len(x)
        elif pairs:
            try:
                solve_multiplicities(g, "h", strict=False)
            except DomainError as exc:
                assert str(exc) == "singular intersection matrix"
            else:
                raise AssertionError("solved a singular system")

    @invariant()
    def verify_graph_is_verify_graph_det(self):
        g = self.graph
        problems, det = verify_graph_det(g)
        assert verify_graph(g) == problems and det == g.determinant()
        split = problems[:1] != [] and problems[0].startswith("graph is not connected")
        assert split == (not g.is_connected())

    @invariant()
    def json_round_trip_keeps_the_bytes(self):
        if self.ids and len(set(map(str, self.ids))) == len(self.ids):
            text = dumps(self.to_json(self.graph))
            assert dumps(self.to_json(self.parse(json.loads(text)))) == text

    @invariant()
    def a_copied_graph_is_unchanged(self):
        if self.copied is not None:
            assert graph_state(self.copied[0]) == self.copied[1]


class TowerMachine(GraphMachine):
    """The same rules over a ``DualTree``, whose documents are towers."""

    kind, to_json, parse = DualTree, staticmethod(tower_to_json), staticmethod(parse_tower)

    def _fresh(self) -> list:
        return [len(self.ids)]

    def _new_ok(self, vid, rate_vector) -> bool:
        return _int(vid) and vid == len(self.ids) and rate_vector is not None


# the settings of tests/test_fuzz.py: tier-1 draws the same examples each run
SETTINGS = dict(deadline=None, derandomize=True, database=None,
                stateful_step_count=15,
                suppress_health_check=[hypothesis.HealthCheck.too_slow])
MACHINES = {GraphMachine: 150, TowerMachine: 50}    # tier-1 examples
EXAMPLES = 2000                                     # as a script, in all

TestGraphMachine = GraphMachine.TestCase
TestTowerMachine = TowerMachine.TestCase
for machine, count in MACHINES.items():
    machine.TestCase.settings = hypothesis.settings(max_examples=count, **SETTINGS)


if __name__ == "__main__":
    for machine, count in MACHINES.items():
        run_state_machine_as_test(machine, settings=hypothesis.settings(
            max_examples=EXAMPLES * count // sum(MACHINES.values()), **SETTINGS))
    print(f"graph state machines: {EXAMPLES} examples passed")
