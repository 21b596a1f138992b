import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from helpers import (blow_all_double_points, curvette_pair,
                     extend_arrow_chain, graph_state, random_curve,
                     reference_blow_up, replay_events, replay_prefixes)
from singlip import (PuiseuxBranch, coincidence_exponent, fixtures, jsonio,
                     laufer_parity_prepare, resolve_curve, tower,
                     tower_to_graph, verify_tower)
from singlip.errors import InputError, ResourceCapExceeded
from singlip.fixtures import curve_32_74, curve_carrousel_example, curve_cusp_53
from singlip.dualgraph import CURVE_FUNCTION, GENERIC_LINEAR, DualGraph, DualTree


DATA = Path(__file__).parent / "data"


def branch(*terms):
    return PuiseuxBranch.from_terms([(F(e), F(c)) for e, c in terms])


def test_event_repr_names_its_fields():
    # test_restarts_from_horizon_1_give_the_same_towers compares these reprs
    events, _ = resolve_curve(curve_cusp_53())
    assert repr(events[:2]) == (
        "[BlowupEvent(index=0, center=('origin',), branches_through=((0, 3),)), "
        "BlowupEvent(index=1, center=('free', 0, 'axis'), "
        "branches_through=((0, 2),))]")


def _ladder(k):
    # the Baseline ladder y = sum x^((2^(i+1)-1)/2^i), i = 1..k: k Puiseux
    # pairs, multiplicity 2^k
    return [branch(*((f"{2 ** (i + 1) - 1}/{2 ** i}", 1) for i in range(1, k + 1)))]


def _pinned_ladder_seconds(k):
    start = time.perf_counter()
    events, tree = resolve_curve(_ladder(k))
    elapsed = time.perf_counter() - start
    pinned = (DATA / f"tower-k{k}.json").read_text()
    assert jsonio.dumps(jsonio.tower_to_json(tree, events)) == pinned
    return elapsed


def test_six_pair_ladder_is_pinned():
    # recorded with the resolver on exact, unreduced rational quotients,
    # which took 100 s or more
    elapsed = _pinned_ladder_seconds(6)
    assert elapsed < 1, f"k = 6 took {elapsed:.2f} s"


def test_eight_pair_ladder_is_pinned():
    # recorded with quotient series started at twice the curve's t-degree,
    # which took about 1.5 s
    elapsed = _pinned_ladder_seconds(8)
    assert elapsed < 1, f"k = 8 took {elapsed:.2f} s"


def test_seven_pair_ladder_is_fast():
    start = time.perf_counter()
    events, tree = resolve_curve(_ladder(7))
    elapsed = time.perf_counter() - start
    assert verify_tower(tree).ok
    assert _tower_shape(replay_events(events)) == _tower_shape(tree)
    # the branch arrow sits on the vertex of the last characteristic exponent
    (arrow,) = [a for a in tree.arrows if a.kind == "branch"]
    assert tree.vertices[arrow.vertex].rate == F(255, 128)
    assert elapsed < 3, f"k = 7 took {elapsed:.2f} s"


def _restart_curves():
    curves = [fixtures.load_fixture(name) for name in
              ("carrousel-example", "cusp-53", "curve-32-74")]
    rng = random.Random(13)
    curves += [random_curve(rng, 3, 8) for _ in range(200)]
    for _ in range(40):
        curves.append([PuiseuxBranch.from_terms(
            [(e, c * F(rng.choice([1, 2, 5]), rng.choice([3, 4, 7])))
             for e, c in b.terms]) for b in random_curve(rng, 2, 6)])
    # y = 0 as a branch with no terms: an exactly zero coordinate
    curves += [[PuiseuxBranch(1, ())],
               [PuiseuxBranch(1, ()), branch(("3/2", 1))],
               [PuiseuxBranch(1, ()), branch((1, 2)), branch(("5/3", -1))]]
    return curves


def _resolved_bytes(curve):
    events, tree = resolve_curve(curve)
    return jsonio.dumps(jsonio.tower_to_json(tree, events)), repr(events)


def test_restarts_from_horizon_1_give_the_same_towers(monkeypatch):
    # every decision is exact or raises PrecisionExhausted, so a horizon far
    # too small only costs restarts
    curves = _restart_curves()
    expected = [_resolved_bytes(c) for c in curves]
    runs = []
    resolve = tower._resolve

    def spy(curve, event_cap, horizon):
        runs.append(horizon)
        return resolve(curve, event_cap, horizon)

    monkeypatch.setattr(tower, "_resolve", spy)
    monkeypatch.setattr(tower, "_horizon", lambda curve: 1)
    assert [_resolved_bytes(c) for c in curves] == expected
    assert len(runs) > 2 * len(curves)
    assert runs.count(1) == len(curves) and 8 in runs
    # a run cut short by the event cap is a prefix of the full run, so the
    # cap's boundary does not move; curve-32-74 restarts at horizons 1, 2, 4
    for curve, events in ((curve_cusp_53(), 4), (curve_32_74(), 5)):
        assert len(resolve_curve(curve, event_cap=events)[0]) == events
        with pytest.raises(ResourceCapExceeded):
            resolve_curve(curve, event_cap=events - 1)


def test_cusp_53_tower_matches_figure():
    events, tree = resolve_curve(curve_cusp_53())
    assert len(events) == 4
    assert [v.self_intersection for v in tree.vertices] == [-3, -3, -2, -1]
    assert [v.rate for v in tree.vertices] == [1, 2, F(3, 2), F(5, 3)]
    assert sorted(tree.edges) == [(0, 2), (1, 3), (2, 3)]
    (arrow,) = [a for a in tree.arrows if a.kind == "branch"]
    assert arrow.vertex == 3
    assert events[0].center == ("origin",)
    assert [v.multiplicities["f"] for v in tree.vertices] == [3, 5, 9, 15]
    assert [v.multiplicities["h"] for v in tree.vertices] == [1, 1, 2, 3]
    assert verify_tower(tree).ok


def test_smooth_branches_one_event():
    _, tree = resolve_curve([branch((1, 5))])
    assert len(tree.vertices) == 1
    assert (0, 1) in tree.arrow_pairs("f")
    # smooth but tangent to the x-axis also resolves with one blow-up
    _, tree = resolve_curve([branch((2, 1))])
    assert len(tree.vertices) == 1
    assert verify_tower(tree).ok
    assert tree.vertices[0].multiplicities["f"] == 1


def test_carrousel_curve_tower_rates():
    _, tree = resolve_curve(curve_carrousel_example())
    rates = {v.rate for v in tree.vertices}
    assert {F(3, 2), F(13, 6), F(5, 2)} <= rates
    assert verify_tower(tree).ok
    # arrows of the two branches sit at the vertices whose rates are the
    # branches' deepest characteristic exponents
    arrows = {a.branch: tree.vertices[a.vertex].rate
              for a in tree.arrows if a.kind == "branch"}
    assert arrows == {0: F(13, 6), 1: F(5, 2)}


def test_rate_vectors_stay_unreduced():
    _, tree = resolve_curve(curve_32_74())
    assert [v.rate for v in tree.vertices] == [1, 2, F(3, 2), 2, F(7, 4)]
    # the fourth vertex is (4,2), not (2,1): its satellite child is 7/4
    assert tree.vertices[3].rate_vector == (4, 2)
    assert verify_tower(tree).ok


def test_tree_contacts_match_strand_contacts():
    # the conjugate-strand contact between these branches (realized only
    # between opposite twists) must still drive the shared centers
    from singlip.tower import branch_contact
    curve = [branch(("3/2", 1)), branch(("3/2", -1), (2, 1))]
    _, tree = resolve_curve(curve)
    assert branch_contact(tree, 0, 1) == 2
    assert coincidence_exponent(curve[0], curve[1]) == 2


def test_branch_contact_needs_the_branch_arrow():
    from singlip.tower import branch_contact
    _, tree = resolve_curve(curve_carrousel_example())
    with pytest.raises(InputError, match="^no arrow for branch 5$"):
        branch_contact(tree, 0, 5)


def test_all_double_points_blowup_rates():
    _, tree = resolve_curve(curve_cusp_53())
    t2 = blow_all_double_points(tree)
    assert sorted(v.rate for v in t2.vertices) == sorted(
        [F(1), F(4, 3), F(3, 2), F(8, 5), F(5, 3), F(7, 4), F(2), F(2)])
    assert verify_tower(t2).ok
    assert [v.self_intersection for v in t2.vertices].count(-4) == 4


def test_arrow_chain_rates():
    _, tree = resolve_curve(curve_cusp_53())
    (idx,) = [i for i, a in enumerate(tree.arrows) if a.kind == "branch"]
    out = extend_arrow_chain(tree, idx, 5)
    chain_rates = [v.rate for v in out.vertices[4:]]
    assert chain_rates == [F(2), F(7, 3), F(8, 3), F(3), F(10, 3)]
    assert out.arrows[idx].vertex == len(out.vertices) - 1
    assert verify_tower(out).ok


def test_verify_flags_printed_figure_inconsistency():
    # the minimal resolution tree of y^3 + z^5 with the leaf printed as -2
    # violates the Laufer-zero condition at that leaf (residual 3)
    tree = DualTree()
    mults = [3, 5, 9, 15]
    selfints = [-2, -3, -2, -1]  # -2 at the first leaf instead of -3
    vectors = [(1, 1), (2, 1), (3, 2), (5, 3)]
    for i in range(4):
        tree.add_vertex(i, selfints[i], rate_vector=vectors[i],
                        multiplicities={"f": mults[i]})
    tree.add_edge(0, 2)
    tree.add_edge(2, 3)
    tree.add_edge(1, 3)
    tree.add_arrow(3, "f", 1, "branch", 0)
    report = verify_tower(tree)
    assert not report.ok
    assert "laufer residual 3 for 'f' at vertex 0" in report.problems()


def test_verify_tower_eliminates_once(monkeypatch):
    # the minors and the determinant come from one elimination
    from singlip import dualgraph
    sizes = []
    eliminate = dualgraph.eliminate

    def spy(matrix, *rest):
        sizes.append(len(matrix))
        return eliminate(matrix, *rest)

    monkeypatch.setattr(dualgraph, "eliminate", spy)
    _, tree = resolve_curve(curve_carrousel_example())
    assert verify_tower(tree).ok
    assert sizes == [len(tree.vertices)] == [9]
    _, tree = resolve_curve(curve_cusp_53())
    tree.vertices[2].self_intersection = -1
    assert verify_tower(tree).problems() == [
        "intersection matrix is not negative definite",
        "laufer residual 9 for 'f' at vertex 2",
        "laufer residual 2 for 'h' at vertex 2",
        "intersection determinant -5 not +-1"]
    assert sizes == [9, 4]


def test_event_cap():
    # cusp-53 takes 4 blow-ups: a cap of 4 lets them all run, 3 does not
    events, _ = resolve_curve(curve_cusp_53(), event_cap=4)
    assert len(events) == 4
    for cap in (2, 3):
        with pytest.raises(ResourceCapExceeded):
            resolve_curve(curve_cusp_53(), event_cap=cap)


def test_duplicate_branch_rejected():
    with pytest.raises(InputError):
        resolve_curve([branch((2, 1)), branch((2, 1))])


def test_curvette_oracle_fixture_curves():
    for curve in (curve_cusp_53(), curve_32_74(), curve_carrousel_example()):
        events, tree = resolve_curve(curve)
        for v in tree.vertices:
            g1, g2 = curvette_pair(events, tree, v.id)
            assert coincidence_exponent(g1, g2) == v.rate


def test_unimodular_after_every_prefix():
    rng = random.Random(5)
    for _ in range(10):
        events, _ = resolve_curve(random_curve(rng))
        determinants = [t.determinant() for t in replay_prefixes(events)]
        assert determinants
        assert all(d in (1, -1) for d in determinants)


def _tower_shape(tree):
    return ([(v.self_intersection, v.rate_vector, v.multiplicities)
             for v in tree.vertices], sorted(tree.edges),
            sorted((a.vertex, a.name, a.multiplicity, a.kind, a.branch)
                   for a in tree.arrows))


def test_event_log_replay_rebuilds_tower():
    curves = [fixtures.load_fixture(name) for name in fixtures.fixture_names()
              if fixtures.fixture_kind(name) == "curve"]
    rng = random.Random(7)
    curves += [random_curve(rng, max_branches=3) for _ in range(300)]
    for curve in curves:
        events, tree = resolve_curve(curve)
        assert _tower_shape(replay_events(events)) == _tower_shape(tree), curve


def test_coefficient_rescaling_gives_isomorphic_tree():
    rng = random.Random(6)
    for _ in range(10):
        curve = random_curve(rng)
        scaled = [PuiseuxBranch.from_terms(
            [(e, c * F(rng.choice([1, 2, 3]), rng.choice([1, 2])))
             for e, c in b.terms]) for b in curve]
        _, t1 = resolve_curve(curve)
        _, t2 = resolve_curve(scaled)
        assert sorted(t1.edges) == sorted(t2.edges)
        assert [v.rate for v in t1.vertices] == [v.rate for v in t2.vertices]
        assert ([v.self_intersection for v in t1.vertices]
                == [v.self_intersection for v in t2.vertices])
        assert ([v.multiplicities for v in t1.vertices]
                == [v.multiplicities for v in t2.vertices])


def _edge_neighbours(graph, v):
    return sorted([b for a, b in graph.edges if a == v]
                  + [a for a, b in graph.edges if b == v])


def test_adjacency_lists_follow_edges():
    # blow-ups add and remove edges; the adjacency lists must follow, and
    # tower edges stay normalised with the smaller id first
    rng = random.Random(7)
    for _ in range(20):
        _, tree = resolve_curve(random_curve(rng))
        for t in (tree, laufer_parity_prepare(tree), blow_all_double_points(tree)):
            assert t.ids() == list(range(len(t.vertices)))
            assert all(a < b for a, b in t.edges)
            for v in t.ids():
                assert sorted(t.neighbors(v)) == _edge_neighbours(t, v)
                assert t.valence(v) == len(_edge_neighbours(t, v))


def test_blow_up_matches_its_plain_form(monkeypatch):
    # the same vertex records, edges and adjacency lists as a blow-up that
    # goes through add_vertex and add_edge: on 200 random towers replayed
    # from their events, on their parity preparations, and on edges and
    # curves of their graphs with dict storage
    rng = random.Random(23)
    prepared = 0
    for _ in range(200):
        events, tree = resolve_curve(random_curve(rng, 3))
        plain = DualTree()
        for ev in events:
            curves = ev.center[1:3] if ev.center[0] == "satellite" else ev.center[1:2]
            reference_blow_up(plain, ev.index, curves, {
                CURVE_FUNCTION: sum(m for _, m in ev.branches_through),
                GENERIC_LINEAR: int(ev.center[0] == "origin")})
        assert graph_state(tree)[:3] == graph_state(plain)[:3]
        fast = laufer_parity_prepare(tree)
        with monkeypatch.context() as m:
            m.setattr(DualGraph, "blow_up", reference_blow_up)
            assert graph_state(fast) == graph_state(laufer_parity_prepare(tree))
        prepared += fast is not tree
        graphs = tower_to_graph(tree), tower_to_graph(tree)
        curves = rng.choice([(rng.choice(tree.ids()),), *tree.edges[-1:]])
        graphs[0].blow_up(len(tree.vertices), curves, {CURVE_FUNCTION: 1})
        reference_blow_up(graphs[1], len(tree.vertices), curves, {CURVE_FUNCTION: 1})
        assert graph_state(graphs[0]) == graph_state(graphs[1])
    assert prepared > 100


def test_blow_up_refuses_bad_arguments_before_changing_the_graph():
    # each check comes before the first change: the curve ids, their rate
    # vectors, the centre (one curve, or two that meet), the strict
    # multiplicities (True would sum to an int, and -1 to a non-negative but
    # wrong one), and the new id (DualTree._store, DualGraph._store)
    _, tree = resolve_curve(curve_cusp_53())
    e8, graph = fixtures.load_fixture("e8"), tower_to_graph(tree)
    n = len(tree.vertices)
    assert tree.edges == [(0, 2), (2, 3), (1, 3)]
    cases = [(tree, n, (c,), None) for c in (-1, n, "0", True, 1.0, None)]
    cases += [(e8, "E9", (c,), None) for c in ("E0", 1, None, ["E1"])]
    cases += [(e8, "E9", ("E1",), None)]                # no rate vector
    cases += [(tree, n, (0, c), None) for c in (-1, n)]
    cases += [(tree, n, c, None) for c in ((1, 1), (1, 3, 2), (0, 3))]
    cases += [(tree, n, (1,), {CURVE_FUNCTION: bad})
              for bad in (-100, -1, 1.5, True, 1.0, "1")]
    cases += [(tree, vid, (1,), None) for vid in (n + 1, n - 1, "4")]
    cases += [(graph, vid, (1,), None) for vid in (0, 1.5)]
    for g, vid, curves, strict in cases:
        before = graph_state(g)
        with pytest.raises(InputError):
            g.blow_up(vid, curves, strict)
        assert graph_state(g) == before
    for g, vid, curves, message in [
            (tree, n, (-1,), "blow-up on unknown curve -1"),
            (e8, "E9", ("E1",), "blow-up on curve 'E1', which has no rate vector"),
            (tree, n, (1, 1), "curves [1, 1] meet in no point to blow up"),
            (tree, n, (1, 3, 2), "curves [1, 3, 2] meet in no point to blow up"),
            (tree, n, (0, 3), "curves [0, 3] meet in no point to blow up")]:
        with pytest.raises(InputError) as exc:
            g.blow_up(vid, curves)
        assert str(exc.value) == message
    # curve 1 has f-multiplicity 5, so -1 would have made a vertex with f = 4
    with pytest.raises(InputError) as exc:
        tree.blow_up(n, (1,), {CURVE_FUNCTION: -1})
    assert str(exc.value) == "vertex 4: multiplicities must be non-negative integers"


def test_tower_building_is_checked():
    tree = DualTree()
    with pytest.raises(InputError):
        tree.add_vertex(1, -1, rate_vector=(1, 1))  # id is not its position
    tree.add_vertex(0, -1, rate_vector=(1, 1))
    for bad in ((1, 1, 1), (1, 0), ("1", 1), (1.0, 1)):
        with pytest.raises(InputError):
            tree.add_vertex(1, -1, rate_vector=bad)
    tree.add_vertex(1, -2, rate_vector=(2, 1))
    assert tree.vertices[1].rate == 2
    for a, b in ((0, 2), (-1, 0), ("0", 1)):
        with pytest.raises(InputError):
            tree.add_edge(a, b)
    with pytest.raises(InputError):
        tree.add_arrow(5, "f")
    tree.add_edge(0, 1)
    assert tree.neighbors(0) == [1] and tree.neighbors(1) == [0]


def test_add_vertex_refuses_a_rate_that_is_not_its_vectors_quotient():
    # a rate 2 stored with the vector (1, 1) made blow_up's next vertex rate
    # 2 from (2, 1), so verify_tower reported a drop and a root rate not 1
    for g in (DualTree(), DualGraph()):
        before = graph_state(g)
        for rate in (2, F(1, 2), "2", {"num": 2, "den": 1}):
            with pytest.raises(InputError) as exc:
                g.add_vertex(0, -1, rate=rate, rate_vector=(1, 1))
            assert graph_state(g) == before
        assert str(exc.value) == "vertex 0: rate 2 is not the p/q of rate_vector [1, 1]"
    # an equal rate is kept as a Fraction, the vector as given, unreduced
    tree = DualTree()
    for vid, rate, vector in ((0, 1, (1, 1)), (1, "2", (4, 2)), (2, F(3, 2), (3, 2))):
        v = tree.add_vertex(vid, -2, rate=rate, rate_vector=vector)
        assert (v.rate, type(v.rate), v.rate_vector) == (F(rate), F, vector)


def test_a_tower_refuses_a_vertex_without_a_rate_vector():
    # such a vertex made tower_to_json raise a bare AttributeError on its
    # rate None; a graph vertex needs no rate vector
    tree = DualTree()
    for vid, rate in ((0, None), (0, 1)):
        with pytest.raises(InputError) as exc:
            tree.add_vertex(vid, -1, rate=rate)
        assert str(exc.value) == "tower vertex 0 has no rate_vector"
        assert graph_state(tree) == graph_state(DualTree())
    tree.add_vertex(0, -1, rate_vector=(1, 1))
    before = graph_state(tree)
    with pytest.raises(InputError, match="^tower vertex 1 has no rate_vector$"):
        tree.add_vertex(1, -2, rate=2)
    assert graph_state(tree) == before
    graph = DualGraph()
    assert graph.add_vertex(0, -1).rate_vector is None

def test_verify_reports_rate_drops_in_walk_order():
    # rates 1, 2, 3 at the root and its children, and a drop below each
    # child: the lines follow the breadth-first walk from the root
    tree = DualTree()
    for i, vector in enumerate([(1, 1), (2, 1), (3, 1), (3, 2), (2, 1)]):
        tree.add_vertex(i, -2, rate_vector=vector)
    for a, b in ((0, 1), (0, 2), (1, 3), (2, 4)):
        tree.add_edge(a, b)
    assert [p for p in verify_tower(tree).problems() if p.startswith("rate")] == [
        "rate not increasing from vertex 1 to 3",
        "rate not increasing from vertex 2 to 4"]


def test_verify_reports_a_cycle():
    _, tree = resolve_curve(curve_cusp_53())
    tree.add_edge(0, 1)
    problems = verify_tower(tree).problems()
    assert "not a connected tree" in problems
