import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from helpers import (blow_all_double_points, curvette_pair,
                     extend_arrow_chain, random_curve, replay_events,
                     replay_prefixes)
from singlip import (PuiseuxBranch, coincidence_exponent, fixtures, jsonio,
                     laufer_parity_prepare, resolve_curve, tower, verify_tower)
from singlip.errors import InputError, ResourceCapExceeded
from singlip.fixtures import (curve_32_74, curve_carrousel_example,
                              curve_cusp_53)
from singlip.surfgraph import DualTree


DATA = Path(__file__).parent / "data"


def branch(*terms):
    return PuiseuxBranch.from_terms([(F(e), F(c)) for e, c in terms])


@pytest.mark.parametrize("name", ["carrousel-example", "cusp-53", "curve-32-74"])
def test_fixture_tower_json_is_pinned(name):
    # the whole tower document, event order included, as recorded before the
    # resolver ran on a creation-order queue
    events, tree = resolve_curve(fixtures.load_fixture(name))
    pinned = (DATA / f"tower-{name}.json").read_text()
    assert jsonio.dumps(jsonio.tower_to_json(tree, events)) == pinned


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


def test_six_pair_ladder_is_pinned():
    # recorded with the resolver on exact, unreduced rational quotients,
    # which took 100 s or more
    start = time.perf_counter()
    events, tree = resolve_curve(_ladder(6))
    elapsed = time.perf_counter() - start
    pinned = (DATA / "tower-k6.json").read_text()
    assert jsonio.dumps(jsonio.tower_to_json(tree, events)) == pinned
    assert elapsed < 1, f"k = 6 took {elapsed:.2f} s"


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
    from singlip import surfgraph
    sizes = []
    eliminate = surfgraph.eliminate

    def spy(matrix, *rest):
        sizes.append(len(matrix))
        return eliminate(matrix, *rest)

    monkeypatch.setattr(surfgraph, "eliminate", spy)
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


def test_verify_reports_a_cycle():
    _, tree = resolve_curve(curve_cusp_53())
    tree.add_edge(0, 1)
    problems = verify_tower(tree).problems()
    assert "not a connected tree" in problems
