"""Acceptance criteria, one test per criterion.

All data here is exact, so every comparison is equality; each test prints a
pass line naming its criterion (visible with pytest -s or in the -v test
listing).  The randomized suites of criterion 11 live in test_properties.py
and are re-run here through small wrappers so the acceptance module is
self-contained.
"""

import random
from fractions import Fraction as F

from helpers import (blow_all_double_points, curvette_pair,
                     extend_arrow_chain, random_curve, replay_prefixes, summary)
from singlip import (Divisor, build_carrousel_tree, coincidence_exponent,
                     contact_matrix, csquare_decomposition, has_base_point,
                     horn_jump_profile, laufer_double_cover,
                     laufer_parity_prepare, leaf_contacts, pencil_min,
                     resolve_curve, resolve_pencil, solve_multiplicities,
                     thick_thin, verify_tower)
from singlip.csquare import amalgamate
from singlip.decomp import build_decomposition
from singlip.fixtures import curve_carrousel_example, curve_cusp_53, load_fixture


def _ok(n, message):
    print(f"ACCEPTANCE {n}: PASS - {message}")


def test_criterion_01_contact_matrix_value_set():
    m = contact_matrix(curve_carrousel_example())
    assert m.size == 8
    assert m.finite_values() == {F(3, 2), F(13, 6), F(5, 2)}
    _ok(1, "contact matrix is 8x8 with value set {3/2, 13/6, 5/2}")


def test_criterion_02_carrousel_tree_shape():
    t = build_carrousel_tree(contact_matrix(curve_carrousel_example()))
    root = t.root
    assert root.weight == 1 and len(root.children) == 1
    mid = root.children[0]
    assert mid.weight == F(3, 2)
    children = sorted((c.weight, len(c.children)) for c in mid.children)
    assert children == [(F(13, 6), 3), (F(13, 6), 3), (F(5, 2), 2)]
    assert all(c.is_leaf() for v in mid.children for c in v.children)
    _ok(2, "carrousel tree is root(1)-(3/2)-{(5/2):2, (13/6):3, (13/6):3}")


def test_criterion_03_horn_jump_profiles():
    m = contact_matrix(curve_carrousel_example())
    two_strand = horn_jump_profile(m, 6)
    assert two_strand.thresholds == (F(5, 2), F(3, 2))
    assert two_strand.counts == (1, 2, 8)
    six_strand = horn_jump_profile(m, 0)
    assert six_strand.thresholds == (F(13, 6), F(3, 2))
    assert six_strand.counts == (1, 3, 8)
    _ok(3, "horn profiles (5/2,3/2)->(1,2,8) and (13/6,3/2)->(1,3,8)")


def test_criterion_04_cusp_53_resolution():
    events, tree = resolve_curve(curve_cusp_53())
    assert len(tree.vertices) == 4
    assert [v.self_intersection for v in tree.vertices] == [-3, -3, -2, -1]
    assert [v.rate for v in tree.vertices] == [F(1), F(2), F(3, 2), F(5, 3)]
    branch_arrows = [a for a in tree.arrows if a.kind == "branch"]
    assert [a.vertex for a in branch_arrows] == [3]
    assert set(tree.edges) == {(0, 2), (2, 3), (1, 3)}
    _ok(4, "y = x^(5/3) resolves to the 4-vertex tree with stated data")


def test_criterion_05_appendix_tower_rates():
    _, tree = resolve_curve(curve_cusp_53())
    blown = blow_all_double_points(tree)
    expected = sorted([F(1), F(4, 3), F(3, 2), F(8, 5), F(5, 3), F(7, 4),
                       F(2), F(2)])
    assert sorted(v.rate for v in blown.vertices) == expected
    _ok(5, "all-double-point tower has rates {1,4/3,3/2,8/5,5/3,7/4,2,2}")


def test_criterion_06_e8_divisors_and_pencil_min():
    g = load_fixture("e8")
    ids = [f"E{i}" for i in range(1, 9)]
    x = solve_multiplicities(g, "x")
    y = solve_multiplicities(g, "y")
    z = solve_multiplicities(g, "z")
    assert [x.coefficients[v] for v in ids] == [15, 12, 9, 6, 3, 10, 5, 8]
    assert [y.coefficients[v] for v in ids] == [10, 8, 6, 4, 2, 7, 4, 5]
    assert [z.coefficients[v] for v in ids] == [6, 5, 4, 3, 2, 4, 2, 3]
    fx = Divisor(x.coefficients, (("E8", 1),))
    fy = Divisor({k: 2 * v for k, v in y.coefficients.items()}, (("E7", 2),))
    fz = Divisor({k: 4 * v for k, v in z.coefficients.items()}, (("E5", 4),))
    generic = pencil_min(g, [fx, fy, fz])
    assert [generic.coefficients[v] for v in ids] == [15, 12, 9, 6, 3, 10, 5, 8]
    assert generic.strict_arrows == (("E8", 1),)
    _ok(6, "E8 divisors of x, y, z and the pencil minimum reproduce the text")


def test_criterion_07_pencil_resolution_and_delta_chain():
    g = load_fixture("e8")
    x = solve_multiplicities(g, "x")
    y = solve_multiplicities(g, "y")
    z = solve_multiplicities(g, "z")
    fx = Divisor(x.coefficients, (("E8", 1),))
    fy = Divisor({k: 2 * v for k, v in y.coefficients.items()}, (("E7", 2),))
    fz = Divisor({k: 4 * v for k, v in z.coefficients.items()}, (("E5", 4),))
    assert (fx.coefficient("E8"), fy.coefficient("E8"),
            fz.coefficient("E8")) == (8, 10, 12)
    assert has_base_point([fx, fy, fz], "E8")
    g2, steps = resolve_pencil(g, fx, fy, "E8")
    assert len(steps) - 1 == 2
    assert [g2.vertices[s.vertex].self_intersection
            for s in steps] == [-3, -2, -1]

    _, tree = resolve_curve(curve_cusp_53())
    (idx,) = [i for i, a in enumerate(tree.arrows) if a.kind == "branch"]
    chained = extend_arrow_chain(tree, idx, 5)
    assert chained.vertices[-1].rate == F(10, 3)
    _ok(7, "base point (8,10,12) resolves in 2 blow-ups (-3,-2,-1); "
           "Delta chain ends at 10/3")


def test_criterion_08_laufer_pipeline():
    _, tree = resolve_curve(curve_cusp_53())
    prepared = laufer_parity_prepare(tree)
    assert sorted(v.multiplicities["f"] for v in prepared.vertices) == [
        3, 5, 9, 12, 15, 16, 20, 24]
    assert verify_tower(prepared).ok
    f_mults = {v.id: v.multiplicities["f"] for v in prepared.vertices}
    residuals = prepared.laufer_residuals(f_mults, prepared.arrow_pairs("f"))
    assert set(residuals.values()) == {0}
    assert abs(prepared.determinant()) == 1
    cover = laufer_double_cover(prepared)
    assert len(cover.vertices) == 8
    assert all(v.self_intersection == -2 for v in cover.vertices.values())
    assert sorted(v.multiplicities["f"] for v in cover.vertices.values()) == [
        3, 5, 6, 8, 9, 10, 12, 15]
    arrows = [(a.vertex, a.multiplicity) for a in cover.arrows
              if a.name == "f"]
    solved = solve_multiplicities(cover, arrows)
    assert solved.coefficients == {vid: v.multiplicities["f"]
                                   for vid, v in cover.vertices.items()}
    _ok(8, "Laufer pipeline: prepared tree, all -2 double cover, round trip")


def test_criterion_09_thick_thin_fixtures():
    tt = thick_thin(load_fixture("e8"))
    assert len(tt.thick_zones[0][1]) == 4
    assert len(tt.thin_zones) == 1 and len(tt.thin_zones[0]) == 4
    assert thick_thin(load_fixture("d4")).thin_zones == ()
    bs = thick_thin(load_fixture("briancon-speder-tneq0"))
    assert (len(bs.thick_zones), len(bs.thin_zones)) == (3, 1)
    bs0 = thick_thin(load_fixture("briancon-speder-t0"))
    assert (len(bs0.thick_zones), len(bs0.thin_zones)) == (1, 1)
    ade = {name: thick_thin(load_fixture(name)).metrically_conical
           for name in ("a1", "a2", "a3", "a4", "a5", "d4", "d5",
                        "e6", "e7", "e8")}
    assert {name for name, conical in ade.items() if conical} == {"a1", "d4"}
    _ok(9, "thick-thin matches E8 4/4, D4 empty thin, BS 3/1 and 1/1; "
           "conical iff A1 or D4")


def test_criterion_10_geometric_decompositions():
    inner = build_decomposition(load_fixture("e8"), "inner")
    assert summary(inner) == ["A(1,5/3)", "B(1)", "B(5/3)"]
    outer = build_decomposition(load_fixture("e8-nash"), "outer")
    assert summary(outer) == ["A(1,5/3)", "A(5/3,10/3)", "B(1)", "B(10/3)",
                              "B(5/3)"]
    two_string = [p for p in outer.pieces.values()
                  if p.rates == (F(5, 3), F(10, 3))]
    assert len(two_string) == 1 and len(two_string[0].support) == 2
    minimal = build_decomposition(load_fixture("minimal-singularity"), "inner")
    b_rates = sorted(p.rates[0] for p in minimal.pieces.values()
                     if p.kind == "B")
    assert b_rates == [1, 1, 1, 1, 1, 2, 2]
    special = sorted(p.rates[0] for p in minimal.pieces.values() if p.special)
    assert special == [F(2), F(5, 2)]
    _ok(10, "inner/outer decompositions of E8 and the minimal singularity "
            "match the stated piece lists")


def test_criterion_11_property_suites():
    rng = random.Random(201)
    for _ in range(200):
        m = contact_matrix(random_curve(rng, max_branches=4, max_den=6))
        assert not m.check_ultrametric()
        assert leaf_contacts(build_carrousel_tree(m)).entries == m.entries

    rng = random.Random(202)
    checked = 0
    for _ in range(200):
        curve = random_curve(rng, max_branches=2, max_den=6)
        events, tree = resolve_curve(curve)
        report = verify_tower(tree)
        assert report.ok, (curve, report.problems())
        assert all(t.determinant() in (1, -1) for t in replay_prefixes(events))
        for v in tree.vertices:
            g1, g2 = curvette_pair(events, tree, v.id)
            assert coincidence_exponent(g1, g2) == v.rate
            checked += 1
    assert checked >= 200

    from test_properties import _relabel, _shape
    rng = random.Random(203)
    for _ in range(200):
        curve = random_curve(rng, max_branches=2, max_den=5)
        d = csquare_decomposition(resolve_curve(curve)[1])
        reference = _shape(amalgamate(d))
        ids = list(d.pieces)
        shuffled = ids[:]
        rng.shuffle(shuffled)
        permuted = _relabel(d, dict(zip(ids, shuffled)))
        assert _shape(amalgamate(permuted)) == reference
    _ok(11, "property suites: ultrametric + round trip, tower invariants + "
            "curvette oracle, amalgamation confluence (200 cases each)")
