import time
from fractions import Fraction as F

import pytest

from singlip import (Divisor, DualGraph, PuiseuxBranch, has_base_point,
                     laufer_double_cover, laufer_parity_prepare, pencil_min,
                     resolve_curve, resolve_pencil, solve_multiplicities,
                     tower_to_graph, verify_graph, verify_tower)
from singlip.errors import DomainError, InputError
from singlip.fixtures import curve_cusp_53, graph_e8
from singlip.jsonio import graph_to_json, parse_graph, tower_to_json
from singlip.surfgraph import (L_NODE, DualTree, blowdownable_vertices,
                              strict_part_from_residuals)


E8_IDS = [f"E{i}" for i in range(1, 9)]

X_DIV = dict(zip(E8_IDS, [15, 12, 9, 6, 3, 10, 5, 8]))
Y_DIV = dict(zip(E8_IDS, [10, 8, 6, 4, 2, 7, 4, 5]))
Z_DIV = dict(zip(E8_IDS, [6, 5, 4, 3, 2, 4, 2, 3]))


def test_solve_multiplicities_e8():
    g = graph_e8()
    assert solve_multiplicities(g, "x").coefficients == X_DIV
    assert solve_multiplicities(g, "y").coefficients == Y_DIV
    assert solve_multiplicities(g, "z").coefficients == Z_DIV


def test_solve_multiplicities_residuals_vanish():
    g = graph_e8()
    div = solve_multiplicities(g, "x")
    residuals = g.laufer_residuals(div.coefficients, [("E8", 1)])
    assert set(residuals.values()) == {0}


def test_solve_single_vertex():
    g = DualGraph()
    g.add_vertex("E1", -1)
    div = solve_multiplicities(g, [("E1", 1)])
    assert div.coefficients == {"E1": 1}


def test_solve_singular_matrix():
    g = DualGraph()
    g.add_vertex("A", -1)
    g.add_vertex("B", -1)
    g.add_edge("A", "B")  # determinant zero
    with pytest.raises(DomainError, match="^singular intersection matrix$"):
        solve_multiplicities(g, [("A", 1)])


def test_solve_non_integral():
    g = DualGraph()
    g.add_vertex("A", -2)
    with pytest.raises(DomainError):
        solve_multiplicities(g, [("A", 1)])
    div = solve_multiplicities(g, [("A", 1)], strict=False)
    assert div.coefficients == {"A": F(1, 2)}


def test_pencil_min_e8():
    g = graph_e8()
    fx = Divisor(X_DIV, (("E8", 1),))
    fy = Divisor({k: 2 * v for k, v in Y_DIV.items()}, (("E7", 2),))
    fz = Divisor({k: 4 * v for k, v in Z_DIV.items()}, (("E5", 4),))
    generic = pencil_min(g, [fx, fy, fz])
    assert generic.coefficients == X_DIV
    assert generic.strict_arrows == (("E8", 1),)


def test_strict_arrows_keep_integer_ids():
    """Both divisor constructors keep the graph's vertex ids in their
    strict parts, ordered by the ids as strings ("10" before "9"), and
    ``to_json`` writes every id as a string."""
    doc = graph_to_json(graph_e8())
    num = {vid: int(vid[1:]) + 2 for vid in E8_IDS}  # E1..E8 -> 3..10
    for v in doc["vertices"]:
        v["id"] = num[v["id"]]
    doc["edges"] = [[num[a], num[b]] for a, b in doc["edges"]]
    for a in doc["arrows"]:
        a["vertex"] = num[a["vertex"]]
    g = parse_graph(doc)
    div = solve_multiplicities(g, [(10, 1), (9, 2)])
    assert div.strict_arrows == ((10, 1), (9, 2))
    assert div.to_json() == {
        "coefficients": {"3": 35, "4": 28, "5": 21, "6": 14, "7": 7, "8": 24,
                         "9": 13, "10": 18},
        "strict": [{"vertex": "10", "multiplicity": 1},
                   {"vertex": "9", "multiplicity": 2}]}
    x, y = solve_multiplicities(g, "x"), solve_multiplicities(g, "y")
    assert x.strict_arrows == ((10, 1),) and y.strict_arrows == ((9, 1),)
    generic = pencil_min(g, [x, y])
    assert generic.strict_arrows == ((9, 1),)
    assert generic.to_json()["strict"] == [{"vertex": "9", "multiplicity": 1}]


def test_pencil_min_trivial():
    g = graph_e8()
    fx = Divisor(X_DIV, (("E8", 1),))
    assert pencil_min(g, [fx, fx]).coefficients == X_DIV
    other = dict(X_DIV)
    other["E3"] += 1
    assert pencil_min(g, [fx, Divisor(other)]).coefficients == X_DIV


def test_pencil_min_negative_residual():
    g = DualGraph()
    g.add_vertex("A", -1)
    g.add_vertex("B", -1)
    g.add_vertex("C", -3)
    g.add_edge("A", "B")
    g.add_edge("B", "C")
    with pytest.raises(DomainError):
        strict_part_from_residuals(g, {"A": 5, "B": 1, "C": 1})


@pytest.mark.parametrize("call, message", [
    (lambda g: g.add_arrow("E1", "f", branch="0"), "arrow branch '0' is not an integer"),
    (lambda g: pencil_min(g, []), "pencil_min needs at least one divisor"),
], ids=["arrow-branch-string", "pencil-of-nothing"])
def test_graph_input_errors(call, message):
    with pytest.raises(InputError) as exc:
        call(graph_e8())
    assert str(exc.value) == message


def test_base_point_detection():
    fx = Divisor(X_DIV)
    fy = Divisor({k: 2 * v for k, v in Y_DIV.items()})
    fz = Divisor({k: 4 * v for k, v in Z_DIV.items()})
    assert has_base_point([fx, fy, fz], "E8")
    assert (fx.coefficient("E8"), fy.coefficient("E8"),
            fz.coefficient("E8")) == (8, 10, 12)
    assert not has_base_point([fx, fx], "E8")


def test_resolve_pencil_two_steps():
    g = graph_e8()
    fx = Divisor(X_DIV, (("E8", 1),))
    fy = Divisor({k: 2 * v for k, v in Y_DIV.items()}, (("E7", 2),))
    g2, steps = resolve_pencil(g, fx, fy, "E8")
    assert [s.multiplicities for s in steps] == [(8, 10), (9, 10), (10, 10)]
    assert [s.vertex for s in steps] == ["E8", "E9", "E10"]
    assert [g2.vertices[v].self_intersection
            for v in ("E8", "E9", "E10")] == [-3, -2, -1]
    assert frozenset(("E9", "E10")) in {frozenset(e) for e in g2.edges}


def test_resolve_pencil_zero_steps():
    g = graph_e8()
    fx = Divisor(X_DIV, (("E8", 1),))
    g2, steps = resolve_pencil(g, fx, fx, "E8")
    assert len(steps) == 1
    assert len(g2.vertices) == 8


def _cusp_tower_35():
    _, tree = resolve_curve(curve_cusp_53())
    return tree


def test_parity_prepare_e8_pipeline():
    tree = _cusp_tower_35()
    prep = laufer_parity_prepare(tree)
    assert sorted(v.multiplicities["f"] for v in prep.vertices) == [
        3, 5, 9, 12, 15, 16, 20, 24]
    report = verify_tower(prep)
    assert report.ok
    assert abs(prep.determinant()) == 1
    old = [v.self_intersection for v in prep.vertices[:4]]
    new = [v.self_intersection for v in prep.vertices[4:]]
    assert old == [-4, -4, -4, -4] and new == [-1, -1, -1, -1]
    # the arrow moved to the new vertex of multiplicity 16
    (arrow,) = [a for a in prep.arrows if a.kind == "branch"]
    assert prep.vertices[arrow.vertex].multiplicities["f"] == 16
    # no odd-odd adjacency remains
    for a, b in prep.edges:
        pa = prep.vertices[a].multiplicities["f"] % 2
        pb = prep.vertices[b].multiplicities["f"] % 2
        assert pa + pb == 1


def test_parity_prepare_no_odd_odd_is_identity():
    # all edges odd-even already: f = 4 transversal lines
    lines = [PuiseuxBranch.from_terms([(F(1), F(c))]) for c in (1, 2, 3, 4)]
    _, tree = resolve_curve(lines)
    prep = laufer_parity_prepare(tree)
    assert len(prep.vertices) == len(tree.vertices)


@pytest.mark.parametrize("name", ["cusp-53", "four-lines"])
def test_parity_prepare_leaves_its_input_alone(name):
    # cusp-53 has odd-odd points, so prepare blows up a copy; four
    # transversal lines have none, so it returns the input itself
    lines = [PuiseuxBranch.from_terms([(F(1), F(c))]) for c in (1, 2, 3, 4)]
    _, tree = resolve_curve(curve_cusp_53() if name == "cusp-53" else lines)
    before = tower_to_json(tree)
    prep = laufer_parity_prepare(tree)
    assert (prep is tree) == (name == "four-lines")
    assert tower_to_json(tree) == before


def test_double_cover_e8():
    cover = laufer_double_cover(laufer_parity_prepare(_cusp_tower_35()))
    assert len(cover.vertices) == 8
    assert all(v.self_intersection == -2 for v in cover.vertices.values())
    assert all(v.genus == 0 for v in cover.vertices.values())
    assert sorted(v.multiplicities["f"] for v in cover.vertices.values()) == [
        3, 5, 6, 8, 9, 10, 12, 15]
    assert cover.is_negative_definite()
    # evens halved, odds kept
    prep = laufer_parity_prepare(_cusp_tower_35())
    for vid, v in cover.vertices.items():
        m = prep.vertices[vid].multiplicities["f"]
        assert v.multiplicities["f"] == (m if m % 2 else m // 2)
        e = prep.vertices[vid].self_intersection
        assert v.self_intersection == (e // 2 if m % 2 else 2 * e)


def test_double_cover_round_trip():
    cover = laufer_double_cover(laufer_parity_prepare(_cusp_tower_35()))
    arrows = [(a.vertex, a.multiplicity) for a in cover.arrows if a.name == "f"]
    solved = solve_multiplicities(cover, arrows)
    assert solved.coefficients == {vid: v.multiplicities["f"]
                                   for vid, v in cover.vertices.items()}


def test_double_cover_lifts_generic_linear_divisor():
    cover = laufer_double_cover(laufer_parity_prepare(_cusp_tower_35()))
    assert sorted(v.multiplicities["h"] for v in cover.vertices.values()) == [
        2, 2, 3, 3, 4, 4, 5, 6]
    h_arrows = [(a.vertex, a.multiplicity) for a in cover.arrows
                if a.name == "h"]
    assert solve_multiplicities(cover, h_arrows).coefficients == {
        vid: v.multiplicities["h"] for vid, v in cover.vertices.items()}


def test_double_cover_lifts_other_functions_as_function_arrows():
    # a function other than f and h pulls back like h, its forced strict
    # part drawn as plain function arrows
    prep = laufer_parity_prepare(_cusp_tower_35())
    for v in prep.vertices:
        v.multiplicities["g"] = v.multiplicities["h"]
    cover = laufer_double_cover(prep)
    pairs = {n: sorted((a.vertex, a.multiplicity, a.kind) for a in cover.arrows
                       if a.name == n) for n in ("g", "h")}
    assert pairs["g"] == [(v, m, "function") for v, m, _ in pairs["h"]]
    assert all(v.multiplicities["g"] == v.multiplicities["h"]
               for v in cover.vertices.values())


def test_double_cover_rejects_odd_odd():
    with pytest.raises(DomainError):
        laufer_double_cover(_cusp_tower_35())  # not parity-prepared


def test_double_cover_rejects_even_even():
    # y^2 - x^3: multiplicities (2, 3, 6), edge 2-6 is even-even
    _, tree = resolve_curve([PuiseuxBranch.from_terms([(F(3, 2), F(1))])])
    assert sorted(v.multiplicities["f"] for v in tree.vertices) == [2, 3, 6]
    prep = laufer_parity_prepare(tree)
    assert len(prep.vertices) == len(tree.vertices)  # nothing odd-odd
    with pytest.raises(DomainError):
        laufer_double_cover(prep)


def test_double_cover_four_lines_gives_genus_one():
    lines = [PuiseuxBranch.from_terms([(F(1), F(c))]) for c in (1, 2, 3, 4)]
    _, tree = resolve_curve(lines)
    cover = laufer_double_cover(laufer_parity_prepare(tree))
    (v,) = cover.vertices.values()
    assert v.genus == 1
    assert v.self_intersection == -2
    assert v.multiplicities["f"] == 2


def test_double_cover_two_lines_gives_a1():
    lines = [PuiseuxBranch.from_terms([(F(1), F(c))]) for c in (1, 2)]
    _, tree = resolve_curve(lines)
    cover = laufer_double_cover(laufer_parity_prepare(tree))
    (v,) = cover.vertices.values()
    assert v.genus == 0 and v.self_intersection == -2


def test_double_cover_rejects_split_cover():
    tree = DualTree()
    tree.add_vertex(0, -1, rate_vector=(1, 1), multiplicities={"f": 2})
    with pytest.raises(DomainError):
        laufer_double_cover(tree)


def test_double_cover_rejects_odd_selfint_halving():
    tree = DualTree()
    tree.add_vertex(0, -3, rate_vector=(1, 1), multiplicities={"f": 3})
    tree.add_arrow(0, "f", 1, "branch", 0)
    with pytest.raises(DomainError):
        laufer_double_cover(tree)


def test_double_cover_refuses_to_halve_an_odd_self_intersection():
    # an odd curve with no edges or arrows passes the parity check, so the
    # halving of its self-intersection is what refuses
    tree = DualTree()
    tree.add_vertex(0, -3, rate_vector=(1, 1), multiplicities={"f": 1})
    with pytest.raises(DomainError, match="^odd self-intersection -3 at branch "
                       "vertex 0 cannot be halved$"):
        laufer_double_cover(tree)


def test_tower_to_graph():
    tree = _cusp_tower_35()
    g = tower_to_graph(tree, flags={0: ("L",)})
    assert g.is_negative_definite()
    assert "L" in g.vertices[0].flags
    assert g.vertices[3].rate == F(5, 3)
    assert len(g.edges) == len(tree.edges)


def test_resolve_pencil_cap():
    g = DualGraph()
    g.add_vertex("E1", -1)
    a = Divisor({"E1": 0})
    b = Divisor({"E1": 100})
    with pytest.raises(Exception) as exc:
        resolve_pencil(g, a, b, "E1", cap=16)
    assert "cap" in str(exc.value)


def test_double_cover_rejects_odd_branch_point_count():
    tree = DualTree()
    tree.add_vertex(0, -1, rate_vector=(1, 1), multiplicities={"f": 2})
    tree.add_vertex(1, -2, rate_vector=(2, 1), multiplicities={"f": 1})
    tree.add_edge(0, 1)
    with pytest.raises(DomainError):
        laufer_double_cover(tree)


def test_long_chain_verifies_and_solves_fast():
    # A_399: a chain of 399 (-2)-curves, L-nodes at both ends and an h-arrow
    # at each end.  Its intersection matrix is tridiagonal, which the sparse
    # elimination handles in about O(n^2); a dense O(n^3) one takes seconds.
    k = 399
    g = DualGraph()
    for i in range(1, k + 1):
        g.add_vertex(f"E{i}", -2, rate=min(i, k + 1 - i),
                     multiplicities={"h": 1},
                     flags=["L"] if i in (1, k) else [])
        if i > 1:
            g.add_edge(f"E{i - 1}", f"E{i}")
    for end in ("E1", f"E{k}"):
        g.add_arrow(end, "h", 1, kind="generic-linear")
    start = time.perf_counter()
    assert verify_graph(g) == []
    solved = solve_multiplicities(g, "h").coefficients
    elapsed = time.perf_counter() - start
    assert solved == {vid: v.multiplicities["h"] for vid, v in g.vertices.items()}
    assert elapsed < 1.0, f"A_{k} took {elapsed:.2f} s"


def test_copy_shares_no_mutable_state():
    _, tree = resolve_curve(curve_cusp_53())
    for graph, to_json in ((graph_e8(), graph_to_json), (tree, tower_to_json)):
        def state(g):
            return (to_json(g), [sorted(g.vertices[v].flags) for v in g.ids()],
                    [g.neighbors(v) for v in g.ids()])
        before = state(graph)
        dup = graph.copy()
        assert type(dup) is type(graph) and state(dup) == before
        for vid in dup.ids():
            v = dup.vertices[vid]
            v.self_intersection -= 1
            v.multiplicities["f"] = 99
            v.flags.add("L")
        a, b = dup.edges[0]
        dup.remove_edge(a, b)
        new = len(dup.vertices) if isinstance(dup, DualTree) else "new"
        dup.add_vertex(new, -1)
        dup.add_edge(a, new)
        dup.add_arrow(new, "g")
        assert state(graph) == before


# what blowdownable_vertices finds in the chain a - b - c, with b a rational
# -1 curve and a, c -2 curves, changed as each case says
BLOWDOWN_CASES = {"chain": ["b"], "one-L-neighbour": ["b"], "arrow": [],
                  "valence-3": [], "genus-1": [], "between-L-curves": []}


@pytest.mark.parametrize("case", list(BLOWDOWN_CASES))
def test_blowdownable_vertices(case):
    g = DualGraph()
    g.add_vertex("a", -2, flags=[L_NODE] if case in ("one-L-neighbour",
                                                     "between-L-curves") else None)
    g.add_vertex("b", -1, genus=1 if case == "genus-1" else 0)
    g.add_vertex("c", -2, flags=[L_NODE] if case == "between-L-curves" else None)
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    if case == "valence-3":
        g.add_vertex("d", -2)
        g.add_edge("b", "d")
    if case == "arrow":
        g.add_arrow("b", "f")
    assert blowdownable_vertices(g) == BLOWDOWN_CASES[case]
