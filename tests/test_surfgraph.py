import random
import re
import time
from fractions import Fraction as F

import pytest

from helpers import (dense_eliminate, intersection_matrix, random_curve,
                     relabelled, sparse_rows)
from singlip import (Divisor, DualGraph, PuiseuxBranch, fixtures,
                     has_base_point, laufer_double_cover,
                     laufer_parity_prepare, pencil_min, resolve_curve,
                     resolve_pencil, solve_multiplicities, thick_thin,
                     tower_to_graph, verify_graph, verify_tower)
from singlip.errors import DomainError, InputError, ResourceCapExceeded
from singlip.fixtures import curve_cusp_53, load_fixture
from singlip.jsonio import graph_to_json, parse_graph, tower_to_json
from singlip.dualgraph import L_NODE, DualTree, reach
from singlip.surfgraph import blowdownable_vertices, strict_part_from_residuals


E8_IDS = [f"E{i}" for i in range(1, 9)]

X_DIV = dict(zip(E8_IDS, [15, 12, 9, 6, 3, 10, 5, 8]))
Y_DIV = dict(zip(E8_IDS, [10, 8, 6, 4, 2, 7, 4, 5]))
Z_DIV = dict(zip(E8_IDS, [6, 5, 4, 3, 2, 4, 2, 3]))


def test_solve_multiplicities_e8():
    g = load_fixture("e8")
    assert solve_multiplicities(g, "x").coefficients == X_DIV
    assert solve_multiplicities(g, "y").coefficients == Y_DIV
    assert solve_multiplicities(g, "z").coefficients == Z_DIV


def test_solve_multiplicities_residuals_vanish():
    g = load_fixture("e8")
    div = solve_multiplicities(g, "x")
    residuals = g.laufer_residuals(div.coefficients, [("E8", 1)])
    assert set(residuals.values()) == {0}


def test_arrows_on_unknown_vertices_are_refused():
    # solve_multiplicities raised a bare KeyError on such a pair, and
    # laufer_residuals left it out; both refuse it as add_arrow does
    g = load_fixture("e8")
    for vid in ("nope", True, 1, "e1"):
        message = f"arrow references unknown vertex {vid!r}"
        with pytest.raises(InputError) as exc:
            solve_multiplicities(g, [("E8", 1), (vid, 1)])
        assert str(exc.value) == message
        with pytest.raises(InputError) as exc:
            g.laufer_residuals(X_DIV, [("E8", 1), (vid, 1)])
        assert str(exc.value) == message
        with pytest.raises(InputError) as exc:
            g.add_arrow(vid, "x")
        assert str(exc.value) == message
    assert set(g.laufer_residuals(X_DIV, [("E8", 1)]).values()) == {0}


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
    # the message lists the values in insertion order, whatever order the
    # elimination ran in, each as p/q
    for ids, values in ((("A", "B"), "2/3, 1/3"), (("B", "A"), "1/3, 2/3")):
        g = DualGraph()
        for vid in ids:
            g.add_vertex(vid, -2)
        g.add_edge("A", "B")
        message = re.escape(f"non-integral multiplicities [{values}]")
        with pytest.raises(DomainError, match=f"^{message}$"):
            solve_multiplicities(g, [("A", 1)])


def test_pencil_min_e8():
    g = load_fixture("e8")
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
    doc = graph_to_json(load_fixture("e8"))
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
    g = load_fixture("e8")
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
        call(load_fixture("e8"))
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
    g = load_fixture("e8")
    fx = Divisor(X_DIV, (("E8", 1),))
    fy = Divisor({k: 2 * v for k, v in Y_DIV.items()}, (("E7", 2),))
    g2, steps = resolve_pencil(g, fx, fy, "E8")
    assert [s.multiplicities for s in steps] == [(8, 10), (9, 10), (10, 10)]
    assert [s.vertex for s in steps] == ["E8", "E9", "E10"]
    assert [g2.vertices[v].self_intersection
            for v in ("E8", "E9", "E10")] == [-3, -2, -1]
    assert frozenset(("E9", "E10")) in {frozenset(e) for e in g2.edges}


def test_resolve_pencil_zero_steps():
    g = load_fixture("e8")
    fx = Divisor(X_DIV, (("E8", 1),))
    g2, steps = resolve_pencil(g, fx, fx, "E8")
    assert len(steps) == 1
    assert len(g2.vertices) == 8


@pytest.mark.parametrize("ids, new", [
    (["E1", "E07", "E3"], ["E8", "E9", "E10", "E11"]),
    ([0, 5, 2], [6, 7, 8, 9]),
    (["a", 1, "v5", "v6", "v8"], ["v7", "v9", "v10", "v11"]),
    (["E1", "E2", 3], ["v3", "v4", "v5", "v6"])])
def test_resolve_pencil_names_each_new_curve_by_the_graph_ids(ids, new):
    # E<n> past the largest, the next integer, else the free v<k> from k = |V|
    g = DualGraph()
    for vid in ids:
        g.add_vertex(vid, -2)
    g2, steps = resolve_pencil(g, Divisor({ids[0]: 0}), Divisor({ids[0]: 4}),
                               ids[0])
    assert [s.vertex for s in steps] == [ids[0], *new]
    assert g2.ids() == [*ids, *new]


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
    odd_odd = "^odd-odd adjacency at {}; not in the combinatorial case"
    with pytest.raises(DomainError, match=odd_odd.format(r"edge \(0, 2\)")):
        laufer_double_cover(_cusp_tower_35())  # not parity-prepared


def test_double_cover_rejects_odd_selfint_halving():
    # an odd curve with an odd arrow is refused at the odd-odd check, before
    # the halving of its self-intersection is reached
    tree = DualTree()
    tree.add_vertex(0, -3, rate_vector=(1, 1), multiplicities={"f": 3})
    tree.add_arrow(0, "f", 1, "branch", 0)
    with pytest.raises(DomainError, match="^odd-odd adjacency at arrow 0; "
                       "not in the combinatorial case"):
        laufer_double_cover(tree)


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
    with pytest.raises(ResourceCapExceeded,
                       match="^pencil resolution cap 64 exceeded$"):
        resolve_pencil(g, a, b, "E1")
    # the cap is on blow-ups: 64 of them still resolve
    _, steps = resolve_pencil(g, a, Divisor({"E1": 64}), "E1")
    assert len(steps) == 65 and steps[-1].multiplicities == (64, 64)


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
    for graph, to_json in ((load_fixture("e8"), graph_to_json), (tree, tower_to_json)):
        def state(g):
            return (to_json(g), [sorted(g.vertices[v].flags) for v in g.ids()],
                    [list(g.neighbors(v)) for v in g.ids()])
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
        dup.add_vertex(new, -1, rate_vector=(1, 1))
        dup.add_edge(a, new)
        dup.add_arrow(new, "g")
        assert state(graph) == before


def test_remove_edge_takes_the_last_edge_stored_either_way_round():
    g = DualGraph()
    for vid in "abc":
        g.add_vertex(vid, -2)
    for a, b in (("a", "b"), ("b", "c"), ("b", "a"), ("c", "b")):
        g.add_edge(a, b)
    g.remove_edge("a", "b")
    assert g.edges == [("a", "b"), ("b", "c"), ("c", "b")]
    g.remove_edge("b", "c")
    assert g.edges == [("a", "b"), ("b", "c")]
    assert [g.neighbors(v) for v in "abc"] == [["b"], ["a", "c"], ["b"]]
    with pytest.raises(InputError, match=r"^no edge \('a','c'\)$"):
        g.remove_edge("a", "c")
    assert g.edges == [("a", "b"), ("b", "c")]


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


# -- elimination order ---------------------------------------------------------

def _double_edge_graph():
    g = DualGraph()
    for vid, e in (("a", -3), ("b", -3), ("c", -2)):
        g.add_vertex(vid, e, multiplicities={"f": 1})
    g.add_edge("a", "b")
    g.add_edge("b", "a")
    g.add_edge("b", "c")
    g.add_arrow("c", "f", 1)
    return g


def _two_component_graph():
    g = DualGraph()
    for vid, e in (("x", -2), ("y", -2), ("z", -3)):
        g.add_vertex(vid, e, multiplicities={"h": 1})
    g.add_edge("x", "y")
    g.add_arrow("x", "h", 1)
    g.add_arrow("z", "h", 1)
    return g


def _fixture_graph(name):
    """A graph fixture, or the resolution tower of a curve fixture."""
    g = fixtures.load_fixture(name)
    return resolve_curve(g)[1] if fixtures.fixture_kind(name) == "curve" else g


EXTRA_CASES = {"double-edge": _double_edge_graph,
               "two-components": _two_component_graph}


def _perturbed(g):
    """A copy with its first vertex's self-intersection raised (to at most
    -1) and multiplicities raised by one, so that Laufer-zero and possibly
    negative definiteness fail, and one multiplicity of its last vertex
    dropped."""
    out = g.copy()
    first, last = out.ids()[0], out.ids()[-1]
    v = out.vertices[first]
    v.self_intersection = min(v.self_intersection + 1, -1)
    v.multiplicities = {n: m + 1 for n, m in v.multiplicities.items()}
    for fn in out.function_names()[:1]:
        out.vertices[last].multiplicities.pop(fn, None)
    return out


def _renamed(problem, graph, back):
    """``problem`` of ``graph`` with its vertices named by ``back``.  The
    vertices a not-connected problem names depend on the vertex order, so
    it becomes their components, which must be all of them."""
    ids = {str(v): v for v in graph.ids()}
    head, at, vid = problem.rpartition(" at vertex ")
    if at:
        return head + at + str(back[ids[vid]])
    head, sep, named = problem.partition(": no path from vertex ")
    if not sep:
        return problem
    first, _, rest = named.partition(" to ")
    starts = [ids[n] for n in [first, *rest.split(", ")]]
    parts = {frozenset(back[w] for w in graph.component(v)) for v in starts}
    assert len(parts) == len(starts) and set().union(*parts) == set(back.values())
    return head + ": " + str(sorted(sorted(map(str, part)) for part in parts))


@pytest.mark.parametrize("name", fixtures.fixture_names() + list(EXTRA_CASES))
def test_answers_do_not_depend_on_vertex_order(name):
    rng = random.Random(name)
    base = EXTRA_CASES[name]() if name in EXTRA_CASES else _fixture_graph(name)
    for g in (base, _perturbed(base)):
        ids = g.ids()
        m = intersection_matrix(g)
        expected = dense_eliminate(m)
        negdef = all(d * (-1) ** k > 0 for k, d in enumerate(expected.minors, 1))
        problems = verify_graph(g)
        solves = {}
        for fn in sorted({a.name for a in g.arrows}):
            rhs = [0] * len(ids)
            for vid, mult in g.arrow_pairs(fn):
                rhs[ids.index(vid)] -= mult
            solves[fn] = dense_eliminate(m, rhs).solution
        copies = [relabelled(g, rng) for _ in range(3)]
        for h, rename in [(g, {v: v for v in ids})] + copies:
            index, rows = h.intersection_rows()
            hm, hids = intersection_matrix(h), h.ids()
            perm = [hids.index(v) for v in index]
            assert list(index.values()) == list(range(len(ids)))
            assert rows == sparse_rows([[hm[a][b] for b in perm] for a in perm])
            assert h.determinant() == expected.determinant
            assert h.is_negative_definite() == negdef
            back = {new: old for old, new in rename.items()}
            assert sorted(_renamed(p, h, back) for p in verify_graph(h)) == sorted(
                _renamed(p, g, dict(zip(ids, ids))) for p in problems)
            for fn, solution in solves.items():
                if solution is None:
                    with pytest.raises(DomainError, match="^singular"):
                        solve_multiplicities(h, fn, strict=False)
                    continue
                coeffs = {rename[v]: x for v, x in zip(ids, solution)}
                assert solve_multiplicities(h, fn, strict=False).coefficients \
                    == coeffs
                if all(x.denominator == 1 for x in solution):
                    assert solve_multiplicities(h, fn).coefficients == coeffs
                else:
                    message = (f"non-integral multiplicities "
                               f"[{', '.join(str(coeffs[v]) for v in hids)}]")
                    with pytest.raises(DomainError,
                                       match=f"^{re.escape(message)}$"):
                        solve_multiplicities(h, fn)


def _forest(trees, rng) -> DualGraph:
    """The disjoint union of the trees, every other one with integer ids
    and the rest with string ids, its vertices added in a shuffled order."""
    name = {}
    for k, tree in enumerate(trees):
        for vid in tree.ids():
            name[k, vid] = len(name) if k % 2 else f"t{k}.{vid}"
    out = DualGraph()
    for k, vid in rng.sample(list(name), len(name)):
        out.add_vertex(name[k, vid], trees[k].vertices[vid].self_intersection)
    for k, tree in enumerate(trees):
        for a, b in tree.edges:
            out.add_edge(name[k, a], name[k, b])
    return out


def test_trees_eliminate_without_fill():
    # in a forest's elimination order each vertex meets exactly one later
    # vertex, its parent, except the last of each component, which meets
    # none; so eliminating it fills in nothing
    rng = random.Random(2)
    trees = [g for g in map(_fixture_graph, fixtures.fixture_names())
             if g.is_connected() and len(g.edges) == len(g.ids()) - 1]
    trees += [resolve_curve(random_curve(rng, 3))[1] for _ in range(20)]
    assert len(trees) > 30
    forests = [_forest(rng.sample(trees, rng.randint(2, 4)), rng)
               for _ in range(10)]
    for tree in trees + forests:
        for g in (tree, relabelled(tree, rng)[0]):
            index, _ = g.intersection_rows()
            later = [sum(index[w] > i for w in g.neighbors(vid))
                     for vid, i in index.items()]
            roots = len(later) - len(g.edges)
            assert sorted(later) == [0] * roots + [1] * len(g.edges)
            assert later[-1] == 0


def test_reach_is_breadth_first_within_and_once():
    # a square 0-1-2-a with a double edge 0-a, a tail 2-3 and a lone x
    adjacent = {0: [1, "a", "a"], 1: [0, 2], "a": [0, 0, 2], 2: [1, "a", 3],
                3: [2], "x": []}
    assert list(reach(adjacent, 0)) == [0, 1, "a", 2, 3]
    assert list(reach(adjacent, 3)) == [3, 2, 1, "a", 0]
    assert list(reach(adjacent, "a")) == ["a", 0, 2, 1, 3]
    assert list(reach(adjacent, 0, within={1, 2, 3})) == [0, 1, 2, 3]
    assert list(reach(adjacent, 3, within={0, "a"})) == [3]
    assert list(reach(adjacent, "x")) == ["x"]
    # 2 is reached from 1 and from "a", first from 1
    assert reach(adjacent, 0) == {0: None, 1: 0, "a": 0, 2: 1, 3: 2}
    assert reach(adjacent, 3) == {3: None, 2: 3, 1: 2, "a": 2, 0: 1}
    rng = random.Random(4)
    for _ in range(200):
        ids = [*range(8), *"abcdefgh"]
        adjacent = {v: [] for v in ids}
        for _ in range(rng.randint(0, 20)):
            a, b = rng.choice(ids), rng.choice(ids)
            adjacent[a].append(b)
            adjacent[b].append(a)
        within = set(rng.sample(ids, rng.randint(0, len(ids))))
        start = rng.choice(ids)
        tree = reach(adjacent, start, within)
        order = list(tree)
        distance = {start: 0}   # breadth first by rounds, the oracle
        while True:
            rim = {w for v, d in distance.items() if d == max(distance.values())
                   for w in adjacent[v] if w in within and w not in distance}
            if not rim:
                break
            distance.update(dict.fromkeys(rim, max(distance.values()) + 1))
        assert len(order) == len(set(order)) and set(order) == set(distance)
        assert order[0] == start and set(order[1:]) <= within
        assert [distance[v] for v in order] == sorted(distance.values())
        # each vertex hangs from its neighbour that comes first in the walk
        rank = {v: i for i, v in enumerate(order)}
        assert tree[start] is None
        for v in order[1:]:
            assert tree[v] == min((w for w in adjacent[v] if w in rank),
                                  key=rank.__getitem__)
            assert tree[v] == start or tree[v] in within


def test_components_partition_the_graph_in_id_order():
    rng = random.Random(6)
    for _ in range(100):
        g, ids = DualGraph(), rng.sample([*range(8), *"abcdefgh"], 16)
        for vid in ids:
            g.add_vertex(vid, -2)
        for _ in range(rng.randint(0, 16)):
            g.add_edge(*rng.sample(ids, 2))
        trees = g.components()
        members = [v for tree in trees for v in tree]
        assert len(members) == len(ids) and set(members) == set(ids)
        firsts = [next(iter(tree)) for tree in trees]
        assert firsts == sorted(firsts, key=ids.index)
        for first, tree in zip(firsts, trees):
            assert tree == g.component(first)
            assert first == min(tree, key=ids.index)
        assert g.is_connected() == (len(trees) == 1)


def test_is_connected_is_one_component_on_small_and_split_graphs():
    # is_connected walks once from the first id, and components stops after
    # a first tree that holds every vertex
    def graph(kind, n, edges):
        g = kind()
        for vid in range(n):
            g.add_vertex(vid, -2, rate_vector=(1, 1))
        for a, b in edges:
            g.add_edge(a, b)
        return g

    for kind in (DualGraph, DualTree):
        for n, edges, parts in ((0, [], 0), (1, [], 1), (2, [], 2), (2, [(0, 1)], 1),
                                (3, [(0, 2)], 2), (3, [(1, 2)], 2),
                                (4, [(0, 1), (2, 3)], 2), (4, [(0, 3), (3, 1), (1, 2)], 1)):
            g = graph(kind, n, edges)
            trees = g.components()
            assert len(trees) == parts, (kind, n, edges)
            assert sorted(v for tree in trees for v in tree) == g.ids()
            assert g.is_connected() == (parts < 2)
    g = graph(DualGraph, 3, [(0, 1)])
    assert g.components([2, 2]) == [{2: None}]
    assert g.components([1, 0, 1]) == [{1: None, 0: 1}]
    assert g.components([0, 1]) == [{0: None, 1: 0}]


def test_components_within_are_the_thin_zones():
    # minimal-singularity leaves two thin zones, m2-m4-m5 and m7; the
    # trees come in the order of ``within`` and walk inside it
    g = fixtures.load_fixture("minimal-singularity")
    tt = thick_thin(g)
    thick = set().union(*(zone for _, zone in tt.thick_zones))
    rest = [vid for vid in g.ids() if vid not in thick]
    assert g.components(rest) == [{"m2": None, "m4": "m2", "m5": "m4"},
                                  {"m7": None}]
    assert g.components(rest[::-1]) == [{"m7": None},
                                        {"m5": None, "m4": "m5", "m2": "m4"}]
    assert {frozenset(tree) for tree in g.components(set(rest))} == set(
        tt.thin_zones)
