import json
import operator
import random
from fractions import Fraction as F

import pytest

from helpers import random_curve, summary
from singlip import (PuiseuxBranch, amalgamate, build_decomposition,
                     csquare_decomposition, inner_signature, outer_signature,
                     resolve_curve, signatures_equal, thick_thin,
                     thin_zone_rate, tower_to_graph)
from singlip import fixtures, jsonio
from singlip.decomp import MODES, Signature, _nodes
from singlip.errors import DomainError, InputError
from singlip.fixtures import (curve_32_74, curve_cusp_53, graph_a_k, graph_d4,
                              graph_e8, graph_e8_nash,
                              graph_minimal_singularity, load_fixture)
from singlip.surfgraph import DualGraph


def test_classify_nodes_minimal_singularity():
    # each inner node maps to whether it is a special P-node
    g = graph_minimal_singularity()
    inner, outer = _nodes(g, "inner"), _nodes(g, "outer")
    assert inner["m4"] is True
    assert inner["m7"] is True
    assert inner["m2"] is False  # P-node but valence 3
    assert "m2" in inner
    assert "m9" not in inner and "m9" not in outer
    assert len(inner) == 9
    assert set(outer) == set(inner)


def test_special_p_definition_on_contested_vertex():
    # the rate-3 valence-2 vertex with neighbor rates (2,2): when it carries
    # polar components the stated definition does make it special, which is
    # why the fixture leaves it unflagged (its source figure does not mark
    # it special); this exercises the definition itself
    g = graph_minimal_singularity()
    g.vertices["m9"].flags.add("P")
    assert _nodes(g, "inner")["m9"] is True
    assert "m9" in _nodes(g, "outer")
    # a P-node whose rate is below one neighbour's is not special
    g.vertices["m10"].flags.add("P")
    assert "m10" not in _nodes(g, "inner") and "m10" in _nodes(g, "outer")


def test_classify_requires_rates():
    g = graph_a_k(4)  # interior vertices carry no rates
    for mode in MODES:
        with pytest.raises(InputError, match="without inner rates"):
            build_decomposition(g, mode)


def test_thick_thin_e8():
    tt = thick_thin(graph_e8())
    assert len(tt.thick_zones) == 1
    (l_node, zone), = tt.thick_zones
    assert l_node == "E5" and zone == frozenset({"E5", "E4", "E3", "E2"})
    (thin,) = tt.thin_zones
    assert thin == frozenset({"E1", "E6", "E7", "E8"})
    assert not tt.metrically_conical


def test_thick_thin_d4_conical():
    tt = thick_thin(graph_d4())
    assert tt.thin_zones == ()
    assert tt.metrically_conical
    assert tt.thick_zones[0][1] == frozenset({"E1", "E2", "E3", "E4"})


def test_thick_thin_briancon_speder():
    tt = thick_thin(load_fixture("briancon-speder-tneq0"))
    assert len(tt.thick_zones) == 3 and len(tt.thin_zones) == 1
    tt = thick_thin(load_fixture("briancon-speder-t0"))
    assert len(tt.thick_zones) == 1 and len(tt.thin_zones) == 1


def test_metrically_conical_ade():
    expected = {"a1": True, "a2": False, "a3": False, "a4": False,
                "a5": False, "d4": True, "d5": False, "e6": False,
                "e7": False, "e8": False}
    got = {name: thick_thin(load_fixture(name)).metrically_conical
           for name in expected}
    assert got == expected


def test_thick_thin_errors():
    g = graph_d4()
    g.vertices["E1"].flags.discard("L")
    with pytest.raises(DomainError):
        thick_thin(g)  # no L-node
    g2 = graph_d4()
    g2.vertices["E2"].flags.add("L")
    with pytest.raises(DomainError):
        thick_thin(g2)  # adjacent L-nodes
    g3 = graph_d4()
    g3.remove_edge("E1", "E4")
    with pytest.raises(InputError, match="connected"):
        thick_thin(g3)


def test_build_decomposition_rejects_an_unknown_mode():
    with pytest.raises(InputError, match="^unknown decomposition mode 'bogus'$"):
        build_decomposition(graph_e8(), "bogus")


def test_thin_zone_rate():
    g = graph_e8()
    (zone,) = thick_thin(g).thin_zones
    assert thin_zone_rate(g, zone) == F(5, 3)
    assert thin_zone_rate(g, frozenset({"E7"})) == 2
    with pytest.raises(DomainError):
        thin_zone_rate(g, frozenset({"E5"}))  # rate 1 inside a thin zone


def test_csquare_53_tower():
    _, tree = resolve_curve(curve_cusp_53())
    d = csquare_decomposition(tree)
    assert sorted(p.describe() for p in d.pieces.values()) == [
        "A(1,3/2)", "A(3/2,3/2)", "A(3/2,5/3)", "A(5/3,2)", "B(1)", "B(5/3)",
        "D(2)"]
    a = amalgamate(d)
    assert summary(a) == ["A(1,5/3)", "B(1)", "B(5/3)"]
    conical = [p for p in a.pieces.values() if p.kind == "conical"]
    assert len(conical) == 1 and conical[0].rates == (F(1),)


def test_csquare_single_event_tower():
    from singlip import PuiseuxBranch
    _, tree = resolve_curve([PuiseuxBranch.from_terms([(F(2), F(1))])])
    d = csquare_decomposition(tree)
    assert [p.kind for p in d.pieces.values()] == ["conical"]


def test_amalgamate_fig17_shape():
    _, tree = resolve_curve(curve_32_74())
    a = amalgamate(csquare_decomposition(tree))
    assert summary(a) == ["A(1,3/2)", "A(3/2,7/4)", "B(1)", "B(3/2)", "B(7/4)"]


def test_amalgamate_identity_when_stable():
    _, tree = resolve_curve(curve_32_74())
    a = amalgamate(csquare_decomposition(tree))
    again = amalgamate(a)
    assert summary(again) == summary(a)
    assert {p.support for p in again.pieces.values()} == {
        p.support for p in a.pieces.values()}


def test_amalgamate_long_chain():
    # y = x^(201/200) resolves into a chain of 200 curves after the root;
    # its 401 per-vertex pieces collapse to the cone, one B-piece over the
    # chain, and the A-piece between them
    _, tree = resolve_curve([PuiseuxBranch.from_terms([(F(201, 200), F(1))])])
    d = csquare_decomposition(tree)
    assert len(d.pieces) == 401
    a = amalgamate(d)
    assert [(pid, p.kind, p.rates) for pid, p in sorted(a.pieces.items())] == [
        (0, "conical", (1,)), (200, "B", (F(201, 200),)),
        (201, "A", (1, F(201, 200)))]
    assert len(a.pieces[200].support) == 200
    assert len(a.pieces[200].edge_support) == 199
    assert a.adjacency == {frozenset((0, 201)), frozenset((200, 201))}
    assert amalgamate(a).to_json() == a.to_json()


# amalgamate(csquare_decomposition(tower)) of the curve fixtures: per piece
# (pid, kind, rates, support, edge support), then the adjacency
AMALGAMATED_FIXTURES = {
    "cusp-53": (
        [(0, "conical", "1", ["0"], []),
         (2, "A", "1,5/3", ["2"], ["(0, 2)", "(2, 3)"]),
         (3, "B", "5/3", ["1", "3"], ["(1, 3)"])],
        [[0, 2], [2, 3]]),
    "curve-32-74": (
        [(0, "conical", "1", ["0"], []),
         (2, "B", "3/2", ["1", "2"], ["(1, 2)"]),
         (4, "B", "7/4", ["3", "4"], ["(3, 4)"]),
         (5, "A", "1,3/2", [], ["(0, 2)"]),
         (7, "A", "3/2,7/4", [], ["(2, 4)"])],
        [[0, 5], [2, 5], [2, 7], [4, 7]]),
    "carrousel-example": (
        [(0, "conical", "1", ["0"], []),
         (1, "A", "3/2,5/2", ["1"], ["(1, 2)", "(1, 5)"]),
         (2, "B", "3/2", ["2"], []),
         (4, "A", "3/2,13/6", ["4"], ["(2, 4)", "(4, 8)"]),
         (5, "B", "5/2", ["3", "5"], ["(3, 5)"]),
         (8, "B", "13/6", ["6", "7", "8"], ["(6, 7)", "(7, 8)"]),
         (9, "A", "1,3/2", [], ["(0, 2)"])],
        [[0, 9], [1, 2], [1, 5], [2, 4], [2, 9], [4, 8]]),
}


def test_amalgamated_fixture_documents():
    def rate(text):
        q = F(text)
        return {"num": q.numerator, "den": q.denominator}

    for name, (pieces, adjacency) in AMALGAMATED_FIXTURES.items():
        _, tree = resolve_curve(load_fixture(name))
        expected = {
            "mode": "csquare",
            "pieces": [{"id": pid, "kind": kind,
                        "rates": [rate(q) for q in rates.split(",")],
                        "special": False, "support": support,
                        "edge_support": edges}
                       for pid, kind, rates, support, edges in pieces],
            "adjacency": adjacency}
        assert amalgamate(csquare_decomposition(tree)).to_json() == expected, name


def test_build_decomposition_e8_inner():
    d = build_decomposition(graph_e8(), "inner")
    assert summary(d) == ["A(1,5/3)", "B(1)", "B(5/3)"]
    supports = {p.describe(): p.support for p in d.pieces.values()}
    assert supports["B(1)"] == frozenset({"E5"})
    assert supports["A(1,5/3)"] == frozenset({"E2", "E3", "E4"})
    assert supports["B(5/3)"] == frozenset({"E1", "E6", "E7", "E8"})


def test_build_decomposition_e8_outer_and_initial():
    g = graph_e8_nash()
    outer = build_decomposition(g, "outer")
    assert summary(outer) == ["A(1,5/3)", "A(5/3,10/3)", "B(1)", "B(10/3)",
                              "B(5/3)"]
    a_pieces = {p.rates: p.support for p in outer.pieces.values()
                if p.kind == "A"}
    assert a_pieces[(F(5, 3), F(10, 3))] == frozenset({"E8", "E9"})
    initial = build_decomposition(g, "initial")
    assert summary(initial) == summary(outer)
    inner = build_decomposition(g, "inner")
    assert summary(inner) == ["A(1,5/3)", "B(1)", "B(5/3)"]


def test_build_decomposition_minimal_singularity_inner():
    d = build_decomposition(graph_minimal_singularity(), "inner")
    b_pieces = [p for p in d.pieces.values() if p.kind == "B"]
    rates = sorted(p.rates[0] for p in b_pieces)
    assert rates == [1, 1, 1, 1, 1, 2, 2]
    special = sorted(p.rates[0] for p in d.pieces.values() if p.special)
    assert special == [2, F(5, 2)]


def test_partition_property_all_modes():
    for name in ("e8", "e8-nash", "minimal-singularity"):
        g = load_fixture(name)
        for mode in ("inner", "outer", "initial"):
            d = build_decomposition(g, mode)
            assert d.supports_partition(list(g.vertices))


def test_inner_b_pieces_biject_with_inner_nodes():
    for name in ("e8", "e8-nash", "minimal-singularity", "d4"):
        g = load_fixture(name)
        d = build_decomposition(g, "inner")
        node_pieces = [p for p in d.pieces.values()
                       if p.kind == "B" or p.special]
        assert len(node_pieces) == len(_nodes(g, "inner"))
        outer_nodes = _nodes(g, "outer")
        do = build_decomposition(g, "outer")
        outer_pieces = [p for p in do.pieces.values()
                        if p.kind == "B" or p.special]
        assert len(outer_pieces) == len(outer_nodes)


def test_outer_refines_inner():
    for name in ("e8", "e8-nash", "minimal-singularity"):
        g = load_fixture(name)
        inner = build_decomposition(g, "inner")
        outer = build_decomposition(g, "outer")
        outer_supports = [p.support for p in outer.pieces.values() if p.support]
        for p in inner.pieces.values():
            if not p.support:
                continue
            cover = [s for s in outer_supports if s <= p.support]
            assert cover and frozenset().union(*cover) == p.support


def test_thick_part_equals_rate_one_pieces():
    for name in ("e8", "e8-nash", "d4", "minimal-singularity",
                 "briancon-speder-t0", "briancon-speder-tneq0"):
        g = load_fixture(name)
        if any(v.rate is None for v in g.vertices.values()):
            continue
        tt = thick_thin(g)
        thick = set().union(*(z for _, z in tt.thick_zones))
        d = build_decomposition(g, "inner")
        rate_one = set()
        for p in d.pieces.values():
            if p.kind == "B" and p.rates == (F(1),):
                rate_one |= p.support
            if p.kind == "A" and p.rates[0] == 1:
                rate_one |= p.support
        assert rate_one == thick


def test_conical_iff_single_piece_inner():
    for name in ("a1", "d4", "e8", "a2", "briancon-speder-t0"):
        g = load_fixture(name)
        if any(v.rate is None for v in g.vertices.values()):
            continue
        d = None
        try:
            d = build_decomposition(g, "inner")
        except DomainError:
            pass
        if d is not None:
            single_b = (len(d.pieces) == 1
                        and all(q == 1 for p in d.pieces.values()
                                for q in p.rates))
            assert thick_thin(g).metrically_conical == single_b


def test_signatures():
    e8 = inner_signature(graph_e8())
    assert signatures_equal(e8, inner_signature(graph_e8()))
    assert not signatures_equal(e8, inner_signature(graph_d4()))
    scaled = graph_e8()
    for v in scaled.vertices.values():
        v.multiplicities["h"] *= 3
    assert signatures_equal(e8, inner_signature(scaled))

    outer = outer_signature(graph_e8_nash())
    assert signatures_equal(outer, outer_signature(graph_e8_nash()))
    assert not signatures_equal(e8, outer)
    bumped = graph_e8_nash()
    bumped.vertices["E10"].self_intersection = -2
    assert not signatures_equal(outer, outer_signature(bumped))


def _relabel(doc, rng):
    """Same graph, vertex ids renamed and vertices and edges reordered."""
    name = {v["id"]: f"r{i}" for i, v in enumerate(doc["vertices"])}
    targets = list(name.values())
    rng.shuffle(targets)
    name = dict(zip(name, targets))
    vertices = [dict(v, id=name[v["id"]]) for v in doc["vertices"]]
    edges = [[name[a], name[b]] for a, b in doc["edges"]]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    arrows = [dict(a, vertex=name[a["vertex"]]) for a in doc["arrows"]]
    return dict(doc, vertices=vertices, edges=edges, arrows=arrows)


def _perturb(doc):
    """Same graph with the rate of its first L-node raised by one."""
    out = json.loads(json.dumps(doc))
    target = min((v for v in out["vertices"] if "L" in v["flags"]),
                 key=lambda v: str(v["id"]))
    rate = F(target["rate"]["num"], target["rate"]["den"]) + 1
    target["rate"] = {"num": rate.numerator, "den": rate.denominator}
    return out


def _star(leaves: int, first_leaf_rate=F(1)) -> DualGraph:
    """A rate-3/2 vertex with ``leaves`` L-curve leaves of rate 1 (the
    first one ``first_leaf_rate``), h = 1 everywhere."""
    g = DualGraph()
    g.add_vertex("c", -1, rate=F(3, 2), multiplicities={"h": 1})
    for i in range(leaves):
        g.add_vertex(f"l{i}", -2, rate=first_leaf_rate if i == 0 else F(1),
                     multiplicities={"h": 1}, flags=("L",))
        g.add_edge("c", f"l{i}")
    return g


def test_signatures_of_a_wide_star_compare():
    # the search individualises one tied leaf pair per level, which went
    # past the interpreter's recursion limit at 400 leaves when it recursed
    star = inner_signature(_star(450))
    assert signatures_equal(star, inner_signature(_star(450)))
    assert not signatures_equal(star, inner_signature(_star(450, F(2))))


def test_unequal_piece_histograms_skip_refinement(monkeypatch):
    # refinement keeps unequal colour histograms unequal, so a comparison
    # whose two sides differ in their piece attributes never refines
    from singlip import decomp
    calls = []
    refine = decomp._refine
    monkeypatch.setattr(decomp, "_refine", lambda *a: calls.append(1) or refine(*a))
    doc = jsonio.graph_to_json(graph_e8())
    sig = inner_signature(jsonio.parse_graph(doc))
    assert not signatures_equal(sig, inner_signature(jsonio.parse_graph(_perturb(doc))))
    assert not signatures_equal(sig, inner_signature(graph_d4()))
    assert calls == []
    assert signatures_equal(sig, inner_signature(
        jsonio.parse_graph(_relabel(doc, random.Random(3)))))
    assert calls


def _rated_documents():
    docs = []
    for name in fixtures.fixture_names():
        if fixtures.fixture_kind(name) == "graph":
            doc = jsonio.graph_to_json(load_fixture(name))
            if all(v.get("rate") is not None for v in doc["vertices"]):
                docs.append(doc)
    rng = random.Random(11)
    for _ in range(40):
        _, tree = resolve_curve(random_curve(rng, max_branches=3, max_den=4))
        flags = {a.vertex: ("L",) for a in tree.arrows
                 if a.kind == "generic-linear"}
        docs.append(jsonio.graph_to_json(tower_to_graph(tree, flags)))
    return docs


def test_signatures_equal_matches_networkx():
    nx = pytest.importorskip("networkx")

    def as_nx(sig):
        g = nx.Graph()
        g.add_nodes_from(sig.nodes.items())
        g.add_edges_from(sig.edges)
        return g

    def check(a, b):
        expected = nx.is_isomorphic(as_nx(a), as_nx(b), node_match=operator.eq)
        assert signatures_equal(a, b) == expected
        return expected

    rng = random.Random(5)
    outcomes = set()
    for doc in _rated_documents():
        for build in (inner_signature, outer_signature):
            sig = build(jsonio.parse_graph(doc))
            assert check(sig, build(jsonio.parse_graph(_relabel(doc, rng))))
            assert not check(sig, build(jsonio.parse_graph(_perturb(doc))))
            outcomes.add(len(sig.nodes))
    assert max(outcomes) >= 10
    # colour refinement alone cannot split two 2-regular graphs of one
    # size: the hexagon against two triangles needs the backtracking
    node = {"kind": "A", "rates": ("2", "3")}
    hexagon = Signature("inner", {i: node for i in range(6)},
                        [(i, (i + 1) % 6) for i in range(6)])
    triangles = Signature("inner", {i: node for i in range(6)},
                          [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    perm = [3, 0, 4, 1, 5, 2]
    turned = Signature("inner", {i: node for i in range(6)},
                       [(perm[i], perm[(i + 1) % 6]) for i in range(6)])
    assert not check(hexagon, triangles)
    assert check(triangles, triangles)
    assert check(hexagon, turned)
    # the first candidate for vertex 0 (on the triangle) lies on the square
    seven = {i: node for i in range(7)}
    three_four = Signature("inner", seven, [(0, 1), (1, 2), (0, 2), (3, 4),
                                            (4, 5), (5, 6), (3, 6)])
    four_three = Signature("inner", seven, [(0, 1), (1, 2), (2, 3), (0, 3),
                                            (4, 5), (5, 6), (4, 6)])
    assert check(three_four, four_three)


def test_signature_requires_multiplicities():
    g = graph_e8()
    for v in g.vertices.values():
        v.multiplicities.clear()
    with pytest.raises(InputError):
        inner_signature(g)


def test_thin_zone_rate_requires_rates():
    g = load_fixture("a4")  # interior vertices carry no rates
    (zone,) = thick_thin(g).thin_zones
    with pytest.raises(InputError):
        thin_zone_rate(g, zone)


def test_amalgamated_csquare_matches_node_construction():
    # running the rewriting rules on the per-vertex pieces of a tower gives
    # the same decomposition as the direct node-based construction on the
    # corresponding graph (root as L-node, branch arrows as Delta-curves)
    from singlip import resolve_curve, tower_to_graph
    from singlip.fixtures import load_fixture

    for name in ("cusp-53", "curve-32-74", "carrousel-example"):
        _, tree = resolve_curve(load_fixture(name))
        flags = {tree.root: ("L",)}
        for a in tree.arrows:
            if a.kind == "branch":
                flags[a.vertex] = tuple(set(flags.get(a.vertex, ())) | {"Delta"})
        g = tower_to_graph(tree, flags=flags)
        direct = build_decomposition(g, "initial")
        rewritten = amalgamate(csquare_decomposition(tree))
        assert summary(direct) == summary(rewritten)
        assert ({p.support for p in direct.pieces.values() if p.support}
                == {p.support for p in rewritten.pieces.values() if p.support})
