import pytest

from singlip import fixtures, jsonio, strands_of
from singlip.errors import InputError


def test_fixture_registry():
    names = fixtures.fixture_names()
    for required in ("e8", "d4", "a1", "a2", "e6", "e7",
                     "briancon-speder-t0", "briancon-speder-tneq0",
                     "minimal-singularity", "carrousel-example", "cusp-53",
                     "curve-32-74"):
        assert required in names
    with pytest.raises(InputError):
        fixtures.load_fixture("no-such-fixture")


def test_curve_fixtures_parse_and_round_trip():
    for name in fixtures.fixture_names():
        if fixtures.fixture_kind(name) != "curve":
            continue
        curve = fixtures.load_fixture(name)
        strands_of(curve)  # validity
        doc = jsonio.curve_to_json(curve)
        back = jsonio.parse_curve(doc, strict=True)
        assert [b.terms for b in back] == [b.terms for b in curve]


def test_graph_fixtures_verify():
    for name in fixtures.fixture_names():
        if fixtures.fixture_kind(name) != "graph":
            continue
        g = fixtures.load_fixture(name)
        assert g.is_connected(), name
        assert g.is_negative_definite(), name
        # the stored generic-linear divisor satisfies Laufer-zero with its
        # arrows on every fixture
        coeffs = {vid: v.multiplicities["h"] for vid, v in g.vertices.items()}
        arrows = [(a.vertex, a.multiplicity) for a in g.arrows if a.name == "h"]
        residuals = g.laufer_residuals(coeffs, arrows)
        assert set(residuals.values()) == {0}, (name, residuals)


def test_graph_fixtures_round_trip():
    for name in fixtures.fixture_names():
        if fixtures.fixture_kind(name) != "graph":
            continue
        g = fixtures.load_fixture(name)
        doc = jsonio.graph_to_json(g)
        back = jsonio.parse_graph(doc, strict=True)
        assert list(back.vertices) == list(g.vertices)
        for vid in g.vertices:
            a, b = g.vertices[vid], back.vertices[vid]
            assert (a.self_intersection, a.genus, a.rate, a.multiplicities,
                    a.flags) == (b.self_intersection, b.genus, b.rate,
                                 b.multiplicities, b.flags)
        assert back.edges == g.edges
        assert back.arrows == g.arrows


def test_no_blowdownable_vertices_in_graph_fixtures():
    from singlip.surfgraph import blowdownable_vertices
    for name in fixtures.fixture_names():
        if fixtures.fixture_kind(name) != "graph":
            continue
        assert blowdownable_vertices(fixtures.load_fixture(name)) == [], name
