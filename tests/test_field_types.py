"""Every field that a document reader or a ``DualGraph`` builder
type-checks as an integer takes an ``IntEnum`` as that integer and refuses
``True`` with the message of any other bad value.

The readers test the exact JSON types first and call ``is_int`` or
``isinstance`` only when that test fails; these values take that second
path.  One table sends them through documents, the other through the
builders, which must leave a graph as it was when they refuse.  The
builders also refuse a ``flags`` argument that is not a list, tuple or set,
where the graph reader refuses any field but a list, and a function name
that is not a string, which no JSON object key can be.
"""

from enum import IntEnum

import pytest

from helpers import graph_state
from singlip.errors import InputError
from singlip.jsonio import (curve_to_json, graph_to_json, parse_curve,
                            parse_graph, parse_tower, tower_to_json)
from singlip.dualgraph import DualGraph, DualTree


class Int(IntEnum):
    MINUS_TWO = -2
    ZERO = 0
    ONE = 1
    TWO = 2


def graph_doc() -> dict:
    """Two -2 curves with integer ids and every checked field filled in."""
    return {"format": "singlip.graph/1",
            "vertices": [{"id": 1, "self_intersection": -2, "genus": 0,
                          "rate": {"num": 2, "den": 1},
                          "multiplicities": {"h": 1}},
                         {"id": 2, "self_intersection": -2, "rate": 1}],
            "edges": [[1, 2]],
            "arrows": [{"vertex": 1, "name": "h", "multiplicity": 1,
                        "branch": 0}]}


def tower_doc() -> dict:
    return {"format": "singlip.tower/1",
            "vertices": [{"id": 0, "self_intersection": -2, "rate_vector": [1, 1]},
                         {"id": 1, "self_intersection": -1, "rate_vector": [2, 1]}],
            "edges": [[0, 1]]}


def curve_doc() -> dict:
    return {"format": "singlip.curve/1",
            "branches": [{"denominator": 1, "terms": [
                {"exp": 2, "coeff": {"num": 1, "den": 1}}]}]}


GRAPH = (parse_graph, graph_doc, graph_to_json)
TOWER = (parse_tower, tower_doc, tower_to_json)
CURVE = (parse_curve, curve_doc, curve_to_json)

# reader, path to the field, the IntEnum it takes, the message for True
DOCUMENT_FIELDS = {
    "vertex-id": (GRAPH, ("vertices", 0, "id"), Int.ONE,
                  "vertex id True is not a string or an integer"),
    "self-intersection": (GRAPH, ("vertices", 0, "self_intersection"),
                          Int.MINUS_TWO,
                          "vertex 1: self_intersection must be a negative integer"),
    "genus": (GRAPH, ("vertices", 0, "genus"), Int.ZERO,
              "vertex 1: genus must be a non-negative integer"),
    "rate": (GRAPH, ("vertices", 1, "rate"), Int.ONE,
             "cannot interpret True as a rational number"),
    "rate-num": (GRAPH, ("vertices", 0, "rate", "num"), Int.TWO,
                 "cannot interpret {'num': True, 'den': 1} as a rational number"),
    "rate-den": (GRAPH, ("vertices", 0, "rate", "den"), Int.ONE,
                 "cannot interpret {'num': 2, 'den': True} as a rational number"),
    "multiplicity": (GRAPH, ("vertices", 0, "multiplicities", "h"), Int.ONE,
                     "vertex 1: multiplicities must be non-negative integers"),
    "edge-end": (GRAPH, ("edges", 0, 1), Int.TWO,
                 "edge (1,True) references unknown vertex"),
    "arrow-vertex": (GRAPH, ("arrows", 0, "vertex"), Int.ONE,
                     "arrow references unknown vertex True"),
    "arrow-multiplicity": (GRAPH, ("arrows", 0, "multiplicity"), Int.ONE,
                           "arrow multiplicity must be a positive integer"),
    "arrow-branch": (GRAPH, ("arrows", 0, "branch"), Int.ZERO,
                     "arrow branch True is not an integer"),
    "tower-id": (TOWER, ("vertices", 1, "id"), Int.ONE,
                 "tower vertex id True is not its position 1"),
    "tower-edge-end": (TOWER, ("edges", 0, 1), Int.ONE,
                       "edge (0,True) references unknown vertex"),
    "rate-vector-p": (TOWER, ("vertices", 1, "rate_vector", 0), Int.TWO,
                      "vertex 1: rate_vector must be two integers [p, q] with q > 0"),
    "rate-vector-q": (TOWER, ("vertices", 1, "rate_vector", 1), Int.ONE,
                      "vertex 1: rate_vector must be two integers [p, q] with q > 0"),
    "term-exp": (CURVE, ("branches", 0, "terms", 0, "exp"), Int.TWO,
                 "cannot interpret True as a rational number"),
    "term-coeff-num": (CURVE, ("branches", 0, "terms", 0, "coeff", "num"), Int.ONE,
                       "cannot interpret {'num': True, 'den': 1} as a rational number"),
    "denominator": (CURVE, ("branches", 0, "denominator"), Int.ONE,
                    "branches[0]: declared denominator True differs from the "
                    "minimal one 1"),
}


def _with(doc: dict, path: tuple, value) -> dict:
    *outer, last = path
    here = doc
    for key in outer:
        here = here[key]
    here[last] = value
    return doc


@pytest.mark.parametrize("name", DOCUMENT_FIELDS)
def test_a_document_field_takes_an_int_subclass_and_refuses_true(name):
    (parse, make, to_json), path, good, message = DOCUMENT_FIELDS[name]
    assert to_json(parse(_with(make(), path, good))) == to_json(parse(make()))
    with pytest.raises(InputError) as exc:
        parse(_with(make(), path, True))
    assert str(exc.value) == message


def two_curves() -> DualGraph:
    g = DualGraph()
    g.add_vertex(1, -2, rate_vector=(1, 1), multiplicities={"h": 1})
    g.add_vertex(2, -2, rate_vector=(2, 1), multiplicities={"h": 1})
    g.add_edge(1, 2)
    return g


def points(n: int):
    def make() -> DualTree:
        tree = DualTree()
        for vid in range(n):
            tree.add_vertex(vid, -1, rate_vector=(vid + 1, 1))
        return tree
    return make


# graph, the call with the value, the IntEnum it takes, the message for True
API_FIELDS = {
    "vertex-id": (two_curves, lambda g, x: g.add_vertex(x, -2), Int.ZERO,
                  "vertex id True is not a string or an integer"),
    "self-intersection": (two_curves, lambda g, x: g.add_vertex(3, x),
                          Int.MINUS_TWO,
                          "vertex 3: self_intersection must be a negative integer"),
    "genus": (two_curves, lambda g, x: g.add_vertex(3, -2, genus=x), Int.ONE,
              "vertex 3: genus must be a non-negative integer"),
    "rate": (two_curves, lambda g, x: g.add_vertex(3, -2, rate=x), Int.ONE,
             "cannot interpret True as a rational number"),
    "multiplicity": (two_curves,
                     lambda g, x: g.add_vertex(3, -2, multiplicities={"h": x}),
                     Int.ONE, "vertex 3: multiplicities must be non-negative integers"),
    "rate-vector": (two_curves, lambda g, x: g.add_vertex(3, -2, rate_vector=(x, 1)),
                    Int.ONE,
                    "vertex 3: rate_vector must be two integers [p, q] with q > 0"),
    "edge-end": (two_curves, lambda g, x: g.add_edge(x, 2), Int.ONE,
                 "edge (True,2) references unknown vertex"),
    "arrow-vertex": (two_curves, lambda g, x: g.add_arrow(x, "h"), Int.ONE,
                     "arrow references unknown vertex True"),
    "arrow-multiplicity": (two_curves, lambda g, x: g.add_arrow(1, "h", x), Int.ONE,
                           "arrow multiplicity must be a positive integer"),
    "arrow-branch": (two_curves, lambda g, x: g.add_arrow(1, "h", branch=x),
                     Int.ONE, "arrow branch True is not an integer"),
    "blow-up-curve": (two_curves, lambda g, x: g.blow_up(3, (x,)), Int.ONE,
                      "blow-up on unknown curve True"),
    "blow-up-strict": (two_curves, lambda g, x: g.blow_up(3, (1,), {"h": x}), Int.ONE,
                       "vertex 3: multiplicities must be non-negative integers"),
    "tower-id": (points(1), lambda t, x: t.add_vertex(x, -1, rate_vector=(2, 1)),
                 Int.ONE, "tower vertex id True is not its position 1"),
    "tower-edge-end": (points(2), lambda t, x: t.add_edge(0, x), Int.ONE,
                       "edge (0,True) references unknown vertex"),
}


@pytest.mark.parametrize("name", API_FIELDS)
def test_a_builder_argument_takes_an_int_subclass_and_refuses_true(name):
    make, call, good, message = API_FIELDS[name]
    graphs = make(), make()
    for g, value in zip(graphs, (good, int(good))):
        call(g, value)
    assert graph_state(graphs[0]) == graph_state(graphs[1])
    g = make()
    before = graph_state(g)
    with pytest.raises(InputError) as exc:
        call(g, True)
    assert str(exc.value) == message
    assert graph_state(g) == before


def test_a_builder_refuses_flags_that_are_not_a_collection():
    # a str is iterable, and "LP" would be stored as the flags L and P
    g = two_curves()
    before = graph_state(g)
    for flags in ("LP", "", True, 3):
        with pytest.raises(InputError) as exc:
            g.add_vertex("a", -2, flags=flags)
        assert str(exc.value) == "vertex 'a': flags must be a list of names"
        assert graph_state(g) == before
    for flags in (["L"], ("L",), {"L"}, frozenset("L"), [], None):
        assert g.copy().add_vertex("a", -2, flags=flags).flags == set(flags or ())


def test_a_builder_refuses_a_function_name_that_is_not_a_string():
    # sorting the names, as verify_graph and graph_to_json do, would raise
    # a bare TypeError between 1 and "h"
    g = two_curves()
    before = graph_state(g)
    for name in (1, Int.ONE, None, ("h",)):
        for call in (lambda: g.add_vertex("a", -2, multiplicities={"h": 1, name: 2}),
                     lambda: g.blow_up("a", (1,), {"h": 1, name: 2})):
            with pytest.raises(InputError) as exc:
                call()
            assert str(exc.value) == f"vertex 'a': function name {name!r} is not a string"
            assert graph_state(g) == before
    assert g.blow_up("a", (1,), {"g": 2}).multiplicities == {"g": 2, "h": 1}
