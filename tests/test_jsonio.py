"""The hand-written emitter behind ``jsonio.dumps`` against ``json`` itself.

Documents of exact types with str keys, as the library writes (the
fixture reports, the whole report, the repeated objects and the str-key
random documents), go through ``_emit`` as well as ``dumps``, so a slip
onto ``json``'s path cannot pass silently.  The edge cases (subclasses,
non-str keys, unsupported types, cycles, deep documents) go through
``dumps``, which hands them to ``json``.  They need no pytest: every test
is a plain function, and ``PYTHONPATH=src python tests/test_jsonio.py``
runs them all on any interpreter.

``ContactMatrix.to_json`` writes its entries as a ``jsonio.RankRows``, a
tuple of row tuples of its values that ``ContactMatrix.rendered`` builds
and that cannot be edited in place, nor its values and ranks reassigned;
the emitter writes it from its values and ranks.  Every other builder writes each rational fresh, and the emitter
keeps no text by object, so what it writes depends on values alone: every
built document, edited in place but for a contact matrix's entries, which
are replaced whole, is written as ``json`` writes it.  The tests hold the
tower, graph and decomposition documents to twins built here.
"""

from __future__ import annotations

import copy
import json
import operator
import pickle
import random
import sys
import traceback
from collections import OrderedDict
from enum import IntEnum
from fractions import Fraction
from typing import NamedTuple
from unittest import mock

from helpers import random_curve
from singlip import (ContactMatrix, amalgamate, build_carrousel_tree,
                     build_decomposition, contact_matrix, csquare_decomposition,
                     decorate, fixtures, inner_signature, laufer_double_cover,
                     laufer_parity_prepare, leaf_contacts, outer_signature,
                     reduce_to_eggers, resolve_curve, tower_to_graph)
from singlip.decomp import MODES
from singlip.errors import DomainError
from singlip.exactnum import rational_to_json
from singlip.dualgraph import Vertex
from singlip.jsonio import (RankRows, _emit, curve_to_json, dumps, graph_to_json,
                            parse_tower, tower_to_json)


def reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def assert_same(doc):
    assert dumps(doc) == reference(doc), doc


def assert_fast(doc):
    """``_emit`` itself writes ``doc``, as ``json`` does."""
    assert _emit(doc) == dumps(doc) == reference(doc), doc


def _graph_reports(g) -> list:
    if any(v.rate is None for v in g.vertices.values()):
        return [graph_to_json(g)]
    builders = [lambda mode=mode: {"format": "singlip.decomposition/1",
                                   **build_decomposition(g, mode).to_json()}
                for mode in MODES]
    builders += [lambda: inner_signature(g).to_json(),
                 lambda: outer_signature(g).to_json()]
    docs = [graph_to_json(g)]
    for build in builders:
        try:
            docs.append(build())
        except DomainError:  # refused, e.g. no nodes for this mode
            pass
    return docs


def _curve_reports(curve) -> list:
    matrix = contact_matrix(curve)
    tree = build_carrousel_tree(matrix)
    deco = decorate(tree)
    events, tower = resolve_curve(curve)
    prepared = laufer_parity_prepare(tower)
    pieces = csquare_decomposition(tower)
    try:
        cover = [graph_to_json(laufer_double_cover(prepared))]
    except DomainError:  # a split cover
        cover = []
    return [curve_to_json(curve),
            {"format": "singlip.contacts/1", **matrix.to_json()},
            {"format": "singlip.carrousel/1", **deco.to_json()},
            reduce_to_eggers(deco).to_json(),
            leaf_contacts(tree).to_json(),
            tower_to_json(tower, events), tower_to_json(tower),
            tower_to_json(prepared), *cover,
            pieces.to_json(), amalgamate(pieces).to_json(),
            *_graph_reports(tower_to_graph(tower))]


def _fixture_reports() -> dict:
    return {name: (_curve_reports(obj) if fixtures.fixture_kind(name) == "curve"
                   else _graph_reports(obj))
            for name in fixtures.fixture_names()
            for obj in [fixtures.load_fixture(name)]}


def _benchmark_shaped_reports() -> list:
    """One report per drawn curve, in one document, as the benchmark writes
    it: the contact and round-trip matrices side by side at one depth (each
    shares one entry dict per distinct contact), the tower, the prepared
    tower, the carrousel decomposition and its amalgamation."""
    rng = random.Random(36)
    reports = []
    for i in range(50):
        curve = random_curve(rng, max_branches=3)
        matrix = contact_matrix(curve)
        events, tower = resolve_curve(curve)
        pieces = csquare_decomposition(tower)
        reports.append({"case": f"drawn/{i}", "stages": {
            "contacts": matrix.to_json(),
            "roundtrip": leaf_contacts(build_carrousel_tree(matrix)).to_json(),
            "tower": tower_to_json(tower, events),
            "prepared": tower_to_json(laufer_parity_prepare(tower)),
            "csquare": pieces.to_json(), "amalgamate": amalgamate(pieces).to_json()}})
    return reports


def test_fixture_documents():
    docs = [doc for reports in _fixture_reports().values() for doc in reports]
    for doc in docs:
        assert_fast(doc)
    assert len(docs) > 80


def test_whole_report_of_every_fixture():
    # nested documents, like the reports the benchmark writes: the emitter
    # writes flat dicts with one join, at many depths, and each other
    # container item by item in place
    assert_fast(_fixture_reports())
    assert_fast(_benchmark_shaped_reports())


def test_dumps_leaves_no_fixture_report_to_json():
    docs = [doc for reports in _fixture_reports().values() for doc in reports]
    with mock.patch.object(json, "dumps", wraps=json.dumps) as spy:
        for doc in docs:
            dumps(doc)
    assert spy.call_count == 0


_STRINGS = ["", "a", "num", "den", "inf", "é", "日本", " ", "\x00\x1f",
            "tab\there", 'quote"back\\slash', "\U0001f600", "\x7f", "/"]


def _scalar(rng: random.Random):
    return rng.choice([
        lambda: rng.randint(-3, 3),
        lambda: rng.choice([10**40, -10**40, 2**63, -2**63 - 1]),
        lambda: rng.choice([True, False, None]),
        lambda: rng.choice(_STRINGS),
        lambda: rng.choice([0.5, -0.0, 1.0, 1e300, float("inf"), float("nan")]),
        lambda: {"num": rng.randint(-2, 2), "den": rng.randint(1, 3)},
    ])()


def _random_doc(rng: random.Random, depth: int, int_keys: bool):
    if depth == 0 or rng.random() < 0.3:
        return _scalar(rng)
    size = rng.randint(0, 4)
    kind = rng.random()
    if kind < 0.4:
        return [_random_doc(rng, depth - 1, int_keys) for _ in range(size)]
    if kind < 0.5:
        return tuple(_random_doc(rng, depth - 1, int_keys) for _ in range(size))
    if kind < 0.6 and int_keys:
        return {rng.randint(-5, 5): _random_doc(rng, depth - 1, int_keys)
                for _ in range(size)}
    return {rng.choice(_STRINGS): _random_doc(rng, depth - 1, int_keys)
            for _ in range(size)}


def test_random_nested_documents():
    rng = random.Random(20201)
    for _ in range(500):
        assert_same(_random_doc(rng, rng.randint(1, 6), int_keys=True))
    for _ in range(500):
        assert_fast(_random_doc(rng, rng.randint(1, 6), int_keys=False))


def test_hand_cases():
    for doc in [
            {}, [], (), {"a": {}}, [[]], [{}], {"a": [], "b": {}, "c": ()},
            [[[]], [{}], {"x": [[]]}],
            (1, (2, 3), [4]), [(1, 2), [1, 2]],
            # equal under == but rendered differently
            [True, 1, 1.0, False, 0, 0.0, None],
            [[True], [1], [1.0], [False], [0]],
            {"a": [1, 2], "b": [True, 2], "c": [1.0, 2]},
            [{"v": 1}, {"v": True}, {"v": 1.0}],
            # one container at two depths
            [[1, 2], [[1, 2]], {"k": [1, 2]}],
            None, True, 0, -1, 10**100, -(10**100), "x", "éÿĀ",
            "\x00\x01\x08\x0c\x1f\"\\\n\r\t", "\ud800", "\U0010ffff",
            {"é": "日本", "\x00": "\n"}, {"b": 1, "a": 2, "B": 3, "": 4},
            [float("nan"), float("-inf"), 1e-7, 123456789.125],
    ]:
        assert_fast(doc)
    # non-str keys, equal under == but rendered differently; json writes them
    for doc in [[{1: "x"}, {True: "x"}, {1.0: "x"}, {"1": "x"}],
                [{None: 0}, {"null": 0}, {False: 0}, {0: 0}],
                {2: "b", 10: "a", -1: "c"}]:
        assert_same(doc)


def test_repeated_objects():
    # a repeated dict, list or tuple is written again at each place, at
    # that place's indentation
    d, l, t, one = {"den": 2, "num": 3}, [1, 2], [True], [1]
    nested = {"a": [d, l], "b": d}
    for doc in [
            # one dict and one list object repeated in a list
            [d, d, l, l, d, l],
            # the same object at two depths, and as a dict value
            [d, [d, [d, [l]]], {"k": d, "j": [l, d]}, l, [[l]]],
            {"x": d, "y": d, "z": {"w": d, "v": [d]}, "l": l, "m": [l]},
            [nested, nested, [nested], {"n": nested}],
            # shared objects among equal but distinct ones
            [d, {"den": 2, "num": 3}, d, [1, 2], l, (1, 2), l, tuple(l)],
            [t, one, t, [1.0], t, one, {"v": t}, {"v": [1]}, {"v": one}],
            [d, {"den": 2, "num": True}, {"den": 2.0, "num": 3}, d,
             {"den": True, "num": 3}, d],
    ]:
        assert_fast(doc)
    # and among dicts with non-str keys, which json writes
    for doc in [[d, {2: 3}, d, {True: 3}, l, {"k": {None: d}}, l],
                {"a": [d, {1.0: l}], "b": d}]:
        assert_same(doc)


def test_flat_dict_hand_cases():
    # the flat attempt stops at the first container in key order and writes
    # the scalars before it; a flat dict shared at two depths is written at
    # each; flat dicts of values equal under == are told apart
    f = {"k": 1, "s": "x"}
    esc = {"s": "\x00\"\\\n\u2028é\U0001f600", "t": True, "i": 1, "f": 1.0,
           "n": None}
    for doc in [
            {"a": 1, "b": [1, 2], "c": "x"}, {"a": 1, "b": 2, "c": {"d": 1}},
            {"a": None, "b": {"c": 1}, "d": [], "e": True},
            {"a": {"x": 1}, "b": 1}, [{"a": 1, "z": {}}, {"a": 1, "z": {"y": 2}}],
            [f, [f, {"x": f}], f, {"y": [f]}], {"a": f, "b": [[f]], "c": f},
            [esc, esc, {"e": esc}, [esc]],
            [{"v": True}, {"v": 1}, {"v": 1.0}, {"v": None}, {"v": "1"}],
            {"t": {"v": True}, "i": {"v": 1}, "f": {"v": 1.0}, "n": {"v": None}},
    ]:
        assert_fast(doc)


def _rank_rows(values: list, ranks: list) -> RankRows:
    """``ContactMatrix.rendered``'s rows of the ``values`` that ``ranks`` pick."""
    matrix = ContactMatrix._make((len(ranks), tuple(range(len(values))),
                                  tuple(map(tuple, ranks))))
    return matrix.rendered(values.__getitem__)


def test_rank_rows():
    # a RankRows holds, as tuples, the rows its ranks pick from its values,
    # and the emitter writes it from the values and ranks as json writes
    # those rows
    inf, half, three = "inf", {"num": 1, "den": 2}, {"den": 2, "num": 3}
    a = _rank_rows([half, three, inf], [(2, 0, 1), (0, 2, 1), (1, 1, 2)])
    b = _rank_rows([three, inf, half], [(1, 2), (2, 1)])
    assert a == ((inf, half, three), (half, inf, three), (three, three, inf))
    assert type(a) is RankRows and a.values == (half, three, inf)
    assert _rank_rows([inf], [(0,), ()]) == ((inf,), ())
    deep = {"v": [1, {"n": [1, 2]}], "w": None, "": ()}
    for doc in [
            _rank_rows([inf], [(0,)]), {"size": 1, "entries": _rank_rows([inf], [[0]])},
            _rank_rows([half, inf], [(1, 1, 1), (1, 0, 1)]),  # a row of only "inf"
            _rank_rows([], []), _rank_rows([], [()]), _rank_rows([inf], [(), (0,), ()]),
            # at the top, in a tuple, in a dict and three levels down
            a, (a,), {"entries": a, "size": 3}, [[{"k": a}]], ((1, [[a, 2]]),),
            # two sharing value objects, beside those objects
            [a, b, {"c": a, "r": b}, half, [three, inf]], {"a": [a], "b": [b]},
            # values that are not flat, and other scalars
            _rank_rows([deep, inf, [deep], 7, None, True, 0.5],
                       [(0, 1, 2), (2, 2, 1), (3, 4, 5, 6)]),
    ]:
        assert_fast(doc)
    # a built contacts document's entries refuse an edit, and a reassigned
    # or deleted values or ranks, and its pickle and copies are written as
    # it is
    doc = {"format": "singlip.contacts/1",
           **contact_matrix(fixtures.load_fixture("cusp-53")).to_json()}
    entries = doc["entries"]
    for edit, *args in ((operator.setitem, 0, ()), (operator.delitem, 0)):
        try:
            edit(entries, *args)
        except TypeError:
            continue
        raise AssertionError("an edited RankRows")
    for edit, *args in ((setattr, "ranks", entries.ranks[:1]), (delattr, "ranks"),
                        (setattr, "values", entries.values[::-1]), (delattr, "values")):
        try:
            edit(entries, *args)
        except AttributeError:
            continue
        raise AssertionError(f"{edit.__name__} on RankRows.{args[0]}")
    assert dumps(doc) == reference(doc) and len(entries.ranks) == len(entries) > 1
    twins = [pickle.loads(pickle.dumps(doc, protocol))
             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    twins += [{**doc, "entries": copy.copy(doc["entries"])}, copy.deepcopy(doc)]
    for twin in twins:
        assert type(twin["entries"]) is RankRows and twin["entries"] is not doc["entries"]
        assert _emit(twin) == dumps(twin) == dumps(doc) == reference(doc)


def test_tower_reader_compares_vertex_ids():
    # the check that no two ids differ only in type reads ids, never the
    # vertex records of the tower's list
    events, tower = resolve_curve(fixtures.load_fixture("cusp-53"))
    doc = tower_to_json(tower, events)
    seen = []
    with mock.patch.object(Vertex, "__repr__",
                           lambda v: seen.append(v.id) or object.__repr__(v)):
        assert dumps(tower_to_json(parse_tower(doc))) == dumps(tower_to_json(tower))
    assert seen == []


def _fresh_graph_json(g) -> dict:
    """``graph_to_json`` with a fresh object for every rational."""
    return {"format": "singlip.graph/1",
            "vertices": [{"id": vid, "self_intersection": v.self_intersection,
                          "genus": v.genus,
                          "rate": None if v.rate is None else rational_to_json(v.rate),
                          "multiplicities": dict(sorted(v.multiplicities.items())),
                          "flags": sorted(v.flags)}
                         for vid, v in g.vertices.items()],
            "edges": [[a, b] for a, b in g.edges],
            "arrows": [{"vertex": a.vertex, "name": a.name,
                        "multiplicity": a.multiplicity, "kind": a.kind}
                       for a in g.arrows]}


def _fresh_tower_json(tree, events=None) -> dict:
    """``tower_to_json`` with a fresh object for every rational."""
    out = {"format": "singlip.tower/1",
           "vertices": [{"id": v.id, "self_intersection": v.self_intersection,
                         "rate": rational_to_json(v.rate),
                         "rate_vector": list(v.rate_vector),
                         "multiplicities": dict(sorted(v.multiplicities.items()))}
                        for v in tree.vertices],
           "edges": sorted([list(e) for e in tree.edges]),
           "arrows": [{"vertex": a.vertex, "name": a.name,
                       "multiplicity": a.multiplicity, "kind": a.kind,
                       **({"branch": a.branch} if a.branch is not None else {})}
                      for a in tree.arrows]}
    if events is not None:
        out["events"] = [{"index": e.index, "center": [str(x) for x in e.center],
                          "branches": [list(b) for b in e.branches_through]}
                         for e in events]
    return out


def _fresh_decomposition_json(d) -> dict:
    """``Decomposition.to_json`` with a fresh object for every rational."""
    return {"mode": d.mode,
            "pieces": [{"id": p.pid, "kind": p.kind,
                        "rates": [rational_to_json(q) for q in p.rates],
                        "special": p.special, "support": sorted(map(str, p.support)),
                        "edge_support": sorted(map(str, p.edge_support))}
                       for p in (d.pieces[k] for k in sorted(d.pieces))],
            "adjacency": sorted(sorted(pair) for pair in d.adjacency)}


def _built_pairs(graphs, towers) -> list:
    """(document, its fresh-object twin) for each graph, its decompositions,
    and each tower with its events, its prepared tower, their graphs and
    decompositions, its carrousel decomposition and amalgamation and its
    double cover."""
    pairs = []
    for events, tower in towers:
        prepared = laufer_parity_prepare(tower)
        pieces = csquare_decomposition(tower)
        pairs += [(tower_to_json(tower, events), _fresh_tower_json(tower, events)),
                  (tower_to_json(prepared), _fresh_tower_json(prepared)),
                  *((d.to_json(), _fresh_decomposition_json(d))
                    for d in (pieces, amalgamate(pieces)))]
        graphs = [*graphs, tower_to_graph(tower), tower_to_graph(prepared)]
        try:
            graphs.append(laufer_double_cover(prepared))
        except DomainError:  # a split cover
            pass
    for g in graphs:
        pairs.append((graph_to_json(g), _fresh_graph_json(g)))
        for mode in MODES if all(v.rate is not None for v in g.vertices.values()) else ():
            try:
                d = build_decomposition(g, mode)
            except DomainError:  # no nodes for this mode
                continue
            pairs.append((d.to_json(), _fresh_decomposition_json(d)))
    return pairs


def _assert_built_documents(pairs):
    """Each document equals its fresh twin, and ``_emit`` writes it."""
    for doc, fresh in pairs:
        assert doc == fresh
        assert json.dumps(doc, sort_keys=True) == json.dumps(fresh, sort_keys=True)
        assert_fast(doc)
    assert any("pieces" in doc for doc, _ in pairs)


def test_built_documents_match_fresh_twins_in_fixtures():
    graphs, towers = [], []
    for name in fixtures.fixture_names():
        obj = fixtures.load_fixture(name)
        if fixtures.fixture_kind(name) == "curve":
            towers.append(resolve_curve(obj))
        else:
            graphs.append(obj)
    _assert_built_documents(_built_pairs(graphs, towers))


def test_built_documents_match_fresh_twins_in_drawn_curves():
    rng = random.Random(38)
    towers = [resolve_curve(random_curve(rng, max_branches=3)) for _ in range(50)]
    _assert_built_documents(_built_pairs([], towers))


_VALUES = (True, 1.5, None, "edited")


def _containers(doc, found: list) -> list:
    """Every list and dict in ``doc``, those in its tuples among them."""
    if isinstance(doc, dict):
        found.append(doc)
        for v in doc.values():
            _containers(v, found)
    elif isinstance(doc, (list, tuple)):
        if isinstance(doc, list):
            found.append(doc)
        for v in doc:
            _containers(v, found)
    return found


def _edit(c, rng: random.Random) -> None:
    """Replace, append or delete an item of the list ``c``, or delete a key
    of the dict ``c`` or set one to a scalar; a list item is replaced by a
    scalar or by an item of the same list, a whole row of a matrix's
    entries among them."""
    value = rng.choice(_VALUES)
    if isinstance(c, dict):
        if c and rng.random() < 0.5:
            del c[rng.choice(sorted(c))]
        else:
            c[rng.choice([*sorted(c), "edited"])] = value
        return
    edit = rng.choice(("replace", "append", "delete")) if c else "append"
    if edit == "delete":
        del c[rng.randrange(len(c))]
        return
    if c and rng.random() < 0.5:
        value = c[rng.randrange(len(c))]
    if edit == "append":
        c.append(value)
    else:
        c[rng.randrange(len(c))] = value


def _assert_edited(docs: list, rng: random.Random) -> int:
    """Replace each contact matrix's entries by a list of its rows edited
    once, edit three containers of each document drawn at random in place,
    then write it; the count of entries replaced."""
    matrices = 0
    for doc in docs:
        containers = _containers(doc, [])
        holders = [c for c in containers
                   if type(c) is dict and type(c.get("entries")) is RankRows]
        for c in holders:
            c["entries"] = rows = list(c["entries"])
            _edit(rows, rng)
        for c in [rng.choice(containers) for _ in range(3)]:
            _edit(c, rng)
        assert_fast(doc)
        matrices += len(holders)
    return matrices


def test_edited_documents_are_written_as_edited():
    # every document the builders return, edited after it is built, is
    # written as json writes it, by _emit itself
    rng = random.Random(43)
    docs = [doc for reports in _fixture_reports().values() for doc in reports]
    docs += [doc for _ in range(300)
             for doc in _curve_reports(random_curve(rng, max_branches=3))]
    assert _assert_edited(docs, rng) >= 2 * 300 and len(docs) > 3000
    # row 0 of cusp-53's contacts replaced: json's text on every interpreter
    matrix = contact_matrix(fixtures.load_fixture("cusp-53"))
    doc = {"format": "singlip.contacts/1", **matrix.to_json()}
    doc["entries"] = [doc["entries"][1], *doc["entries"][1:]]
    assert dumps(doc) == reference(doc) != dumps(
        {"format": "singlip.contacts/1", **matrix.to_json()})


class _Dict(dict):
    pass


class _List(list):
    pass


class _Str(str):
    pass


class _Float(float):
    pass


class _Pair(NamedTuple):
    num: int
    den: object


class _Kind(IntEnum):
    ONE = 1
    TWO = 2


def test_subclasses_render_as_their_json_type():
    # a scalar or container of a subclass type is written as json writes
    # its base type, and a NamedTuple as a list
    pair = _Pair(3, 2)
    nested = _Pair(1, pair)
    for doc in [
            OrderedDict([("b", 1), ("a", [2])]), {"o": OrderedDict(x=pair)},
            _Dict(b=1, a=_Dict(c=2)), [_Dict(), _Dict(k=None)],
            pair, [pair, pair, {"p": pair}], [nested, nested, [nested]],
            _List([1, 2, _List()]), {"l": _List(["x", True])},
            _Kind.TWO, [_Kind.ONE, 1, True], {_Kind.TWO: _Kind.ONE, 3: _Kind.TWO},
            {1: "a", _Kind.TWO: "b"},
            _Str("s"), [_Str("é"), "é"], {_Str("b"): _Str("v"), "a": 1},
            _Float(0.5), [_Float("nan"), _Float("-inf"), 2.5], {_Float(1.5): 0},
    ]:
        assert_same(doc)


def test_repeated_object_before_a_type_error():
    d, l = {"den": 2, "num": 3}, [1, 2]
    for doc in [[d, d, Fraction(1, 2)], {"a": l, "b": l, "c": {1}},
                [[d, l], [d, l, object()]], {"a": [d], "b": {"c": d, "d": b""}}]:
        message = _type_error(doc)
        try:
            reference(doc)
        except TypeError as exc:
            assert str(exc) == message
        else:
            raise AssertionError(f"json accepted {doc!r}")


def _type_error(doc) -> str:
    try:
        dumps(doc)
    except TypeError as exc:
        return str(exc)
    raise AssertionError(f"no TypeError for {doc!r}")


def test_unsupported_types_raise_type_error():
    for doc in [Fraction(1, 2), {"q": Fraction(1, 2)}, [Fraction(2)],
                [[2], [Fraction(2)]], {"a": 2, "b": [Fraction(2)]},
                {1, 2}, [frozenset()], {"s": {1}}, object(), b"bytes",
                {(1, 2): 0}, {Fraction(1, 2): 0}, [{1: 0, "a": 0}]]:
        message = _type_error(doc)
        try:
            reference(doc)
        except TypeError as exc:
            assert str(exc) == message
        else:
            raise AssertionError(f"json accepted {doc!r}")


def _raised(encode, doc) -> tuple:
    try:
        encode(doc)
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)
    raise AssertionError(f"{encode.__name__} accepted {doc!r}")


def test_a_document_that_contains_itself_raises_json_value_error():
    l, d = [1], {"a": 1}
    l.append(l)
    d["b"] = [2, d]
    shared = [1]
    for doc in [l, d, {"x": [shared, shared, [l]]}]:
        assert _raised(dumps, doc) == _raised(reference, doc) == (
            ValueError, "Circular reference detected")


def _text_or_error(encode, doc):
    try:
        return encode(doc)
    except RecursionError:
        return RecursionError


def test_a_deep_document_gives_json_text_or_error():
    # json's pure-Python encoder (below 3.13) runs out of stack on it, and
    # its C encoder for indented output (3.13 on) writes it
    deep = []
    for _ in range(5000):
        deep = [deep]
    expected = _text_or_error(reference, deep)
    assert _text_or_error(dumps, deep) == expected
    assert (expected is RecursionError) == (sys.version_info < (3, 13))


if __name__ == "__main__":
    tests = [f for name, f in list(globals().items()) if name.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except Exception:
            failed += 1
            traceback.print_exc()
    print(f"{len(tests) - failed} of {len(tests)} passed on Python "
          f"{sys.version.split()[0]}")
    sys.exit(1 if failed else 0)
