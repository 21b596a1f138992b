"""Fuzzing the CLI with mutated documents.

Each example takes a curve, graph or tower document of the fixtures,
applies a few mutations (a field dropped, retyped or duplicated, a junk
rational, a reference to a vertex that does not exist, one junk value in
one field of every vertex) and runs one subcommand on it through
``cli.main`` in-process: with no option, with ``--strict``, or with a
``--format`` that ``cli.main`` does not refuse for the subcommand before
it reads the document.  Whatever the document says, the call must end
with exit code 0, 1 or 2 and at most one error line, never with an
exception."""

import json

import pytest

from helpers import parsed, run_cli
from singlip import jsonio, resolve_curve
from singlip.cli import _NO_FORM
from singlip.fixtures import fixture_names, load_fixture

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

JUNK = (None, True, False, 0, -1, 2, 10 ** 30, 1.5, -0.0, float("nan"), "",
        "x", "E1", "1/0", "3/0", "1/2/3", "-0/5", " 2/3", "2/-3", "1e400",
        {"num": 1, "den": 0}, {"num": "a", "den": 2}, {"num": 1},
        {"num": True, "den": 1}, {"num": 2, "den": 3, "extra": 1}, [],
        {}, [1, "x"], [[]], {"id": "E1"})
GHOSTS = ("ghost", 999, -1, "0")
MUTATIONS = ("drop", "retype", "duplicate", "dangling", "uniform")
D = "{doc}"  # the mutated document's path
CURVE_COMMANDS = (["curve", "contacts", D], ["curve", "carrousel", D, "--reduce"],
                  ["curve", "horns", D, "--base", "0"], ["curve", "resolve", D],
                  ["curve", "equiv", D, D], ["graph", "laufer", D], ["verify", D])
GRAPH_COMMANDS = (["graph", "mult", D, "--arrow", "h"],
                  ["graph", "pencil", D, "--gen", "h", "--gen", "x", "--resolve"],
                  ["graph", "thickthin", D], ["graph", "decompose", D, "--mode", "outer"],
                  ["graph", "signature", D, D, "--metric", "inner"], ["verify", D])
COMMANDS = {"curve": CURVE_COMMANDS, "graph": GRAPH_COMMANDS,
            "tower": (["verify", D],)}


def _documents() -> list:
    """(kind, document) for every fixture and the resolved fixture curves."""
    out = []
    for name in fixture_names():
        value = load_fixture(name)
        if isinstance(value, list):
            out.append(("curve", jsonio.curve_to_json(value)))
            events, tree = resolve_curve(value)
            out.append(("tower", jsonio.tower_to_json(tree, events)))
        else:
            out.append(("graph", jsonio.graph_to_json(value)))
    return out


DOCUMENTS = _documents()


def _paths(doc, prefix=()):
    """Every place in a JSON document, as a path of keys and indices."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutate(doc: dict, kind: str, place: int, pick: int) -> dict:
    """One mutation of a copy of ``doc`` at its ``place``-th path; ``pick``
    chooses the junk value, the ghost id or the duplicated key's name."""
    doc = json.loads(json.dumps(doc))
    if kind == "uniform":
        return _uniform(doc, place, JUNK[pick % len(JUNK)])
    paths = list(_paths(doc))[1:]
    if not paths:
        return doc
    path = paths[place % len(paths)]
    parent, key = _at(doc, path[:-1]), path[-1]
    if kind == "drop":
        del parent[key]
    elif kind == "retype":
        parent[key] = JUNK[pick % len(JUNK)]
    elif kind == "duplicate":
        if isinstance(parent, list):
            parent.insert(key, json.loads(json.dumps(parent[key])))
        else:
            parent[f"{key}{pick}"] = parent[key]
    else:  # the ghost id at the place, and an edge and an arrow to it
        ghost = GHOSTS[pick % len(GHOSTS)]
        vertices = doc.get("vertices")
        first = (vertices[0].get("id", ghost) if isinstance(vertices, list)
                 and vertices and isinstance(vertices[0], dict) else ghost)
        parent[key] = ghost
        for name, entry in (("edges", [first, ghost]),
                            ("arrows", {"vertex": ghost, "name": "h",
                                        "multiplicity": 1, "kind": "function"})):
            if isinstance(doc.get(name), list):
                doc[name].append(entry)
    return doc


def _fields(vertex: dict) -> list:
    """The fields of a vertex, each multiplicity counting as one."""
    mults = vertex.get("multiplicities")
    return [(k,) for k in vertex if k != "multiplicities"] + [
        ("multiplicities", k) for k in (mults if isinstance(mults, dict) else ())]


def _uniform(doc: dict, place: int, value) -> dict:
    """``value`` at one field of every vertex of ``doc``: the ``place``-th
    of the ``_fields`` of the first vertex."""
    vertices = doc.get("vertices")
    vertices = [v for v in vertices if isinstance(v, dict)] if isinstance(
        vertices, list) else []
    if not vertices:
        return doc
    fields = _fields(vertices[0])
    *inner, key = fields[place % len(fields)]
    for v in vertices:
        for k in inner:
            v = v.get(k) if isinstance(v, dict) else None
        if isinstance(v, dict):
            v[key] = json.loads(json.dumps(value))
    return doc


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@st.composite
def cases(draw):
    """(document kind, document, mutations, command, options), each
    mutation the arguments of ``mutate`` after the document."""
    doc_kind, doc = draw(st.sampled_from(DOCUMENTS))
    mutations = [(draw(st.sampled_from(MUTATIONS)), draw(st.integers(0, 10 ** 6)),
                  draw(st.integers(0, 10 ** 6)))
                 for _ in range(draw(st.integers(1, 3)))]
    command = draw(st.sampled_from(COMMANDS[doc_kind]))
    options = draw(st.sampled_from(_options(command)))
    return doc_kind, doc, mutations, command, options


def _options(command: list) -> list:
    """[], --strict and each --format that ``cli.main`` does not refuse for
    ``command`` before its document is read."""
    func = parsed(command)["func"]
    return [[], ["--strict"]] + [["--format", form] for form in ("json", "dot")
                                 if func not in _NO_FORM[form]]


# The generic-linear multiplicity 0 at every vertex of a rated graph, which
# the random draws almost never combine: the inner signature's gcd is 0.
E8 = jsonio.graph_to_json(load_fixture("e8"))
H_ZERO = ("uniform", _fields(E8["vertices"][0]).index(("multiplicities", "h")),
          next(i for i, v in enumerate(JUNK) if type(v) is int and v == 0))


@hypothesis.settings(max_examples=500, deadline=None, derandomize=True,
                     database=None,
                     suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(cases())
@hypothesis.example(("graph", E8, [H_ZERO],
                     ["graph", "signature", D, D, "--metric", "inner"], []))
@hypothesis.example(("graph", E8, [H_ZERO],
                     ["graph", "signature", D, D, "--metric", "outer"], []))
def test_mutated_documents_never_escape(doc_path, case):
    doc_kind, doc, mutations, command, options = case
    for kind, place, pick in mutations:
        doc = mutate(doc, kind, place, pick)
    doc_path.write_text(json.dumps(doc))
    argv = options + [str(doc_path) if a == D else a for a in command]
    code, _, err = run_cli(*argv)
    assert code in (0, 1, 2), (argv, code)
    errors = [line for line in err.splitlines()
              if line.startswith(("input error:", "error:"))]
    assert len(errors) <= 1, errors
