"""Every output of the CLI, and the library outputs that no command prints,
pinned byte for byte.

``tests/data/golden.json`` holds one entry per call of ``entries``, in
order: the call, its exit code and the sha256 of its stdout and stderr,
and for the fixture entries the full text too, so that a failure reads as
a diff.  Each entry belongs to one part, and one test checks each part:
the fixtures' outputs, their decompositions, their curve drawings, their
graph drawings, and the random inputs.  The calls run in-process through
``cli.main``:
- every fixture under every command that takes it, in each format:
  ``--reduce``, the first and the last ``--base``, each arrow name, a
  pencil with and without ``--resolve``, every mode and metric, a
  signature against the next graph fixture and against itself, ``verify``
  on each fixture and on each curve fixture's tower, and ``fixtures``;
- argparse's usage errors, by exit code and stdout only, since their
  stderr is argparse's text (``--help`` is left out for the same reason);
- ``graph_to_dot`` of each graph fixture, and the per-vertex decomposition
  of each curve fixture's tower, in JSON and, before and after
  amalgamation, in DOT;
- by digest only, seeded random inputs: the strand commands on 20 curves
  (seed 22), the DOT commands on 20 curves (seed 20), the per-vertex
  decomposition of 20 towers (seed 15), and the decomposition commands on
  42 graphs (seeds 29 and 30).

``PYTHONPATH=src python tests/test_golden.py`` re-records the file from the
code on the path.  Run it only for an intended output change, and name
each entry it moves, and why, in CHANGES.md."""

import hashlib
import json
import os
import random
from functools import cache
from pathlib import Path

from helpers import cli_commands, random_curve, run_cli
from singlip import (amalgamate, csquare_decomposition, dot, jsonio, resolve_curve,
                     tower_to_graph)
from singlip.decomp import MODES
from singlip.fixtures import fixture_kind, fixture_names, load_fixture

GOLDEN = Path(__file__).resolve().parent / "data" / "golden.json"
FORMATS = ("text", "json", "dot")
DECOMPOSE = (["graph", "thickthin"],
             *(["graph", "decompose", "--mode", mode] for mode in MODES),
             *(["graph", "signature", "--metric", m] for m in ("inner", "outer")))
FIXTURES, DECOMPOSITIONS, CURVE_DRAWINGS, GRAPH_DRAWINGS, RANDOM = (
    "fixtures", "decompositions", "curve drawings", "graph drawings", "random")
USAGE_ERRORS = ([], ["bogus"], ["curve"], ["--format", "xml", "fixtures", "list"],
                ["fixtures", "dump"], ["curve", "horns", "c.json"],
                ["curve", "horns", "--base", "x", "c.json"],
                ["curve", "equiv", "c.json"], ["verify", "c.json", "c.json"],
                ["graph", "mult", "g.json"], ["graph", "signature", "g.json"],
                ["graph", "decompose", "--mode", "bad", "g.json"],
                ["graph", "signature", "--metric", "inner", "g.json", "g.json", "g.json"])


def _text(render, *args):
    return 0, render(*args), ""


def _csquare_json(tree) -> str:
    return jsonio.dumps(csquare_decomposition(tree).to_json())


def _csquare_dot(tree, amalgamated: bool) -> str:
    d = csquare_decomposition(tree)
    return dot.decomposition_to_dot(tower_to_graph(tree), amalgamate(d) if amalgamated else d)


def _strand_calls(path, curve: list, other) -> list:
    last = str(sum(b.denominator for b in curve) - 1)
    return [["curve", "contacts", path], ["curve", "carrousel", path],
            ["curve", "carrousel", "--reduce", path],
            ["curve", "horns", "--base", "0", path],
            ["curve", "horns", "--base", last, path],
            ["curve", "equiv", path, other], ["curve", "equiv", path, path]]


def _graph_calls(path, arrows, other) -> list:
    pencil = ["graph", "pencil", "--gen", "x", "--gen", "y:2"]
    return [*(["graph", "mult", "--arrow", a, path] for a in arrows),
            ["graph", "mult", "--allow-fractional", "--arrow", "h", path],
            [*pencil, path], [*pencil, "--resolve", path],
            *([*command, path] for command in DECOMPOSE),
            *(["graph", "signature", "--metric", m, path, second]
              for m in ("inner", "outer") for second in (other, path)),
            ["verify", path]]


def _vertex(vid, rate, flags=(), genus=0) -> dict:
    return {"id": vid, "self_intersection": -3, "genus": genus, "rate": rate,
            "multiplicities": {"h": 1}, "flags": list(flags)}


def _graph(vertices: list, edges: list) -> dict:
    return {"format": jsonio.GRAPH_FORMAT, "vertices": vertices,
            "edges": edges, "arrows": []}


def _string_ids(doc: dict, rng: random.Random) -> dict:
    """The same graph, in the same vertex order, with its ids renamed to
    strings in shuffled order: set order then follows the hash seed, and
    sorted ids no longer follow vertex order."""
    names = [f"v{i}" for i in range(len(doc["vertices"]))]
    rng.shuffle(names)
    name = {v["id"]: names[i] for i, v in enumerate(doc["vertices"])}
    return {**doc, "vertices": [dict(v, id=name[v["id"]]) for v in doc["vertices"]],
            "edges": [[name[a], name[b]] for a, b in doc["edges"]],
            "arrows": [dict(a, vertex=name[a["vertex"]]) for a in doc["arrows"]]}


def extra_graphs():
    """(name, graph document) beyond the fixtures: 20 seeded tower graphs
    of 10 to 65 vertices with L-nodes at the generic-linear arrows, each
    followed by its string-id relabelling; a loop through an L-node; and
    two nodes joined by a double edge."""
    rng, names = random.Random(29), random.Random(30)
    for i in range(20):
        _, tree = resolve_curve(random_curve(rng, max_branches=20, max_den=12))
        flags = {a.vertex: ("L",) for a in tree.arrows if a.kind == "generic-linear"}
        doc = jsonio.graph_to_json(tower_to_graph(tree, flags))
        yield f"tower-{i}", doc
        yield f"tower-{i}-str", _string_ids(doc, names)
    yield "loop-through-l-node", _graph(
        [_vertex("a", 1, "L"), _vertex("b", 2), _vertex("c", 2)],
        [["a", "b"], ["b", "c"], ["c", "a"]])
    yield "double-edge", _graph(
        [_vertex("n1", 1, "L"), _vertex("n2", 2, genus=1), _vertex("b", 3)],
        [["n1", "n2"], ["n2", "n1"], ["n2", "b"]])


def entries(tmp: Path):
    """(call, part, function, arguments) of every entry in file order; the
    function of the arguments gives the exit code, stdout and stderr.  Only
    the ``RANDOM`` part is kept as digests.  Input files are written to
    ``tmp`` as the table reaches them."""
    def write(name: str, text: str) -> str:
        (tmp / name).write_text(text)
        return str(tmp / name)

    def cli(argv, part, drawings=None, formats=FORMATS):
        """``argv`` in each of ``formats``, its DOT call in ``drawings``
        where that is given."""
        for fmt in formats:
            args = ("--format", fmt, *argv)
            yield (" ".join(args).replace(f"{tmp}{os.sep}", ""),
                   drawings if fmt == "dot" and drawings else part, run_cli, args)

    def curve_files(prefix: str, curves: list) -> list:
        return [write(f"{prefix}{i}.json", jsonio.dumps(jsonio.curve_to_json(c)))
                for i, c in enumerate(curves)]

    names = fixture_names()
    path = {n: write(f"{n}.json", run_cli("fixtures", "dump", n)[1]) for n in names}
    curves = [n for n in names if fixture_kind(n) == "curve"]
    graphs = [n for n in names if fixture_kind(n) == "graph"]
    yield from cli(["fixtures", "list"], FIXTURES)
    for n in names:
        yield from cli(["fixtures", "dump", n], FIXTURES)
    for i, n in enumerate(curves):
        tower = write(f"{n}-tower.json",
                      run_cli("--format", "json", "curve", "resolve", path[n])[1])
        next_curve = path[curves[(i + 1) % len(curves)]]
        for argv in [*_strand_calls(path[n], load_fixture(n), next_curve),
                     ["curve", "resolve", path[n]], ["graph", "laufer", path[n]],
                     ["verify", path[n]], ["verify", tower]]:
            yield from cli(argv, FIXTURES, CURVE_DRAWINGS)
    for i, n in enumerate(graphs):
        graph = load_fixture(n)
        arrows = sorted({a.name for a in graph.arrows})
        for argv in _graph_calls(path[n], arrows, path[graphs[(i + 1) % len(graphs)]]):
            decomposing = argv[1] in ("thickthin", "decompose", "signature")
            yield from cli(argv, DECOMPOSITIONS if decomposing else FIXTURES, GRAPH_DRAWINGS)
        yield f"graph_to_dot {n}", GRAPH_DRAWINGS, _text, (dot.graph_to_dot, graph)
    for argv in USAGE_ERRORS:
        yield " ".join(argv), FIXTURES, run_cli, argv
    for n in curves:
        tree = resolve_curve(load_fixture(n))[1]
        yield f"csquare_decomposition {n}", DECOMPOSITIONS, _text, (_csquare_json, tree)
        for how in ("csquare", "amalgamated"):
            yield f"decomposition_to_dot {how} {n}", GRAPH_DRAWINGS, _text, (
                _csquare_dot, tree, how == "amalgamated")
    rng = random.Random(22)
    drawn = [random_curve(rng, 3, 6) for _ in range(20)]
    files = curve_files("seed22-", drawn)
    for i, (p, curve) in enumerate(zip(files, drawn)):
        for argv in _strand_calls(p, curve, files[(i + 1) % len(files)]):
            yield from cli(argv, RANDOM, formats=("text", "json"))
    rng = random.Random(20)
    for p in curve_files("seed20-", [random_curve(rng, 3, 6) for _ in range(20)]):
        for argv in (["curve", "resolve", p], ["curve", "carrousel", "--reduce", p],
                     ["graph", "laufer", p]):
            yield from cli(argv, RANDOM, formats=("dot",))
    rng = random.Random(15)
    for i in range(20):
        tree = resolve_curve(random_curve(rng, 3, 6))[1]
        yield f"csquare_decomposition seed15-{i}", RANDOM, _text, (_csquare_json, tree)
    for name, doc in extra_graphs():
        p = write(f"{name}.json", jsonio.dumps(doc))
        for command in DECOMPOSE:
            yield from cli([*command, p], RANDOM, formats=("json",))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(call: str, part: str, run, args) -> dict:
    """The golden record of one entry of ``entries``."""
    code, out, err = run(*args)
    full = part != RANDOM
    entry = {"call": call, "exit": code, "stdout_sha256": _sha(out)}
    if err is not None:
        entry["stderr_sha256"] = _sha(err)
    if full:
        entry["stdout"] = out
        if err is not None:
            entry["stderr"] = err
    return entry


@cache
def golden() -> list:
    return json.loads(GOLDEN.read_text())["entries"]


def _matches(tmp: Path, part: str) -> None:
    """Every call of the table is the golden file's, and each entry of
    ``part`` records as its golden entry."""
    checked = 0
    for entry, expected in zip(entries(tmp), golden(), strict=True):
        assert entry[0] == expected["call"]
        if entry[1] == part:
            assert record(*entry) == expected
            checked += 1
    assert checked


def test_fixture_outputs_match_golden(tmp_path):
    _matches(tmp_path, FIXTURES)


def test_decomposition_outputs_match_golden(tmp_path):
    _matches(tmp_path, DECOMPOSITIONS)


def test_curve_drawings_match_golden(tmp_path):
    _matches(tmp_path, CURVE_DRAWINGS)


def test_graph_drawings_match_golden(tmp_path):
    _matches(tmp_path, GRAPH_DRAWINGS)


def test_random_outputs_match_golden(tmp_path):
    _matches(tmp_path, RANDOM)


def test_table_runs_every_command_in_every_format():
    calls = [e["call"] + " " for e in golden()]
    for words, _ in cli_commands():
        for fmt in FORMATS:
            prefix = " ".join(["--format", fmt, *words, ""])
            assert any(c.startswith(prefix) for c in calls), prefix


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(jsonio.dumps({"entries": [record(*e) for e in entries(Path(tmp))]}))
