"""Decomposition output pinned byte for byte.

The golden file holds, for every graph fixture and every graph of
``extra_graphs``, the exit code and JSON document (or the exit code and
stderr line of a refusal) of ``graph thickthin``, ``graph decompose`` in
each mode and ``graph signature`` for both metrics, run in-process with
``--format json``; and the per-vertex decomposition of the towers of the
curve fixtures and of 20 seeded random curves.  A document is compared by
re-emitting the stored one, so equal text means equal bytes.

``python tests/test_decomposition_golden.py`` rewrites the golden file
from the code on the path; run it only for an intended output change."""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from helpers import random_curve
from singlip import csquare_decomposition, jsonio, resolve_curve, tower_to_graph
from singlip.cli import main
from singlip.decomp import MODES
from singlip.fixtures import fixture_kind, fixture_names, load_fixture

GOLDEN = Path(__file__).resolve().parent / "data" / "decompositions.json"
COMMANDS = (["graph", "thickthin"],
            *(["graph", "decompose", "--mode", mode] for mode in MODES),
            *(["graph", "signature", "--metric", m] for m in ("inner", "outer")))


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
    """(label, graph document) beyond the fixtures: 20 seeded tower graphs
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


def graphs():
    """(label, graph document) of every graph fixture, then ``extra_graphs``."""
    for name in fixture_names():
        if fixture_kind(name) == "graph":
            yield name, jsonio.graph_to_json(load_fixture(name))
    yield from extra_graphs()


def cli_runs(tmp: Path):
    """(graph label, command, exit code, stdout, stderr) of every command
    on every graph of ``graphs``."""
    for name, doc in graphs():
        path = tmp / f"{name}.json"
        path.write_text(jsonio.dumps(doc))
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["--format", "json", *command, str(path)])
            yield name, command, code, out.getvalue(), err.getvalue()


def towers():
    """(label, tower) of the curve fixtures and of 20 seeded random curves."""
    for name in fixture_names():
        if fixture_kind(name) == "curve":
            yield name, resolve_curve(load_fixture(name))[1]
    rng = random.Random(15)
    for i in range(20):
        yield f"random-{i}", resolve_curve(random_curve(rng, 3, 6))[1]


def record(tmp: Path) -> dict:
    cli = []
    for name, command, code, out, err in cli_runs(tmp):
        entry = {"fixture": name, "command": command, "exit": code}
        if code == 0:
            entry["document"] = json.loads(out)
        else:
            entry["stderr"] = err
        cli.append(entry)
    return {"cli": cli,
            "csquare": [{"tower": label,
                         "decomposition": csquare_decomposition(tree).to_json()}
                        for label, tree in towers()]}


def test_decomposition_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    for (name, command, code, out, err), want in zip(cli_runs(tmp_path),
                                                     golden["cli"], strict=True):
        assert [name, command] == [want["fixture"], want["command"]]
        assert code == want["exit"], (name, command)
        if code == 0:
            assert (out, err) == (jsonio.dumps(want["document"]), ""), (name, command)
        else:
            assert (out, err) == ("", want["stderr"]), (name, command)
    for (label, tree), want in zip(towers(), golden["csquare"], strict=True):
        assert label == want["tower"]
        assert (jsonio.dumps(csquare_decomposition(tree).to_json())
                == jsonio.dumps(want["decomposition"])), label


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(jsonio.dumps(record(Path(tmp))))
