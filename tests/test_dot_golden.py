"""DOT output pinned byte for byte.

The golden file holds ``graph_to_dot`` of every graph fixture,
``decomposition_to_dot`` in each mode the fixture accepts and, on the
tower of each curve fixture, of its per-vertex decomposition before and
after amalgamation (the only drawings with D-pieces); and the
``--format dot`` output of ``curve resolve``, ``curve carrousel --reduce``
and ``graph laufer`` on every curve fixture, run in-process; plus one
sha256 over the exit codes and outputs of the same three commands on 20
seeded random curves.

``python tests/test_dot_golden.py`` rewrites the golden file from the
code on the path; run it only for an intended output change."""

import hashlib
import json
import random
from pathlib import Path

from helpers import random_curve, run_cli
from singlip import (amalgamate, build_decomposition, csquare_decomposition,
                     dot, jsonio, resolve_curve)
from singlip.decomp import MODES
from singlip.errors import InputError
from singlip.fixtures import fixture_kind, fixture_names, load_fixture
from singlip.surfgraph import tower_to_graph

GOLDEN = Path(__file__).resolve().parent / "data" / "dot.json"
CURVE_COMMANDS = (["curve", "resolve"], ["curve", "carrousel", "--reduce"],
                  ["graph", "laufer"])


def graph_drawings():
    """(label, DOT text) of every graph fixture and of its decomposition
    in each mode it accepts, and of the per-vertex decompositions of the
    curve fixtures' towers."""
    for name in fixture_names():
        if fixture_kind(name) != "graph":
            continue
        graph = load_fixture(name)
        yield name, dot.graph_to_dot(graph)
        for mode in MODES:
            try:
                d = build_decomposition(graph, mode)
            except InputError:
                continue
            yield f"{name} {mode}", dot.decomposition_to_dot(graph, d)
    for name, curve in fixture_curves():
        tree = resolve_curve(curve)[1]
        graph, d = tower_to_graph(tree), csquare_decomposition(tree)
        yield f"{name} csquare", dot.decomposition_to_dot(graph, d)
        yield f"{name} amalgamated", dot.decomposition_to_dot(graph, amalgamate(d))


def curve_drawings(tmp: Path, curves):
    """(label, exit code, stdout or else stderr) of each curve command on
    each (name, curve)."""
    for name, curve in curves:
        path = tmp / "curve.json"
        path.write_text(jsonio.dumps(jsonio.curve_to_json(curve)))
        for command in CURVE_COMMANDS:
            code, out, err = run_cli("--format", "dot", *command, str(path))
            yield " ".join([name, *command]), code, out or err


def fixture_curves():
    return [(name, load_fixture(name)) for name in fixture_names()
            if fixture_kind(name) == "curve"]


def random_curves():
    rng = random.Random(20)
    return [(f"random-{i}", random_curve(rng, 3, 6)) for i in range(20)]


def random_digest(tmp: Path) -> str:
    h = hashlib.sha256()
    for label, code, text in curve_drawings(tmp, random_curves()):
        h.update(f"{label}\0{code}\0{text}\0".encode())
    return h.hexdigest()


def record(tmp: Path) -> dict:
    return {"graphs": [{"drawing": label, "dot": text}
                       for label, text in graph_drawings()],
            "curves": [{"command": label, "exit": code, "dot": text}
                       for label, code, text in curve_drawings(tmp, fixture_curves())],
            "random_sha256": random_digest(tmp)}


def test_graph_drawings_match_golden():
    golden = json.loads(GOLDEN.read_text())
    for (label, text), want in zip(graph_drawings(), golden["graphs"], strict=True):
        assert (label, text) == (want["drawing"], want["dot"])


def test_curve_drawings_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    for got, want in zip(curve_drawings(tmp_path, fixture_curves()),
                         golden["curves"], strict=True):
        assert got == (want["command"], want["exit"], want["dot"])
    assert random_digest(tmp_path) == golden["random_sha256"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(jsonio.dumps(record(Path(tmp))))
