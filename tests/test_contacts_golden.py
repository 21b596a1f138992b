"""Strand-layer command output pinned byte for byte.

The golden file holds the text and json output of ``curve contacts``,
``curve carrousel`` (with and without ``--reduce``), ``curve horns`` (on
the first and the last strand) and ``curve equiv`` (against the next
curve, and against itself) on every curve fixture, run in-process; plus
one sha256 over the exit codes and outputs of the same commands on 20
seeded random curves.

``python tests/test_contacts_golden.py`` rewrites the golden file from the
code on the path; run it only for an intended output change."""

import hashlib
import json
import random
from pathlib import Path

from helpers import random_curve, run_cli
from singlip import jsonio
from singlip.fixtures import fixture_kind, fixture_names, load_fixture

GOLDEN = Path(__file__).resolve().parent / "data" / "contacts.json"
FORMATS = ("text", "json")


def commands(paths: list, sizes: list):
    """(label, argv) of each command on each curve, ``paths[i]`` holding a
    curve of ``sizes[i]`` strands."""
    for i, (path, size) in enumerate(zip(paths, sizes)):
        other = paths[(i + 1) % len(paths)]
        for label, argv in (
                ("contacts", ["curve", "contacts", path]),
                ("carrousel", ["curve", "carrousel", path]),
                ("carrousel --reduce", ["curve", "carrousel", "--reduce", path]),
                ("horns first", ["curve", "horns", "--base", "0", path]),
                ("horns last", ["curve", "horns", "--base", str(size - 1), path]),
                ("equiv next", ["curve", "equiv", path, other]),
                ("equiv self", ["curve", "equiv", path, path])):
            yield i, label, argv


def outputs(tmp: Path, curves):
    """(label, exit code, stdout or else stderr) of every command in every
    format on each (name, curve)."""
    paths, sizes = [], []
    for i, (_, curve) in enumerate(curves):
        path = tmp / f"curve-{i}.json"
        path.write_text(jsonio.dumps(jsonio.curve_to_json(curve)))
        paths.append(str(path))
        sizes.append(sum(b.denominator for b in curve))
    for i, label, argv in commands(paths, sizes):
        for fmt in FORMATS:
            code, out, err = run_cli("--format", fmt, *argv)
            yield f"{curves[i][0]} {label} {fmt}", code, out or err


def fixture_curves():
    return [(name, load_fixture(name)) for name in fixture_names()
            if fixture_kind(name) == "curve"]


def random_curves():
    rng = random.Random(22)
    return [(f"random-{i}", random_curve(rng, 3, 6)) for i in range(20)]


def random_digest(tmp: Path) -> str:
    h = hashlib.sha256()
    for label, code, text in outputs(tmp, random_curves()):
        h.update(f"{label}\0{code}\0{text}\0".encode())
    return h.hexdigest()


def record(tmp: Path) -> dict:
    return {"curves": [{"command": label, "exit": code, "output": text}
                       for label, code, text in outputs(tmp, fixture_curves())],
            "random_sha256": random_digest(tmp)}


def test_fixture_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    for got, want in zip(outputs(tmp_path, fixture_curves()), golden["curves"],
                         strict=True):
        assert got == (want["command"], want["exit"], want["output"])


def test_random_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert random_digest(tmp_path) == golden["random_sha256"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(jsonio.dumps(record(Path(tmp))))
