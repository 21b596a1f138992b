"""Decomposition output pinned byte for byte.

The golden file holds, for every graph fixture, the exit code and JSON
document (or the exit code and stderr line of a refusal) of
``graph thickthin``, ``graph decompose`` in each mode and ``graph
signature`` for both metrics, run in-process with ``--format json``; and
the per-vertex decomposition of the towers of the curve fixtures and of
20 seeded random curves.  A document is compared by re-emitting the
stored one, so equal text means equal bytes.

``python tests/test_decomposition_golden.py`` rewrites the golden file
from the code on the path; run it only for an intended output change."""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from helpers import random_curve
from singlip import csquare_decomposition, jsonio, resolve_curve
from singlip.cli import main
from singlip.decomp import MODES
from singlip.fixtures import fixture_kind, fixture_names, load_fixture

GOLDEN = Path(__file__).resolve().parent / "data" / "decompositions.json"
COMMANDS = (["graph", "thickthin"],
            *(["graph", "decompose", "--mode", mode] for mode in MODES),
            *(["graph", "signature", "--metric", m] for m in ("inner", "outer")))


def cli_runs(tmp: Path):
    """(fixture, command, exit code, stdout, stderr) of every command on
    every graph fixture."""
    for name in fixture_names():
        if fixture_kind(name) != "graph":
            continue
        path = tmp / f"{name}.json"
        path.write_text(jsonio.dumps(jsonio.graph_to_json(load_fixture(name))))
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
