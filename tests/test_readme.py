"""README's examples run as written: its library example in this
interpreter, and each line of its command-line block in a shell."""

import shlex
import subprocess
import sys
from pathlib import Path

from helpers import checkout_env, run_cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, fence: str) -> str:
    """The text of the first ```<fence> block under the ## heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{fence}\n", 1)[1].split("```", 1)[0]


def test_library_example_runs():
    exec(compile(_block("Library example", "python"), "README.md", "exec"), {})


def test_each_command_line_exits_0(tmp_path):
    # in one directory, in order, so that later lines read the e8.json an
    # earlier one writes; a.json and b.json are two curves for curve equiv
    for name, fixture in ("a", "cusp-53"), ("b", "carrousel-example"):
        code, dump, _ = run_cli("fixtures", "dump", fixture)
        assert code == 0
        (tmp_path / f"{name}.json").write_text(dump)
    bind = f'singlip() {{ {shlex.quote(sys.executable)} -m singlip.cli "$@"; }}\n'
    lines = _block("Command line", "").splitlines()
    assert lines and all(line.startswith("singlip ") for line in lines)
    for line in lines:
        done = subprocess.run(["bash", "-o", "pipefail", "-c", bind + line],
                              cwd=tmp_path, env=checkout_env(), capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, (line, done.stderr)
