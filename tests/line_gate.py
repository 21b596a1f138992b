"""Executed-line gate: run the tier-1 suite and fail on any executable line of
``src/singlip`` that no test runs, unless ``ALLOWED`` lists it.

A ``sys.monitoring`` LINE callback (PEP 669, Python 3.12 and later) records
each line of the package the first time it runs and returns ``DISABLE``, so
that line costs nothing afterwards.  The executable lines are those that the
compiled code objects of each module report through ``co_lines``, less the
line-0 entries of their start-up instructions.  ``ALLOWED`` names a line by
its file and its stripped source text, not its number, so an edit elsewhere
in the file does not move it.

    PYTHONPATH=src python tests/line_gate.py [pytest arguments]

exits with pytest's status if a test fails, 1 if a line outside ``ALLOWED``
never ran, and 0 otherwise.
"""

import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "singlip"

# (file, stripped source text): why no tier-1 test runs the line
ALLOWED = {
    **dict.fromkeys(
        [("dot.py", "from .carrousel import CarrouselNode, CarrouselTree"),
         ("dot.py", "from .decomp import Decomposition, Piece"),
         ("dot.py", "from .dualgraph import DualGraph, DualTree, Vertex"),
         ("fixtures.py", "from .strands import PuiseuxBranch"),
         ("fixtures.py", "from .dualgraph import DualGraph"),
         ("jsonio.py", "from .strands import PuiseuxBranch"),
         ("jsonio.py", "from .dualgraph import DualGraph, DualTree"),
         ("jsonio.py", "from .tower import BlowupEvent")],
        "an import for annotations only, under TYPE_CHECKING"),
    ("cli.py", "sys.exit(main())"): "the __main__ call, run by the CLI process",
    **dict.fromkeys(
        [("cli.py", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"),
         ("cli.py", "return 1")],
        "the BrokenPipeError handler, run only in the child process of "
        "test_closed_stdout_pipe_exits_1_quietly"),
    ("decomp.py", 'raise DomainError("piece supports do not partition the vertices")'):
        "an independent check that cannot fire, as its comment says",
    ("series.py", "raise PrecisionExhausted"):
        "an independent check that cannot fire, as its comment says",
}


def executable_lines(path: Path) -> set:
    """Line numbers that the compiled code of the module at ``path`` runs."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def main(args) -> int:
    modules = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: set = set()
    mon = sys.monitoring
    tool = mon.COVERAGE_ID

    def on_line(code, line):
        if code.co_filename in modules:
            ran.add((code.co_filename, line))
        return mon.DISABLE

    mon.use_tool_id(tool, "line_gate")
    mon.register_callback(tool, mon.events.LINE, on_line)
    mon.set_events(tool, mon.events.LINE)
    try:
        status = pytest.main(args)
    finally:
        mon.set_events(tool, 0)
        mon.free_tool_id(tool)
    if status:
        return status
    unlisted, used = [], set()
    for name, path in modules.items():
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path)):
            key = (path.name, source[line - 1].strip())
            if (name, line) in ran:
                continue
            if key in ALLOWED:
                used.add(key)
            else:
                unlisted.append(f"{path.name}:{line}: {key[1]}")
    for file, text in ALLOWED.keys() - used:
        print(f"line gate: allowed line ran or is gone: {file}: {text}")
    for entry in unlisted:
        print(f"line gate: never run: {entry}")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
