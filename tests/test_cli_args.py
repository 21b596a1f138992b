"""The command-line reader against argparse.

``cli._read_args`` reads a well-formed command line off the CLI table
without importing argparse, and returns None for anything else, so that
``main`` hands it to ``build_parser().parse_args``.  The rule checked
here: for every argv, the reader returns None or a namespace whose
``vars()`` equal argparse's.  Command lines are drawn from the table's
words, its option strings (exact, ``=`` forms, abbreviated, repeated) and
awkward values, in any order."""

import pytest

from helpers import cli_commands, parsed
from singlip.cli import _CLI, _read_args

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

VALUES = ("-", "--", "-1", "x", "", "0", "json", "inner", "x:2", "curve", "verify")
WORDS = sorted({word for words, _ in cli_commands() for word in words})


def _value(data, good) -> str:
    """One of the ``good`` values, or now and then an awkward one."""
    value = data.draw(st.sampled_from([*good, None]))
    return data.draw(st.sampled_from(VALUES)) if value is None else value


def _chunks(arguments, data) -> list:
    """Pieces of a command line over ``arguments``: each required option,
    some others (``--gen`` repeated), and the positionals in one piece or,
    sometimes, one piece each."""
    chunks, values = [], []
    for name, kw in arguments:
        if name[0] != "-":
            values.append(_value(data, ["a.json", "-"]))
            continue
        value = [] if kw.get("action") == "store_true" else [
            _value(data, kw.get("choices", ["2", "x:2"]))]
        for _ in range(1 if kw.get("required") else data.draw(st.integers(0, 2))):
            chunks.append([name, *value])
    if data.draw(st.integers(0, 3)) == 0:
        values = values[:data.draw(st.integers(0, len(values)))]
    split = data.draw(st.integers(0, 4)) == 0
    return chunks + ([[v] for v in values] if split else [values])


def _stray(arguments) -> list:
    """Tokens that break a command line over ``arguments``: the table's
    words, awkward values, and each option in ``=`` form and cut short."""
    options = [name for name, _ in [*_CLI[1], *arguments] if name[0] == "-"]
    return [*WORDS, *VALUES, "-h", *(o + "=1" for o in options),
            *(o[:-2] for o in options)]


@hypothesis.settings(max_examples=500, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(st.data())
def test_reader_agrees_with_argparse(data):
    words, arguments = data.draw(st.sampled_from(cli_commands()), "command")
    head = _chunks(_CLI[1], data)[:-1]
    tail = data.draw(st.permutations(_chunks(arguments, data)))
    argv = [t for chunk in [*data.draw(st.permutations(head)), words, *tail]
            for t in chunk]
    for _ in range(data.draw(st.integers(0, 3), "stray tokens")):
        token = data.draw(st.sampled_from(_stray(arguments)))
        at = data.draw(st.integers(0, len(argv)))
        argv[at:at + data.draw(st.integers(0, 1))] = [token]
    hypothesis.note(argv)
    got = _read_args(argv)
    hypothesis.event("read" if got is not None else "left to argparse")
    if got is not None:
        assert vars(got) == parsed(argv)
