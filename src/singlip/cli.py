"""Command-line front end.

Subcommands mirror the library: ``curve`` operations take curve JSON,
``graph`` operations take resolution-graph JSON, ``verify`` checks the
consistency invariants of any supported document, and ``fixtures`` ships
the built-in examples.  Exit codes: 0 success, 1 domain error or failed
verification, 2 malformed input.  One table, ``_CLI``, holds every parser
and names each command's function, which ``main`` takes from the
``COMMANDS`` of ``cli_<the second word of its name>`` alone.  ``build_parser``
builds argparse's parser from it; ``_read_args`` reads a well-formed
command line off it without argparse and leaves the rest to argparse.
"""

from __future__ import annotations

import os
import sys
from importlib import import_module
from types import SimpleNamespace

from .errors import DomainError, InputError


_FLAG = "store_true"
_INPUT = ("input", {})
# no form in a format: refused before the command's module is imported or its input read
_NO_FORM = {"json": {"cmd_verify", "cmd_fixtures_list"}, "dot": {
    "cmd_curve_contacts", "cmd_curve_horns", "cmd_curve_equiv", "cmd_graph_mult",
    "cmd_graph_pencil", "cmd_decomp_thickthin", "cmd_decomp_signature", "cmd_verify",
    "cmd_fixtures_list", "cmd_fixtures_dump"}}

# Each parser as (help, arguments, its function's name or its subcommands by
# word), each argument as (name, add_argument keywords), positionals first.
_CLI = ("Lipschitz-geometry invariants of curve and surface singularities from "
        "exact combinatorial data", [
    ("--format", dict(choices=("text", "json", "dot"), default="text",
                      help="output format")),
    ("--strict", dict(action=_FLAG, help="reject unknown JSON fields")),
    ("--event-cap", dict(help="blow-up event cap (or $SINGLIP_EVENT_CAP)")),
    ("--strand-cap", dict(help="strand count cap (or $SINGLIP_STRAND_CAP)"))], {
    "curve": ("plane curve germ operations", [], {
        "contacts": ("contact matrix of the strands", [_INPUT], "cmd_curve_contacts"),
        "carrousel": ("decorated carrousel tree", [_INPUT, ("--reduce", dict(
            action=_FLAG, help="apply the Eggers reduction"))], "cmd_curve_carrousel"),
        "horns": ("horn jump profile of one strand", [_INPUT, ("--base", dict(
            type=int, required=True, help="base strand index"))], "cmd_curve_horns"),
        "resolve": ("minimal embedded resolution tower", [_INPUT], "cmd_curve_resolve"),
        "equiv": ("decide outer Lipschitz equivalence", [("first", {}), ("second", {})],
                  "cmd_curve_equiv")}),
    "graph": ("resolution graph operations", [], {
        "mult": ("solve total-transform multiplicities", [
            _INPUT, ("--arrow", dict(required=True, help="arrow (function) name")),
            ("--allow-fractional", dict(action=_FLAG))], "cmd_graph_mult"),
        "laufer": ("double cover graph of z^2 + f(x,y) from curve input", [_INPUT],
                   "cmd_graph_laufer"),
        "pencil": ("generic member and base points of a pencil", [_INPUT, (
            "--gen", dict(action="append", default=[],
                          help="generator as NAME[:POWER], repeatable")), (
            "--resolve", dict(action=_FLAG,
                              help="blow up the first base point until resolved"))],
            "cmd_graph_pencil"),
        "thickthin": ("thick-thin decomposition", [_INPUT], "cmd_decomp_thickthin"),
        "decompose": ("geometric decomposition", [_INPUT, ("--mode", dict(
            choices=("initial", "inner", "outer"), required=True))],
            "cmd_decomp_decompose"),
        "signature": ("classification signature", [_INPUT, ("second", dict(
            nargs="?", help="second graph: compare signatures instead")), ("--metric",
            dict(choices=("inner", "outer"), required=True))], "cmd_decomp_signature")}),
    "verify": ("run the consistency verifier", [_INPUT], "cmd_verify"),
    "fixtures": ("built-in example data", [], {
        "list": (None, [], "cmd_fixtures_list"),
        "dump": (None, [("name", {})], "cmd_fixtures_dump")})})


def build_parser():
    """The argparse parser of ``_CLI``."""
    import argparse
    parser = argparse.ArgumentParser(prog="singlip", description=_CLI[0])
    _add_arguments(parser, _CLI, "command")
    return parser


def _add_arguments(parser, node, dest: str) -> None:
    _, arguments, then = node
    for name, kw in arguments:
        parser.add_argument(name, **kw)
    if isinstance(then, str):
        parser.set_defaults(func=then)
        return
    sub = parser.add_subparsers(dest=dest, required=True)
    for word, child in then.items():
        kw = {"help": child[0]} if child[0] else {}
        _add_arguments(sub.add_parser(word, **kw), child, "subcommand")


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _read_args(argv):
    """What ``build_parser().parse_args(argv)`` makes of a well-formed
    ``argv``, read off ``_CLI``; None wherever the two could differ: help,
    abbreviations, ``=`` forms, ``--``, option values that start with
    ``-``, an option between two positionals, and usage errors."""
    ns, values, gap, path = {}, [], False, [_CLI]
    tokens = iter(sys.argv[1:] if argv is None else argv)
    for tok in tokens:
        _, arguments, then = path[-1]
        if not tok.startswith("-") or tok == "-":
            if isinstance(then, str) and not gap:
                values.append(tok)
            elif isinstance(then, str) or tok not in then:
                return None
            else:
                ns["subcommand" if path[1:] else "command"] = tok
                path.append(then[tok])
            continue
        kw, gap = dict(arguments).get(tok), bool(values)
        if kw is None:
            return None
        if kw.get("action") == _FLAG:
            ns[_dest(tok)] = True
            continue
        arg = next(tokens, "--")
        try:
            value = kw.get("type", str)(arg)
        except ValueError:
            return None
        if arg != "-" and arg[:1] == "-" or value not in kw.get("choices", [value]):
            return None
        ns[_dest(tok)] = ([*ns.get(_dest(tok), []), value]
                          if kw.get("action") == "append" else value)
    _, arguments, func = path[-1]
    names = [name for name, _ in arguments if name[0] != "-"]
    ns.update(zip(names, values))
    if not isinstance(func, str) or len(values) > len(names) or any(
            kw.get("required", name in names and "nargs" not in kw)
            and _dest(name) not in ns for name, kw in arguments):
        return None
    for _, arguments, _ in path:
        for name, kw in arguments:
            ns.setdefault(_dest(name), {_FLAG: False}.get(kw.get("action"),
                                                          kw.get("default")))
    return SimpleNamespace(**ns, func=func)


def main(argv=None) -> int:
    args = _read_args(argv) or build_parser().parse_args(argv)
    try:
        if args.func in _NO_FORM.get(args.format, ()):
            raise InputError(f"no {args.format.upper()} form for this command")
        commands = import_module(".cli_" + args.func.split("_")[1], __package__).COMMANDS
        code = commands[args.func](args) or 0
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; devnull keeps the exit flush from failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
