"""Input, caps and output shared by the CLI commands."""

import os
import sys

from .errors import InputError


def read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def parse(kind: str, doc: dict, strict: bool):
    """Parse a curve, graph or tower document; print its unknown-field warnings."""
    from . import jsonio
    warnings: list[str] = []
    out = {"curve": jsonio.parse_curve, "graph": jsonio.parse_graph,
           "tower": jsonio.parse_tower}[kind](doc, strict=strict, warnings=warnings)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return out


def load(kind: str, path: str, strict: bool):
    from .jsonio import load_document
    return parse(kind, load_document(read(path)), strict)


def positive_int(raw: str, what: str) -> int:
    """Anything but a positive integer is malformed input."""
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"{what} {raw!r} is not an integer") from None
    if value < 1:
        raise InputError(f"{what} {value} is below 1")
    return value


def cap(args, name: str, default: int) -> int:
    """--NAME-cap, else $SINGLIP_NAME_CAP, else the library default."""
    raw = getattr(args, f"{name}_cap")
    if raw is None:
        raw = os.environ.get(f"SINGLIP_{name.upper()}_CAP") or str(default)
    return positive_int(raw, f"{name} cap")


def strand_cap(args) -> int:
    from .strands import DEFAULT_STRAND_CAP
    return cap(args, "strand", DEFAULT_STRAND_CAP)


def resolve(args):
    """The blow-up events and the resolution tower of the input curve."""
    from .tower import DEFAULT_EVENT_CAP, resolve_curve
    return resolve_curve(load("curve", args.input, args.strict),
                         cap(args, "event", DEFAULT_EVENT_CAP), strand_cap(args))


def emit(args, json_doc, text_lines, render_dot=None) -> None:
    if args.format == "json":
        from .jsonio import dumps
        sys.stdout.write(dumps(json_doc))
    elif args.format == "dot":   # cli.main refuses it for a command with no DOT form
        from . import dot
        sys.stdout.write(render_dot(dot))
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def numbered_lines(g, detail) -> list[str]:
    """Vertex and edge lines of a graph with ids 0..n-1, shown as E1..En."""
    lines = []
    for vid in g.ids():
        v = g.vertices[vid]
        mults = " ".join(f"{k}={m}" for k, m in sorted(v.multiplicities.items()))
        lines.append(f"E{vid + 1}: self={v.self_intersection} {detail(v)} {mults}")
    edges = ", ".join(f"E{a + 1}-E{b + 1}" for a, b in sorted(g.edges))
    return lines + [f"edges: {edges}"]
