"""Command-line front end.

Subcommands mirror the library: ``curve`` operations take curve JSON,
``graph`` operations take resolution-graph JSON, ``verify`` checks the
consistency invariants of any supported document, and ``fixtures`` ships
the built-in examples.  Exit codes: 0 success, 1 domain error or failed
verification, 2 malformed input.  One table, ``_CLI``, holds every
parser.  ``build_parser`` builds argparse's parser from it; ``_read_args``
reads a well-formed command line off it without argparse and leaves help,
abbreviations and usage errors to argparse.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .errors import DomainError, InputError


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _parse(kind: str, doc: dict, strict: bool):
    """Parse a curve, graph or tower document; print its unknown-field warnings."""
    from . import jsonio
    warnings: list[str] = []
    parse = {"curve": jsonio.parse_curve, "graph": jsonio.parse_graph,
             "tower": jsonio.parse_tower}[kind]
    out = parse(doc, strict=strict, warnings=warnings)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return out


def _load(kind: str, path: str, strict: bool):
    from .jsonio import load_document
    return _parse(kind, load_document(_read(path)), strict)


def _positive_int(raw: str, what: str) -> int:
    """Anything but a positive integer is malformed input."""
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"{what} {raw!r} is not an integer") from None
    if value < 1:
        raise InputError(f"{what} {value} is below 1")
    return value


def _cap(args, name: str, default: int) -> int:
    """--NAME-cap, else $SINGLIP_NAME_CAP, else the library default."""
    raw = getattr(args, f"{name}_cap")
    if raw is None:
        raw = os.environ.get(f"SINGLIP_{name.upper()}_CAP") or str(default)
    return _positive_int(raw, f"{name} cap")


def _strand_cap(args) -> int:
    from .strands import DEFAULT_STRAND_CAP
    return _cap(args, "strand", DEFAULT_STRAND_CAP)


def _matrix(args, path: str):
    """The contact matrix of the curve document at ``path``."""
    from .strands import contact_matrix
    return contact_matrix(_load("curve", path, args.strict), _strand_cap(args))


def _resolve(args):
    """The blow-up events and the resolution tower of the input curve."""
    from .tower import DEFAULT_EVENT_CAP, resolve_curve
    return resolve_curve(_load("curve", args.input, args.strict),
                         _cap(args, "event", DEFAULT_EVENT_CAP), _strand_cap(args))


def _emit(args, json_doc, text_lines, render_dot=None) -> None:
    if args.format == "json":
        from .jsonio import dumps
        sys.stdout.write(dumps(json_doc))
    elif args.format == "dot":
        if render_dot is None:
            raise InputError("no DOT form for this command")
        from . import dot
        sys.stdout.write(render_dot(dot))
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


# -- curve commands -----------------------------------------------------------

def cmd_curve_contacts(args) -> None:
    matrix = _matrix(args, args.input)
    lines = [f"strands: {matrix.size}",
             "contacts: " + ", ".join(map(str, sorted(matrix.finite_values())))]
    lines += map(" ".join, matrix.rendered(lambda v: "inf" if v is None else str(v)))
    _emit(args, {"format": "singlip.contacts/1", **matrix.to_json()}, lines)


def _render_carrousel(node, indent=0, label=None):
    pad = "  " * indent
    prefix = f"[{label}] " if label is not None else ""
    if node.is_leaf():
        return [f"{pad}{prefix}strand {node.leaf}"]
    deco = ""
    if node.n is not None:
        deco = f"  (m={node.m} n={node.n}"
        deco += f" r={node.r} s={node.s})" if node.r is not None else ")"
    lines = [f"{pad}{prefix}q={node.weight}{deco}"]
    for child in node.children:
        lines.extend(_render_carrousel(child, indent + 1, child.edge_label))
    return lines


def cmd_curve_carrousel(args) -> None:
    from . import carrousel
    t = carrousel.decorate(carrousel.build_carrousel_tree(_matrix(args, args.input)))
    if args.reduce:
        t = carrousel.reduce_to_eggers(t)
    doc = {"format": "singlip.carrousel/1", **t.to_json()}
    _emit(args, doc, _render_carrousel(t.root), lambda dot: dot.carrousel_to_dot(t))


def cmd_curve_horns(args) -> None:
    from .strands import horn_jump_profile
    profile = horn_jump_profile(_matrix(args, args.input), args.base)
    lines = ["thresholds: " + ", ".join(str(t) for t in profile.thresholds),
             "counts: " + ", ".join(str(c) for c in profile.counts)]
    _emit(args, {"format": "singlip.horns/1", **profile.to_json()}, lines)


def _numbered_lines(g, detail) -> list[str]:
    """Vertex and edge lines of a graph with ids 0..n-1, shown as E1..En."""
    lines = []
    for vid in g.ids():
        v = g.vertices[vid]
        mults = " ".join(f"{k}={m}" for k, m in sorted(v.multiplicities.items()))
        lines.append(f"E{vid + 1}: self={v.self_intersection} {detail(v)} {mults}")
    edges = ", ".join(f"E{a + 1}-E{b + 1}" for a, b in sorted(g.edges))
    return lines + [f"edges: {edges}"]


def cmd_curve_resolve(args) -> None:
    from . import jsonio
    events, tree = _resolve(args)
    lines = _numbered_lines(tree, lambda v: f"rate={v.rate}")
    lines.append("arrows: " + ", ".join(
        f"{a.name}@E{a.vertex + 1}({a.multiplicity})" for a in tree.arrows))
    _emit(args, jsonio.tower_to_json(tree, events), lines,
          lambda dot: dot.tree_to_dot(tree))


def cmd_curve_equiv(args) -> None:
    from . import carrousel
    equal = carrousel.trees_isomorphic(*(
        carrousel.build_carrousel_tree(_matrix(args, path))
        for path in (args.first, args.second)))
    _emit(args, {"format": "singlip.equiv/1", "equivalent": equal},
          [f"equivalent: {str(equal).lower()}"])


# -- graph commands -----------------------------------------------------------

def cmd_graph_mult(args) -> None:
    from . import surfgraph
    graph = _load("graph", args.input, args.strict)
    divisor = surfgraph.solve_multiplicities(graph, args.arrow,
                                             strict=not args.allow_fractional)
    lines = [f"{vid}: {m}" for vid, m in divisor.coefficients.items()]
    _emit(args, {"format": "singlip.divisor/1", "name": args.arrow,
                 **divisor.to_json()}, lines)


def cmd_graph_laufer(args) -> None:
    from . import jsonio, surfgraph
    _, tree = _resolve(args)
    cover = surfgraph.laufer_double_cover(surfgraph.laufer_parity_prepare(tree))
    lines = _numbered_lines(cover, lambda v: f"genus={v.genus}")
    _emit(args, jsonio.graph_to_json(cover), lines,
          lambda dot: dot.graph_to_dot(cover))


def cmd_graph_pencil(args) -> None:
    from . import jsonio, surfgraph
    graph = _load("graph", args.input, args.strict)
    gens = []
    for entry in args.gen:
        name, _, raw = entry.partition(":")
        power = _positive_int(raw or "1", f"--gen {name} power")
        base = surfgraph.solve_multiplicities(graph, name)
        gens.append(surfgraph.Divisor(
            {k: power * v for k, v in base.coefficients.items()},
            tuple((v, power * m) for v, m in base.strict_arrows)))
    if len(gens) < 2:
        raise InputError("graph pencil needs at least two --gen entries")
    generic = surfgraph.pencil_min(graph, gens)
    # a base point needs the generic strict transform through the curve and
    # frozen there by a strictly lower-order generator
    base_vertices = [vid for vid, _ in generic.strict_arrows
                     if surfgraph.has_base_point(gens, vid)]
    lines = ["generic: " + " ".join(f"{k}:{v}" for k, v in
                                    generic.coefficients.items()),
             "base points on: " + ", ".join(str(v) for v in base_vertices)]
    resolved_doc = {}
    if args.resolve and base_vertices:
        g2, steps = surfgraph.resolve_pencil(graph, gens[0], gens[1],
                                             base_vertices[0])
        chain = [s.vertex for s in steps]
        lines.append("chain: " + ", ".join(
            f"{v}({g2.vertices[v].self_intersection})" for v in chain))
        resolved_doc = {"resolved": jsonio.graph_to_json(g2),
                        "chain": [str(v) for v in chain]}
    _emit(args, {"format": "singlip.pencil/1",
                 "generic": generic.to_json(),
                 "base_points": [str(v) for v in base_vertices],
                 **resolved_doc}, lines)


def cmd_graph_thickthin(args) -> None:
    from . import decomp
    tt = decomp.thick_thin(_load("graph", args.input, args.strict))
    thick = [(str(l), sorted(map(str, z))) for l, z in tt.thick_zones]
    thin = [sorted(map(str, z)) for z in tt.thin_zones]
    lines = [f"thick[{l}]: " + ", ".join(z) for l, z in thick]
    lines += ["thin: " + ", ".join(z) for z in thin]
    lines.append(f"metrically conical: {str(tt.metrically_conical).lower()}")
    _emit(args, {"format": "singlip.thickthin/1",
                 "thick": [{"l_node": l, "zone": z} for l, z in thick],
                 "thin": thin, "metrically_conical": tt.metrically_conical}, lines)


def cmd_graph_decompose(args) -> None:
    from . import decomp
    graph = _load("graph", args.input, args.strict)
    d = decomp.build_decomposition(graph, args.mode)
    lines = [p.describe() + " on {" + ", ".join(sorted(map(str, p.support))) + "}"
             for p in sorted(d.pieces.values(), key=lambda p: p.pid)]
    _emit(args, {"format": "singlip.decomposition/1", **d.to_json()}, lines,
          lambda dot: dot.decomposition_to_dot(graph, d))


def cmd_graph_signature(args) -> None:
    from . import decomp
    build = {"inner": decomp.inner_signature,
             "outer": decomp.outer_signature}[args.metric]
    first = build(_load("graph", args.input, args.strict))
    if args.second:
        equal = decomp.signatures_equal(
            first, build(_load("graph", args.second, args.strict)))
        _emit(args, {"format": "singlip.signature/1", "metric": args.metric,
                     "equal": equal}, [f"equal: {str(equal).lower()}"])
        return
    doc = first.to_json()
    lines = [f"{args.metric} signature, {len(doc['nodes'])} pieces:"]
    for node in doc["nodes"]:
        extras = [f"{k}={node[k]}" for k in ("mult", "selfint") if k in node]
        lines.append(f"  {node['id']}: {node['kind']}"
                     f"({','.join(node['rates'])})"
                     + (" " + " ".join(extras) if extras else ""))
    lines.append("adjacency: " + ", ".join(f"{a}-{b}" for a, b in doc["edges"]))
    _emit(args, {"format": "singlip.signature/1", **doc}, lines)


# -- verify and fixtures ------------------------------------------------------

def cmd_verify(args) -> int:
    from . import jsonio
    doc = jsonio.load_document(_read(args.input))
    fmt = doc["format"]
    if fmt == jsonio.CURVE_FORMAT:
        from .strands import contact_matrix
        matrix = contact_matrix(_parse("curve", doc, args.strict), _strand_cap(args))
        problems = [f"ultrametric violation at strands ({j},{k},{l})"
                    for j, k, l in matrix.check_ultrametric()]
    elif fmt == jsonio.GRAPH_FORMAT:
        from .surfgraph import verify_graph
        problems = verify_graph(_parse("graph", doc, args.strict))
    elif fmt == jsonio.TOWER_FORMAT:
        from .tower import verify_tower
        problems = verify_tower(_parse("tower", doc, args.strict)).problems()
    else:
        raise InputError(f"cannot verify documents of format {fmt!r}")
    for p in problems:
        print(p)
    print("ok" if not problems else f"failed: {len(problems)} problem(s)")
    return 1 if problems else 0


def cmd_fixtures_list(args) -> None:
    from . import fixtures
    for name in fixtures.fixture_names():
        print(f"{name} ({fixtures.fixture_kind(name)})")


def cmd_fixtures_dump(args) -> None:
    from . import fixtures, jsonio
    obj = fixtures.load_fixture(args.name)
    to_json = {"curve": jsonio.curve_to_json,
               "graph": jsonio.graph_to_json}[fixtures.fixture_kind(args.name)]
    sys.stdout.write(jsonio.dumps(to_json(obj)))


# -- command line -------------------------------------------------------------

_FLAG = "store_true"
_INPUT = ("input", {})

# Each parser as (help, arguments, its function or its subcommands by word),
# each argument as (name, add_argument keywords), positionals first.
_CLI = ("Lipschitz-geometry invariants of curve and surface singularities from "
        "exact combinatorial data", [
    ("--format", dict(choices=("text", "json", "dot"), default="text",
                      help="output format")),
    ("--strict", dict(action=_FLAG, help="reject unknown JSON fields")),
    ("--event-cap", dict(help="blow-up event cap (or $SINGLIP_EVENT_CAP)")),
    ("--strand-cap", dict(help="strand count cap (or $SINGLIP_STRAND_CAP)"))], {
    "curve": ("plane curve germ operations", [], {
        "contacts": ("contact matrix of the strands", [_INPUT], cmd_curve_contacts),
        "carrousel": ("decorated carrousel tree", [_INPUT, ("--reduce", dict(
            action=_FLAG, help="apply the Eggers reduction"))], cmd_curve_carrousel),
        "horns": ("horn jump profile of one strand", [_INPUT, ("--base", dict(
            type=int, required=True, help="base strand index"))], cmd_curve_horns),
        "resolve": ("minimal embedded resolution tower", [_INPUT], cmd_curve_resolve),
        "equiv": ("decide outer Lipschitz equivalence", [("first", {}), ("second", {})],
                  cmd_curve_equiv)}),
    "graph": ("resolution graph operations", [], {
        "mult": ("solve total-transform multiplicities", [
            _INPUT, ("--arrow", dict(required=True, help="arrow (function) name")),
            ("--allow-fractional", dict(action=_FLAG))], cmd_graph_mult),
        "laufer": ("double cover graph of z^2 + f(x,y) from curve input", [_INPUT],
                   cmd_graph_laufer),
        "pencil": ("generic member and base points of a pencil", [_INPUT, (
            "--gen", dict(action="append", default=[],
                          help="generator as NAME[:POWER], repeatable")), (
            "--resolve", dict(action=_FLAG,
                              help="blow up the first base point until resolved"))],
            cmd_graph_pencil),
        "thickthin": ("thick-thin decomposition", [_INPUT], cmd_graph_thickthin),
        "decompose": ("geometric decomposition", [_INPUT, ("--mode", dict(
            choices=("initial", "inner", "outer"), required=True))],
            cmd_graph_decompose),
        "signature": ("classification signature", [_INPUT, ("second", dict(
            nargs="?", help="second graph: compare signatures instead")), ("--metric",
            dict(choices=("inner", "outer"), required=True))], cmd_graph_signature)}),
    "verify": ("run the consistency verifier", [_INPUT], cmd_verify),
    "fixtures": ("built-in example data", [], {
        "list": (None, [], cmd_fixtures_list),
        "dump": (None, [("name", {})], cmd_fixtures_dump)})})


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
    if callable(then):
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
            if callable(then) and not gap:
                values.append(tok)
            elif callable(then) or tok not in then:
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
    if not callable(func) or len(values) > len(names) or any(
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
        code = args.func(args) or 0
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
