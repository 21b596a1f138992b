"""The ``graph`` commands of the CLI that call ``surfgraph``."""

from .cli_io import emit, load, numbered_lines, positive_int, resolve
from .errors import InputError


def cmd_graph_mult(args) -> None:
    from . import surfgraph
    graph = load("graph", args.input, args.strict)
    divisor = surfgraph.solve_multiplicities(graph, args.arrow,
                                             strict=not args.allow_fractional)
    lines = [f"{vid}: {m}" for vid, m in divisor.coefficients.items()]
    emit(args, {"format": "singlip.divisor/1", "name": args.arrow,
                **divisor.to_json()}, lines)


def cmd_graph_laufer(args) -> None:
    from . import jsonio, surfgraph
    _, tree = resolve(args)
    cover = surfgraph.laufer_double_cover(surfgraph.laufer_parity_prepare(tree))
    lines = numbered_lines(cover, lambda v: f"genus={v.genus}")
    emit(args, jsonio.graph_to_json(cover), lines,
         lambda dot: dot.graph_to_dot(cover))


def cmd_graph_pencil(args) -> None:
    from . import jsonio, surfgraph
    graph = load("graph", args.input, args.strict)
    gens = []
    for entry in args.gen:
        name, colon, raw = entry.partition(":")
        power = positive_int(raw if colon else "1", f"--gen {name} power")
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
    emit(args, {"format": "singlip.pencil/1",
                "generic": generic.to_json(),
                "base_points": [str(v) for v in base_vertices],
                **resolved_doc}, lines)


COMMANDS = {f.__name__: f for f in (cmd_graph_mult, cmd_graph_laufer, cmd_graph_pencil)}
