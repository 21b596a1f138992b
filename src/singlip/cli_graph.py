"""The ``graph`` commands of the CLI."""

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
        name, _, raw = entry.partition(":")
        power = positive_int(raw or "1", f"--gen {name} power")
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


def cmd_graph_thickthin(args) -> None:
    from . import decomp
    tt = decomp.thick_thin(load("graph", args.input, args.strict))
    thick = [(str(l), sorted(map(str, z))) for l, z in tt.thick_zones]
    thin = [sorted(map(str, z)) for z in tt.thin_zones]
    lines = [f"thick[{l}]: " + ", ".join(z) for l, z in thick]
    lines += ["thin: " + ", ".join(z) for z in thin]
    lines.append(f"metrically conical: {str(tt.metrically_conical).lower()}")
    emit(args, {"format": "singlip.thickthin/1",
                "thick": [{"l_node": l, "zone": z} for l, z in thick],
                "thin": thin, "metrically_conical": tt.metrically_conical}, lines)


def cmd_graph_decompose(args) -> None:
    from . import decomp
    graph = load("graph", args.input, args.strict)
    d = decomp.build_decomposition(graph, args.mode)
    lines = [p.describe() + " on {" + ", ".join(sorted(map(str, p.support))) + "}"
             for p in sorted(d.pieces.values(), key=lambda p: p.pid)]
    emit(args, {"format": "singlip.decomposition/1", **d.to_json()}, lines,
         lambda dot: dot.decomposition_to_dot(graph, d))


def cmd_graph_signature(args) -> None:
    from . import decomp
    build = {"inner": decomp.inner_signature,
             "outer": decomp.outer_signature}[args.metric]
    first = build(load("graph", args.input, args.strict))
    if args.second:
        equal = decomp.signatures_equal(
            first, build(load("graph", args.second, args.strict)))
        emit(args, {"format": "singlip.signature/1", "metric": args.metric,
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
    emit(args, {"format": "singlip.signature/1", **doc}, lines)


COMMANDS = {f.__name__: f for f in (cmd_graph_mult, cmd_graph_laufer, cmd_graph_pencil,
                                    cmd_graph_thickthin, cmd_graph_decompose,
                                    cmd_graph_signature)}
