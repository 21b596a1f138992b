"""The ``graph`` commands of the CLI that call ``decomp``."""

from .cli_io import emit, load


def cmd_decomp_thickthin(args) -> None:
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


def cmd_decomp_decompose(args) -> None:
    from . import decomp
    graph = load("graph", args.input, args.strict)
    d = decomp.build_decomposition(graph, args.mode)
    lines = [p.describe() + " on {" + ", ".join(sorted(map(str, p.support))) + "}"
             for p in sorted(d.pieces.values(), key=lambda p: p.pid)]
    emit(args, {"format": "singlip.decomposition/1", **d.to_json()}, lines,
         lambda dot: dot.decomposition_to_dot(graph, d))


def cmd_decomp_signature(args) -> None:
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


COMMANDS = {f.__name__: f for f in (cmd_decomp_thickthin, cmd_decomp_decompose,
                                    cmd_decomp_signature)}
