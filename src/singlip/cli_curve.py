"""The ``curve`` commands of the CLI."""

from .cli_io import emit, load, numbered_lines, resolve, strand_cap


def _matrix(args, path: str):
    """The contact matrix of the curve document at ``path``."""
    from .strands import contact_matrix
    return contact_matrix(load("curve", path, args.strict), strand_cap(args))


def cmd_curve_contacts(args) -> None:
    matrix = _matrix(args, args.input)
    lines = [f"strands: {matrix.size}",
             "contacts: " + ", ".join(map(str, sorted(matrix.finite_values())))]
    lines += map(" ".join, matrix.rendered(lambda v: "inf" if v is None else str(v)))
    emit(args, {"format": "singlip.contacts/1", **matrix.to_json()}, lines)


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
    emit(args, doc, _render_carrousel(t.root), lambda dot: dot.carrousel_to_dot(t))


def cmd_curve_horns(args) -> None:
    from .strands import horn_jump_profile
    profile = horn_jump_profile(_matrix(args, args.input), args.base)
    lines = ["thresholds: " + ", ".join(str(t) for t in profile.thresholds),
             "counts: " + ", ".join(str(c) for c in profile.counts)]
    emit(args, {"format": "singlip.horns/1", **profile.to_json()}, lines)


def cmd_curve_resolve(args) -> None:
    from . import jsonio
    events, tree = resolve(args)
    lines = numbered_lines(tree, lambda v: f"rate={v.rate}")
    lines.append("arrows: " + ", ".join(
        f"{a.name}@E{a.vertex + 1}({a.multiplicity})" for a in tree.arrows))
    emit(args, jsonio.tower_to_json(tree, events), lines,
         lambda dot: dot.tree_to_dot(tree))


def cmd_curve_equiv(args) -> None:
    from . import carrousel
    equal = carrousel.trees_isomorphic(*(
        carrousel.build_carrousel_tree(_matrix(args, path))
        for path in (args.first, args.second)))
    emit(args, {"format": "singlip.equiv/1", "equivalent": equal},
         [f"equivalent: {str(equal).lower()}"])


COMMANDS = {f.__name__: f for f in (cmd_curve_contacts, cmd_curve_carrousel,
                                    cmd_curve_horns, cmd_curve_resolve, cmd_curve_equiv)}
