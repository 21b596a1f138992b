"""The ``verify`` command of the CLI."""

from .cli_io import parse, read, strand_cap
from .errors import InputError


def cmd_verify(args) -> int:
    from . import jsonio
    doc = jsonio.load_document(read(args.input))
    fmt = doc["format"]
    if fmt == jsonio.CURVE_FORMAT:
        from .strands import contact_matrix
        matrix = contact_matrix(parse("curve", doc, args.strict), strand_cap(args))
        problems = [f"ultrametric violation at strands ({j},{k},{l})"
                    for j, k, l in matrix.check_ultrametric()]
    elif fmt == jsonio.GRAPH_FORMAT:
        from .dualgraph import verify_graph
        problems = verify_graph(parse("graph", doc, args.strict))
    elif fmt == jsonio.TOWER_FORMAT:
        from .dualgraph import verify_tower
        problems = verify_tower(parse("tower", doc, args.strict)).problems()
    else:
        raise InputError(f"cannot verify documents of format {fmt!r}")
    for p in problems:
        print(p)
    print("ok" if not problems else f"failed: {len(problems)} problem(s)")
    return 1 if problems else 0


COMMANDS = {f.__name__: f for f in (cmd_verify,)}
