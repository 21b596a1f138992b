"""JSON schemas for curves, graphs and computed reports.

Every document carries a top-level "format" tag.  Rationals travel as
{"num": p, "den": q} objects, each built fresh but in a contact matrix's
rows, an immutable ``RankRows``; parsers also accept "p/q" strings and
bare integers.  Unknown fields are refused in strict mode, else collected
as warnings.  ``dumps`` writes a document from its values alone.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Optional

from .errors import InputError
from .exactnum import as_rational, is_int, rational_to_json

if TYPE_CHECKING:
    from .strands import PuiseuxBranch
    from .dualgraph import DualGraph, DualTree
    from .tower import BlowupEvent

CURVE_FORMAT = "singlip.curve/1"
GRAPH_FORMAT = "singlip.graph/1"
TOWER_FORMAT = "singlip.tower/1"


def _check_fields(obj, allowed: set, where: str, strict: bool, warnings: list):
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be an object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        msg = f"unknown fields {unknown} in {where}"
        if strict:
            raise InputError(msg)
        warnings.append(msg)


def _list(doc: dict, name: str) -> list:
    value = doc.get(name, ())
    if not isinstance(value, (list, tuple)):
        raise InputError(f"field {name!r} must be a list")
    return value


def _multiplicities(v: dict, i: int) -> dict:
    value = v.get("multiplicities", {})
    if not isinstance(value, dict):
        raise InputError(f"vertices[{i}].multiplicities must be an object")
    return value


def _check_format(doc: dict, fmt: str):
    if doc.get("format") != fmt:
        raise InputError(f"expected format {fmt!r}, got {doc.get('format')!r}")


def load_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from None
    except RecursionError:
        raise InputError("invalid JSON: nested too deeply") from None
    except ValueError as exc:  # an integer literal past int's digit limit
        raise InputError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "format" not in doc:
        raise InputError("document must be a JSON object with a 'format' field")
    return doc


def parse_curve(doc: dict, strict: bool = False,
                warnings: Optional[list] = None) -> list[PuiseuxBranch]:
    from .strands import PuiseuxBranch
    warnings = warnings if warnings is not None else []
    _check_format(doc, CURVE_FORMAT)
    _check_fields(doc, {"format", "branches"}, "curve document", strict, warnings)
    branches = _list(doc, "branches")
    if not branches:
        raise InputError("field 'branches' must be a non-empty list")
    out = []
    for i, b in enumerate(branches):
        where = f"branches[{i}]"
        _check_fields(b, {"denominator", "terms"}, where, strict, warnings)
        terms = []
        for j, t in enumerate(_list(b, "terms")):
            if not (type(t) is dict and t.keys() <= {"exp", "coeff"}):
                _check_fields(t, {"exp", "coeff"}, f"{where}.terms[{j}]",
                              strict, warnings)
            try:
                terms.append((as_rational(t["exp"]), as_rational(t["coeff"])))
            except KeyError as exc:
                raise InputError(f"{where}.terms[{j}] missing {exc}") from None
        branch = PuiseuxBranch.from_terms(terms)
        declared = b.get("denominator", branch.denominator)
        if not is_int(declared) or declared != branch.denominator:
            raise InputError(
                f"{where}: declared denominator {declared!r} differs "
                f"from the minimal one {branch.denominator}")
        out.append(branch)
    return out


def curve_to_json(curve: list[PuiseuxBranch]) -> dict:
    return {"format": CURVE_FORMAT, "branches": [b.to_json() for b in curve]}


def parse_graph(doc: dict, strict: bool = False,
                warnings: Optional[list] = None) -> DualGraph:
    from .dualgraph import DualGraph

    def fields(v: dict, i: int) -> tuple:
        rate = v.get("rate")
        return (v.get("genus", 0), None if rate is None else as_rational(rate),
                _multiplicities(v, i), _list(v, "flags"))

    return _read_graph(doc, GRAPH_FORMAT, DualGraph(), (),
                       {"genus", "rate", "flags"}, fields, strict, warnings)


def _read_graph(doc: dict, fmt: str, g: DualGraph, extra: tuple, vertex_fields: set,
                fields, strict: bool, warnings: Optional[list]) -> DualGraph:
    """Fill the empty ``g`` from a document of format ``fmt``.
    ``fields(v, i)`` reads vertex ``i``'s ``add_vertex`` arguments after its
    id and self-intersection, in the order their errors are reported."""
    warnings = warnings if warnings is not None else []
    what = fmt.split(".")[1].split("/")[0]
    _check_format(doc, fmt)
    _check_fields(doc, {"format", "vertices", "edges", "arrows", *extra},
                  f"{what} document", strict, warnings)
    allowed = {"id", "self_intersection", "multiplicities", *vertex_fields}
    for i, v in enumerate(_list(doc, "vertices")):
        if not (type(v) is dict and v.keys() <= allowed):
            _check_fields(v, allowed, f"vertices[{i}]", strict, warnings)
        try:
            g.add_vertex(v["id"], v["self_intersection"], *fields(v, i))
        except KeyError as exc:
            raise InputError(f"vertices[{i}] missing {exc}") from None
    texts: dict = {}    # outputs name a vertex by its text
    for vid in g.ids():
        if texts.setdefault(str(vid), vid) != vid:
            raise InputError(f"vertex ids {texts[str(vid)]!r} and {vid!r} differ "
                             "only in type")
    for i, e in enumerate(_list(doc, "edges")):
        if not isinstance(e, list) or len(e) != 2:
            raise InputError(f"edges[{i}] must be a two-element list")
        g.add_edge(e[0], e[1])
    allowed = {"vertex", "name", "multiplicity", "kind", "branch"}
    for i, a in enumerate(_list(doc, "arrows")):
        if not (type(a) is dict and a.keys() <= allowed):
            _check_fields(a, allowed, f"arrows[{i}]", strict, warnings)
        try:
            g.add_arrow(a["vertex"], a["name"], a.get("multiplicity", 1),
                        a.get("kind", "function"), a.get("branch"))
        except KeyError as exc:
            raise InputError(f"arrows[{i}] missing {exc}") from None
    if not g.vertices:
        raise InputError(f"{what} document has no vertices")
    return g


def graph_to_json(g: DualGraph) -> dict:
    return {"format": GRAPH_FORMAT,
            "vertices": [{"id": vid, "self_intersection": v.self_intersection,
                          "genus": v.genus,
                          "rate": None if v.rate is None else rational_to_json(v.rate),
                          "multiplicities": dict(sorted(v.multiplicities.items())),
                          "flags": sorted(v.flags)}
                         for vid, v in g.vertices.items()],
            "edges": [[a, b] for a, b in g.edges],
            "arrows": [{"vertex": a.vertex, "name": a.name,
                        "multiplicity": a.multiplicity, "kind": a.kind}
                       for a in g.arrows]}


def tower_to_json(tree: DualTree, events: Optional[list[BlowupEvent]] = None) -> dict:
    out = {"format": TOWER_FORMAT,
           "vertices": [{"id": v.id,
                         "self_intersection": v.self_intersection,
                         "rate": rational_to_json(v.rate),
                         "rate_vector": list(v.rate_vector),
                         "multiplicities": dict(sorted(v.multiplicities.items()))}
                        for v in tree.vertices],
           "edges": sorted([list(e) for e in tree.edges]),
           "arrows": [{"vertex": a.vertex, "name": a.name,
                       "multiplicity": a.multiplicity, "kind": a.kind,
                       **({"branch": a.branch} if a.branch is not None else {})}
                      for a in tree.arrows]}
    if events is not None:
        out["events"] = [{"index": e.index,
                          "center": [str(x) for x in e.center],
                          "branches": [list(b) for b in e.branches_through]}
                         for e in events]
    return out


def parse_tower(doc: dict, strict: bool = False,
                warnings: Optional[list] = None) -> DualTree:
    """Vertex ids must be 0..n-1 in order and every vertex needs its
    rate_vector; the rate is read off it, so a stored "rate" is ignored,
    and so are the "events"."""
    from .dualgraph import DualTree

    def fields(v: dict, i: int) -> tuple:
        rate_vector = v["rate_vector"]
        return 0, None, _multiplicities(v, i), None, rate_vector

    return _read_graph(doc, TOWER_FORMAT, DualTree(), ("events",),
                       {"rate", "rate_vector"}, fields, strict, warnings)


# json's text of a scalar of each exact type; bool is an int that json
# writes as a word
_TEXT = {str: encode_basestring_ascii, type(None): lambda o: "null",
         bool: lambda o: "true" if o else "false", int: int.__repr__,
         float: json.dumps}


def dumps(doc) -> str:
    """Byte-identical to ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``.

    ``_emit`` writes the library's documents, on every interpreter;
    ``json`` writes any other document, or raises its own error for it.
    """
    try:
        return _emit(doc)
    except (TypeError, RecursionError):
        pass
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class _Keys(dict):
    def __missing__(self, k) -> str:   # encode_basestring_ascii refuses a non-str
        s = self[k] = encode_basestring_ascii(k) + ": "
        return s


class _Pads(dict):
    def __missing__(self, pad: str) -> tuple:
        inner = pad + "  "
        s = self[pad] = (inner, "," + inner, "{" + inner, pad + "}",
                         "[" + inner, pad + "]")
        return s


class RankRows(tuple):
    """The rows of a contact matrix's entries, as tuples of the ``values``
    its ``ranks`` pick; ``ContactMatrix.rendered`` builds it and sets both
    in its ``__dict__``, and ``_emit`` writes it from them.  Neither can be
    reassigned or deleted."""

    def __setattr__(self, name, value):
        raise AttributeError(f"RankRows.{name} cannot be assigned")

    def __delattr__(self, name):
        raise AttributeError(f"RankRows.{name} cannot be deleted")


def _emit(doc) -> str:
    """The text of a document of exact dicts with str keys, lists, tuples,
    ``RankRows`` and scalars of ``_TEXT``'s types; ``TypeError`` at others.

    It writes into one list.  A container's loop looks each item's exact
    type up in ``_TEXT`` and writes a scalar inline; a container goes to
    ``emit``.  ``pads`` holds, per indentation, the strings that open,
    separate and close a container there, and ``keys`` the text of each
    key.  A dict whose values are all scalars is written with one join,
    any other container item by item in place.  A ``RankRows``
    (``ContactMatrix.to_json``'s entries, a tuple that cannot be edited) is
    written from its ``values``, each once at the entries' indentation, and
    its ``ranks``.
    """
    out: list[str] = []
    append = out.append
    text = _TEXT.get
    keys = _Keys()
    pads = _Pads()

    def emit(o, pad: str):
        t = type(o)
        if t is not dict and t is not list and t is not tuple:
            f = text(t)
            if f is not None:
                return append(f(o))
            if t is not RankRows:
                raise TypeError(t)
            inner, comma, _, _, lsep, lend = pads[pad]
            row_inner, row_comma, _, _, row_sep, row_end = pads[inner]
            texts = []
            for v in o.values:
                start = len(out)
                emit(v, row_inner)
                texts.append("".join(out[start:]))
                del out[start:]
            for r in o.ranks:
                out.extend((lsep + row_sep, row_comma.join(map(texts.__getitem__, r)),
                            row_end) if r else (lsep + "[]",))
                lsep = comma
            return append(lend if o.ranks else "[]")
        if not o:
            return append("{}" if t is dict else "[]")
        inner, comma, sep, end, lsep, lend = pads[pad]
        if t is dict:
            ks, items = sorted(o), []
            for k in ks:
                f = text(type(o[k]))
                if f is None:
                    break
                items.append(keys[k] + f(o[k]))
            else:
                return append(sep + comma.join(items) + end)
            for k in ks:        # not flat: written item by item
                v = o[k]
                f = text(type(v))
                if f is not None:
                    append(sep + keys[k] + f(v))
                else:
                    append(sep + keys[k])
                    emit(v, inner)
                sep = comma
            append(end)
        else:
            for v in o:
                f = text(type(v))
                if f is not None:
                    append(lsep + f(v))
                else:
                    append(lsep)
                    emit(v, inner)
                lsep = comma
            append(lend)

    emit(doc, "\n")
    append("\n")
    return "".join(out)
