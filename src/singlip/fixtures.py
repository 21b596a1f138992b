"""Built-in example curves and resolution graphs.

Graph fixtures carry self-intersections, genus, inner rates where they are
standard, multiplicities of a generic linear form under the name "h" with
the matching arrows, and L/P node flags.  Every fixture passes the
consistency verifier: the stored "h" divisor satisfies Laufer-zero with its
arrows and the intersection matrix is negative definite.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import InputError

if TYPE_CHECKING:
    from .strands import PuiseuxBranch
    from .surfgraph import DualGraph


def _branch(*terms) -> PuiseuxBranch:
    from .strands import PuiseuxBranch
    return PuiseuxBranch.from_terms(terms)


def curve_carrousel_example() -> list[PuiseuxBranch]:
    return [_branch(("3/2", 1), ("13/6", 1)), _branch(("5/2", 1))]


def curve_cusp_53() -> list[PuiseuxBranch]:
    return [_branch(("5/3", 1))]


def curve_32_74() -> list[PuiseuxBranch]:
    return [_branch(("3/2", 1), ("7/4", 1))]


def _graph(data: dict) -> DualGraph:
    from .surfgraph import DualGraph
    g = DualGraph()
    for vid, self_int, genus, rate, h, flags in data["vertices"]:
        mults = {} if h is None else {"h": h}
        g.add_vertex(vid, self_int, genus=genus, rate=rate,
                     multiplicities=mults, flags=flags)
    for a, b in data["edges"]:
        g.add_edge(a, b)
    for vertex, name, mult, kind in data.get("arrows", ()):
        g.add_arrow(vertex, name, mult, kind)
    return g


# E1..E7 and the seven edges that both E8 graphs list
_E8_VERTICES: tuple[tuple, ...] = (
    ("E1", -2, 0, "5/3", 6, ()),
    ("E2", -2, 0, "8/5", 5, ()),
    ("E3", -2, 0, "3/2", 4, ()),
    ("E4", -2, 0, "4/3", 3, ()),
    ("E5", -2, 0, "1", 2, ("L",)),
    ("E6", -2, 0, "7/4", 4, ()),
    ("E7", -2, 0, "2", 2, ()),
)
_E8_EDGES: tuple[tuple, ...] = (
    ("E7", "E6"), ("E6", "E1"), ("E1", "E2"), ("E2", "E3"), ("E3", "E4"),
    ("E4", "E5"), ("E1", "E8"))


def graph_e8() -> DualGraph:
    """Minimal resolution of x^2 + y^3 + z^5 with coordinate arrows, inner
    rates, and the generic-linear divisor; E1 is the central vertex, E5 the
    L-node, E8 carries the polar strict transform."""
    return _graph({
        "vertices": [*_E8_VERTICES, ("E8", -2, 0, "2", 3, ("P",))],
        "edges": _E8_EDGES,
        "arrows": [("E8", "x", 1, "function"),
                   ("E7", "y", 1, "function"),
                   ("E5", "z", 1, "function"),
                   ("E5", "h", 1, "generic-linear"),
                   ("E8", "polar", 1, "polar")],
    })


def graph_e8_nash() -> DualGraph:
    """E8 resolution blown up twice along the polar strict transform so it
    factors through the Nash modification; the polar curve now meets the
    last curve of the new chain, whose inner rate is 10/3."""
    return _graph({
        "vertices": [*_E8_VERTICES, ("E8", -3, 0, "2", 3, ()),
                     ("E9", -2, 0, "8/3", 3, ()),
                     ("E10", -1, 0, "10/3", 3, ("P",))],
        "edges": [*_E8_EDGES, ("E8", "E9"), ("E9", "E10")],
        "arrows": [("E5", "h", 1, "generic-linear"),
                   ("E10", "polar", 1, "polar")],
    })


def graph_d4() -> DualGraph:
    return _graph({
        "vertices": [
            ("E1", -2, 0, "1", 2, ("L",)),
            ("E2", -2, 0, "3/2", 1, ()),
            ("E3", -2, 0, "3/2", 1, ()),
            ("E4", -2, 0, "3/2", 1, ()),
        ],
        "edges": [("E1", "E2"), ("E1", "E3"), ("E1", "E4")],
        "arrows": [("E1", "h", 1, "generic-linear")],
    })


def graph_d5() -> DualGraph:
    return _graph({
        "vertices": [
            ("E1", -2, 0, None, 2, ()),
            ("E2", -2, 0, None, 1, ()),
            ("E3", -2, 0, None, 1, ()),
            ("E4", -2, 0, None, 2, ("L",)),
            ("E5", -2, 0, None, 1, ()),
        ],
        "edges": [("E1", "E2"), ("E1", "E3"), ("E1", "E4"), ("E4", "E5")],
        "arrows": [("E4", "h", 1, "generic-linear")],
    })


def graph_a_k(k: int) -> DualGraph:
    """A_k: x^2 + y^2 + z^(k+1).  For k = 1 a single L-curve; for k >= 2
    two L-curves separated by the chain resolving the remaining A_(k-2)
    (for k = 2 the separating blow-up of the two L-curves' crossing)."""
    if k < 1:
        raise InputError("a_k needs k >= 1")
    if k == 2:
        rows = [(-3, 1, 1), (-1, "3/2", 2), (-3, 1, 1)]
    else:
        rows = [(-2, None, 1)] * k
        rows[0] = rows[-1] = (-2, 1, 1)
        if k == 3:
            rows[1] = (-2, 2, 1)
    ends = ("E1", f"E{len(rows)}")
    return _graph({
        "vertices": [(f"E{i}", self_int, 0, rate, h,
                      ("L",) if f"E{i}" in ends else ())
                     for i, (self_int, rate, h) in enumerate(rows, 1)],
        "edges": [(f"E{i}", f"E{i + 1}") for i in range(1, len(rows))],
        "arrows": ([("E1", "h", 2, "generic-linear")] if k == 1 else
                   [(e, "h", 1, "generic-linear") for e in ends]),
    })


def graph_e6() -> DualGraph:
    return _graph({
        "vertices": [
            ("E1", -2, 0, None, 1, ()),
            ("E2", -2, 0, None, 2, ()),
            ("E3", -2, 0, None, 3, ()),
            ("E4", -2, 0, None, 2, ()),
            ("E5", -2, 0, None, 1, ()),
            ("E6", -2, 0, None, 2, ("L",)),
        ],
        "edges": [("E1", "E2"), ("E2", "E3"), ("E3", "E4"), ("E4", "E5"),
                  ("E3", "E6")],
        "arrows": [("E6", "h", 1, "generic-linear")],
    })


def graph_e7() -> DualGraph:
    # path E1..E6 with E7 attached to E3; highest-root coefficients
    return _graph({
        "vertices": [
            ("E1", -2, 0, None, 2, ("L",)),
            ("E2", -2, 0, None, 3, ()),
            ("E3", -2, 0, None, 4, ()),
            ("E4", -2, 0, None, 3, ()),
            ("E5", -2, 0, None, 2, ()),
            ("E6", -2, 0, None, 1, ()),
            ("E7", -2, 0, None, 2, ()),
        ],
        "edges": [("E1", "E2"), ("E2", "E3"), ("E3", "E4"), ("E4", "E5"),
                  ("E5", "E6"), ("E3", "E7")],
        "arrows": [("E1", "h", 1, "generic-linear")],
    })


def graph_briancon_speder_tneq0() -> DualGraph:
    return _graph({
        "vertices": [
            ("E1", -5, 8, None, 1, ()),
            ("E2", -1, 0, None, 2, ("L",)),
            ("E3", -1, 0, None, 2, ("L",)),
            ("E4", -2, 0, None, 1, ("L",)),
        ],
        "edges": [("E1", "E2"), ("E1", "E3"), ("E1", "E4")],
        "arrows": [("E2", "h", 1, "generic-linear"),
                   ("E3", "h", 1, "generic-linear"),
                   ("E4", "h", 1, "generic-linear")],
    })


def graph_briancon_speder_t0() -> DualGraph:
    return _graph({
        "vertices": [
            ("E1", -5, 8, None, 1, ()),
            ("E2", -1, 0, None, 5, ("L",)),
            ("E3", -2, 0, None, 3, ()),
            ("E4", -3, 0, None, 1, ()),
        ],
        "edges": [("E1", "E2"), ("E2", "E3"), ("E3", "E4")],
        "arrows": [("E2", "h", 1, "generic-linear")],
    })


def graph_minimal_singularity() -> DualGraph:
    """A minimal surface singularity of multiplicity 7 whose resolution
    factoring through the Nash modification has two special P-nodes.  The
    rate-3 valence-2 vertex also carries polar components in the source
    example but is deliberately left unflagged here; see the node rule in
    decomp._nodes."""
    return _graph({
        "vertices": [
            ("m1", -4, 0, "1", 1, ("L", "P")),
            ("m2", -4, 0, "2", 1, ("P",)),
            ("m3", -2, 0, "1", 1, ("L",)),
            ("m4", -1, 0, "5/2", 2, ("P",)),
            ("m5", -4, 0, "2", 1, ()),
            ("m6", -3, 0, "1", 1, ("L",)),
            ("m7", -2, 0, "2", 1, ("P",)),
            ("m8", -2, 0, "1", 1, ("L",)),
            ("m9", -2, 0, "3", 1, ()),
            ("m10", -2, 0, "2", 1, ()),
            ("m11", -2, 0, "1", 1, ("L",)),
        ],
        "edges": [("m1", "m2"), ("m2", "m3"), ("m2", "m4"), ("m4", "m5"),
                  ("m5", "m6"), ("m6", "m7"), ("m7", "m8"), ("m5", "m9"),
                  ("m9", "m10"), ("m10", "m11")],
        "arrows": [("m1", "h", 3, "generic-linear"),
                   ("m3", "h", 1, "generic-linear"),
                   ("m6", "h", 1, "generic-linear"),
                   ("m8", "h", 1, "generic-linear"),
                   ("m11", "h", 1, "generic-linear"),
                   ("m1", "polar", 2, "polar"),
                   ("m2", "polar", 2, "polar"),
                   ("m4", "polar", 1, "polar"),
                   ("m7", "polar", 2, "polar")],
    })


_CURVES = {
    "carrousel-example": curve_carrousel_example,
    "cusp-53": curve_cusp_53,
    "curve-32-74": curve_32_74,
}

_GRAPHS = {
    "e8": graph_e8,
    "e8-nash": graph_e8_nash,
    "d4": graph_d4,
    "d5": graph_d5,
    "a1": lambda: graph_a_k(1),
    "a2": lambda: graph_a_k(2),
    "a3": lambda: graph_a_k(3),
    "a4": lambda: graph_a_k(4),
    "a5": lambda: graph_a_k(5),
    "e6": graph_e6,
    "e7": graph_e7,
    "briancon-speder-tneq0": graph_briancon_speder_tneq0,
    "briancon-speder-t0": graph_briancon_speder_t0,
    "minimal-singularity": graph_minimal_singularity,
}


def fixture_names() -> list[str]:
    return sorted(list(_CURVES) + list(_GRAPHS))


def fixture_kind(name: str) -> str:
    if name in _CURVES:
        return "curve"
    if name in _GRAPHS:
        return "graph"
    raise InputError(f"unknown fixture {name!r}")


def load_fixture(name: str):
    builders = _CURVES if fixture_kind(name) == "curve" else _GRAPHS
    return builders[name]()
