"""Exact combinatorial invariants of the Lipschitz geometry of curve and
surface singularities: contact matrices and carrousel trees of plane curve
germs, embedded resolution towers with inner rates, branched double covers,
thick-thin decompositions, and inner/outer geometric decompositions with
their classification signatures.  Names and submodules load on first use."""

from importlib import import_module

_EXPORTS = {
    "carrousel": ("CarrouselTree build_carrousel_tree decorate leaf_contacts "
                  "reduce_to_eggers trees_isomorphic"),
    "csquare": "amalgamate csquare_decomposition",
    "decomp": ("Decomposition Piece build_decomposition inner_signature "
               "outer_signature signatures_equal thick_thin thin_zone_rate"),
    "dualgraph": ("DualGraph DualTree branch_contact tower_to_graph verify_graph "
                  "verify_tower"),
    "errors": "DomainError InputError ResourceCapExceeded SinglipError",
    "strands": ("ContactMatrix PuiseuxBranch Strand coincidence_exponent "
                "contact_matrix horn_jump_profile strand_contact strands_of"),
    "surfgraph": ("Divisor has_base_point laufer_double_cover laufer_parity_prepare "
                  "pencil_min resolve_pencil solve_multiplicities"),
    "tower": "BlowupEvent resolve_curve",
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
# never "cli": `python -m singlip.cli` must find it unimported
_SUBMODULES = {*_EXPORTS, "dot", "exactnum", "fixtures", "jsonio", "series"}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
