"""Exact combinatorial invariants of the Lipschitz geometry of curve and
surface singularities: contact matrices and carrousel trees of plane curve
germs, embedded resolution towers with inner rates, branched double covers,
thick-thin decompositions, and inner/outer geometric decompositions with
their classification signatures."""

from .carrousel import (CarrouselTree, build_carrousel_tree, decorate,
                        leaf_contacts, reduce_to_eggers, trees_isomorphic)
from .decomp import (Decomposition, NodeFlags, Piece, amalgamate,
                     build_decomposition, classify_nodes,
                     csquare_decomposition, inner_signature,
                     is_metrically_conical, outer_signature, signatures_equal,
                     thick_thin, thin_zone_rate)
from .errors import DomainError, InputError, ResourceCapExceeded, SinglipError
from .exactnum import Rational
from .strands import (ContactMatrix, PuiseuxBranch, Strand,
                      branch_char_exponents, coincidence_exponent,
                      contact_matrix, horn_jump_profile, strand_contact,
                      strands_of)
from .surfgraph import (Divisor, DualGraph, DualTree, blow_all_double_points,
                        extend_arrow_chain, has_base_point,
                        laufer_double_cover, laufer_parity_prepare, pencil_min,
                        resolve_pencil, solve_multiplicities, tower_to_graph,
                        verify_graph)
from .tower import BlowupEvent, branch_contact, resolve_curve, verify_tower

__version__ = "0.1.0"
