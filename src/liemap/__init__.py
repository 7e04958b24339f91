"""Exact-arithmetic Chevalley algebras and polynomial maps on them."""

from .scalar import FpElement, PrimeField, Rationals, invert, make_field
from .rootsystem import Root, RootSystem, build_root_system
from .chevalley import (AlgElement, ChevalleyAlgebra, LieAutomorphism,
                        build_algebra, build_chevalley)
from .freelie import (EngelSpec, LiePoly, LyndonForm, engel_monomial, engel_spec,
                      evaluate, linear_part, make_engel, max_monomial_degree,
                      min_monomial_degree, normal_form, parse)
from .matrixrep import (InvariantPair, MatrixElement, char_invariants,
                        commutator, matrix_from_ints, matrix_from_json,
                        realize_chevalley, theta_separates)
from .maps import (CentralProbeReport, EngelSolution, IdentityVerdict,
                   ImageReport, WitnessSearchResult, WitnessVerdict,
                   central_image_probe, dominance_witness_check,
                   dominance_witness_search, engel_image_scan, engel_solve,
                   example48_closed_form, example48_poly, image_scan,
                   is_identity_sl2)

__version__ = "0.1.0"
