"""hopfkit: exact-arithmetic verification of semisimple Hopf algebra identities.

The package represents finite-dimensional Hopf algebras by structure
constants over cyclotomic fields, computes their integrals, centrally
primitive idempotents, irreducible characters and fusion rings, and
machine-verifies the integral/character identities (divisibility of
irreducible degrees included) on concrete example families: group algebras,
function algebras, Drinfeld doubles, and tensor products.
"""

from .builders import drinfeld_double, function_algebra, group_algebra, tensor_product
from .characters import (
    CentralDecomposition,
    CharacterTable,
    FusionRing,
    central_decomposition,
    f_map,
    fusion_ring,
    irreducible_characters,
    is_central_character,
)
from .errors import (
    FieldTooSmallError,
    GroupTableError,
    HopfkitError,
    InconsistentSystemError,
    NotSemisimpleError,
    ParseError,
)
from .factor import factor_over_cyclotomic, factor_rational
from .groups import (
    GroupTable,
    builtin_group,
    builtin_grp_text,
    builtin_names,
    format_grp,
    parse_group,
)
from .hopf import (
    HopfData,
    check_axioms,
    commutes_with_basis,
    convolve,
    dualize,
    format_hopf,
    hit_act_alg_on_dual,
    hit_act_dual_on_alg,
    pair,
    parse_hopf,
)
from .integrals import IntegralPair, compute_integrals, dual_integrals, integrals_report
from .linalg import Matrix, Vector, kernel_basis, minimal_polynomial
from .pipeline import SUITES, Pipeline
from .polys import IntegralityCertificate, Poly, is_algebraic_integer, min_poly_scalar
from .report import ReportItem, VerificationReport
from .scalars import CycScalar, cyclotomic_coeffs, euler_phi, format_scalar, parse_scalar
from .theorems import (
    explore_central_fusion,
    kaplansky_report,
    verify_corollary,
    verify_lemma1,
    verify_proposition,
    verify_section4,
)
from .wedderburn import BlockDecomposition, block_degrees, center, primitive_idempotents

__version__ = "0.1.0"

__all__ = [
    "BlockDecomposition",
    "CentralDecomposition",
    "CharacterTable",
    "CycScalar",
    "FieldTooSmallError",
    "FusionRing",
    "GroupTable",
    "GroupTableError",
    "HopfData",
    "HopfkitError",
    "InconsistentSystemError",
    "IntegralPair",
    "IntegralityCertificate",
    "Matrix",
    "NotSemisimpleError",
    "ParseError",
    "Pipeline",
    "Poly",
    "ReportItem",
    "SUITES",
    "Vector",
    "VerificationReport",
    "block_degrees",
    "builtin_group",
    "builtin_grp_text",
    "builtin_names",
    "center",
    "central_decomposition",
    "check_axioms",
    "commutes_with_basis",
    "compute_integrals",
    "convolve",
    "cyclotomic_coeffs",
    "drinfeld_double",
    "dual_integrals",
    "dualize",
    "euler_phi",
    "explore_central_fusion",
    "f_map",
    "factor_over_cyclotomic",
    "factor_rational",
    "format_grp",
    "format_hopf",
    "format_scalar",
    "function_algebra",
    "fusion_ring",
    "group_algebra",
    "hit_act_alg_on_dual",
    "hit_act_dual_on_alg",
    "integrals_report",
    "irreducible_characters",
    "is_algebraic_integer",
    "is_central_character",
    "kaplansky_report",
    "kernel_basis",
    "min_poly_scalar",
    "minimal_polynomial",
    "pair",
    "parse_group",
    "parse_hopf",
    "parse_scalar",
    "primitive_idempotents",
    "tensor_product",
    "verify_corollary",
    "verify_lemma1",
    "verify_proposition",
    "verify_section4",
]
