"""Exact-arithmetic verification of Legendre-symbol determinant identities.

The package computes the determinant C(x) = det[x + ((j-i)/p)] over indices
0..(p-1)/2 exactly, derives the coefficients of its closed form from the
fundamental unit and class number of Q(sqrt(p)) by an independent route, and
machine-checks the matrix decomposition and product identities behind the
closed form inside the cyclotomic field Q(zeta_p).  Everything is integer or
rational arithmetic; there is no floating point and no tolerance.
"""

from .cyclotomic import CycloElem, gauss_sum, zeta_pow
from .exact import UniPoly, as_rational
from .identities import (
    CheckResult,
    SuiteOptions,
    VerificationReport,
    build_carlitz_matrix,
    build_evil_matrix,
    build_vsemirnov_matrices,
    c_polynomial,
    random_uv_instance,
    run_suite,
    uv_trial_checks,
    verify_adj_sum,
    verify_carlitz,
    verify_d00_detG,
    verify_decomposition,
    verify_evil,
    verify_f1f2,
    verify_lemma_sum,
    verify_lemma_uv,
    verify_minor_antisymmetry,
    verify_prod_2j,
    verify_sun_congruence,
    verify_theorem,
)
from .linalg import (
    QQ,
    ZZ,
    ExactMatrix,
    Ring,
    adjugate,
    cyclo_ring,
    det_bareiss,
    det_field,
    det_toeplitz,
)
from .ntheory import OddPrime, factorial_mod, is_prime, legendre, odd_primes_upto
from .quadfield import QuadElem, UnitData, ab_coeffs, class_number, fundamental_unit, quad_pow

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "CycloElem",
    "ExactMatrix",
    "OddPrime",
    "QQ",
    "QuadElem",
    "Ring",
    "SuiteOptions",
    "UniPoly",
    "UnitData",
    "VerificationReport",
    "ZZ",
    "ab_coeffs",
    "adjugate",
    "as_rational",
    "build_carlitz_matrix",
    "build_evil_matrix",
    "build_vsemirnov_matrices",
    "c_polynomial",
    "class_number",
    "cyclo_ring",
    "det_bareiss",
    "det_field",
    "det_toeplitz",
    "factorial_mod",
    "fundamental_unit",
    "gauss_sum",
    "is_prime",
    "legendre",
    "odd_primes_upto",
    "quad_pow",
    "random_uv_instance",
    "run_suite",
    "uv_trial_checks",
    "verify_adj_sum",
    "verify_carlitz",
    "verify_d00_detG",
    "verify_decomposition",
    "verify_evil",
    "verify_f1f2",
    "verify_lemma_sum",
    "verify_lemma_uv",
    "verify_minor_antisymmetry",
    "verify_prod_2j",
    "verify_sun_congruence",
    "verify_theorem",
    "zeta_pow",
]
