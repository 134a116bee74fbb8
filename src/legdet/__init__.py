"""Exact-arithmetic verification of Legendre-symbol determinant identities.

The package computes the determinant C(x) = det[x + ((j-i)/p)] over indices
0..(p-1)/2 exactly, derives the coefficients of its closed form from the
fundamental unit and class number of Q(sqrt(p)) by an independent route, and
machine-checks the matrix decomposition and product identities behind the
closed form inside the cyclotomic field Q(zeta_p).  Everything is integer or
rational arithmetic; there is no floating point and no tolerance.  The
names in __all__ (the checks, their reports and the values they hold) are
the API; the kernels are imported from legdet.linalg and legdet.cyclotomic.
"""

from .cyclotomic import CycloElem
from .exact import UniPoly, as_rational
from .identities import (
    CheckResult,
    SuiteOptions,
    VerificationReport,
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
from .ntheory import OddPrime, factorial_mod, is_prime, legendre, odd_primes_upto
from .quadfield import QuadElem, UnitData, ab_coeffs, class_number, fundamental_unit, quad_pow

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "CycloElem",
    "OddPrime",
    "QuadElem",
    "SuiteOptions",
    "UniPoly",
    "UnitData",
    "VerificationReport",
    "ab_coeffs",
    "as_rational",
    "c_polynomial",
    "class_number",
    "factorial_mod",
    "fundamental_unit",
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
]
