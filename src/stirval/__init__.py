"""Exact Stirling cycle numbers and closed-form p-adic valuation oracles.

The package computes unsigned Stirling numbers of the first kind (and a
shifted variant) with exact big-integer arithmetic, evaluates closed-form
p-adic valuations of s(a*p^n, t) in O(1), and differentially verifies every
closed form against brute-force computation.
"""

from .bigmath import (
    BERNOULLI_CAP,
    ROW_CAP,
    bernoulli,
    binomial,
    harmonic_sym,
    stirling1,
    stirling1_row,
    stirling1_shifted,
    stirling1_shifted_row,
)
from .errors import DomainError, InvariantError, RowTooLargeError, StirvalError, UsageError
from .oracles import (
    BoundKind,
    OracleResult,
    QueryP,
    conjecture13_valuation,
    cor1_valuation,
    decompose_p,
    full_valuation_3,
    full_valuation_p,
    h_valuation,
    komatsu_young_valuation,
    lengyel_special,
    max_valuation_bound,
    thm1_valuation,
    thm2_shift_valuation,
)
from .padic import (
    INFINITE,
    Prime,
    Valuation,
    as_prime,
    digit_sum,
    vp_factorial,
    vp_int,
    vp_rational,
)
from .verify import (
    SUITES,
    CheckRecord,
    VerificationReport,
    check_congruence,
    check_identity11,
    check_lemma21,
    check_lemma22,
    check_lemma24,
    check_lemma25,
    check_lemma26,
    explore_conjecture13,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BERNOULLI_CAP",
    "ROW_CAP",
    "SUITES",
    "BoundKind",
    "CheckRecord",
    "DomainError",
    "INFINITE",
    "InvariantError",
    "OracleResult",
    "Prime",
    "QueryP",
    "RowTooLargeError",
    "StirvalError",
    "UsageError",
    "Valuation",
    "VerificationReport",
    "as_prime",
    "bernoulli",
    "binomial",
    "check_congruence",
    "check_identity11",
    "check_lemma21",
    "check_lemma22",
    "check_lemma24",
    "check_lemma25",
    "check_lemma26",
    "conjecture13_valuation",
    "cor1_valuation",
    "decompose_p",
    "digit_sum",
    "explore_conjecture13",
    "full_valuation_3",
    "full_valuation_p",
    "h_valuation",
    "harmonic_sym",
    "komatsu_young_valuation",
    "lengyel_special",
    "max_valuation_bound",
    "stirling1",
    "stirling1_row",
    "stirling1_shifted",
    "stirling1_shifted_row",
    "sweep",
    "thm1_valuation",
    "thm2_shift_valuation",
    "vp_factorial",
    "vp_int",
    "vp_rational",
]
