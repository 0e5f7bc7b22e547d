"""The four McNemar statistics over a discordant pair (n01, n10).

All tests are two-sided and symmetric in their arguments.  The exact and
mid-p tails are exact integer sums over 2**n, for n = n01 + n10, turned into
a float by one int / int division, which CPython rounds correctly; so they are
the nearest doubles to the true values at every n.  Summing the tail costs
O(n²).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import UndefinedStatistic
from .model import TestKind

#: Below this discordant total the asymptotic chi-square approximation is
#: considered unreliable and the result carries a small-sample flag.
SMALL_SAMPLE_THRESHOLD = 25


@dataclass(frozen=True)
class TestResult:
    test_kind: TestKind
    n01: int
    n10: int
    p_value: float
    statistic: Optional[float] = None
    small_sample: bool = False

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p_value outside [0, 1]")


def chi2_sf_1df(x: float) -> float:
    """Survival function of chi-square with 1 dof: P(X >= x) = erfc(sqrt(x/2))."""
    if x < 0:
        raise ValueError("chi-square statistic must be >= 0")
    return math.erfc(math.sqrt(x / 2.0))


def _check_defined(n01: int, n10: int):
    if n01 < 0 or n10 < 0:
        raise ValueError("discordant counts must be >= 0")
    if n01 == 0 and n10 == 0:
        raise UndefinedStatistic()


def asymptotic_test(n01: int, n10: int) -> TestResult:
    """Chi-square approximation: (n01 - n10)^2 / (n01 + n10), 1 dof."""
    _check_defined(n01, n10)
    n = n01 + n10
    statistic = (n01 - n10) ** 2 / n
    return TestResult(
        test_kind=TestKind.ASYMPTOTIC,
        n01=n01,
        n10=n10,
        statistic=statistic,
        p_value=chi2_sf_1df(statistic),
        small_sample=n < SMALL_SAMPLE_THRESHOLD,
    )


def cc_test(n01: int, n10: int) -> TestResult:
    """Edwards' continuity-corrected chi-square: (|n01 - n10| - 1)^2 / (n01 + n10)."""
    _check_defined(n01, n10)
    n = n01 + n10
    statistic = (abs(n01 - n10) - 1) ** 2 / n
    return TestResult(
        test_kind=TestKind.CC,
        n01=n01,
        n10=n10,
        statistic=statistic,
        p_value=chi2_sf_1df(statistic),
    )


def _exact_counts(n01: int, n10: int) -> Tuple[int, int, int]:
    """Numerators over 2**n of the two-sided tail and the point, and 2**n.

    With n = n01 + n10 and b = max(n01, n10), the two-sided tail is
    2 * sum of C(n, x) for x = b..n, capped at 2**n, and the point is C(n, b).
    The tail sum includes the point, so point <= two-sided tail <= 2**n.
    """
    n = n01 + n10
    b = max(n01, n10)
    point = c = math.comb(n, b)
    tail = c
    for x in range(b, n):
        c = c * (n - x) // (x + 1)
        tail += c
    whole = 1 << n
    return min(2 * tail, whole), point, whole


def exact_test(n01: int, n10: int) -> TestResult:
    """Exact binomial test: the larger discordant count against Bin(n, 1/2)."""
    _check_defined(n01, n10)
    two_sided, _, whole = _exact_counts(n01, n10)
    return TestResult(
        test_kind=TestKind.EXACT, n01=n01, n10=n10, p_value=two_sided / whole
    )


def midp_test(n01: int, n10: int) -> TestResult:
    """Exact two-sided p minus the point probability of the observed count."""
    _check_defined(n01, n10)
    two_sided, point, whole = _exact_counts(n01, n10)
    return TestResult(
        test_kind=TestKind.MIDP, n01=n01, n10=n10, p_value=(two_sided - point) / whole
    )


_DISPATCH = {
    TestKind.ASYMPTOTIC: asymptotic_test,
    TestKind.EXACT: exact_test,
    TestKind.CC: cc_test,
    TestKind.MIDP: midp_test,
}


def run_test(kind: TestKind, n01: int, n10: int) -> TestResult:
    return _DISPATCH[kind](n01, n10)
