"""The four McNemar tests over a discordant pair (n01, n10).

Each returns its two-sided p-value, symmetric in its arguments.  The exact
and mid-p values are the nearest doubles to their true values at every n.
With n = n01 + n10, b = max(n01, n10) and m = n - b:

- The point probability C(n, b) / 2**n is a product of m ratios, taken in
  blocks of ``_BLOCK`` ratios with ``math.perm``.  When the counts differ by
  at most 1, the doubled tail reaches 2**n, so the exact p is the constant 1
  and the mid-p is 1 minus the point.  Otherwise the tail is that point times
  a sum of ratio products whose terms fall off like a Gaussian in their index.
- Both are carried in ``_BITS``-bit fixed point with a proven bound on what
  the rounding down lost, which gives an interval holding each true p-value.
  When both ends of each interval round to the same double (Ziv's rounding
  test), that double is the correctly rounded p-value: CPython rounds
  int / int correctly, subnormals included.  This costs about m / ``_BLOCK``
  big-integer blocks plus O(sqrt(n * _BITS)) operations on ``_BITS``-bit
  integers.
- When an interval straddles a rounding boundary, ``_exact_counts`` decides:
  it sums the tail exactly in integers over 2**n, in O(n²), and divides once.

Either way the result is the same double, so the fast path changes no bit.
"""

from __future__ import annotations

import math
import operator
from typing import Optional, Tuple

from .errors import UndefinedStatistic
from .model import TestKind

#: Fixed-point precision of the certified tails.  Any precision gives the same
#: doubles; a lower one only sends more pairs to the integer path.
_BITS = 192

#: Ratios of the point probability multiplied in per ``math.perm`` block.
_BLOCK = 64


def chi2_sf_1df(x: float) -> float:
    """Survival function of chi-square with 1 dof: P(X >= x) = erfc(sqrt(x/2))."""
    if x < 0:
        raise ValueError("chi-square statistic must be >= 0")
    return math.erfc(math.sqrt(x / 2.0))


def _check_defined(n01: int, n10: int) -> Tuple[int, int]:
    """Both counts as Python ints, so numpy integers work at any n.

    A non-integer count raises TypeError.
    """
    n01, n10 = operator.index(n01), operator.index(n10)
    if n01 < 0 or n10 < 0:
        raise ValueError("discordant counts must be >= 0")
    if n01 == 0 and n10 == 0:
        raise UndefinedStatistic()
    return n01, n10


def asymptotic_test(n01: int, n10: int) -> float:
    """Chi-square approximation: (n01 - n10)^2 / (n01 + n10), 1 dof."""
    n01, n10 = _check_defined(n01, n10)
    return chi2_sf_1df((n01 - n10) ** 2 / (n01 + n10))


def cc_test(n01: int, n10: int) -> float:
    """Edwards' continuity-corrected chi-square: (|n01 - n10| - 1)^2 / (n01 + n10)."""
    n01, n10 = _check_defined(n01, n10)
    return chi2_sf_1df((abs(n01 - n10) - 1) ** 2 / (n01 + n10))


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


def _point_interval(n: int, b: int, bits: int) -> Tuple[int, int, int]:
    """(u, u_hi, e) with u * 2**e <= C(n, b) / 2**n <= u_hi * 2**e.

    C(n, b) = prod_{j=1..m} (b + j) / j for m = n - b.  The product is taken
    in K = ceil(m / _BLOCK) blocks, each the ratio of two falling factorials
    of g <= _BLOCK factors.  It is kept as u * 2**e with u of exactly bits + 1
    bits.  A block floors twice, once in the division and once in the
    renormalising shift, and both results are at least 2**bits, so each floor
    loses less than 2**-bits relative.  With K * 2**(1 - bits) <= 1/2, which
    m < 2**(bits - 1) ensures, the K blocks together lose less than 8K units
    of u; u_hi allows 8m + 8 >= 8K.
    """
    m = n - b
    u, e = 1 << bits, -bits - n
    for j in range(1, m + 1, _BLOCK):
        g = min(_BLOCK, m + 1 - j)
        u = u * math.perm(b + j + g - 1, g) // math.perm(j + g - 1, g)
        shift = u.bit_length() - bits - 1
        u >>= shift
        e += shift
    return u, u + 8 * m + 8, e


def _tail_ratio_interval(m: int, b: int, bits: int) -> Tuple[int, int]:
    """(s, s_hi) with s <= S * 2**bits <= s_hi, for m <= b.

    S = sum_{k=0..m} prod_{j<k} (m - j) / (b + j + 1) is the sum of C(n, x)
    over x = b..n, divided by C(n, b).  Every ratio is <= 1, so the floored
    term k is short by fewer than k units.  The terms fall off like a Gaussian
    in k, so the loop stops after about sqrt(n * bits) steps, when a term
    floors to 0; each of the m - K terms left after K steps is then below K
    units.
    """
    t = s = 1 << bits
    k = 0
    while t and k < m:
        t = t * (m - k) // (b + k + 1)
        s += t
        k += 1
    return s, s + (k + 1) * (m + 2)


def _certified_pvalues(n: int, b: int) -> Optional[Tuple[float, float]]:
    """(exact p, mid-p) from ``_BITS``-bit fixed point.

    None when the intervals do not pin both doubles (Ziv's rounding test).
    """
    bits = _BITS
    m = n - b
    if m >> (bits - 1):
        return None  # the point bound needs K * 2**(1 - bits) <= 1/2
    u, u_hi, e = _point_interval(n, b, bits)
    if b - m <= 1:
        # counts 0 or 1 apart: exact p = 1 and mid-p = 1 - C / 2**n, over 2**-e
        whole = 1 << -e
        mid = (whole - u_hi) / whole
        return (1.0, mid) if mid == (whole - u) / whole else None
    s, s_hi = _tail_ratio_interval(m, b, bits)
    # Both p-values over 2**(bits - e): exact p = 2 * C / 2**n * S and
    # mid-p = C / 2**n * (2S - 1).  A tail that may reach the cap goes to the
    # integer path, so neither interval needs capping.
    whole = 1 << (bits - e)
    two_hi = 2 * u_hi * s_hi
    if two_hi >= whole:
        return None
    exact = 2 * u * s / whole
    mid = u * (2 * s - (1 << bits)) / whole
    if (exact != two_hi / whole
            or mid != u_hi * (2 * s_hi - (1 << bits)) / whole):
        return None
    return exact, mid


def _pvalues(n01: int, n10: int) -> Tuple[float, float]:
    """(exact p, mid-p), each the nearest double to its true value."""
    n = n01 + n10
    b = max(n01, n10)
    certified = _certified_pvalues(n, b)
    if certified is not None:
        return certified
    two_sided, point, whole = _exact_counts(n01, n10)
    return two_sided / whole, (two_sided - point) / whole


def exact_test(n01: int, n10: int) -> float:
    """Exact binomial test: the larger discordant count against Bin(n, 1/2)."""
    n01, n10 = _check_defined(n01, n10)
    if abs(n01 - n10) <= 1:
        return 1.0  # the doubled tail reaches 2**n
    return _pvalues(n01, n10)[0]


def midp_test(n01: int, n10: int) -> float:
    """Exact two-sided p minus the point probability of the observed count."""
    n01, n10 = _check_defined(n01, n10)
    return _pvalues(n01, n10)[1]


_DISPATCH = {
    TestKind.ASYMPTOTIC: asymptotic_test,
    TestKind.EXACT: exact_test,
    TestKind.CC: cc_test,
    TestKind.MIDP: midp_test,
}


def run_test(kind: TestKind, n01: int, n10: int) -> float:
    return _DISPATCH[kind](n01, n10)
