"""The four McNemar tests over a discordant pair (n01, n10).

Each returns its two-sided p-value, symmetric in its arguments.  The exact
and mid-p values are the nearest doubles to their true values at every n.
With n = n01 + n10, b = max(n01, n10), m = n - b, k = ceil(n / 2) and
d = b - k, the distance of b from the centre:

- When Hoeffding's bound 2 exp(-(2b - n)**2 / (2n)) on the exact p is below
  2**-1075, both p-values round to 0.0 and nothing is summed.  Past that
  test, d is below 20 sqrt(n).
- The point probability C(n, b) / 2**n is a product of min(m, d) ratios,
  taken in blocks of ``_BLOCK`` ratios with ``math.perm``: m ratios from 1
  when m <= d, else d ratios from the central term C(2k, k) / 4**k.  That
  term comes from Stirling's series in fixed point, at a cost that k does
  not drive (``_stirling_central``).  Below the k where the series cannot
  reach the precision (517 at ``_BITS``), the m ratios are taken instead.
- When the counts differ by at most 1, the doubled tail reaches 2**n, so the
  exact p is the constant 1 and the mid-p is 1 minus the point.  Otherwise
  the tail is that point times a sum of ratio products whose terms fall off
  like a Gaussian in their index.
- Both are carried in ``_BITS``-bit fixed point with a proven bound on what
  the rounding down lost, which gives an interval holding each true p-value.
  When both ends of each interval round to the same double (Ziv's rounding
  test), that double is the correctly rounded p-value: CPython rounds
  int / int correctly, subnormals included.  This costs about
  min(m, d) / ``_BLOCK`` big-integer blocks plus O(sqrt(n * _BITS))
  operations on ``_BITS``-bit integers.
- When an interval straddles a rounding boundary, ``_exact_counts`` decides:
  it sums the tail exactly in integers over 2**n, in O(n²), and divides once.

Either way the result is the same double, so the fast paths change no bit.
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

#: Extra fixed-point bits of the central term, so that its rounding errors
#: cost the ``_BITS``-bit result only a few units.
_GUARD = 8

#: B_2j / (2j (2j - 1)), j = 1..12: Stirling's series is
#: ln x! = x ln x - x + ln(2 pi x) / 2 + psi(x), psi(x) = sum_j of these / x**(2j - 1).
_STIRLING = ((1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188), (-691, 360360),
             (1, 156), (-3617, 122400), (43867, 244188), (-174611, 125400),
             (77683, 5796), (-236364091, 1506960))

#: floor(pi * 2**_PI_BITS), whose hex digits are pi's: 3.243f6a8885a308d3...
_PI = 0x3243F6A8885A308D313198A2E03707344A4093822299F31D0082EFA98EC4E6C89
_PI_BITS = 256


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


def _ratios(u: int, w: int, e: int, top: int, bottom: int, count: int,
            bits: int) -> Optional[Tuple[int, int, int]]:
    """[u, u + w] * 2**e times perm(top, count) / perm(bottom, count).

    Returns (u, u_hi, e) like ``_point_interval``, or None when 4K + w >
    2**(bits - 1), where the bound below is not proven.  u has exactly
    bits + 1 bits, before and after.  The product is taken in
    K = ceil(count / _BLOCK) blocks, each the ratio of two falling factorials
    of g <= _BLOCK factors.  A block shifts u up until the division floors to
    at least 2**bits, then shifts it back to bits + 1 bits, which floors too;
    each floor loses less than 2**-bits relative.  So the true value is below
    u (1 + a)(1 + c) <= u (1 + 9/8 (a + c)) with a = 4K * 2**-bits for the
    2K floors and c = w * 2**-bits for the input's width, and u < 2**(bits + 1)
    makes that fewer than 9K + 3w units.
    """
    blocks = -(-count // _BLOCK)
    if 4 * blocks + w > 1 << (bits - 1):
        return None
    for j in range(0, count, _BLOCK):
        g = min(_BLOCK, count - j)
        num, den = math.perm(top - j, g), math.perm(bottom - j, g)
        up = max(0, den.bit_length() - num.bit_length() + 1)
        u = (u * num << up) // den
        shift = u.bit_length() - bits - 1
        u >>= shift
        e += shift - up
    return u, u + 9 * blocks + 3 * w, e


def _psi(x: int, f: int) -> Optional[Tuple[int, int]]:
    """(s, j) with |psi(x) * 2**f - s| < j, or None if ``_STIRLING`` runs out.

    psi(x) is the sum in Stirling's series.  For real x > 0 its remainder
    after any term is at most the first omitted term (DLMF 5.11(ii)), so the
    sum stops at the first term below 2**-f; the j - 1 terms before it each
    floor by less than one unit.
    """
    s, p = 0, x
    for j, (num, den) in enumerate(_STIRLING, 1):
        t = (abs(num) << f) // (den * p)
        if not t:
            return s, j
        s += t if num > 0 else -t
        p *= x * x
    return None


def _stirling_central(k: int, bits: int) -> Optional[Tuple[int, int, int]]:
    """(c, c_hi, e) with c * 2**e <= C(2k, k) / 4**k <= c_hi * 2**e, or None.

    c has bits + 1 bits.  By Stirling's formula the central term is
    exp(L) / sqrt(pi k) with L = psi(2k) - 2 psi(k), and Robbins' bounds
    1 / (12x + 1) < psi(x) < 1 / (12x) put L in (-1/6, 0).  In fixed point of
    f = bits + ``_GUARD`` bits, L * 2**f lies within err of s2 - 2 s1, so
    L >= -a * 2**-f with 0 < a < 2**(f - 1).  The alternating Taylor series
    of exp(-a * 2**-f), each term at most half the one before, gives s within
    2i units after i terms: each floors by less than 2 units, and the
    remainder is below the first omitted term, which floored to 0.  As
    L <= (2 err - a) * 2**-f and exp(-a * 2**-f) <= 1, exp(L) is at most
    4 err units above that.  One isqrt gives r <= 2**g / sqrt(pi k) < r + 2,
    which holds while g <= ``_PI_BITS``.  None when the series cannot reach
    2**-f at k, or g is past ``_PI_BITS``.
    """
    f = bits + _GUARD
    g = f + k.bit_length() // 2 + 2
    psi_k = _psi(k, f)
    if psi_k is None or g > _PI_BITS:
        return None
    (s1, j1), (s2, j2) = psi_k, _psi(2 * k, f)  # its terms are below those at k
    err = j2 + 2 * j1
    a = 2 * s1 - s2 + err
    t = s = 1 << f
    i = 0
    while t:
        i += 1
        t = t * a // (i << f)
        s += -t if i & 1 else t
    r = math.isqrt((1 << (2 * g + _PI_BITS)) // ((_PI + 1) * k))
    lo = (s - 2 * i) * r
    shift = lo.bit_length() - bits - 1
    return lo >> shift, ((s + 2 * i + 4 * err) * (r + 2) >> shift) + 1, shift - f - g


def _point_interval(n: int, b: int, bits: int) -> Optional[Tuple[int, int, int]]:
    """(u, u_hi, e) with u * 2**e <= C(n, b) / 2**n <= u_hi * 2**e, or None.

    u has exactly bits + 1 bits.  With m = n - b, C(n, b) is the product
    perm(n, m) / perm(m, m) of m ratios from 1.  With k = ceil(n / 2) and
    d = b - k, it is also C(n, k) perm(n - k, d) / perm(b, d), d ratios from
    the centre, where C(n, k) / 2**n = C(2k, k) / 4**k for odd n too.  The
    centre is taken when d < m and ``_stirling_central`` reaches k.  None
    when ``_ratios`` cannot bound the product.
    """
    m = n - b
    k = (n + 1) // 2
    d = b - k
    if d < m:
        centre = _stirling_central(k, bits)
        if centre is not None:
            c, c_hi, e = centre
            return _ratios(c, c_hi - c, e, n - k, b, d, bits)
    return _ratios(1 << bits, 0, -bits - n, n, m, m, bits)


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
    point = _point_interval(n, b, bits)
    if point is None:
        return None
    u, u_hi, e = point
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
    # Hoeffding: the exact p is at most 2 exp(-(2b - n)**2 / (2n)).  Past this
    # test, with ln 2 < 0.6931472, that bound is below 2**-1075, so both
    # p-values round to 0.0.
    if (2 * b - n) ** 2 * 10**7 > 2 * 1076 * 6931472 * n:
        return 0.0, 0.0
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
