"""McNemar statistics against independent binomial / chi-square oracles."""

import functools
import itertools
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import binom, chi2

from alignsig import mcnemar
from alignsig.errors import UndefinedStatistic
from alignsig.mcnemar import (
    asymptotic_test,
    cc_test,
    chi2_sf_1df,
    exact_test,
    midp_test,
)


def exact_oracle(n01, n10):
    """Direct binomial tail sum with Fractions, independent of the implementation."""
    n = n01 + n10
    b = max(n01, n10)
    tail = sum(Fraction(math.comb(n, x), 2 ** n) for x in range(b, n + 1))
    return float(min(Fraction(1), 2 * tail))


def _tail_sums(n, b):
    """C(n, b) and the sum of C(n, x) over x = b..n, by the integer recurrence."""
    c = point = tail = math.comb(n, b)
    for x in range(b, n):
        c = c * (n - x) // (x + 1)
        tail += c
    return point, tail


def fraction_oracle(n01, n10):
    """(exact p, mid-p) through Fractions, each rounded once by float().

    The tail recurrence C(n, x + 1) = C(n, x) (n - x) / (x + 1) is summed in
    integers; the capping and the subtraction of the point probability are
    done on Fractions.
    """
    n = n01 + n10
    point, tail = _tail_sums(n, max(n01, n10))
    two_sided = min(Fraction(1), 2 * Fraction(tail, 2 ** n))
    mid = min(Fraction(1), max(Fraction(0), two_sided - Fraction(point, 2 ** n)))
    return float(two_sided), float(mid)


def _near_tie(n):
    """A pair with |n01 - n10| <= 1, where the doubled tail is capped at 1."""
    return st.tuples(st.just(n), st.sampled_from([n - 1, n, n + 1]))


_DISCORDANT = st.one_of(
    st.tuples(st.integers(0, 3000), st.integers(0, 3000)),
    st.integers(1, 3000).flatmap(_near_tie),
    # one count 0 and the other near 1074: p-values at and below the smallest
    # subnormal double, 2**-1074, where rounding decides between it and 0.0
    st.tuples(st.just(0), st.integers(1070, 1100)),
    st.tuples(st.integers(1070, 1100), st.just(0)),
).filter(lambda c: c != (0, 0))


@given(_DISCORDANT)
@example((0, 1074))
@example((1075, 0))
@example((0, 1076))
@example((1, 0))
@example((7, 7))
@example((8, 7))
# pairs that Hoeffding's bound sends to 0.0: the first of the form (0, n), and
# one whose smaller count is not 0
@example((0, 1492))
@example((2700, 300))
def test_exact_and_midp_equal_the_fraction_oracle(counts):
    exact_p, mid_p = fraction_oracle(*counts)
    assert exact_test(*counts) == exact_p
    assert midp_test(*counts) == mid_p


def test_fraction_oracle_reaches_the_centre_path(monkeypatch):
    # the property above checks the Stirling central term, not only the product
    central, reached = mcnemar._stirling_central, []

    def spy(k, bits):
        interval = central(k, bits)
        reached.append(interval is not None)
        return interval

    monkeypatch.setattr(mcnemar, "_stirling_central", spy)
    test_exact_and_midp_equal_the_fraction_oracle()
    assert any(reached)


@functools.cache
def _series_threshold(bits):
    """The least k whose central term Stirling's series reaches at `bits`."""
    return next(k for k in itertools.count(1) if mcnemar._stirling_central(k, bits))


@settings(max_examples=200, deadline=None)
@given(st.integers(16, 64), st.integers(0, 3000))
@example(16, 0)
@example(192, 0)
@example(192, 2500)
def test_central_term_interval_holds_the_binomial_fraction(bits, offset):
    k = _series_threshold(bits) + offset
    c, c_hi, e = mcnemar._stirling_central(k, bits)
    assert c.bit_length() == bits + 1
    assert c * Fraction(2) ** e <= Fraction(math.comb(2 * k, k), 4 ** k) <= c_hi * Fraction(2) ** e


def test_series_tables_equal_their_definitions():
    # Bernoulli numbers from sum_{j <= m} C(m + 1, j) B_j = 0
    bernoulli = [Fraction(1)]
    for m in range(1, 2 * len(mcnemar._STIRLING) + 1):
        bernoulli.append(-sum(math.comb(m + 1, j) * bernoulli[j] for j in range(m)) / (m + 1))
    assert [Fraction(*c) for c in mcnemar._STIRLING] == [
        bernoulli[2 * j] / (2 * j * (2 * j - 1)) for j in range(1, len(mcnemar._STIRLING) + 1)]
    # Machin's pi = 16 atan(1/5) - 4 atan(1/239), with 64 guard bits
    one = 1 << (mcnemar._PI_BITS + 64)

    def atan_inv(x):  # atan(1/x) * one, each term floored
        total, power, j = 0, one // x, 1
        while power:
            total += power // j if j % 4 == 1 else -(power // j)
            power //= x * x
            j += 2
        return total

    pi = 16 * atan_inv(5) - 4 * atan_inv(239)
    assert (pi - 4096) >> 64 == mcnemar._PI == (pi + 4096) >> 64


def _integer_path(n01, n10):
    """(exact p, mid-p) from the exact integer tail, as before the fast path."""
    two_sided, point, whole = mcnemar._exact_counts(n01, n10)
    return two_sided / whole, (two_sided - point) / whole


@settings(max_examples=100, deadline=None)
@given(st.integers(16, 64), _DISCORDANT)
@example(16, (3000, 2998))
def test_fixed_point_intervals_hold_the_true_values(bits, counts):
    n, b = sum(counts), max(counts)
    point, tail = _tail_sums(n, b)
    u, u_hi, e = mcnemar._point_interval(n, b, bits)
    assert u * Fraction(2) ** e <= Fraction(point, 2 ** n) <= u_hi * Fraction(2) ** e
    s, s_hi = mcnemar._tail_ratio_interval(n - b, b, bits)
    assert s <= Fraction(tail << bits, point) <= s_hi


def test_low_precision_gives_the_integer_path_doubles(monkeypatch):
    # At 16-64 bits the error bounds are wide enough to straddle rounding
    # boundaries often, so both branches run; an undersized bound would show
    # up here as a wrong double.
    integer_path = mcnemar._exact_counts
    fallbacks = []

    def spy(n01, n10):
        fallbacks.append((n01, n10))
        return integer_path(n01, n10)

    monkeypatch.setattr(mcnemar, "_exact_counts", spy)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(16, 64), _DISCORDANT)
    @example(64, (300, 301))  # a tie the point interval certifies
    @example(16, (3000, 2999))  # a tie it leaves to the integer path
    def check(bits, counts):
        monkeypatch.setattr(mcnemar, "_BITS", bits)
        two_sided, point, whole = integer_path(*counts)
        assert exact_test(*counts) == two_sided / whole
        assert midp_test(*counts) == (two_sided - point) / whole

    check()
    assert fallbacks


@pytest.mark.parametrize(
    "counts",
    [
        (20000, 20000),  # the larger count ahead by 0: the doubled tail capped
        (20001, 20000),  # by 1: the doubled tail is exactly 2**n
        (20001, 19999),  # by 2: the first uncapped pair
        (20100, 19900),  # by about sqrt(n)
        (19400, 20600),  # by about 6 sqrt(n)
    ],
)
def test_large_n_cases_equal_the_integer_path(counts):
    # the subnormal cases (0, 1074) and (1075, 0) are explicit examples of
    # the fraction-oracle property above
    exact_p, mid_p = _integer_path(*counts)
    assert exact_test(*counts) == exact_p
    assert midp_test(*counts) == mid_p


@pytest.mark.parametrize("counts, exact_p, mid_p", [
    ((50000, 50000), 1.0, 0.9974768737858033),
    ((50001, 49999), 0.9974768737858033, 0.9949537980331216),
    ((50158, 49842), 0.31919307907828737, 0.3176616170461294),
    ((48800, 51200), 3.282526442302342e-14, 3.204330900195722e-14),
    ((56080, 43920), 5e-324, 5e-324),  # the last pair before the p-values underflow
    ((43919, 56081), 0.0, 0.0),
    ((500000, 500000), 1.0, 0.9992021156386682),
    ((500001, 499999), 0.9992021156386682, 0.998404232873102),
    ((500500, 499500), 0.3177946913633055, 0.3173107498336104),
    ((497000, 503000), 1.9851497639230208e-09, 1.9729990948858477e-09),
    ((519249, 480751), 5e-324, 5e-324),
    ((480750, 519250), 0.0, 0.0),
])
def test_n_of_1e5_and_1e6_give_the_ratio_product_doubles(counts, exact_p, mid_p):
    # pinned to the doubles of the m-ratio product, where the integer tail is too slow
    assert exact_test(*counts) == exact_p
    assert midp_test(*counts) == mid_p


def test_midp_of_two_int64_maxima_is_the_nearest_double():
    # Gautschi's inequality sqrt(k) < Gamma(k + 1) / Gamma(k + 1/2) < sqrt(k + 1)
    # puts C(2k, k) / 4**k between 1 / sqrt(pi (k + 1)) and 1 / sqrt(pi k)
    k = 2**63 - 1
    with localcontext() as ctx:
        ctx.prec = 60
        pi_lo = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
        pi_hi = pi_lo + Decimal("1e-59")
        slack = Decimal("1e-55")  # above the rounding of 60 digits
        mid_lo = 1 - (1 / (pi_lo * k).sqrt() + slack)
        mid_hi = 1 - (1 / (pi_hi * (k + 1)).sqrt() - slack)
    mid_p = float(Fraction(mid_lo))
    assert mid_p == float(Fraction(mid_hi))
    assert midp_test(k, k) == mid_p
    assert exact_test(k, k) == 1.0


def test_counts_far_apart_underflow_without_a_tail(monkeypatch):
    # Hoeffding's bound puts both p-values below 2**-1075, the half-way point to
    # the least subnormal, so neither the fixed point nor the integer path runs
    for path in ("_certified_pvalues", "_exact_counts"):
        monkeypatch.setattr(mcnemar, path, lambda *_, path=path: pytest.fail(f"{path} ran"))
    assert midp_test(3 * 10**9, 10**9) == 0.0
    assert exact_test(3 * 10**9, 10**9) == 0.0
    assert exact_test(10**9, 3 * 10**9) == 0.0


@pytest.mark.parametrize("test", [asymptotic_test, cc_test, exact_test, midp_test])
def test_numpy_integer_counts_give_the_python_int_result(test):
    p = test(np.int64(40), np.int64(30))
    assert p == test(40, 30)
    assert type(p) is float


@pytest.mark.parametrize("test", [asymptotic_test, cc_test, exact_test, midp_test])
@pytest.mark.parametrize("counts", [(2.5, 1), (1, 2.5), (3.0, 1), (1, np.float64(3))])
def test_non_integer_counts_raise_type_error(test, counts):
    with pytest.raises(TypeError):
        test(*counts)


class TestChiSquareSurvival:
    def test_critical_value(self):
        assert chi2_sf_1df(3.841459) == pytest.approx(0.05, abs=1e-6)

    def test_matches_scipy(self):
        for x in [0.0, 0.5, 1.0, 3.84, 8.1, 35.63, 100.0]:
            assert chi2_sf_1df(x) == pytest.approx(chi2.sf(x, 1), rel=1e-10)


class TestAsymptotic:
    def test_symmetric_counts(self):
        assert asymptotic_test(5, 5) == 1.0

    def test_large_difference(self):
        p = asymptotic_test(62, 11)
        assert p == chi2_sf_1df(51 ** 2 / 73)
        assert p == pytest.approx(2.3856805050512807e-09, rel=1e-9)

    def test_undefined_at_zero(self):
        with pytest.raises(UndefinedStatistic):
            asymptotic_test(0, 0)


class TestContinuityCorrected:
    def test_ten_zero(self):
        p = cc_test(10, 0)
        assert p == chi2_sf_1df(8.1)
        assert p == pytest.approx(0.004426525857919834, rel=1e-10)

    def test_difference_of_one_annihilates(self):
        assert cc_test(6, 5) == 1.0

    def test_undefined_at_zero(self):
        with pytest.raises(UndefinedStatistic):
            cc_test(0, 0)


class TestExact:
    def test_five_zero(self):
        assert exact_test(5, 0) == pytest.approx(0.0625)

    def test_two_one(self):
        # one-sided = (C(3,2) + C(3,3)) / 8 = 0.5, doubled and capped
        assert exact_test(2, 1) == 1.0

    @pytest.mark.parametrize("k", [1, 2, 5, 20])
    def test_symmetric_counts_cap_at_one(self, k):
        assert exact_test(k, k) == 1.0

    @pytest.mark.parametrize("k", [1, 20, 50000])
    def test_counts_at_most_one_apart_never_reach_the_tails(self, k, monkeypatch):
        # the doubled tail reaches 2**n, so the p-value is 1 without C(n, b)
        pvalues, calls = mcnemar._pvalues, []
        monkeypatch.setattr(mcnemar, "_pvalues",
                            lambda *counts: calls.append(counts) or pvalues(*counts))
        for counts in ((k, k), (k, k + 1), (k + 1, k)):
            assert exact_test(*counts) == 1.0
        assert calls == []
        assert exact_test(k, k + 2) < 1.0
        assert calls == [(k, k + 2)]

    def test_matches_oracle_on_random_inputs(self):
        rng = random.Random(17)
        for _ in range(100):
            n01, n10 = rng.randint(0, 40), rng.randint(0, 40)
            if n01 == n10 == 0:
                continue
            assert exact_test(n01, n10) == pytest.approx(
                exact_oracle(n01, n10), abs=1e-14
            )

    def test_large_n_accuracy(self):
        n01, n10 = 5100, 4900
        scipy_p = min(1.0, 2 * binom.sf(5099, 10000, 0.5))
        assert exact_test(n01, n10) == pytest.approx(scipy_p, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
    def test_type_i_error_control_by_enumeration(self, alpha):
        for n in range(1, 13):
            rejection_mass = sum(
                math.comb(n, x) / 2 ** n
                for x in range(n + 1)
                if exact_test(x, n - x) <= alpha
            )
            assert rejection_mass <= alpha + 1e-12


class TestMidP:
    def test_five_zero(self):
        assert midp_test(5, 0) == pytest.approx(0.03125)

    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    def test_symmetric_counts(self, k):
        expected = 1.0 - math.comb(2 * k, k) * 0.5 ** (2 * k)
        assert midp_test(k, k) == pytest.approx(expected, abs=1e-12)

    def test_desk_scale(self):
        assert midp_test(62, 11) < 1e-8

    def test_never_exceeds_exact_and_differs_by_point_probability(self):
        rng = random.Random(29)
        for _ in range(200):
            n01, n10 = rng.randint(0, 50), rng.randint(0, 50)
            if n01 == n10 == 0:
                continue
            n, b = n01 + n10, max(n01, n10)
            exact_p = exact_test(n01, n10)
            mid_p = midp_test(n01, n10)
            assert mid_p <= exact_p
            point = math.comb(n, b) / 2 ** n
            assert exact_p - mid_p == pytest.approx(point, abs=1e-12)

    def test_undefined_at_zero(self):
        with pytest.raises(UndefinedStatistic):
            midp_test(0, 0)


def test_every_test_symmetric_in_arguments():
    rng = random.Random(41)
    for test in (asymptotic_test, exact_test, cc_test, midp_test):
        for _ in range(50):
            a, b = rng.randint(0, 30), rng.randint(0, 30)
            if a == b == 0:
                continue
            assert test(a, b) == test(b, a)


def test_asymptotic_close_to_exact_for_large_balanced_samples():
    # Sanity band, not a theorem.  The doubled exact tail sits above the
    # chi-square approximation by about the binomial point probability
    # (~0.05 at n ~ 200), so the tight band is checked against mid-p, the
    # continuity-matched variant, and a looser one against the exact test.
    rng = random.Random(53)
    for _ in range(100):
        n = rng.randint(100, 400)
        diff = rng.randint(0, int(math.sqrt(n)))
        n01 = (n + diff) // 2
        n10 = n - n01
        if n01 == n10:
            # at exact ties the capped two-sided definition pins mid-p at
            # 1 - point probability while the asymptotic p is exactly 1
            continue
        p_asym = asymptotic_test(n01, n10)
        assert abs(p_asym - midp_test(n01, n10)) <= 0.01
        # point probability at n = 100 is ~0.08, bounding the exact-test gap
        assert abs(p_asym - exact_test(n01, n10)) <= 0.09
