"""Adjusted p-values: hand-stepped fixtures, partition oracles, dominance chains."""

import itertools
import math
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from alignsig.errors import ModeMismatch, TooManySystems
from alignsig.fwer import (
    HypothesisSet,
    adjust_bergmann,
    adjust_bonferroni,
    adjust_finner,
    adjust_hochberg,
    adjust_holland,
    adjust_holm,
    adjust_nemenyi,
    adjust_shaffer,
    bergmann_exhaustive_sets,
    shaffer_true_counts,
)
from alignsig.model import Mode


def nxn_hypotheses(pvals):
    """Build an NxN HypothesisSet for n systems from k = n(n-1)/2 p-values."""
    n = round((1 + math.isqrt(1 + 8 * len(pvals))) / 2)
    assert n * (n - 1) // 2 == len(pvals)
    return HypothesisSet(n, tuple(pvals), Mode.NXN)


def nx1_hypotheses(pvals):
    return HypothesisSet(len(pvals) + 1, tuple(pvals), Mode.NX1)


def rejected_at(apv, alpha):
    """Indices of hypotheses with APV strictly below alpha."""
    return [i for i, v in enumerate(apv) if v < alpha]


def partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield [[first]] + part


def oracle_true_counts(n):
    """Counts of within-class pairs over all partitions of n systems."""
    out = set()
    for part in partitions(list(range(n))):
        out.add(sum(math.comb(len(cls), 2) for cls in part))
    return out


@lru_cache(maxsize=None)
def oracle_exhaustive_sets(n):
    pair_idx = {p: i for i, p in enumerate(itertools.combinations(range(n), 2))}
    sets = set()
    for part in partitions(list(range(n))):
        members = frozenset(
            pair_idx[pair]
            for cls in part
            for pair in itertools.combinations(sorted(cls), 2)
        )
        sets.add(members)
    return frozenset(sets)


def oracle_bergmann_apv(pvals):
    """Bergmann APVs by brute force: max over exhaustive I containing i of |I| min p_I."""
    n = round((1 + math.isqrt(1 + 8 * len(pvals))) / 2)
    apv = [0.0] * len(pvals)
    for ex in oracle_exhaustive_sets(n):
        if not ex:
            continue
        bound = len(ex) * min(pvals[i] for i in ex)
        for i in ex:
            if bound > apv[i]:
                apv[i] = bound
    return tuple(min(1.0, v) for v in apv)


class TestHypothesisSet:
    @pytest.mark.parametrize("mode, n_systems, k", [
        (Mode.NXN, 3, 2),  # the B-C pair of three systems missing
        (Mode.NXN, 3, 4),
        (Mode.NX1, 3, 3),
        (Mode.NX1, 3, 1),
    ])
    def test_rejects_a_family_of_the_wrong_size(self, mode, n_systems, k):
        with pytest.raises(ValueError, match="hypotheses"):
            HypothesisSet(n_systems, (0.1,) * k, mode)

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_rejects_p_outside_the_unit_interval(self, p):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            HypothesisSet(3, (0.1, p, 0.2), Mode.NXN)

    def test_k_counts_the_hypotheses(self):
        assert nxn_hypotheses([0.5] * 45).k == 45
        assert nx1_hypotheses([0.5] * 9).k == 9


class TestSingleStep:
    def test_bonferroni_direct_product(self):
        h = nx1_hypotheses([0.03] * 10)
        assert adjust_bonferroni(h) == tuple([0.3] * 10)

    def test_bonferroni_clamp(self):
        h = nx1_hypotheses([0.2] * 10)
        assert adjust_bonferroni(h) == tuple([1.0] * 10)

    def test_fwer_motivation_arithmetic(self):
        # with 5 systems, k = 10; P(no type-I over 10 tests at alpha=.05)
        k = 5 * 4 // 2
        assert k == 10
        no_error = (1 - 0.05) ** k
        assert no_error == pytest.approx(0.5987369392383787, abs=1e-3)
        assert round(no_error, 1) == 0.6
        assert round(1 - no_error, 1) == 0.4

    def test_nemenyi_equals_bonferroni(self):
        h = nxn_hypotheses([0.001] * 45)  # n = 10
        assert adjust_nemenyi(h) == adjust_bonferroni(h)
        assert adjust_nemenyi(h)[0] == 0.045

    def test_nemenyi_small(self):
        h = nxn_hypotheses([0.01, 0.5, 0.9])
        assert adjust_nemenyi(h) == pytest.approx((0.03, 1.0, 1.0))

    def test_nemenyi_mode_mismatch(self):
        with pytest.raises(ModeMismatch):
            adjust_nemenyi(nx1_hypotheses([0.01, 0.5]))


class TestStepwise:
    def test_holm_hand_stepped(self):
        h = nx1_hypotheses([0.001, 0.02, 0.03])
        assert adjust_holm(h) == pytest.approx((0.003, 0.04, 0.04))

    def test_holm_single_hypothesis(self):
        h = nx1_hypotheses([0.2])
        assert adjust_holm(h) == (0.2,)

    def test_holm_all_equal(self):
        h = nx1_hypotheses([0.01] * 4)
        assert adjust_holm(h) == pytest.approx((0.04,) * 4)

    def test_holland_hand_stepped(self):
        h = nx1_hypotheses([0.01, 0.02])
        apv = adjust_holland(h)
        assert apv[0] == pytest.approx(1 - 0.99 ** 2)
        assert apv[1] == pytest.approx(0.02)

    def test_holland_zero(self):
        assert adjust_holland(nx1_hypotheses([0.0])) == (0.0,)

    def test_finner_hand_stepped(self):
        h = nx1_hypotheses([0.01, 0.02])
        apv = adjust_finner(h)
        assert apv[0] == pytest.approx(1 - 0.99 ** 2)
        assert apv[1] == pytest.approx(0.02)

    def test_finner_single(self):
        assert adjust_finner(nx1_hypotheses([0.3])) == pytest.approx((0.3,))

    def test_hochberg_hand_stepped(self):
        h = nx1_hypotheses([0.01, 0.04, 0.04])
        assert adjust_hochberg(h) == pytest.approx((0.03, 0.04, 0.04))

    def test_hochberg_single(self):
        assert adjust_hochberg(nx1_hypotheses([0.7])) == (0.7,)

    def test_results_in_caller_order(self):
        h = nx1_hypotheses([0.03, 0.001, 0.02])
        apv = adjust_holm(h)
        assert apv == pytest.approx((0.04, 0.003, 0.04))


class TestShaffer:
    def test_true_counts_small(self):
        assert shaffer_true_counts(1) == {0}
        assert shaffer_true_counts(3) == {0, 1, 3}
        assert shaffer_true_counts(4) == {0, 1, 2, 3, 6}

    @pytest.mark.parametrize("n", range(8))
    def test_true_counts_match_partition_oracle(self, n):
        assert shaffer_true_counts(n) == oracle_true_counts(n)

    def test_hand_stepped_n3(self):
        h = nxn_hypotheses([0.01, 0.02, 0.03])
        # t = [3, 1, 1] from S(3) = {0, 1, 3}
        assert adjust_shaffer(h) == pytest.approx((0.03, 0.03, 0.03))

    def test_n2_equals_holm(self):
        h = nxn_hypotheses([0.04])
        assert adjust_shaffer(h) == adjust_holm(h)

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatch):
            adjust_shaffer(nx1_hypotheses([0.01, 0.5]))


class TestBergmann:
    def test_exhaustive_sets_n3(self):
        sets = set(bergmann_exhaustive_sets(3))
        # pair indices: 0 = (0,1), 1 = (0,2), 2 = (1,2)
        assert sets == {
            frozenset(),
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
            frozenset({0, 1, 2}),
        }

    def test_exhaustive_sets_n2(self):
        assert set(bergmann_exhaustive_sets(2)) == {frozenset(), frozenset({0})}

    @pytest.mark.parametrize("n", range(2, 8))
    def test_exhaustive_sets_match_partition_oracle(self, n):
        sets = bergmann_exhaustive_sets(n)
        assert len(sets) == len(oracle_exhaustive_sets(n))
        assert set(sets) == oracle_exhaustive_sets(n)
        assert sets == sorted(sets, key=lambda s: (len(s), sorted(s)))

    def test_adjust_enforces_cap(self):
        h = nxn_hypotheses([0.5] * 10)  # n = 5
        with pytest.raises(TooManySystems):
            adjust_bergmann(h, cap=4)
        assert adjust_bergmann(h, cap=5) == oracle_bergmann_apv([0.5] * 10)

    def test_apv_equals_partition_oracle_n10(self):
        rng = random.Random(10)
        pool = [0.0, 0.5, 1.0, 1e-4, 0.01]
        pvals = [rng.choice(pool) if rng.random() < 0.3 else rng.random()
                 for _ in range(45)]
        assert adjust_bergmann(nxn_hypotheses(pvals)) == oracle_bergmann_apv(pvals)

    def test_cap_enforced(self):
        with pytest.raises(TooManySystems):
            bergmann_exhaustive_sets(5, cap=4)
        assert bergmann_exhaustive_sets(5, cap=5)

    def test_acceptance_set_example_n3(self):
        h = nxn_hypotheses([0.001, 0.2, 0.3])
        result = adjust_bergmann(h)
        rejected = rejected_at(result, 0.05)
        assert rejected == [0]  # only H(S0,S1)
        # full set fails: min p = 0.001 <= 0.05 / 3
        assert result[0] == pytest.approx(0.003)
        assert result[1] == pytest.approx(0.2)
        assert result[2] == pytest.approx(0.3)

    def test_all_ones_rejects_nothing(self):
        h = nxn_hypotheses([1.0] * 6)
        assert rejected_at(adjust_bergmann(h), 0.999) == []

    def test_n2_matches_unadjusted_decision(self):
        h = nxn_hypotheses([0.04])
        assert adjust_bergmann(h) == (0.04,)

    def test_decision_matches_direct_acceptance_set(self):
        import random
        rng = random.Random(61)
        for _ in range(50):
            pvals = [round(rng.random(), 3) for _ in range(6)]  # n = 4
            h = nxn_hypotheses(pvals)
            result = adjust_bergmann(h)
            for alpha in (0.01, 0.05, 0.2, 0.7):
                accepted = set()
                for ex in bergmann_exhaustive_sets(4):
                    if ex and min(pvals[i] for i in ex) > alpha / len(ex):
                        accepted |= ex
                direct_rejections = [i for i in range(6) if i not in accepted]
                assert rejected_at(result, alpha) == direct_rejections


@st.composite
def bergmann_pvals(draw, max_n=8):
    """k = n(n-1)/2 p-values for 2 <= n <= max_n, with ties, 0.0 and 1.0 frequent."""
    n = draw(st.integers(2, max_n))
    value = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 0.01]), st.floats(0, 1))
    return draw(st.lists(value, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))


@given(bergmann_pvals())
def test_bergmann_apv_equals_partition_oracle(pvals):
    assert adjust_bergmann(nxn_hypotheses(pvals)) == oracle_bergmann_apv(pvals)


# Past the partition oracle's reach (n <= 10): properties up to n = 12, where
# one adjustment takes up to about 0.15 s, so the example counts stay small.
@settings(max_examples=10, deadline=None)
@given(bergmann_pvals(max_n=12), st.data())
def test_bergmann_relabelling_permutes_the_apvs(pvals, data):
    h = nxn_hypotheses(pvals)
    n = h.n_systems
    label = data.draw(st.permutations(range(n)))
    pairs = list(itertools.combinations(range(n), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    moved = [index[tuple(sorted((label[a], label[b])))] for a, b in pairs]
    relabelled = [0.0] * h.k
    for i, j in enumerate(moved):
        relabelled[j] = pvals[i]
    apv = adjust_bergmann(h, cap=n)
    relabelled_apv = adjust_bergmann(nxn_hypotheses(relabelled), cap=n)
    assert [relabelled_apv[j] for j in moved] == list(apv)


@settings(max_examples=10, deadline=None)
@given(bergmann_pvals(max_n=12))
def test_bergmann_never_exceeds_shaffer(pvals):
    h = nxn_hypotheses(pvals)
    shaffer = adjust_shaffer(h)
    assert all(b <= s for b, s in zip(adjust_bergmann(h, cap=h.n_systems), shaffer))


pvec = st.lists(st.floats(0, 1, allow_nan=False), min_size=3, max_size=45)


@given(pvec)
def test_apv_at_least_raw_p(pvals):
    h = nx1_hypotheses(pvals)
    for fn in (adjust_bonferroni, adjust_holm, adjust_holland,
               adjust_finner, adjust_hochberg):
        result = fn(h)
        for p, apv in zip(h.raw_p, result):
            assert apv >= p - 1e-12


@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=3, max_size=3))
def test_dominance_chain_nxn(pvals):
    h = nxn_hypotheses(pvals)
    bonf = adjust_bonferroni(h)
    holm = adjust_holm(h)
    shaf = adjust_shaffer(h)
    hoch = adjust_hochberg(h)
    holl = adjust_holland(h)
    finn = adjust_finner(h)
    for i in range(3):
        assert bonf[i] >= holm[i] - 1e-12
        assert holm[i] >= shaf[i] - 1e-12
        assert holm[i] >= hoch[i] - 1e-12
        assert holm[i] >= holl[i] - 1e-12
        assert holl[i] >= finn[i] - 1e-12


def test_stepdown_apvs_nondecreasing_in_p_order():
    import random
    rng = random.Random(71)
    for _ in range(50):
        pvals = sorted(rng.random() for _ in range(6))
        h = nx1_hypotheses(pvals)
        for fn in (adjust_holm, adjust_holland, adjust_finner):
            apv = fn(h)
            assert list(apv) == sorted(apv)
