"""String metrics and assignment against brute-force oracles."""

import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from alignsig import matcher
from alignsig.errors import EmptyTable
from alignsig.matcher import (
    MetricKind,
    SimilarityMatrix,
    build_similarity_matrix,
    extract_alignment,
    hungarian_assign,
    match,
    normalize,
    similarity,
)

ALL_METRICS = list(MetricKind)


def levenshtein_oracle(a, b):
    """Plain DP edit distance, independent of the implementation under test."""
    d = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        d[i][0] = i
    for j in range(len(b) + 1):
        d[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            d[i][j] = min(
                d[i - 1][j] + 1,
                d[i][j - 1] + 1,
                d[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return d[len(a)][len(b)]


def scalar_levenshtein_distance(a, b):
    """Two-row DP edit distance: the scalar path the bit-parallel kernel replaced."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def scalar_levenshtein(a, b):
    """The matcher's Levenshtein similarity, as the scalar path computed it."""
    longer = max(len(a), len(b))
    if longer == 0:
        return 1.0
    return 1.0 - scalar_levenshtein_distance(a, b) / longer


def oracle_matrix(src, tgt):
    return np.array([[scalar_levenshtein(a, b) for b in tgt] for a in src]).reshape(
        len(src), len(tgt)
    )


SCALAR_METRICS = {
    MetricKind.EQUAL: matcher._equal,
    MetricKind.HAMMING: matcher._hamming,
    MetricKind.JARO: matcher._jaro,
    MetricKind.JARO_WINKLER: matcher._jaro_winkler,
    MetricKind.LEVENSHTEIN: scalar_levenshtein,
    MetricKind.NGRAM: matcher._ngram,
    MetricKind.NEEDLEMAN_WUNSCH: matcher._needleman_wunsch,
    MetricKind.SMOA: matcher._smoa,
    MetricKind.SUBSTRING: matcher._substring,
}


def pair_oracle(metric, a, b):
    """The per-pair path the single matrix path replaced: the empty-label
    convention, then the scalar metric clamped to [0, 1]."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return min(1.0, max(0.0, SCALAR_METRICS[metric](a, b)))


def regex_normalize(raw_label):
    """The regex form normalize replaced: collapse runs of \\s, then trim."""
    text = raw_label.casefold().replace("_", " ").replace("-", " ")
    return re.sub(r"\s+", " ", text).strip()


def dp_longest_common_substring(a, b):
    """The row DP that difflib's find_longest_match replaced: (length,
    start_a, start_b), the first maximum met by end in a, then end in b."""
    best = (0, 0, 0)
    prev = [0] * (len(b) + 1)
    for i in range(1, len(a) + 1):
        cur = [0] * (len(b) + 1)
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                cur[j] = prev[j - 1] + 1
                if cur[j] > best[0]:
                    best = (cur[j], i - cur[j], j - cur[j])
        prev = cur
    return best


class TestNormalize:
    # whitespace of every kind str.isspace knows (tab, newline, the file
    # separator, NEL, no-break and ideographic spaces), the two separators,
    # and letters that casefold changes or lengthens
    @given(st.text(alphabet="\t \n\x1c\x85\xa0\u3000_-aBßİ", max_size=20))
    def test_equals_the_regex_form(self, label):
        assert normalize(label) == regex_normalize(label)

    def test_underscores_and_case(self):
        assert normalize("Trigeminal_Nerve") == "trigeminal nerve"

    def test_trimming(self):
        assert normalize("  eye  ") == "eye"

    def test_hyphen_and_plus(self):
        assert normalize("CD4+ T-cell") == "cd4+ t cell"


class TestMetrics:
    def test_levenshtein_kitten_sitting(self):
        assert levenshtein_oracle("kitten", "sitting") == 3
        assert similarity(MetricKind.LEVENSHTEIN, "kitten", "sitting") == pytest.approx(
            1 - 3 / 7
        )

    def test_jaro_martha(self):
        assert similarity(MetricKind.JARO, "martha", "marhta") == pytest.approx(
            0.9444444444444445
        )

    def test_jaro_winkler_martha(self):
        assert similarity(MetricKind.JARO_WINKLER, "martha", "marhta") == pytest.approx(
            0.9611111111111111
        )

    def test_equal_after_normalization(self):
        assert similarity(MetricKind.EQUAL, "mouse", "mouse") == 1.0
        assert similarity(MetricKind.EQUAL, normalize("mouse"), normalize("Mouse")) == 1.0
        assert similarity(MetricKind.EQUAL, "mouse", "house") == 0.0

    def test_hamming(self):
        # 1 mismatch over min length + 1 length difference, over max length 4
        assert similarity(MetricKind.HAMMING, "abc", "axcd") == pytest.approx(0.5)

    # two to four letters make ties between longest substrings common
    @given(st.sampled_from(["ab", "abc", "abcd"]).flatmap(
        lambda alphabet: st.tuples(st.text(alphabet, max_size=12),
                                   st.text(alphabet, max_size=12))))
    def test_longest_common_substring_equals_the_dp(self, pair):
        assert matcher._longest_common_substring(*pair) == dp_longest_common_substring(*pair)

    def test_longest_common_substring_keeps_frequent_characters(self):
        # difflib's autojunk would ignore "a" here: it fills over 1% of a
        # b of 200+ characters
        a, b = "x" + "a" * 5, "a" * 150 + "y" * 60
        assert matcher._longest_common_substring(a, b) == (5, 1, 0)
        assert matcher._longest_common_substring("", "") == (0, 0, 0)

    def test_substring(self):
        assert similarity(MetricKind.SUBSTRING, "abcde", "xbcdx") == pytest.approx(
            2 * 3 / 10
        )

    def test_ngram_short_strings_fall_back_to_equal(self):
        assert similarity(MetricKind.NGRAM, "ab", "ab") == 1.0
        assert similarity(MetricKind.NGRAM, "ab", "ba") == 0.0

    def test_needleman_wunsch_identical(self):
        assert similarity(MetricKind.NEEDLEMAN_WUNSCH, "gene", "gene") == 1.0

    def test_levenshtein_matches_oracle_randomized(self):
        rng = random.Random(13)
        for _ in range(100):
            # up to 140 characters: patterns of one, two and three 64-bit words
            a = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 140)))
            b = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 140)))
            longer = max(len(a), len(b))
            expected = 1.0 if longer == 0 else 1 - levenshtein_oracle(a, b) / longer
            if not a and b or a and not b:
                expected = 0.0  # empty-vs-nonempty convention
            assert similarity(MetricKind.LEVENSHTEIN, a, b) == expected

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_range_symmetry_reflexivity(self, metric):
        rng = random.Random(19)
        words = ["", "a", "ab", "abc", "nerve", "trigeminal nerve", "cd4+ t cell"]
        for _ in range(100):
            a, b = rng.choice(words), rng.choice(words)
            s = similarity(metric, a, b)
            assert 0.0 <= s <= 1.0
            assert s == pytest.approx(similarity(metric, b, a))
        for w in words:
            if w:
                assert similarity(metric, w, w) == 1.0

    def test_jaro_winkler_dominates_jaro_with_common_prefix(self):
        rng = random.Random(31)
        for _ in range(100):
            a = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 8)))
            b = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 8)))
            j = similarity(MetricKind.JARO, a, b)
            jw = similarity(MetricKind.JARO_WINKLER, a, b)
            if a[0] == b[0]:
                assert jw >= j - 1e-12
            else:
                assert jw == pytest.approx(j)


# short labels over a few letters, so that labels share characters, some of
# them empty after normalization
_SHORT_LABELS = st.lists(
    st.sampled_from(["__", "-", " _ "]) | st.text(alphabet="abAé_- ", max_size=7),
    min_size=1, max_size=4,
)


def label_rows(tag, labels):
    return tuple((f"{tag}{i}", label) for i, label in enumerate(labels))


class TestSimilarityMatrix:
    def test_one_by_one_identical(self):
        src = (("s1", "eye"),)
        tgt = (("t1", "Eye"),)
        m = build_similarity_matrix(src, tgt, MetricKind.EQUAL)
        assert m.s[0, 0] == 1.0

    def test_exact_match_is_row_and_col_max(self):
        src = (("s1", "eye"), ("s2", "ear"))
        tgt = (("t1", "eye"), ("t2", "elbow"))
        m = build_similarity_matrix(src, tgt, MetricKind.LEVENSHTEIN)
        assert m.s[0, 0] == m.s[0].max() == m.s[:, 0].max() == 1.0

    def test_entries_equal_recomputation(self):
        rng = random.Random(37)
        labels = lambda n, tag: tuple(
            (f"{tag}{i}", "".join(rng.choice("abcdef ") for _ in range(6)).strip() or "x")
            for i in range(n)
        )
        src, tgt = labels(20, "s"), labels(20, "t")
        m = build_similarity_matrix(src, tgt, MetricKind.NGRAM)
        for i, (_, la) in enumerate(src):
            for j, (_, lb) in enumerate(tgt):
                assert m.s[i, j] == similarity(
                    MetricKind.NGRAM, normalize(la), normalize(lb)
                )

    @pytest.mark.parametrize("metric", ALL_METRICS)
    @settings(max_examples=30, deadline=None)
    @given(_SHORT_LABELS, _SHORT_LABELS)
    def test_entries_equal_the_pair_oracle(self, metric, src, tgt):
        m = build_similarity_matrix(label_rows("s", src), label_rows("t", tgt), metric)
        assert m.s.shape == (len(src), len(tgt))
        for i, a in enumerate(src):
            for j, b in enumerate(tgt):
                assert m.s[i, j] == pair_oracle(metric, normalize(a), normalize(b))

    def test_empty_table_rejected(self):
        with pytest.raises(EmptyTable):
            build_similarity_matrix((), (("t", "x"),), MetricKind.EQUAL)


# a small alphabet, so that labels share characters, plus non-ASCII characters,
# one of them outside the Basic Multilingual Plane
_LABEL_CHARS = "ab é" + "ß\u0416\u6f22\U0001F600"
# up to 12 labels a side, so that many segments of the packed sources lie side
# by side
_LABELS = st.lists(st.text(alphabet=_LABEL_CHARS, max_size=150), min_size=1, max_size=12)
# lengths on both sides of 64 and 128 characters, one and two 64-bit words
_BOUNDARY_LENGTHS = (0, 1, 2, 63, 64, 65, 127, 128, 129, 150)


class TestLevenshteinKernel:
    @settings(max_examples=60, deadline=None)
    @given(_LABELS, _LABELS)
    def test_matrix_equals_scalar_oracle(self, src, tgt):
        assert np.array_equal(matcher._levenshtein_matrix(src, tgt), oracle_matrix(src, tgt))

    def test_word_boundary_lengths(self):
        rng = random.Random(53)
        labels = ["".join(rng.choice("abc") for _ in range(n)) for n in _BOUNDARY_LENGTHS]
        # long labels that differ only past the first word
        labels += ["a" * 70 + "b" * 60, "a" * 70 + "c" * 60, "x" + "a" * 149]
        assert np.array_equal(matcher._levenshtein_matrix(labels, labels[::-1]),
                              oracle_matrix(labels, labels[::-1]))
        # runs of one letter side by side, some of them empty, against runs of
        # that letter: every carry and shift reaches the top of its segment
        runs = ["a" * rng.randint(0, 6) for _ in range(40)]
        targets = ["a" * n for n in (0, 1, 3, 6, 9)]
        assert "" in runs
        assert np.array_equal(matcher._levenshtein_matrix(runs, targets),
                              oracle_matrix(runs, targets))

    def test_labels_empty_after_normalization(self):
        src = (("s1", "__"), ("s2", "eye"), ("s3", "-"))
        tgt = (("t1", "-"), ("t2", "Eye"), ("t3", "ear"))
        m = build_similarity_matrix(src, tgt, MetricKind.LEVENSHTEIN)
        assert m.s.tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 1 - 2 / 3], [1.0, 0.0, 0.0]]

    @pytest.mark.parametrize("src, tgt", [
        (["eye"], ["eye", "ear", "", "optic nerve", "a" * 100]),
        (["eye", "ear", "", "optic nerve", "a" * 100], ["eye"]),
    ])
    def test_single_row_and_single_column(self, src, tgt):
        m = matcher._levenshtein_matrix(src, tgt)
        assert m.shape == (len(src), len(tgt))
        assert np.array_equal(m, oracle_matrix(src, tgt))

    def test_similarity_is_a_view_of_the_matrix(self):
        labels = ["", "eye", "ear", "optic nerve", "nerve optic", "b" * 90]
        m = matcher._levenshtein_matrix(labels, labels)
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                assert similarity(MetricKind.LEVENSHTEIN, a, b) == m[i, j]


def brute_force_max(s):
    rows, cols = s.shape
    best = -1.0
    if rows <= cols:
        for perm in itertools.permutations(range(cols), rows):
            best = max(best, sum(s[i, perm[i]] for i in range(rows)))
    else:
        for perm in itertools.permutations(range(rows), cols):
            best = max(best, sum(s[perm[j], j] for j in range(cols)))
    return best


class TestHungarian:
    def test_cost_form_example(self):
        cost = np.array([[4.0, 1, 3], [2, 0, 5], [3, 2, 2]])
        sim = SimilarityMatrix(("r0", "r1", "r2"), ("c0", "c1", "c2"),
                               1 - cost / cost.max())
        pairs = hungarian_assign(sim)
        assert pairs == [(0, 1), (1, 0), (2, 2)]
        assert sum(cost[i, j] for i, j in pairs) == 5

    def test_identity_matrix(self):
        sim = SimilarityMatrix(("a", "b", "c"), ("x", "y", "z"), np.eye(3))
        assert hungarian_assign(sim) == [(0, 0), (1, 1), (2, 2)]

    def test_200_random_matrices_match_brute_force(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            rows = rng.integers(1, 8)
            cols = rng.integers(1, 8)
            s = rng.random((rows, cols))
            sim = SimilarityMatrix(
                tuple(f"r{i}" for i in range(rows)),
                tuple(f"c{j}" for j in range(cols)),
                s,
            )
            pairs = hungarian_assign(sim)
            assert len(pairs) == min(rows, cols)
            total = sum(s[i, j] for i, j in pairs)
            assert total == pytest.approx(brute_force_max(s), abs=1e-9)


def scipy_pairs(s):
    """The oracle: scipy's solver, whose pairs hungarian_assign must reproduce."""
    rows, cols = linear_sum_assignment(s, maximize=True)
    return sorted(zip(rows.tolist(), cols.tolist()))


def index_matrix(s):
    return SimilarityMatrix(tuple(f"r{i}" for i in range(s.shape[0])),
                            tuple(f"c{j}" for j in range(s.shape[1])), s)


# matrices of any similarities, or of three values, so that ties are common
_MATRICES = st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(
    lambda shape: arrays(float, shape, elements=st.floats(0, 1))
    | arrays(float, shape, elements=st.sampled_from([0.0, 0.5, 1.0])))


class TestScipyOracle:
    @settings(max_examples=400, deadline=None)
    @given(_MATRICES)
    def test_same_pairs_as_scipy_in_both_orientations(self, s):
        assert hungarian_assign(index_matrix(s)) == scipy_pairs(s)
        assert hungarian_assign(index_matrix(s.T)) == scipy_pairs(s.T)

    def test_levenshtein_label_matrix_200x200(self):
        # anatomy-style labels over a few words, so similarities repeat a lot
        rng = random.Random(67)
        words = "optic nerve bone skull lobe duct vein artery gland left right".split()
        src = [" ".join(rng.sample(words, rng.randint(1, 3))) for _ in range(200)]
        tgt = [label.upper().replace(" ", "_") if rng.random() < 0.5
               else " ".join(rng.sample(words, rng.randint(1, 3))) for label in src]
        rng.shuffle(tgt)
        sim = build_similarity_matrix(label_rows("s", src), label_rows("t", tgt),
                                      MetricKind.LEVENSHTEIN)
        assert len(np.unique(sim.s)) < 200  # ties abound
        assert hungarian_assign(sim) == scipy_pairs(sim.s)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_matrix(self, shape):
        assert hungarian_assign(index_matrix(np.zeros(shape))) == []

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            hungarian_assign(index_matrix(np.array([[0.5, bad]])))


class TestExtract:
    def make(self):
        s = np.array([[1.0, 0.2, 0.1], [0.3, 0.9, 0.2], [0.1, 0.2, 0.5]])
        return SimilarityMatrix(("s0", "s1", "s2"), ("t0", "t1", "t2"), s)

    def test_threshold_zero_keeps_all(self):
        sim = self.make()
        a = extract_alignment(sim, hungarian_assign(sim), 0.0, "m")
        assert len(a) == 3

    def test_threshold_one_keeps_exact_only(self):
        sim = self.make()
        a = extract_alignment(sim, hungarian_assign(sim), 1.0, "m")
        assert a.pairs == {("s0", "t0"): 1.0}

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, float("nan")])
    def test_match_checks_the_threshold_before_any_work(self, monkeypatch, threshold):
        def unreachable(*args):
            raise AssertionError("similarity matrix built before the threshold check")
        monkeypatch.setattr(matcher, "build_similarity_matrix", unreachable)
        labels = label_rows("s", ["eye", "ear"])
        with pytest.raises(ValueError, match="threshold"):
            match(labels, labels, MetricKind.SMOA, threshold, "m")

    def test_threshold_filters_expected_count(self):
        sim = self.make()
        a = extract_alignment(sim, hungarian_assign(sim), 0.8, "m")
        assert len(a) == 2


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_end_to_end_identity_on_shared_labels(metric):
    rows = (("a", "optic nerve"), ("b", "retina"), ("c", "lens"))
    tgt = tuple((f"t_{i}", l) for i, l in rows)
    a = match(rows, tgt, metric, threshold=1.0, system_name="m")
    assert set(a.pairs) == {(i, f"t_{i}") for i, _ in rows}
