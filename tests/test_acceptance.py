"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import itertools
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from alignsig.contingency import (
    build_discordant_matrix,
    build_table,
    parse_matrix_tsv,
)
from alignsig.data import fixture_bytes
from alignsig.errors import UndefinedStatistic
from alignsig.fwer import bergmann_exhaustive_sets, shaffer_true_counts
from alignsig.matcher import SimilarityMatrix, hungarian_assign
from alignsig.mcnemar import (
    asymptotic_test,
    cc_test,
    chi2_sf_1df,
    exact_test,
    midp_test,
)
from alignsig.model import (
    ComparisonConfig,
    Correction,
    Perspective,
    TestKind,
    canonicalize_alignment,
)
from alignsig.siggraph import build_graph, build_report, emit_dot, rank_systems, serialize_report

GOLDEN = Path(__file__).parent / "golden"


def report_pass(criterion):
    print(f"PASS: {criterion}")


def bergmann_cfg(**kw):
    defaults = dict(test=TestKind.MIDP, correction=Correction.BERGMANN,
                    alpha=0.05, bergmann_cap=10)
    defaults.update(kw)
    return ComparisonConfig(**defaults)


def load(name, persp):
    return parse_matrix_tsv(fixture_bytes(name), persp)


def test_criterion_1_ifp_fixture_ranking():
    start = time.monotonic()
    m = load("anatomy-ifp", Perspective.IFP)
    ranks = rank_systems(build_graph(m, bergmann_cfg()))
    elapsed = time.monotonic() - start
    assert ranks == (
        ("AML",),
        ("CroMatcher",),
        ("LYAM", "XMap"),
        ("FCA-Map",),
        ("Lily",),
        ("LogMapLite", "LPHOM"),
        ("Alin",),
        ("DKP-AOM",),
    )
    assert elapsed < 10.0
    report_pass(f"criterion 1: IFP ranking reproduced in {elapsed:.1f}s")


def test_criterion_2_cfp_fixture_ranking():
    m = load("anatomy-cfp", Perspective.CFP)
    cfg = bergmann_cfg()
    graph = build_graph(m, cfg)
    ranks = rank_systems(graph)
    assert ranks == (
        ("AML",),
        ("CroMatcher",),
        ("FCA-Map", "XMap"),
        ("LYAM",),
        ("Lily", "LogMapLite"),
        ("LPHOM",),
        ("Alin",),
        ("DKP-AOM",),
    )
    assert any(e.winner == "LogMapLite" and e.loser == "LPHOM" for e in graph.edges)
    report_pass("criterion 2: CFP ranking reproduced, LogMapLite -> LPHOM significant")


def test_criterion_3_correction_contrast():
    m_ifp = load("anatomy-ifp", Perspective.IFP)
    edges = lambda m, cfg: {(e.winner, e.loser) for e in build_graph(m, cfg).edges}
    bergmann_ifp = edges(m_ifp, bergmann_cfg())
    nemenyi_ifp = edges(m_ifp, bergmann_cfg(correction=Correction.NEMENYI))
    assert bergmann_ifp ^ nemenyi_ifp == {("CroMatcher", "LYAM")}

    m_cfp = load("anatomy-cfp", Perspective.CFP)
    bergmann_cfp = edges(m_cfp, bergmann_cfg())
    nemenyi_cfp = edges(
        m_cfp, bergmann_cfg(correction=Correction.NEMENYI)
    )
    extra = bergmann_cfp - nemenyi_cfp
    assert ("FCA-Map", "LYAM") in extra
    assert ("LYAM", "LogMapLite") in extra
    report_pass("criterion 3: Nemenyi/Bergmann edge sets differ exactly as published")


def test_criterion_4_fwer_arithmetic():
    k = 5 * 4 // 2
    no_type_i = (1 - 0.05) ** k
    assert no_type_i == pytest.approx(0.5987369392383787, abs=1e-3)
    assert round(no_type_i, 1) == 0.6
    assert round(1 - no_type_i, 1) == 0.4
    report_pass("criterion 4: FWER motivating arithmetic (0.95^10 -> 0.60 / 0.40)")


def test_criterion_5_statistical_properties():
    for alpha in (0.01, 0.05, 0.1):
        for n in range(1, 13):
            mass = sum(
                math.comb(n, x) / 2 ** n
                for x in range(n + 1)
                if exact_test(x, n - x) <= alpha
            )
            assert mass <= alpha + 1e-12
    rng = random.Random(97)
    for _ in range(500):
        n01, n10 = rng.randint(0, 60), rng.randint(0, 60)
        if n01 == n10 == 0:
            continue
        assert midp_test(n01, n10) <= exact_test(n01, n10)
    assert chi2_sf_1df(3.841459) == pytest.approx(0.05, abs=1e-6)
    for test in (asymptotic_test, cc_test):
        with pytest.raises(UndefinedStatistic):
            test(0, 0)
        assert test(0, 1) <= 1.0  # defined off the origin
    report_pass("criterion 5: type-I control, mid-p <= exact, chi2 critical value, "
                "(0,0) undefined")


def _partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield [[first]] + part


def test_criterion_6_oracle_equivalence():
    # Shaffer counts vs partition brute force
    for n in range(8):
        oracle = {
            sum(math.comb(len(c), 2) for c in part)
            for part in _partitions(list(range(n)))
        }
        assert shaffer_true_counts(n) == oracle

    # Bergmann exhaustive sets vs partition brute force
    for n in range(2, 6):
        pair_idx = {p: i for i, p in enumerate(itertools.combinations(range(n), 2))}
        oracle = {
            frozenset(
                pair_idx[p]
                for cls in part
                for p in itertools.combinations(sorted(cls), 2)
            )
            for part in _partitions(list(range(n)))
        }
        assert set(bergmann_exhaustive_sets(n)) == oracle

    # Hungarian vs factorial brute force
    rng = np.random.default_rng(107)
    deviations = 0
    for _ in range(200):
        rows, cols = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        s = rng.random((rows, cols))
        sim = SimilarityMatrix(
            tuple(f"r{i}" for i in range(rows)),
            tuple(f"c{j}" for j in range(cols)),
            s,
        )
        total = sum(s[i, j] for i, j in hungarian_assign(sim))
        best = -1.0
        if rows <= cols:
            for perm in itertools.permutations(range(cols), rows):
                best = max(best, sum(s[i, perm[i]] for i in range(rows)))
        else:
            for perm in itertools.permutations(range(rows), cols):
                best = max(best, sum(s[perm[j], j] for j in range(cols)))
        if abs(total - best) > 1e-9:
            deviations += 1
    assert deviations == 0

    # contingency builders vs per-correspondence classification
    rng2 = random.Random(109)
    universe = [(f"s{i}", f"t{j}") for i in range(7) for j in range(7)]
    for _ in range(1000):
        def sample(name):
            keys = rng2.sample(universe, rng2.randint(0, 20))
            return canonicalize_alignment(
                [(s, t, 1.0) for s, t in keys], name
            )
        r, a1, a2 = sample("R"), sample("A1"), sample("A2")
        R, A1, A2 = set(r.pairs), set(a1.pairs), set(a2.pairs)
        t_ifp = build_table(r, a1, a2, Perspective.IFP)
        counts = [0, 0, 0, 0]  # n00 n01 n10 n11
        for k in R:
            in1, in2 = k in A1, k in A2
            counts[3 if in1 and in2 else 2 if in1 else 1 if in2 else 0] += 1
        assert (t_ifp.n00, t_ifp.n01, t_ifp.n10, t_ifp.n11) == tuple(counts)
        t_cfp = build_table(r, a1, a2, Perspective.CFP)
        n01 = n10 = 0
        for k in R | A1 | A2:
            correct, in1, in2 = k in R, k in A1, k in A2
            if (correct and in2 and not in1) or (not correct and in1 and not in2):
                n01 += 1
            elif (correct and in1 and not in2) or (not correct and in2 and not in1):
                n10 += 1
        assert (t_cfp.n01, t_cfp.n10) == (n01, n10)
    report_pass("criterion 6: Shaffer/Bergmann/Hungarian/contingency oracles agree")


def test_criterion_7_dominance_chain():
    from alignsig.fwer import (
        HypothesisSet,
        adjust_bonferroni,
        adjust_finner,
        adjust_hochberg,
        adjust_holland,
        adjust_holm,
        adjust_shaffer,
    )
    from alignsig.model import Mode

    rng = random.Random(127)
    k = math.comb(4, 2)
    for _ in range(1000):
        h = HypothesisSet(4, tuple(rng.random() for _ in range(k)), Mode.NXN)
        bonf = adjust_bonferroni(h)
        holm = adjust_holm(h)
        shaf = adjust_shaffer(h)
        hoch = adjust_hochberg(h)
        holl = adjust_holland(h)
        finn = adjust_finner(h)
        for i in range(k):
            assert bonf[i] >= holm[i] - 1e-12
            assert holm[i] >= shaf[i] - 1e-12
            assert holm[i] >= hoch[i] - 1e-12
            assert holm[i] >= holl[i] - 1e-12
            assert holl[i] >= finn[i] - 1e-12
    report_pass("criterion 7: dominance chains hold on 1000 random p-vectors")


def test_criterion_8_determinism_and_golden_files():
    m = load("anatomy-ifp", Perspective.IFP)
    cfg = bergmann_cfg()
    dot1 = emit_dot(build_graph(m, cfg))
    dot2 = emit_dot(build_graph(m, cfg))
    rep1 = serialize_report(build_report(build_graph(m, cfg)))
    rep2 = serialize_report(build_report(build_graph(m, cfg)))
    assert dot1 == dot2
    assert rep1 == rep2
    assert dot1 == (GOLDEN / "anatomy_ifp_bergmann.dot").read_bytes()
    assert rep1 == (GOLDEN / "anatomy_ifp_bergmann.json").read_bytes()
    report_pass("criterion 8: DOT/JSON byte-identical across runs and vs golden files")
