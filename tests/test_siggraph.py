import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest

from alignsig.contingency import DiscordantMatrix, parse_matrix_tsv
from alignsig.data import fixture_bytes
from alignsig.mcnemar import midp_test
from alignsig.model import ComparisonConfig, Correction, Mode, Perspective, TestKind
from alignsig.siggraph import (
    build_graph,
    build_report,
    emit_dot,
    pairwise_outcomes,
    rank_systems,
    serialize_report,
)
from test_fwer import partitions

GOLDEN = Path(__file__).parent / "golden"


def matrix(names, rows, persp=Perspective.IFP):
    return DiscordantMatrix(
        systems=tuple(names), m=np.array(rows, dtype=np.int64), perspective=persp
    )


def cfg(**kw):
    defaults = dict(test=TestKind.MIDP, correction=Correction.BERGMANN,
                    bergmann_cap=10)
    defaults.update(kw)
    return ComparisonConfig(**defaults)


@pytest.fixture(scope="module")
def ifp_matrix():
    return parse_matrix_tsv(fixture_bytes("anatomy-ifp"), Perspective.IFP)


class TestBuildGraph:
    def test_fixture_edges(self, ifp_matrix):
        g = build_graph(ifp_matrix, cfg())
        pairs = {(e.winner, e.loser) for e in g.edges}
        assert ("AML", "CroMatcher") in pairs  # 62 vs 11
        assert not any({e.winner, e.loser} == {"LogMapLite", "LPHOM"}
                       for e in g.edges)  # 203 vs 202

    def test_identical_systems_no_edges(self):
        m = matrix(["A", "B"], [[0, 0], [0, 0]])
        g = build_graph(m, cfg(correction=Correction.NONE))
        assert g.edges == ()

    def test_nemenyi_vs_bergmann_differ_in_one_pair(self, ifp_matrix):
        bergmann = {(e.winner, e.loser)
                    for e in build_graph(ifp_matrix, cfg()).edges}
        nemenyi = {(e.winner, e.loser)
                   for e in build_graph(ifp_matrix, cfg(correction=Correction.NEMENYI)).edges}
        assert bergmann - nemenyi == {("CroMatcher", "LYAM")}
        assert nemenyi - bergmann == set()

    def test_no_evidence_pair_recorded_not_edged(self):
        m = matrix(["A", "B", "C"], [[0, 0, 5], [0, 0, 6], [0, 0, 0]])
        outcomes = pairwise_outcomes(m, cfg(correction=Correction.NONE))
        ab = next(o for o in outcomes if {o.system_a, o.system_b} == {"A", "B"})
        assert ab.note is not None
        assert not ab.significant

    def test_equal_counts_never_edge(self):
        m = matrix(["A", "B"], [[0, 30], [30, 0]])
        g = build_graph(m, cfg(correction=Correction.NONE))
        assert g.edges == ()

    def test_permutation_invariance(self, ifp_matrix):
        order = list(ifp_matrix.systems)[::-1]
        idx = [ifp_matrix.systems.index(n) for n in order]
        shuffled = matrix(order, [[ifp_matrix.m[i][j] for j in idx] for i in idx])
        g1 = build_graph(ifp_matrix, cfg())
        g2 = build_graph(shuffled, cfg())
        assert g1 == g2

    def test_edges_monotone_in_alpha(self, ifp_matrix):
        prior = set()
        for alpha in (1e-12, 1e-6, 0.01, 0.05, 0.2):
            g = build_graph(ifp_matrix, cfg(correction=Correction.NEMENYI, alpha=alpha))
            edges = {(e.winner, e.loser) for e in g.edges}
            assert prior <= edges
            prior = edges

    @pytest.mark.parametrize("seed", range(4))
    def test_bergmann_apv_of_each_pair_equals_the_partition_oracle(self, seed):
        # system names out of sorted order; the oracle keys every p-value and
        # exhaustive set by names, so any slip between the graph's pair order
        # and the family's positions shows as a wrong APV
        rng = random.Random(seed)
        names = ["zeta", "Alpha", "mu", "beta", "Kappa", "eta"]
        rng.shuffle(names)
        n = len(names)
        rows = [[0 if i == j else rng.choice([0, 0, 1, 3, 8, 15, 40, 120])
                 for j in range(n)] for i in range(n)]
        raw = {}
        for i, j in itertools.combinations(range(n), 2):
            n_i, n_j = rows[i][j], rows[j][i]
            p = 1.0 if n_i == n_j == 0 else midp_test(n_i, n_j)
            raw[frozenset((names[i], names[j]))] = p
        expected = dict.fromkeys(raw, 0.0)
        for part in partitions(names):
            within = [frozenset(pair) for cls in part for pair in itertools.combinations(cls, 2)]
            if within:
                bound = len(within) * min(raw[pair] for pair in within)
                for pair in within:
                    expected[pair] = max(expected[pair], bound)
        outcomes = build_graph(matrix(names, rows), cfg()).outcomes
        assert len(outcomes) == len(raw)
        for o in outcomes:
            assert o.apv == min(1.0, expected[frozenset((o.system_a, o.system_b))])

    def test_nx1_mode_limits_pairs(self, ifp_matrix):
        c = cfg(correction=Correction.HOLM, mode=Mode.NX1, baseline="AML")
        outcomes = pairwise_outcomes(ifp_matrix, c)
        assert len(outcomes) == 9
        assert all("AML" in (o.system_a, o.system_b) for o in outcomes)


class TestEmitDot:
    def test_empty_graph(self):
        m = matrix(["A", "B"], [[0, 0], [0, 0]])
        dot = emit_dot(build_graph(m, cfg(correction=Correction.NONE)))
        assert dot == b'digraph significance {\n  "A";\n  "B";\n}\n'

    def test_single_edge_grammar(self):
        m = matrix(["A", "B"], [[0, 40], [0, 0]])
        dot = emit_dot(build_graph(m, cfg(correction=Correction.NONE)))
        assert b'  "A" -> "B" [label="' in dot
        label = dot.split(b'label="')[1].split(b'"')[0]
        assert len(label.split(b".")[1]) == 6

    def test_quotes_and_backslashes_in_names_are_escaped(self):
        m = matrix(['A"x', "B\\"], [[0, 40], [0, 0]])
        dot = emit_dot(build_graph(m, cfg(correction=Correction.NONE)))
        assert dot == (b'digraph significance {\n  "A\\"x";\n  "B\\\\";\n'
                       b'  "A\\"x" -> "B\\\\" [label="0.000000"];\n}\n')

    def test_deterministic_across_runs(self, ifp_matrix):
        a = emit_dot(build_graph(ifp_matrix, cfg()))
        b = emit_dot(build_graph(ifp_matrix, cfg()))
        assert a == b


class TestRanking:
    def test_ifp_fixture_groups(self, ifp_matrix):
        ranks = rank_systems(build_graph(ifp_matrix, cfg()))
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

    def test_cfp_fixture_groups(self):
        m = parse_matrix_tsv(fixture_bytes("anatomy-cfp"), Perspective.CFP)
        ranks = rank_systems(build_graph(m, cfg()))
        assert ("FCA-Map", "XMap") in ranks
        assert ("Lily", "LogMapLite") in ranks

    def test_empty_graph_single_group(self):
        m = matrix(["A", "B", "C"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        ranks = rank_systems(build_graph(m, cfg(correction=Correction.NONE)))
        assert ranks == (("A", "B", "C"),)

    def test_connected_systems_never_share_group(self, ifp_matrix):
        g = build_graph(ifp_matrix, cfg())
        linked = {frozenset((e.winner, e.loser)) for e in g.edges}
        for group in rank_systems(g):
            for a in group:
                for b in group:
                    assert frozenset((a, b)) not in linked


class TestReport:
    def test_default_config_reproduces_published_ranking(self, ifp_matrix):
        report = build_report(build_graph(ifp_matrix, ComparisonConfig()))
        assert report["ranking"] == [
            ["AML"], ["CroMatcher"], ["LYAM", "XMap"], ["FCA-Map"], ["Lily"],
            ["LogMapLite", "LPHOM"], ["Alin"], ["DKP-AOM"],
        ]

    def test_views_of_one_graph_match_the_golden_files(self, ifp_matrix):
        g = build_graph(ifp_matrix, cfg())
        golden = (GOLDEN / "anatomy_ifp_bergmann.json").read_bytes()
        assert emit_dot(g) == (GOLDEN / "anatomy_ifp_bergmann.dot").read_bytes()
        assert serialize_report(build_report(g)) == golden
        ranking = [list(group) for group in rank_systems(g)]
        assert ranking == json.loads(golden)["ranking"]

    def test_cfp_matrix_with_default_config_echoes_cfp(self):
        m = parse_matrix_tsv(fixture_bytes("anatomy-cfp"), Perspective.CFP)
        report = build_report(build_graph(m, ComparisonConfig()))
        assert report["config"]["perspective"] == "cfp"

    def test_serialization_deterministic(self, ifp_matrix):
        r1 = serialize_report(build_report(build_graph(ifp_matrix, cfg())))
        r2 = serialize_report(build_report(build_graph(ifp_matrix, cfg())))
        assert r1 == r2

    def test_pair_record_keys(self, ifp_matrix):
        report = build_report(build_graph(ifp_matrix, cfg()))
        record = report["pairs"][0]
        assert set(record) >= {
            "systems", "n_i", "n_j", "test", "raw_p", "apv", "significant", "winner",
        }
        assert report["pairs"] == sorted(report["pairs"], key=lambda r: r["systems"])

    @pytest.mark.parametrize("test", list(TestKind))
    def test_small_sample_warnings_only_under_the_asymptotic_test(self, test):
        # pair totals: A-B 5 + 5, A-C 62 + 11, A-D 0 + 0, B-C 20 + 4, B-D 25 + 0, C-D 1 + 0
        rows = [[0, 5, 62, 0], [5, 0, 20, 25], [11, 4, 0, 0], [0, 0, 1, 0]]
        report = build_report(build_graph(matrix("ABCD", rows), cfg(test=test)))
        expected = [
            "small discordant sample for (A, B): 10 < 25",
            "small discordant sample for (B, C): 24 < 25",
            "small discordant sample for (C, D): 1 < 25",
        ]
        assert report["warnings"] == (expected if test is TestKind.ASYMPTOTIC else [])

    def test_downstream_ignores_n11(self):
        # same discordant counts -> same report, regardless of perspective metadata
        rows = [[0, 40, 10], [5, 0, 20], [30, 2, 0]]
        r_ifp = build_report(build_graph(matrix(["A", "B", "C"], rows), cfg()))
        r_cfp = build_report(build_graph(matrix(["A", "B", "C"], rows, Perspective.CFP),
                                         cfg()))
        assert r_ifp["pairs"] == r_cfp["pairs"]
        assert r_ifp["graph"] == r_cfp["graph"]
