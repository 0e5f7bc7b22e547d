"""Tests of the benchmark itself: generators, output checks and tracing.

Run with `python3 -m pytest perfbench/tests` from the repository root. The
checks are exercised on real CLI output from shrunken workloads, so these
tests need the package sources under `src/`.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]
TRACED_CLI = ROOT / "perfbench" / "traced_cli.py"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_cli(argv, cwd):
    done = subprocess.run([sys.executable, "-m", "alignsig.cli", *argv], cwd=cwd, env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture
def small(monkeypatch):
    """Shrink every generated workload so that one CLI run takes about a second."""
    monkeypatch.setattr(workloads, "ALIGN_REFERENCE", 300)
    monkeypatch.setattr(workloads, "ALIGN_SYSTEMS", 5)
    monkeypatch.setattr(workloads, "LARGEBIO_TOTALS", (20, 600))
    monkeypatch.setattr(workloads, "MATCH_LABELS", 30)


def prepared_output(name, tmp_path):
    prepared = workloads.WORKLOADS[name](11, tmp_path, ROOT)
    stdout = run_cli(prepared.argv, tmp_path)
    assert prepared.check(stdout) is None
    return prepared, stdout


# --------------------------------------------------------------------------
# generators


def test_alignment_generator_is_deterministic(tmp_path):
    first = workloads.generate_alignments(3, 400, 4)
    assert first == workloads.generate_alignments(3, 400, 4)
    assert first != workloads.generate_alignments(4, 400, 4)
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        workloads.write_alignments(tmp_path / sub, 3, *first)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_largebio_generator_is_deterministic():
    names, m = workloads.generate_largebio(3)
    assert (names, m) == workloads.generate_largebio(3)
    assert m != workloads.generate_largebio(4)[1]
    totals = [m[i][j] + m[j][i] for i in range(10) for j in range(i + 1, 10)]
    assert min(totals) >= workloads.LARGEBIO_TOTALS[0] - 1
    assert max(totals) <= workloads.LARGEBIO_TOTALS[1] + 1


def test_label_generator_is_deterministic():
    first = workloads.generate_labels(3, 40)
    again = workloads.generate_labels(3, 40)
    assert (first.source, first.target, first.kinds) == (again.source, again.target, again.kinds)
    assert first.source != workloads.generate_labels(4, 40).source


def test_levenshtein_oracle_matches_scalar_dp():
    def scalar(a, b):
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, start=1):
            cur = [i]
            for j, cb in enumerate(b, start=1):
                cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
            prev = cur
        return prev[-1]

    a = ["kitten", "optic nerve", "x", "renal artery", "sitting"]
    b = ["sitting", "optic nerves", "renal vein", "y", "kitten"]
    d = workloads.levenshtein_matrix(a, b)
    assert [[int(v) for v in row] for row in d] == [[scalar(x, y) for y in b] for x in a]


# --------------------------------------------------------------------------
# checks: accept real output, reject corrupted output


def test_anatomy_check_rejects_corruption():
    golden = ROOT / "tests" / "golden"
    dot = (golden / "anatomy_ifp_bergmann.dot").read_bytes()
    report = (golden / "anatomy_ifp_bergmann.json").read_bytes()
    ranking = "\n".join(workloads.PUBLISHED_ANATOMY_RANKING) + "\n"
    assert workloads.check_anatomy(ranking, dot, report, dot, report) is None
    assert workloads.check_anatomy(ranking, dot.replace(b"AML", b"AMX", 1), report,
                                   dot, report)
    assert workloads.check_anatomy(ranking, dot, report.replace(b"0.05", b"0.01", 1),
                                   dot, report)
    swapped = ranking.replace("Lily\nLogMapLite & LPHOM", "LogMapLite & LPHOM\nLily")
    assert workloads.check_anatomy(swapped, dot, report, dot, report)


def _rewrite_report(path, edit):
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))


def test_alignments_check_rejects_corruption(small, tmp_path):
    prepared, stdout = prepared_output("alignments-cfp", tmp_path)
    report = prepared.outputs[0]

    def bump(rep):
        rep["pairs"][3]["n_j"] += 1

    _rewrite_report(report, bump)
    assert "n_i/n_j" in prepared.check(stdout)
    _rewrite_report(report, lambda rep: rep["pairs"].pop())
    assert prepared.check(stdout)


def test_largebio_check_rejects_corruption(small, tmp_path):
    prepared, stdout = prepared_output("largebio-midp", tmp_path)
    report = prepared.outputs[0]
    original = report.read_text()

    def nudge(rep):
        rec = next(r for r in rep["pairs"] if 1e-6 < r["raw_p"] < 0.5)
        rec["raw_p"] *= 1 + 1e-6
        rec["apv"] = max(rec["apv"], rec["raw_p"])

    _rewrite_report(report, nudge)
    assert "mid-p" in prepared.check(stdout)
    report.write_text(original)

    def swap(rep):
        rec = rep["pairs"][0]
        rec["n_i"], rec["n_j"] = rec["n_j"], rec["n_i"]

    _rewrite_report(report, swap)
    assert "n_i/n_j" in prepared.check(stdout)


def test_match_check_rejects_corruption(small, tmp_path):
    prepared, stdout = prepared_output("match-levenshtein", tmp_path)
    out = prepared.outputs[0]
    lines = out.read_text().splitlines(keepends=True)
    below_one = next(k for k, ln in enumerate(lines) if not ln.rstrip().endswith("\t1"))
    fields = lines[below_one].rstrip("\n").split("\t")
    fields[3] = repr(float(fields[3]) + 1e-9)
    out.write_text("".join(lines[:below_one] + ["\t".join(fields) + "\n"]
                           + lines[below_one + 1:]))
    assert "oracle" in prepared.check(stdout)
    exact = next(k for k, ln in enumerate(lines) if ln.rstrip().endswith("\t1"))
    out.write_text("".join(lines[:exact] + lines[exact + 1:]))
    assert "planted" in prepared.check(stdout)


# --------------------------------------------------------------------------
# tracing


def test_layer_times_from_nested_spans():
    def span(id_, name, layer, parent, start, end):
        return {"id": id_, "name": name, "layer": layer, "parent": parent, "run": "r",
                "start_ns": start, "end_ns": end, "attrs": {}}

    trace = {"run": "r", "spans": [
        span(0, "cli.main", "cli", None, 0, 100),
        span(1, "siggraph.build_report", "siggraph", 0, 10, 90),
        span(2, "siggraph.build_graph", "siggraph", 1, 20, 60),
        span(3, "fwer.adjust", "fwer", 2, 25, 55),
    ], "aggregates": [
        {"name": "mcnemar.run_test", "layer": "mcnemar", "parent": 2, "run": "r",
         "count": 4, "total_ns": 5, "attrs": {"discordant_total": 40, "discordant_max": 12}},
    ]}
    times = spans.layer_times(trace)
    ns = {layer: (t["busy_s"] / 1e-9, t["self_s"] / 1e-9) for layer, t in times.items()}
    assert ns["cli"] == pytest.approx((100, 20))
    assert ns["siggraph"] == pytest.approx((80, 45))
    assert ns["fwer"] == pytest.approx((30, 30))
    assert ns["mcnemar"] == pytest.approx((5, 5))
    metrics = spans.layer_metrics(trace)
    assert metrics["mcnemar.calls"] == 4 and metrics["mcnemar.discordant_max"] == 12
    assert metrics["fwer.calls"] == 1 and metrics["siggraph.outcome_passes"] == 0


@pytest.mark.parametrize("name", ["alignments-cfp", "match-levenshtein"])
def test_traced_self_times_cover_at_most_the_wall(small, tmp_path, name):
    prepared = workloads.WORKLOADS[name](5, tmp_path, ROOT)
    spans_path = tmp_path / "spans.json"
    start = time.perf_counter()
    done = subprocess.run([sys.executable, str(TRACED_CLI), str(spans_path), "t", "--",
                           *prepared.argv], cwd=tmp_path, env=ENV, capture_output=True,
                          text=True, timeout=120)
    wall = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    assert prepared.check(done.stdout) is None
    trace = json.loads(spans_path.read_text())
    times = spans.layer_times(trace)
    assert all(t["self_s"] >= 0 and t["busy_s"] >= t["self_s"] for t in times.values())
    assert sum(t["self_s"] for t in times.values()) <= wall
    metrics = spans.layer_metrics(trace)
    if name == "alignments-cfp":
        assert metrics["contingency.cells"] == 5 * 4
        assert metrics["siggraph.outcome_passes"] == 3
        assert metrics["mcnemar.calls"] == 3 * 10
        assert metrics["ingest.correspondences_kept"] <= metrics["ingest.correspondences_in"]
    else:
        assert metrics["matcher.cells"] == 30 * 30
        assert 0 < metrics["matcher.kept_ratio"] <= 1
        assert metrics["matcher.similarity_s"] > 0


def test_benchmark_refuses_a_tree_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    done = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "largebio-midp",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_spawn_reports_the_childs_own_peak_rss(tmp_path):
    ballast = b"x" * (200 << 20)  # the spawning process must not count
    result = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "spawn.py"), str(result), "60",
         str(tmp_path / "out"), str(tmp_path / "err"), "--", sys.executable, "-c", "pass"],
        timeout=60)
    assert done.returncode == 0 and len(ballast) == 200 << 20
    measured = json.loads(result.read_text())
    assert measured["exit_code"] == 0
    assert 0 < measured["peak_rss_mb"] < 100
    assert measured["wall_s"] > 0 and measured["cpu_s"] > 0
