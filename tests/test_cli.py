import errno
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import alignsig
from alignsig import siggraph
from alignsig.cli import main
from alignsig.data import fixture_path

REF = "r1\tt1\nr2\tt2\nr3\tt3\n"
SYS_A = "r1\tt1\nr2\tt2\nx\tx\n"
SYS_B = "r2\tt2\nr3\tt3\n"

LABELS = "m1\toptic nerve\nm2\tretina\nm3\tlens\n"


@pytest.fixture
def runner(capsys, monkeypatch):
    """Runs a CLI entry point in-process: `runner.invoke(main, args)`.

    The result holds the exit code, stdout and stderr joined as `output`, and
    the SystemExit that ended a failing run (None on exit 0). Any other
    exception propagates and fails the test.
    """
    # `match` sets OPENBLAS_NUM_THREADS when it is unset; restore it after the test
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")

    def invoke(entry, args):
        exception = None
        try:
            entry(args)
        except SystemExit as exc:
            exception = exc if exc.code else None
        out, err = capsys.readouterr()
        return SimpleNamespace(exit_code=exception.code if exception else 0,
                               output=out + err, exception=exception)

    return SimpleNamespace(invoke=invoke)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestCompare:
    def test_matrix_path_reproduces_ifp_ranking(self, runner, tmp_path):
        result = runner.invoke(main, [
            "compare", "--matrix", str(fixture_path("anatomy-ifp")),
            "--test", "midp", "--correction", "bergmann", "--alpha", "0.05",
            "--report", str(tmp_path / "report.json"),
            "--dot", str(tmp_path / "graph.dot"),
        ])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[5] == "LogMapLite & LPHOM"
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report["pairs"]) == 45
        assert (tmp_path / "graph.dot").read_bytes().startswith(b"digraph significance {")

    @pytest.mark.parametrize("fixture, ranking", [
        ("anatomy-ifp", ["AML", "CroMatcher", "LYAM & XMap", "FCA-Map", "Lily",
                         "LogMapLite & LPHOM", "Alin", "DKP-AOM"]),
        # the ranking of test_acceptance.py's test_criterion_2
        ("anatomy-cfp", ["AML", "CroMatcher", "FCA-Map & XMap", "LYAM", "Lily & LogMapLite",
                         "LPHOM", "Alin", "DKP-AOM"]),
        # the paper's second experiment: nine string metrics on the anatomy task
        ("anatomy-string-ifp", ["N-gram", "Levenshtein", "NeedlemanWunsch",
                                "Jaro & JaroWinkler", "Hamming & SMOA", "SubString", "Equal"]),
    ], ids=["anatomy-ifp", "anatomy-cfp", "anatomy-string-ifp"])
    def test_default_compare_writes_the_golden_files(self, runner, tmp_path, fixture, ranking):
        golden = Path(__file__).parent / "golden" / f"{fixture.replace('-', '_')}_bergmann"
        result = runner.invoke(main, [
            "compare", "--matrix", str(fixture_path(fixture)),
            "--perspective", fixture.split("-")[-1],
            "--dot", str(tmp_path / "graph.dot"), "--report", str(tmp_path / "report.json"),
        ])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines() == ranking
        assert (tmp_path / "graph.dot").read_bytes() == golden.with_suffix(".dot").read_bytes()
        assert (tmp_path / "report.json").read_bytes() == golden.with_suffix(".json").read_bytes()

    def test_one_system_matrix_needs_two_for_bergmann(self, runner, tmp_path):
        matrix = write(tmp_path, "one.tsv", "A\nA\t0\n")
        result = runner.invoke(main, ["compare", "--matrix", matrix])
        assert (result.exit_code, result.output) == (2, "error: need at least 2 systems\n")
        result = runner.invoke(main, ["compare", "--matrix", matrix, "--correction", "holm"])
        assert (result.exit_code, result.output) == (0, "A\n")

    def test_mode_correction_mismatch_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, [
            "compare", "--matrix", str(fixture_path("anatomy-ifp")),
            "--mode", "nx1", "--baseline", "AML", "--correction", "nemenyi",
        ])
        assert result.exit_code == 2

    def test_nx1_defaults_to_holm(self, runner):
        args = ["compare", "--matrix", str(fixture_path("anatomy-ifp")),
                "--mode", "nx1", "--baseline", "AML"]
        default = runner.invoke(main, args)
        holm = runner.invoke(main, [*args, "--correction", "holm"])
        assert default.exit_code == holm.exit_code == 0, default.output
        assert default.output == holm.output

    def test_missing_baseline_exits_2(self, runner):
        result = runner.invoke(main, [
            "compare", "--matrix", str(fixture_path("anatomy-ifp")), "--mode", "nx1",
        ])
        assert result.exit_code == 2

    def test_baseline_outside_nx1_exits_2(self, runner):
        result = runner.invoke(main, [
            "compare", "--matrix", str(fixture_path("anatomy-ifp")),
            "--mode", "nxn", "--baseline", "NOPE",
        ])
        assert result.exit_code == 2
        assert "baseline 'NOPE' applies only in NX1 mode" in result.output

    def test_matrix_with_alignments_exits_2(self, runner, tmp_path):
        ref = write(tmp_path, "ref.tsv", REF)
        a = write(tmp_path, "a.tsv", SYS_A)
        for extra in (["--reference", ref],
                      ["--alignment", f"S1={a}", "--alignment", f"S2={a}"]):
            result = runner.invoke(main, [
                "compare", "--matrix", str(fixture_path("anatomy-ifp")), *extra,
            ])
            assert result.exit_code == 2
            assert "not both" in result.output

    def test_identical_alignments_not_significant(self, runner, tmp_path):
        ref = write(tmp_path, "ref.tsv", REF)
        a = write(tmp_path, "a.tsv", SYS_A)
        result = runner.invoke(main, [
            "compare", "--reference", ref,
            "--alignment", f"S1={a}", "--alignment", f"S2={a}",
            "--correction", "none",
            "--report", str(tmp_path / "r.json"),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "r.json").read_text())
        assert len(report["pairs"]) == 1
        assert report["pairs"][0]["significant"] is False

    def test_matrix_and_ingestion_paths_agree(self, runner, tmp_path):
        ref = write(tmp_path, "ref.tsv", REF)
        a = write(tmp_path, "a.tsv", SYS_A)
        b = write(tmp_path, "b.tsv", SYS_B)
        args = ["--alignment", f"S1={a}", "--alignment", f"S2={b}"]
        runner.invoke(main, ["table", "--reference", ref, *args,
                             "--output", str(tmp_path / "m.tsv")])
        r1 = runner.invoke(main, [
            "compare", "--reference", ref, *args, "--correction", "none",
            "--report", str(tmp_path / "r1.json"),
        ])
        r2 = runner.invoke(main, [
            "compare", "--matrix", str(tmp_path / "m.tsv"), "--correction", "none",
            "--report", str(tmp_path / "r2.json"),
        ])
        assert r1.exit_code == r2.exit_code == 0
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    @pytest.mark.parametrize("text, message", [
        ("A\tA\tB\nA\t0\t1\t2\nA\t3\t0\t4\nB\t5\t6\t0\n", "duplicate system name 'A'"),
        ("A\tB\nA\t0\t-1\nB\t2\t0\n", "is negative (-1)"),
        ("A\tB\nA\t0\t1\nB\t100000000000000000000000000\t0\n",
         "line 3: cell outside the 64-bit integer range"),
        ("\tB\tC\n\t0\t1\t2\nB\t3\t0\t4\nC\t5\t6\t0\n",
         "error: system name '' is blank"),
        ("", "error: line 1: empty matrix file"),
        ("A\tB\nA\t0\t1\n", "error: line 2: expected 2 data rows, got 1"),
        ("A\tB\nA\t0\t1\t2\nB\t1\t0\n", "error: line 2: expected 3 fields, got 4"),
        ("A\tB\nB\t0\t1\nA\t1\t0\n", "error: line 2: row names do not match header order"),
    ], ids=["duplicate-name", "negative-cell", "int64-overflow", "empty-name", "empty-file",
            "missing-row", "extra-field", "rows-out-of-order"])
    def test_malformed_matrix_exits_2(self, runner, tmp_path, text, message):
        path = write(tmp_path, "m.tsv", text)
        result = runner.invoke(main, ["compare", "--matrix", path, "--correction", "bergmann"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert message in result.output
        assert "Traceback" not in result.output

    def test_matrix_with_byte_order_mark_and_crlf(self, runner, tmp_path):
        plain = tmp_path / "plain.tsv"
        plain.write_bytes(fixture_path("anatomy-ifp").read_bytes())
        marked = tmp_path / "marked.tsv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes().replace(b"\n", b"\r\n"))
        outputs = []
        for path in (plain, marked):
            result = runner.invoke(main, ["compare", "--matrix", str(path),
                                          "--correction", "holm"])
            assert result.exit_code == 0, result.output
            outputs.append(result.output)
        assert outputs[0] == outputs[1]

    def test_matrix_with_undecodable_byte_exits_2(self, runner, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_bytes(b"A\tB\nA\t0\t1\nB\t\xff\t0\n")
        result = runner.invoke(main, ["compare", "--matrix", str(path),
                                      "--correction", "none"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "byte 12: not valid UTF-8" in result.output

    def test_matrix_errors_name_the_file_line(self, runner, tmp_path):
        path = write(tmp_path, "m.tsv", "A\tB\n\nA\t0\t1\n\nB\tx\t0\n")
        result = runner.invoke(main, ["compare", "--matrix", path, "--correction", "none"])
        assert result.exit_code == 2
        assert "line 5: non-integer cell" in result.output

    def test_one_outcome_pass_per_compare(self, runner, tmp_path, monkeypatch):
        calls = []
        original = siggraph.pairwise_outcomes

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(siggraph, "pairwise_outcomes", counted)
        result = runner.invoke(main, [
            "compare", "--matrix", str(fixture_path("anatomy-ifp")),
            "--dot", str(tmp_path / "g.dot"), "--report", str(tmp_path / "r.json"),
        ])
        assert result.exit_code == 0, result.output
        assert len(calls) == 1


class TestBadPaths:
    @pytest.mark.parametrize("command, message", [
        (["compare", "--reference", "{ref}", "--alignment", "S1={a}",
          "--alignment", "S2={missing}"], "[Errno "),
        (["compare", "--reference", "{ref}", "--alignment", "S1={a}", "--alignment", "S2={dir}"],
         "[Errno "),
        (["compare", "--reference", "{dir}", "--alignment", "S1={a}", "--alignment", "S2={a}"],
         "[Errno "),
        (["compare", "--matrix", "{dir}"], "[Errno "),
        (["table", "--reference", "{ref}", "--alignment", "S1={a}", "--alignment", "S2={dir}"],
         "[Errno "),
        (["match", "--source", "{dir}", "--target", "{labels}", "--metric", "equal"], "[Errno "),
        (["match", "--source", "{labels}", "--target", "{dir}", "--metric", "equal"], "[Errno "),
        (["compare"], "provide either --matrix or --reference plus >=2 --alignment entries\n"),
        (["compare", "--reference", "{ref}", "--alignment", "A={a}"],
         "provide either --matrix or --reference plus >=2 --alignment entries\n"),
        (["compare", "--matrix", "{matrix}", "--mode", "nx1", "--baseline", "ZZ"],
         "baseline 'ZZ' not among systems\n"),
        (["table", "--reference", "{ref}", "--alignment", "A={five}", "--alignment", "B={a}"],
         "line 3: expected <=4 tab-separated fields\n"),
    ], ids=["missing-alignment", "directory-alignment", "directory-reference",
            "directory-matrix", "table-directory-alignment", "directory-source",
            "directory-target", "compare-no-input", "compare-one-alignment", "unknown-baseline",
            "tsv-five-fields"])
    def test_bad_input_path_exits_2(self, runner, tmp_path, command, message):
        paths = {"ref": write(tmp_path, "ref.tsv", REF), "a": write(tmp_path, "a.tsv", SYS_A),
                 "labels": write(tmp_path, "labels.tsv", LABELS),
                 "five": write(tmp_path, "five.tsv", SYS_B + "x\ty\t=\t1\textra\n"),
                 "matrix": str(fixture_path("anatomy-ifp")),
                 "missing": str(tmp_path / "missing.tsv"), "dir": str(tmp_path)}
        result = runner.invoke(main, [arg.format(**paths) for arg in command])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(f"error: {message}")


    @pytest.mark.parametrize("command", [
        ["compare", "--matrix", "{matrix}", "--dot", "{dir}"],
        ["compare", "--matrix", "{matrix}", "--report", "{missing}/report.json"],
        ["table", "--reference", "{ref}", "--alignment", "S1={a}", "--alignment", "S2={a}",
         "--output", "{dir}"],
        ["match", "--source", "{labels}", "--target", "{labels}", "--metric", "equal",
         "--output", "{missing}/out.tsv"],
    ], ids=["compare-dot-directory", "compare-report-missing-directory",
            "table-output-directory", "match-output-missing-directory"])
    def test_unwritable_output_path_exits_2(self, runner, tmp_path, command):
        paths = {"ref": write(tmp_path, "ref.tsv", REF), "a": write(tmp_path, "a.tsv", SYS_A),
                 "labels": write(tmp_path, "labels.tsv", LABELS),
                 "matrix": str(fixture_path("anatomy-ifp")),
                 "missing": str(tmp_path / "missing"), "dir": str(tmp_path)}
        result = runner.invoke(main, [arg.format(**paths) for arg in command])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: ")


class TestTable:
    def test_synthetic_matrix(self, runner, tmp_path):
        ref = write(tmp_path, "ref.tsv", REF)
        a = write(tmp_path, "a.tsv", SYS_A)
        b = write(tmp_path, "b.tsv", SYS_B)
        result = runner.invoke(main, [
            "table", "--reference", ref,
            "--alignment", f"S1={a}", "--alignment", f"S2={b}",
        ])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "S1\tS2"
        assert lines[1] == "S1\t0\t1"
        assert lines[2] == "S2\t1\t0"

    def test_cfp_worked_example(self, runner, tmp_path):
        ref = write(tmp_path, "ref.tsv", REF)
        a = write(tmp_path, "a.tsv", SYS_A)
        b = write(tmp_path, "b.tsv", SYS_B)
        result = runner.invoke(main, [
            "table", "--reference", ref, "--perspective", "cfp",
            "--alignment", f"S1={a}", "--alignment", f"S2={b}",
        ])
        lines = result.output.splitlines()
        # in favor of S1 = n10 = 1, in favor of S2 = n01 = 2
        assert lines[1] == "S1\t0\t1"
        assert lines[2] == "S2\t2\t0"

    @pytest.mark.parametrize("measure", [b"<measure/>", b"<measure>high</measure>",
                                         b"<measure>2</measure>"])
    def test_bad_xml_measure_exits_2_naming_the_cell(self, runner, tmp_path, measure):
        ref = write(tmp_path, "ref.tsv", REF)
        a = write(tmp_path, "a.tsv", SYS_A)
        b = tmp_path / "b.xml"
        b.write_bytes(b'<r><Cell><entity1 resource="r2"/><entity2 resource="t2"/>'
                      + measure + b"</Cell></r>")
        result = runner.invoke(main, [
            "table", "--reference", ref,
            "--alignment", f"S1={a}", "--alignment", f"S2={b}",
        ])
        assert result.exit_code == 2
        assert "Cell 0: confidence" in result.output

    def test_byte_order_marks_on_tsv_and_xml_inputs(self, runner, tmp_path):
        bom = b"\xef\xbb\xbf"
        ref = tmp_path / "ref.tsv"
        ref.write_bytes(bom + REF.encode())
        a = write(tmp_path, "a.tsv", SYS_A)
        b = tmp_path / "b.xml"
        b.write_bytes(bom + b'<?xml version="1.0"?><r>'
                      b'<Cell><entity1 resource="r2"/><entity2 resource="t2"/></Cell>'
                      b'<Cell><entity1 resource="r3"/><entity2 resource="t3"/></Cell></r>')
        result = runner.invoke(main, [
            "table", "--reference", str(ref),
            "--alignment", f"S1={a}", "--alignment", f"S2={b}",
        ])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[1:] == ["S1\t0\t1", "S2\t1\t0"]

    @pytest.mark.parametrize("encoding", ["utf-16", "utf-32"])
    def test_utf16_and_utf32_xml_inputs(self, runner, tmp_path, encoding):
        ref = write(tmp_path, "ref.tsv", REF)
        a = write(tmp_path, "a.tsv", SYS_A)
        b = tmp_path / "b.xml"
        b.write_bytes(f'<?xml version="1.0" encoding="{encoding.upper()}"?><r>'
                      '<Cell><entity1 resource="r2"/><entity2 resource="t2"/></Cell>'
                      '<Cell><entity1 resource="r3"/><entity2 resource="t3"/></Cell></r>'
                      .encode(encoding))
        assert b.read_bytes()[:2] == b"\xff\xfe"
        result = runner.invoke(main, [
            "table", "--reference", ref,
            "--alignment", f"S1={a}", "--alignment", f"S2={b}",
        ])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[1:] == ["S1\t0\t1", "S2\t1\t0"]

    def test_one_line_xml_with_a_tab_after_its_declaration(self, runner, tmp_path):
        ref = write(tmp_path, "ref.tsv", REF)
        a = write(tmp_path, "a.tsv", SYS_A)
        b = write(tmp_path, "b.xml", '<?xml version="1.0"?>\t<r>'
                  '<Cell><entity1 resource="r2"/><entity2 resource="t2"/></Cell>'
                  '<Cell><entity1 resource="r3"/><entity2 resource="t3"/></Cell></r>')
        result = runner.invoke(main, [
            "table", "--reference", ref,
            "--alignment", f"S1={a}", "--alignment", f"S2={b}",
        ])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[1:] == ["S1\t0\t1", "S2\t1\t0"]

    def test_tsv_opening_with_a_bracketed_iri_is_not_xml(self, runner, tmp_path):
        ref = write(tmp_path, "ref.tsv",
                    "<http://a#x>\t<http://b#y>\n<http://a#z>\t<http://b#w>\n")
        a = write(tmp_path, "a.tsv", "<http://a#x>\t<http://b#y>\n")
        b = write(tmp_path, "b.tsv", "<http://a#z>\t<http://b#w>\t=\t0.5\n")
        result = runner.invoke(main, [
            "table", "--reference", ref,
            "--alignment", f"S1={a}", "--alignment", f"S2={b}",
        ])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[1:] == ["S1\t0\t1", "S2\t1\t0"]

    def test_undecodable_input_exits_2(self, runner, tmp_path):
        ref = tmp_path / "ref.tsv"
        ref.write_bytes(b"r1\t\xff\n")
        a = write(tmp_path, "a.tsv", SYS_A)
        result = runner.invoke(main, [
            "table", "--reference", str(ref),
            "--alignment", f"S1={a}", "--alignment", f"S2={a}",
        ])
        assert result.exit_code == 2
        assert "byte 3" in result.output

    @pytest.mark.parametrize("name", ["A\tX", "A\nX"])
    def test_name_the_matrix_cannot_carry_exits_2_writing_nothing(self, runner, tmp_path, name):
        ref = write(tmp_path, "ref.tsv", REF)
        a = write(tmp_path, "a.tsv", SYS_A)
        out = tmp_path / "m.tsv"
        result = runner.invoke(main, [
            "table", "--reference", ref, "--alignment", f"{name}={a}",
            "--alignment", f"B={a}", "--output", str(out),
        ])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        message = f"error: system name {name!r} is blank or has an unprintable character"
        assert message in result.output
        assert not out.exists()

    def test_identical_systems_zero_matrix(self, runner, tmp_path):
        ref = write(tmp_path, "ref.tsv", REF)
        a = write(tmp_path, "a.tsv", SYS_A)
        result = runner.invoke(main, [
            "table", "--reference", ref,
            "--alignment", f"S1={a}", "--alignment", f"S2={a}",
        ])
        assert result.output.splitlines()[1] == "S1\t0\t0"

    def test_alignment_spec_without_equals_exits_2(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name, text in [("r.tsv", REF), ("a.tsv", SYS_A), ("b.tsv", SYS_B)]:
            write(tmp_path, name, text)
        # every spec is checked before the reference is read, even a missing one
        for reference in ("r.tsv", "missing.tsv"):
            result = runner.invoke(main, ["table", "--reference", reference,
                                          "--alignment", "a.tsv", "--alignment", "S2=b.tsv"])
            assert (result.exit_code, result.output) == (
                2, "error: --alignment must be name=path, got 'a.tsv'\n")


class TestMatch:
    def test_identity_at_threshold_one(self, runner, tmp_path):
        src = write(tmp_path, "src.tsv", LABELS)
        tgt = write(tmp_path, "tgt.tsv", LABELS)
        for metric in ("equal", "EQUAL", "JaroWinkler"):  # names in any case
            result = runner.invoke(main, [
                "match", "--source", src, "--target", tgt,
                "--metric", metric, "--threshold", "1",
            ])
            assert result.exit_code == 0
            assert result.output == "m1\tm1\t=\t1\nm2\tm2\t=\t1\nm3\tm3\t=\t1\n"

    def test_name_changes_no_output(self, runner, tmp_path):
        # the TSV output records no system name, so --name is ignored
        src = write(tmp_path, "src.tsv", LABELS)
        args = ["match", "--source", src, "--target", src, "--metric", "levenshtein"]
        results = [runner.invoke(main, args + extra)
                   for extra in ([], ["--name", "X"], ["--name", " "])]
        assert [r.exit_code for r in results] == [0, 0, 0]
        assert len({r.output for r in results}) == 1

    def test_unknown_metric_lists_the_nine(self, runner, tmp_path):
        src = write(tmp_path, "src.tsv", LABELS)
        result = runner.invoke(main, [
            "match", "--source", src, "--target", src, "--metric", "cosine",
        ])
        assert result.exit_code == 2
        for name in ("equal", "hamming", "jaro", "jarowinkler", "levenshtein",
                     "ngram", "needlemanwunsch", "smoa", "substring"):
            assert name in result.output

    def test_match_rejects_a_label_longer_than_the_cap(self, runner, tmp_path):
        from alignsig.ingest import MAX_LABEL_LENGTH

        src = write(tmp_path, "src.tsv", LABELS)
        tgt = write(tmp_path, "tgt.tsv", f"h1\teye\nh2\t{'{' * (MAX_LABEL_LENGTH + 1)}\n")
        result = runner.invoke(main, ["match", "--source", src, "--target", tgt,
                                      "--metric", "smoa"])
        assert result.exit_code == 2
        assert result.output == (f"error: line 2: label of {MAX_LABEL_LENGTH + 1} characters "
                                 f"once case-folded, more than {MAX_LABEL_LENGTH}\n")

    def test_match_refuses_a_matrix_past_its_budget(self, runner, tmp_path):
        from alignsig.matcher import MAX_MATRIX_BYTES

        # 20,000 x 14,000 pairs of 8 bytes pass a budget of 2 GiB
        assert 20000 * 14000 * 8 > MAX_MATRIX_BYTES
        src, tgt = (write(tmp_path, f"{tag}.tsv", "".join(f"{tag}{i}\teye\n" for i in range(n)))
                    for tag, n in (("s", 20000), ("t", 14000)))
        result = runner.invoke(main, ["match", "--source", src, "--target", tgt,
                                      "--metric", "levenshtein"])
        assert result.exit_code == 2
        assert result.output == (f"error: 20000 x 14000 labels: the similarity matrix, 8 bytes "
                                 f"a label pair, would exceed its budget of {MAX_MATRIX_BYTES} "
                                 f"bytes\n")

    def test_match_output_feeds_compare(self, runner, tmp_path):
        src = write(tmp_path, "src.tsv", LABELS)
        tgt = write(tmp_path, "tgt.tsv", LABELS)
        ref = tmp_path / "ref.tsv"
        for metric in ("levenshtein", "ngram"):
            out = tmp_path / f"{metric}.tsv"
            r = runner.invoke(main, [
                "match", "--source", src, "--target", tgt, "--metric", metric,
                "--output", str(out),
            ])
            assert r.exit_code == 0
        ref.write_text((tmp_path / "levenshtein.tsv").read_text())
        result = runner.invoke(main, [
            "compare", "--reference", str(ref),
            "--alignment", f"lev={tmp_path / 'levenshtein.tsv'}",
            "--alignment", f"ngram={tmp_path / 'ngram.tsv'}",
            "--correction", "none",
            "--report", str(tmp_path / "r.json"),
        ])
        assert result.exit_code == 0, result.output


class TestRank:
    def test_rank_from_ifp_report(self, runner, tmp_path):
        report = tmp_path / "report.json"
        runner.invoke(main, [
            "compare", "--matrix", str(fixture_path("anatomy-ifp")),
            "--report", str(report),
        ])
        result = runner.invoke(main, ["rank", "--report", str(report)])
        lines = result.output.splitlines()
        assert len(lines) == 8
        assert lines[5] == "LogMapLite & LPHOM"

    def test_rank_from_cfp_report(self, runner, tmp_path):
        report = tmp_path / "report.json"
        runner.invoke(main, [
            "compare", "--matrix", str(fixture_path("anatomy-cfp")),
            "--perspective", "cfp", "--report", str(report),
        ])
        result = runner.invoke(main, ["rank", "--report", str(report)])
        assert "FCA-Map & XMap" in result.output.splitlines()

    def test_malformed_report_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        for content in (b"{}", b"[]", b'{"ranking": [[1, 2]]}', b'{"ranking": "AB"}',
                        b"\xff"):
            bad.write_bytes(content)
            result = runner.invoke(main, ["rank", "--report", str(bad)])
            assert result.exit_code == 2, content
            assert isinstance(result.exception, SystemExit), content
        assert result.output == "error: byte 0: not valid UTF-8 (invalid start byte)\n"

    @pytest.mark.parametrize("ranking, message", [
        ('[["a"], ["a"]]', "duplicate system name 'a'"),
        ('[["a", "b", "a"]]', "duplicate system name 'a'"),
        ('[[]]', "report holds no 'ranking' list of non-empty system-name lists"),
        ('[["a"], []]', "report holds no 'ranking' list of non-empty system-name lists"),
        # names that no matrix TSV row can carry, by the rule of system names
        ('[["A\\nB"], ["C"]]', "system name 'A\\nB' is blank or has an unprintable character"),
        ('[[""]]', "system name '' is blank or has an unprintable character"),
        ('[["C\\tD", "E"]]', "system name 'C\\tD' is blank or has an unprintable character"),
    ], ids=["repeated-across-groups", "repeated-in-a-group", "empty", "empty-after-one",
            "line-break", "blank", "tab"])
    def test_malformed_ranking_exits_2(self, runner, tmp_path, ranking, message):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"ranking": {ranking}}}', "utf-8")
        result = runner.invoke(main, ["rank", "--report", str(bad)])
        assert (result.exit_code, result.output) == (2, f"error: {message}\n")

    def test_report_nested_too_deep_exits_2(self, runner, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_bytes(b"[" * 100_000)
        result = runner.invoke(main, ["rank", "--report", str(deep)])
        assert result.exit_code == 2
        assert result.output.startswith("error: maximum recursion depth exceeded")
        assert result.output.count("\n") == 1


def test_outputs_byte_identical_across_runs(runner, tmp_path):
    outs = []
    for run in range(2):
        dot = tmp_path / f"g{run}.dot"
        rep = tmp_path / f"r{run}.json"
        runner.invoke(main, [
            "compare", "--matrix", str(fixture_path("anatomy-ifp")),
            "--dot", str(dot), "--report", str(rep),
        ])
        outs.append((dot.read_bytes(), rep.read_bytes()))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("args, kind", [
    (["compare", "--alpha", "0.0_5"], "number"),
    (["compare", "--alpha", "０.０５"], "number"),
    (["compare", "--bergmann-cap", "1_0"], "integer"),
    (["match", "--metric", "equal", "--threshold", "0.5_0"], "number"),
], ids=["alpha-separator", "alpha-full-width", "cap-separator", "threshold-separator"])
def test_numeric_option_follows_the_confidence_rule(runner, tmp_path, args, kind):
    # float() and int() would read these; a confidence or a matrix cell may not hold them
    labels = write(tmp_path, "labels.tsv", LABELS)
    inputs = (["--matrix", str(fixture_path("anatomy-ifp"))] if args[0] == "compare"
              else ["--source", labels, "--target", labels])
    result = runner.invoke(main, [*args, *inputs])
    assert result.exit_code == 2
    assert result.output.startswith(f"usage: alignsig {args[0]} ")
    assert f"invalid {kind} value: '{args[-1]}'" in result.output


@pytest.mark.parametrize("cap", ["-1", "0", "1"])
def test_bergmann_cap_below_two_exits_2(runner, cap):
    result = runner.invoke(main, ["compare", "--matrix", str(fixture_path("anatomy-ifp")),
                                  "--bergmann-cap", cap])
    assert (result.exit_code, result.output) == (
        2, f"error: bergmann_cap {cap} is below 2 systems\n")


@pytest.mark.parametrize("args, message", [
    (["compare", "--matrix", "{matrix}", "--reference", "{ref}"],
     "give either --matrix or --reference/--alignment, not both"),
    (["compare", "--matrix", "{diagonal}"], "diagonal entries must be zero"),
    (["compare", "--matrix", "{matrix}", "--alpha", "2"], "alpha 2.0 outside (0, 1)"),
    (["compare", "--matrix", "{matrix}", "--mode", "nx1"],
     "NX1 mode requires a baseline system name"),
    (["compare", "--matrix", "{matrix}", "--baseline", "AML"],
     "baseline 'AML' applies only in NX1 mode"),
    (["match", "--source", "{labels}", "--target", "{labels}", "--metric", "equal",
      "--threshold", "2"], "threshold must lie in [0, 1]"),
    (["rank", "--report", "{truncated}"], "Expecting value: line 1 column 14 (char 13)"),
    # a system name that ends in "=\0" puts a NUL in the path, which only a caller
    # in this process can give
    (["table", "--reference", "{ref}", "--alignment", "=\0={ref}", "--alignment", "B={ref}"],
     "embedded null byte"),
    # ... and so in every other path read or written
    (["compare", "--matrix", "x\0"], "embedded null byte"),
    (["match", "--source", "x\0", "--target", "{labels}", "--metric", "equal"],
     "embedded null byte"),
    (["match", "--source", "{labels}", "--target", "x\0", "--metric", "equal"],
     "embedded null byte"),
    (["rank", "--report", "x\0"], "embedded null byte"),
    (["compare", "--matrix", "{matrix}", "--dot", "x\0"], "embedded null byte"),
    (["compare", "--matrix", "{matrix}", "--report", "x\0"], "embedded null byte"),
    (["table", "--reference", "{ref}", "--alignment", "A={ref}", "--alignment", "B={ref}",
      "--output", "x\0"], "embedded null byte"),
], ids=["matrix-and-reference", "non-zero-diagonal", "alpha-outside", "nx1-without-baseline",
        "baseline-under-nxn", "threshold-outside", "truncated-report", "nul-in-alignment-path",
        "nul-in-matrix-path", "nul-in-source-path", "nul-in-target-path",
        "nul-in-rank-report-path", "nul-in-dot-path", "nul-in-compare-report-path",
        "nul-in-output-path"])
def test_invalid_input_exits_2_with_one_error_line(runner, tmp_path, args, message):
    paths = {"matrix": str(fixture_path("anatomy-ifp")), "ref": write(tmp_path, "ref.tsv", REF),
             "diagonal": write(tmp_path, "diagonal.tsv", "A\tB\nA\t1\t0\nB\t0\t0\n"),
             "labels": write(tmp_path, "labels.tsv", LABELS),
             "truncated": write(tmp_path, "truncated.json", '{"ranking": [')}
    result = runner.invoke(main, [arg.format(**paths) for arg in args])
    assert (result.exit_code, result.output) == (2, f"error: {message}\n")


def bug(*_):
    raise ValueError("a bug")


#: Replaces the function `name` of the module alignsig.`module` with `bug`.
BUG = """
import alignsig.{module}

def bug(*_):
    raise ValueError("a bug")

alignsig.{module}.{name} = bug
"""


@pytest.mark.parametrize("command, stage", [("compare", "siggraph.build_graph"),
                                            ("table", "ingest.parse_alignment")])
def test_a_bug_in_a_stage_exits_1_with_its_traceback(monkeypatch, tmp_path, command, stage):
    # a ValueError that no input can cause is a bug, not a bad input: in
    # process it propagates, and the CLI ends with its traceback
    args = [command, *command_args(tmp_path, command)]
    with monkeypatch.context() as patched:
        patched.setattr(f"alignsig.{stage}", bug)
        with pytest.raises(ValueError, match="^a bug$"):
            main(args)
    module, name = stage.split(".")
    done = fresh_cli(*args, prelude=BUG.format(module=module, name=name))
    assert (done.returncode, done.stdout) == (1, "")
    assert "Traceback" in done.stderr and "error:" not in done.stderr
    assert done.stderr.splitlines()[-1] == "ValueError: a bug"


def test_too_many_systems_names_both_ways_forward(runner):
    result = runner.invoke(main, ["compare", "--matrix", str(fixture_path("anatomy-ifp")),
                                  "--bergmann-cap", "9"])
    assert result.exit_code == 2
    assert result.output.startswith("error: Bergmann's procedure limited to 9 systems (got 10)")
    assert "--bergmann-cap" in result.output and "--correction shaffer" in result.output
    shaffer = runner.invoke(main, ["compare", "--matrix", str(fixture_path("anatomy-ifp")),
                                   "--bergmann-cap", "9", "--correction", "shaffer"])
    assert shaffer.exit_code == 0, shaffer.output


def test_abbreviated_option_exits_2(runner):
    # --ref is not read as --reference
    result = runner.invoke(main, ["compare", "--ref", str(fixture_path("anatomy-ifp"))])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "--ref" in result.output


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_match_sets_openblas_threads_unless_set(runner, monkeypatch, tmp_path, preset, expected):
    if preset is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    labels = write(tmp_path, "labels.tsv", LABELS)
    result = runner.invoke(main, ["match", "--source", labels, "--target", labels,
                                  "--metric", "equal"])
    assert result.exit_code == 0, result.output
    assert os.environ["OPENBLAS_NUM_THREADS"] == expected


class TestEntryPoint:
    """`main.main(args=..., prog_name=..., standalone_mode=...)`, the call that
    perfbench/traced_cli.py makes."""

    def test_returns_with_the_output_of_main(self, capsys):
        args = ["compare", "--matrix", str(fixture_path("anatomy-ifp"))]
        assert main.main(args=args, prog_name="alignsig", standalone_mode=True) is None
        traced = capsys.readouterr()
        main(args)
        assert capsys.readouterr() == traced
        assert traced.out.splitlines()[5] == "LogMapLite & LPHOM"

    def test_error_raises_system_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as raised:
            main.main(args=["compare", "--matrix", str(tmp_path / "missing.tsv")],
                      prog_name="alignsig", standalone_mode=True)
        assert raised.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")


#: Modules that only some commands need; each costs start-up time when loaded.
HEAVY_MODULES = ("numpy", "scipy", "xml.parsers.expat", "alignsig.workers",
                 "multiprocessing", "concurrent.futures")

#: The modules of the comparison stack, which only `compare` needs.
COMPARISON_MODULES = ("alignsig.siggraph", "alignsig.fwer", "alignsig.mcnemar")

#: Runs the CLI on its arguments, then prints the modules of WATCHED it loaded
#: to stderr.
FRESH_CLI = """
import sys
from alignsig.cli import main
try:
    main(sys.argv[1:])
finally:
    print([m for m in WATCHED if m in sys.modules], file=sys.stderr)
"""


def fresh_env():
    """The environment of a fresh interpreter that imports this alignsig."""
    src = str(Path(alignsig.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def fresh_cli(*args, prelude="", watched=HEAVY_MODULES):
    """The CLI run on `args` in a fresh interpreter, after the code `prelude`."""
    script = f"WATCHED = {watched!r}\n{prelude}{FRESH_CLI}"
    return subprocess.run([sys.executable, "-c", script, *args],
                          env=fresh_env(), capture_output=True, text=True)


def run_fresh(*args, watched=HEAVY_MODULES):
    """(exit code, modules of `watched` loaded) of the CLI in a fresh interpreter."""
    done = fresh_cli(*args, watched=watched)
    return done.returncode, done.stderr.splitlines()[-1]


def test_importing_the_cli_loads_no_scipy():
    # numpy serves only `match`, expat only XML alignments, and the worker
    # processes only large inputs; loading them, or scipy, would slow every command
    assert run_fresh("--help") == (0, "[]")


@pytest.mark.parametrize("correction", ["holm", "shaffer", "bergmann"])
def test_matrix_compare_loads_no_numpy(correction):
    matrix = str(fixture_path("anatomy-ifp"))
    assert run_fresh("compare", "--matrix", matrix, "--correction", correction) == (0, "[]")


@pytest.mark.parametrize("command", ["table", "compare"])
def test_counting_tsv_alignments_loads_no_numpy(tmp_path, command):
    ref = write(tmp_path, "ref.tsv", REF)
    a = write(tmp_path, "a.tsv", SYS_A)
    b = write(tmp_path, "b.tsv", SYS_B)
    assert run_fresh(command, "--reference", ref, "--alignment", f"S1={a}",
                     "--alignment", f"S2={b}") == (0, "[]")


@pytest.mark.parametrize("shaped, loaded", [
    (True, "['xml.parsers.expat']"),
    # XML_SYSTEM's Cells differ in their children, which leaves it to
    # ElementTree's parser
    (False, "['xml.parsers.expat', 'xml.etree']"),
], ids=["oaei-shaped", "out-of-shape"])
def test_counting_xml_alignments_loads_element_tree_only_out_of_shape(tmp_path, shaped, loaded):
    ref = write(tmp_path, "ref.tsv", REF)
    document = XML_SYSTEM.replace("\n          <measure>0.5</measure>", "") if shaped else XML_SYSTEM
    a = write(tmp_path, "a.rdf", document)
    b = write(tmp_path, "b.tsv", SYS_B)
    assert run_fresh("table", "--reference", ref, "--alignment", f"S1={a}",
                     "--alignment", f"S2={b}", watched=("xml.parsers.expat", "xml.etree")
                     ) == (0, loaded)


def command_args(tmp_path, command):
    """Arguments of a small run of `command`."""
    if command == "compare":
        return ["--matrix", str(fixture_path("anatomy-ifp"))]
    if command == "table":
        return ["--reference", write(tmp_path, "ref.tsv", REF),
                "--alignment", f"S1={write(tmp_path, 'a.tsv', SYS_A)}",
                "--alignment", f"S2={write(tmp_path, 'b.tsv', SYS_B)}"]
    if command == "match":
        labels = write(tmp_path, "labels.tsv", LABELS)
        return ["--source", labels, "--target", labels, "--metric", "levenshtein"]
    return ["--report", str(Path(__file__).parent / "golden" / "anatomy_ifp_bergmann.json")]


@pytest.mark.parametrize("command", ["table", "match", "rank"])
def test_only_compare_loads_the_comparison_stack(tmp_path, command):
    assert run_fresh(command, *command_args(tmp_path, command),
                     watched=COMPARISON_MODULES) == (0, "[]")


@pytest.mark.parametrize("command", ["compare", "table", "match", "rank"])
def test_no_command_loads_dataclasses(tmp_path, command):
    # importing dataclasses pulls in inspect, dis, ast and tokenize; numpy
    # loads inspect itself, so `match` is only checked for dataclasses
    watched = ("dataclasses",) if command == "match" else ("dataclasses", "inspect")
    assert run_fresh(command, *command_args(tmp_path, command), watched=watched) == (0, "[]")


def test_match_loads_numpy_only(tmp_path):
    labels = write(tmp_path, "labels.tsv", LABELS)
    code, loaded = run_fresh("match", "--source", labels, "--target", labels,
                             "--metric", "levenshtein")
    assert (code, loaded) == (0, "['numpy']")


def test_match_runs_where_scipy_cannot_be_imported(tmp_path):
    # a None entry in sys.modules makes every import of scipy fail; s1 and s2
    # tie for t2 and t4, and the pairs are those scipy's solver chose
    source = write(tmp_path, "source.tsv", "s1\teye\ns2\tEye\ns3\tear\n")
    target = write(tmp_path, "target.tsv", "t1\teyes\nt2\teye\nt3\tears\nt4\tEYE\n")
    done = fresh_cli("match", "--source", source, "--target", target,
                     "--metric", "levenshtein",
                     prelude="import sys\nsys.modules['scipy'] = None\n")
    assert (done.returncode, done.stdout) == (
        0, "s1\tt2\t=\t1\ns2\tt4\t=\t1\ns3\tt3\t=\t0.75\n")


def test_cli_runs_where_click_cannot_be_imported():
    done = fresh_cli("compare", "--matrix", str(fixture_path("anatomy-ifp")),
                     prelude="import sys\nsys.modules['click'] = None\n")
    golden = json.loads((Path(__file__).parent / "golden" / "anatomy_ifp_bergmann.json")
                        .read_text())
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [" & ".join(group) for group in golden["ranking"]]


def test_stdout_is_utf8_whatever_its_encoding(tmp_path):
    # a system name outside ASCII, and stdout set to ASCII
    for name, text in [("ref.tsv", REF), ("s1.tsv", SYS_A), ("s2.tsv", SYS_B)]:
        write(tmp_path, name, text)
    env = {**fresh_env(), "PYTHONIOENCODING": "ascii"}
    systems = ["--reference", "ref.tsv", "--alignment", "Σ1=s1.tsv", "--alignment", "S2=s2.tsv"]

    def cli(*args):
        return subprocess.run([sys.executable, "-m", "alignsig.cli", *args], cwd=tmp_path,
                              env=env, capture_output=True)

    table = cli("table", *systems)
    assert (table.returncode, table.stderr) == (0, b"")
    assert cli("table", *systems, "--output", "table.tsv").returncode == 0
    assert table.stdout == (tmp_path / "table.tsv").read_bytes()
    assert table.stdout.startswith("Σ1\tS2\n".encode("utf-8"))
    compare = cli("compare", *systems, "--report", "report.json")
    assert (compare.returncode, compare.stderr) == (0, b"")
    rank = cli("rank", "--report", "report.json")
    assert rank.stdout == compare.stdout
    assert "Σ1".encode("utf-8") in compare.stdout


@pytest.mark.parametrize("report, code, stderr", [
    ([], 1, ""),  # the ranking itself meets the closed pipe
    (["--report", "/dev/stdout"], 2, "error: [Errno 32] Broken pipe\n"),
], ids=["ranking", "report"])
def test_closed_stdout_exits_without_a_traceback(report, code, stderr):
    proc = subprocess.Popen(
        [sys.executable, "-m", "alignsig.cli", "compare",
         "--matrix", str(fixture_path("anatomy-ifp")), *report],
        env=fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()  # before the CLI writes anything
    _, err = proc.communicate()
    assert (proc.returncode, err) == (code, stderr)


#: Runs the CLI on its arguments after its first one, "pool" or "sequential",
#: then prints to stderr whether the ingest ran in worker processes (whether
#: `alignsig.workers` was loaded), 1 if a child process, running or ended, is
#: left unreaped and 0 if none is, and the modules of a multiprocessing or
#: concurrent.futures pool that were loaded.  "pool" takes the workers for any
#: input size and two CPUs.  A fresh interpreter forks no test runner with
#: threads running.
INGEST_CLI = """
import os, sys
from alignsig import ingest
from alignsig.cli import main
if sys.argv.pop(1) == "pool":
    ingest.POOL_MIN_BYTES = 0
    ingest._cpus = lambda: 2
try:
    main(sys.argv[1:])
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
        left = 1
    except ChildProcessError:
        left = 0
    print("alignsig.workers" in sys.modules, left,
          [m for m in sys.modules if m.split(".")[0] in ("multiprocessing", "concurrent")],
          file=sys.stderr)
"""

XML_SYSTEM = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns="http://knowledgeweb.semanticweb.org/heterogeneity/alignment">
  <Alignment><map>
    <Cell><entity1 rdf:resource="r1"/><entity2 rdf:resource="t1"/></Cell>
    <Cell><entity1 rdf:resource="r3"/><entity2 rdf:resource="t3"/>
          <measure>0.5</measure></Cell>
    <Cell><entity1 rdf:resource="y"/><entity2 rdf:resource="z"/></Cell>
  </map></Alignment>
</rdf:RDF>
"""


def ingest_cli(mode, tmp_path, *args):
    """(exit code, stdout bytes, the lines of stderr but its last, its last line)."""
    done = subprocess.run([sys.executable, "-c", INGEST_CLI, mode, *args], cwd=tmp_path,
                          env=fresh_env(), capture_output=True, timeout=60)
    *stderr, last = done.stderr.decode().splitlines()
    return done.returncode, done.stdout, stderr, last


def five_files(tmp_path, third=XML_SYSTEM, fifth=True, ref=REF):
    """Arguments naming the reference and four systems, with the reference, the
    third and the fifth file given."""
    write(tmp_path, "ref.tsv", ref)
    write(tmp_path, "a.tsv", SYS_A)
    write(tmp_path, "b.rdf", third)
    write(tmp_path, "c.tsv", SYS_B)
    if fifth:
        write(tmp_path, "d.rdf", XML_SYSTEM.replace('"y"', '"r2"'))
    return ["--reference", "ref.tsv", "--alignment", "A=a.tsv", "--alignment", "B=b.rdf",
            "--alignment", "C=c.tsv", "--alignment", "D=d.rdf"]


@pytest.mark.parametrize("command", ["table", "compare"])
def test_pool_writes_the_sequential_output(tmp_path, command):
    args = [command, *five_files(tmp_path)]
    if command == "compare":
        args += ["--perspective", "cfp", "--correction", "holm"]
    outputs = {}
    for mode in ("sequential", "pool"):
        extra = ["--report", f"{mode}.json", "--dot", f"{mode}.dot"] if command == "compare" else []
        code, stdout, stderr, last = ingest_cli(mode, tmp_path, *args, *extra)
        # the workers ran, no worker outlives them, and no pool module loaded
        assert (code, stderr, last) == (0, [], f"{mode == 'pool'} 0 []")
        outputs[mode] = [stdout] + [(tmp_path / f"{mode}.{suffix}").read_bytes()
                                    for suffix in ("json", "dot") if extra]
    assert outputs["pool"] == outputs["sequential"]
    assert outputs["pool"][0].count(b"\n") == (5 if command == "table" else 1)


@pytest.mark.parametrize("third, fifth, ref, error", [
    ("<r><Cell>", False, REF, "error: XML syntax error at (1, 9)"),
    (XML_SYSTEM, False, REF, "error: [Errno 2] No such file or directory: 'd.rdf'"),
    ("<r><Cell>", True, REF, "error: XML syntax error at (1, 9)"),
    (XML_SYSTEM.replace("0.5", "high"), True, REF, "error: Cell 1: confidence 'high'"),
    ("<r><Cell>", True, REF.replace("t3", "t3\t=\thigh"), "error: line 3: confidence 'high'"),
], ids=["bad-third-and-missing-fifth", "missing-fifth", "bad-third", "bad-measure",
        "bad-reference-and-third"])
def test_pool_raises_the_first_bad_files_error(tmp_path, third, fifth, ref, error):
    args = ["table", *five_files(tmp_path, third, fifth, ref)]
    sequential = ingest_cli("sequential", tmp_path, *args)
    pooled = ingest_cli("pool", tmp_path, *args)
    assert sequential[:3] == pooled[:3]
    code, stdout, stderr, last = pooled
    # the reference is parsed before the pool starts, so its error ends the run first
    assert (code, stdout, last) == (2, b"", f"{ref == REF} 0 []")
    assert len(stderr) == 1 and stderr[0].startswith(error)


#: Makes the workers parse any input on two CPUs, with a fork that fails on its
#: second call as it does when the process limit is reached; at exit, prints
#: to stderr whether a child process, running or ended, is left unreaped.
FAILED_FORK = """
import atexit, errno, os, sys
from alignsig import ingest
ingest.POOL_MIN_BYTES = 0
ingest._cpus = lambda: 2
forks, fork = [], os.fork

def failing_fork():
    forks.append(None)
    if len(forks) == 2:
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    return fork()

@atexit.register
def children():
    try:
        os.waitpid(-1, os.WNOHANG)
        print("a child is left", file=sys.stderr)
    except ChildProcessError:
        print("no child is left", file=sys.stderr)

os.fork = failing_fork
"""


def test_a_failed_fork_exits_2_and_leaves_no_worker(tmp_path):
    # an OSError from the workers is the environment's, as a missing path is
    done = fresh_cli("table", *command_args(tmp_path, "table"), prelude=FAILED_FORK,
                     watched=("alignsig.workers",))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.splitlines() == [
        f"error: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}", "['alignsig.workers']",
        "no child is left"]
