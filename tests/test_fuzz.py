"""Malformed-input fuzz of every subcommand, run in-process through `cli.main`.

Each test takes valid inputs (the bundled matrices, generated alignment TSV
and Alignment XML, label lists, a golden report), mutates them by truncation,
splicing, byte flips, byte order marks, NULs, deep nesting and huge numbers,
and runs its command on them.  Every run must end with exit 0 or exit 2.  On
exit 2, stderr is one ``error:`` line or argparse's usage, and stdout is empty.
On exit 0, the output parses back: a matrix through `parse_matrix_tsv`, an
alignment through `parse_alignment`, and ranking lines equal the report's.

ALIGNSIG_FUZZ_PROFILE picks the hypothesis profile: ``tier1`` (the default)
is small and takes a few seconds, ``long`` runs many more examples.  Both
have a fixed seed and a deadline per example:

    ALIGNSIG_FUZZ_PROFILE=long PYTHONPATH=src python -m pytest -q tests/test_fuzz.py
"""

import codecs
import contextlib
import io
import json
import os
import signal
import tempfile
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from alignsig.cli import main
from alignsig.contingency import parse_matrix_tsv
from alignsig.data import FIXTURES, fixture_bytes
from alignsig.ingest import parse_alignment
from alignsig.model import Correction, MetricKind, Perspective, TestKind

#: Each profile's number of examples and deadline per example in seconds.
#: Hypothesis checks the deadline once an example has returned; `_watchdog`
#: stops an example that runs five times as long.
PROFILES = {"tier1": (50, 2.0), "long": (1500, 5.0)}
EXAMPLES, DEADLINE = PROFILES[os.environ.get("ALIGNSIG_FUZZ_PROFILE", "tier1")]
FUZZ = settings(max_examples=EXAMPLES, deadline=timedelta(seconds=DEADLINE), derandomize=True,
                database=None, suppress_health_check=[HealthCheck.too_slow])

#: Hypothesis warns when it prints an input of more than 30 kB, as when it
#: reports a falsifying example; as an error, that warning would hide the report.
pytestmark = pytest.mark.filterwarnings("ignore:Generating overly large repr")

GOLDEN_REPORT = (Path(__file__).parent / "golden" / "anatomy_ifp_bergmann.json").read_bytes()

REFERENCE = b"".join(b"http://s#%d\thttp://t#%d\n" % (i, i) for i in range(8))
SYSTEM_TSV = b"# a comment\nhttp://s#0\thttp://t#0\t=\t0.9\nhttp://s#2\thttp://t#2\n" \
             b"http://s#9\thttp://t#9\t=\t1\n"
SYSTEM_XML = (
    b'<?xml version="1.0" encoding="utf-8"?>\n'
    b'<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
    b' xmlns="http://knowledgeweb.semanticweb.org/heterogeneity/alignment">'
    b"<Alignment><map>"
    + b"".join(b'<Cell><entity1 rdf:resource="http://s#%d"/><entity2 rdf:resource="http://t#%d"/>'
               b"<measure>0.%d</measure><relation>=</relation></Cell>" % (i, i, i)
               for i in (1, 2, 3, 11))
    + b"</map></Alignment></rdf:RDF>\n"
)
TABLE_INPUTS = {"ref.tsv": REFERENCE, "a.tsv": SYSTEM_TSV, "b.rdf": SYSTEM_XML}
LABELS = b"m1\toptic nerve\nm2\tretina\nm3\tlens of eye\nm4\tCiliary_Body\n"
OTHER_LABELS = b"h1\tOptic Nerve\nh2\tretina\nh3\teye lens\n"

BOMS = (codecs.BOM_UTF8, codecs.BOM_UTF16_LE, codecs.BOM_UTF16_BE, codecs.BOM_UTF32_LE)
OPENERS = (b"[", b'{"ranking": ', b"<a>", b"<Cell>", b"\t")
DEPTHS = (2, 1000, 100_000)
NUMBERS = (b"9" * 25, b"9223372036854775807", b"9223372036854775808", b"-9223372036854775809",
           b"4294967296", b"1" + b"0" * 400, b"1e999", b"-0", b"nan", b"inf", b"-1")


def _position(draw, data: bytes) -> int:
    return draw(st.integers(0, len(data)))


def _truncate(draw, data):
    return data[:_position(draw, data)]


def _splice(draw, data):  # data[i:j] replaced by a slice of the data itself
    i, j, k, m = (_position(draw, data) for _ in range(4))
    return data[:min(i, j)] + data[min(k, m):max(k, m)] + data[max(i, j):]


def _flip(draw, data):
    if not data:
        return data
    i = draw(st.integers(0, len(data) - 1))
    return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]


def _insert(piece):
    def insert(draw, data):
        i = _position(draw, data)
        return data[:i] + draw(piece) + data[i:]
    return insert


MUTATIONS = (
    _truncate,
    _splice,
    _flip,
    lambda draw, data: draw(st.sampled_from(BOMS)) + data,
    _insert(st.just(b"\x00")),
    _insert(st.builds(bytes.__mul__, st.sampled_from(OPENERS), st.sampled_from(DEPTHS))),
    _insert(st.sampled_from(NUMBERS)),
    _insert(st.sampled_from((b"\t", b"\n", b"\r", b"=", b"#", b"<", b"&", b'"', b"\xff"))),
)


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """`data` after zero to three mutations."""
    for _ in range(draw(st.integers(0, 3))):
        data = draw(st.sampled_from(MUTATIONS))(draw, data)
    return data


class Stall(Exception):
    """An example ran far past its deadline."""


@contextlib.contextmanager
def _watchdog(seconds: float):
    """Raise Stall in the example once it has run `seconds`, where SIGALRM exists."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def stall(signum, frame):
        raise Stall(f"example still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, stall)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run(args):
    """(exit code, stdout bytes, stderr text) of `cli.main(args)` in this process."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    blas = os.environ.get("OPENBLAS_NUM_THREADS")  # `match` sets it when unset
    try:
        with _watchdog(5 * DEADLINE), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(args)
        code = 0
    except SystemExit as exc:
        code = exc.code
    finally:
        if blas is None:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


def check_exit(code, stdout, stderr, command) -> bool:
    """Whether the run succeeded; a failure must be exit 2 with one error line
    or argparse's usage, and no output."""
    event(f"exit {code}")  # the share of each, under --hypothesis-show-statistics
    if code == 0:
        assert stderr == ""
        return True
    assert code == 2, (code, stderr)
    assert stdout == b""
    if stderr.startswith("usage: "):
        assert stderr.splitlines()[-1].startswith(f"alignsig {command}: error: ")
    else:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
    return False


def ranking_lines(report_text: str) -> list:
    return [" & ".join(group) for group in json.loads(report_text)["ranking"]]


#: System names: ones the name rule accepts, or any short text.
NAMES = st.one_of(st.sampled_from(["A", "B", "C", " D ", "Σ1"]), st.text(max_size=3))


@FUZZ
@given(matrix=st.sampled_from(sorted(FIXTURES)).map(fixture_bytes).flatmap(mutated),
       perspective=st.sampled_from(Perspective), test=st.sampled_from(TestKind),
       correction=st.sampled_from(Correction))
def test_compare(matrix, perspective, test, correction):
    with tempfile.TemporaryDirectory() as tmp:
        path, report = Path(tmp, "m.tsv"), Path(tmp, "report.json")
        path.write_bytes(matrix)
        code, stdout, stderr = run([
            "compare", "--matrix", str(path), "--perspective", perspective.value,
            "--test", test.value, "--correction", correction.value,
            "--report", str(report), "--dot", str(Path(tmp, "graph.dot"))])
        if check_exit(code, stdout, stderr, "compare"):
            assert stdout.decode("utf-8").splitlines() == ranking_lines(report.read_text("utf-8"))
            assert run(["rank", "--report", str(report)]) == (0, stdout, "")


@FUZZ
@given(inputs=st.sampled_from(sorted(TABLE_INPUTS)).flatmap(lambda bad: st.fixed_dictionaries(
           {name: mutated(data) if name == bad else st.just(data)
            for name, data in TABLE_INPUTS.items()})),
       systems=st.lists(NAMES, min_size=2, max_size=3), perspective=st.sampled_from(Perspective))
def test_table(inputs, systems, perspective):
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in inputs.items():
            Path(tmp, name).write_bytes(data)
        specs = [arg for name, file in zip(systems, ["a.tsv", "b.rdf", "a.tsv"])
                 for arg in ("--alignment", f"{name}={Path(tmp, file)}")]
        out = Path(tmp, "m.tsv")
        code, stdout, stderr = run([
            "table", "--reference", str(Path(tmp, "ref.tsv")), *specs,
            "--perspective", perspective.value, "--output", str(out)])
        if check_exit(code, stdout, stderr, "table"):
            matrix = parse_matrix_tsv(out.read_bytes(), perspective)
            assert matrix.systems == tuple(name.strip() for name in systems)


@FUZZ
@given(source=mutated(LABELS), target=mutated(OTHER_LABELS),
       metric=st.sampled_from(MetricKind), threshold=st.sampled_from(["0", "0.5", "1"]))
def test_match(source, target, metric, threshold):
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "src.tsv").write_bytes(source)
        Path(tmp, "tgt.tsv").write_bytes(target)
        code, stdout, stderr = run([
            "match", "--source", str(Path(tmp, "src.tsv")), "--target", str(Path(tmp, "tgt.tsv")),
            "--metric", metric.value, "--threshold", threshold])
        if check_exit(code, stdout, stderr, "match"):
            parse_alignment(stdout, "match")


@FUZZ
@given(report=mutated(GOLDEN_REPORT))
def test_rank(report):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "report.json")
        path.write_bytes(report)
        code, stdout, stderr = run(["rank", "--report", str(path)])
        if check_exit(code, stdout, stderr, "rank"):
            assert stdout.decode("utf-8").splitlines() == ranking_lines(report.decode("utf-8"))
