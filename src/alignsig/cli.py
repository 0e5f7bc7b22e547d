"""Command-line interface: compare, table, match, rank.

Exit codes: 0 success, 1 internal error, 2 usage/validation error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import contingency, ingest, siggraph
from .errors import AlignsigError
from .model import ComparisonConfig, Correction, MetricKind, Mode, Perspective, TestKind

#: What a bad input file or option value raises; each ends as exit code 2.
#: OSError covers a missing path, a directory and an unreadable file.
INPUT_ERRORS = (AlignsigError, OSError, ValueError)


def _choice(enum, case_sensitive=True) -> click.Choice:
    """The enum's values, sorted, as the values an option accepts."""
    return click.Choice(sorted(member.value for member in enum), case_sensitive=case_sensitive)


perspective_option = click.option("--perspective", type=_choice(Perspective), default="ifp")


def _parse_alignment_args(specs) -> list:
    alignments = []
    for spec in specs:
        if "=" not in spec:
            raise click.UsageError(f"--alignment must be name=path, got {spec!r}")
        name, _, path = spec.partition("=")
        alignments.append(ingest.parse_alignment(Path(path).read_bytes(), name))
    return alignments


def _fail_validation(exc: Exception | str):
    click.echo(f"error: {exc}", err=True)
    sys.exit(2)


def _write(path: Path | None, data: bytes) -> None:
    """Write an output file, or stdout when no path is given."""
    if path is None:
        click.echo(data.decode("utf-8"), nl=False)
        return
    try:
        path.write_bytes(data)
    except OSError as exc:  # a directory, a missing parent, no permission
        _fail_validation(exc)


@click.group()
def main():
    """Statistical comparison of alignment systems on one matching task."""


@main.command()
@click.option("--reference", type=click.Path(exists=True, path_type=Path))
@click.option("--alignment", "alignments", multiple=True,
              help="name=path; repeat for each system (>=2).")
@click.option("--matrix", type=click.Path(exists=True, path_type=Path),
              help="Pre-built discordant matrix TSV (alternative to alignments).")
@perspective_option
@click.option("--test", "test_name", type=_choice(TestKind),
              default=ComparisonConfig.test.value)
@click.option("--correction", type=_choice(Correction), default=None)
@click.option("--mode", type=_choice(Mode), default=ComparisonConfig.mode.value)
@click.option("--baseline", default=None, help="Baseline system name (nx1 mode).")
@click.option("--alpha", type=float, default=ComparisonConfig.alpha, show_default=True)
@click.option("--bergmann-cap", type=int, default=ComparisonConfig.bergmann_cap,
              show_default=True, help="Max systems for Bergmann's correction.")
@click.option("--dot", "dot_out", type=click.Path(path_type=Path),
              help="Write the significance digraph as DOT.")
@click.option("--report", "report_out", type=click.Path(path_type=Path),
              help="Write the JSON comparison report.")
def compare(reference, alignments, matrix, perspective, test_name, correction,
            mode, baseline, alpha, bergmann_cap, dot_out, report_out):
    """Pairwise McNemar comparison with FWER correction; emits DOT + report."""
    try:
        cfg = ComparisonConfig(
            test=TestKind(test_name),
            correction=None if correction is None else Correction(correction),
            mode=Mode(mode),
            baseline=baseline,
            alpha=alpha,
            bergmann_cap=bergmann_cap,
        )
        m = _resolve_matrix(reference, alignments, matrix, Perspective(perspective))
        graph = siggraph.build_graph(m, cfg)
    except INPUT_ERRORS as exc:
        _fail_validation(exc)
    if dot_out:
        _write(dot_out, siggraph.emit_dot(graph))
    if report_out:
        _write(report_out, siggraph.serialize_report(siggraph.build_report(graph)))
    for group in siggraph.rank_systems(graph):
        click.echo(" & ".join(group))


def _resolve_matrix(reference, alignments, matrix, persp):
    if matrix is not None:
        if reference is not None or alignments:
            raise click.UsageError("give either --matrix or --reference/--alignment, not both")
        return contingency.parse_matrix_tsv(matrix.read_bytes(), persp)
    if reference is None or len(alignments) < 2:
        raise click.UsageError(
            "provide either --matrix or --reference plus >=2 --alignment entries"
        )
    ref = ingest.parse_alignment(reference.read_bytes(), "reference")
    systems = _parse_alignment_args(alignments)
    return contingency.build_discordant_matrix(ref, systems, persp)


@main.command()
@click.option("--reference", type=click.Path(exists=True, path_type=Path), required=True)
@click.option("--alignment", "alignments", multiple=True, required=True,
              help="name=path; repeat for each system (>=2).")
@perspective_option
@click.option("--output", type=click.Path(path_type=Path), default=None,
              help="Output TSV path (default: stdout).")
def table(reference, alignments, perspective, output):
    """Emit the all-pairs discordant matrix as TSV."""
    try:
        ref = ingest.parse_alignment(reference.read_bytes(), "reference")
        systems = _parse_alignment_args(alignments)
        m = contingency.build_discordant_matrix(ref, systems, Perspective(perspective))
    except INPUT_ERRORS as exc:
        _fail_validation(exc)
    _write(output, contingency.write_matrix_tsv(m))


@main.command()
@click.option("--source", type=click.Path(exists=True, path_type=Path), required=True)
@click.option("--target", type=click.Path(exists=True, path_type=Path), required=True)
@click.option("--metric", type=_choice(MetricKind, case_sensitive=False),
              required=True)
@click.option("--threshold", type=float, default=0.0, show_default=True)
@click.option("--name", "system_name", default=None,
              help="System name recorded in the output (default: the metric).")
@click.option("--output", type=click.Path(path_type=Path), default=None,
              help="Output alignment TSV path (default: stdout).")
def match(source, target, metric, threshold, system_name, output):
    """Match two concept-label lists with a string metric + optimal assignment."""
    from . import matcher  # numpy loads only for matching

    kind = MetricKind(metric)
    try:
        src = ingest.parse_label_list(source.read_bytes())
        tgt = ingest.parse_label_list(target.read_bytes())
        alignment = matcher.match(src, tgt, kind, threshold, system_name or kind.value)
    except INPUT_ERRORS as exc:
        _fail_validation(exc)
    _write(output, ingest.write_alignment_tsv(alignment))


@main.command()
@click.option("--report", "report_path", type=click.Path(exists=True, path_type=Path),
              required=True, help="JSON report produced by `compare`.")
def rank(report_path):
    """Print rank groups from a comparison report, one '&'-joined row per group."""
    try:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors
        report = json.loads(report_path.read_text("utf-8"))
    except (OSError, ValueError) as exc:
        _fail_validation(exc)
    groups = report.get("ranking") if isinstance(report, dict) else None
    if not (isinstance(groups, list) and all(
            isinstance(group, list) and all(isinstance(name, str) for name in group)
            for group in groups)):
        _fail_validation("report holds no 'ranking' list of system-name lists")
    for group in groups:
        click.echo(" & ".join(group))


if __name__ == "__main__":
    main()
