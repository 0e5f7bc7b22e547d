"""Command-line interface: compare, table, match, rank.

Exit codes: 0 success; 2 a usage error, an AlignsigError or an OSError (a bad
input, option or path); 1 a closed stdout, or any other exception: a bug.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import contingency, ingest
from .errors import AlignsigError, InvalidInput, Undecodable
from .model import (
    ComparisonConfig, Correction, MetricKind, Mode, Perspective, TestKind, check_system_names,
)


def _fail_validation(exc: Exception):
    print(f"error: {exc}", file=sys.stderr)
    sys.exit(2)


def _write(path: Path | None, data: bytes) -> None:
    """Write an output file, or stdout when no path is given."""
    if path is None:  # the same UTF-8 bytes, whatever stdout's encoding
        sys.stdout.buffer.write(data)
        return
    try:
        path.write_bytes(data)
    except (OSError, ValueError) as exc:  # a directory, a missing parent, no permission; a NUL
        _fail_validation(exc)


def _ranking(groups) -> bytes:
    """One '&'-joined line per rank group."""
    return "".join(" & ".join(group) + "\n" for group in groups).encode("utf-8")


def _discordant_matrix(args, matrix: Path | None = None):
    """The matrix read from `matrix`, or counted from --reference and the --alignment specs."""
    persp = Perspective(args.perspective)
    if matrix is not None:
        if args.reference is not None or args.alignments:
            raise InvalidInput("give either --matrix or --reference/--alignment, not both")
        return contingency.parse_matrix_tsv(ingest.read_input(matrix), persp)
    if args.reference is None or len(args.alignments) < 2:
        raise InvalidInput("provide either --matrix or --reference plus >=2 --alignment entries")
    files = []
    for spec in args.alignments:
        name, eq, path = spec.partition("=")
        if not eq:
            raise InvalidInput(f"--alignment must be name=path, got {spec!r}")
        files.append((name, Path(path)))
    # each system takes its counting step as soon as it is parsed, in a worker
    # when workers parse the files, so that no process holds two Alignments at once
    step = contingency.system_step(*ingest.parse_alignment_files([("reference", args.reference)]))
    return contingency.count_discordant(ingest.parse_alignment_files(files, step), persp)


def compare(args):
    """Pairwise McNemar comparison with FWER correction; emits DOT + report."""
    from . import siggraph  # with fwer and mcnemar, only `compare` needs it
    cfg = ComparisonConfig(
        test=TestKind(args.test), mode=Mode(args.mode), baseline=args.baseline,
        correction=None if args.correction is None else Correction(args.correction),
        alpha=args.alpha, bergmann_cap=args.bergmann_cap)
    graph = siggraph.build_graph(_discordant_matrix(args, args.matrix), cfg)
    if args.dot:
        _write(args.dot, siggraph.emit_dot(graph))
    if args.report:
        _write(args.report, siggraph.serialize_report(siggraph.build_report(graph)))
    _write(None, _ranking(siggraph.rank_systems(graph)))


def table(args):
    """Emit the all-pairs discordant matrix as TSV."""
    _write(args.output, contingency.write_matrix_tsv(_discordant_matrix(args)))


def match(args):
    """Match two concept-label lists with a string metric + optimal assignment."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # spares an idle OpenBLAS pool
    from . import matcher  # numpy loads only for matching

    kind = MetricKind(args.metric)
    src = ingest.parse_label_list(ingest.read_input(args.source))
    tgt = ingest.parse_label_list(ingest.read_input(args.target))
    alignment = matcher.match(src, tgt, kind, args.threshold, kind.value)
    _write(args.output, ingest.write_alignment_tsv(alignment))


def rank(args):
    """Print rank groups from a comparison report, one '&'-joined row per group."""
    try:
        report = json.loads(ingest.read_input(args.report, "utf-8"))
    except UnicodeDecodeError as exc:
        raise Undecodable(exc.start, exc.reason, "UTF-8") from None
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise InvalidInput(str(exc)) from None
    groups = report.get("ranking") if isinstance(report, dict) else None
    if not (isinstance(groups, list) and all(
            isinstance(group, list) and group
            and all(isinstance(name, str) for name in group) for group in groups)):
        raise InvalidInput("report holds no 'ranking' list of non-empty system-name lists")
    check_system_names(name for group in groups for name in group)
    _write(None, _ranking(groups))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="alignsig", allow_abbrev=False, description=(
        "Statistical comparison of alignment systems on one matching task."))
    commands = parser.add_subparsers(required=True, metavar="COMMAND")

    def command(run):
        sub = commands.add_parser(run.__name__, help=run.__doc__, description=run.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub.add_argument

    def choices_of(enum) -> list:  # the enum's values, sorted
        return sorted(member.value for member in enum)

    systems = "name=path; repeat for each system (>=2)."
    option = command(compare)
    option("--reference", type=Path)
    option("--alignment", dest="alignments", action="append", default=[], help=systems)
    option("--matrix", type=Path,
           help="Pre-built discordant matrix TSV (alternative to alignments).")
    option("--perspective", choices=choices_of(Perspective), default=Perspective.IFP.value)
    option("--test", choices=choices_of(TestKind), default=ComparisonConfig.test.value)
    option("--correction", choices=choices_of(Correction))
    option("--mode", choices=choices_of(Mode), default=ComparisonConfig.mode.value)
    option("--baseline", help="Baseline system name (nx1 mode).")
    option("--alpha", type=ingest.number, default=ComparisonConfig.alpha,
           help="(default: %(default)s)")
    option("--bergmann-cap", type=ingest.integer, default=ComparisonConfig.bergmann_cap,
           help="Max systems for Bergmann's correction. (default: %(default)s)")
    option("--dot", type=Path, help="Write the significance digraph as DOT.")
    option("--report", type=Path, help="Write the JSON comparison report.")

    option = command(table)
    option("--reference", type=Path, required=True)
    option("--alignment", dest="alignments", action="append", required=True, help=systems)
    option("--perspective", choices=choices_of(Perspective), default=Perspective.IFP.value)
    option("--output", type=Path, help="Output TSV path (default: stdout).")

    option = command(match)
    option("--source", type=Path, required=True)
    option("--target", type=Path, required=True)
    # casefold before the choice check: metric names are case-insensitive
    option("--metric", type=str.casefold, choices=choices_of(MetricKind), required=True)
    option("--threshold", type=ingest.number, default=0.0, help="(default: %(default)s)")
    option("--name", help="Ignored: the output TSV records no system name.")
    option("--output", type=Path, help="Output alignment TSV path (default: stdout).")

    command(rank)("--report", type=Path, required=True, help="JSON report produced by `compare`.")
    return parser


def main(argv: list[str] | None = None) -> None:
    """Run the subcommand `argv` names (default: sys.argv[1:]); a bug's exception propagates."""
    args = _parser().parse_args(argv)
    try:
        args.run(args)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout: exit 1 without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except (AlignsigError, OSError) as exc:  # a bad input file, option value or path
        _fail_validation(exc)


#: Only for perfbench/traced_cli.py, which calls click's `main.main(args=..., ...)`.
main.main = lambda args, **_: main(args)

if __name__ == "__main__":
    main()
