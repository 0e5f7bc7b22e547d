"""Run the alignsig CLI once with its layer boundaries traced.

    python3 perfbench/traced_cli.py SPANS_JSON RUN_ID -- <alignsig arguments>

The public functions of each module are wrapped where their callers look
them up (module attributes, and the names siggraph imports from mcnemar and
fwer); then `alignsig.cli.main` runs with the given arguments. The spans are
written to SPANS_JSON when the CLI exits, and this process exits with the
CLI's exit code. Nothing in the package is modified on disk.
"""

from __future__ import annotations

import sys

from spans import Tracer, dump


def _bytes(args, kwargs, result):
    return {"bytes": len(args[0])}


def _canonical(args, kwargs, result):
    return {"in": len(args[0]), "kept": len(result)}


def _cells(args, kwargs, result):
    n = len(result.systems)
    return {"cells": n * (n - 1)}


def _discordant(args, kwargs, result):
    total = args[1] + args[2]
    return {"discordant_total": (total, int.__add__), "discordant_max": (total, max)}


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the alignsig modules in place."""
    from alignsig import contingency, fwer, ingest, matcher, siggraph

    def span(module, func, layer, attrs=None):
        setattr(module, func, tracer.span(f"{layer}.{func}", layer, getattr(module, func), attrs))

    for func in ("parse_alignment_tsv", "parse_alignment_xml", "parse_label_list"):
        span(ingest, func, "ingest", _bytes)
    span(ingest, "canonicalize_alignment", "ingest", _canonical)
    span(ingest, "write_alignment_tsv", "ingest")
    span(contingency, "build_discordant_matrix", "contingency", _cells)
    span(contingency, "parse_matrix_tsv", "contingency")
    span(contingency, "write_matrix_tsv", "contingency")
    for func in ("build_report", "build_graph", "pairwise_outcomes", "rank_systems",
                 "emit_dot", "serialize_report"):
        span(siggraph, func, "siggraph")
    siggraph.run_test = tracer.aggregate("mcnemar.run_test", "mcnemar", siggraph.run_test,
                                         _discordant)
    siggraph.adjust = tracer.span("fwer.adjust", "fwer", siggraph.adjust,
                                  lambda args, kwargs, result: {"hypotheses": args[0].k})
    span(fwer, "bergmann_exhaustive_sets", "fwer",
         lambda args, kwargs, result: {"sets": len(result)})
    span(matcher, "match", "matcher")
    span(matcher, "build_similarity_matrix", "matcher",
         lambda args, kwargs, result: {"cells": int(result.s.size)})
    span(matcher, "hungarian_assign", "matcher",
         lambda args, kwargs, result: {"pairs": len(result)})
    span(matcher, "extract_alignment", "matcher",
         lambda args, kwargs, result: {"kept": len(result)})
    for func in ("normalize", "similarity"):
        setattr(matcher, func, tracer.aggregate(f"matcher.{func}", "matcher",
                                                getattr(matcher, func)))


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    from alignsig import cli

    tracer = Tracer(run_id)
    install(tracer)
    run = tracer.span("cli.main", "cli", cli.main.main)
    code = 0
    try:
        run(args=cli_args, prog_name="alignsig", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        dump(tracer, spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
