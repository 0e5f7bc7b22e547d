"""In-memory spans for one traced CLI invocation, and per-layer metrics from them.

A span is one call of a wrapped function: name, layer, start, end, parent
span and run id. Functions called once per pair or per label pair would
distort the timing if each call made a span, so they are aggregated per
parent span into a call count and a time sum. Everything is kept in memory
and written as one JSON document when the invocation ends.

A layer's self time is the time its spans cover minus the part covered by
their child spans and aggregates; a layer's busy time is the time during
which one of its spans or aggregates is open, children included.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

LAYERS = ("cli", "ingest", "contingency", "mcnemar", "fwer", "siggraph", "matcher")

# Per-layer metrics (name -> unit), in the order BENCHMARK.json lists them.
METRICS = {
    **{f"{layer}.{kind}": "s" for layer in LAYERS for kind in ("busy_s", "self_s")},
    "ingest.bytes": "bytes",
    "ingest.correspondences_in": "count",
    "ingest.correspondences_kept": "count",
    "contingency.cells": "count",
    "mcnemar.calls": "count",
    "mcnemar.discordant_total": "count",
    "mcnemar.discordant_max": "count",
    "fwer.calls": "count",
    "fwer.hypotheses": "count",
    "fwer.exhaustive_sets": "count",
    "siggraph.outcome_passes": "count",
    "matcher.normalize_s": "s",
    "matcher.similarity_s": "s",
    "matcher.assign_s": "s",
    "matcher.extract_s": "s",
    "matcher.cells": "count",
    "matcher.kept_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

_NS = 1e-9


class Tracer:
    """Records spans and aggregates for one run; not thread-safe."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[dict] = []
        self.aggregates: Dict[tuple, dict] = {}
        self._stack: List[int] = []

    def span(self, name: str, layer: str, fn: Callable,
             attrs: Optional[Callable] = None) -> Callable:
        """Wrap `fn` so that each call records a span.

        `attrs(args, kwargs, result)` returns the sizes to record with it.
        """

        def wrapper(*args, **kwargs):
            record = {"id": len(self.spans), "name": name, "layer": layer,
                      "parent": self._stack[-1] if self._stack else None,
                      "run": self.run_id, "attrs": {}}
            self.spans.append(record)
            self._stack.append(record["id"])
            record["start_ns"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end_ns"] = time.perf_counter_ns()
                self._stack.pop()
            if attrs is not None:
                record["attrs"] = attrs(args, kwargs, result)
            return result

        return wrapper

    def aggregate(self, name: str, layer: str, fn: Callable,
                  attrs: Optional[Callable] = None) -> Callable:
        """Wrap a hot function: per parent span, sum call count, time and `attrs`."""

        def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter_ns() - start
            parent = self._stack[-1] if self._stack else None
            agg = self.aggregates.get((parent, name))
            if agg is None:
                agg = self.aggregates[(parent, name)] = {
                    "name": name, "layer": layer, "parent": parent, "run": self.run_id,
                    "count": 0, "total_ns": 0, "attrs": {}}
            agg["count"] += 1
            agg["total_ns"] += elapsed
            if attrs is not None:
                for key, (value, combine) in attrs(args, kwargs, result).items():
                    old = agg["attrs"].get(key)
                    agg["attrs"][key] = value if old is None else combine(old, value)
            return result

        return wrapper

    def to_json(self) -> dict:
        return {"run": self.run_id, "spans": self.spans,
                "aggregates": list(self.aggregates.values())}


def layer_times(trace: dict) -> Dict[str, Dict[str, float]]:
    """{layer: {"busy_s": ..., "self_s": ...}} for every layer in LAYERS."""
    spans = {s["id"]: s for s in trace["spans"]}
    covered = defaultdict(int)
    for s in trace["spans"]:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end_ns"] - s["start_ns"]
    for a in trace["aggregates"]:
        if a["parent"] is not None:
            covered[a["parent"]] += a["total_ns"]

    def inside_own_layer(parent: Optional[int], layer: str) -> bool:
        while parent is not None:
            if spans[parent]["layer"] == layer:
                return True
            parent = spans[parent]["parent"]
        return False

    busy = defaultdict(int)
    own = defaultdict(int)
    for s in trace["spans"]:
        duration = s["end_ns"] - s["start_ns"]
        own[s["layer"]] += duration - covered[s["id"]]
        if not inside_own_layer(s["parent"], s["layer"]):
            busy[s["layer"]] += duration
    for a in trace["aggregates"]:
        own[a["layer"]] += a["total_ns"]
        if not inside_own_layer(a["parent"], a["layer"]):
            busy[a["layer"]] += a["total_ns"]
    return {layer: {"busy_s": busy[layer] * _NS, "self_s": own[layer] * _NS}
            for layer in LAYERS}


def _sum_attr(items, key: str) -> int:
    return sum(item["attrs"].get(key, 0) for item in items)


def layer_metrics(trace: dict) -> Dict[str, float]:
    """Every METRICS entry except the trace.* ones, from one run's trace."""
    out = {}
    for layer, times in layer_times(trace).items():
        out[f"{layer}.busy_s"] = times["busy_s"]
        out[f"{layer}.self_s"] = times["self_s"]
    by_name = defaultdict(list)
    for item in trace["spans"] + trace["aggregates"]:
        by_name[item["name"]].append(item)

    def seconds(name: str) -> float:
        return sum(s["end_ns"] - s["start_ns"] for s in by_name[name]) * _NS

    parses = [s for s in trace["spans"] if s["name"].startswith("ingest.parse_")]
    canon = by_name["ingest.canonicalize_alignment"]
    out["ingest.bytes"] = _sum_attr(parses, "bytes")
    out["ingest.correspondences_in"] = _sum_attr(canon, "in")
    out["ingest.correspondences_kept"] = _sum_attr(canon, "kept")
    out["contingency.cells"] = _sum_attr(by_name["contingency.build_discordant_matrix"], "cells")
    tests = by_name["mcnemar.run_test"]
    out["mcnemar.calls"] = sum(a["count"] for a in tests)
    out["mcnemar.discordant_total"] = _sum_attr(tests, "discordant_total")
    out["mcnemar.discordant_max"] = max((a["attrs"]["discordant_max"] for a in tests), default=0)
    adjusts = by_name["fwer.adjust"]
    out["fwer.calls"] = len(adjusts)
    out["fwer.hypotheses"] = _sum_attr(adjusts, "hypotheses")
    out["fwer.exhaustive_sets"] = _sum_attr(by_name["fwer.bergmann_exhaustive_sets"], "sets")
    out["siggraph.outcome_passes"] = len(by_name["siggraph.pairwise_outcomes"])
    normalize_s = sum(a["total_ns"] for a in by_name["matcher.normalize"]) * _NS
    out["matcher.normalize_s"] = normalize_s
    # whatever the matrix build spends beyond normalizing labels is similarity work
    out["matcher.similarity_s"] = seconds("matcher.build_similarity_matrix") - normalize_s
    out["matcher.assign_s"] = seconds("matcher.hungarian_assign")
    out["matcher.extract_s"] = seconds("matcher.extract_alignment")
    out["matcher.cells"] = _sum_attr(by_name["matcher.build_similarity_matrix"], "cells")
    assigned = _sum_attr(by_name["matcher.hungarian_assign"], "pairs")
    kept = _sum_attr(by_name["matcher.extract_alignment"], "kept")
    out["matcher.kept_ratio"] = kept / assigned if assigned else 0.0
    return out


def dump(tracer: Tracer, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_json(), fh)
