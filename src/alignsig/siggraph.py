"""Significance digraph construction, DOT output, and rank-group derivation."""

from __future__ import annotations

import itertools
import json
from typing import List, Optional, Tuple

from .contingency import DiscordantMatrix
from .errors import InvalidInput
from .fwer import HypothesisSet, adjust
from .mcnemar import run_test
from .model import ComparisonConfig, Mode, Perspective, Record, TestKind

NO_EVIDENCE_NOTE = "no discordant correspondences; systems indistinguishable"

#: Below this discordant total the asymptotic test's chi-square is unreliable.
SMALL_SAMPLE_THRESHOLD = 25


class PairOutcome(Record):
    """Result of one pairwise comparison, systems in lexicographic order."""

    system_a: str
    system_b: str
    n_a: int
    n_b: int
    raw_p: float
    apv: float
    winner: Optional[str]

    @property
    def significant(self) -> bool:
        return self.winner is not None

    @property
    def note(self) -> Optional[str]:
        return NO_EVIDENCE_NOTE if self.n_a == self.n_b == 0 else None

    @property
    def loser(self) -> Optional[str]:
        """The other system of a pair with a winner, else None."""
        if self.winner is None:
            return None
        return self.system_b if self.winner == self.system_a else self.system_a

    @property
    def n_winner(self) -> int:
        return self.n_a if self.winner == self.system_a else self.n_b

    @property
    def n_loser(self) -> int:
        return self.n_b if self.winner == self.system_a else self.n_a


class SignificanceGraph(Record):
    """The result of one comparison: every pair's outcome, drawn as a digraph.

    ``nodes`` holds the system names, sorted.  ``outcomes`` holds every
    compared pair in pair order.  ``edges`` holds the significant ones, each
    drawn winner -> loser, sorted by (winner, loser).  ``perspective`` is the
    one the counts were taken under.  DOT, ranking and report are views of it.
    """

    nodes: Tuple[str, ...]
    edges: Tuple[PairOutcome, ...]
    outcomes: Tuple[PairOutcome, ...]
    perspective: Perspective
    config: ComparisonConfig


def _pairs_for_mode(systems: Tuple[str, ...], cfg: ComparisonConfig):
    """The compared name pairs, each sorted, in fwer's positional order: pair i
    of combinations(range(n), 2) over the sorted names (N x N), or the
    baseline against each other system in name order (N x 1)."""
    if cfg.mode is Mode.NX1:
        if cfg.baseline not in systems:
            raise InvalidInput(f"baseline {cfg.baseline!r} not among systems")
        others = [s for s in systems if s != cfg.baseline]
        return [tuple(sorted((cfg.baseline, o))) for o in sorted(others)]
    return list(itertools.combinations(sorted(systems), 2))


def pairwise_outcomes(m: DiscordantMatrix, cfg: ComparisonConfig) -> List[PairOutcome]:
    """Run the configured test on every relevant pair and adjust p-values jointly.

    Outcomes come in pair order, with the systems of each pair in lexicographic
    order.  Pairs with both discordant counts zero carry no evidence; they
    enter the hypothesis family with p = 1 so the family size stays at its
    nominal k, but can never produce an edge.
    """
    pairs = _pairs_for_mode(m.systems, cfg)
    index = {name: i for i, name in enumerate(m.systems)}
    counts = [(m.m[index[a]][index[b]], m.m[index[b]][index[a]]) for a, b in pairs]
    raw_p = tuple(run_test(cfg.test, n_a, n_b) if n_a or n_b else 1.0 for n_a, n_b in counts)
    apvs = adjust(HypothesisSet(len(m.systems), raw_p, cfg.mode), cfg.correction,
                  bergmann_cap=cfg.bergmann_cap)
    outcomes = []
    for (a, b), (n_a, n_b), p, apv in zip(pairs, counts, raw_p, apvs):
        significant = n_a != n_b and apv < cfg.alpha
        outcomes.append(
            PairOutcome(
                system_a=a, system_b=b, n_a=n_a, n_b=n_b, raw_p=p, apv=apv,
                winner=(a if n_a > n_b else b) if significant else None,
            )
        )
    return outcomes


def build_graph(m: DiscordantMatrix, cfg: ComparisonConfig) -> SignificanceGraph:
    """The one comparison pass: outcomes of every pair, the significant ones as edges."""
    outcomes = tuple(pairwise_outcomes(m, cfg))
    edges = sorted((o for o in outcomes if o.significant), key=lambda o: (o.winner, o.loser))
    return SignificanceGraph(
        nodes=tuple(sorted(m.systems)), edges=tuple(edges), outcomes=outcomes,
        perspective=m.perspective, config=cfg,
    )


def _dot_id(name: str) -> str:
    """A system name as a quoted DOT ID, with its backslashes and quotes escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(g: SignificanceGraph) -> bytes:
    """Deterministic DOT rendering; byte-stable for golden-file comparison."""
    lines = ["digraph significance {"]
    for name in g.nodes:
        lines.append(f"  {_dot_id(name)};")
    for e in g.edges:
        lines.append(f'  {_dot_id(e.winner)} -> {_dot_id(e.loser)} [label="{e.apv:.6f}"];')
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def rank_systems(g: SignificanceGraph) -> Tuple[Tuple[str, ...], ...]:
    """Group systems by win count and mutual non-significance.

    Systems are ordered by descending number of outgoing edges; adjacent
    systems with equal win counts and no edge between them share a group.
    This reproduces the published ranking layout but is a heuristic, not a
    procedure taken from elsewhere.
    """
    wins = dict.fromkeys(g.nodes, 0)
    linked = set()  # (a, b) and (b, a) for every edge between a and b
    for e in g.edges:
        wins[e.winner] += 1
        linked.update(((e.winner, e.loser), (e.loser, e.winner)))
    groups: List[List[str]] = []
    for name in sorted(g.nodes, key=lambda n: (-wins[n], n)):
        if (groups and wins[groups[-1][0]] == wins[name]
                and all((name, other) not in linked for other in groups[-1])):
            groups[-1].append(name)
        else:
            groups.append([name])
    return tuple(tuple(sorted(grp, key=str.casefold)) for grp in groups)


def build_report(g: SignificanceGraph) -> dict:
    """Full comparison report: config echo, per-pair records, graph, ranking."""
    cfg = g.config
    warnings = sorted(
        f"small discordant sample for ({o.system_a}, {o.system_b}): "
        f"{o.n_a + o.n_b} < {SMALL_SAMPLE_THRESHOLD}"
        for o in g.outcomes
        if cfg.test is TestKind.ASYMPTOTIC and 0 < o.n_a + o.n_b < SMALL_SAMPLE_THRESHOLD
    )
    pair_records = []
    for o in g.outcomes:
        record = {
            "systems": [o.system_a, o.system_b],
            "n_i": o.n_a,
            "n_j": o.n_b,
            "test": cfg.test.value,
            "raw_p": o.raw_p,
            "apv": o.apv,
            "significant": o.significant,
            "winner": o.winner,
        }
        if o.note:
            record["note"] = o.note
        pair_records.append(record)
    return {
        "config": {
            "perspective": g.perspective.value,
            "test": cfg.test.value,
            "correction": cfg.correction.value,
            "mode": cfg.mode.value,
            "baseline": cfg.baseline,
            "alpha": cfg.alpha,
        },
        "pairs": pair_records,
        "graph": {
            "nodes": list(g.nodes),
            "edges": [
                {
                    "winner": e.winner,
                    "loser": e.loser,
                    "apv": e.apv,
                    "raw_p": e.raw_p,
                    "n_winner": e.n_winner,
                    "n_loser": e.n_loser,
                }
                for e in g.edges
            ],
        },
        "ranking": [list(grp) for grp in rank_systems(g)],
        "ranking_note": "win count + mutual non-significance heuristic",
        "warnings": warnings,
    }


def serialize_report(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("utf-8")
