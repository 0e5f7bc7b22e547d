"""Family-wise error rate control: adjusted p-values for N x N and N x 1 families.

A family is positional.  In N x N mode it holds one raw p-value per pair of
systems 0..n-1, in itertools.combinations(range(n), 2) order; in N x 1 mode
one per non-baseline system.  Every adjuster returns the adjusted p-values
(APVs) as a tuple in that same order.  Ties in raw p-values are broken by
position.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable, FrozenSet, List, Tuple

from .errors import InvalidInput, ModeMismatch, TooManySystems
from .model import DEFAULT_BERGMANN_CAP, Correction, Mode, Record

APV = Tuple[float, ...]


class HypothesisSet(Record):
    """The raw p-values of a pairwise family, by position.

    N x N: n(n-1)/2 p-values, one per pair in combinations(range(n), 2)
    order.  N x 1: n-1 p-values, one per non-baseline system.
    """

    n_systems: int
    raw_p: Tuple[float, ...]
    mode: Mode

    def __post_init__(self):
        n = self.n_systems
        expected = n * (n - 1) // 2 if self.mode is Mode.NXN else n - 1
        if len(self.raw_p) != expected:
            raise ValueError(
                f"{self.mode.value} with {n} systems needs {expected} hypotheses, "
                f"got {len(self.raw_p)}"
            )
        for p in self.raw_p:
            if not 0.0 <= p <= 1.0:
                raise ValueError("raw p-values must lie in [0, 1]")

    @property
    def k(self) -> int:
        return len(self.raw_p)


def _stepdown(h: HypothesisSet, factor: Callable[[float, int], float]) -> APV:
    """Generic step-down adjustment: running max of factor(p_(j), j) over j <= i."""
    p = h.raw_p
    order = sorted(range(h.k), key=p.__getitem__)  # stable: ties keep their order
    apv = [0.0] * h.k
    running = 0.0
    for rank, idx in enumerate(order, start=1):
        running = max(running, factor(p[idx], rank))
        apv[idx] = min(1.0, running)
    return tuple(apv)


def adjust_none(h: HypothesisSet) -> APV:
    return tuple(h.raw_p)


def adjust_bonferroni(h: HypothesisSet) -> APV:
    return tuple(min(1.0, h.k * p) for p in h.raw_p)


def adjust_holm(h: HypothesisSet) -> APV:
    k = h.k
    return _stepdown(h, lambda p, j: (k + 1 - j) * p)


def adjust_holland(h: HypothesisSet) -> APV:
    k = h.k
    return _stepdown(h, lambda p, j: 1.0 - (1.0 - p) ** (k + 1 - j))


def adjust_finner(h: HypothesisSet) -> APV:
    k = h.k
    return _stepdown(h, lambda p, j: 1.0 - (1.0 - p) ** (k / j))


def adjust_hochberg(h: HypothesisSet) -> APV:
    """Step-up: running min of (k + 1 - j) * p_(j) from the largest p downward."""
    p = h.raw_p
    k = h.k
    order = sorted(range(k), key=p.__getitem__)
    apv = [0.0] * k
    running = 1.0
    for rank in range(k, 0, -1):
        idx = order[rank - 1]
        running = min(running, (k + 1 - rank) * p[idx])
        apv[idx] = min(1.0, running)
    return tuple(apv)


def _require_nxn(h: HypothesisSet, correction: Correction):
    if h.mode is not Mode.NXN:
        raise ModeMismatch(correction.value, h.mode.value)


def adjust_nemenyi(h: HypothesisSet) -> APV:
    """Single-step Bonferroni over the full k = n(n-1)/2 family."""
    _require_nxn(h, Correction.NEMENYI)
    return adjust_bonferroni(h)


@lru_cache(maxsize=None)
def shaffer_true_counts(n_systems: int) -> FrozenSet[int]:
    """Possible numbers of simultaneously true pairwise hypotheses among n systems.

    S(0) = S(1) = {0}; S(n) = union over j of {C(j, 2) + x : x in S(n - j)},
    where j is the size of the equality class containing one fixed system.
    """
    if n_systems < 0:
        raise ValueError("n_systems must be >= 0")
    if n_systems <= 1:
        return frozenset({0})
    out = set()
    for j in range(1, n_systems + 1):
        pairs = math.comb(j, 2)
        for x in shaffer_true_counts(n_systems - j):
            out.add(pairs + x)
    return frozenset(out)


def adjust_shaffer(h: HypothesisSet) -> APV:
    """Holm-style step-down with t_i = max{s in S(n) : s <= k - i + 1}."""
    _require_nxn(h, Correction.SHAFFER)
    s = shaffer_true_counts(h.n_systems)
    k = h.k
    t = [max(v for v in s if v <= k - i + 1) for i in range(1, k + 1)]
    return _stepdown(h, lambda p, j: t[j - 1] * p)


def _check_systems(n_systems: int, cap: int) -> None:
    if n_systems < 2:
        raise InvalidInput("need at least 2 systems")
    if n_systems > cap:
        raise TooManySystems(n_systems, cap)


def bergmann_exhaustive_sets(
    n_systems: int, cap: int = DEFAULT_BERGMANN_CAP
) -> List[FrozenSet[int]]:
    """All index sets of hypotheses that can simultaneously be exactly true.

    Hypotheses are indexed in itertools.combinations(range(n), 2) order.  Each
    partition of the systems into equality classes yields one exhaustive set:
    the within-class pairs.  Transitivity makes these the only possibilities.
    """
    _check_systems(n_systems, cap)
    index = {pair: i for i, pair in enumerate(itertools.combinations(range(n_systems), 2))}
    partitions = [[]]
    for s in range(n_systems):  # system s joins one of the classes, or opens its own
        partitions = [part[:j] + [part[j] + [s]] + part[j + 1:]
                      for part in partitions for j in range(len(part))
                      ] + [part + [[s]] for part in partitions]
    sets = [frozenset(index[pair] for cls in part for pair in itertools.combinations(cls, 2))
            for part in partitions]
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


def adjust_bergmann(h: HypothesisSet, cap: int = DEFAULT_BERGMANN_CAP) -> APV:
    """Bergmann's dynamic procedure via the acceptance-set definition.

    A hypothesis is retained at level alpha iff some exhaustive set I
    containing it satisfies min{p_i : i in I} > alpha / |I|, so its APV is
    the max over exhaustive I containing it of |I| * min{p_i : i in I}.

    Computed in threshold form: apv_i = min(1, max over t <= p_i of
    t * L_i(t)), where L_i(t) is the most within-class pairs of any partition
    of the systems into cliques of the graph of pairs with p >= t, with i's
    two systems in one class.  Pairs join that graph in descending p, ties
    together, and best[s] holds the most within-class pairs of any clique
    partition of the system bitmask s; a new pair only adds partitions with
    both its systems in one class, so only the sets holding both are updated.
    No L_i(t) exceeds best[full], so a pair whose APV reaches t * best[full]
    is skipped at t.  t * L is the int x float product |I| * min p, bit for bit.
    """
    _require_nxn(h, Correction.BERGMANN)
    n = h.n_systems
    _check_systems(n, cap)
    full = (1 << n) - 1
    within = [c * (c - 1) // 2 for c in map(int.bit_count, range(full + 1))]
    clique = bytearray(s & (s - 1) == 0 for s in range(full + 1))  # the sets of 0 or 1 system
    best = [0] * (full + 1)
    pairs = list(itertools.combinations(range(n), 2))
    holding = []  # holding[i]: every system set with both systems of pair i
    for a, b in pairs:
        sets = [1 << a | 1 << b]
        for s in range(n):
            if s != a and s != b:
                sets += [u | 1 << s for u in sets]
        holding.append(sets)
    apv = [0.0] * h.k
    joined = []
    p = h.raw_p
    for t, tied in itertools.groupby(sorted(range(h.k), key=lambda i: -p[i]), key=p.__getitem__):
        if not t:  # t * L is 0 for the pairs left: their APVs stay 0
            break
        for i in tied:
            a, b = pairs[i]
            # the sets holding a and b that this pair makes cliques
            for c in [c for c in holding[i] if clique[c ^ 1 << a] and clique[c ^ 1 << b]]:
                clique[c] = 1
                w = within[c]
                rest = u = full ^ c
                while True:  # every u outside the new clique c, the empty set last
                    if best[u] + w > best[u | c]:
                        best[u | c] = best[u] + w
                    if not u:
                        break
                    u = (u - 1) & rest
            joined.append(i)
        bound = t * best[full]
        for i in joined:
            if bound > apv[i]:
                most = max(within[c] + best[full ^ c] for c in holding[i] if clique[c])
                apv[i] = max(apv[i], t * most)
    return tuple(min(1.0, v) for v in apv)


def adjust(h: HypothesisSet, correction: Correction,
           bergmann_cap: int = DEFAULT_BERGMANN_CAP) -> APV:
    """Dispatch on the configured correction method."""
    if correction is Correction.BERGMANN:
        return adjust_bergmann(h, cap=bergmann_cap)
    return {
        Correction.NONE: adjust_none,
        Correction.BONFERRONI: adjust_bonferroni,
        Correction.HOLM: adjust_holm,
        Correction.HOLLAND: adjust_holland,
        Correction.FINNER: adjust_finner,
        Correction.HOCHBERG: adjust_hochberg,
        Correction.NEMENYI: adjust_nemenyi,
        Correction.SHAFFER: adjust_shaffer,
    }[correction](h)
