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
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, FrozenSet, List, Sequence, Tuple

from .errors import ModeMismatch, TooManySystems
from .model import DEFAULT_BERGMANN_CAP, Correction, Mode

if TYPE_CHECKING:
    import numpy as np

APV = Tuple[float, ...]


@dataclass(frozen=True)
class HypothesisSet:
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


def _ordered_indices(p: Sequence[float]) -> List[int]:
    return sorted(range(len(p)), key=lambda i: (p[i], i))


def _stepdown(h: HypothesisSet, factor: Callable[[float, int], float]) -> APV:
    """Generic step-down adjustment: running max of factor(p_(j), j) over j <= i."""
    p = h.raw_p
    order = _ordered_indices(p)
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
    order = _ordered_indices(p)
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


def _restricted_growth_strings(n_systems: int) -> np.ndarray:
    """Every set partition of n systems, one row each, as a restricted-growth string.

    Row r, column s is the class label of system s; labels appear in first-use
    order, so a[0] = 0 and a[s] <= max(a[:s]) + 1, which makes the encoding
    unique.  Built one column at a time: a row whose labels reach m has m + 2
    children (join one of the m + 1 classes, or open a new one).
    """
    import numpy as np  # only Bergmann's exhaustive sets are arrays

    rows = np.zeros((1, 1), dtype=np.int8)
    top = np.zeros(1, dtype=np.int8)
    for _ in range(1, n_systems):
        children = top.astype(np.intp) + 2
        parent = np.repeat(np.arange(len(rows)), children)
        first_child = np.cumsum(children) - children
        label = (np.arange(len(parent)) - first_child[parent]).astype(np.int8)
        rows = np.column_stack([rows[parent], label])
        top = np.maximum(top[parent], label)
    return rows


@lru_cache(maxsize=None)
def _membership(n_systems: int) -> np.ndarray:
    """Read-only (Bell(n) - 1) x k boolean matrix of the non-empty exhaustive sets.

    Row r is one partition of the systems into equality classes; column i is
    hypothesis i in itertools.combinations(range(n), 2) order, True when both
    of its systems share a class.  The all-singletons partition (the empty
    set) is dropped.  Stored column-major, so one hypothesis's rows are
    contiguous.  Cached per n for the life of the process.
    """
    labels = _restricted_growth_strings(n_systems)
    a, b = zip(*itertools.combinations(range(n_systems), 2))
    member = labels[:, a] == labels[:, b]
    member = member[member.any(axis=1)].copy(order="F")
    member.flags.writeable = False
    return member


def _exhaustive_membership(n_systems: int, cap: int) -> np.ndarray:
    if n_systems < 2:
        raise ValueError("need at least 2 systems")
    if n_systems > cap:
        raise TooManySystems(n_systems, cap)
    return _membership(n_systems)


def bergmann_exhaustive_sets(
    n_systems: int, cap: int = DEFAULT_BERGMANN_CAP
) -> List[FrozenSet[int]]:
    """All index sets of hypotheses that can simultaneously be exactly true.

    Hypotheses are indexed in itertools.combinations(range(n), 2) order.  Each
    partition of the systems into equality classes yields one exhaustive set:
    the within-class pairs.  Transitivity makes these the only possibilities.
    """
    member = _exhaustive_membership(n_systems, cap)
    sets = [frozenset()] + [frozenset(row.nonzero()[0].tolist()) for row in member]
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


def adjust_bergmann(h: HypothesisSet, cap: int = DEFAULT_BERGMANN_CAP) -> APV:
    """Bergmann's dynamic procedure via the acceptance-set definition.

    A hypothesis is retained at level alpha iff some exhaustive set I
    containing it satisfies min{p_i : i in I} > alpha / |I|.  The APV of a
    hypothesis is therefore max over exhaustive I containing it of
    |I| * min{p_i : i in I}: the smallest alpha at which it leaves every
    qualifying acceptance set.

    Computed over all exhaustive sets at once from the membership matrix:
    bound_r = |I_r| * min_{j in I_r} p_j, then apv_i = min(1, max_{r : i in I_r}
    bound_r).  The minimum is the p-value of each row's first member in
    ascending-p column order, so no float matrix of the sets' size is built.
    """
    import numpy as np

    _require_nxn(h, Correction.BERGMANN)
    member = _exhaustive_membership(h.n_systems, cap)
    p = np.asarray(h.raw_p, dtype=float)
    by_p = np.argsort(p, kind="stable")
    min_p = p[by_p][member[:, by_p].argmax(axis=1)]
    bound = member.sum(axis=1) * min_p
    return tuple(min(1.0, bound[member[:, i]].max().item()) for i in range(h.k))


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
