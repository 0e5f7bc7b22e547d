"""Contingency table construction under the two comparison perspectives.

The IFP perspective classifies only members of the reference: a system gets
credit for the correct correspondences it alone found.  The CFP perspective
additionally counts false correspondences relative to the rival system, so a
system that invents mappings is penalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DuplicateSystemName, MalformedLine, NegativeCount, UniverseTooSmall
from .model import Alignment, ContingencyTable, Perspective, TaskUniverse


def build_table_ifp(r: Alignment, a1: Alignment, a2: Alignment) -> ContingencyTable:
    """2x2 table ignoring false positives; the four cells partition R."""
    R, A1, A2 = r.key_set(), a1.key_set(), a2.key_set()
    return ContingencyTable(
        n00=len(R - (A1 | A2)),
        n01=len((A2 & R) - A1),
        n10=len((A1 & R) - A2),
        n11=len(A1 & A2 & R),
        perspective=Perspective.IFP,
    )


def build_table_cfp(
    r: Alignment,
    a1: Alignment,
    a2: Alignment,
    t: Optional[TaskUniverse] = None,
) -> ContingencyTable:
    """2x2 table counting relative false positives as well.

    n11 requires the total number of candidate pairs T and is only filled in
    when a TaskUniverse with total_pairs is supplied; the McNemar statistics
    never need it.
    """
    R, A1, A2 = r.key_set(), a1.key_set(), a2.key_set()
    n00 = len(R - (A1 | A2)) + len((A1 & A2) - R)
    n01 = len((A2 & R) - A1) + len(A1 - A2 - R)
    n10 = len((A1 & R) - A2) + len(A2 - A1 - R)
    n11 = None
    if t is not None and t.total_pairs is not None:
        union = len(R | A1 | A2)
        if t.total_pairs < union:
            raise UniverseTooSmall(t.total_pairs, union)
        n11 = len(A1 & A2 & R) + t.total_pairs - union
    return ContingencyTable(n00=n00, n01=n01, n10=n10, n11=n11, perspective=Perspective.CFP)


def _require_unique(names: Sequence[str]) -> None:
    seen = set()
    for name in names:
        if name in seen:
            raise DuplicateSystemName(name)
        seen.add(name)


@dataclass(frozen=True)
class DiscordantMatrix:
    """All-pairs in-favor counts: m[i][j] = correspondences counted for system i
    against system j under the given perspective."""

    systems: Tuple[str, ...]
    m: np.ndarray
    perspective: Perspective

    def __post_init__(self):
        n = len(self.systems)
        if self.m.shape != (n, n):
            raise ValueError("matrix shape must match system count")
        if any(self.m[i, i] != 0 for i in range(n)):
            raise ValueError("diagonal entries must be zero")
        _require_unique(self.systems)
        if (self.m < 0).any():
            i, j = np.argwhere(self.m < 0)[0]
            raise NegativeCount(self.systems[i], self.systems[j], int(self.m[i, j]))

    def index(self, name: str) -> int:
        return self.systems.index(name)

    def pair_counts(self, i: int, j: int) -> Tuple[int, int]:
        """In-favor counts (for i, for j)."""
        return int(self.m[i, j]), int(self.m[j, i])


def _in_favor(r: Alignment, ai: Alignment, aj: Alignment, perspective: Perspective) -> int:
    R, Ai, Aj = r.key_set(), ai.key_set(), aj.key_set()
    count = len((Ai & R) - Aj)
    if perspective is Perspective.CFP:
        count += len(Aj - Ai - R)
    return count


def build_discordant_matrix(
    r: Alignment, systems: Sequence[Alignment], perspective: Perspective
) -> DiscordantMatrix:
    """Assemble the all-pairs matrix of in-favor discordant counts."""
    if len(systems) < 2:
        raise ValueError("need at least 2 systems")
    names = [a.system_name for a in systems]
    _require_unique(names)  # before the all-pairs counting, not after it
    n = len(systems)
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i != j:
                m[i, j] = _in_favor(r, systems[i], systems[j], perspective)
    return DiscordantMatrix(systems=tuple(names), m=m, perspective=perspective)


def write_matrix_tsv(matrix: DiscordantMatrix) -> bytes:
    """First row: system names; then one row per system: name + integer cells."""
    lines = ["\t".join(matrix.systems) + "\n"]
    for i, name in enumerate(matrix.systems):
        cells = "\t".join(str(int(v)) for v in matrix.m[i])
        lines.append(f"{name}\t{cells}\n")
    return "".join(lines).encode("utf-8")


def parse_matrix_tsv(data: bytes, perspective: Perspective) -> DiscordantMatrix:
    """Inverse of write_matrix_tsv."""
    lines = [ln for ln in data.decode("utf-8").splitlines() if ln.strip()]
    if not lines:
        raise MalformedLine(1, "empty matrix file")
    names = lines[0].split("\t")
    n = len(names)
    if len(lines) != n + 1:
        raise MalformedLine(len(lines), f"expected {n} data rows, got {len(lines) - 1}")
    m = np.zeros((n, n), dtype=np.int64)
    row_names = []
    for row_no, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != n + 1:
            raise MalformedLine(row_no, f"expected {n + 1} fields, got {len(fields)}")
        row_names.append(fields[0])
        try:
            m[row_no - 2] = [int(v) for v in fields[1:]]
        except ValueError:
            raise MalformedLine(row_no, "non-integer cell")
    if row_names != names:
        raise MalformedLine(2, "row names do not match header order")
    return DiscordantMatrix(systems=tuple(names), m=m, perspective=perspective)
