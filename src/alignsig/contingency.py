"""Contingency table construction under the two comparison perspectives.

The IFP perspective classifies only members of the reference: a system gets
credit for the correct correspondences it alone found.  The CFP perspective
additionally counts false correspondences relative to the rival system, so a
system that invents mappings is penalized.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from .errors import (
    BadSystemName, DuplicateSystemName, MalformedLine, NegativeCount, UniverseTooSmall,
)
from .ingest import text_lines
from .model import Alignment, ContingencyTable, Perspective

if TYPE_CHECKING:
    import numpy as np

#: The cell range a matrix holds, so that every one survives its TSV: that of
#: a signed 64-bit integer.
_INT64 = range(-(1 << 63), 1 << 63)


def _overlaps(
    r: Alignment, systems: Sequence[Alignment]
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """Pairwise overlaps of the systems inside and outside the reference.

    Every correspondence key gets an integer id once: the reference's keys take
    ``0..nr-1`` and keys only systems have take the ids after them.  Each
    system becomes a row of bits over those ids, packed eight to a byte, and
    ``g_r[i, j] = |Ai & Aj & R|``, ``g_f[i, j] = |(Ai & Aj) - R|`` are popcounts
    of the rows' AND.  Returns ``(g_r, g_f, nr, nids)``, where
    ``nids = |R | A1 | ... | An|``.
    """
    import numpy as np  # only counting builds arrays

    ids: Dict[tuple, int] = {key: i for i, key in enumerate(r.pairs)}
    nr = len(ids)
    rows = [np.fromiter((ids.setdefault(key, len(ids)) for key in a.pairs),
                        dtype=np.intp, count=len(a))
            for a in systems]
    x = np.zeros((len(systems), len(ids)), dtype=bool)
    for i, row in enumerate(rows):
        x[i, row] = True
    return _gram(x[:, :nr]), _gram(x[:, nr:]), nr, len(ids)


def _gram(block: np.ndarray) -> np.ndarray:
    """``g[i, j]`` = number of columns where rows i and j of ``block`` are both set."""
    import numpy as np

    packed = np.packbits(block, axis=1)  # zero padding never adds to a popcount
    return np.stack([np.bitwise_count(row & packed).sum(axis=1, dtype=np.int64)
                     for row in packed])


def _in_favor_counts(g_r: np.ndarray, g_f: np.ndarray, perspective: Perspective) -> np.ndarray:
    """``m[i, j] = |(Ai & R) - Aj|``, plus ``|Aj - Ai - R|`` under CFP."""
    m = g_r.diagonal()[:, None] - g_r
    if perspective is Perspective.CFP:
        m += g_f.diagonal()[None, :] - g_f
    return m


def build_table(
    r: Alignment,
    a1: Alignment,
    a2: Alignment,
    perspective: Perspective,
    total_pairs: Optional[int] = None,
) -> ContingencyTable:
    """The 2x2 table of a1 against a2 under the given perspective.

    Under IFP the four cells partition R.  CFP also puts the false
    correspondences both systems share in n00, and fills n11 only when the
    total number of candidate pairs T is given; the McNemar statistics never
    need it.  A given T must cover R | A1 | A2 under either perspective.
    """
    if total_pairs is not None and total_pairs <= 0:
        raise ValueError("total_pairs must be positive when given")
    g_r, g_f, nr, union = _overlaps(r, (a1, a2))
    if total_pairs is not None and total_pairs < union:
        raise UniverseTooSmall(total_pairs, union)
    m = _in_favor_counts(g_r, g_f, perspective)
    n11 = int(g_r[0, 1])
    n00 = nr - int(g_r[0, 0]) - int(g_r[1, 1]) + n11
    if perspective is Perspective.CFP:
        n00 += int(g_f[0, 1])
        n11 = None if total_pairs is None else n11 + total_pairs - union
    return ContingencyTable(n00=n00, n01=int(m[1, 0]), n10=int(m[0, 1]), n11=n11,
                            perspective=perspective)


def _check_names(names: Sequence[str]) -> None:
    seen = set()
    for name in names:
        if not name.strip() or not name.isprintable():
            raise BadSystemName(f"system name {name!r} is blank or has an unprintable character")
        if name in seen:
            raise DuplicateSystemName(name)
        seen.add(name)


@dataclass(frozen=True)
class DiscordantMatrix:
    """All-pairs in-favor counts: m[i][j] = correspondences counted for system i
    against system j under the given perspective.

    ``m`` may be given as any n x n nested sequence or integer array; it is
    stored as a tuple of tuples of Python ints.  A non-integer cell raises
    TypeError, and a cell beyond the signed 64-bit range ValueError.
    """

    systems: Tuple[str, ...]
    m: Tuple[Tuple[int, ...], ...]
    perspective: Perspective

    def __post_init__(self):
        n = len(self.systems)
        if n == 0 or len(self.m) != n or any(len(row) != n for row in self.m):
            raise ValueError("matrix shape must be n x n for n >= 1 systems")
        m = tuple(tuple(map(operator.index, row)) for row in self.m)
        object.__setattr__(self, "m", m)
        if any(m[i][i] != 0 for i in range(n)):
            raise ValueError("diagonal entries must be zero")
        _check_names(self.systems)
        for i, row in enumerate(m):
            for j, value in enumerate(row):
                if value < 0:
                    raise NegativeCount(self.systems[i], self.systems[j], value)
                if value not in _INT64:
                    raise ValueError(f"cell {self.systems[i]!r}, {self.systems[j]!r} "
                                     "is outside the 64-bit integer range")

    def index(self, name: str) -> int:
        return self.systems.index(name)

    def pair_counts(self, i: int, j: int) -> Tuple[int, int]:
        """In-favor counts (for i, for j)."""
        return self.m[i][j], self.m[j][i]


def build_discordant_matrix(
    r: Alignment, systems: Sequence[Alignment], perspective: Perspective
) -> DiscordantMatrix:
    """Assemble the all-pairs matrix of in-favor discordant counts."""
    if len(systems) < 2:
        raise ValueError("need at least 2 systems")
    names = [a.system_name for a in systems]
    _check_names(names)  # before the all-pairs counting, not after it
    g_r, g_f, _, _ = _overlaps(r, systems)
    m = _in_favor_counts(g_r, g_f, perspective)
    return DiscordantMatrix(systems=tuple(names), m=m.tolist(), perspective=perspective)


def write_matrix_tsv(matrix: DiscordantMatrix) -> bytes:
    """First row: system names; then one row per system: name + integer cells."""
    lines = ["\t".join(matrix.systems) + "\n"]
    for i, name in enumerate(matrix.systems):
        cells = "\t".join(map(str, matrix.m[i]))
        lines.append(f"{name}\t{cells}\n")
    return "".join(lines).encode("utf-8")


def parse_matrix_tsv(data: bytes, perspective: Perspective) -> DiscordantMatrix:
    """Inverse of write_matrix_tsv; blank lines are skipped."""
    lines = [(no, ln) for no, ln in text_lines(data) if ln.strip()]
    if not lines:
        raise MalformedLine(1, "empty matrix file")
    names = lines[0][1].split("\t")
    n = len(names)
    if len(lines) != n + 1:
        raise MalformedLine(lines[-1][0], f"expected {n} data rows, got {len(lines) - 1}")
    m = []
    for row, (line_no, line) in enumerate(lines[1:]):
        fields = line.split("\t")
        if len(fields) != n + 1:
            raise MalformedLine(line_no, f"expected {n + 1} fields, got {len(fields)}")
        if fields[0] != names[row]:
            raise MalformedLine(line_no, "row names do not match header order")
        try:
            cells = [int(v) for v in fields[1:]]
        except ValueError:
            raise MalformedLine(line_no, "non-integer cell")
        if not all(v in _INT64 for v in cells):
            raise MalformedLine(line_no, "cell outside the 64-bit integer range")
        m.append(cells)
    return DiscordantMatrix(systems=tuple(names), m=m, perspective=perspective)
