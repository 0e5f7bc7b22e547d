"""Contingency table construction under the two comparison perspectives.

The IFP perspective classifies only members of the reference: a system gets
credit for the correct correspondences it alone found.  The CFP perspective
additionally counts false correspondences relative to the rival system, so a
system that invents mappings is penalized.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import MalformedLine, NegativeCount, UniverseTooSmall
from .ingest import integer, text_lines
from .model import Alignment, ContingencyTable, Perspective, Record, check_system_names

#: The cell range a matrix holds, so that every one survives its TSV: that of
#: a signed 64-bit integer.
_INT64 = range(-(1 << 63), 1 << 63)

#: A system's correspondence ids as two bitsets: inside and outside the reference.
_Bits = Tuple[int, int]

#: What the per-system step keeps of an Alignment: its name, the bitset of its
#: keys in R, and its keys outside R in order, as strings ``f"{len(s)}:{s}{t}"``.
Counted = Tuple[str, int, List[str]]


def system_step(r: Alignment) -> Callable[[Alignment], Counted]:
    """The per-system step of the count against reference r.

    It maps an Alignment A to ``(name, bits, outside)``: the set bits of the
    int ``bits`` are the positions in r of the keys of ``A & R``, and
    ``outside`` lists the keys of ``A - R`` as strings that no two keys share.
    A may be dropped once it has taken the step.
    """
    ids: Dict[tuple, int] = {key: i for i, key in enumerate(r.pairs)}
    size = (len(ids) + 7) >> 3

    def step(a: Alignment) -> Counted:
        bitmap = bytearray(size)
        outside = []
        for key in a.pairs:  # one loop: faster than set algebra on the keys
            i = ids.get(key)
            if i is None:
                outside.append(f"{len(key[0])}:{key[0]}{key[1]}")
            else:
                bitmap[i >> 3] |= 1 << (i & 7)
        return a.system_name, int.from_bytes(bitmap, "little"), outside

    return step


def _bitsets(counted: Sequence[Counted]) -> Tuple[List[_Bits], int]:
    """Each system's correspondences as bitsets inside and outside the reference.

    The second step of the count, after `system_step`: the keys outside R get
    the ids ``0, 1, ...`` in the order the systems list them first.  Returns
    ``(bits, nout)``, where ``bits[i] = (Ai & R, Ai - R)``, each a Python int
    whose set bits are the ids, and ``nout = |(A1 | ... | An) - R|``.
    """
    ids: Dict[str, int] = {}
    bits = []
    for _, inside, outside in counted:
        row = [ids.setdefault(key, len(ids)) for key in outside]
        bitmap = bytearray((len(ids) + 7) >> 3)
        for i in row:
            bitmap[i >> 3] |= 1 << (i & 7)
        bits.append((inside, int.from_bytes(bitmap, "little")))
    return bits, len(ids)


def _in_favor(a: _Bits, b: _Bits, perspective: Perspective) -> int:
    """``|(A & R) - B|``, plus ``|B - A - R|`` under CFP."""
    count = (a[0] & ~b[0]).bit_count()
    if perspective is Perspective.CFP:
        count += (b[1] & ~a[1]).bit_count()
    return count


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
    (b1, b2), nout = _bitsets(list(map(system_step(r), (a1, a2))))
    nr = len(r)
    union = nr + nout
    if total_pairs is not None and total_pairs < union:
        raise UniverseTooSmall(total_pairs, union)
    n11 = (b1[0] & b2[0]).bit_count()
    n00 = nr - (b1[0] | b2[0]).bit_count()
    if perspective is Perspective.CFP:
        n00 += (b1[1] & b2[1]).bit_count()
        n11 = None if total_pairs is None else n11 + total_pairs - union
    return ContingencyTable(n00=n00, n01=_in_favor(b2, b1, perspective),
                            n10=_in_favor(b1, b2, perspective), n11=n11,
                            perspective=perspective)


class DiscordantMatrix(Record):
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
        vars(self)["m"] = m
        if any(m[i][i] != 0 for i in range(n)):
            raise ValueError("diagonal entries must be zero")
        check_system_names(self.systems)
        for i, row in enumerate(m):
            for j, value in enumerate(row):
                if value < 0:
                    raise NegativeCount(self.systems[i], self.systems[j], value)
                if value not in _INT64:
                    raise ValueError(f"cell {self.systems[i]!r}, {self.systems[j]!r} "
                                     "is outside the 64-bit integer range")


def build_discordant_matrix(
    r: Alignment, systems: Sequence[Alignment], perspective: Perspective
) -> DiscordantMatrix:
    """Assemble the all-pairs matrix of in-favor discordant counts."""
    return count_discordant(list(map(system_step(r), systems)), perspective)


def count_discordant(counted: Sequence[Counted], perspective: Perspective) -> DiscordantMatrix:
    """The all-pairs matrix of the systems that took `system_step` in order."""
    if len(counted) < 2:
        raise ValueError("need at least 2 systems")
    bits, _ = _bitsets(counted)
    m = [[_in_favor(a, b, perspective) for b in bits] for a in bits]
    return DiscordantMatrix(systems=tuple(name for name, _, _ in counted), m=m,
                            perspective=perspective)


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
            cells = list(map(integer, fields[1:]))
        except ValueError:
            raise MalformedLine(line_no, "non-integer cell")
        if not all(v in _INT64 for v in cells):
            raise MalformedLine(line_no, "cell outside the 64-bit integer range")
        m.append(cells)
    return DiscordantMatrix(systems=tuple(names), m=m, perspective=perspective)
