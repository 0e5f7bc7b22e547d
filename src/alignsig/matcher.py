"""String-metric matching: nine similarity measures plus optimal assignment.

Labels are normalized once (case-fold, underscore/hyphen to space, collapsed
whitespace), a dense similarity matrix is built, and the best one-to-one
matching is extracted by Crouse's shortest augmenting path (Crouse 2016), the
algorithm of scipy's `linear_sum_assignment`, ported to numpy so that the
pairs are scipy's and scipy is not needed.  Each metric has one builder
of the whole matrix: Levenshtein's runs Myers' bit vectors (Myers 1999;
Hyyrö 2003) over every label of one side at once, packed into one Python
int, in one pass per label of the other side; the other eight call their
scalar function on each pair.  Every builder writes into one float64
matrix, laid out as the solver reads it, and holds nothing else of that
size; a matrix above `MAX_MATRIX_BYTES` is refused before it is allocated.
"""

from __future__ import annotations

from difflib import SequenceMatcher
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .errors import EmptyTable, InvalidInput, MatrixTooLarge
from .model import Alignment, MetricKind, Record, canonicalize_alignment  # MetricKind re-exported


def normalize(raw_label: str) -> str:
    """Case-fold, map '_' and '-' to spaces, collapse whitespace, trim."""
    return " ".join(raw_label.casefold().replace("_", " ").replace("-", " ").split())


def _equal(a: str, b: str) -> float:
    return 1.0 if a == b else 0.0


def _hamming(a: str, b: str) -> float:
    longer = max(len(a), len(b))
    if longer == 0:
        return 1.0
    mismatches = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    return 1.0 - mismatches / longer


def _bits(mask: np.ndarray) -> int:
    """The int whose bit i is mask[i]."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _solver_matrix(n_src: int, n_tgt: int) -> Tuple[np.ndarray, np.ndarray]:
    """An empty n_src x n_tgt float64 matrix laid out as `_assign_rows` reads
    it, with the C-ordered array it views: itself when n_src <= n_tgt, else
    the n_tgt x n_src array whose transpose it is."""
    if n_src <= n_tgt:
        s = np.empty((n_src, n_tgt))
        return s, s
    base = np.empty((n_tgt, n_src))
    return base.T, base


def _levenshtein_matrix(src_labels: Sequence[str], tgt_labels: Sequence[str]) -> np.ndarray:
    """Levenshtein similarity 1 - d / max(len a, len b) of every label pair.

    Two empty labels score 1.0 and one empty label 0.0.  The distances come
    from Myers' bit vectors (Myers 1999; Hyyrö 2003) with every label of one
    side in one Python int: label k is the segment of bits from starts[k], one
    per character, and the guard bit above it stays 0.  Each step masks with
    `body`, every bit but the guards, so no carry or shift leaves its segment,
    and one pass over a label of the other side runs the DP of every packed
    label.  A distance is then read off the segment: D[m][n] = n + #(+1) -
    #(-1) over the m vertical deltas.  The distance is symmetric, so the side
    packed is the one that runs along the rows of `_solver_matrix`'s C-ordered
    array, and each pass writes its similarities straight into one such row.
    """
    s, rows = _solver_matrix(len(src_labels), len(tgt_labels))
    row_labels, packed = (src_labels, tgt_labels) if rows is s else (tgt_labels, src_labels)
    packed_len = np.array([len(a) for a in packed], dtype=np.intp)
    starts = np.cumsum(packed_len + 1) - (packed_len + 1)
    # the code point at every bit; no character is 0x110000, the guards' code
    codes = np.frombuffer(
        "".join(a + "\0" for a in packed).encode("utf-32-le", "surrogatepass"), "<u4"
    ).copy()
    codes[starts + packed_len] = 0x110000
    peq = {c: _bits(codes == ord(c)) for c in set("".join(packed))}
    body = _bits(codes != 0x110000)
    lows = body & ~(body << 1)  # the bottom bit of each non-empty segment
    n_bytes = -(-len(codes) // 8)
    for row, label in zip(rows, row_labels):
        vp, vn = body, 0
        for c in label:
            # x = Eq | VN; d0 = (((x & VP) + VP) ^ VP) | x
            x = peq.get(c, 0) | vn
            d0 = ((((x & vp) + vp) & body) ^ vp) | x
            # HP = VN | ~(d0 | VP) and HN = VP & d0, shifted up a row; row 0
            # of the DP is 0, 1, 2, ...: a +1 enters each segment's bottom bit
            hp = (((vn | ((d0 | vp) ^ body)) << 1) & body) | lows
            hn = ((vp & d0) << 1) & body
            # VP = HN | ~(d0 | HP), VN = HP & d0
            vp = ((d0 | hp) ^ body) | hn
            vn = hp & d0
        up, down = (
            np.unpackbits(np.frombuffer(v.to_bytes(n_bytes, "little"), np.uint8), bitorder="little")
            for v in (vp, vn)
        )
        dist = np.add.reduceat(up.view(np.int8) - down.view(np.int8), starts, dtype=np.int64)
        dist += len(label)
        np.divide(dist, np.maximum(packed_len, max(len(label), 1)), out=row)
        np.subtract(1.0, row, out=row)
    return s


def _jaro(a: str, b: str) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    if a == b:
        return 1.0
    window = max(len(a), len(b)) // 2 - 1
    matched_b = [False] * len(b)
    matches_a = []
    for i, ca in enumerate(a):
        lo = max(0, i - window)
        hi = min(len(b), i + window + 1)
        for j in range(lo, hi):
            if not matched_b[j] and b[j] == ca:
                matched_b[j] = True
                matches_a.append(ca)
                break
    m = len(matches_a)
    if m == 0:
        return 0.0
    matches_b = [b[j] for j in range(len(b)) if matched_b[j]]
    transpositions = sum(x != y for x, y in zip(matches_a, matches_b)) // 2
    return (m / len(a) + m / len(b) + (m - transpositions) / m) / 3.0


_WINKLER_SCALE = 0.1
_WINKLER_MAX_PREFIX = 4


def _common_prefix_len(a: str, b: str, cap: int = _WINKLER_MAX_PREFIX) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y or n >= cap:
            break
        n += 1
    return n


def _jaro_winkler(a: str, b: str) -> float:
    jaro = _jaro(a, b)
    prefix = _common_prefix_len(a, b)
    return jaro + prefix * _WINKLER_SCALE * (1.0 - jaro)


def _trigrams(s: str) -> List[str]:
    padded = "##" + s + "##"
    return [padded[i:i + 3] for i in range(len(padded) - 2)]


def _ngram(a: str, b: str) -> float:
    # trigram Dice; too-short strings degenerate to exact comparison
    if len(a) < 3 or len(b) < 3:
        return _equal(a, b)
    ta, tb = _trigrams(a), _trigrams(b)
    common = 0
    pool = {}
    for g in ta:
        pool[g] = pool.get(g, 0) + 1
    for g in tb:
        if pool.get(g, 0) > 0:
            pool[g] -= 1
            common += 1
    return 2.0 * common / (len(ta) + len(tb))


def _needleman_wunsch(a: str, b: str) -> float:
    # global alignment distance: substitution cost 1, gap cost 2 per character
    longer = max(len(a), len(b))
    if longer == 0:
        return 1.0
    gap = 2
    prev = [j * gap for j in range(len(b) + 1)]
    for i, ca in enumerate(a, start=1):
        cur = [i * gap]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + gap, cur[j - 1] + gap, prev[j - 1] + (ca != cb)))
        prev = cur
    return 1.0 - prev[-1] / (2.0 * longer)


def _longest_common_substring(a: str, b: str) -> Tuple[int, int, int]:
    """(length, start_a, start_b) of the longest common substring that starts
    earliest in a, then in b; (0, 0, 0) if none.  autojunk=False, as difflib
    would otherwise ignore the characters frequent in a b of 200+ characters."""
    m = SequenceMatcher(None, a, b, autojunk=False).find_longest_match()
    return m.size, m.a, m.b


def _substring(a: str, b: str) -> float:
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    return 2.0 * _longest_common_substring(a, b)[0] / total


_SMOA_P = 0.6


def _smoa_raw(a: str, b: str) -> float:
    """Stoilos measure on its native [-1, 1] scale."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return -1.0
    len_a, len_b = len(a), len(b)
    # iterative removal of longest common substrings
    common_len = 0
    s1, s2 = a, b
    while True:
        length, i, j = _longest_common_substring(s1, s2)
        if length == 0:
            break
        common_len += length
        s1 = s1[:i] + s1[i + length:]
        s2 = s2[:j] + s2[j + length:]
    comm = 2.0 * common_len / (len_a + len_b)
    u1 = (len_a - common_len) / len_a
    u2 = (len_b - common_len) / len_b
    denom = _SMOA_P + (1.0 - _SMOA_P) * (u1 + u2 - u1 * u2)
    diff = 0.0 if denom == 0 else (u1 * u2) / denom
    winkler_impr = _common_prefix_len(a, b) * _WINKLER_SCALE * (1.0 - comm)
    return comm - diff + winkler_impr


def _smoa(a: str, b: str) -> float:
    # map [-1, 1] onto [0, 1] so the matrix contract holds
    return min(1.0, max(0.0, (_smoa_raw(a, b) + 1.0) / 2.0))


def _pairwise(
    metric: Callable[[str, str], float]
) -> Callable[[Sequence[str], Sequence[str]], np.ndarray]:
    """The matrix builder that calls a scalar metric on every label pair,
    filling `_solver_matrix`'s matrix one contiguous row or column at a time."""
    def build(src_labels: Sequence[str], tgt_labels: Sequence[str]) -> np.ndarray:
        s, rows = _solver_matrix(len(src_labels), len(tgt_labels))
        if rows is s:
            for row, a in zip(rows, src_labels):
                row[:] = [metric(a, b) for b in tgt_labels]
        else:
            for row, b in zip(rows, tgt_labels):
                row[:] = [metric(a, b) for a in src_labels]
        return s
    return build


#: The (source labels x target labels) matrix builder of each metric.  Every
#: entry lies in [0, 1]; two empty labels score 1.0 and one empty label 0.0.
_MATRICES = {
    MetricKind.EQUAL: _pairwise(_equal),
    MetricKind.HAMMING: _pairwise(_hamming),
    MetricKind.JARO: _pairwise(_jaro),
    MetricKind.JARO_WINKLER: _pairwise(_jaro_winkler),
    MetricKind.LEVENSHTEIN: _levenshtein_matrix,
    MetricKind.NGRAM: _pairwise(_ngram),
    MetricKind.NEEDLEMAN_WUNSCH: _pairwise(_needleman_wunsch),
    MetricKind.SMOA: _pairwise(_smoa),
    MetricKind.SUBSTRING: _pairwise(_substring),
}


def similarity(metric: MetricKind, a: str, b: str) -> float:
    """Similarity in [0, 1], the 1x1 view of the metric's matrix; symmetric,
    and 1.0 on equal strings."""
    return float(_MATRICES[metric]([a], [b])[0, 0])


class SimilarityMatrix(Record):
    row_ids: Tuple[str, ...]
    col_ids: Tuple[str, ...]
    s: np.ndarray

    def __eq__(self, other):  # an array's == is per cell; unhashable, as the array is
        if type(other) is not type(self):
            return NotImplemented
        return ((self.row_ids, self.col_ids) == (other.row_ids, other.col_ids)
                and np.array_equal(self.s, other.s))


#: The most bytes the float64 similarity matrix may take, 8 a label pair:
#: 2 GiB admits the OAEI anatomy task (2744 x 3304 labels, 72.5 MB) and
#: refuses whole-ontology largebio (about 79k x 67k labels, 42 GB).
MAX_MATRIX_BYTES = 2 ** 31


def build_similarity_matrix(
    src: Sequence[Tuple[str, str]], tgt: Sequence[Tuple[str, str]], metric: MetricKind
) -> SimilarityMatrix:
    """The metric's similarity of every (id, label) row of src to every row of
    tgt; MatrixTooLarge, before any allocation, past `MAX_MATRIX_BYTES`."""
    if len(src) == 0 or len(tgt) == 0:
        raise EmptyTable("label tables must be non-empty")
    if len(src) * len(tgt) * 8 > MAX_MATRIX_BYTES:
        raise MatrixTooLarge(len(src), len(tgt), MAX_MATRIX_BYTES)
    s = _MATRICES[metric]([normalize(label) for _, label in src],
                          [normalize(label) for _, label in tgt])
    return SimilarityMatrix(tuple(id_ for id_, _ in src), tuple(id_ for id_, _ in tgt), s)


def _assign_rows(s: np.ndarray) -> List[int]:
    """The column of each row in scipy's optimal assignment of a matrix with
    rows <= cols: its rectangular shortest augmenting path, in numpy.

    The cost is -s.  Each row in turn runs a Dijkstra search over reduced
    costs to the nearest unassigned column, then the row duals u and column
    duals v move so that no reduced cost goes negative.  The floats and the
    ties are scipy's, so the pairs are the same, not only the total: a
    reduced cost is ((min_val - s) - u) - v, as min_val + (-s) is exactly
    min_val - s.  Of several columns at the minimum, the search takes the
    unassigned one (row4col < 0) with the largest `pos`, its index in scipy's
    `remaining`; if all are assigned, the one with the smallest `pos`.
    `remaining` starts as cols-1 ... 0, and a taken column is replaced by the
    last one.  Every step works on the full row, taken columns included.
    """
    n_rows, n_cols = s.shape
    u, v = np.zeros(n_rows), np.zeros(n_cols)
    col4row = [-1] * n_rows
    row4col = np.full(n_cols, -1, dtype=np.intp)
    start = np.arange(n_cols - 1, -1, -1)
    r, at_min = np.empty(n_cols), np.empty(n_cols, dtype=bool)
    for row in range(n_rows):
        remaining, pos = start.copy(), start.copy()
        dist = np.full(n_cols, np.inf)
        # -inf on taken columns, so that their dist stays +inf
        v_open = v.copy()
        min_val, i = 0.0, row
        # scanned[k] is scanned at mins[k] and yields taken[k]
        scanned, mins, taken = [], [], []
        while i >= 0:
            scanned.append(i)
            mins.append(min_val)
            np.subtract(min_val, s[i], out=r)
            r -= u[i]
            r -= v_open
            np.minimum(dist, r, out=dist)
            min_val = dist[dist.argmin()]
            ties = np.equal(dist, min_val, out=at_min).nonzero()[0]
            j = int(ties[0])
            if len(ties) > 1:
                free = ties[row4col[ties] < 0]
                j = int(free[pos[free].argmax()] if len(free) else ties[pos[ties].argmin()])
            taken.append(j)
            dist[j], v_open[j] = np.inf, -np.inf
            p, last = pos[j], remaining[n_cols - len(taken)]
            remaining[p], pos[last] = last, p
            i = int(row4col[j])
        scanned_a, mins_a = np.array(scanned), np.array(mins)
        # augment along the path back from the unassigned column: taken[k]
        # came from the first of scanned[:k + 1] that gave it its least dist
        k = len(taken) - 1
        while True:
            j, rows = taken[k], scanned_a[:k + 1]
            t = int((((mins_a[:k + 1] - s[rows, j]) - u[rows]) - v[j]).argmin())
            row4col[j], col4row[scanned[t]] = scanned[t], j
            if t == 0:
                break
            k = t - 1
        # the duals move by min_val less the dist at which each column was
        # taken, which is the next scan's mins entry
        gap = min_val - np.append(mins_a[1:], min_val)
        u[row] += min_val
        u[scanned_a[1:]] += gap[:-1]
        v[taken] -= gap
    return col4row


def hungarian_assign(sim: SimilarityMatrix) -> List[Tuple[int, int]]:
    """Optimal maximum-total-similarity one-to-one assignment.

    Crouse's shortest augmenting path (Crouse 2016, IEEE TAES 52(4)), the
    algorithm of scipy's `linear_sum_assignment`, with the same pairs as
    `linear_sum_assignment(sim.s, maximize=True)`.  min(rows, cols) pairs are
    returned, sorted by row index.
    """
    s = np.asarray(sim.s, dtype=float)
    # NaN propagates through min and max, so no full-size mask is needed
    if s.size and not (np.isfinite(s.min()) and np.isfinite(s.max())):
        raise ValueError("similarity matrix has a non-finite entry")
    # no copy of a matrix laid out by `_solver_matrix`
    if s.shape[0] > s.shape[1]:
        # scipy solves a tall matrix as its transpose
        return sorted((i, j) for j, i in enumerate(_assign_rows(np.ascontiguousarray(s.T))))
    return list(enumerate(_assign_rows(np.ascontiguousarray(s))))


def _check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:  # NaN fails the comparison too
        raise InvalidInput("threshold must lie in [0, 1]")


def extract_alignment(
    sim: SimilarityMatrix,
    assignment: Sequence[Tuple[int, int]],
    threshold: float,
    system_name: str,
) -> Alignment:
    """Keep assigned pairs with similarity >= threshold; confidence = similarity."""
    _check_threshold(threshold)
    kept = [
        (sim.row_ids[i], sim.col_ids[j], float(sim.s[i, j]))
        for i, j in assignment
        if sim.s[i, j] >= threshold
    ]
    return canonicalize_alignment(kept, system_name)


def match(
    src: Sequence[Tuple[str, str]],
    tgt: Sequence[Tuple[str, str]],
    metric: MetricKind,
    threshold: float,
    system_name: str,
) -> Alignment:
    """Full pipeline: similarity matrix -> assignment -> thresholded alignment."""
    _check_threshold(threshold)  # before the matrix, which may take minutes
    sim = build_similarity_matrix(src, tgt, metric)
    return extract_alignment(sim, hungarian_assign(sim), threshold, system_name)
