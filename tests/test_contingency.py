"""Contingency builders checked against a per-correspondence classification oracle."""

import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from test_cli import ingest_cli

from alignsig.contingency import (
    DiscordantMatrix,
    build_discordant_matrix,
    build_table,
    parse_matrix_tsv,
    write_matrix_tsv,
)
from alignsig.cli import main
from alignsig.errors import (
    BadSystemName, DuplicateSystemName, MalformedLine, NegativeCount, UniverseTooSmall,
)
from alignsig.ingest import parse_alignment_xml
from alignsig.model import Perspective, canonicalize_alignment

IFP, CFP = Perspective.IFP, Perspective.CFP


def align(name, keys):
    return canonicalize_alignment([(s, t, 1.0) for s, t in keys], name)


def oracle_ifp(r, a1, a2):
    """Classify each member of R individually."""
    R, A1, A2 = set(r.pairs), set(a1.pairs), set(a2.pairs)
    n00 = n01 = n10 = n11 = 0
    for k in R:
        in1, in2 = k in A1, k in A2
        if in1 and in2:
            n11 += 1
        elif in1:
            n10 += 1
        elif in2:
            n01 += 1
        else:
            n00 += 1
    return n00, n01, n10, n11


def oracle_cfp_discordant(r, a1, a2):
    """Classify each member of R | A1 | A2 individually (discordant cells only)."""
    R, A1, A2 = set(r.pairs), set(a1.pairs), set(a2.pairs)
    n01 = n10 = 0
    for k in R | A1 | A2:
        correct = k in R
        in1, in2 = k in A1, k in A2
        if correct and in2 and not in1:
            n01 += 1
        elif correct and in1 and not in2:
            n10 += 1
        elif not correct and in1 and not in2:
            n01 += 1
        elif not correct and in2 and not in1:
            n10 += 1
    return n01, n10


def oracle_cfp(r, a1, a2, total_pairs):
    """All four CFP cells by classifying each member of R | A1 | A2."""
    R, A1, A2 = set(r.pairs), set(a1.pairs), set(a2.pairs)
    n00 = n11 = 0
    for k in R | A1 | A2:
        in1, in2 = k in A1, k in A2
        if k in R:
            n00 += not (in1 or in2)
            n11 += in1 and in2
        else:
            n00 += in1 and in2
    n01, n10 = oracle_cfp_discordant(r, a1, a2)
    return n00, n01, n10, n11 + total_pairs - len(R | A1 | A2)


def set_in_favor(r, ai, aj, perspective):
    """Correspondences counted for ai against aj, by set algebra on the keys."""
    R, Ai, Aj = set(r.pairs), set(ai.pairs), set(aj.pairs)
    count = len((Ai & R) - Aj)
    if perspective is Perspective.CFP:
        count += len(Aj - Ai - R)
    return count


def set_matrix(r, systems, perspective):
    n = len(systems)
    return tuple(tuple(0 if i == j else set_in_favor(r, systems[i], systems[j], perspective)
                       for j in range(n)) for i in range(n))


def random_alignment(rng, name, universe, size):
    return align(name, rng.sample(universe, size))


UNIVERSE = [(f"s{i}", f"t{j}") for i in range(8) for j in range(8)]


class TestIfp:
    def test_worked_example(self):
        r = align("R", [("r1", "1"), ("r2", "2"), ("r3", "3")])
        a1 = align("A1", [("r1", "1"), ("r2", "2"), ("x", "x")])
        a2 = align("A2", [("r2", "2"), ("r3", "3")])
        t = build_table(r, a1, a2, IFP)
        assert (t.n00, t.n01, t.n10, t.n11) == (0, 1, 1, 1)
        assert (t.n00, t.n01, t.n10, t.n11) == oracle_ifp(r, a1, a2)

    def test_identical_systems_equal_to_reference(self):
        r = align("R", [("a", "1"), ("b", "2")])
        t = build_table(r, align("A1", [("a", "1"), ("b", "2")]),
                        align("A2", [("a", "1"), ("b", "2")]), IFP)
        assert (t.n00, t.n01, t.n10, t.n11) == (0, 0, 0, 2)

    def test_extra_false_positives_invisible(self):
        r = align("R", [("a", "1"), ("b", "2")])
        a1 = align("A1", [("a", "1"), ("b", "2")])
        a2 = align("A2", [("a", "1"), ("b", "2"), ("junk", "junk")])
        t = build_table(r, a1, a2, IFP)
        assert t.n01 == t.n10 == 0

    def test_partition_of_reference(self):
        rng = random.Random(7)
        for _ in range(200):
            r = random_alignment(rng, "R", UNIVERSE, rng.randint(0, 20))
            a1 = random_alignment(rng, "A1", UNIVERSE, rng.randint(0, 20))
            a2 = random_alignment(rng, "A2", UNIVERSE, rng.randint(0, 20))
            t = build_table(r, a1, a2, IFP)
            assert (t.n00, t.n01, t.n10, t.n11) == oracle_ifp(r, a1, a2)
            assert t.n00 + t.n01 + t.n10 + t.n11 == len(r)


class TestCfp:
    def test_worked_example(self):
        r = align("R", [("r1", "1"), ("r2", "2"), ("r3", "3")])
        a1 = align("A1", [("r1", "1"), ("r2", "2"), ("x", "x")])
        a2 = align("A2", [("r2", "2"), ("r3", "3")])
        t = build_table(r, a1, a2, CFP)
        assert (t.n00, t.n01, t.n10, t.n11) == (0, 2, 1, None)

    def test_false_positives_counted_against(self):
        r = align("R", [("a", "1"), ("b", "2")])
        a1 = align("A1", [("a", "1"), ("b", "2")])
        a2 = align("A2", [("a", "1"), ("b", "2"), ("u", "u"), ("v", "v")])
        t = build_table(r, a1, a2, CFP)
        assert t.n01 == 0
        assert t.n10 == 2  # |B|

    def test_identical_systems(self):
        r = align("R", [("a", "1")])
        a = align("A1", [("a", "1"), ("x", "x")])
        b = align("A2", [("a", "1"), ("x", "x")])
        t = build_table(r, a, b, CFP)
        assert t.n01 == t.n10 == 0

    def test_n11_with_universe(self):
        r = align("R", [("a", "1"), ("b", "2")])
        a1 = align("A1", [("a", "1")])
        a2 = align("A2", [("a", "1"), ("c", "3")])
        t = build_table(r, a1, a2, CFP, total_pairs=10)
        # |A1 & A2 & R| = 1, T - |R | A1 | A2| = 10 - 3
        assert t.n11 == 8

    def test_universe_too_small(self):
        r = align("R", [("a", "1"), ("b", "2")])
        a1 = align("A1", [("c", "3")])
        with pytest.raises(UniverseTooSmall):
            build_table(r, a1, a1, CFP, total_pairs=2)

    @pytest.mark.parametrize("perspective", list(Perspective))
    def test_total_pairs_checked_under_both_perspectives(self, perspective):
        r = align("R", [("a", "1"), ("b", "2")])
        a1 = align("A1", [("a", "1")])
        a2 = align("A2", [("c", "3")])
        for bad in (0, -5):
            with pytest.raises(ValueError, match="total_pairs must be positive"):
                build_table(r, a1, a2, perspective, total_pairs=bad)
        with pytest.raises(UniverseTooSmall):
            build_table(r, a1, a2, perspective, total_pairs=2)
        # T fills n11 under CFP only; under IFP the cells partition R whatever T is
        t3, t30 = (build_table(r, a1, a2, perspective, total_pairs=n) for n in (3, 30))
        if perspective is IFP:
            assert t3 == t30 == build_table(r, a1, a2, IFP)
        else:
            assert (t3.n11, t30.n11) == (0, 27)

    def test_discordant_identity_vs_ifp(self):
        rng = random.Random(11)
        for _ in range(200):
            r = random_alignment(rng, "R", UNIVERSE, rng.randint(0, 20))
            a1 = random_alignment(rng, "A1", UNIVERSE, rng.randint(0, 20))
            a2 = random_alignment(rng, "A2", UNIVERSE, rng.randint(0, 20))
            cfp = build_table(r, a1, a2, CFP)
            ifp = build_table(r, a1, a2, IFP)
            extra01 = len(set(a1.pairs) - set(a2.pairs) - set(r.pairs))
            extra10 = len(set(a2.pairs) - set(a1.pairs) - set(r.pairs))
            assert cfp.n01 == ifp.n01 + extra01
            assert cfp.n10 == ifp.n10 + extra10
            assert (cfp.n01, cfp.n10) == oracle_cfp_discordant(r, a1, a2)


def test_swapping_systems_swaps_discordant_cells():
    rng = random.Random(3)
    for perspective in Perspective:
        for _ in range(100):
            r = random_alignment(rng, "R", UNIVERSE, rng.randint(0, 15))
            a1 = random_alignment(rng, "A1", UNIVERSE, rng.randint(0, 15))
            a2 = random_alignment(rng, "A2", UNIVERSE, rng.randint(0, 15))
            t12 = build_table(r, a1, a2, perspective)
            t21 = build_table(r, a2, a1, perspective)
            assert (t12.n01, t12.n10) == (t21.n10, t21.n01)
            assert t12.n00 == t21.n00


class TestDiscordantMatrix:
    def test_matrix_matches_pairwise_tables(self):
        rng = random.Random(23)
        for persp in Perspective:
            r = random_alignment(rng, "R", UNIVERSE, 15)
            systems = [random_alignment(rng, f"S{i}", UNIVERSE, rng.randint(5, 20))
                       for i in range(3)]
            m = build_discordant_matrix(r, systems, persp)
            for i in range(3):
                for j in range(3):
                    if i == j:
                        assert m.m[i][j] == 0
                        continue
                    t = build_table(r, systems[i], systems[j], persp)
                    assert m.m[i][j] == t.n10
                    assert m.m[j][i] == t.n01

    def test_identical_systems_all_zero(self):
        r = align("R", [("a", "1")])
        s = [align("S1", [("a", "1")]), align("S2", [("a", "1")])]
        m = build_discordant_matrix(r, s, Perspective.IFP)
        assert m.m == ((0, 0), (0, 0))

    def test_duplicate_names_rejected(self):
        r = align("R", [("a", "1")])
        s = [align("S", [("a", "1")]), align("S", [])]
        with pytest.raises(DuplicateSystemName):
            build_discordant_matrix(r, s, Perspective.IFP)

    def test_constructor_rejects_negative_cells(self):
        m = np.array([[0, 3, 1], [2, 0, -4], [0, 0, 0]], dtype=np.int64)
        with pytest.raises(NegativeCount) as info:
            DiscordantMatrix(("A", "B", "C"), m, Perspective.IFP)
        assert (info.value.row, info.value.column, info.value.value) == ("B", "C", -4)

    def test_tsv_round_trip(self):
        rng = random.Random(5)
        r = random_alignment(rng, "R", UNIVERSE, 10)
        systems = [random_alignment(rng, f"S{i}", UNIVERSE, 10) for i in range(4)]
        m = build_discordant_matrix(r, systems, Perspective.IFP)
        again = parse_matrix_tsv(write_matrix_tsv(m), Perspective.IFP)
        assert again == m

    @pytest.mark.parametrize("name", [
        "", " ", "A\tX", "A\nX", "A\rX", "X\r", "\ufeffA", "\udcffA", "A\x00",
    ])
    def test_constructor_rejects_names_a_matrix_tsv_cannot_carry(self, name):
        # a tab or line break splits the TSV, its reader drops a leading byte
        # order mark and a final CR, and a lone surrogate cannot be encoded
        with pytest.raises(BadSystemName):
            DiscordantMatrix((name, "B"), np.zeros((2, 2), dtype=np.int64), IFP)

    def test_constructor_rejects_a_matrix_without_systems(self):
        with pytest.raises(ValueError):
            DiscordantMatrix((), np.zeros((0, 0), dtype=np.int64), IFP)

    @pytest.mark.parametrize("cells", [
        [[0, 2.5], [40.7, 0]],
        [[0, 2], [40.0, 0]],
        np.array([[0, 2.5], [40.7, 0]]),
        np.zeros((2, 2)),
    ], ids=["floats", "integral-float", "float-array", "float-zeros"])
    def test_constructor_rejects_non_integer_cells(self, cells):
        # truncating 2.5 and 40.7 would change the verdict; the tests in
        # mcnemar refuse them the same way
        with pytest.raises(TypeError):
            DiscordantMatrix(("A", "B"), cells, IFP)

    def test_integer_array_is_stored_as_python_ints(self):
        m = DiscordantMatrix(("A", "B"), np.array([[0, 2], [40, 0]], dtype=np.int64), IFP)
        assert m.m == ((0, 2), (40, 0))
        assert all(type(v) is int for row in m.m for v in row)
        assert m == DiscordantMatrix(("A", "B"), [[0, 2], [40, 0]], IFP)
        assert (m.m[0][1], m.m[1][0]) == (2, 40)

    @pytest.mark.parametrize("cell", [2 ** 63, -(2 ** 63) - 1])
    def test_parser_refuses_cells_outside_int64(self, cell):
        data = f"A\tB\nA\t0\t1\nB\t{cell}\t0\n".encode()
        with pytest.raises(MalformedLine, match="outside the 64-bit integer range"):
            parse_matrix_tsv(data, IFP)

    @pytest.mark.parametrize("data, line_no", [
        ("A\tB\nA\t0\t1_0\nB\t2\t0\n", 2),
        ("A\tB\nA\t0\t1\nB\t\uff12\t0\n", 3),
    ], ids=["digit-separator", "full-width-digit"])
    def test_parser_refuses_cells_int_alone_would_read(self, data, line_no):
        # int() reads "1_0" as 10 and a full-width two as 2; a cell is ASCII
        # digits without "_", as a confidence is in ingest
        with pytest.raises(MalformedLine) as info:
            parse_matrix_tsv(data.encode(), IFP)
        assert (info.value.line_no, info.value.reason) == (line_no, "non-integer cell")

    def test_constructor_refuses_cells_beyond_int64(self):
        # its TSV would not parse back
        with pytest.raises(ValueError, match="outside the 64-bit integer range"):
            DiscordantMatrix(("A", "B"), [[0, 2 ** 63], [0, 0]], IFP)
        assert DiscordantMatrix(("A", "B"), [[0, 2 ** 63 - 1], [0, 0]], IFP).m[0][1] == 2 ** 63 - 1

    def test_parser_keeps_the_int64_extremes(self):
        data = f"A\tB\nA\t0\t{2 ** 63 - 1}\nB\t1\t0\n".encode()
        assert parse_matrix_tsv(data, IFP).m == ((0, 2 ** 63 - 1), (1, 0))

    @given(st.data(), st.sampled_from(list(Perspective)))
    def test_every_accepted_matrix_survives_the_tsv(self, data, perspective):
        names = data.draw(st.lists(
            st.text(st.characters() | st.sampled_from("\t\n\r\ufeff \x0b\x85\u2028"),
                    max_size=5),
            max_size=5, unique=True))
        n = len(names)
        top = data.draw(st.sampled_from([2 ** 63 - 1, 2 ** 64]))  # up to or beyond int64
        cells = data.draw(st.lists(st.integers(0, top), min_size=n * n, max_size=n * n))
        m = [[0 if i == j else cells[i * n + j] for j in range(n)] for i in range(n)]
        if top < 2 ** 63 and data.draw(st.booleans()):
            m = np.array(m, dtype=np.int64).reshape(n, n)
        try:
            matrix = DiscordantMatrix(tuple(names), m, perspective)
        except (BadSystemName, ValueError):  # a bad name, no systems, or a cell beyond int64
            return
        again = parse_matrix_tsv(write_matrix_tsv(matrix), perspective)
        assert again == matrix


# Widths around a byte, so that the id bitmap ends on, just before or just past
# a byte boundary.
BLOCK_WIDTHS = [0, 1, 7, 8, 9]
SHAPES = ["random", "empty", "outside R", "covers R", "every false key"]


def _subset(keys, mask):
    return [key for bit, key in enumerate(keys) if mask >> bit & 1]


@st.composite
def counting_tasks(draw):
    """A reference and 2-6 systems over R plus a pool of false keys."""
    nr = draw(st.sampled_from(BLOCK_WIDTHS) | st.integers(0, 40))
    nf = draw(st.sampled_from(BLOCK_WIDTHS) | st.integers(0, 40))
    ref_keys = [(f"r{i}", f"t{i}") for i in range(nr)]
    false_keys = [(f"f{i}", f"u{i}") for i in range(nf)]
    systems = []
    for k in range(draw(st.integers(2, 6))):
        shape = draw(st.sampled_from(SHAPES))
        correct, false = (_subset(keys, draw(st.integers(0, 2 ** len(keys) - 1)))
                          for keys in (ref_keys, false_keys))
        if shape == "empty":
            correct, false = [], []
        elif shape == "outside R":
            correct = []
        elif shape == "covers R":
            correct = ref_keys
        elif shape == "every false key":
            false = false_keys
        systems.append(align(f"S{k}", correct + false))
    return align("R", ref_keys), systems


class TestOverlapKernel:
    @settings(max_examples=300)
    @given(counting_tasks(), st.sampled_from(list(Perspective)))
    def test_matrix_equals_set_algebra(self, task, perspective):
        r, systems = task
        m = build_discordant_matrix(r, systems, perspective)
        assert all(type(v) is int for row in m.m for v in row)
        assert m.m == set_matrix(r, systems, perspective)

    @settings(max_examples=300)
    @given(counting_tasks(), st.integers(0, 100))
    def test_tables_equal_classification_oracles(self, task, slack):
        r, (a1, a2, *_) = task
        ifp = build_table(r, a1, a2, IFP)
        assert (ifp.n00, ifp.n01, ifp.n10, ifp.n11) == oracle_ifp(r, a1, a2)
        union = len(set(r.pairs) | set(a1.pairs) | set(a2.pairs))
        total = max(union + slack, 1)
        cfp = build_table(r, a1, a2, CFP, total_pairs=total)
        assert (cfp.n00, cfp.n01, cfp.n10, cfp.n11) == oracle_cfp(r, a1, a2, total)
        assert build_table(r, a1, a2, CFP).n11 is None
        if union > 1:
            with pytest.raises(UniverseTooSmall) as info:
                build_table(r, a1, a2, CFP, total_pairs=union - 1)
            assert (info.value.total_pairs, info.value.needed) == (union - 1, union)

    @pytest.mark.parametrize("nf", BLOCK_WIDTHS)
    @pytest.mark.parametrize("nr", BLOCK_WIDTHS)
    def test_exact_block_widths(self, nr, nf):
        rng = random.Random(nr * 10 + nf)
        ref_keys = [(f"r{i}", f"t{i}") for i in range(nr)]
        false_keys = [(f"f{i}", f"u{i}") for i in range(nf)]
        r = align("R", ref_keys)
        # S0 holds every false key and S1 all of R, so the blocks are exactly nr and nf wide
        systems = [align("S0", false_keys), align("S1", ref_keys)]
        systems += [align(f"S{k}", rng.sample(ref_keys + false_keys,
                                                rng.randint(0, nr + nf)))
                    for k in range(2, 5)]
        for perspective in Perspective:
            m = build_discordant_matrix(r, systems, perspective)
            assert m.m == set_matrix(r, systems, perspective)

    def test_overlaps_beyond_one_byte_of_counts(self):
        rng = random.Random(41)
        ref_keys = [(f"r{i}", f"t{i}") for i in range(700)]
        false_keys = [(f"f{i}", f"u{i}") for i in range(500)]
        r = align("R", ref_keys)
        systems = [align(f"S{k}", rng.sample(ref_keys, rng.randint(300, 700))
                         + rng.sample(false_keys, rng.randint(260, 500)))
                   for k in range(4)]
        for perspective in Perspective:
            m = build_discordant_matrix(r, systems, perspective)
            assert m.m == set_matrix(r, systems, perspective)


def write_task(directory, r, systems):
    """Write r and the systems as TSV files in `directory`; return the `table`
    arguments that name them.

    Every third key of each file is written again with a lower confidence and
    every third but one again with a higher one, so the parse folds duplicates.
    """
    def tsv(a):
        keys = list(a.pairs)
        return "".join([f"{s}\t{t}\t=\t0.5\n" for s, t in keys]
                       + [f"{s}\t{t}\t=\t0.25\n" for s, t in keys[::3]]
                       + [f"{s}\t{t}\t=\t0.75\n" for s, t in keys[1::3]])

    (directory / "ref.tsv").write_text(tsv(r))
    args = ["table", "--reference", str(directory / "ref.tsv")]
    for a in systems:
        path = directory / f"{a.system_name}.tsv"
        path.write_text(tsv(a))
        args += ["--alignment", f"{a.system_name}={path}"]
    return args


def shared_and_late_false_keys():
    """False keys shared by several systems, and one the last system adds first."""
    r = align("R", [(f"r{i}", f"t{i}") for i in range(4)])
    f0, f1, f2, f3 = [(f"f{i}", f"u{i}") for i in range(4)]
    return r, [align("S0", [("r0", "t0"), ("r1", "t1"), f0, f1]),
               align("S1", [("r1", "t1"), ("r2", "t2"), f1, f2]),
               align("S2", [("r3", "t3"), f0, f2, f3])]


def random_task(seed):
    rng = random.Random(seed)
    ref_keys = [(f"r{i}", f"t{i}") for i in range(rng.randint(0, 30))]
    false_keys = [(f"f{i}", f"u{i}") for i in range(rng.randint(0, 30))]
    keys = ref_keys + false_keys
    return align("R", ref_keys), [align(f"S{k}", rng.sample(keys, rng.randint(0, len(keys))))
                                  for k in range(rng.randint(2, 6))]


def read_matrix(data, perspective):
    return parse_matrix_tsv(data, perspective).m


class TestFilePath:
    """`table` counts files where they are parsed; its matrix is the set algebra's."""

    @settings(max_examples=100, deadline=None)
    @given(counting_tasks(), st.sampled_from(list(Perspective)))
    @example(shared_and_late_false_keys(), CFP)
    def test_sequential_matrix_equals_set_algebra(self, task, perspective):
        r, systems = task
        with tempfile.TemporaryDirectory() as tmp:
            output = Path(tmp) / "m.tsv"
            main([*write_task(Path(tmp), r, systems), "--perspective", perspective.value,
                  "--output", str(output)])
            m = read_matrix(output.read_bytes(), perspective)
        assert m == set_matrix(r, systems, perspective)

    @pytest.mark.parametrize("perspective", list(Perspective))
    @pytest.mark.parametrize("task", [shared_and_late_false_keys(), random_task(1),
                                      random_task(2)], ids=["shared-and-late", "seed-1", "seed-2"])
    def test_pooled_matrix_equals_set_algebra(self, tmp_path, task, perspective):
        r, systems = task
        args = write_task(tmp_path, r, systems)
        code, stdout, stderr, last = ingest_cli("pool", tmp_path, *args,
                                                "--perspective", perspective.value)
        assert (code, stderr, last) == (0, [], "True 0 []")  # the workers ran
        assert read_matrix(stdout, perspective) == set_matrix(r, systems, perspective)


#: Pairs of keys that a join of source and target with a tab, or with nothing,
#: would merge: in each, a tab, a letter, a colon or a digit moves from the
#: source to the target.
BOUNDARY_KEYS = [(("a\tb", "c"), ("a", "b\tc")), (("ab", "c"), ("a", "bc")),
                 (("1:", "x"), ("1", ":x"))]


def xml_alignment(keys):
    """Alignment XML of `keys`, each tab written as the character reference &#9;,
    since a parser reads a literal tab in an attribute as a space."""
    cell = '<Cell><entity1 rdf:resource="{}"/><entity2 rdf:resource="{}"/></Cell>'
    cells = "".join(cell.format(*(e.replace("\t", "&#9;") for e in key)) for key in keys)
    return ('<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" xmlns='
            '"http://knowledgeweb.semanticweb.org/heterogeneity/alignment"><Alignment>'
            f"{cells}</Alignment></rdf:RDF>")


class TestKeysOutsideTheReference:
    """Keys outside R that differ only in where source ends and target begins
    stay apart, in the CLI's process and in the workers."""

    @staticmethod
    def task():
        left, right = (list(keys) for keys in zip(*BOUNDARY_KEYS))
        r = align("R", [("r", "t")])
        systems = [align("S0", left + [("r", "t")]), align("S1", right),
                   align("S2", [left[0], right[1], left[2]])]
        return r, systems

    def write(self, directory):
        """Write R and the systems as Alignment XML; return the `table` arguments."""
        r, systems = self.task()
        args = ["table", "--reference", "R.rdf", "--perspective", "cfp"]
        for a in [r, *systems]:
            (directory / f"{a.system_name}.rdf").write_text(xml_alignment(a.pairs))
        for a in systems:
            args += ["--alignment", f"{a.system_name}={a.system_name}.rdf"]
        return args

    def test_the_xml_holds_the_keys(self, tmp_path):
        self.write(tmp_path)
        r, systems = self.task()
        for a in [r, *systems]:
            data = (tmp_path / f"{a.system_name}.rdf").read_bytes()
            assert parse_alignment_xml(data, a.system_name).pairs == a.pairs

    def test_in_process_matrix_equals_set_algebra(self, tmp_path):
        r, systems = self.task()
        expected = set_matrix(r, systems, CFP)
        assert expected == ((0, 4, 2), (3, 0, 2), (1, 2, 0))
        assert build_discordant_matrix(r, systems, CFP).m == expected
        args = self.write(tmp_path)
        with pytest.MonkeyPatch.context() as patch:
            patch.chdir(tmp_path)
            main([*args, "--output", "m.tsv"])
        assert read_matrix((tmp_path / "m.tsv").read_bytes(), CFP) == expected

    def test_pooled_matrix_equals_set_algebra(self, tmp_path):
        r, systems = self.task()
        code, stdout, stderr, last = ingest_cli("pool", tmp_path, *self.write(tmp_path))
        assert (code, stderr, last) == (0, [], "True 0 []")  # the workers ran
        assert read_matrix(stdout, CFP) == set_matrix(r, systems, CFP)
