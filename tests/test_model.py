import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from alignsig.contingency import DiscordantMatrix
from alignsig.errors import BadSystemName, ModeMismatch
from alignsig.fwer import HypothesisSet
from alignsig.matcher import SimilarityMatrix, build_similarity_matrix
from alignsig.model import (
    Alignment,
    ComparisonConfig,
    ContingencyTable,
    Correction,
    MetricKind,
    Mode,
    Perspective,
    Record,
    TestKind,
    canonicalize_alignment,
)
from alignsig.siggraph import PairOutcome, SignificanceGraph


def row(s, t, conf=1.0):
    return (s, t, conf)


class TestCanonicalize:
    def test_duplicate_collapse_keeps_max_confidence(self):
        a = canonicalize_alignment([row("a", "b", conf=0.9), row("a", "b", conf=0.7)], "s")
        assert len(a) == 1
        assert a.pairs == {("a", "b"): 0.9}

    def test_empty_input(self):
        a = canonicalize_alignment([], "s")
        assert len(a) == 0

    def test_empty_system_name_rejected(self):
        with pytest.raises(BadSystemName):
            canonicalize_alignment([], "  ")


row_strategy = st.tuples(
    st.text(alphabet="abc", min_size=1, max_size=3),
    st.text(alphabet="xyz", min_size=1, max_size=3),
    st.floats(0, 1),
)


@given(st.lists(row_strategy, max_size=50))
def test_canonicalize_idempotent(raw):
    once = canonicalize_alignment(raw, "s")
    twice = canonicalize_alignment([(s, t, c) for (s, t), c in once.pairs.items()], "s")
    assert once == twice


@given(st.lists(row_strategy, max_size=50), st.lists(row_strategy, max_size=50))
def test_set_algebra_matches_membership_oracle(raw1, raw2):
    a1 = set(canonicalize_alignment(raw1, "s1").pairs)
    a2 = set(canonicalize_alignment(raw2, "s2").pairs)
    universe = a1 | a2
    assert a1 & a2 == {k for k in universe if k in a1 and k in a2}
    assert a1 - a2 == {k for k in universe if k in a1 and k not in a2}
    assert a1 | a2 == {k for k in universe if k in a1 or k in a2}


class TestComparisonConfig:
    def test_correction_default_follows_the_mode(self):
        assert ComparisonConfig().correction is Correction.BERGMANN
        nx1 = ComparisonConfig(mode=Mode.NX1, baseline="AML")
        assert nx1.correction is Correction.HOLM
        assert nx1 == ComparisonConfig(mode=Mode.NX1, baseline="AML",
                                       correction=Correction.HOLM)

    @pytest.mark.parametrize("cap", [-1, 0, 1])
    def test_bergmann_cap_below_two_rejected(self, cap):
        with pytest.raises(ValueError, match=f"bergmann_cap {cap} "):
            ComparisonConfig(bergmann_cap=cap)

    def test_bergmann_cap_two_and_default_ten_accepted(self):
        assert ComparisonConfig(bergmann_cap=2).bergmann_cap == 2
        assert ComparisonConfig().bergmann_cap == 10


#: Field names, in order, and constructor arguments of every Record subclass.
FIELDS = {
    Alignment: (("system_name", "pairs"), ("S1", {("a", "b"): 0.5})),
    ContingencyTable: (("n00", "n01", "n10", "n11", "perspective"),
                       (4, 2, 1, None, Perspective.CFP)),
    ComparisonConfig: (("test", "correction", "mode", "baseline", "alpha", "bergmann_cap"),
                       (TestKind.EXACT, Correction.HOLM, Mode.NX1, "AML", 0.01, 5)),
    DiscordantMatrix: (("systems", "m", "perspective"),
                       (("A", "B"), ((0, 3), (1, 0)), Perspective.IFP)),
    HypothesisSet: (("n_systems", "raw_p", "mode"), (3, (0.1, 0.2, 0.3), Mode.NXN)),
    PairOutcome: (("system_a", "system_b", "n_a", "n_b", "raw_p", "apv", "winner"),
                  ("A", "B", 9, 1, 0.02, 0.04, "A")),
    SignificanceGraph: (("nodes", "edges", "outcomes", "perspective", "config"),
                        (("A", "B"), (), (PairOutcome("A", "B", 1, 1, 1.0, 1.0, None),),
                         Perspective.IFP, ComparisonConfig())),
    SimilarityMatrix: (("row_ids", "col_ids", "s"), (("a",), ("b",), np.array([[0.25]]))),
}

#: A dict or an array field makes a record unhashable, as it made the dataclass.
UNHASHABLE = {Alignment, SimilarityMatrix}

record_types = pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)


def make(cls):
    return cls(*FIELDS[cls][1])


def test_every_record_type_is_listed():
    ours = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("alignsig.")}
    assert ours == set(FIELDS)


@record_types
def test_fields_in_order_by_position_and_by_keyword(cls):
    names, args = FIELDS[cls]
    assert cls._fields == names
    record = make(cls)
    assert vars(record) == dict(zip(names, args))
    assert record == cls(**dict(zip(names, args)))
    assert record == cls(*args[:1], **dict(zip(names[1:], args[1:])))


@record_types
def test_assignment_and_deletion_raise(cls):
    record = make(cls)
    before = dict(vars(record))
    for name in cls._fields + ("extra",):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(record, name)
    assert vars(record).keys() == before.keys()
    assert all(vars(record)[name] is value for name, value in before.items())


@record_types
def test_equality_by_type_and_values(cls):
    record, names = make(cls), cls._fields
    assert record == make(cls) and not record != make(cls)
    assert record != tuple(vars(record).values())
    assert record != type(cls.__name__, (Record,), {"__annotations__": dict.fromkeys(names)})(
        *vars(record).values())
    other = object.__new__(cls)  # one field changed, past the __post_init__ checks
    vars(other).update(vars(record), **{names[0]: "changed"})
    assert record != other and not record == other


@record_types
def test_hash_by_values(cls):
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(make(cls))
    else:
        assert hash(make(cls)) == hash(make(cls))
        assert len({make(cls), make(cls)}) == 1


@record_types
def test_repr_in_the_dataclass_format(cls):
    names, args = FIELDS[cls]
    record = make(cls)
    values = ", ".join(f"{name}={value!r}" for name, value in zip(names, vars(record).values()))
    assert repr(record) == f"{cls.__qualname__}({values})"


def test_repr_literal():
    assert repr(make(ContingencyTable)) == (
        "ContingencyTable(n00=4, n01=2, n10=1, n11=None, perspective=<Perspective.CFP: 'cfp'>)")


@record_types
def test_bad_arguments_raise_type_error(cls):
    names, args = FIELDS[cls]
    with pytest.raises(TypeError, match="takes the fields"):
        cls(*args, "extra")  # one too many by position
    with pytest.raises(TypeError, match="takes the fields"):
        cls(*args, **{names[0]: args[0]})  # repeated
    with pytest.raises(TypeError, match="takes the fields"):
        cls(*args, extra=1)  # unknown keyword
    if cls is not ComparisonConfig:  # its fields all have defaults
        with pytest.raises(TypeError, match="takes the fields"):
            cls(*args[:-1])  # missing


@pytest.mark.parametrize("protocol", [0, pickle.HIGHEST_PROTOCOL])
@record_types
def test_pickling_keeps_type_and_values(cls, protocol):
    # `ingest.parse_alignment_files` returns a library caller's Alignments
    # pickled from its worker processes (the CLI's workers send back only
    # each system's counting step)
    record = make(cls)
    copy = pickle.loads(pickle.dumps(record, protocol))
    assert type(copy) is cls
    assert copy == record
    assert vars(copy).keys() == vars(record).keys()
    assert repr(copy) == repr(record)


def test_what_callers_read():
    assert len(make(Alignment)) == 1
    assert make(HypothesisSet).k == 3
    assert make(DiscordantMatrix).systems == ("A", "B")
    assert make(SimilarityMatrix).s.shape == (1, 1)
    assert make(PairOutcome).loser == "B"


def test_similarity_matrices_of_many_cells_equal_by_ids_and_cells():
    # FIELDS' matrix has one cell, whose array == reads as one bool
    labels = [("a", "optic nerve"), ("b", "retina")]
    matrix = build_similarity_matrix(labels, labels, MetricKind.EQUAL)
    assert matrix.s.shape == (2, 2)
    assert matrix == build_similarity_matrix(labels, labels, MetricKind.EQUAL)
    assert matrix != SimilarityMatrix(matrix.row_ids, matrix.col_ids, 1 - matrix.s)
    assert matrix != SimilarityMatrix(matrix.row_ids, ("b", "a"), matrix.s)
    with pytest.raises(TypeError, match="unhashable"):
        hash(matrix)


def test_defaults_are_class_attributes():
    # the CLI reads its option defaults from the class
    assert (ComparisonConfig.test, ComparisonConfig.mode, ComparisonConfig.alpha,
            ComparisonConfig.bergmann_cap) == (TestKind.MIDP, Mode.NXN, 0.05, 10)
    assert ComparisonConfig.correction is None and ComparisonConfig.baseline is None
    assert vars(ComparisonConfig(alpha=0.01)) == {
        "test": TestKind.MIDP, "correction": Correction.BERGMANN, "mode": Mode.NXN,
        "baseline": None, "alpha": 0.01, "bergmann_cap": 10}


@pytest.mark.parametrize("cls, args, error, match", [
    (ContingencyTable, (4, -1, 1, None, Perspective.IFP), ValueError, "n01 must be >= 0"),
    (ContingencyTable, (4, 2, 1, -3, Perspective.IFP), ValueError, "n11 must be >= 0"),
    (ComparisonConfig, (TestKind.MIDP, None, Mode.NXN, None, 1.0), ValueError, "alpha 1.0"),
    (ComparisonConfig, (TestKind.MIDP, Correction.BERGMANN, Mode.NX1, "A"), ModeMismatch,
     "bergmann"),
    (ComparisonConfig, (TestKind.MIDP, None, Mode.NX1), ValueError, "requires a baseline"),
    (ComparisonConfig, (TestKind.MIDP, None, Mode.NXN, "A"), ValueError, "only in NX1"),
    (DiscordantMatrix, (("A", "B"), ((0, 1),), Perspective.IFP), ValueError, "n x n"),
    (DiscordantMatrix, (("A", "B"), ((1, 1), (1, 0)), Perspective.IFP), ValueError, "diagonal"),
    (DiscordantMatrix, (("A", "B"), ((0, 1.5), (1, 0)), Perspective.IFP), TypeError, "float"),
    (HypothesisSet, (3, (0.1, 0.2), Mode.NXN), ValueError, "needs 3 hypotheses"),
    (HypothesisSet, (3, (0.1, 0.2, 1.5), Mode.NXN), ValueError, r"\[0, 1\]"),
], ids=lambda value: value.__name__ if isinstance(value, type) else None)
def test_post_init_checks(cls, args, error, match):
    with pytest.raises(error, match=match):
        cls(*args)
