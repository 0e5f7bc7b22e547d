import pytest
from hypothesis import given, strategies as st

from alignsig.errors import EmptySystemName, NonEquivalenceRelation
from alignsig.model import (
    Alignment,
    ComparisonConfig,
    Correction,
    Correspondence,
    Mode,
    canonicalize_alignment,
)


def C(s, t, rel="=", conf=1.0):
    return Correspondence(s, t, rel, conf)


class TestCorrespondence:
    def test_trims_whitespace(self):
        c = C("  a ", " b\t")
        assert c.source == "a"
        assert c.target == "b"

    def test_rejects_empty_after_trim(self):
        with pytest.raises(ValueError):
            C("  ", "b")

    def test_rejects_out_of_range_confidence(self):
        with pytest.raises(ValueError):
            C("a", "b", conf=1.5)

    def test_identity_ignores_confidence(self):
        assert C("a", "b", conf=0.9).key == C("a", "b", conf=0.1).key


class TestCanonicalize:
    def test_duplicate_collapse_keeps_max_confidence(self):
        a = canonicalize_alignment([C("a", "b", conf=0.9), C("a", "b", conf=0.7)], "s")
        assert len(a) == 1
        assert a.correspondences[0].confidence == 0.9

    def test_empty_input(self):
        a = canonicalize_alignment([], "s")
        assert len(a) == 0

    def test_non_equivalence_rejected(self):
        with pytest.raises(NonEquivalenceRelation):
            canonicalize_alignment([C("a", "b", rel="<")], "s")

    def test_empty_system_name_rejected(self):
        with pytest.raises(EmptySystemName):
            canonicalize_alignment([], "  ")

    def test_deterministic_order(self):
        a = canonicalize_alignment([C("b", "x"), C("a", "y"), C("a", "x")], "s")
        keys = [c.key for c in a]
        assert keys == sorted(keys)


corr_strategy = st.builds(
    Correspondence,
    source=st.text(alphabet="abc", min_size=1, max_size=3),
    target=st.text(alphabet="xyz", min_size=1, max_size=3),
    relation=st.just("="),
    confidence=st.floats(0, 1),
)


@given(st.lists(corr_strategy, max_size=50))
def test_canonicalize_idempotent(raw):
    once = canonicalize_alignment(raw, "s")
    twice = canonicalize_alignment(list(once), "s")
    assert once == twice


@given(st.lists(corr_strategy, max_size=50), st.lists(corr_strategy, max_size=50))
def test_set_algebra_matches_membership_oracle(raw1, raw2):
    a1 = canonicalize_alignment(raw1, "s1").key_set()
    a2 = canonicalize_alignment(raw2, "s2").key_set()
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
