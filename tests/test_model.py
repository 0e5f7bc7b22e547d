import pytest
from hypothesis import given, strategies as st

from alignsig.errors import EmptySystemName
from alignsig.model import (
    ComparisonConfig,
    Correction,
    Mode,
    canonicalize_alignment,
)


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
        with pytest.raises(EmptySystemName):
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
