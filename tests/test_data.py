import pytest

from alignsig.data import FIXTURES, fixture_bytes, fixture_path


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_path_and_bytes_name_the_same_file(name):
    assert fixture_path(name).read_bytes() == fixture_bytes(name)


@pytest.mark.parametrize("lookup", [fixture_bytes, fixture_path])
def test_unknown_fixture_lists_the_known_ones(lookup):
    with pytest.raises(KeyError) as exc:
        lookup("nope")
    assert exc.value.args[0] == (
        "unknown fixture 'nope'; known: ['anatomy-cfp', 'anatomy-ifp', 'anatomy-string-ifp']")
