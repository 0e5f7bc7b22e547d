"""Bundled discordant-count fixtures for the OAEI 2016 anatomy track."""

from importlib import resources
from pathlib import Path

FIXTURES = {
    "anatomy-ifp": "anatomy_ifp.tsv",
    "anatomy-cfp": "anatomy_cfp.tsv",
    "anatomy-string-ifp": "anatomy_string_ifp.tsv",
}


def _fixture(name: str):
    try:
        filename = FIXTURES[name]
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; known: {sorted(FIXTURES)}") from None
    return resources.files(__package__).joinpath(filename)


def fixture_bytes(name: str) -> bytes:
    return _fixture(name).read_bytes()


def fixture_path(name: str) -> Path:
    return Path(str(_fixture(name)))
