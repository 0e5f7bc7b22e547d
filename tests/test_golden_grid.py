"""A golden grid: the SHA-256 of every comparison report on the bundled data.

Each bundled fixture is compared with each of the four tests, under every
correction in N x N mode and, with the fixture's first system as the fixed
baseline, under every correction that N x 1 mode allows: 180 reports.  The
oracles in the other test modules judge whether a statistic is right; this
grid shows that none changed.  A change that moves an entry must say why.
The digests pin the program's output, not the published figures.

Regenerate the digests with `PYTHONPATH=src python tests/test_golden_grid.py`.
"""

import hashlib
import json
from pathlib import Path

from alignsig.contingency import parse_matrix_tsv
from alignsig.data import FIXTURES, fixture_bytes
from alignsig.model import (
    NXN_ONLY_CORRECTIONS,
    ComparisonConfig,
    Correction,
    Mode,
    Perspective,
    TestKind,
)
from alignsig.siggraph import build_graph, build_report, serialize_report

GRID = Path(__file__).parent / "golden" / "report_grid.json"


def grid_digests():
    """{"fixture/test/mode/correction": SHA-256 of the serialized report}."""
    digests = {}
    for fixture in sorted(FIXTURES):
        perspective = Perspective.CFP if fixture.endswith("-cfp") else Perspective.IFP
        m = parse_matrix_tsv(fixture_bytes(fixture), perspective)
        for test in TestKind:
            for correction in Correction:
                configs = [ComparisonConfig(test=test, correction=correction)]
                if correction not in NXN_ONLY_CORRECTIONS:
                    configs.append(ComparisonConfig(test=test, correction=correction,
                                                    mode=Mode.NX1, baseline=m.systems[0]))
                for cfg in configs:
                    report = serialize_report(build_report(build_graph(m, cfg)))
                    key = f"{fixture}/{test.value}/{cfg.mode.value}/{correction.value}"
                    digests[key] = hashlib.sha256(report).hexdigest()
    return digests


def test_every_report_matches_the_golden_grid():
    expected = json.loads(GRID.read_text("utf-8"))
    assert len(expected) == 180
    assert grid_digests() == expected


if __name__ == "__main__":
    GRID.write_text(json.dumps(grid_digests(), indent=2, sort_keys=True) + "\n", "utf-8")
