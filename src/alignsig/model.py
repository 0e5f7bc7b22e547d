"""Core domain types: alignments, contingency tables, config."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from .errors import EmptySystemName, ModeMismatch

#: Most systems Bergmann's correction accepts unless the caller raises the cap:
#: its time grows about threefold per added system (0.016 s at n = 10, 0.3 s
#: at n = 13).  The library and the CLI share it.
DEFAULT_BERGMANN_CAP = 10


class Perspective(Enum):
    IFP = "ifp"  # ignore false positives (recall-like)
    CFP = "cfp"  # consider relative false positives (F-measure-like)


class TestKind(Enum):
    ASYMPTOTIC = "asymptotic"
    EXACT = "exact"
    CC = "cc"
    MIDP = "midp"


class Correction(Enum):
    NONE = "none"
    BONFERRONI = "bonferroni"
    HOLM = "holm"
    HOLLAND = "holland"
    FINNER = "finner"
    HOCHBERG = "hochberg"
    NEMENYI = "nemenyi"
    SHAFFER = "shaffer"
    BERGMANN = "bergmann"


class MetricKind(Enum):
    EQUAL = "equal"
    HAMMING = "hamming"
    JARO = "jaro"
    JARO_WINKLER = "jarowinkler"
    LEVENSHTEIN = "levenshtein"
    NGRAM = "ngram"
    NEEDLEMAN_WUNSCH = "needlemanwunsch"
    SMOA = "smoa"
    SUBSTRING = "substring"


class Mode(Enum):
    NXN = "nxn"
    NX1 = "nx1"


#: Corrections that exploit logical relations between all pairwise hypotheses
#: and therefore only make sense when every pair is compared.
NXN_ONLY_CORRECTIONS = frozenset(
    {Correction.NEMENYI, Correction.SHAFFER, Correction.BERGMANN}
)


@dataclass(frozen=True)
class Alignment:
    """A system's correspondences: each ``(source, target)`` key with its
    highest confidence.  Every key is an equivalence; order carries no meaning.
    """

    system_name: str
    pairs: Dict[Tuple[str, str], float]

    def __len__(self) -> int:
        return len(self.pairs)


def canonicalize_alignment(
    rows: List[Tuple[str, str, float]], system_name: str
) -> Alignment:
    """Collapse ``(source, target, confidence)`` equivalence rows into an Alignment.

    A key given more than once keeps its highest confidence.  Ids, relations
    and confidences are checked by the callers: the parsers check those of
    their input.
    """
    if not system_name or not system_name.strip():
        raise EmptySystemName("system name must be non-empty")
    pairs: Dict[Tuple[str, str], float] = {}
    for source, target, confidence in rows:
        key = (source, target)
        prev = pairs.get(key)
        if prev is None or confidence > prev:
            pairs[key] = confidence
    return Alignment(system_name.strip(), pairs)


@dataclass(frozen=True)
class ContingencyTable:
    """The 2x2 McNemar table; n11 may be unknown under the CFP perspective."""

    n00: int
    n01: int
    n10: int
    n11: Optional[int]
    perspective: Perspective

    def __post_init__(self):
        for name in ("n00", "n01", "n10"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.n11 is not None and self.n11 < 0:
            raise ValueError("n11 must be >= 0 when present")


@dataclass(frozen=True)
class ComparisonConfig:
    """Everything needed to turn a discordant matrix into a verdict graph.

    The perspective is not here: it belongs to the matrix the counts came from.
    """

    test: TestKind = TestKind.MIDP
    #: None picks the mode's default: Bergmann for NXN, Holm for NX1.
    correction: Optional[Correction] = None
    mode: Mode = Mode.NXN
    baseline: Optional[str] = None
    alpha: float = 0.05
    bergmann_cap: int = DEFAULT_BERGMANN_CAP

    def __post_init__(self):
        if self.correction is None:
            default = Correction.BERGMANN if self.mode is Mode.NXN else Correction.HOLM
            object.__setattr__(self, "correction", default)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha {self.alpha} outside (0, 1)")
        if self.bergmann_cap < 2:
            raise ValueError(f"bergmann_cap {self.bergmann_cap} is below 2 systems")
        if self.mode is Mode.NX1 and self.correction in NXN_ONLY_CORRECTIONS:
            raise ModeMismatch(self.correction.value, self.mode.value)
        if self.mode is Mode.NX1 and not self.baseline:
            raise ValueError("NX1 mode requires a baseline system name")
        if self.mode is Mode.NXN and self.baseline is not None:
            raise ValueError(f"baseline {self.baseline!r} applies only in NX1 mode")
