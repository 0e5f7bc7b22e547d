"""Core domain types: alignments, contingency tables, config."""

from __future__ import annotations

from enum import Enum
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import BadSystemName, DuplicateSystemName, ModeMismatch

#: Most systems Bergmann's correction accepts unless the caller raises the cap:
#: its time grows about threefold per added system (0.016 s at n = 10, 0.3 s
#: at n = 13).  The library and the CLI share it.
DEFAULT_BERGMANN_CAP = 10


class Perspective(Enum):
    IFP = "ifp"  # ignore false positives (recall-like)
    CFP = "cfp"  # consider relative false positives (F-measure-like)


class TestKind(Enum):
    __test__ = False  # not a pytest test class; a dunder is no enum member
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


class Record:
    """Base of the immutable value types, in place of a frozen dataclass.

    A subclass's fields, `_fields`, are its annotations, in order; a class
    attribute of the same name is a default.  `__post_init__` may check the
    fields, or keep a normalised value in `vars(self)`.  Assignment and
    deletion raise AttributeError; `==`, hash and repr go by type and field values.
    """

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        rest = fields[len(args):]
        if (len(args) > len(fields) or not kwargs.keys() <= set(rest)
                or not all(name in kwargs or hasattr(cls, name) for name in rest)):
            raise TypeError(f"{cls.__name__}() takes the fields {fields}, each once; got "
                            f"{len(args)} by position and {sorted(kwargs)} by keyword")
        kwargs.update(zip(fields, args))
        vars(self).update({name: kwargs.get(name, getattr(cls, name, None)) for name in fields})
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash((type(self), *vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


class Alignment(Record):
    """A system's correspondences: each ``(source, target)`` key with its
    highest confidence.  Every key is an equivalence; order carries no meaning.
    """

    system_name: str
    pairs: Dict[Tuple[str, str], float]

    def __len__(self) -> int:
        return len(self.pairs)


def check_system_names(names: Iterable[str]) -> None:
    """The one rule for system names: each is non-blank and printable
    (`str.isprintable()`), which is what a matrix TSV row can carry, and
    none is given twice.  Raises BadSystemName or DuplicateSystemName."""
    seen = set()
    for name in names:
        if not name.strip() or not name.isprintable():
            raise BadSystemName(f"system name {name!r} is blank or has an unprintable character")
        if name in seen:
            raise DuplicateSystemName(name)
        seen.add(name)


def canonicalize_alignment(
    rows: List[Tuple[str, str, float]], system_name: str
) -> Alignment:
    """Collapse ``(source, target, confidence)`` equivalence rows into an Alignment.

    A key given more than once keeps its highest confidence.  The system name
    is stripped and must pass `check_system_names`.  Ids, relations and
    confidences are checked by the callers: the parsers check those of their
    input.
    """
    system_name = system_name.strip()
    check_system_names((system_name,))
    pairs: Dict[Tuple[str, str], float] = {}
    for source, target, confidence in rows:
        key = (source, target)
        prev = pairs.get(key)
        if prev is None or confidence > prev:
            pairs[key] = confidence
    return Alignment(system_name, pairs)


class ContingencyTable(Record):
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


class ComparisonConfig(Record):
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
            vars(self)["correction"] = default
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
