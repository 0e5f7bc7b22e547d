"""Exception types shared across the package."""

import copyreg


class AlignsigError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # Exception's own reduce calls type(self)(*self.args), and a subclass's
        # __init__ takes other arguments than the message it stores in args; so
        # unpickling restores args and attributes without calling __init__
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class EmptySystemName(AlignsigError):
    pass


class NonEquivalenceRelation(AlignsigError):
    def __init__(self, location: str, relation: str):
        self.location = location
        self.relation = relation
        super().__init__(f"{location}: unsupported relation {relation!r}; only '=' is supported")


class MalformedLine(AlignsigError):
    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class XmlSyntax(AlignsigError):
    def __init__(self, position: tuple, message: str):
        self.position = position
        super().__init__(f"XML syntax error at {position}: {message}")


class BadConfidence(AlignsigError):
    def __init__(self, location: str, text: str):
        self.location = location
        self.text = text
        super().__init__(f"{location}: confidence {text!r} is not a number in [0, 1]")


class Undecodable(AlignsigError):
    def __init__(self, offset: int, reason: str, encoding: str = "UTF-8"):
        self.offset = offset
        super().__init__(f"byte {offset}: not valid {encoding} ({reason})")


class MissingEntity(AlignsigError):
    def __init__(self, location: str):
        self.location = location
        super().__init__(f"{location}: missing or blank entity")


class DuplicateId(AlignsigError):
    def __init__(self, line_no: int, id_: str):
        self.line_no = line_no
        self.id = id_
        super().__init__(f"line {line_no}: duplicate id {id_!r}")


class UniverseTooSmall(AlignsigError):
    def __init__(self, total_pairs: int, needed: int):
        self.total_pairs = total_pairs
        self.needed = needed
        super().__init__(
            f"task universe T={total_pairs} smaller than |R ∪ A1 ∪ A2|={needed}"
        )


class DuplicateSystemName(AlignsigError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"duplicate system name {name!r}")


class BadSystemName(AlignsigError):
    """A blank or unprintable system name, which a matrix TSV cannot carry."""


class NegativeCount(AlignsigError):
    def __init__(self, row: str, column: str, value: int):
        self.row = row
        self.column = column
        self.value = value
        super().__init__(
            f"discordant count for {row!r} against {column!r} is negative ({value})"
        )


class UndefinedStatistic(AlignsigError):
    def __init__(self):
        super().__init__("McNemar statistic is undefined for n01 = n10 = 0")


class ModeMismatch(AlignsigError):
    def __init__(self, correction: str, mode: str):
        self.correction = correction
        self.mode = mode
        super().__init__(f"correction {correction} is not available in mode {mode}")


class TooManySystems(AlignsigError):
    def __init__(self, n: int, cap: int):
        self.n = n
        self.cap = cap
        super().__init__(
            f"Bergmann's procedure limited to {cap} systems (got {n}); "
            "raise the cap explicitly to override"
        )


class EmptyTable(AlignsigError):
    pass
