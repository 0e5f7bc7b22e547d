"""Exception types shared across the package."""


class AlignsigError(Exception):
    """Base class for all errors raised by this package.  Each takes one
    argument per name in `fields`, keeps it as that attribute and in `args`,
    and formats `template` with them; so default pickling rebuilds it."""

    fields: tuple = ("message",)
    template = "{message}"

    def __init__(self, *args):
        if len(args) != len(self.fields):
            raise TypeError(f"{type(self).__name__}() takes {len(self.fields)} "
                            f"arguments {self.fields}, got {len(args)}")
        vars(self).update(zip(self.fields, args))
        super().__init__(*args)

    def __str__(self) -> str:
        return self.template.format_map(vars(self))


class NonEquivalenceRelation(AlignsigError):
    fields = ("location", "relation")
    template = "{location}: unsupported relation {relation!r}; only '=' is supported"


class MalformedLine(AlignsigError):
    fields = ("line_no", "reason")
    template = "line {line_no}: {reason}"


class XmlSyntax(AlignsigError):
    fields = ("position", "message")
    template = "XML syntax error at {position}: {message}"


class BadConfidence(AlignsigError):
    fields = ("location", "text")
    template = "{location}: confidence {text!r} is not a number in [0, 1]"


class Undecodable(AlignsigError):
    fields = ("offset", "reason", "encoding")
    template = "byte {offset}: not valid {encoding} ({reason})"


class MissingEntity(AlignsigError):
    fields = ("location",)
    template = "{location}: missing or blank entity"


class UnwritableEntity(AlignsigError):
    """An entity that alignment TSV would not read back as it is."""
    fields = ("entity", "reason")
    template = "entity {entity!r} cannot be written as alignment TSV: {reason}"


class DuplicateId(AlignsigError):
    fields = ("line_no", "id")
    template = "line {line_no}: duplicate id {id!r}"


class UniverseTooSmall(AlignsigError):
    fields = ("total_pairs", "needed")
    template = "task universe T={total_pairs} smaller than |R ∪ A1 ∪ A2|={needed}"


class DuplicateSystemName(AlignsigError):
    fields = ("name",)
    template = "duplicate system name {name!r}"


class InvalidInput(AlignsigError, ValueError):
    """An option or input value out of range or at odds with another; also a ValueError."""


class BadSystemName(AlignsigError):
    """A blank or unprintable system name, which a matrix TSV cannot carry."""


class NegativeCount(AlignsigError):
    fields = ("row", "column", "value")
    template = "discordant count for {row!r} against {column!r} is negative ({value})"


class UndefinedStatistic(AlignsigError):
    fields = ()
    template = "McNemar statistic is undefined for n01 = n10 = 0"


class ModeMismatch(AlignsigError):
    fields = ("correction", "mode")
    template = "correction {correction} is not available in mode {mode}"


class TooManySystems(AlignsigError):
    fields = ("n", "cap")
    template = ("Bergmann's procedure limited to {cap} systems (got {n}); raise the cap "
                "(--bergmann-cap), or use Shaffer's correction (--correction shaffer), which "
                "also uses the logical relations between hypotheses and has no cap")


class EmptyTable(AlignsigError):
    pass


class MatrixTooLarge(AlignsigError):
    fields = ("n_source", "n_target", "budget")
    template = ("{n_source} x {n_target} labels: the similarity matrix, 8 bytes a label pair, "
                "would exceed its budget of {budget} bytes")
