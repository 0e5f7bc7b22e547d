"""Alignment and label-list file parsing and writing.

Two alignment formats are supported: a simple TSV format used for fixtures
and tests, and the subset of the Alignment XML interchange format that OAEI
tools emit (``Cell`` elements with ``entity1``/``entity2`` resources).
``parse_alignment`` picks a file's format; both parsers pass their raw entity,
relation and confidence strings to the same three checks.
``parse_alignment_files`` reads and parses many files, in forked worker
processes when they are large, and may reduce each Alignment with a step
where it was parsed.
"""

from __future__ import annotations

import codecs
import gc
import os
from itertools import repeat
from typing import Any, Callable, List, Sequence, Tuple

from .errors import (
    BadConfidence, DuplicateId, InvalidInput, MalformedLine, MissingEntity,
    NonEquivalenceRelation, Undecodable, UnwritableEntity,
)
from .model import Alignment, canonicalize_alignment

#: The one relation an alignment may hold.
EQUIVALENCE = "="


def number(text: str, kind: type = float):
    """`kind(text)` for ASCII text without ``_``, else ValueError: float() and
    int() alone would read digit separators ("0.1_5") and non-ASCII digits
    ("０.５").  Confidences, matrix cells and numeric CLI options use it."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"invalid number: {text!r}")
    return kind(text)


def integer(text: str) -> int:
    """An int read by `number`'s rule."""
    return number(text, int)


def text_lines(data: bytes):
    """An iterator of (line_no, text) for every line of a UTF-8 text file.

    A leading byte order mark is dropped.  Lines end at ``\\n`` only, with an
    optional ``\\r`` before it, so form feeds, U+2028 and the like stay inside
    a line's text.
    """
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise Undecodable(exc.start, exc.reason, "UTF-8") from None
    # built-in iterators only, which cost less per line than a generator
    return enumerate(map(str.removesuffix, text.split("\n"), repeat("\r")), start=1)


def _data_lines(data: bytes):
    """Yield (line_no, text) for non-blank, non-comment lines."""
    for line_no, line in text_lines(data):
        stripped = line.strip()
        if stripped and stripped[0] != "#":
            yield line_no, line


def _correspondence(source: str, target: str, confidence: float, where: str,
                    n: int) -> Tuple[str, str, float]:
    """The row with both entities stripped; a blank entity raises MissingEntity."""
    source, target = source.strip(), target.strip()
    if not source or not target:
        raise MissingEntity(f"{where} {n}")
    return source, target, confidence


def _relation(text: str | None, where: str, n: int) -> None:
    """An absent or blank relation is ``=``; any other raises NonEquivalenceRelation."""
    # an exact "=", the common case, needs no strip
    if text and text != EQUIVALENCE and text.strip() not in ("", EQUIVALENCE):
        raise NonEquivalenceRelation(f"{where} {n}", text.strip())


def _confidence(text: str | None, where: str, n: int) -> float:
    """An absent confidence is 1; a present one must be a number in [0, 1]."""
    if text is None:
        return 1.0
    try:
        value = number(text)
    except ValueError:
        value = -1.0
    if not 0.0 <= value <= 1.0:
        raise BadConfidence(f"{where} {n}", text.strip())
    return value


def parse_alignment_tsv(data: bytes, system_name: str) -> Alignment:
    """Parse ``source<TAB>target[<TAB>relation[<TAB>confidence]]`` lines."""
    out = []
    for line_no, line in _data_lines(data):
        fields = line.split("\t")
        n = len(fields)
        if n < 2:
            raise MalformedLine(line_no, "expected >=2 tab-separated fields")
        if n > 4:
            raise MalformedLine(line_no, "expected <=4 tab-separated fields")
        _relation(fields[2] if n > 2 else None, "line", line_no)
        confidence = _confidence(fields[3] if n > 3 else None, "line", line_no)
        out.append(_correspondence(fields[0], fields[1], confidence, "line", line_no))
    return canonicalize_alignment(out, system_name)


#: Byte order marks of UTF-32 and UTF-16, UTF-32's first since its LE mark
#: begins with UTF-16's; only XML files may use them.
_WIDE_BOMS = (codecs.BOM_UTF32_LE, codecs.BOM_UTF32_BE, codecs.BOM_UTF16_LE, codecs.BOM_UTF16_BE)


def _xml_document(data: bytes) -> bytes | str:
    """Decode a UTF-16 or UTF-32 document here, whatever its declaration names.

    expat would reject UTF-32 and a declared byte order such as ``UTF-16-BE``.
    """
    if not data.startswith(_WIDE_BOMS):
        return data
    encoding = "utf-32" if data.startswith(_WIDE_BOMS[:2]) else "utf-16"
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        raise Undecodable(exc.start, exc.reason, encoding.upper()) from None


def parse_alignment_xml(data: bytes, system_name: str) -> Alignment:
    """Parse the Alignment-format subset: Cell/entity1/entity2/measure/relation.

    `xmlcells.read_cells` reads the Cells' raw records, by a pattern learnt from
    the first Cell where the document has the shape OAEI tools write, else by
    ElementTree's parser. They are checked only once the whole document has
    parsed, so that a syntax error anywhere beats a bad Cell.
    """
    from .xmlcells import read_cells  # only alignment files are XML

    cells = read_cells(_xml_document(data))
    out = []
    for cell_index, (entity1, entity2, measure, relation) in enumerate(cells):
        confidence = _confidence(measure, "Cell", cell_index)
        row = _correspondence(entity1, entity2, confidence, "Cell", cell_index)
        _relation(relation, "Cell", cell_index)
        out.append(row)
    return canonicalize_alignment(out, system_name)


def parse_alignment(data: bytes, system_name: str) -> Alignment:
    """Parse an alignment file as Alignment XML or TSV, by how it opens.

    A file is XML when it opens with a UTF-16 or UTF-32 byte order mark (TSV
    is UTF-8 only), or when, after an optional UTF-8 mark and whitespace, it
    opens with ``<?`` or ``<!``, or with ``<`` on a first line that holds no
    tab; a TSV line may open with a bracketed IRI, but it holds a tab.
    """
    head = data.removeprefix(codecs.BOM_UTF8).lstrip()
    if (data.startswith(_WIDE_BOMS) or head.startswith((b"<?", b"<!"))
            or head.startswith(b"<") and b"\t" not in head.partition(b"\n")[0]):
        return parse_alignment_xml(data, system_name)
    return parse_alignment_tsv(data, system_name)


#: Total input size from which `parse_alignment_files` parses in worker
#: processes, whose fork and pipes cost a few ms.  On a 2-CPU x86-64 host,
#: `table` on six Alignment XML files in one process and with the workers
#: (fresh interpreters, sizes interleaved, 31 runs each) broke even between
#: 0.5 and 0.75 MiB in all for XML that the callback reader reads (the workers
#: were faster in 8 and 25 of 31 runs), and between 2 and 3 MiB for XML that
#: the pattern reader takes, which costs less per byte (in two sets, 7 and 19,
#: then 10 and 23 of 31).  At 1 MiB the workers saved 8 ms on the first kind
#: and cost 8-13 ms on the second: 1 MiB lies between the two break-evens, so
#: that neither kind of XML runs far from its own.
POOL_MIN_BYTES = 1024 * 1024


def read_input(path: str | os.PathLike, encoding: str | None = None) -> bytes | str:
    """The bytes of an input file, or its text in `encoding`.  A path that
    holds a NUL raises InvalidInput, where `open` raises a bare ValueError."""
    try:
        fh = open(path, "rb" if encoding is None else "r", encoding=encoding)
    except ValueError as exc:  # a NUL, which no path can hold
        raise InvalidInput(str(exc)) from None
    with fh:
        return fh.read()


def _read_and_parse(file: Tuple[str, str | os.PathLike]) -> Alignment:
    """Parse the alignment file of one (system name, path) pair."""
    name, path = file
    return parse_alignment(read_input(path), name)


def _keep(alignment: Alignment) -> Alignment:
    return alignment


def _size(file: Tuple[str, str | os.PathLike]) -> int:
    """A file's size; 0 if it cannot be read, so that its parse raises the error."""
    try:
        return os.stat(file[1]).st_size
    except (OSError, ValueError):  # ValueError: a NUL in the path
        return 0


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on macOS and Windows
        return os.cpu_count() or 1


def parse_alignment_files(files: Sequence[Tuple[str, str | os.PathLike]],
                          step: Callable[[Alignment], Any] = _keep) -> list:
    """Parse each (system name, path) pair's file; return, in order, what
    `step` makes of each Alignment, by default the Alignment itself.

    Files of `POOL_MIN_BYTES` or more in all are parsed in forked worker
    processes (`alignsig.workers`), one per CPU, where the platform can fork;
    each worker applies `step` to its Alignments and sends back only the
    step's results, which must pickle (`step` itself need not).  The result,
    or the error of the first bad file in order, is the same either way.  The
    cyclic garbage collector is paused meanwhile, since the parsers' records
    and rows hold no cycles.
    """
    def parse(file):
        return step(_read_and_parse(file))

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        workers = min(len(files), _cpus())
        if workers > 1 and hasattr(os, "fork"):
            sizes = list(map(_size, files))
            if sum(sizes) >= POOL_MIN_BYTES:
                from .workers import parse_in_workers

                return parse_in_workers(parse, files, sizes, workers)
        return list(map(parse, files))
    finally:
        if gc_was_enabled:
            gc.enable()


#: The most characters a label may hold, once stripped.  Every metric but
#: levenshtein takes time in proportion to the product of two labels'
#: lengths, or more.  On a 2-vCPU x86-64 host, one pair of random 500-character
#: labels took 0.32 s under smoa, the slowest metric, and 0.15 s under
#: needlemanwunsch; at 1000 characters smoa took 1.5-2.1 s and at 2000 about
#: 11 s.  The cap holds for every metric, levenshtein included, so that a
#: label list is valid or not whichever metric reads it.
MAX_LABEL_LENGTH = 500


def parse_label_list(data: bytes) -> Tuple[Tuple[str, str], ...]:
    """Parse ``id<TAB>label`` lines into ordered (id, label) rows with unique
    ids; a label longer than `MAX_LABEL_LENGTH` raises MalformedLine."""
    rows: List[Tuple[str, str]] = []
    seen = set()
    for line_no, line in _data_lines(data):
        fields = line.split("\t")
        if len(fields) != 2:
            raise MalformedLine(line_no, "expected exactly 2 tab-separated fields")
        id_, label = fields[0].strip(), fields[1].strip()
        if not id_ or not label:
            raise MalformedLine(line_no, "empty id or label")
        if len(label) > MAX_LABEL_LENGTH:
            raise MalformedLine(line_no, f"label of {len(label)} characters, more than "
                                         f"{MAX_LABEL_LENGTH}")
        if id_ in seen:
            raise DuplicateId(line_no, id_)
        seen.add(id_)
        rows.append((id_, label))
    return tuple(rows)


def _format_confidence(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def _writable(source: str, target: str) -> str:
    """The TSV fields of a pair; UnwritableEntity if they would not read back
    as one line of that pair."""
    for entity in (source, target):
        if "\t" in entity or "\n" in entity:
            raise UnwritableEntity(entity, "it holds a tab or a line feed")
    if source.lstrip().startswith("#"):
        raise UnwritableEntity(source, "a line that begins with '#' is a comment")
    return f"{source}\t{target}"


def write_alignment_tsv(alignment: Alignment) -> bytes:
    """Serialize an alignment, sorted by (source, target), as TSV that
    parse_alignment_tsv reads back to an equal Alignment.

    The parsers strip every entity, but an entity may still hold a tab or a
    line feed, as ``&#9;`` in Alignment XML gives, and a source may begin with
    ``#``, as ``rdf:resource="#a"`` gives; no TSV line carries either, so both
    raise UnwritableEntity.
    """
    return "".join(
        f"{_writable(source, target)}\t{EQUIVALENCE}\t{_format_confidence(confidence)}\n"
        for (source, target), confidence in sorted(alignment.pairs.items())
    ).encode("utf-8")
