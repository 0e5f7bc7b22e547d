"""Alignment and label-list file parsing and writing.

Two alignment formats are supported: a simple TSV format used for fixtures
and tests, and the subset of the Alignment XML interchange format that OAEI
tools emit (``Cell`` elements with ``entity1``/``entity2`` resources).
"""

from __future__ import annotations

import codecs
from dataclasses import dataclass
from typing import List, Tuple

from .errors import (
    BadMeasure,
    ConfidenceOutOfRange,
    DuplicateId,
    MalformedLine,
    MissingEntity,
    NonEquivalenceRelation,
    Undecodable,
    XmlSyntax,
)
from .model import Alignment, canonicalize_alignment

#: The one relation an alignment may hold.
EQUIVALENCE = "="


@dataclass(frozen=True)
class LabelTable:
    """Ordered (id, label) rows for one ontology's concepts."""

    rows: Tuple[Tuple[str, str], ...]

    def __len__(self) -> int:
        return len(self.rows)


def text_lines(data: bytes):
    """Yield (line_no, text) for every line of a UTF-8 text file.

    A leading byte order mark is dropped.  Lines end at ``\\n`` only, with an
    optional ``\\r`` before it, so form feeds, U+2028 and the like stay inside
    a line's text.
    """
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise Undecodable(exc.start, exc.reason) from None
    for line_no, line in enumerate(text.split("\n"), start=1):
        yield line_no, line.removesuffix("\r")


def _data_lines(data: bytes):
    """Yield (line_no, text) for non-blank, non-comment lines."""
    for line_no, line in text_lines(data):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield line_no, line


def parse_alignment_tsv(data: bytes, system_name: str) -> Alignment:
    """Parse ``source<TAB>target[<TAB>relation[<TAB>confidence]]`` lines."""
    out = []
    for line_no, line in _data_lines(data):
        fields = line.split("\t")
        if len(fields) < 2:
            raise MalformedLine(line_no, "expected >=2 tab-separated fields")
        if len(fields) > 4:
            raise MalformedLine(line_no, "expected <=4 tab-separated fields")
        relation = fields[2].strip() if len(fields) >= 3 else EQUIVALENCE
        if relation != EQUIVALENCE:
            raise NonEquivalenceRelation(f"line {line_no}", relation)
        if len(fields) == 4:
            try:
                confidence = float(fields[3])
            except ValueError:
                raise MalformedLine(line_no, f"bad confidence {fields[3]!r}")
            if not 0.0 <= confidence <= 1.0:
                raise ConfidenceOutOfRange(line_no, confidence)
        else:
            confidence = 1.0
        source, target = fields[0].strip(), fields[1].strip()
        if not source or not target:
            raise MalformedLine(line_no, "empty source or target")
        out.append((source, target, confidence))
    return canonicalize_alignment(out, system_name)


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _resource(elem) -> str | None:
    for key, value in elem.attrib.items():
        if _local(key) == "resource":
            return value.strip() or None
    return None


def _measure(cell_index: int, text: str | None) -> float:
    text = (text or "").strip()
    try:
        value = float(text)
    except ValueError:
        raise BadMeasure(cell_index, text) from None
    if not 0.0 <= value <= 1.0:
        raise BadMeasure(cell_index, text)
    return value


#: Byte order marks of UTF-32 and UTF-16, UTF-32's first since its LE mark
#: begins with UTF-16's; only XML files may use them.
WIDE_BOMS = (codecs.BOM_UTF32_LE, codecs.BOM_UTF32_BE, codecs.BOM_UTF16_LE, codecs.BOM_UTF16_BE)


def _xml_document(data: bytes) -> bytes | str:
    """Decode a UTF-16 or UTF-32 document here, whatever its declaration names.

    expat would reject UTF-32 and a declared byte order such as ``UTF-16-BE``.
    """
    if not data.startswith(WIDE_BOMS):
        return data
    encoding = "utf-32" if data.startswith(WIDE_BOMS[:2]) else "utf-16"
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        raise Undecodable(exc.start, exc.reason, encoding.upper()) from None


def parse_alignment_xml(data: bytes, system_name: str) -> Alignment:
    """Parse the Alignment-format subset: Cell/entity1/entity2/measure/relation."""
    import xml.etree.ElementTree as ET  # only alignment files are XML

    document = _xml_document(data)
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise XmlSyntax(exc.position, str(exc)) from exc
    except (LookupError, ValueError) as exc:
        # an unknown or multi-byte encoding named by the XML declaration, which
        # opens line 1
        raise XmlSyntax((1, 0), str(exc)) from exc
    out = []
    cell_index = 0
    for elem in root.iter():
        if _local(elem.tag) != "Cell":
            continue
        entity1 = entity2 = None
        measure = 1.0
        relation = EQUIVALENCE
        for child in elem:
            name = _local(child.tag)
            if name == "entity1":
                entity1 = _resource(child)
            elif name == "entity2":
                entity2 = _resource(child)
            elif name == "measure":
                measure = _measure(cell_index, child.text)
            elif name == "relation":
                relation = (child.text or EQUIVALENCE).strip()
        if not entity1 or not entity2:
            raise MissingEntity(cell_index)
        if relation != EQUIVALENCE:
            raise NonEquivalenceRelation(f"Cell {cell_index}", relation)
        out.append((entity1, entity2, measure))
        cell_index += 1
    return canonicalize_alignment(out, system_name)


def parse_label_list(data: bytes) -> LabelTable:
    """Parse ``id<TAB>label`` lines into an ordered table with unique ids."""
    rows: List[Tuple[str, str]] = []
    seen = set()
    for line_no, line in _data_lines(data):
        fields = line.split("\t")
        if len(fields) != 2:
            raise MalformedLine(line_no, "expected exactly 2 tab-separated fields")
        id_, label = fields[0].strip(), fields[1].strip()
        if not id_ or not label:
            raise MalformedLine(line_no, "empty id or label")
        if id_ in seen:
            raise DuplicateId(id_)
        seen.add(id_)
        rows.append((id_, label))
    return LabelTable(rows=tuple(rows))


def _format_confidence(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def write_alignment_tsv(alignment: Alignment) -> bytes:
    """Serialize an alignment, sorted by (source, target); parse_alignment_tsv
    reads it back to an equal Alignment."""
    return "".join(
        f"{source}\t{target}\t{EQUIVALENCE}\t{_format_confidence(confidence)}\n"
        for (source, target), confidence in sorted(alignment.pairs.items())
    ).encode("utf-8")
