"""The Cells of an Alignment XML document, read by one of two readers.

Documents in the shape OAEI tools write are read by `_read_in_shape`, with one
pattern learnt from the first Cell, and every other document by
`_read_with_callbacks`, with ElementTree's own parser and a target that builds
no tree. Both give the records that ElementTree would; `read_cells` picks the
reader.

The pattern reader proves a document well-formed without parsing all of it.
The document must be P C (G? C)* G? S: a prefix P, the first Cell C, more
Cells, each right after the one before or after a copy of the gap G between
the first two Cells (empty when there is one Cell), and a suffix S, which a
copy of G may precede. Every Cell repeats the first one's bytes but for its
values and the white space between its children, and every gap the first
gap's bytes but for the white space between a ">" and a "<". A value holds no
byte that XML 1.0 forbids there or that a parser would replace
(https://www.w3.org/TR/xml/, §2.2 Characters, §2.4 Character Data and Markup,
§3.3.3 Attribute-Value Normalization), and the document holds no "]]>", so
each Cell is a well-formed element wherever the first is. Expat then parses
only P C S and P C G C S: the same S closes the open elements after P C and
after P C G C, so G leaves them as it found them, and C is not the root. So
each gap, and each Cell with or without a gap before it, is well-formed where
the pattern finds it.

`ingest.parse_alignment_xml` imports this module when it first reads an XML
file, so that commands which read no XML import neither it nor expat; only a
document out of the pattern reader's shape imports `xml.etree`.
"""

from __future__ import annotations

import re
from itertools import islice, repeat
from types import SimpleNamespace
from typing import List
from xml.parsers import expat

from .errors import XmlSyntax

_S = rb"[ \t\r\n]*"  # XML white space, if any
_PREFIX = rb"(?:[A-Za-z_][\w.-]*:)?"
# a start tag's attributes up to its ">"; a value holds no "<"
_ATTRIBUTES = (rb"(?:[ \t\r\n]+[\w.:-]+" + _S + rb"=" + _S + rb"""(?:"[^"<]*"|'[^'<]*'))*""" + _S)
# an XML declaration naming no encoding but one that reads ASCII as ASCII
_DECLARATION = re.compile(
    rb"<\?xml[ \t\r\n]+version" + _S + rb"=" + _S + rb"""(["'])1\.[0-9]+\1"""
    + rb"(?:[ \t\r\n]+encoding" + _S + rb"=" + _S + rb"""(["'])(?i:utf-8|us-ascii)\2)?"""
    + rb"(?:[ \t\r\n]+standalone" + _S + rb"=" + _S + rb"""(["'])(?:yes|no)\3)?""" + _S
    + rb"\?>")
# a comment, CDATA section, DOCTYPE or processing instruction
_MARKUP = re.compile(rb"<[!?]")
_CELL_START = re.compile(rb"(<" + _PREFIX + rb"Cell)" + _ATTRIBUTES + rb">")
_CELL_END = re.compile(_S + rb"(</" + _PREFIX + rb"Cell" + _S + rb">)")
# the bytes a value read must not hold: "<" and "&", which open markup, and
# every C0 control: XML forbids most, and a parser replaces tab, LF and CR
_NOT_VALUE = rb"<&\x00-\x1f"
# the children of a Cell that are read, each as the literal bytes before and
# after its value: an entity's only attribute is its resource, and a measure
# or relation holds text and no element
_ENTITY = re.compile(
    _S + rb"(?P<head><" + _PREFIX + rb"(?P<name>entity[12])[ \t\r\n]+(?!xmlns:)" + _PREFIX
    + rb"resource" + _S + b"=" + _S + rb"""(?P<quote>["']))(?:(?!(?P=quote))[^""" + _NOT_VALUE
    + rb"])*(?P<tail>(?P=quote)" + _S + rb"/>)")
_TEXT = re.compile(
    _S + rb"(?P<head><(?P<tag>" + _PREFIX + rb"(?P<name>measure|relation))" + _ATTRIBUTES
    + rb">)[^" + _NOT_VALUE + rb"]*(?P<tail></(?P=tag)" + _S + rb">)")
_SLOTS = {b"entity1": 0, b"entity2": 1, b"measure": 2, b"relation": 3}
# the white space of a gap that may vary: between a tag's ">" and the next
# "<", where it is character data
_BETWEEN_TAGS = re.compile(rb"(?<=>)[ \t\r\n]*(?=<)")


def _template(data: bytes):
    """The pattern of a Cell written as the document's first, with one group
    per child; the record slot of each group; the first Cell's start and end;
    and the bytes that open its start tag. None when the first Cell has no
    child, a child twice, or one of another name or shape.

    The pattern holds the first Cell's tags literally, and white space between
    them. A group holds no "<", "&" or C0 control, nor an attribute's quote,
    so that its bytes are the value ElementTree reads.
    """
    first = _CELL_START.search(data)
    if first is None:
        return None
    pieces, slots, at = [re.escape(first[0])], [], first.end()
    while (child := _ENTITY.match(data, at) or _TEXT.match(data, at)) is not None:
        slot = _SLOTS[child["name"]]
        if slot in slots:
            return None
        quote = child["head"][-1:] if slot < 2 else b""
        pieces += [_S + re.escape(child["head"]), b"([^" + _NOT_VALUE + quote + b"]*)",
                   re.escape(child["tail"])]
        slots.append(slot)
        at = child.end()
    end = _CELL_END.match(data, at)
    if not slots or end is None:
        return None
    pieces.append(_S + re.escape(end[1]))
    return b"".join(pieces), slots, first.start(), end.end(), first[1]


def _read_in_shape(document: bytes | str):
    """`read_cells` of a document in the shape OAEI tools write, else None.

    The document must be ASCII bytes with no "]]>", which text must not hold,
    and P C (G? C)* G? S as the module says. The pattern of a Cell and an
    optional gap is tried on the last Cell first; then P, G and S are checked,
    expat must parse P C S and P C G C S, and one split on the pattern reads
    the Cells, where every text between two matches must be empty. P, G
    and S hold no "Cell", so that every Cell is one the pattern reads, the
    first text is P, the last S, and the groups between them the values; and
    no comment, CDATA section, DOCTYPE or processing instruction but an XML
    declaration, so that every "<" in G opens a tag and no Cell lies in markup
    that P opens and S closes. A document that misses pays only the checks
    before the miss. Nothing is decoded but the values.
    """
    if not isinstance(document, bytes) or not document.isascii() or b"]]>" in document:
        return None
    template = _template(document)
    if template is None:
        return None
    cell, slots, start, end, opening = template
    second = document.find(opening, end)
    gap = b"" if second == -1 else document[end:second]  # between the first two Cells
    # the gap with the ">" before it and the "<" after it, which any white
    # space at its ends lies between
    pieces = _BETWEEN_TAGS.split(b">" + gap + b"<")
    pieces[0], pieces[-1] = pieces[0][1:], pieces[-1][:-1]
    pattern = re.compile(cell + b"(?:" + _S.join(map(re.escape, pieces)) + b")?")
    last = pattern.match(document, document.rfind(opening))
    if last is None:
        return None
    prefix, first, suffix = document[:start], document[start:end], document[last.end():]
    declaration = _DECLARATION.match(prefix)
    outside = prefix[0 if declaration is None else declaration.end():], gap, suffix
    if any(b"Cell" in text or _MARKUP.search(text) for text in outside):
        return None
    texts = [prefix + first + suffix]
    if second != -1:
        texts.append(prefix + first + gap + first + suffix)
    try:  # no handler: only whether each text is well-formed
        for text in texts:
            expat.ParserCreate(namespace_separator="}").Parse(text, True)
    except expat.ExpatError:
        return None
    # P, then each match's values and the text after it, the last being S
    parts = pattern.split(document)
    width = len(slots) + 1
    if any(parts[width:-1:width]):
        return None
    record = [repeat(""), repeat(""), repeat(None), repeat(None)]
    for i, slot in enumerate(slots):
        record[slot] = map(bytes.decode, islice(parts, i + 1, None, width))
    return list(zip(*record))


class _LocalNames(dict):
    """One document's ``namespace}name`` strings, each mapped to its local name
    on first use, so that each distinct string is split once per document."""

    def __missing__(self, name: str) -> str:
        local = self[name] = name.rsplit("}", 1)[-1]
        return local


def read_cells(document: bytes | str) -> list:
    """One raw ``(entity1, entity2, measure, relation)`` record per ``Cell``
    element of `document`, in start order, as ElementTree would read them.

    The record is read from the Cell's direct children, whatever their
    namespace. An entity is its element's ``resource`` attribute, "" when
    absent; a measure or relation is its element's text up to its first child
    element, as ``.text`` is, and None when there is no such element. No tree is
    built. A document that ElementTree's parser rejects raises XmlSyntax with
    its position and message: one that is not well-formed, and one with a
    reference to an undefined or external entity in text.

    `_read_in_shape` reads the documents it can, and `_read_with_callbacks`
    every other, so that errors are always the callback reader's.
    """
    cells = _read_in_shape(document)
    return _read_with_callbacks(document) if cells is None else cells


def _read_with_callbacks(document: bytes | str) -> List[list]:
    """`read_cells` of any document, by ElementTree's parser with a target
    that keeps each Cell's record and builds no tree."""
    # imported here, so that only a document out of the pattern reader's shape
    # loads xml.etree
    from xml.etree.ElementTree import ParseError, XMLParser

    names = _LocalNames()
    cells: List[list] = []
    # the record of each open element that is a Cell and None for any other,
    # above a None that stands for the root's parent
    open_cells: List[list | None] = [None]
    # the text since the last end tag, or since the start of the measure or
    # relation being read, whose record and slot `reading` holds
    texts: List[str] = []
    reading = None

    def start(tag: str, attributes: dict) -> None:
        nonlocal reading
        if reading is not None:  # the first child ends the text
            cell, slot = reading
            cell[slot] = "".join(texts)  # <measure/> is blank, not absent
            reading = None
        name = names[tag]
        cell = open_cells[-1]
        if cell is not None:
            if name == "entity1" or name == "entity2":
                for key, value in attributes.items():  # the first "resource" in any namespace
                    if names[key] == "resource":
                        break
                else:
                    value = ""
                cell[0 if name == "entity1" else 1] = value
            elif name == "measure" or name == "relation":
                texts.clear()
                reading = cell, 2 if name == "measure" else 3
        if name == "Cell":
            cell = ["", "", None, None]
            cells.append(cell)
            open_cells.append(cell)
        else:
            open_cells.append(None)

    def end(tag: str) -> None:
        nonlocal reading
        if reading is not None:  # as in `start`; inlined, since both run per element
            cell, slot = reading
            cell[slot] = "".join(texts)
            reading = None
        texts.clear()
        open_cells.pop()

    parser = XMLParser(target=SimpleNamespace(start=start, end=end, data=texts.append))
    try:
        parser.feed(document)
        parser.close()
    except ParseError as exc:
        raise XmlSyntax(exc.position, str(exc)) from exc
    except (LookupError, ValueError) as exc:
        # an unknown or multi-byte encoding named by the XML declaration, which
        # opens line 1
        raise XmlSyntax((1, 0), str(exc)) from exc
    return cells
