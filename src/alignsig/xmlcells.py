"""The Cells of an Alignment XML document, read with expat's callbacks.

`ingest.parse_alignment_xml` imports this module when it first reads an XML
file, so that commands which read no XML import neither it nor expat.
"""

from __future__ import annotations

from typing import List
from xml.parsers import expat

from .errors import XmlSyntax


class _LocalNames(dict):
    """One document's ``namespace}name`` strings, each mapped to its local name
    on first use, so that each distinct string is split once per document."""

    def __missing__(self, name: str) -> str:
        local = self[name] = name.rsplit("}", 1)[-1]
        return local


def _resource(attributes: List[str], names: _LocalNames) -> str:
    """The value of the first attribute named ``resource`` in any namespace, of
    an element's ``[name, value, ...]`` attribute list."""
    items = iter(attributes)
    for key in items:
        value = next(items)
        if names[key] == "resource":
            return value
    return ""


def read_cells(document: bytes | str) -> List[list]:
    """One raw ``[entity1, entity2, measure, relation]`` record per ``Cell``
    element of `document`, in start order, as ElementTree would read them.

    The record is read from the Cell's direct children, whatever their
    namespace. An entity is its element's ``resource`` attribute, "" when
    absent; a measure or relation is its element's text up to its first child
    element, as ``.text`` is, and None when there is no such element. No tree is
    built. A document that is not well-formed raises XmlSyntax with
    ElementTree's message, and so does a reference to an undefined or external
    entity in text, which ElementTree rejects where expat would skip it.
    """
    # ElementTree's separator: a name in a namespace is "uri}local"
    parser = expat.ParserCreate(namespace_separator="}")
    parser.buffer_text = parser.ordered_attributes = True
    names = _LocalNames()
    cells: List[list] = []
    # the record of each open element that is a Cell and None for any other,
    # above a None that stands for the root's parent
    open_cells: List[list | None] = [None]
    # the record, slot and text pieces of the measure or relation being read
    reading = None
    external = set()  # the external general entities the DTD declares

    def start(tag: str, attributes: List[str]) -> None:
        nonlocal reading
        if reading is not None:  # the first child ends the text
            cell, slot, pieces = reading
            cell[slot] = "".join(pieces)  # <measure/> is blank, not absent
            parser.CharacterDataHandler = reading = None
        name = names[tag]
        cell = open_cells[-1]
        if cell is not None:
            if name == "entity1":
                cell[0] = _resource(attributes, names)
            elif name == "entity2":
                cell[1] = _resource(attributes, names)
            elif name == "measure" or name == "relation":
                pieces: List[str] = []
                reading = cell, 2 if name == "measure" else 3, pieces
                parser.CharacterDataHandler = pieces.append
        if name == "Cell":
            cell = ["", "", None, None]
            cells.append(cell)
            open_cells.append(cell)
        else:
            open_cells.append(None)

    def end(tag: str) -> None:
        nonlocal reading
        if reading is not None:  # as in `start`; inlined, since both run per element
            cell, slot, pieces = reading
            cell[slot] = "".join(pieces)
            parser.CharacterDataHandler = reading = None
        open_cells.pop()

    def declare(name, is_parameter_entity, value, *_) -> None:
        if value is None and not is_parameter_entity:
            external.add(name)

    def undefined(name: str, *_) -> None:
        # ElementTree's error: the reference, cut at 100 bytes
        ref = f"&{name};".encode()[:100].decode("utf-8", "replace")
        line, column = parser.CurrentLineNumber, parser.CurrentColumnNumber
        raise XmlSyntax((line, column), f"undefined entity {ref}: line {line}, column {column}")

    def external_ref(context: str, *_) -> None:
        # the context names the open entities, of which only this one is external
        name, = external.intersection(context.split("\f"))
        undefined(name)

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.EntityDeclHandler = declare
    parser.SkippedEntityHandler = undefined
    parser.ExternalEntityRefHandler = external_ref
    try:
        parser.Parse(document, True)
    except expat.ExpatError as exc:
        raise XmlSyntax((exc.lineno, exc.offset), str(exc)) from exc
    except (LookupError, ValueError) as exc:
        # an unknown or multi-byte encoding named by the XML declaration, which
        # opens line 1
        raise XmlSyntax((1, 0), str(exc)) from exc
    finally:
        # the handlers close over the parser: unset, they leave no cycle for
        # the paused garbage collector
        parser.StartElementHandler = parser.EndElementHandler = None
        parser.CharacterDataHandler = parser.EntityDeclHandler = None
        parser.SkippedEntityHandler = parser.ExternalEntityRefHandler = None
    return cells
