import gc
import importlib.util
import pathlib
import random
import re
import subprocess
import sys
import tracemalloc
from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import assume, given, settings, strategies as st
from test_cli import fresh_env

from alignsig.errors import (
    AlignsigError,
    BadConfidence,
    DuplicateId,
    MalformedLine,
    MissingEntity,
    NonEquivalenceRelation,
    Undecodable,
    UnwritableEntity,
    XmlSyntax,
)
from alignsig import ingest, xmlcells
from alignsig.ingest import (
    parse_alignment,
    parse_alignment_files,
    parse_alignment_tsv,
    parse_alignment_xml,
    parse_label_list,
    text_lines,
    write_alignment_tsv,
)
from alignsig.model import canonicalize_alignment

BOM = b"\xef\xbb\xbf"

ALIGNMENT_XML = b"""<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns="http://knowledgeweb.semanticweb.org/heterogeneity/alignment">
  <Alignment>
    <map>
      <Cell>
        <entity1 rdf:resource="http://x#A"/>
        <entity2 rdf:resource="http://y#B"/>
        <measure rdf:datatype="xsd:float">0.95</measure>
        <relation>=</relation>
      </Cell>
    </map>
  </Alignment>
</rdf:RDF>
"""


class TestTsvParsing:
    def test_full_row(self):
        a = parse_alignment_tsv(b"a\tb\t=\t0.8\n", "s")
        assert a.pairs == {("a", "b"): 0.8}

    def test_defaults_and_comments(self):
        a = parse_alignment_tsv(b"a\tb\n# comment\n\n", "s")
        assert a.pairs == {("a", "b"): 1.0}

    def test_too_few_fields(self):
        with pytest.raises(MalformedLine) as exc:
            parse_alignment_tsv(b"a\n", "s")
        assert exc.value.line_no == 1

    def test_confidence_out_of_range(self):
        with pytest.raises(BadConfidence) as exc:
            parse_alignment_tsv(b"a\tb\t=\t0.5\nc\td\t=\t1.5\n", "s")
        assert str(exc.value) == "line 2: confidence '1.5' is not a number in [0, 1]"

    def test_byte_order_mark_is_not_part_of_the_first_id(self):
        a = parse_alignment_tsv(BOM + b"a\tb\n", "s")
        assert list(a.pairs) == [("a", "b")]

    def test_undecodable_byte_reports_its_offset(self):
        with pytest.raises(Undecodable) as exc:
            parse_alignment_tsv(b"a\tb\nc\t\xff\n", "s")
        assert exc.value.offset == 6
        assert "byte 6" in str(exc.value)


class TestXmlParsing:
    def test_single_cell(self):
        a = parse_alignment_xml(ALIGNMENT_XML, "s")
        assert a.pairs == {("http://x#A", "http://y#B"): 0.95}

    def test_zero_cells(self):
        a = parse_alignment_xml(b"<rdf><Alignment/></rdf>", "s")
        assert len(a) == 0

    def test_missing_entity2(self):
        xml = b'<r><Cell><entity1 resource="http://x#A"/></Cell></r>'
        with pytest.raises(MissingEntity) as exc:
            parse_alignment_xml(xml, "s")
        assert exc.value.location == "Cell 0"
        assert str(exc.value) == "Cell 0: missing or blank entity"

    @pytest.mark.parametrize("measure, text", [
        (b"<measure/>", ""),
        (b"<measure>  </measure>", ""),
        (b"<measure>high</measure>", "high"),
        (b"<measure>1.5</measure>", "1.5"),
        (b"<measure>-0.1</measure>", "-0.1"),
        (b"<measure>nan</measure>", "nan"),
    ])
    def test_bad_measure_names_the_cell_and_the_text(self, measure, text):
        good = b'<Cell><entity1 resource="a"/><entity2 resource="b"/></Cell>'
        bad = b'<Cell><entity1 resource="c"/><entity2 resource="d"/>' + measure + b"</Cell>"
        with pytest.raises(BadConfidence) as exc:
            parse_alignment_xml(b"<r>" + good + bad + b"</r>", "s")
        assert (exc.value.location, exc.value.text) == ("Cell 1", text)
        assert str(exc.value).startswith(f"Cell 1: confidence {text!r}")

    def test_byte_order_mark_before_the_document(self):
        a = parse_alignment_xml(BOM + ALIGNMENT_XML, "s")
        assert list(a.pairs) == [("http://x#A", "http://y#B")]

    def test_unknown_declared_encoding(self):
        with pytest.raises(XmlSyntax):
            parse_alignment_xml(b'<?xml version="1.0" encoding="bogus"?><r/>', "s")

    def test_blank_resource_is_a_missing_entity(self):
        xml = b'<r><Cell><entity1 resource=" "/><entity2 resource="b"/></Cell></r>'
        with pytest.raises(MissingEntity):
            parse_alignment_xml(xml, "s")

    def test_truncated_document_reports_position(self):
        with pytest.raises(XmlSyntax) as exc:
            parse_alignment_xml(ALIGNMENT_XML[:80], "s")
        assert exc.value.position is not None


def xml_cells(*cells: bytes) -> bytes:
    return b"<r>" + b"".join(b"<Cell>" + c + b"</Cell>" for c in cells) + b"</r>"


class TestParserChecks:
    """The id, relation and confidence checks each parser makes on its input."""

    def test_ids_are_stored_trimmed(self):
        tsv = parse_alignment_tsv(b"  a \t b \v\n", "s")
        xml = parse_alignment_xml(
            xml_cells(b'<entity1 resource="  a "/><entity2 resource=" b&#9;"/>'), "s")
        # the relation is trimmed alike: a padded "=" is an equivalence in both
        tsv_relation = parse_alignment_tsv(b"a\tb\t = \t1\n", "s")
        xml_relation = parse_alignment_xml(xml_cells(
            b'<entity1 resource="a"/><entity2 resource="b"/><relation> = </relation>'), "s")
        assert (tsv.pairs == xml.pairs == tsv_relation.pairs == xml_relation.pairs
                == {("a", "b"): 1.0})

    def test_rejects_empty_id_after_trim(self):
        with pytest.raises(MissingEntity) as exc:
            parse_alignment_tsv(b"a\tb\n  \tc\n", "s")
        assert exc.value.location == "line 2"
        with pytest.raises(MissingEntity) as exc:
            parse_alignment_xml(
                xml_cells(b'<entity1 resource="a"/><entity2 resource="&#9; "/>'), "s")
        assert exc.value.location == "Cell 0"

    @pytest.mark.parametrize("confidence", [b"1.5", b"-0.1", b"inf"])
    def test_rejects_out_of_range_confidence(self, confidence):
        with pytest.raises(BadConfidence) as exc:
            parse_alignment_tsv(b"a\tb\t=\t" + confidence + b"\n", "s")
        assert (exc.value.location, exc.value.text) == ("line 1", confidence.decode())
        with pytest.raises(BadConfidence) as exc:
            parse_alignment_xml(xml_cells(
                b'<entity1 resource="a"/><entity2 resource="b"/><measure>'
                + confidence + b"</measure>"), "s")
        assert (exc.value.location, exc.value.text) == ("Cell 0", confidence.decode())

    def test_absent_or_blank_relation_is_an_equivalence(self):
        tsv = [parse_alignment_tsv(b"a\tb" + tail + b"\n", "s").pairs
               for tail in (b"", b"\t", b"\t ", b"\t\t0.5")]
        xml = [parse_alignment_xml(xml_cells(
            b'<entity1 resource="a"/><entity2 resource="b"/>' + relation), "s").pairs
            for relation in (b"", b"<relation/>", b"<relation> </relation>")]
        assert tsv == [{("a", "b"): 1.0}] * 3 + [{("a", "b"): 0.5}]
        assert xml == [{("a", "b"): 1.0}] * 3

    @pytest.mark.parametrize("confidence", [b"", b" ", b"high"])
    def test_present_confidence_must_be_a_number(self, confidence):
        with pytest.raises(BadConfidence) as exc:
            parse_alignment_tsv(b"a\tb\t=\t" + confidence + b"\n", "s")
        assert (exc.value.location, exc.value.text) == ("line 1", confidence.decode().strip())

    @pytest.mark.parametrize("confidence", ["0.1_5", "０.５"])
    def test_rejects_what_only_python_reads_as_a_number(self, confidence):
        # float() reads "0.1_5" as 0.15 and the full-width "０.５" as 0.5
        with pytest.raises(BadConfidence) as exc:
            parse_alignment_tsv(f"a\tb\t=\t{confidence}\n".encode(), "s")
        assert (exc.value.location, exc.value.text) == ("line 1", confidence)
        with pytest.raises(BadConfidence) as exc:
            parse_alignment_xml(xml_cells(
                b'<entity1 resource="a"/><entity2 resource="b"/><measure>'
                + confidence.encode() + b"</measure>"), "s")
        assert (exc.value.location, exc.value.text) == ("Cell 0", confidence)

    @pytest.mark.parametrize("confidence", [" 0.5 ", "5e-1"])
    def test_padded_and_exponent_confidences_are_read(self, confidence):
        tsv = parse_alignment_tsv(f"a\tb\t=\t{confidence}\n".encode(), "s")
        xml = parse_alignment_xml(xml_cells(
            b'<entity1 resource="a"/><entity2 resource="b"/><measure>'
            + confidence.encode() + b"</measure>"), "s")
        assert tsv.pairs == xml.pairs == {("a", "b"): 0.5}

    def test_rejects_unsupported_relation_naming_its_line_or_cell(self):
        with pytest.raises(NonEquivalenceRelation) as exc:
            parse_alignment_tsv(b"a\tb\t=\nc\td\t<\t0.5\n", "s")
        assert str(exc.value) == "line 2: unsupported relation '<'; only '=' is supported"
        with pytest.raises(NonEquivalenceRelation) as exc:
            parse_alignment_xml(xml_cells(
                b'<entity1 resource="a"/><entity2 resource="b"/>',
                b'<entity1 resource="c"/><entity2 resource="d"/><relation>&gt;</relation>'), "s")
        assert str(exc.value) == "Cell 1: unsupported relation '>'; only '=' is supported"

    def test_identity_ignores_confidence(self):
        tsv = parse_alignment_tsv(b"a\tb\t=\t0.1\na\tb\t=\t0.9\na\tb\t=\t0.5\n", "s")
        xml = parse_alignment_xml(xml_cells(*(
            b'<entity1 resource="a"/><entity2 resource="b"/><measure>%s</measure>' % m
            for m in (b"0.1", b"0.9", b"0.5"))), "s")
        assert tsv.pairs == xml.pairs == {("a", "b"): 0.9}


class TestLabelList:
    def test_single_row(self):
        t = parse_label_list(b"m1\ttrigeminal nerve\n")
        assert t == (("m1", "trigeminal nerve"),)

    def test_duplicate_id(self):
        with pytest.raises(DuplicateId) as exc:
            parse_label_list(b"m1\tx\nm2\ty\nm1\tz\n")
        assert (exc.value.line_no, exc.value.id) == (3, "m1")
        assert str(exc.value) == "line 3: duplicate id 'm1'"

    def test_empty(self):
        assert len(parse_label_list(b"")) == 0

    def test_byte_order_mark_is_not_part_of_the_first_id(self):
        t = parse_label_list(BOM + b"m1\teye\n")
        assert t == (("m1", "eye"),)

    def test_label_longer_than_the_cap_names_its_line(self):
        cap = ingest.MAX_LABEL_LENGTH
        rows = parse_label_list(f"m1\t{'e' * cap}\nm2\t {'é' * cap} \n".encode())
        assert [len(label) for _, label in rows] == [cap, cap]
        with pytest.raises(MalformedLine) as exc:
            parse_label_list(f"m1\teye\nm2\t{'e' * (cap + 1)}\n".encode())
        assert exc.value.line_no == 2
        assert str(exc.value) == (f"line 2: label of {cap + 1} characters once case-folded, "
                                  f"more than {cap}")

    def test_the_cap_counts_what_case_folding_adds(self):
        # "ﬃ" folds to "ffi": what the matcher compares is three times as long
        assert ingest.MAX_LABEL_LENGTH == 500
        rows = parse_label_list(f"m1\t{'ﬃ' * 166}\n".encode())
        assert rows == (("m1", "ﬃ" * 166),)
        with pytest.raises(MalformedLine) as exc:
            parse_label_list(f"m1\teye\nm2\t{'ﬃ' * 167}\n".encode())
        assert str(exc.value) == "line 2: label of 501 characters once case-folded, more than 500"

    def test_undecodable_byte_reports_its_offset(self):
        with pytest.raises(Undecodable) as exc:
            parse_label_list(b"m1\t\xffeye\n")
        assert exc.value.offset == 3

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\x0c", "\x0b",
                                           "\x1c", "\x1d", "\x1e"])
    def test_only_newline_ends_a_line(self, separator):
        t = parse_label_list(f"m1\tleft{separator}eye\nm2\tlens\n".encode())
        assert t == (("m1", f"left{separator}eye"), ("m2", "lens"))


class TestLineSplitting:
    def test_crlf_line_numbers(self):
        with pytest.raises(MalformedLine) as exc:
            parse_label_list(b"# labels\r\nm1\teye\r\n\r\nm2\r\n")
        assert exc.value.line_no == 4

    def test_crlf_is_not_part_of_the_text(self):
        a = parse_alignment_tsv(b"a\tb\t=\t0.5\r\nc\td\r\n", "s")
        assert a.pairs == {("a", "b"): 0.5, ("c", "d"): 1.0}

    def test_lines_after_the_bom(self):
        assert list(text_lines(BOM + b"x\r\n\ny")) == [(1, "x"), (2, ""), (3, "y")]


WIDE_XML = ('<?xml version="1.0" encoding="{}"?><r><Cell>'
            '<entity1 resource="http://x#Ä"/><entity2 resource="http://y#B"/>'
            '<measure>0.5</measure></Cell></r>')


class TestWideEncodings:
    @pytest.mark.parametrize("encoding, bom", [
        ("utf-16-le", b"\xff\xfe"), ("utf-16-be", b"\xfe\xff"),
        ("utf-32-le", b"\xff\xfe\x00\x00"), ("utf-32-be", b"\x00\x00\xfe\xff"),
    ])
    @pytest.mark.parametrize("declared", ["UTF-16", "UTF-32", "UTF-16-BE"])
    def test_bom_decides_whatever_the_declaration_names(self, encoding, bom, declared):
        a = parse_alignment_xml(bom + WIDE_XML.format(declared).encode(encoding), "s")
        assert a.pairs == {("http://x#Ä", "http://y#B"): 0.5}

    def test_undecodable_utf32(self):
        with pytest.raises(Undecodable) as exc:
            parse_alignment_xml(b"\xff\xfe\x00\x00<\x00\x00\x00\xff\xff\xff\xff", "s")
        assert exc.value.offset == 8
        assert "UTF-32" in str(exc.value)

    def test_multi_byte_declaration_on_utf8_bytes(self):
        with pytest.raises(XmlSyntax):
            parse_alignment_xml(b'<?xml version="1.0" encoding="UTF-16-BE"?><r/>', "s")


class TestFormatChoice:
    """parse_alignment reads a file as XML or TSV by how it opens."""

    CELL = b'<r><Cell><entity1 resource="a"/><entity2 resource="b"/></Cell></r>'

    @pytest.mark.parametrize("opening", [
        b"", b'<?xml version="1.0"?>\t', b"<!-- a\tb -->", b'<!DOCTYPE r>\t',
        BOM + b" \n<!-- a\tb -->",
    ])
    def test_xml(self, opening):
        assert parse_alignment(opening + self.CELL, "s").pairs == {("a", "b"): 1.0}

    def test_wide_byte_order_mark_is_xml(self):
        data = ('<?xml version="1.0"?>\t' + self.CELL.decode()).encode("utf-16")
        assert parse_alignment(data, "s").pairs == {("a", "b"): 1.0}

    @pytest.mark.parametrize("data", [b"<a>\t<b>\n", BOM + b"  <a>\t<b>\t=\t1\n"])
    def test_bracketed_iri_with_a_tab_is_tsv(self, data):
        assert parse_alignment(data, "s").pairs == {("<a>", "<b>"): 1.0}


class TestWriting:
    def test_minimal_confidence_digits(self):
        a = canonicalize_alignment([("a", "b", 1.0)], "s")
        assert write_alignment_tsv(a) == b"a\tb\t=\t1\n"

    def test_empty(self):
        assert write_alignment_tsv(canonicalize_alignment([], "s")) == b""

    @pytest.mark.parametrize("entity1, entity2, unwritable", [
        ("#a", "b", "#a"),  # the line would be a comment
        ("a&#9;b", "c", "a\tb"),  # ... split into more fields
        ("a", "b&#10;c", "b\nc"),  # ... or into two lines
    ])
    def test_entity_that_would_not_read_back_raises(self, entity1, entity2, unwritable):
        a = parse_alignment_xml(xml_cells(
            f'<entity1 resource="{entity1}"/><entity2 resource="{entity2}"/>'.encode()), "s")
        assert a.pairs == {(entity1.replace("&#9;", "\t"), entity2.replace("&#10;", "\n")): 1.0}
        with pytest.raises(UnwritableEntity) as exc:
            write_alignment_tsv(a)
        assert exc.value.entity == unwritable

    def test_target_that_begins_with_a_hash_reads_back(self):
        a = parse_alignment_xml(xml_cells(b'<entity1 resource="a"/><entity2 resource="#b"/>'), "s")
        assert parse_alignment_tsv(write_alignment_tsv(a), "s") == a

    def test_sorted_by_source_then_target_whatever_the_input_order(self):
        rows = [(s, t, 0.5) for s in ("b", "a", "ab") for t in ("y", "x", "B")]
        expected = "".join(f"{s}\t{t}\t=\t0.5\n" for s, t, _ in sorted(rows)).encode()
        for seed in range(5):
            random.Random(seed).shuffle(rows)
            assert write_alignment_tsv(canonicalize_alignment(rows, "s")) == expected


row_strategy = st.tuples(
    st.text(alphabet="abcdef", min_size=1, max_size=6),
    st.text(alphabet="uvwxyz", min_size=1, max_size=6),
    st.floats(0, 1, allow_nan=False),
)


@given(st.lists(row_strategy, max_size=100))
def test_tsv_round_trip_is_identity(raw):
    a = canonicalize_alignment(raw, "s")
    assert parse_alignment_tsv(write_alignment_tsv(a), "s") == a


# ids padded with spaces and tabs, drawn from few values so that keys repeat;
# a target may be blank but a source never is, so that no TSV line is blank
_IDS = ["a", "b", "é", "a&b", '<"q">', "c#d"]


def _padded(ids):
    pad = st.text(alphabet=" \t", max_size=2)
    return st.tuples(pad, st.sampled_from(ids), pad).map("".join)


# None is an absent field; every present relation is an equivalence
_RELATIONS = st.sampled_from([None, "", " ", "=", " = "])
# (text, value): a text of None is absent, a value of None marks a text to reject
_CONFIDENCES = st.one_of(
    st.just((None, 1.0)),
    st.floats(0, 1).map(lambda c: (repr(c), c)),
    st.sampled_from(["", " ", "high", "1.5", "-0.1", "nan", "inf"]).map(lambda t: (t, None)),
)
_ROWS = st.lists(
    st.tuples(_padded(_IDS), _padded(_IDS + [""]), _RELATIONS, _CONFIDENCES), max_size=30)


def _as_tsv(rows) -> bytes:
    # a tab would split a TSV field, so TSV ids are padded with spaces only; a
    # confidence needs a relation field before it, and a blank one stands in
    lines = []
    for s, t, relation, (confidence, _) in rows:
        fields = [s.replace("\t", " "), t.replace("\t", " ")]
        if relation is not None or confidence is not None:
            fields.append(relation or "")
        if confidence is not None:
            fields.append(confidence)
        lines.append("\t".join(fields) + "\n")
    return "".join(lines).encode()


def _as_xml(rows) -> bytes:
    cells = "".join(
        f"<Cell><entity1 rdf:resource={quoteattr(s)}/><entity2 rdf:resource={quoteattr(t)}/>"
        + ("" if c is None else f'<measure rdf:datatype="xsd:float">{c}</measure>')
        + ("" if r is None else f"<relation>{r}</relation>") + "</Cell>"
        for s, t, r, (c, _) in rows)
    return ('<?xml version="1.0"?>'
            '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
            'xmlns="http://knowledgeweb.semanticweb.org/heterogeneity/alignment">'
            f"<Alignment><map>{cells}</map></Alignment></rdf:RDF>").encode()


@given(_ROWS)
def test_both_parsers_equal_a_max_by_key_reduction(rows):
    # both parsers check a row's confidence before its entities
    expected, error = {}, None
    for k, (s, t, _, (_, c)) in enumerate(rows):
        if c is None or not t.strip():
            error = (BadConfidence if c is None else MissingEntity, k)
            break
        key = (s.strip(), t.strip())
        expected[key] = max(expected.get(key, c), c)
    for parse, data, location in ((parse_alignment_tsv, _as_tsv(rows), "line {}"),
                                  (parse_alignment_xml, _as_xml(rows), "Cell {}")):
        if error is None:
            assert parse(data, "s").pairs == expected
            continue
        with pytest.raises(error[0]) as exc:
            parse(data, "s")
        # TSV lines count from 1, XML Cells from 0
        assert exc.value.location == location.format(error[1] + (parse is parse_alignment_tsv))


# fragments of both formats, so that generated inputs get past the first check
_FRAGMENTS = [
    BOM, b"\xff", b"\x00", b"\t", b"\n", b"\r", b" ", b"#", b"=", b"<", b">",
    b"0.5", b"1.5", b"nan", b"-", b"a", b"\xc3\xa9",
    b'<?xml version="1.0"?>', b'<?xml version="1.0" encoding="latin-1"?>',
    b'<?xml version="1.0" encoding="UTF-16-BE"?>', b"\xff\xfe", b"\xfe\xff",
    b"\xff\xfe\x00\x00", b"\x00\x00\xfe\xff", b"\x0c", b"\xe2\x80\xa8",
    b"<r>", b"</r>", b"<Cell>", b"</Cell>", b'<entity1 resource="a"/>',
    b'<entity2 resource="b"/>', b'<entity1 resource=" "/>', b"<measure>",
    b"</measure>", b"<measure/>", b"<relation>", b"</relation>",
    b'<r xmlns="u">', b'<x:Cell xmlns:x="v">', b"</x:Cell>", b'<x:entity1 x:resource="c"/>',
]
_BYTES = st.one_of(
    st.binary(max_size=200),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map(b"".join),
)


@settings(max_examples=300)
@given(_BYTES)
def test_parsers_return_or_raise_only_alignsig_errors(data):
    for parse in (lambda d: parse_alignment(d, "s"),
                  lambda d: parse_alignment_tsv(d, "s"),
                  lambda d: parse_alignment_xml(d, "s"),
                  parse_label_list):
        try:
            parse(data)
        except AlignsigError:
            pass


def oracle_parse_alignment_xml(data: bytes, system_name: str):
    """parse_alignment_xml without its memo of local names: every element, each
    tag split anew and its local name compared with "Cell"."""
    import xml.etree.ElementTree as ET

    def local(tag: str) -> str:
        return tag.rsplit("}", 1)[-1]

    def resource(elem) -> str:
        for key, value in elem.attrib.items():
            if local(key) == "resource":
                return value
        return ""

    document = ingest._xml_document(data)
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise XmlSyntax(exc.position, str(exc)) from exc
    except (LookupError, ValueError) as exc:
        raise XmlSyntax((1, 0), str(exc)) from exc
    out = []
    cell_index = 0
    for elem in root.iter():
        if local(elem.tag) != "Cell":
            continue
        entity1 = entity2 = ""
        measure = relation = None
        for child in elem:
            name = local(child.tag)
            if name == "entity1":
                entity1 = resource(child)
            elif name == "entity2":
                entity2 = resource(child)
            elif name == "measure":
                measure = child.text or ""
            elif name == "relation":
                relation = child.text
        confidence = ingest._confidence(measure, "Cell", cell_index)
        row = ingest._correspondence(entity1, entity2, confidence, "Cell", cell_index)
        ingest._relation(relation, "Cell", cell_index)
        out.append(row)
        cell_index += 1
    return canonicalize_alignment(out, system_name)


def assert_matches_oracle(data: bytes):
    """parse_alignment_xml gives the oracle's pairs, or its error type and message;
    returns the oracle's pairs or error."""
    try:
        expected = oracle_parse_alignment_xml(data, "s").pairs
    except AlignsigError as exc:
        with pytest.raises(type(exc)) as raised:
            parse_alignment_xml(data, "s")
        assert str(raised.value) == str(exc)
        return exc
    assert parse_alignment_xml(data, "s").pairs == expected
    return expected


_ALIGN_NS = "http://knowledgeweb.semanticweb.org/heterogeneity/alignment"
# a: is the Alignment namespace and x: a foreign one; an unprefixed name is in
# no namespace, or in the Alignment namespace where the document declares it
_NAMESPACES = (f'xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
               f'xmlns:a="{_ALIGN_NS}" xmlns:x="urn:foreign"')
# &half; is declared by the internal subset, &ext; is external and &undef; is
# declared nowhere: without a DTD both &ext; and &undef; are syntax errors, and
# under an external subset an undeclared reference is skipped, in an attribute
# silently and in text with an error
_DOCTYPES = st.sampled_from([
    "", '<!DOCTYPE r SYSTEM "r.dtd">',
    '<!DOCTYPE r [<!ENTITY half "0.5"><!ENTITY ext SYSTEM "ext.xml">]>',
    '<!DOCTYPE r SYSTEM "r.dtd" [<!ENTITY half "0.5"><!ENTITY ext SYSTEM "ext.xml">]>',
])
_CELLS = st.lists(st.tuples(
    st.sampled_from(["", "a:", "x:"]),  # the Cell's prefix
    st.sampled_from(["", "x:"]),  # its children's prefix
    st.sampled_from(["rdf:resource", "resource", "x:resource", "about"]),
    # entity1, quoted
    st.sampled_from(["a", "b", " b ", ""]).map(quoteattr)
    | st.sampled_from(['"a&half;"', '"a&undef;"', '"&ext;"']),
    st.sampled_from(["c", "d"]),
    st.sampled_from([None, "0.5", "1", " 0.25 ", "high", "&half;", "&ext;", "0.&undef;"]),
    st.sampled_from([None, "=", " ", "<", "&undef;"]),
), max_size=6)


def _cell(prefix, child, key, entity1, entity2, measure, relation, inner="") -> str:
    parts = [f"<{child}entity1 {key}={entity1}/>",
             f"<{child}entity2 rdf:resource={quoteattr(entity2)}/>"]
    if measure is not None:
        parts.append(f"<{child}measure>{measure}</{child}measure>")
    if relation is not None:
        parts.append(f"<{child}relation>{relation}</{child}relation>")
    return f"<{prefix}Cell>{''.join(parts)}{inner}</{prefix}Cell>"


@given(_CELLS, st.booleans(), st.booleans(), _DOCTYPES)
def test_cells_in_mixed_namespaces_equal_the_oracle(cells, default_ns, root_is_cell, doctype):
    xmlns = _NAMESPACES + (f' xmlns="{_ALIGN_NS}"' if default_ns else "")
    body = "".join(_cell(*c) for c in cells[root_is_cell:])
    if root_is_cell and cells:  # the other Cells nested in the root Cell
        prefix, *rest = cells[0]
        document = _cell(prefix, *rest, inner=f"<map>{body}</map>").replace(
            f"<{prefix}Cell>", f"<{prefix}Cell {xmlns}>", 1)
    else:
        document = f"<rdf:RDF {xmlns}><Alignment><map>{body}</map></Alignment></rdf:RDF>"
    assert_matches_oracle((doctype + document).encode())


CELL = b'<entity1 resource="a"/><entity2 resource="b"/>'
SYSTEM_DTD = b'<!DOCTYPE r SYSTEM "r.dtd">'
EXTERNAL = b'<!DOCTYPE r [<!ENTITY ext SYSTEM "ext.xml">]>'


def measured(measure: bytes, head: bytes = b"", before: bytes = b"") -> bytes:
    """A one-Cell document whose Cell holds `measure` as its <measure>'s content."""
    return (head + b"<r>" + before + b"<Cell>" + CELL
            + b"<measure>" + measure + b"</measure></Cell></r>")


class TestOracleCases:
    """Documents on which a parser that reads expat's events could part from
    ElementTree's: each gives the oracle's pairs, or its error and message."""

    @pytest.mark.parametrize("data, expected", [
        # undefined and external entities in text: ElementTree's "undefined
        # entity" error wherever the reference stands
        (measured(b"&foo;", SYSTEM_DTD), XmlSyntax),
        (measured(b"0.5", SYSTEM_DTD, b"<label>&foo;</label>"), XmlSyntax),
        (measured(b"&ext;", EXTERNAL), XmlSyntax),
        (measured(b"0.5", EXTERNAL).replace(
            b"<r>", b'<r xmlns="u" xmlns:p="v"><relation>&ext;</relation>'), XmlSyntax),
        (measured(b"&e;", b'<!DOCTYPE r SYSTEM "r.dtd" [<!ENTITY e "0.&foo;">]>'), XmlSyntax),
        (measured(b"&e;", b'<!DOCTYPE r [<!ENTITY ext SYSTEM "x"><!ENTITY e "&ext;">]>'),
         XmlSyntax),
        (measured(b"&q;", b'<!DOCTYPE r [<!ENTITY % pe SYSTEM "p.dtd"> %pe;]>'), XmlSyntax),
        (measured("&{};".format("é" * 60).encode(), SYSTEM_DTD), XmlSyntax),
        (measured(b"&foo;", b'<?xml version="1.0" standalone="yes"?>' + SYSTEM_DTD), XmlSyntax),
        (measured(b"&foo;"), XmlSyntax),
        # ... and in attributes: skipped under an external subset, an error if external
        (measured(b"0.5", SYSTEM_DTD).replace(b'"a"', b'"a&foo;"'), {("a", "b"): 0.5}),
        (measured(b"0.5", EXTERNAL).replace(b'"a"', b'"&ext;"'), XmlSyntax),
        (measured(b"&half;", b'<!DOCTYPE r [<!ENTITY half "0.5">]>'), {("a", "b"): 0.5}),
        # an attribute the DTD defaults counts as given
        (measured(b"0.5", b'<!DOCTYPE r [<!ATTLIST entity1 resource CDATA "z">]>')
         .replace(b' resource="a"', b""), {("z", "b"): 0.5}),
        # a syntax error or an entity error anywhere beats a bad Cell
        (measured(b"high") + b"<", XmlSyntax),
        (measured(b"0.5", SYSTEM_DTD, b"<Cell>" + CELL + b"<measure>high</measure></Cell>")
         .replace(b"</r>", b"<label>&foo;</label></r>"), XmlSyntax),
        # comments, processing instructions and CDATA inside <measure>
        (measured(b"0.<!-- c -->2<?pi x?><![CDATA[5]]>"), {("a", "b"): 0.25}),
        (measured(b"<![CDATA[]]><!-- c -->"), BadConfidence),
        (measured(b"<!-- 0.5 -->"), BadConfidence),
        # a child element ends the text
        (measured(b"0.5<unit>x</unit>9"), {("a", "b"): 0.5}),
        (measured(b"<unit/>0.5"), BadConfidence),
        (measured(b"0.5").replace(b"</Cell>", b"<relation>=<x/>&lt;</relation></Cell>"),
         {("a", "b"): 0.5}),
        (measured(b"0.5").replace(b"</Cell>", b"<relation><x/>&lt;</relation></Cell>"),
         {("a", "b"): 0.5}),
        (measured(b"0.5").replace(b"</Cell>", b"<relation>&lt;<x/>=</relation></Cell>"),
         NonEquivalenceRelation),
        # more text than expat's 8 KiB buffer holds, split across calls
        (measured(b" " * 9000 + b"0.5" + b"\n" * 9000), {("a", "b"): 0.5}),
        (measured(b"0." + b"25" * 5000), {("a", "b"): float("0." + "25" * 5000)}),
        (measured(b"0.5" * 3000), BadConfidence),
        # nested Cells, the outer one numbered first whichever of them is bad
        (b"<r><Cell><measure>high</measure><Cell>" + CELL
         + b"<measure>2</measure></Cell>" + CELL + b"</Cell></r>", BadConfidence),
        (b"<r><Cell>" + CELL + b"<Cell>" + CELL + b"<measure>2</measure></Cell>"
         b"<measure>high</measure></Cell></r>", BadConfidence),
        (b"<r><Cell>" + CELL + b"<Cell><measure>0.5</measure></Cell>"
         b"<measure>0.25</measure></Cell></r>", MissingEntity),
        (b"<r><Cell>" + CELL + b"<Cell>" + CELL.replace(b"a", b"c")
         + b"<measure>0.5</measure></Cell><measure>0.25</measure></Cell></r>",
         {("a", "b"): 0.25, ("c", "b"): 0.5}),
        # declared encodings: expat's own, a single-byte codec, a multi-byte
        # codec and no codec at all
        (measured(b"0.5", b'<?xml version="1.0" encoding="ISO-8859-1"?>')
         .replace(b'"a"', b'"\xe9"'), {("é", "b"): 0.5}),
        (measured(b"0.5", b'<?xml version="1.0" encoding="cp1252"?>')
         .replace(b'"a"', b'"\x80"'), {("€", "b"): 0.5}),
        (measured(b"0.5", b'<?xml version="1.0" encoding="UTF-16-BE"?>'), XmlSyntax),
        (measured(b"0.5", b'<?xml version="1.0" encoding="shift_jis"?>'), XmlSyntax),
        (measured(b"0.5", b'<?xml version="1.0" encoding="bogus"?>'), XmlSyntax),
    ])
    def test_same_as_the_oracle(self, data, expected):
        outcome = assert_matches_oracle(data)
        if isinstance(expected, dict):
            assert outcome == expected
        else:
            assert type(outcome) is expected

    def test_undefined_entity_error_is_element_trees(self):
        data = measured(b"&foo;", SYSTEM_DTD)
        column = data.index(b"&")
        with pytest.raises(XmlSyntax) as exc:
            parse_alignment_xml(data, "s")
        assert exc.value.position == (1, column)
        assert exc.value.message == f"undefined entity &foo;: line 1, column {column}"
        with pytest.raises(XmlSyntax) as exc:  # cut at 100 bytes, as ElementTree does
            parse_alignment_xml(measured(b"&" + b"x" * 120 + b";", SYSTEM_DTD), "s")
        assert exc.value.message == f"undefined entity &{'x' * 99}: line 1, column {column}"


# Alignment XML as OAEI tools write it, which xmlcells reads with a pattern
# learnt from the first Cell, and near-misses it must leave to the callback
# reader; both must read as the oracle does
_RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
_SHAPED_HEAD = (f'<rdf:RDF xmlns:rdf="{_RDF}" xmlns="{_ALIGN_NS}" xmlns:a="{_ALIGN_NS}">'
                "<Alignment>")
_SHAPED_TAIL = "</Alignment></rdf:RDF>"
_GAPS = st.sampled_from(["", " ", "\n    ", "\r\n\t"])


@st.composite
def shaped_cells(draw, min_cells=1):
    """The Cells of an ASCII document, all with the same tags, prefix, quote
    and children in the same order, each as a list of strings: its start tag,
    one per child, and its end tag."""
    quote = draw(st.sampled_from(['"', "'"]))
    prefix = draw(st.sampled_from(["", "a:"]))
    resource = draw(st.sampled_from(["rdf:resource", "resource"]))
    order = draw(st.permutations(["entity1", "entity2", "measure", "relation"]))
    children = order[:draw(st.integers(1, 4))]
    # a ">" inside an attribute value, and IRIs that hold "Cell" or the other quote
    cell_tag = draw(st.sampled_from(["", ' rdf:about="#c>1"', " n='2' "]))
    measure_tag = draw(st.sampled_from(["", ' rdf:datatype="xsd:float"', " x='a>b'"]))
    other_quote = "'" if quote == '"' else '"'
    iris = ["http://x#A", "http://x#Cell", "http://y#CellMembrane", " b ", "",
            f"q{other_quote}r"]
    texts = {"measure": ["0.5", "1", " 0.25 ", "high", "", ">"],
             "relation": ["=", " = ", "", ">"]}
    cells = []
    for _ in range(draw(st.integers(min_cells, 6))):
        cell = [f"<{prefix}Cell{cell_tag}>"]
        for child in children:
            gap = draw(_GAPS)
            if child in texts:
                tag = measure_tag if child == "measure" else ""
                text = draw(st.sampled_from(texts[child]))
                cell.append(f"{gap}<{prefix}{child}{tag}>{text}</{prefix}{child}>")
            else:
                iri = draw(st.sampled_from(iris))
                cell.append(f"{gap}<{prefix}{child} {resource}={quote}{iri}{quote}/>")
        cells.append(cell + [f"{draw(_GAPS)}</{prefix}Cell>"])
    return cells


def shaped_document(cells, head: str = '<?xml version="1.0" encoding="utf-8"?>\n',
                    tail: str = _SHAPED_TAIL) -> bytes:
    maps = "\n".join(f"<map>{''.join(cell)}</map>" for cell in cells)
    return (head + _SHAPED_HEAD + maps + tail).encode()


def _in_value(child: str, text: str) -> str:
    """A child's string with `text` put at the end of its value."""
    end = child[-3:] if child.endswith("/>") else "</"
    return child.replace(end, text + end, 1)


@given(shaped_cells(), st.booleans())
def test_documents_in_shape_take_the_template_reader(cells, declared):
    document = shaped_document(cells, '<?xml version="1.0"?>' if declared else "")
    assert xmlcells._read_in_shape(document) is not None
    assert_matches_oracle(document)


@pytest.mark.parametrize("kind", ["xmlns", "&amp;", "&#9;", "é", "\x01", "]]>", "<!-- c -->",
                                  "<!DOCTYPE rdf:RDF>", "<?pi x?>", "odd", "inner odd",
                                  "other prefix", "unclosed gap", "closing gap", "syntax",
                                  "tenth gap", "gap twice", "]]> in a Cell tag"])
@settings(max_examples=40)
@given(cells=shaped_cells(min_cells=2), data=st.data())
def test_near_misses_take_the_callback_reader(kind, cells, data):
    k = data.draw(st.integers(0, len(cells) - 1))
    child = data.draw(st.integers(1, len(cells[k]) - 2))
    head, tail = '<?xml version="1.0"?>', _SHAPED_TAIL
    if kind == "xmlns":  # a namespace declaration, not an attribute
        assume("resource=" in cells[k][child])
        cells[k][child] = re.sub(r"\S*resource=", "xmlns:resource=", cells[k][child])
    elif kind in ("&amp;", "&#9;", "é", "\x01"):
        cells[k][child] = _in_value(cells[k][child], kind)
    elif kind == "]]>":  # in the measure, since text must not hold it
        child = next((i for i, text in enumerate(cells[k]) if "measure" in text), None)
        assume(child is not None)
        cells[k][child] = _in_value(cells[k][child], kind)
    elif kind == "odd":  # the last Cell holds a child of another name
        cells[-1].insert(-1, "<label>l</label>")
    elif kind == "inner odd":  # the Cell before the last does, where the match stops
        cells[-2].insert(-1, "<label>l</label>")
    elif kind == "other prefix":  # a Cell after the last, in the same namespace
        other = "<Cell/>" if cells[0][0].startswith("<a:") else "<a:Cell/>"
        tail = f"\n<map>{other}</map>" + _SHAPED_TAIL
    elif kind == "unclosed gap":  # every gap opens an <x> that no tag closes
        for cell in cells[1:]:
            cell[0] = "<x>" + cell[0]
    elif kind == "closing gap":  # every gap closes an <x>, which only the prefix opens
        assume(len(cells) >= 3)
        cells[0][0] = "<x>" + cells[0][0]
        for cell in cells[:-1]:
            cell[-1] += "</x>"
    elif kind == "syntax":
        tail = _SHAPED_TAIL + "<"
    elif kind == "tenth gap":  # past the two Cells that expat reads
        cells = [list(cells[i % len(cells)]) for i in range(12)]
        cells[9][-1] += "<"
    elif kind == "gap twice":  # between two middle Cells, not the first two: an empty <map>
        assume(len(cells) >= 4)
        k = data.draw(st.integers(2, len(cells) - 2))
        cells[k][0] = "</map>\n<map>" + cells[k][0]
    elif kind == "]]> in a Cell tag":  # which an attribute may hold
        for cell in cells:
            cell[0] = cell[0].replace("Cell", 'Cell t="]]>"', 1)
    else:
        head += kind
    document = shaped_document(cells, head, tail)
    assert xmlcells._read_in_shape(document) is None
    assert_matches_oracle(document)


@pytest.mark.parametrize("kind", ["no gap", "gap-led suffix"])
@settings(max_examples=40)
@given(cells=shaped_cells(min_cells=4), data=st.data())
def test_documents_in_shape_but_for_a_gap_take_the_template_reader(kind, cells, data):
    tail = _SHAPED_TAIL
    if kind == "no gap":  # two middle Cells share one <map>
        k = data.draw(st.integers(1, len(cells) - 3))
        cells[k] += cells.pop(k + 1)
    else:  # the suffix begins with the gap between two Cells
        tail = "\n<map></map>" + tail
    document = shaped_document(cells, tail=tail)
    assert xmlcells._read_in_shape(document) is not None
    assert_matches_oracle(document)


# one edit: None deletes a byte, and any bytes are inserted; the listed ones
# open, close or break markup, or a value; "no gap" deletes a whole gap and
# "gap twice" writes one twice
_EDITS = st.one_of(st.none(), st.integers(0, 127).map(lambda byte: bytes([byte])),
                   st.sampled_from([b"<", b">", b"</map>", b"<x>", b"]]>", b"\x01",
                                    "no gap", "gap twice"]))


@settings(max_examples=300)
@given(cells=shaped_cells(min_cells=2), data=st.data())
def test_the_readers_agree_on_a_shaped_document_edited_once(cells, data):
    document = shaped_document(cells)
    gaps = [m.start() for m in re.finditer(rb"</map>", document)]
    at = data.draw(st.one_of(st.sampled_from(gaps).flatmap(lambda g: st.integers(g - 8, g + 12)),
                             st.integers(0, len(document) - 1)))
    edit = data.draw(_EDITS)
    if edit is None:
        document = document[:at] + document[at + 1:]
    elif isinstance(edit, str):
        gap = data.draw(st.sampled_from(list(re.finditer(rb"</map>\n<map>", document))))
        copies = 2 if edit == "gap twice" else 0
        document = document[:gap.start()] + gap[0] * copies + document[gap.end():]
    else:
        document = document[:at] + edit + document[at:]
    try:
        expected = list(map(tuple, xmlcells._read_with_callbacks(document)))
    except XmlSyntax as exc:
        with pytest.raises(XmlSyntax) as raised:
            xmlcells.read_cells(document)
        assert str(raised.value) == str(exc)
    else:
        assert list(map(tuple, xmlcells.read_cells(document))) == expected


def test_the_benchmark_and_ci_shapes_take_the_template_reader(monkeypatch):
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    benchmark = workloads._XML_HEAD + "".join(
        workloads._XML_CELL.format(f"http://s#{i}", f"http://t#{i}", f"0.{i}")
        for i in range(3)) + workloads._XML_TAIL
    # as .github/workflows/tier1.yml writes big1.rdf: no <relation>
    ci = (f'<?xml version="1.0"?><rdf:RDF xmlns:rdf="{_RDF}" xmlns="{_ALIGN_NS}">'
          "<Alignment><map>" + "".join(
              f'<Cell><entity1 rdf:resource="http://s#{i}"/><entity2 rdf:resource="http://t#{i}"/>'
              f"<measure>0.{i}</measure></Cell>" for i in range(3))
          + "</map></Alignment></rdf:RDF>")
    for document in (benchmark.encode(), ci.encode()):
        records = xmlcells._read_in_shape(document)
        assert records == list(map(tuple, xmlcells._read_with_callbacks(document)))
        assert len(records) == 3


def xml_document(n_cells: int) -> bytes:
    """An Alignment document of `n_cells` distinct Cells."""
    return _as_xml([(f"http://s#{i}", f"http://t#{i}", "=", (f"0.{i % 10}", None))
                    for i in range(n_cells)])


def commented(document: bytes) -> bytes:
    """`document` with a comment after its XML declaration, which leaves it to
    the callback reader."""
    end = document.index(b"?>") + 2
    data = document[:end] + b"<!-- c -->" + document[end:]
    assert xmlcells._read_in_shape(data) is None
    return data


def test_parse_leaves_no_cycles():
    # ingest runs with the cyclic garbage collector paused, and forked workers
    # never resume it: a cycle would keep a file's records alive
    shaped = xml_document(200)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for data in (shaped, commented(shaped)):
            parse_alignment_xml(data, "s")  # a first import's cycles are no parse's
            gc.collect()
            assert len(parse_alignment_xml(data, "s")) == 200
            assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_parse_holds_under_half_the_memory_of_a_tree():
    # about the Cells of the largest benchmark file; tracemalloc makes a
    # larger document slow
    shaped = xml_document(5000)

    def peak(parse, data) -> int:
        tracemalloc.start()
        try:
            assert len(parse(data, "s")) == 5000
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for data in (shaped, commented(shaped)):
        assert peak(parse_alignment_xml, data) < peak(oracle_parse_alignment_xml, data) / 2
    # the pattern reader's records and their strings come to 2.5-2.7 times
    # the document's bytes on Python 3.10 to 3.12; a regex that kept
    # backtracking state for every Cell it passed came to 5.5 times on 3.10
    assert peak(lambda document, _: xmlcells._read_in_shape(document), shaped) < 4 * len(shaped)


class TestParseAlignmentFiles:
    def test_returns_the_alignments_in_order(self, tmp_path):
        (tmp_path / "a.tsv").write_bytes(b"a\tb\n")
        (tmp_path / "b.rdf").write_bytes(ALIGNMENT_XML)
        files = [("A", tmp_path / "a.tsv"), ("B", str(tmp_path / "b.rdf")),
                 ("C", tmp_path / "a.tsv")]
        alignments = parse_alignment_files(files)
        assert [a.system_name for a in alignments] == ["A", "B", "C"]
        assert alignments[1].pairs == {("http://x#A", "http://y#B"): 0.95}

    def test_the_first_bad_file_in_order_raises(self, tmp_path):
        (tmp_path / "bad.tsv").write_bytes(b"a\n")
        with pytest.raises(MalformedLine):
            parse_alignment_files([("A", tmp_path / "bad.tsv"), ("B", tmp_path / "missing")])
        with pytest.raises(FileNotFoundError):
            parse_alignment_files([("B", tmp_path / "missing"), ("A", tmp_path / "bad.tsv")])

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_the_garbage_collectors_state(self, tmp_path, enabled):
        (tmp_path / "bad.tsv").write_bytes(b"a\n")
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            parse_alignment_files([])
            assert gc.isenabled() is enabled
            with pytest.raises(MalformedLine):
                parse_alignment_files([("A", tmp_path / "bad.tsv")])
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()


#: Parses the files named after its first argument, in two forked workers,
#: with a step that keeps each system's name and sorted keys; on system B's
#: file the step does what the first argument says: "keep" nothing more,
#: "exit" ends its worker with os._exit(3), "kill" with SIGKILL, and "hang"
#: sleeps a minute while SIGALRM raises KeyboardInterrupt in this process
#: after 0.5 s.  Then prints, one per line: the result or the exception;
#: whether a child process, running or ended, is left unreaped; and the names
#: of the files this process parsed itself, with whether alignsig.workers was
#: loaded.
WORKERS_SCRIPT = """
import os, signal, sys, time
from alignsig import ingest
ingest.POOL_MIN_BYTES = 0
ingest._cpus = lambda: 2
mode, *paths = sys.argv[1:]
parent, parsed_here, parse = os.getpid(), [], ingest.parse_alignment

def tracked(data, name):
    if os.getpid() == parent:
        parsed_here.append(name)
    return parse(data, name)

def step(a):
    if a.system_name == "B":
        if mode == "exit":
            os._exit(3)
        if mode == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if mode == "hang":
            time.sleep(60)
    return a.system_name, sorted(a.pairs)

def interrupt(*_):
    raise KeyboardInterrupt

ingest.parse_alignment = tracked
if mode == "hang":
    signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
try:
    print(ingest.parse_alignment_files([(p[0].upper(), p) for p in paths], step))
except BaseException as exc:
    print(f"{type(exc).__name__}: {exc}")
try:
    os.waitpid(-1, os.WNOHANG)
    print("a child is left")
except ChildProcessError:
    print("no child is left")
print(parsed_here, "alignsig.workers" in sys.modules)
"""

FOUR_FILES = {"a.tsv": "a\tb\n", "b.tsv": "c\td\ne\tf\n", "c.tsv": "g\th\n",
              "d.tsv": "i\tj\n" * 20}


class TestWorkers:
    """Each run of the workers ends within the deadline, and reaps every worker."""

    DEADLINE_S = 30

    def run(self, tmp_path, mode, files=FOUR_FILES):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        done = subprocess.run([sys.executable, "-c", WORKERS_SCRIPT, mode, *files],
                              cwd=tmp_path, env=fresh_env(), capture_output=True, text=True,
                              timeout=self.DEADLINE_S)
        *outcome, left, parsed = done.stdout.splitlines()
        assert (done.returncode, left, parsed) == (0, "no child is left", "[] True"), done.stderr
        return "\n".join(outcome), done.stderr

    def test_result_is_the_sequential_one(self, tmp_path):
        outcome, stderr = self.run(tmp_path, "keep")
        expected = [(a.system_name, sorted(a.pairs)) for a in parse_alignment_files(
            [(name[0].upper(), tmp_path / name) for name in FOUR_FILES])]
        assert (outcome, stderr) == (str(expected), "")

    def test_first_bad_file_in_order_wins(self, tmp_path):
        # d.tsv is the largest, so a worker claims it first, yet c.tsv's error wins
        files = {**FOUR_FILES, "c.tsv": "bad\n", "d.tsv": "i\tj\n" * 20 + "bad\n"}
        assert self.run(tmp_path, "keep", files) == (
            "MalformedLine: line 1: expected >=2 tab-separated fields", "")

    @pytest.mark.parametrize("mode, how", [("exit", "exited with code 3"),
                                           ("kill", "was killed by signal 9")])
    def test_a_worker_that_dies_names_the_unfinished_files(self, tmp_path, mode, how):
        outcome, _ = self.run(tmp_path, mode)
        found = re.fullmatch(rf"RuntimeError: worker process \d+ {how} before it finished (.+)",
                             outcome)
        assert found, outcome
        unfinished = found.group(1).split(", ")
        assert "b.tsv" in unfinished and set(unfinished) <= set(FOUR_FILES)
        assert unfinished == sorted(unfinished)  # in file order

    def test_interrupt_kills_and_reaps_the_workers(self, tmp_path):
        # the worker on b.tsv sleeps past the deadline unless it is killed
        assert self.run(tmp_path, "hang") == ("KeyboardInterrupt: ", "")
