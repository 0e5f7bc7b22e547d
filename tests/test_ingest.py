import pytest
from hypothesis import given, settings, strategies as st

from alignsig.errors import (
    AlignsigError,
    BadMeasure,
    ConfidenceOutOfRange,
    DuplicateId,
    MalformedLine,
    MissingEntity,
    Undecodable,
    XmlSyntax,
)
from alignsig.ingest import (
    parse_alignment_tsv,
    parse_alignment_xml,
    parse_label_list,
    text_lines,
    write_alignment_tsv,
)
from alignsig.model import Correspondence, canonicalize_alignment

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
        assert [c.key for c in a] == [("a", "b", "=")]
        assert a.correspondences[0].confidence == 0.8

    def test_defaults_and_comments(self):
        a = parse_alignment_tsv(b"a\tb\n# comment\n\n", "s")
        (c,) = a.correspondences
        assert c.relation == "="
        assert c.confidence == 1.0

    def test_too_few_fields(self):
        with pytest.raises(MalformedLine) as exc:
            parse_alignment_tsv(b"a\n", "s")
        assert exc.value.line_no == 1

    def test_confidence_out_of_range(self):
        with pytest.raises(ConfidenceOutOfRange):
            parse_alignment_tsv(b"a\tb\t=\t1.5\n", "s")

    def test_byte_order_mark_is_not_part_of_the_first_id(self):
        a = parse_alignment_tsv(BOM + b"a\tb\n", "s")
        assert [c.key for c in a] == [("a", "b", "=")]

    def test_undecodable_byte_reports_its_offset(self):
        with pytest.raises(Undecodable) as exc:
            parse_alignment_tsv(b"a\tb\nc\t\xff\n", "s")
        assert exc.value.offset == 6
        assert "byte 6" in str(exc.value)


class TestXmlParsing:
    def test_single_cell(self):
        a = parse_alignment_xml(ALIGNMENT_XML, "s")
        (c,) = a.correspondences
        assert c.key == ("http://x#A", "http://y#B", "=")
        assert c.confidence == 0.95

    def test_zero_cells(self):
        a = parse_alignment_xml(b"<rdf><Alignment/></rdf>", "s")
        assert len(a) == 0

    def test_missing_entity2(self):
        xml = b'<r><Cell><entity1 resource="http://x#A"/></Cell></r>'
        with pytest.raises(MissingEntity) as exc:
            parse_alignment_xml(xml, "s")
        assert exc.value.cell_index == 0

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
        with pytest.raises(BadMeasure) as exc:
            parse_alignment_xml(b"<r>" + good + bad + b"</r>", "s")
        assert (exc.value.cell_index, exc.value.text) == (1, text)
        assert str(exc.value).startswith(f"Cell 1: measure {text!r}")

    def test_byte_order_mark_before_the_document(self):
        a = parse_alignment_xml(BOM + ALIGNMENT_XML, "s")
        assert [c.key for c in a] == [("http://x#A", "http://y#B", "=")]

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


class TestLabelList:
    def test_single_row(self):
        t = parse_label_list(b"m1\ttrigeminal nerve\n")
        assert t.rows == (("m1", "trigeminal nerve"),)

    def test_duplicate_id(self):
        with pytest.raises(DuplicateId):
            parse_label_list(b"m1\tx\nm1\ty\n")

    def test_empty(self):
        assert len(parse_label_list(b"")) == 0

    def test_byte_order_mark_is_not_part_of_the_first_id(self):
        t = parse_label_list(BOM + b"m1\teye\n")
        assert t.rows == (("m1", "eye"),)

    def test_undecodable_byte_reports_its_offset(self):
        with pytest.raises(Undecodable) as exc:
            parse_label_list(b"m1\t\xffeye\n")
        assert exc.value.offset == 3

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\x0c", "\x0b",
                                           "\x1c", "\x1d", "\x1e"])
    def test_only_newline_ends_a_line(self, separator):
        t = parse_label_list(f"m1\tleft{separator}eye\nm2\tlens\n".encode())
        assert t.rows == (("m1", f"left{separator}eye"), ("m2", "lens"))


class TestLineSplitting:
    def test_crlf_line_numbers(self):
        with pytest.raises(MalformedLine) as exc:
            parse_label_list(b"# labels\r\nm1\teye\r\n\r\nm2\r\n")
        assert exc.value.line_no == 4

    def test_crlf_is_not_part_of_the_text(self):
        a = parse_alignment_tsv(b"a\tb\t=\t0.5\r\nc\td\r\n", "s")
        assert [(c.key, c.confidence) for c in a] == [(("a", "b", "="), 0.5),
                                                       (("c", "d", "="), 1.0)]

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
        assert [(c.key, c.confidence) for c in a] == [
            (("http://x#Ä", "http://y#B", "="), 0.5)]

    def test_undecodable_utf32(self):
        with pytest.raises(Undecodable) as exc:
            parse_alignment_xml(b"\xff\xfe\x00\x00<\x00\x00\x00\xff\xff\xff\xff", "s")
        assert exc.value.offset == 8
        assert "UTF-32" in str(exc.value)

    def test_multi_byte_declaration_on_utf8_bytes(self):
        with pytest.raises(XmlSyntax):
            parse_alignment_xml(b'<?xml version="1.0" encoding="UTF-16-BE"?><r/>', "s")


class TestWriting:
    def test_minimal_confidence_digits(self):
        a = canonicalize_alignment([Correspondence("a", "b")], "s")
        assert write_alignment_tsv(a) == b"a\tb\t=\t1\n"

    def test_empty(self):
        assert write_alignment_tsv(canonicalize_alignment([], "s")) == b""


corr_strategy = st.builds(
    Correspondence,
    source=st.text(alphabet="abcdef", min_size=1, max_size=6),
    target=st.text(alphabet="uvwxyz", min_size=1, max_size=6),
    relation=st.just("="),
    confidence=st.floats(0, 1, allow_nan=False),
)


@given(st.lists(corr_strategy, max_size=100))
def test_tsv_round_trip_is_identity(raw):
    a = canonicalize_alignment(raw, "s")
    assert parse_alignment_tsv(write_alignment_tsv(a), "s") == a


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
]
_BYTES = st.one_of(
    st.binary(max_size=200),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map(b"".join),
)


@settings(max_examples=300)
@given(_BYTES)
def test_parsers_return_or_raise_only_alignsig_errors(data):
    for parse in (lambda d: parse_alignment_tsv(d, "s"),
                  lambda d: parse_alignment_xml(d, "s"),
                  parse_label_list):
        try:
            parse(data)
        except AlignsigError:
            pass
