"""Well-formedness parsing: structure, entities, namespaces, errors."""

import pytest

from repro.xml import (
    Comment,
    ProcessingInstruction,
    Text,
    XMLNamespaceError,
    XMLSyntaxError,
    parse,
)


class TestBasicStructure:
    def test_single_element(self):
        doc = parse("<a/>")
        assert doc.root_element.name == "a"
        assert doc.root_element.children == []

    def test_nested_elements(self):
        doc = parse("<a><b><c/></b></a>")
        assert doc.root_element.find("b").find("c") is not None

    def test_text_content(self):
        doc = parse("<a>hello</a>")
        assert doc.root_element.text_content() == "hello"

    def test_mixed_content(self):
        doc = parse("<a>x<b/>y</a>")
        kinds = [c.kind for c in doc.root_element.children]
        assert kinds == ["text", "element", "text"]

    def test_attributes(self):
        doc = parse('<a x="1" y=\'2\'/>')
        assert doc.root_element.get_attribute("x") == "1"
        assert doc.root_element.get_attribute("y") == "2"

    def test_whitespace_in_tags(self):
        doc = parse('<a  x = "1"  ></a >')
        assert doc.root_element.get_attribute("x") == "1"

    def test_empty_document_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("")

    def test_content_after_root_rejected(self):
        with pytest.raises(XMLSyntaxError, match="after document element"):
            parse("<a/><b/>")

    def test_mismatched_end_tag(self):
        with pytest.raises(XMLSyntaxError, match="does not match"):
            parse("<a></b>")

    def test_unclosed_element(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a><b></a>")

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(XMLSyntaxError, match="duplicate attribute"):
            parse('<a x="1" x="2"/>')

    def test_unquoted_attribute_rejected(self):
        with pytest.raises(XMLSyntaxError, match="quoted"):
            parse("<a x=1/>")

    def test_lt_in_attribute_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse('<a x="a<b"/>')

    def test_error_position_reported(self):
        try:
            parse("<a>\n  <b></c>\n</a>")
        except XMLSyntaxError as error:
            assert error.line == 2
        else:
            pytest.fail("expected a syntax error")


class TestXmlDeclaration:
    def test_version_and_encoding(self):
        doc = parse('<?xml version="1.0" encoding="UTF-8"?><a/>')
        assert doc.version == "1.0"
        assert doc.encoding == "UTF-8"

    def test_standalone(self):
        doc = parse('<?xml version="1.0" standalone="yes"?><a/>')
        assert doc.standalone is True

    def test_bad_version(self):
        with pytest.raises(XMLSyntaxError):
            parse('<?xml version="2.0"?><a/>')

    def test_bad_standalone(self):
        with pytest.raises(XMLSyntaxError):
            parse('<?xml version="1.0" standalone="maybe"?><a/>')

    @pytest.mark.parametrize("name", ["UT?>F-8", "U\x01TF-8", "UTF-8 ",
                                      "8859-1", "", "UTF\u20208"])
    def test_malformed_encoding_name_rejected(self, name):
        text = f'<?xml version="1.0" encoding="{name}"?><a/>'
        with pytest.raises(XMLSyntaxError) as info:
            parse(text)
        assert info.value.message == f"malformed encoding name {name!r}"
        assert info.value.column == text.rindex("?>") + 1

    @pytest.mark.parametrize("text,before", [
        ('<?xml version="1.0"encoding="UTF-8"?><a/>', "encoding"),
        ('<?xml version="1.0"standalone="yes"?><a/>', "standalone"),
        ("<?xml version='1.0' encoding='UTF-8'standalone='no'?><a/>",
         "standalone"),
    ])
    def test_space_required_between_pseudo_attributes(self, text, before):
        with pytest.raises(XMLSyntaxError,
                           match=f"white space required before '{before}'"):
            parse(text)

    def test_pseudo_attributes_separated_by_any_space(self):
        doc = parse('<?xml version="1.0"\r\n\tencoding="ascii"\n'
                    'standalone="no"?><a/>')
        assert (doc.encoding, doc.standalone) == ("ascii", False)


class TestDoctype:
    def test_doctype_name(self):
        doc = parse("<!DOCTYPE a><a/>")
        assert doc.doctype_name == "a"

    def test_system_identifier(self):
        doc = parse('<!DOCTYPE a SYSTEM "a.dtd"><a/>')
        assert doc.doctype_system == "a.dtd"

    def test_public_identifier(self):
        doc = parse('<!DOCTYPE a PUBLIC "-//X//Y" "a.dtd"><a/>')
        assert doc.doctype_public == "-//X//Y"
        assert doc.doctype_system == "a.dtd"

    def test_internal_subset_captured(self):
        doc = parse('<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>')
        assert "<!ELEMENT a EMPTY>" in doc.internal_subset

    def test_internal_subset_with_bracket_in_literal(self):
        doc = parse('<!DOCTYPE a [<!ENTITY e "]">]><a/>')
        assert '"]"' in doc.internal_subset

    def test_multiple_doctypes_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("<!DOCTYPE a><!DOCTYPE b><a/>")


class TestEntitiesAndReferences:
    def test_predefined_entities(self):
        doc = parse("<a>&lt;&gt;&amp;&apos;&quot;</a>")
        assert doc.root_element.text_content() == "<>&'\""

    def test_decimal_char_ref(self):
        assert parse("<a>&#65;</a>").root_element.text_content() == "A"

    def test_hex_char_ref(self):
        assert parse("<a>&#x41;</a>").root_element.text_content() == "A"

    def test_entity_in_attribute(self):
        doc = parse('<a x="&amp;&#x20;b"/>')
        assert doc.root_element.get_attribute("x") == "& b"

    def test_undefined_entity_rejected(self):
        with pytest.raises(XMLSyntaxError, match="undefined entity"):
            parse("<a>&nope;</a>")

    def test_illegal_char_ref_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a>&#0;</a>")

    def test_malformed_char_ref_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a>&#xZZ;</a>")


class TestCdataCommentsPis:
    def test_cdata(self):
        doc = parse("<a><![CDATA[<not-markup> && stuff]]></a>")
        text = doc.root_element.children[0]
        assert isinstance(text, Text)
        assert text.is_cdata
        assert text.data == "<not-markup> && stuff"

    def test_text_around_cdata_keeps_document_order(self):
        doc = parse("<a>x<![CDATA[y]]>z</a>")
        children = doc.root_element.children
        assert [(c.data, c.is_cdata) for c in children] == \
            [("x", False), ("y", True), ("z", False)]
        assert doc.root_element.string_value() == "xyz"

    def test_comment(self):
        doc = parse("<a><!-- note --></a>")
        comment = doc.root_element.children[0]
        assert isinstance(comment, Comment)
        assert comment.data == " note "

    def test_double_hyphen_in_comment_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a><!-- a -- b --></a>")

    def test_pi(self):
        doc = parse('<a><?target some data?></a>')
        pi = doc.root_element.children[0]
        assert isinstance(pi, ProcessingInstruction)
        assert pi.target == "target"
        assert pi.data == "some data"

    def test_pi_without_data(self):
        doc = parse("<a><?target?></a>")
        assert doc.root_element.children[0].data == ""

    def test_xml_pi_target_reserved(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a><?XML bad?></a>")

    @pytest.mark.parametrize("text,what,column", [
        ("<!--a\x00b--><a/>", "U+0000 in comment", 6),
        ("<a><!--\ud800--></a>", "U+D800 in comment", 8),
        ("<a><?pi x\ufffe?></a>", "U+FFFE in processing instruction", 10),
        ("<?pi \x1f?><a/>", "U+001F in processing instruction", 6),
        ("<a><![CDATA[x\x00]]></a>", "U+0000 in CDATA section", 14),
    ])
    def test_illegal_character_in_comment_pi_and_cdata(self, text, what,
                                                       column):
        with pytest.raises(XMLSyntaxError) as info:
            parse(text)
        assert info.value.message == f"illegal character {what}"
        assert (info.value.line, info.value.column) == (1, column)

    def test_pi_target_with_colon_rejected_under_namespaces(self):
        with pytest.raises(XMLNamespaceError) as info:
            parse("<a>\n<?x:y data?></a>")
        assert info.value.message == \
            "processing-instruction target 'x:y' contains a colon"
        assert (info.value.line, info.value.column) == (2, 1)
        pi = parse("<a><?x:y data?></a>", namespaces=False) \
            .root_element.children[0]
        assert (pi.target, pi.data) == ("x:y", "data")

    def test_prolog_comment_and_pi(self):
        doc = parse("<!-- hi --><?p d?><a/>")
        assert [c.kind for c in doc.children] == \
            ["comment", "processing-instruction", "element"]

    def test_cdata_end_in_text_rejected(self):
        with pytest.raises(XMLSyntaxError, match="]]>"):
            parse("<a>x ]]> y</a>")


class TestLineEndNormalization:
    def test_crlf_normalized(self):
        doc = parse("<a>line1\r\nline2</a>")
        assert doc.root_element.text_content() == "line1\nline2"

    def test_lone_cr_normalized(self):
        doc = parse("<a>line1\rline2</a>")
        assert doc.root_element.text_content() == "line1\nline2"

    def test_attribute_whitespace_normalized(self):
        doc = parse('<a x="a\n b\tc"/>')
        assert doc.root_element.get_attribute("x") == "a  b c"


class TestNamespaceWellFormedness:
    def test_declared_prefix_ok(self):
        doc = parse('<p:a xmlns:p="urn:x"/>')
        assert doc.root_element.namespace_uri == "urn:x"

    def test_undeclared_element_prefix_rejected(self):
        with pytest.raises(XMLNamespaceError, match="undeclared"):
            parse("<p:a/>")

    def test_undeclared_attribute_prefix_rejected(self):
        with pytest.raises(XMLNamespaceError):
            parse('<a p:x="1"/>')

    def test_inherited_declaration(self):
        doc = parse('<a xmlns:p="urn:x"><p:b/></a>')
        assert doc.root_element.find("p:b").namespace_uri == "urn:x"

    def test_duplicate_expanded_attribute_rejected(self):
        with pytest.raises(XMLNamespaceError, match="duplicate"):
            parse('<a xmlns:p="urn:x" xmlns:q="urn:x" p:x="1" q:x="2"/>')

    def test_xmlns_prefix_cannot_be_declared(self):
        with pytest.raises(XMLSyntaxError):
            parse('<a xmlns:xmlns="urn:x"/>')

    def test_xml_prefix_cannot_be_rebound(self):
        with pytest.raises(XMLSyntaxError):
            parse('<a xmlns:xml="urn:x"/>')

    def test_namespaces_can_be_disabled(self):
        doc = parse("<p:a/>", namespaces=False)
        assert doc.root_element.name == "p:a"


class TestBytesInput:
    def test_utf8_bytes(self):
        doc = parse("<a>héllo</a>".encode("utf-8"))
        assert doc.root_element.text_content() == "héllo"

    def test_utf8_bom(self):
        doc = parse(b"\xef\xbb\xbf<a/>")
        assert doc.root_element.name == "a"

    def test_declared_latin1(self):
        data = '<?xml version="1.0" encoding="ISO-8859-1"?><a>café</a>'
        doc = parse(data.encode("latin-1"))
        assert doc.root_element.text_content() == "café"

    def test_utf16_le_bom(self):
        doc = parse("<a>x</a>".encode("utf-16"))
        assert doc.root_element.text_content() == "x"

    @pytest.mark.parametrize("data", [
        b"\xef\xbb\xbf\xef\xbb\xbf<a/>",
        "\ufeff<a/>".encode("utf-16"),
        "\ufeff<a/>".encode("utf-16-be").join((b"\xfe\xff", b"")),
    ])
    def test_second_bom_rejected(self, data):
        with pytest.raises(XMLSyntaxError, match="expected document element"):
            parse(data)

    def test_one_bom_stripped_from_a_string(self):
        assert parse("\ufeff<a/>").root_element.name == "a"
        with pytest.raises(XMLSyntaxError):
            parse("\ufeff\ufeff<a/>")

    def test_bytes_invalid_in_their_encoding_are_a_syntax_error(self):
        with pytest.raises(XMLSyntaxError,
                           match="not valid utf-8 at byte 17"):
            parse(b'<goldmodel name="\xff"/>')

    def test_unknown_encoding_is_a_syntax_error(self):
        with pytest.raises(XMLSyntaxError, match="unknown encoding 'bogus'"):
            parse(b'<?xml version="1.0" encoding="bogus"?><a/>')
