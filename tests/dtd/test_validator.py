"""DTD validity checking and the DTD/XSD expressiveness gap."""

import pytest

from repro.dtd import parse_dtd, validate_dtd
from repro.xml import parse

DTD = parse_dtd("""
<!ELEMENT m (d+, u*)>
<!ATTLIST m name CDATA #REQUIRED>
<!ELEMENT d EMPTY>
<!ATTLIST d id ID #REQUIRED kind (x|y) "x">
<!ELEMENT u (#PCDATA)>
<!ATTLIST u ref IDREF #REQUIRED refs IDREFS #IMPLIED>
""")


def check(xml, dtd=DTD):
    return validate_dtd(parse(xml), dtd)


class TestContent:
    def test_valid(self):
        assert check('<m name="n"><d id="a"/><u ref="a">t</u></m>').valid

    def test_sequence_violation(self):
        report = check('<m name="n"><u ref="a"/><d id="a"/></m>')
        assert not report.valid

    def test_empty_element_with_content(self):
        report = check('<m name="n"><d id="a">text</d></m>')
        assert any("EMPTY" in e.message for e in report.errors)

    def test_undeclared_element(self):
        report = check('<m name="n"><d id="a"/><zz/></m>')
        assert any("not declared" in e.message for e in report.errors)

    def test_pcdata_allows_text(self):
        assert check('<m name="n"><d id="a"/><u ref="a">words</u></m>').valid

    def test_text_in_element_content(self):
        report = check('<m name="n">stray<d id="a"/></m>')
        assert any("character data" in e.message for e in report.errors)

    @pytest.mark.parametrize("space", [" \t\r\n", ""])
    def test_xml_white_space_ignored_in_element_content(self, space):
        assert check(f'<m name="n">{space}<d id="a"/>{space}</m>').valid

    @pytest.mark.parametrize("space", ["\u00a0", "\u2028", "\u3000"])
    def test_other_unicode_spaces_are_character_data(self, space):
        # Only #x20, #x9, #xD and #xA are white space in XML; U+00A0
        # and the other Unicode spaces are content.
        dtd = parse_dtd("<!ELEMENT r (c*)><!ELEMENT c EMPTY>")
        report = validate_dtd(parse(f"<r>{space}<c/></r>"), dtd)
        assert [e.message for e in report.errors] == [
            "element <r> has element content but contains character data"]

    def test_mixed_content_names(self):
        dtd = parse_dtd("<!ELEMENT p (#PCDATA | b)*><!ELEMENT b EMPTY>")
        assert validate_dtd(parse("<p>x<b/>y</p>"), dtd).valid
        report = validate_dtd(parse("<p>x<i/></p>"), dtd)
        assert not report.valid

    def test_any_content(self):
        dtd = parse_dtd("<!ELEMENT a ANY><!ELEMENT b EMPTY>")
        assert validate_dtd(parse("<a>text<b/></a>"), dtd).valid

    def test_doctype_name_mismatch(self):
        report = validate_dtd(
            parse('<!DOCTYPE other><m name="n"><d id="a"/></m>'), DTD)
        assert any("DOCTYPE" in e.message for e in report.errors)


class TestAttributes:
    def test_required_missing(self):
        report = check("<m><d id='a'/></m>")
        assert any("required attribute 'name'" in e.message
                   for e in report.errors)

    def test_undeclared_attribute(self):
        report = check('<m name="n"><d id="a" zz="1"/></m>')
        assert any("not declared" in e.message for e in report.errors)

    def test_enumeration(self):
        report = check('<m name="n"><d id="a" kind="z"/></m>')
        assert any("not in" in e.message for e in report.errors)

    def test_default_applied(self):
        document = parse('<m name="n"><d id="a"/></m>')
        validate_dtd(document, DTD)
        assert document.root_element.find("d").get_attribute("kind") == "x"

    def test_fixed_value(self):
        dtd = parse_dtd('<!ELEMENT a EMPTY>'
                        '<!ATTLIST a v CDATA #FIXED "1">')
        report = validate_dtd(parse('<a v="2"/>'), dtd)
        assert any("fixed" in e.message for e in report.errors)

    def test_duplicate_id(self):
        report = check('<m name="n"><d id="a"/><d id="a"/></m>')
        assert any("duplicate ID" in e.message for e in report.errors)

    def test_dangling_idref(self):
        report = check('<m name="n"><d id="a"/><u ref="zz"/></m>')
        assert any("IDREF" in e.message for e in report.errors)

    def test_idrefs_each_checked(self):
        report = check(
            '<m name="n"><d id="a"/><u ref="a" refs="a zz"/></m>')
        assert any("'zz'" in e.message for e in report.errors)

    def test_idrefs_split_only_on_xml_white_space(self):
        ok = check('<m name="n"><d id="a"/><d id="b"/>'
                   '<u ref="a" refs="a\t b"/></m>')
        assert ok.valid, [e.message for e in ok.errors]
        # U+00A0 is not white space: "a\xa0b" is one dangling IDREF.
        report = check('<m name="n"><d id="a"/><d id="b"/>'
                       '<u ref="a" refs="a\xa0b"/></m>')
        assert any(repr("a\xa0b") in e.message for e in report.errors)

    def test_id_flag_set(self):
        document = parse('<m name="n"><d id="a"/></m>')
        validate_dtd(document, DTD)
        d = document.root_element.find("d")
        assert d.get_attribute_node("id").is_id


class TestExpressivenessGap:
    """The §3.1 motivation: what DTDs accept but XML Schema rejects."""

    def test_untyped_dates_pass_dtd(self):
        dtd = parse_dtd('<!ELEMENT a EMPTY>'
                        '<!ATTLIST a when CDATA #IMPLIED>')
        assert validate_dtd(parse('<a when="not-a-date"/>'), dtd).valid

    def test_idref_is_unselective(self):
        # An IDREF pointing at an ID of the *wrong element kind* passes.
        dtd = parse_dtd("""
        <!ELEMENT m (f, d)>
        <!ELEMENT f EMPTY><!ATTLIST f id ID #REQUIRED>
        <!ELEMENT d EMPTY><!ATTLIST d id ID #REQUIRED ref IDREF #IMPLIED>
        """)
        document = parse('<m><f id="f1"/><d id="d1" ref="f1"/></m>')
        assert validate_dtd(document, dtd).valid


class TestContentModelReuse:
    def test_group_with_occurrence(self):
        dtd = parse_dtd("<!ELEMENT a ((b, c)+)><!ELEMENT b EMPTY>"
                        "<!ELEMENT c EMPTY>")
        assert validate_dtd(parse("<a><b/><c/><b/><c/></a>"), dtd).valid
        assert not validate_dtd(parse("<a><b/><c/><b/></a>"), dtd).valid

    def test_optional_star_plus(self):
        dtd = parse_dtd("<!ELEMENT a (b?, c*, d+)><!ELEMENT b EMPTY>"
                        "<!ELEMENT c EMPTY><!ELEMENT d EMPTY>")
        assert validate_dtd(parse("<a><d/></a>"), dtd).valid
        assert validate_dtd(parse("<a><b/><c/><c/><d/><d/></a>"),
                            dtd).valid
        assert not validate_dtd(parse("<a><b/></a>"), dtd).valid
