"""Instance validation: elements, attributes, IDs, defaults."""

import pytest

from repro.xml import parse
from repro.xsd import SchemaBuilder, validate
from repro.xsd.facets import Enumeration


@pytest.fixture()
def schema():
    b = SchemaBuilder()
    flag = b.enumeration("string", ["on", "off"], name="Flag")
    item = b.element("item", b.complex_type(
        content=b.sequence(b.particle(b.element("note", "string"), 0, 1)),
        attributes=[
            b.attribute("id", "ID", use="required"),
            b.attribute("ref", "IDREF"),
            b.attribute("state", flag, default="off"),
            b.attribute("locked", "string", fixed="yes"),
            b.attribute("year", "gYear"),
        ]))
    root = b.element("items", b.complex_type(
        content=b.sequence(b.particle(item, 0, None)),
        attributes=[b.attribute("name", "string", use="required")]))
    return b.build(root)


def check(schema, xml):
    return validate(parse(xml), schema)


class TestElementStructure:
    def test_valid_document(self, schema):
        report = check(schema, '<items name="n"><item id="a"/></items>')
        assert report.valid

    def test_unknown_root(self, schema):
        report = check(schema, "<wrong/>")
        assert not report.valid
        assert "not declared" in report.errors[0].message

    def test_unexpected_child(self, schema):
        report = check(schema, '<items name="n"><oops/></items>')
        assert any("unexpected element" in e.message
                   for e in report.errors)

    def test_text_in_element_only_content(self, schema):
        report = check(schema, '<items name="n">words</items>')
        assert any("character data" in e.message for e in report.errors)

    def test_whitespace_text_tolerated(self, schema):
        report = check(schema,
                       '<items name="n">\n  <item id="a"/>\n</items>')
        assert report.valid

    @pytest.mark.parametrize("space", ["\u00a0", "\u2028", "\u3000"])
    def test_other_unicode_spaces_are_character_data(self, space):
        # Only #x20, #x9, #xD and #xA are ignorable in element-only
        # content; U+00A0 and the other Unicode spaces are content.
        b = SchemaBuilder()
        root = b.element("r", b.complex_type(content=b.sequence(
            b.particle(b.element("c", b.complex_type()), 0, None))))
        report = check(b.build(root), f"<r>{space}<c/></r>")
        assert [(e.code, e.message) for e in report.errors] == [
            ("cvc-complex-type.2.3",
             "element <r> has element-only content but contains character "
             "data")]

    def test_other_unicode_space_in_empty_content(self):
        b = SchemaBuilder()
        root = b.element("r", b.complex_type())
        report = check(b.build(root), "<r>\u00a0</r>")
        assert [e.code for e in report.errors] == ["cvc-complex-type.2.1"]

    def test_nested_errors_still_reported(self, schema):
        # Both the missing name AND the nested bad attribute show up.
        report = check(
            schema, '<items><item id="a" year="never"/></items>')
        messages = " | ".join(e.message for e in report.errors)
        assert "name" in messages and "year" in messages


class TestAttributes:
    def test_required_missing(self, schema):
        report = check(schema, '<items name="n"><item/></items>')
        assert any("required attribute 'id'" in e.message
                   for e in report.errors)

    def test_undeclared_rejected(self, schema):
        report = check(schema,
                       '<items name="n"><item id="a" zz="1"/></items>')
        assert any("not declared" in e.message for e in report.errors)

    def test_enumeration_checked(self, schema):
        report = check(schema,
                       '<items name="n"><item id="a" state="maybe"/>'
                       "</items>")
        assert any("enumeration" in e.message for e in report.errors)

    def test_default_applied(self, schema):
        document = parse('<items name="n"><item id="a"/></items>')
        assert validate(document, schema).valid
        item = document.root_element.find("item")
        assert item.get_attribute("state") == "off"
        assert not item.get_attribute_node("state").specified

    def test_fixed_applied_when_absent(self, schema):
        document = parse('<items name="n"><item id="a"/></items>')
        validate(document, schema)
        assert document.root_element.find("item") \
            .get_attribute("locked") == "yes"

    def test_fixed_violation(self, schema):
        report = check(schema,
                       '<items name="n"><item id="a" locked="no"/>'
                       "</items>")
        assert any("fixed" in e.message for e in report.errors)

    def test_typed_attribute(self, schema):
        report = check(schema,
                       '<items name="n"><item id="a" year="20x2"/>'
                       "</items>")
        assert any("gYear" in e.message or "year" in e.message
                   for e in report.errors)


class TestIdsAndIdrefs:
    def test_duplicate_id(self, schema):
        report = check(schema, '<items name="n"><item id="a"/>'
                               '<item id="a"/></items>')
        assert any("duplicate ID" in e.message for e in report.errors)

    def test_dangling_idref(self, schema):
        report = check(schema, '<items name="n">'
                               '<item id="a" ref="zzz"/></items>')
        assert any("IDREF" in e.message for e in report.errors)

    def test_valid_idref(self, schema):
        report = check(schema, '<items name="n"><item id="a" ref="b"/>'
                               '<item id="b"/></items>')
        assert report.valid

    def test_id_attribute_flagged_on_node(self, schema):
        document = parse('<items name="n"><item id="a"/></items>')
        validate(document, schema)
        item = document.root_element.find("item")
        assert item.get_attribute_node("id").is_id


class TestSimpleContent:
    def test_simple_typed_element(self):
        b = SchemaBuilder()
        root = b.element("count", "integer")
        schema = b.build(root)
        assert validate(parse("<count>42</count>"), schema).valid
        report = validate(parse("<count>4.5</count>"), schema)
        assert not report.valid

    def test_simple_element_rejects_children(self):
        b = SchemaBuilder()
        schema = b.build(b.element("count", "integer"))
        report = validate(parse("<count><x/>1</count>"), schema)
        assert any("child elements" in e.message for e in report.errors)

    def test_complex_with_simple_content(self):
        b = SchemaBuilder()
        from repro.xsd.simpletypes import builtin_simple_type

        root = b.element("price", b.complex_type(
            simple_content=builtin_simple_type("decimal"),
            attributes=[b.attribute("currency", "string")]))
        schema = b.build(root)
        assert validate(
            parse('<price currency="EUR">9.99</price>'), schema).valid
        assert not validate(parse("<price>cheap</price>"), schema).valid

    def test_empty_content_type(self):
        b = SchemaBuilder()
        schema = b.build(b.element(
            "void", b.complex_type(attributes=[b.attribute("x")])))
        assert validate(parse('<void x="1"/>'), schema).valid
        report = validate(parse("<void><nope/></void>"), schema)
        assert any("must be empty" in e.message for e in report.errors)


class TestReportApi:
    def test_bool_and_str(self, schema):
        good = check(schema, '<items name="n"/>')
        assert bool(good) and str(good) == "valid (no issues)"
        bad = check(schema, "<items/>")
        assert not bool(bad)
        assert "[error]" in str(bad)

    def test_warning_does_not_invalidate(self):
        from repro.xsd.errors import ValidationReport

        report = ValidationReport()
        report.add("just a note", severity="warning")
        assert report.valid
        assert len(report.warnings) == 1
