"""The schema quality checker (IBM SQC stand-in)."""

from repro.mdm import gold_schema
from repro.xsd import SchemaBuilder, check_schema


class TestUpa:
    def test_ambiguous_content_model_flagged(self):
        b = SchemaBuilder()
        root = b.element("m", b.complex_type(
            content=b.sequence(
                b.particle(b.element("a"), 0, 1),
                b.particle(b.element("a"), 1, 1))))
        report = check_schema(b.build(root))
        assert any("Unique Particle Attribution" in e.message
                   for e in report.errors)

    def test_clean_model_passes(self):
        b = SchemaBuilder()
        root = b.element("m", b.complex_type(
            content=b.sequence(b.particle(b.element("a"), 0, None))))
        assert check_schema(b.build(root)).valid


class TestIdentityConstraints:
    def test_dangling_keyref(self):
        b = SchemaBuilder()
        root = b.element("m", b.complex_type(), constraints=[
            b.keyref("r", "x", ["@y"], refer="ghost")])
        report = check_schema(b.build(root))
        assert any("undefined key" in e.message for e in report.errors)

    def test_field_count_mismatch(self):
        b = SchemaBuilder()
        root = b.element("m", b.complex_type(), constraints=[
            b.key("k", "x", ["@a", "@b"]),
            b.keyref("r", "y", ["@a"], refer="k")])
        report = check_schema(b.build(root))
        assert any("field(s)" in e.message for e in report.errors)

    def test_keyref_may_refer_to_unique(self):
        # XSD 1.0 Part 1 §3.11.1: the referenced constraint is a key or
        # a unique.
        b = SchemaBuilder()
        root = b.element("m", b.complex_type(), constraints=[
            b.unique("u", "x", ["@a"]),
            b.keyref("r", "y", ["@a"], refer="u")])
        assert check_schema(b.build(root)).valid

    def test_keyref_to_unique_field_count_mismatch(self):
        b = SchemaBuilder()
        root = b.element("m", b.complex_type(), constraints=[
            b.unique("u", "x", ["@a"]),
            b.keyref("r", "y", ["@a", "@b"], refer="u")])
        report = check_schema(b.build(root))
        assert [e.message for e in report.errors] == [
            "keyref 'r' has 2 field(s) but key 'u' has 1"]

    def test_duplicate_constraint_names(self):
        b = SchemaBuilder()
        root = b.element("m", b.complex_type(), constraints=[
            b.key("k", "x", ["@a"]),
            b.unique("k", "y", ["@b"])])
        report = check_schema(b.build(root))
        assert any("duplicate identity constraint" in e.message
                   for e in report.errors)


class TestAttributes:
    def test_invalid_default_value(self):
        b = SchemaBuilder()
        root = b.element("m", b.complex_type(attributes=[
            b.attribute("when", "date", default="soonish")]))
        report = check_schema(b.build(root))
        assert any("invalid default" in e.message for e in report.errors)

    def test_id_with_default_rejected(self):
        b = SchemaBuilder()
        root = b.element("m", b.complex_type(attributes=[
            b.attribute("id", "ID", default="x")]))
        report = check_schema(b.build(root))
        assert any("ID attribute" in e.message for e in report.errors)

    def test_duplicate_attribute_names(self):
        b = SchemaBuilder()
        root = b.element("m", b.complex_type(attributes=[
            b.attribute("x"), b.attribute("x")]))
        report = check_schema(b.build(root))
        assert any("duplicate attribute" in e.message
                   for e in report.errors)


class TestStructuralWarnings:
    def test_empty_type_warning(self):
        b = SchemaBuilder()
        root = b.element("m", b.complex_type())
        report = check_schema(b.build(root))
        assert report.valid
        assert any("empty complex type" in w.message
                   for w in report.warnings)

    def test_unused_named_type_warning(self):
        b = SchemaBuilder()
        b.enumeration("string", ["x"], name="Orphan")
        root = b.element("m", b.complex_type(attributes=[b.attribute("a")]))
        report = check_schema(b.build(root))
        assert any("never used" in w.message for w in report.warnings)

    def test_inconsistent_element_declarations(self):
        b = SchemaBuilder()
        type_one = b.complex_type(attributes=[b.attribute("x")])
        type_two = b.complex_type(attributes=[b.attribute("y")])
        root = b.element("m", b.complex_type(content=b.sequence(
            b.particle(b.element("item", type_one), 0, 1),
            b.particle(b.element("other", b.complex_type(
                content=b.sequence(
                    b.particle(b.element("item", type_two))))), 0, 1))))
        # 'item' appears twice with different types — but in different
        # scopes, which is legal; only same-scope conflicts are errors.
        report = check_schema(b.build(root))
        assert not any("declared twice" in e.message
                       for e in report.errors)

    def test_same_scope_conflict_detected(self):
        b = SchemaBuilder()
        type_one = b.complex_type(attributes=[b.attribute("x")])
        type_two = b.complex_type(attributes=[b.attribute("y")])
        root = b.element("m", b.complex_type(content=b.sequence(
            b.particle(b.element("item", type_one), 0, 1),
            b.particle(b.element("item", type_two), 0, 1))))
        report = check_schema(b.build(root))
        assert any("declared twice" in e.message for e in report.errors)


class TestGoldSchema:
    def test_goldmodel_schema_is_clean(self):
        # The generated schema must satisfy its own quality checker, as
        # the paper validated goldmodel.xsd with IBM SQC (§3.2).
        report = check_schema(gold_schema())
        assert report.valid
        assert not report.warnings
