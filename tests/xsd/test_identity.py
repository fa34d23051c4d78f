"""xsd:key / xsd:keyref / xsd:unique identity constraints."""

import pytest

from repro.xml import parse
from repro.xml.dom import Element
from repro.xpath import Context, XPathEvaluator
from repro.xpath.parser import parse_xpath
from repro.xsd import SchemaBuilder, validate
from repro.xsd.validator import _child_path_trie, _select_child_paths


def make_schema(constraints):
    b = SchemaBuilder()
    dim = b.element("dim", b.complex_type(attributes=[
        b.attribute("id", "string", use="required"),
        b.attribute("region", "string"),
    ]))
    use = b.element("use", b.complex_type(attributes=[
        b.attribute("dim", "string", use="required"),
        b.attribute("region", "string"),
    ]))
    root = b.element("m", b.complex_type(
        content=b.sequence(b.particle(dim, 0, None),
                           b.particle(use, 0, None))),
        constraints=constraints)
    return b.build(root)


def builder():
    return SchemaBuilder()


class TestKey:
    def test_key_uniqueness(self):
        schema = make_schema([
            builder().key("k", "dim", ["@id"])])
        good = parse('<m><dim id="a"/><dim id="b"/></m>')
        assert validate(good, schema).valid
        dup = parse('<m><dim id="a"/><dim id="a"/></m>')
        report = validate(dup, schema)
        assert any("duplicate" in e.message for e in report.errors)

    def test_key_requires_field(self):
        schema = make_schema([builder().key("k", "dim", ["@id"])])
        missing = parse("<m><dim/></m>")
        report = validate(missing, schema)
        # The missing required attribute also fails, but the key check
        # must flag the absent field specifically.
        assert any("selects nothing" in e.message for e in report.errors)

    def test_composite_key(self):
        schema = make_schema([
            builder().key("k", "dim", ["@id", "@region"])])
        ok = parse('<m><dim id="a" region="es"/>'
                   '<dim id="a" region="fr"/></m>')
        assert not any("duplicate" in e.message
                       for e in validate(ok, schema).errors)
        dup = parse('<m><dim id="a" region="es"/>'
                    '<dim id="a" region="es"/></m>')
        assert any("duplicate" in e.message
                   for e in validate(dup, schema).errors)


class TestKeyref:
    def test_resolves(self):
        schema = make_schema([
            builder().key("k", "dim", ["@id"]),
            builder().keyref("r", "use", ["@dim"], refer="k")])
        good = parse('<m><dim id="a"/><use dim="a"/></m>')
        assert validate(good, schema).valid

    def test_dangling(self):
        schema = make_schema([
            builder().key("k", "dim", ["@id"]),
            builder().keyref("r", "use", ["@dim"], refer="k")])
        bad = parse('<m><dim id="a"/><use dim="zzz"/></m>')
        report = validate(bad, schema)
        assert any("keyref" in e.message for e in report.errors)

    def test_selective_vs_idref(self):
        # A keyref only accepts values from ITS key — not any identifier
        # in the document.  This is the §3.1 improvement over DTDs.
        schema = make_schema([
            builder().key("k", "dim", ["@id"]),
            builder().keyref("r", "use", ["@dim"], refer="k")])
        # 'u1' exists as a use/@dim value but not as a dim/@id.
        bad = parse('<m><dim id="a"/><use dim="u1"/></m>')
        assert not validate(bad, schema).valid

    def test_unknown_refer(self):
        schema = make_schema([
            builder().keyref("r", "use", ["@dim"], refer="ghost")])
        report = validate(parse('<m><use dim="a"/></m>'), schema)
        assert any("unknown key" in e.message for e in report.errors)

    def test_keyref_with_missing_field_is_skipped(self):
        schema = make_schema([
            builder().key("k", "dim", ["@id"]),
            builder().keyref("r", "use", ["@region"], refer="k")])
        doc = parse('<m><dim id="a"/><use dim="x"/></m>')
        # use/@region absent → the keyref row is simply not checked.
        assert not any("keyref" in e.message
                       for e in validate(doc, schema).errors)


class TestKeyrefToUnique:
    """XSD 1.0 Part 1 §3.11.1: a keyref may refer to a key or a unique."""

    def schema(self):
        b = SchemaBuilder()
        item = b.element("item", b.complex_type(attributes=[
            b.attribute("id", "string"), b.attribute("ref", "string")]))
        root = b.element("r", b.complex_type(
            content=b.sequence(b.particle(item, 0, None))),
            constraints=[b.unique("u", "item", ["@id"]),
                         b.keyref("kr", "item", ["@ref"], refer="u")])
        return b.build(root)

    def test_resolves_against_unique(self):
        doc = parse('<r><item id="a"/><item ref="a"/></r>')
        report = validate(doc, self.schema())
        assert report.valid, str(report)

    def test_dangling_reference_to_unique(self):
        doc = parse('<r><item id="a"/><item ref="b"/></r>')
        report = validate(doc, self.schema())
        assert [(e.code, e.message, e.path) for e in report.errors] == [
            ("cvc-identity-constraint.4.3",
             "keyref 'kr': value 'b' (at /r/item[2]) does not match any u "
             "key", "/r/item[2]")]


class TestKeyrefScope:
    """XSD 1.0 Part 1 §3.11.5: a keyref on element E sees the rows of the
    key declared on E and those propagated up from E's descendants."""

    def schema(self):
        b = SchemaBuilder()
        item = b.element("item", b.complex_type(attributes=[
            b.attribute("id", "string"), b.attribute("ref", "string")]))
        group = b.element("g", b.complex_type(
            content=b.sequence(b.particle(item, 0, None))),
            constraints=[b.key("k", "item", ["@id"]),
                         b.keyref("kr", "item", ["@ref"], refer="k")])
        link = b.element("link", b.complex_type(attributes=[
            b.attribute("to", "string", use="required")]))
        root = b.element("top", b.complex_type(
            content=b.sequence(b.particle(group, 0, None),
                               b.particle(link, 0, None))),
            constraints=[b.keyref("up", "link", ["@to"], refer="k")])
        return b.build(root)

    def test_reference_within_its_scope(self):
        doc = parse('<top><g><item id="a"/><item id="b" ref="a"/></g>'
                    '<g><item id="a" ref="a"/></g></top>')
        assert validate(doc, self.schema()).valid

    def test_reference_into_a_sibling_scope_fails(self):
        doc = parse('<top><g><item id="a"/></g>'
                    '<g><item id="b" ref="a"/></g></top>')
        report = validate(doc, self.schema())
        assert [(e.code, e.message, e.path) for e in report.errors] == [
            ("cvc-identity-constraint.4.3",
             "keyref 'kr': value 'a' (at /top/g[2]/item[1]) does not match "
             "any k key", "/top/g[2]/item[1]")]

    def test_rows_propagate_up_from_descendants(self):
        doc = parse('<top><g><item id="a"/></g><g><item id="b"/></g>'
                    '<link to="a"/><link to="b"/></top>')
        assert validate(doc, self.schema()).valid

    def test_row_in_two_children_does_not_propagate(self):
        # 'a' is a key value in both groups, so it is ambiguous at <top>.
        doc = parse('<top><g><item id="a"/></g><g><item id="a"/></g>'
                    '<link to="a"/></top>')
        report = validate(doc, self.schema())
        assert [(e.code, e.path) for e in report.errors] == [
            ("cvc-identity-constraint.4.3", "/top/link[1]")]


class TestChildPathSelectors:
    """A selector made of child paths of unprefixed names is walked
    directly; the walk selects what the XPath evaluator selects, in the
    same order."""

    DOCUMENTS = [
        "<m><a><b/><c/></a><a><b/></a><c/></m>",
        '<m xmlns="urn:d"><a><b/></a></m>',
        '<m xmlns="urn:d"><a xmlns=""><b/></a><a/></m>',
        '<m><a xmlns="urn:d"><b xmlns=""/></a><a><b/></a></m>',
        '<m xmlns:p="urn:p"><p:a><b/></p:a><a><p:b/><b/></a></m>',
    ]
    SELECTORS = ["a", "a/b", "a | a/b", " a / b | c ", "a/b | a",
                 "c | a/c | a/b", "b"]

    def check(self, root):
        for selector in self.SELECTORS:
            walked = []
            _select_child_paths(root, _child_path_trie(selector),
                                root.lookup_namespace(""), walked)
            expected = XPathEvaluator().evaluate_node_set(
                parse_xpath(selector), Context(node=root))
            assert [id(n) for n in walked] == [id(n) for n in expected], \
                selector

    def test_walk_selects_what_xpath_selects(self):
        for xml in self.DOCUMENTS:
            self.check(parse(xml).root_element)

    def test_unbound_prefix(self):
        # Only a DOM edit can make one: XPath's unprefixed name test
        # matches it, since its namespace is None.
        root = parse("<m><a/></m>").root_element
        root.append_child(Element("q:a"))
        self.check(root)

    def test_other_shapes_go_through_the_evaluator(self):
        for selector in (".//a", "*", "a[1]", "p:a", "/m/a", "a//b", "@id",
                         "child::a", ".", "a/.", ""):
            assert _child_path_trie(selector) is None, selector


class TestUnique:
    def test_unique_allows_absent(self):
        schema = make_schema([
            builder().unique("u", "dim", ["@region"])])
        doc = parse('<m><dim id="a"/><dim id="b"/></m>')
        assert validate(doc, schema).valid

    def test_unique_detects_duplicates(self):
        schema = make_schema([
            builder().unique("u", "dim", ["@region"])])
        doc = parse('<m><dim id="a" region="es"/>'
                    '<dim id="b" region="es"/></m>')
        report = validate(doc, schema)
        assert any("unique" in e.message for e in report.errors)


class TestUnionSelectors:
    def test_union_selector_key(self):
        b = SchemaBuilder()
        a = b.element("a", b.complex_type(
            attributes=[b.attribute("id", "string", use="required")]))
        c = b.element("c", b.complex_type(
            attributes=[b.attribute("id", "string", use="required")]))
        root = b.element("m", b.complex_type(
            content=b.sequence(b.particle(a, 0, None),
                               b.particle(c, 0, None))),
            constraints=[b.key("k", "a | c", ["@id"])])
        schema = b.build(root)
        dup = parse('<m><a id="x"/><c id="x"/></m>')
        assert any("duplicate" in e.message
                   for e in validate(dup, schema).errors)


class TestConstraintConstruction:
    def test_keyref_needs_refer(self):
        with pytest.raises(ValueError):
            SchemaBuilder().keyref("r", "x", ["@y"], refer="")

    def test_fields_required(self):
        from repro.xsd.components import IdentityConstraint

        with pytest.raises(ValueError):
            IdentityConstraint("key", "k", "x", [])

    def test_bad_kind(self):
        from repro.xsd.components import IdentityConstraint

        with pytest.raises(ValueError):
            IdentityConstraint("primary", "k", "x", ["@y"])
