"""DOM tree construction, navigation, and document order."""

import pytest

from repro.xml.dom import (
    Attribute,
    Comment,
    Document,
    Element,
    NamespaceNode,
    ProcessingInstruction,
    Text,
    sort_document_order,
)
from repro.xml.errors import DOMError


def build_sample():
    doc = Document()
    root = doc.append_child(Element("root"))
    root.set_attribute("id", "r")
    first = root.append_child(Element("first"))
    first.append_child(Text("hello "))
    first.append_child(Text("world"))
    second = root.append_child(Element("second"))
    second.set_attribute("x", "1")
    second.set_attribute("y", "2")
    return doc, root, first, second


class TestTreeManipulation:
    def test_append_sets_parent(self):
        doc, root, first, second = build_sample()
        assert first.parent is root
        assert root.parent is doc

    def test_document_property(self):
        doc, root, first, second = build_sample()
        assert first.document is doc
        assert doc.document is doc

    def test_root_property(self):
        doc, root, first, second = build_sample()
        assert first.root is doc

    def test_detached_root(self):
        element = Element("lonely")
        assert element.document is None
        assert element.root is element

    def test_second_root_element_rejected(self):
        doc, *_ = build_sample()
        with pytest.raises(DOMError):
            doc.append_child(Element("another"))

    def test_text_at_document_level_rejected(self):
        doc = Document()
        with pytest.raises(DOMError):
            doc.append_child(Text("stray"))

    def test_comment_and_pi_at_document_level_allowed(self):
        doc = Document()
        doc.append_child(Comment("c"))
        doc.append_child(ProcessingInstruction("pi", "data"))
        doc.append_child(Element("root"))
        assert len(doc.children) == 3

    def test_insert_into_itself_rejected(self):
        doc, root, first, second = build_sample()
        with pytest.raises(DOMError):
            first.append_child(root)

    def test_attribute_not_insertable_as_child(self):
        doc, root, *_ = build_sample()
        with pytest.raises(DOMError):
            root.append_child(Attribute("a", "1"))

    def test_insert_before(self):
        doc, root, first, second = build_sample()
        middle = Element("middle")
        root.insert_before(middle, second)
        assert [c.name for c in root.children] == \
            ["first", "middle", "second"]

    def test_insert_before_bad_reference(self):
        doc, root, first, second = build_sample()
        with pytest.raises(DOMError):
            root.insert_before(Element("x"), Element("not-a-child"))

    def test_remove_child(self):
        doc, root, first, second = build_sample()
        root.remove_child(first)
        assert first.parent is None
        assert root.children == [second]

    def test_reparenting_moves_node(self):
        doc, root, first, second = build_sample()
        second.append_child(first)
        assert first.parent is second
        assert first not in root.children

    def test_invalid_element_name_rejected(self):
        with pytest.raises(DOMError):
            Element("1bad")

    def test_invalid_attribute_name_rejected(self):
        with pytest.raises(DOMError):
            Attribute("bad name", "v")


class TestAttributes:
    def test_set_get(self):
        element = Element("e")
        element.set_attribute("a", "1")
        assert element.get_attribute("a") == "1"
        assert element.get_attribute("missing") is None
        assert element.get_attribute("missing", "dflt") == "dflt"

    def test_set_replaces(self):
        element = Element("e")
        element.set_attribute("a", "1")
        element.set_attribute("a", "2")
        assert element.get_attribute("a") == "2"
        assert len(element.attributes) == 1

    def test_has_and_remove(self):
        element = Element("e")
        element.set_attribute("a", "1")
        assert element.has_attribute("a")
        element.remove_attribute("a")
        assert not element.has_attribute("a")
        element.remove_attribute("a")  # removing twice is a no-op

    def test_attribute_node_parent(self):
        element = Element("e")
        attr = element.set_attribute("a", "1")
        assert attr.parent is element


class TestNamespaces:
    def test_lookup_walks_ancestors(self):
        root = Element("root")
        root.declare_namespace("p", "urn:one")
        child = Element("p:child")
        root.append_child(child)
        assert child.lookup_namespace("p") == "urn:one"
        assert child.namespace_uri == "urn:one"
        assert child.prefix == "p"
        assert child.local_name == "child"

    def test_default_namespace(self):
        root = Element("root")
        root.declare_namespace("", "urn:default")
        assert root.namespace_uri == "urn:default"

    def test_default_namespace_undeclared(self):
        root = Element("root")
        root.declare_namespace("", "urn:default")
        child = Element("child")
        root.append_child(child)
        child.declare_namespace("", "")
        assert child.namespace_uri is None

    def test_xml_prefix_implicit(self):
        element = Element("e")
        assert element.lookup_namespace("xml") == \
            "http://www.w3.org/XML/1998/namespace"

    def test_unprefixed_attribute_has_no_namespace(self):
        root = Element("root")
        root.declare_namespace("", "urn:default")
        attr = root.set_attribute("a", "1")
        assert attr.namespace_uri is None

    def test_prefixed_attribute_namespace(self):
        root = Element("root")
        root.declare_namespace("p", "urn:one")
        attr = root.set_attribute("p:a", "1")
        assert attr.namespace_uri == "urn:one"

    def test_in_scope_namespaces(self):
        root = Element("root")
        root.declare_namespace("a", "urn:a")
        child = Element("child")
        root.append_child(child)
        child.declare_namespace("b", "urn:b")
        scope = child.in_scope_namespaces()
        assert scope["a"] == "urn:a"
        assert scope["b"] == "urn:b"
        assert "xml" in scope


class TestStringValues:
    def test_element_string_value_concatenates_descendants(self):
        doc, root, first, second = build_sample()
        assert first.string_value() == "hello world"
        assert root.string_value() == "hello world"

    def test_attribute_string_value(self):
        assert Attribute("a", "v").string_value() == "v"

    def test_comment_and_pi(self):
        assert Comment("c").string_value() == "c"
        assert ProcessingInstruction("t", "d").string_value() == "d"


class TestDocumentOrder:
    def test_children_in_order(self):
        doc, root, first, second = build_sample()
        nodes = [second, first, root]
        ordered = sort_document_order(nodes)
        assert ordered == [root, first, second]

    def test_attributes_after_element_before_children(self):
        doc, root, first, second = build_sample()
        attr = second.get_attribute_node("x")
        ordered = sort_document_order([first, attr, second])
        assert ordered == [first, second, attr]

    def test_attribute_order_stable(self):
        doc, root, first, second = build_sample()
        x = second.get_attribute_node("x")
        y = second.get_attribute_node("y")
        assert sort_document_order([y, x]) == [x, y]

    def test_duplicates_removed(self):
        doc, root, first, second = build_sample()
        assert sort_document_order([first, first, root]) == [root, first]

    def test_namespace_nodes_before_attributes(self):
        doc, root, first, second = build_sample()
        ns = NamespaceNode("p", "urn:x", second)
        attr = second.get_attribute_node("x")
        assert sort_document_order([attr, ns]) == [ns, attr]


class TestTraversal:
    def test_iter_descendants(self):
        doc, root, first, second = build_sample()
        kinds = [n.kind for n in root.iter_descendants()]
        assert kinds == ["element", "text", "text", "element"]

    def test_iter_elements(self):
        doc, root, first, second = build_sample()
        assert list(doc.iter_elements()) == [root, first, second]

    def test_find_and_find_all(self):
        doc, root, first, second = build_sample()
        assert root.find("second") is second
        assert root.find("missing") is None
        assert root.find_all("first") == [first]

    def test_text_content(self):
        doc, root, first, second = build_sample()
        assert root.text_content() == "hello world"


def _slots(cls) -> list[str]:
    return [name for klass in cls.__mro__
            for name in getattr(klass, "__slots__", ())]


class TestParserConstructors:
    """``Element.parsed`` / ``Attribute.parsed`` skip the name checks but
    must set every field ``__init__`` sets, to the same value."""

    def test_element_fields_match_init(self):
        parent = Element("p")
        built = Element("e", line=3, column=7)
        built.parent = parent
        parsed = Element.parsed("e", 3, 7, parent)
        for name in _slots(Element):
            assert getattr(parsed, name) == getattr(built, name), name

    @pytest.mark.parametrize("name", ["a", "xmlns", "xmlns:p", "p:a"])
    def test_attribute_fields_match_init(self, name):
        owner = Element("e")
        built = Attribute(name, "v", line=2, column=5)
        built.parent = owner
        parsed = Attribute.parsed(name, "v", 2, 5, owner,
                                  built.is_namespace_decl)
        for slot in _slots(Attribute):
            assert getattr(parsed, slot) == getattr(built, slot), slot
