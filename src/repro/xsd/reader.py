"""Reading schema documents (``.xsd`` files) into Schema objects.

The reader accepts the feature set the paper's ``goldmodel.xsd`` uses,
plus list/union simple types and ``xsd:all`` for headroom:

* Russian-doll (inline anonymous) and flat (named, top-level) styles,
* ``sequence`` / ``choice`` / ``all`` groups with ``minOccurs`` /
  ``maxOccurs``,
* element ``ref=`` to global declarations,
* restriction facets, ``simpleContent`` extensions,
* ``key`` / ``keyref`` / ``unique`` with ``selector`` / ``field``.

Named type references are resolved lazily with cycle detection, so types
may be declared in any order — as in real schema documents.
"""

from __future__ import annotations

from ..xml.chars import split_xml_space
from ..xml.dom import Document, Element
from ..xml.parser import parse as parse_xml
from .components import (
    AttributeDecl,
    ComplexType,
    ElementDecl,
    IdentityConstraint,
    ModelGroup,
    Particle,
)
from .datatypes import BUILTIN_TYPES
from .errors import SchemaError
from .facets import (
    Enumeration,
    FractionDigits,
    Length,
    MaxExclusive,
    MaxInclusive,
    MaxLength,
    MinExclusive,
    MinInclusive,
    MinLength,
    Pattern,
    TotalDigits,
)
from .schema import Schema
from .simpletypes import ListType, SimpleType, UnionType, builtin_simple_type

__all__ = ["read_schema", "read_schema_file", "XSD_NAMESPACE"]

XSD_NAMESPACE = "http://www.w3.org/2001/XMLSchema"

_BOUND_FACETS = {
    "minInclusive": MinInclusive,
    "maxInclusive": MaxInclusive,
    "minExclusive": MinExclusive,
    "maxExclusive": MaxExclusive,
}

_LENGTH_FACETS = {
    "length": Length,
    "minLength": MinLength,
    "maxLength": MaxLength,
    "totalDigits": TotalDigits,
    "fractionDigits": FractionDigits,
}


def read_schema(source: str | bytes | Document) -> Schema:
    """Parse a schema document (text or parsed DOM) into a Schema."""
    document = source if isinstance(source, Document) else parse_xml(source)
    return _Reader(document).read()


def read_schema_file(path) -> Schema:
    """Read a schema from the ``.xsd`` file at *path*."""
    with open(path, "rb") as handle:
        return read_schema(handle.read())


class _Reader:
    def __init__(self, document: Document) -> None:
        root = document.root_element
        if root is None:
            raise SchemaError("schema document has no root element")
        if root.local_name != "schema":
            raise SchemaError(
                f"expected an <xsd:schema> root, found <{root.name}>")
        if root.namespace_uri not in (XSD_NAMESPACE, None):
            raise SchemaError(
                f"unexpected schema namespace {root.namespace_uri!r}")
        self.root = root
        self.target_namespace = root.get_attribute("targetNamespace")
        # Raw DOM nodes of named definitions, resolved lazily.
        self._raw_types: dict[str, Element] = {}
        self._raw_elements: dict[str, Element] = {}
        self._resolved_types: dict[str, ComplexType | SimpleType | ListType |
                                   UnionType] = {}
        self._resolved_elements: dict[str, ElementDecl] = {}
        self._resolving: set[str] = set()

    # -- helpers ---------------------------------------------------------------

    def _xsd_children(self, element: Element, *names: str) -> list[Element]:
        wanted = set(names)
        return [
            child for child in element.children
            if isinstance(child, Element) and child.local_name in wanted
            and child.namespace_uri in (XSD_NAMESPACE, None)
        ]

    def _first(self, element: Element, *names: str) -> Element | None:
        found = self._xsd_children(element, *names)
        return found[0] if found else None

    @staticmethod
    def _occurs(element: Element) -> tuple[int, int | None]:
        low_text = element.get_attribute("minOccurs", "1")
        high_text = element.get_attribute("maxOccurs", "1")
        try:
            low = int(low_text)
        except ValueError:
            raise SchemaError(f"invalid minOccurs {low_text!r}") from None
        if high_text == "unbounded":
            return low, None
        try:
            high = int(high_text)
        except ValueError:
            raise SchemaError(f"invalid maxOccurs {high_text!r}") from None
        return low, high

    # -- entry -------------------------------------------------------------------

    def read(self) -> Schema:
        documentation = self._read_documentation(self.root)
        for child in self._xsd_children(self.root, "simpleType",
                                        "complexType"):
            name = child.get_attribute("name")
            if not name:
                raise SchemaError("top-level types must be named")
            if name in self._raw_types:
                raise SchemaError(f"duplicate type definition {name!r}")
            self._raw_types[name] = child
        for child in self._xsd_children(self.root, "element"):
            name = child.get_attribute("name")
            if not name:
                raise SchemaError("top-level elements must be named")
            if name in self._raw_elements:
                raise SchemaError(f"duplicate element declaration {name!r}")
            self._raw_elements[name] = child

        elements = {
            name: self._resolve_element(name)
            for name in self._raw_elements
        }
        types = {
            name: self._resolve_type(name) for name in self._raw_types
        }
        return Schema(elements=elements, types=types,
                      target_namespace=self.target_namespace,
                      documentation=documentation)

    def _read_documentation(self, element: Element) -> str | None:
        annotation = self._first(element, "annotation")
        if annotation is None:
            return None
        documentation = self._first(annotation, "documentation")
        return documentation.text_content().strip() if documentation else None

    # -- named resolution ----------------------------------------------------------

    def _resolve_type(self, name: str):
        if name in self._resolved_types:
            return self._resolved_types[name]
        if name in self._resolving:
            raise SchemaError(f"circular type definition {name!r}")
        raw = self._raw_types.get(name)
        if raw is None:
            raise SchemaError(f"reference to undefined type {name!r}")
        self._resolving.add(name)
        try:
            if raw.local_name == "simpleType":
                resolved = self._read_simple_type(raw, name=name)
            else:
                resolved = self._read_complex_type(raw, name=name)
        finally:
            self._resolving.discard(name)
        self._resolved_types[name] = resolved
        return resolved

    def _resolve_element(self, name: str) -> ElementDecl:
        if name in self._resolved_elements:
            return self._resolved_elements[name]
        raw = self._raw_elements.get(name)
        if raw is None:
            raise SchemaError(
                f"reference to undefined global element {name!r}")
        # Pre-register a placeholder so recursive content models terminate.
        placeholder = ElementDecl(name)
        self._resolved_elements[name] = placeholder
        declared = self._read_element(raw)
        placeholder.type = declared.type
        placeholder.nillable = declared.nillable
        placeholder.constraints = declared.constraints
        return placeholder

    def _lookup_type_ref(self, ref: str):
        local = ref.split(":", 1)[-1]
        if local in BUILTIN_TYPES and local not in self._raw_types:
            return builtin_simple_type(local)
        return self._resolve_type(local)

    # -- element declarations ---------------------------------------------------------

    def _read_element(self, node: Element) -> ElementDecl:
        ref = node.get_attribute("ref")
        if ref:
            return self._resolve_element(ref.split(":", 1)[-1])
        name = node.get_attribute("name")
        if not name:
            raise SchemaError("element declaration requires @name or @ref")

        type_ref = node.get_attribute("type")
        inline_complex = self._first(node, "complexType")
        inline_simple = self._first(node, "simpleType")
        if sum(bool(x) for x in (type_ref, inline_complex,
                                 inline_simple)) > 1:
            raise SchemaError(
                f"element {name!r} has conflicting type definitions")

        etype = None
        if type_ref:
            etype = self._lookup_type_ref(type_ref)
        elif inline_complex is not None:
            etype = self._read_complex_type(inline_complex)
        elif inline_simple is not None:
            etype = self._read_simple_type(inline_simple)

        constraints = [
            self._read_identity_constraint(child)
            for child in self._xsd_children(node, "key", "keyref", "unique")
        ]
        nillable = node.get_attribute("nillable") == "true"
        return ElementDecl(name, etype, nillable=nillable,
                           constraints=constraints)

    def _read_identity_constraint(self, node: Element) -> IdentityConstraint:
        name = node.get_attribute("name")
        if not name:
            raise SchemaError("identity constraints must be named")
        selector = self._first(node, "selector")
        if selector is None or not selector.get_attribute("xpath"):
            raise SchemaError(
                f"identity constraint {name!r} needs a <selector xpath=...>")
        fields = [
            field.get_attribute("xpath") or ""
            for field in self._xsd_children(node, "field")
        ]
        if not all(fields):
            raise SchemaError(
                f"identity constraint {name!r} has a field without @xpath")
        refer = node.get_attribute("refer")
        return IdentityConstraint(
            kind=node.local_name,
            name=name,
            selector=selector.get_attribute("xpath") or "",
            fields=fields,
            refer=refer.split(":", 1)[-1] if refer else None,
        )

    # -- complex types -------------------------------------------------------------------

    def _read_complex_type(self, node: Element,
                           name: str | None = None) -> ComplexType:
        mixed = node.get_attribute("mixed") == "true"
        attributes = [
            self._read_attribute(child)
            for child in self._xsd_children(node, "attribute")
        ]

        simple_content = self._first(node, "simpleContent")
        if simple_content is not None:
            return self._read_simple_content(simple_content, attributes,
                                             name, mixed)

        group = self._first(node, "sequence", "choice", "all")
        content = self._read_group_particle(group) if group is not None \
            else None
        return ComplexType(name=name, attributes=attributes, content=content,
                           mixed=mixed)

    def _read_simple_content(self, node: Element,
                             attributes: list[AttributeDecl],
                             name: str | None, mixed: bool) -> ComplexType:
        extension = self._first(node, "extension", "restriction")
        if extension is None:
            raise SchemaError("simpleContent needs extension or restriction")
        base_ref = extension.get_attribute("base")
        if not base_ref:
            raise SchemaError("simpleContent extension requires @base")
        base = self._lookup_type_ref(base_ref)
        if isinstance(base, ComplexType):
            raise SchemaError(
                "simpleContent base must be a simple type in this subset")
        attributes = attributes + [
            self._read_attribute(child)
            for child in self._xsd_children(extension, "attribute")
        ]
        return ComplexType(name=name, attributes=attributes,
                           simple_content=base, mixed=mixed)

    def _read_group_particle(self, node: Element) -> Particle:
        low, high = self._occurs(node)
        group = ModelGroup(node.local_name, [])
        for child in self._xsd_children(node, "element", "sequence",
                                        "choice", "all", "any"):
            if child.local_name == "element":
                clow, chigh = self._occurs(child)
                decl = self._read_element(child)
                group.particles.append(Particle(decl, clow, chigh))
            elif child.local_name == "any":
                from .components import AnyWildcard

                clow, chigh = self._occurs(child)
                group.particles.append(Particle(AnyWildcard(), clow, chigh))
            else:
                group.particles.append(self._read_group_particle(child))
        return Particle(group, low, high)

    def _read_attribute(self, node: Element) -> AttributeDecl:
        name = node.get_attribute("name")
        if not name:
            raise SchemaError("attribute declaration requires @name")
        type_ref = node.get_attribute("type")
        inline = self._first(node, "simpleType")
        if type_ref and inline is not None:
            raise SchemaError(
                f"attribute {name!r} has both @type and inline simpleType")
        if type_ref:
            atype = self._lookup_type_ref(type_ref)
            if isinstance(atype, ComplexType):
                raise SchemaError(
                    f"attribute {name!r} cannot have a complex type")
        elif inline is not None:
            atype = self._read_simple_type(inline)
        else:
            atype = builtin_simple_type("string")
        return AttributeDecl(
            name=name,
            type=atype,
            use=node.get_attribute("use", "optional") or "optional",
            default=node.get_attribute("default"),
            fixed=node.get_attribute("fixed"),
        )

    # -- simple types ---------------------------------------------------------------------

    def _read_simple_type(self, node: Element, name: str | None = None):
        restriction = self._first(node, "restriction")
        list_node = self._first(node, "list")
        union_node = self._first(node, "union")

        if restriction is not None:
            return self._read_restriction(restriction, name)
        if list_node is not None:
            item_ref = list_node.get_attribute("itemType")
            if item_ref:
                item = self._lookup_type_ref(item_ref)
            else:
                inline = self._first(list_node, "simpleType")
                if inline is None:
                    raise SchemaError("xsd:list needs itemType or inline type")
                item = self._read_simple_type(inline)
            return ListType(item_type=item, name=name)
        if union_node is not None:
            member_refs = split_xml_space(
                union_node.get_attribute("memberTypes") or "")
            members = [self._lookup_type_ref(ref) for ref in member_refs]
            members.extend(
                self._read_simple_type(inline)
                for inline in self._xsd_children(union_node, "simpleType"))
            if not members:
                raise SchemaError("xsd:union needs at least one member type")
            return UnionType(member_types=members, name=name)
        raise SchemaError(
            "simpleType needs restriction, list, or union")

    def _read_restriction(self, node: Element,
                          name: str | None) -> SimpleType:
        base_ref = node.get_attribute("base")
        if base_ref:
            base = self._lookup_type_ref(base_ref)
        else:
            inline = self._first(node, "simpleType")
            if inline is None:
                raise SchemaError("restriction needs @base or inline type")
            base = self._read_simple_type(inline)
        if isinstance(base, ComplexType):
            raise SchemaError("cannot restrict a complex type here")

        facets = []
        enum_values: list[str] = []
        for child in self._xsd_children(
                node, "enumeration", "pattern", "length", "minLength",
                "maxLength", "minInclusive", "maxInclusive", "minExclusive",
                "maxExclusive", "totalDigits", "fractionDigits",
                "whiteSpace"):
            value = child.get_attribute("value")
            if value is None:
                raise SchemaError(
                    f"facet {child.local_name} requires @value")
            kind = child.local_name
            if kind == "enumeration":
                enum_values.append(value)
            elif kind == "pattern":
                facets.append(Pattern(value))
            elif kind in _LENGTH_FACETS:
                facets.append(_LENGTH_FACETS[kind](int(value)))
            elif kind in _BOUND_FACETS:
                typed = self._typed_bound(base, value, kind)
                facets.append(_BOUND_FACETS[kind](typed))
            # whiteSpace: the primitive's policy already applies; the
            # goldmodel schema never overrides it.
        if enum_values:
            facets.insert(0, Enumeration(tuple(enum_values)))
        return SimpleType(base=base, facets=facets, name=name)

    @staticmethod
    def _typed_bound(base, value: str, facet_name: str):
        try:
            return base.validate(value)
        except ValueError as exc:
            raise SchemaError(
                f"facet {facet_name} value {value!r} is not valid for the "
                f"base type: {exc}") from None
