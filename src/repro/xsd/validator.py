"""Instance-document validation against a :class:`~repro.xsd.schema.Schema`.

This is the stand-in for Apache Xerces in the paper's toolchain (§3.2):
given a parsed document and a schema it checks

* element structure against compiled content automata,
* attribute presence, types, defaults and fixed values,
* ID uniqueness and IDREF resolution (document-wide),
* ``xsd:key`` / ``xsd:unique`` / ``xsd:keyref`` identity constraints —
  the selective references §3.1 highlights as the advantage over DTDs.

All problems are collected into a :class:`ValidationReport` rather than
stopping at the first, which is what a CASE tool needs to show users every
modelling mistake at once.
"""

from __future__ import annotations

from ..faults import FAULTS as _FAULTS
from ..faults import fault_point as _fault_point
from ..obs.recorder import RECORDER as _REC
from ..xml.chars import split_xml_space
from ..xml.dom import Attribute, Document, Element, Node
from ..xpath import Context, XPathEvaluator
from ..xpath.parser import parse_xpath
from .components import (
    AttributeDecl,
    ComplexType,
    ElementDecl,
    IdentityConstraint,
)
from .content import has_significant_text, significant_text
from .errors import ValidationReport
from .schema import Schema
from .simpletypes import AnySimpleType

__all__ = ["validate", "SchemaValidator"]

_VALIDATE_FAULT = _fault_point(
    "xsd.validate", "raise/delay at the start of a schema validation "
                    "(validator.py)")


def validate(document: Document | Element, schema: Schema) -> ValidationReport:
    """Validate *document* against *schema* and return the report."""
    return SchemaValidator(schema).validate(document)


class SchemaValidator:
    """A reusable validator bound to one schema."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._xpath = XPathEvaluator()

    # -- entry -------------------------------------------------------------

    def validate(self, document: Document | Element) -> ValidationReport:
        """Validate a document (or a detached element) and report issues."""
        if _FAULTS.enabled:
            _FAULTS.hit(_VALIDATE_FAULT)
        report = ValidationReport()
        root = document.root_element if isinstance(document, Document) \
            else document
        if root is None:
            report.add("document has no root element")
            return report

        decl = self.schema.elements.get(root.name)
        if decl is None:
            expected = ", ".join(sorted(self.schema.elements))
            report.add(
                f"root element <{root.name}> is not declared; expected one "
                f"of: {expected}", path=f"/{root.name}",
                line=root.line, code="cvc-elt.1")
            return report

        ids: dict[str, str] = {}
        idrefs: list[tuple[str, str, int | None]] = []
        with _REC.span("xsd.validate", root=root.name):
            self._validate_element(root, decl, f"/{root.name}", report, ids,
                                   idrefs)
            if _REC.enabled and idrefs:
                _REC.count("xsd.check:idref", len(idrefs))
            for value, path, line in idrefs:
                if value not in ids:
                    if _REC.enabled:
                        _REC.count("xsd.fail:idref")
                    report.add(
                        f"IDREF {value!r} does not match any ID in the "
                        f"document", path=path, line=line, code="cvc-id.1")
            self._check_identity_constraints(root, decl, report)
        return report

    # -- element validation -----------------------------------------------------

    def _validate_element(self, element: Element, decl: ElementDecl,
                          path: str, report: ValidationReport,
                          ids: dict[str, str],
                          idrefs: list[tuple[str, str, int | None]]) -> None:
        if _REC.enabled:
            _REC.count("xsd.check:element")
        nil = element.get_attribute("xsi:nil")
        if nil == "true":
            if not decl.nillable:
                report.add(
                    f"element <{element.name}> is not nillable",
                    path=path, line=element.line, code="cvc-elt.3.1")
            elif any(child.kind in ("element", "text")
                     for child in element.children):
                report.add(
                    f"element <{element.name}> is nil but has content",
                    path=path, line=element.line, code="cvc-elt.3.2.1")
            return
        etype = decl.type
        if etype is None:
            # anyType: anything goes, but still track IDs in the subtree.
            return
        if isinstance(etype, ComplexType):
            self._validate_complex(element, etype, path, report, ids, idrefs)
        else:
            # Simple-type element: no attributes, no element children.
            for attr in element.attributes:
                if not _is_namespace_decl(attr) and \
                        not attr.name.startswith("xsi:"):
                    report.add(
                        f"element <{element.name}> of simple type cannot "
                        f"have attribute {attr.name!r}", path=path,
                        line=element.line, code="cvc-type.3.1.1")
            children = [c for c in element.children if isinstance(c, Element)]
            if children:
                report.add(
                    f"element <{element.name}> of simple type cannot have "
                    "child elements", path=path, line=element.line,
                    code="cvc-type.3.1.2")
            self._check_simple_value(
                element.text_content(), etype,
                f"content of <{element.name}>", path, element.line,
                report, ids, idrefs)

    def _validate_complex(self, element: Element, ctype: ComplexType,
                          path: str, report: ValidationReport,
                          ids: dict[str, str],
                          idrefs: list[tuple[str, str, int | None]]) -> None:
        self._validate_attributes(element, ctype, path, report, ids, idrefs)

        children = [c for c in element.children if isinstance(c, Element)]

        if ctype.simple_content is not None:
            if children:
                report.add(
                    f"element <{element.name}> has simple content but "
                    "contains child elements", path=path, line=element.line,
                    code="cvc-complex-type.2.2")
            else:
                self._check_simple_value(
                    significant_text(element), ctype.simple_content,
                    f"content of <{element.name}>", path, element.line,
                    report, ids, idrefs)
            return

        if ctype.content is None:
            if children:
                report.add(
                    f"element <{element.name}> must be empty but has child "
                    "elements", path=path, line=element.line,
                    code="cvc-complex-type.2.1")
            if has_significant_text(element) and not ctype.mixed:
                report.add(
                    f"element <{element.name}> must be empty but has "
                    "character data", path=path, line=element.line,
                    code="cvc-complex-type.2.1")
            return

        if has_significant_text(element) and not ctype.mixed:
            report.add(
                f"element <{element.name}> has element-only content but "
                "contains character data", path=path, line=element.line,
                code="cvc-complex-type.2.3")

        automaton = self.schema.automaton_for(ctype)
        assert automaton is not None
        problem = automaton.validate(children)
        if problem is not None:
            report.add(
                f"in <{element.name}>: {problem}", path=path,
                line=element.line, code="cvc-complex-type.2.4")

        # Recurse into children that have a matching declaration even if the
        # overall sequence failed — nested errors are still worth reporting.
        sibling_index: dict[str, int] = {}
        for child in children:
            ordinal = sibling_index.get(child.name, 0) + 1
            sibling_index[child.name] = ordinal
            child_path = f"{path}/{child.name}[{ordinal}]"
            child_decl = automaton.matching_decl(child.name)
            if child_decl is not None:
                self._validate_element(child, child_decl, child_path,
                                       report, ids, idrefs)

    def _validate_attributes(self, element: Element, ctype: ComplexType,
                             path: str, report: ValidationReport,
                             ids: dict[str, str],
                             idrefs: list[tuple[str, str, int | None]]
                             ) -> None:
        present = {
            attr.name: attr for attr in element.attributes
            if not _is_namespace_decl(attr)
        }
        for decl in ctype.attributes:
            attr = present.pop(decl.name, None)
            if attr is None:
                if decl.use == "required":
                    report.add(
                        f"required attribute {decl.name!r} is missing on "
                        f"<{element.name}>", path=path, line=element.line,
                        code="cvc-complex-type.4")
                elif decl.default is not None or decl.fixed is not None:
                    default = decl.fixed if decl.fixed is not None \
                        else decl.default
                    added = element.set_attribute(decl.name, default)
                    added.specified = False
                continue
            if decl.use == "prohibited":
                report.add(
                    f"attribute {decl.name!r} is prohibited on "
                    f"<{element.name}>", path=path, line=attr.line,
                    code="cvc-complex-type.4.1")
                continue
            if decl.fixed is not None and \
                    decl.type.normalize(attr.value) != \
                    decl.type.normalize(decl.fixed):
                report.add(
                    f"attribute {decl.name!r} must have the fixed value "
                    f"{decl.fixed!r}, got {attr.value!r}", path=path,
                    line=attr.line, code="cvc-au")
            self._check_simple_value(
                attr.value, decl.type, f"attribute {decl.name!r}", path,
                attr.line, report, ids, idrefs, attr_node=attr)
        for leftover in present.values():
            if leftover.name.startswith("xsi:"):
                continue
            report.add(
                f"attribute {leftover.name!r} is not declared on "
                f"<{element.name}>", path=path, line=leftover.line,
                code="cvc-complex-type.3.2.2")

    def _check_simple_value(self, text: str, stype, what: str, path: str,
                            line: int | None, report: ValidationReport,
                            ids: dict[str, str],
                            idrefs: list[tuple[str, str, int | None]],
                            attr_node: Attribute | None = None) -> None:
        if _REC.enabled:
            _REC.count("xsd.check:simple-value")
        try:
            stype.validate(text)
        except ValueError as exc:
            if _REC.enabled:
                _REC.count("xsd.fail:datatype")
            report.add(f"{what}: {exc}", path=path, line=line,
                       code="cvc-datatype-valid")
            return
        id_kind = getattr(stype, "id_kind", None)
        if id_kind == "ID":
            value = stype.normalize(text)
            if attr_node is not None:
                attr_node.is_id = True
            if value in ids:
                if _REC.enabled:
                    _REC.count("xsd.fail:id")
                report.add(
                    f"duplicate ID {value!r} (first used at {ids[value]})",
                    path=path, line=line, code="cvc-id.2")
            else:
                ids[value] = path
        elif id_kind == "IDREF":
            idrefs.append((stype.normalize(text), path, line))
        elif id_kind == "IDREFS":
            for token in split_xml_space(stype.normalize(text)):
                idrefs.append((token, path, line))

    # -- identity constraints ------------------------------------------------------

    def _check_identity_constraints(self, root: Element, root_decl: ElementDecl,
                                    report: ValidationReport) -> None:
        # Collect the scope elements for every declaration with constraints.
        scopes = self._constraint_scopes(root, root_decl)
        key_tables: dict[str, set[tuple[str, ...]]] = {}

        # Keys and uniques first, so keyrefs can refer to them.
        for element, constraint, path in scopes:
            if constraint.kind in ("key", "unique"):
                rows = self._evaluate_constraint(
                    element, constraint, path, report)
                if constraint.kind == "key":
                    key_tables.setdefault(constraint.name, set()).update(
                        row for row, _ in rows)

        for element, constraint, path in scopes:
            if constraint.kind != "keyref":
                continue
            rows = self._evaluate_constraint(element, constraint, path,
                                             report, allow_missing=True)
            target = key_tables.get(constraint.refer or "")
            if target is None:
                report.add(
                    f"keyref {constraint.name!r} refers to unknown key "
                    f"{constraint.refer!r}", path=path,
                    code="cvc-identity-constraint.4.3")
                continue
            for value, node in rows:
                if value not in target:
                    if _REC.enabled:
                        _REC.count("xsd.fail:keyref")
                    shown = value[0] if len(value) == 1 else value
                    where = self._instance_path(node)
                    report.add(
                        f"keyref {constraint.name!r}: value {shown!r} (at "
                        f"{where}) does not match any {constraint.refer} "
                        f"key", path=where,
                        line=getattr(node, "line", None),
                        code="cvc-identity-constraint.4.3")

    def _constraint_scopes(self, root: Element, root_decl: ElementDecl):
        scopes: list[tuple[Element, IdentityConstraint, str]] = []
        # Walk the instance tree alongside the schema's declarations.
        def walk(element: Element, decl: ElementDecl, path: str) -> None:
            for constraint in decl.constraints:
                scopes.append((element, constraint, path))
            etype = decl.type
            if not isinstance(etype, ComplexType) or etype.content is None:
                return
            automaton = self.schema.automaton_for(etype)
            if automaton is None:
                return
            ordinal: dict[str, int] = {}
            for child in element.children:
                if not isinstance(child, Element):
                    continue
                number = ordinal.get(child.name, 0) + 1
                ordinal[child.name] = number
                child_decl = automaton.matching_decl(child.name)
                if child_decl is not None:
                    walk(child, child_decl,
                         f"{path}/{child.name}[{number}]")

        walk(root, root_decl, f"/{root.name}")
        return scopes

    def _evaluate_constraint(self, scope: Element,
                             constraint: IdentityConstraint, path: str,
                             report: ValidationReport,
                             allow_missing: bool = False
                             ) -> list[tuple[tuple[str, ...], Node]]:
        if _REC.enabled:
            _REC.count(f"xsd.check:{constraint.kind}")
        selector = parse_xpath(constraint.selector)
        context = Context(node=scope)
        try:
            selected = self._xpath.evaluate_node_set(selector, context)
        except Exception as exc:  # pragma: no cover - schema authoring error
            report.add(
                f"identity constraint {constraint.name!r}: selector "
                f"{constraint.selector!r} failed: {exc}", path=path)
            return []

        # Rows carry the node they came from, so every diagnostic below
        # (and the keyref check in the caller) can name the offending
        # node instead of just the constraint's scope.
        table: list[tuple[tuple[str, ...], Node]] = []
        seen: dict[tuple[str, ...], str] = {}
        for node in selected:
            where = self._instance_path(node)
            values: list[str] = []
            missing = False
            for field_expr in constraint.fields:
                field_ast = parse_xpath(field_expr)
                result = self._xpath.evaluate(field_ast,
                                              Context(node=node))
                nodes = result if isinstance(result, list) else []
                if not nodes:
                    missing = True
                    if not allow_missing and constraint.kind == "key":
                        report.add(
                            f"key {constraint.name!r}: field "
                            f"{field_expr!r} selects nothing for "
                            f"{where}", path=where,
                            line=getattr(node, "line", None),
                            code="cvc-identity-constraint.4.2.1")
                    break
                values.append(nodes[0].string_value())
            if missing:
                continue
            row = tuple(values)
            if row in seen and constraint.kind in ("key", "unique"):
                if _REC.enabled:
                    _REC.count(f"xsd.fail:{constraint.kind}")
                shown = row[0] if len(row) == 1 else row
                report.add(
                    f"{constraint.kind} {constraint.name!r}: duplicate "
                    f"value {shown!r} at {where} (first at {seen[row]})",
                    path=where, line=getattr(node, "line", None),
                    code="cvc-identity-constraint.4.1")
            else:
                seen[row] = where
            table.append((row, node))
        return table

    @staticmethod
    def _instance_path(node: Node) -> str:
        """A ``/root/child[2]/…`` locator for any node of the instance.

        Ordinals count same-named element siblings, matching the paths
        the structural validation phase reports; attribute nodes get an
        ``/@name`` suffix.
        """
        suffix = ""
        if isinstance(node, Attribute):
            suffix = f"/@{node.name}"
            node = node.parent  # type: ignore[assignment]
        parts: list[str] = []
        current = node
        while isinstance(current, Element):
            parent = current.parent
            if isinstance(parent, Element):
                siblings = [c for c in parent.children
                            if isinstance(c, Element) and
                            c.name == current.name]
                ordinal = next(
                    i for i, s in enumerate(siblings, 1) if s is current)
                parts.append(f"{current.name}[{ordinal}]")
            else:
                parts.append(current.name)
            current = parent
        return "/" + "/".join(reversed(parts)) + suffix


def _is_namespace_decl(attr: Attribute) -> bool:
    return attr.name == "xmlns" or attr.name.startswith("xmlns:")
