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
from ..xml.chars import is_ncname, split_xml_space, strip_xml_space
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
                if not attr.is_namespace_decl and \
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
            self._check_simple_value(element.text_content(), etype, element,
                                     path, report, ids, idrefs)

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
                    significant_text(element), ctype.simple_content, element,
                    path, report, ids, idrefs)
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
            if not attr.is_namespace_decl
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
            self._check_simple_value(attr.value, decl.type, attr, path,
                                     report, ids, idrefs)
        for leftover in present.values():
            if leftover.name.startswith("xsi:"):
                continue
            report.add(
                f"attribute {leftover.name!r} is not declared on "
                f"<{element.name}>", path=path, line=leftover.line,
                code="cvc-complex-type.3.2.2")

    def _check_simple_value(self, text: str, stype,
                            node: Attribute | Element, path: str,
                            report: ValidationReport, ids: dict[str, str],
                            idrefs: list[tuple[str, str, int | None]]
                            ) -> None:
        """Check *text*, the value of attribute *node* or the content of
        element *node*, against *stype*; track IDs and IDREFs."""
        if _REC.enabled:
            _REC.count("xsd.check:simple-value")
        line = node.line
        try:
            lexical, _ = stype.check(text)
        except ValueError as exc:
            if _REC.enabled:
                _REC.count("xsd.fail:datatype")
            what = f"attribute {node.name!r}" \
                if isinstance(node, Attribute) else f"content of <{node.name}>"
            report.add(f"{what}: {exc}", path=path, line=line,
                       code="cvc-datatype-valid")
            return
        id_kind = stype.id_kind
        if id_kind is None:
            return
        if id_kind == "ID":
            if isinstance(node, Attribute):
                node.is_id = True
            if lexical in ids:
                if _REC.enabled:
                    _REC.count("xsd.fail:id")
                report.add(
                    f"duplicate ID {lexical!r} (first used at "
                    f"{ids[lexical]})", path=path, line=line,
                    code="cvc-id.2")
            else:
                ids[lexical] = path
        elif id_kind == "IDREF":
            idrefs.append((lexical, path, line))
        elif id_kind == "IDREFS":
            for token in split_xml_space(lexical):
                idrefs.append((token, path, line))

    # -- identity constraints ------------------------------------------------------

    def _check_identity_constraints(self, root: Element, root_decl: ElementDecl,
                                    report: ValidationReport) -> None:
        # Collect the scope elements for every declaration with constraints.
        scopes = self._constraint_scopes(root, root_decl)
        # The rows of every key and unique, by name and scope element.
        tables: dict[str, dict[Element, set[tuple[str, ...]]]] = {}

        # Keys and uniques first, so keyrefs can refer to them.
        for element, constraint in scopes:
            if constraint.kind != "keyref":
                rows = self._evaluate_constraint(element, constraint, report)
                tables.setdefault(constraint.name, {}).setdefault(
                    element, set()).update(row for row, _ in rows)

        referable = self.schema.referable_constraints()
        for element, constraint in scopes:
            if constraint.kind != "keyref":
                continue
            rows = self._evaluate_constraint(element, constraint, report,
                                             allow_missing=True)
            if constraint.refer not in referable:
                report.add(
                    f"keyref {constraint.name!r} refers to unknown key "
                    f"{constraint.refer!r}",
                    path=self._instance_path(element),
                    code="cvc-identity-constraint.4.3")
                continue
            target = _key_table(element, tables.get(constraint.refer, {}))
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

    def _constraint_scopes(self, root: Element, root_decl: ElementDecl
                           ) -> list[tuple[Element, IdentityConstraint]]:
        scopes: list[tuple[Element, IdentityConstraint]] = []
        # Walk the instance tree alongside the schema's declarations.
        def walk(element: Element, decl: ElementDecl) -> None:
            for constraint in decl.constraints:
                scopes.append((element, constraint))
            etype = decl.type
            if not isinstance(etype, ComplexType) or etype.content is None:
                return
            automaton = self.schema.automaton_for(etype)
            for child in element.children:
                if isinstance(child, Element):
                    child_decl = automaton.matching_decl(child.name)
                    if child_decl is not None:
                        walk(child, child_decl)

        walk(root, root_decl)
        return scopes

    def _evaluate_constraint(self, scope: Element,
                             constraint: IdentityConstraint,
                             report: ValidationReport,
                             allow_missing: bool = False
                             ) -> list[tuple[tuple[str, ...], Node]]:
        if _REC.enabled:
            _REC.count(f"xsd.check:{constraint.kind}")
        trie = _child_path_trie(constraint.selector)
        if trie is not None:
            selected: list[Node] = []
            _select_child_paths(scope, trie, scope.lookup_namespace(""),
                                selected)
        else:
            selector = parse_xpath(constraint.selector)
            context = Context(node=scope)
            try:
                selected = self._xpath.evaluate_node_set(selector, context)
            except Exception as exc:  # pragma: no cover - schema error
                report.add(
                    f"identity constraint {constraint.name!r}: selector "
                    f"{constraint.selector!r} failed: {exc}",
                    path=self._instance_path(scope))
                return []

        # Rows carry the node they came from, so every diagnostic below
        # (and the keyref check in the caller) can name the offending
        # node instead of just the constraint's scope.  The node's path
        # is built only when a diagnostic names it.
        fields = [(expr, self._field_reader(expr))
                  for expr in constraint.fields]
        report_missing = not allow_missing and constraint.kind == "key"
        report_duplicates = constraint.kind != "keyref"
        table: list[tuple[tuple[str, ...], Node]] = []
        seen: dict[tuple[str, ...], Node] = {}
        for node in selected:
            values: list[str] = []
            for field_expr, read in fields:
                value = read(node)
                if value is None:
                    if report_missing:
                        where = self._instance_path(node)
                        report.add(
                            f"key {constraint.name!r}: field "
                            f"{field_expr!r} selects nothing for "
                            f"{where}", path=where,
                            line=getattr(node, "line", None),
                            code="cvc-identity-constraint.4.2.1")
                    break
                values.append(value)
            else:
                row = tuple(values)
                first = seen.get(row)
                if first is None:
                    seen[row] = node
                elif report_duplicates:
                    if _REC.enabled:
                        _REC.count(f"xsd.fail:{constraint.kind}")
                    shown = row[0] if len(row) == 1 else row
                    where = self._instance_path(node)
                    report.add(
                        f"{constraint.kind} {constraint.name!r}: duplicate "
                        f"value {shown!r} at {where} (first at "
                        f"{self._instance_path(first)})",
                        path=where, line=getattr(node, "line", None),
                        code="cvc-identity-constraint.4.1")
                table.append((row, node))
        return table

    def _field_reader(self, expr: str):
        """A function from a selected node to the string value of field
        *expr*, or None when the field selects nothing there.

        An ``@name`` field reads the attribute directly; every other
        field shape goes through the XPath evaluator.
        """
        name = expr[1:] if expr.startswith("@") else ""
        if is_ncname(name) and name != "xmlns":
            return lambda node: node.get_attribute(name) \
                if isinstance(node, Element) else None
        field_ast = parse_xpath(expr)
        evaluate = self._xpath.evaluate

        def read(node: Node) -> str | None:
            result = evaluate(field_ast, Context(node=node))
            if isinstance(result, list) and result:
                return result[0].string_value()
            return None

        return read

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


def _child_path_trie(selector: str) -> dict | None:
    """*selector* as a trie of element names, or None for other shapes.

    The shape is the one schemas use most: a union of relative paths
    of unprefixed element names (``a/b | a/b/c``).  A trie node is
    ``[selects, {name: child node}]``.
    """
    trie: dict[str, list] = {}
    for branch in selector.split("|"):
        steps = [strip_xml_space(step) for step in branch.split("/")]
        if not all(is_ncname(step) for step in steps):
            return None
        level = trie
        for step in steps[:-1]:
            level = level.setdefault(step, [False, {}])[1]
        level.setdefault(steps[-1], [False, {}])[0] = True
    return trie


def _select_child_paths(element: Element, trie: dict, default_ns: str | None,
                        selected: list[Node]) -> None:
    """Append to *selected* the elements below *element* that *trie*
    selects, in document order, as the XPath evaluator would.

    An unprefixed name test matches an element in no namespace, so the
    walk carries the default namespace declared in scope.
    """
    for child in element.children:
        if not isinstance(child, Element):
            continue
        declarations = child.namespace_declarations
        namespace = (declarations[""] or None) if "" in declarations \
            else default_ns
        if ":" in child.name:
            name = child.local_name if child.namespace_uri is None else None
        else:
            name = child.name if namespace is None else None
        node = trie.get(name)
        if node is None:
            continue
        if node[0]:
            selected.append(child)
        if node[1]:
            _select_child_paths(child, node[1], namespace, selected)


def _key_table(scope: Element, instances: dict[Element, set[tuple[str, ...]]]
               ) -> set[tuple[str, ...]]:
    """The rows of one key or unique that a keyref on *scope* sees.

    XSD 1.0 Part 1 §3.11.5: the rows of the constraint declared on
    *scope* itself, plus the rows propagated up from its descendants'
    tables, where a row found in the tables of two different children
    is dropped.  Instances outside *scope* are not seen at all.
    """
    below: dict[Element, dict[Element, None]] = {}
    for element in instances:
        chain = [element]
        while chain[-1] is not scope and chain[-1].parent is not None:
            chain.append(chain[-1].parent)
        if chain[-1] is scope:
            for child, parent in zip(chain, chain[1:]):
                below.setdefault(parent, {})[child] = None

    def table(element: Element) -> set[tuple[str, ...]]:
        rows = instances.get(element, set())
        children = below.get(element)
        if not children:
            return rows
        counts: dict[tuple[str, ...], int] = {}
        for child in children:
            for row in table(child):
                counts[row] = counts.get(row, 0) + 1
        return rows | {row for row, count in counts.items() if count == 1}

    return table(scope)
