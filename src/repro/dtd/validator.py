"""Validating instance documents against a DTD.

This is the paper's *baseline*: the authors' earlier work [16] validated
CASE-tool documents with a DTD, and §3.1 motivates the move to XML Schema
with DTDs' two weaknesses — untyped attribute values (everything is CDATA
or a name token) and unselective references (an IDREF may point at *any*
ID in the document, not specifically at a ``dimclass``).  This validator
implements exactly the DTD semantics, so experiment V2 can demonstrate the
difference empirically.
"""

from __future__ import annotations

from ..xml.chars import (
    collapse_whitespace,
    is_name,
    is_ncname,
    split_xml_space,
    strip_xml_space,
)
from ..xml.dom import Document, Element, Text
from ..xsd.errors import ValidationReport
from .ast import AttributeDef, DTD
from .contentmodel import compile_element_model

__all__ = ["validate_dtd", "DTDValidator"]


def validate_dtd(document: Document | Element, dtd: DTD) -> ValidationReport:
    """Validate *document* against *dtd*; returns a ValidationReport."""
    return DTDValidator(dtd).validate(document)


class DTDValidator:
    """A reusable validator bound to one DTD."""

    def __init__(self, dtd: DTD) -> None:
        self.dtd = dtd
        self._automata = {
            name: compile_element_model(etype)
            for name, etype in dtd.elements.items()
        }

    def validate(self, document: Document | Element) -> ValidationReport:
        """Run validity checks and return the collected report."""
        report = ValidationReport()
        root = document.root_element if isinstance(document, Document) \
            else document
        if root is None:
            report.add("document has no root element")
            return report
        if isinstance(document, Document) and document.doctype_name and \
                document.doctype_name != root.name:
            report.add(
                f"root element <{root.name}> does not match DOCTYPE "
                f"{document.doctype_name!r}")

        ids: dict[str, str] = {}
        idrefs: list[tuple[str, str, int | None]] = []
        self._validate_element(root, f"/{root.name}", report, ids, idrefs)
        for value, path, line in idrefs:
            if value not in ids:
                report.add(
                    f"IDREF {value!r} does not match any ID in the document",
                    path=path, line=line)
        return report

    # -- elements ------------------------------------------------------------

    def _validate_element(self, element: Element, path: str,
                          report: ValidationReport, ids: dict[str, str],
                          idrefs: list[tuple[str, str, int | None]]) -> None:
        etype = self.dtd.elements.get(element.name)
        if etype is None:
            report.add(
                f"element <{element.name}> is not declared in the DTD",
                path=path, line=element.line)
        else:
            self._check_content(element, etype, path, report)
        self._check_attributes(element, path, report, ids, idrefs)

        ordinal: dict[str, int] = {}
        for child in element.children:
            if not isinstance(child, Element):
                continue
            number = ordinal.get(child.name, 0) + 1
            ordinal[child.name] = number
            self._validate_element(child, f"{path}/{child.name}[{number}]",
                                   report, ids, idrefs)

    def _check_content(self, element: Element, etype, path: str,
                       report: ValidationReport) -> None:
        children = [c for c in element.children if isinstance(c, Element)]
        has_text = any(
            isinstance(c, Text) and strip_xml_space(c.data)
            for c in element.children)

        if etype.content_kind == "EMPTY":
            if children or has_text:
                report.add(
                    f"element <{element.name}> is declared EMPTY but has "
                    "content", path=path, line=element.line)
        elif etype.content_kind == "ANY":
            return
        elif etype.content_kind == "mixed":
            allowed = set(etype.mixed_names)
            for child in children:
                if child.name not in allowed:
                    report.add(
                        f"element <{child.name}> is not allowed in mixed "
                        f"content of <{element.name}>", path=path,
                        line=child.line)
        else:  # children
            if has_text:
                report.add(
                    f"element <{element.name}> has element content but "
                    "contains character data", path=path, line=element.line)
            automaton = self._automata.get(element.name)
            if automaton is not None:
                problem = automaton.validate(children)
                if problem is not None:
                    report.add(f"in <{element.name}>: {problem}", path=path,
                               line=element.line)

    # -- attributes -------------------------------------------------------------

    def _check_attributes(self, element: Element, path: str,
                          report: ValidationReport, ids: dict[str, str],
                          idrefs: list[tuple[str, str, int | None]]) -> None:
        defs = self.dtd.attribute_defs(element.name)
        present = {
            attr.name for attr in element.attributes
            if attr.name != "xmlns" and not attr.name.startswith("xmlns:")
        }

        for attr in list(element.attributes):
            if attr.name == "xmlns" or attr.name.startswith("xmlns:"):
                continue
            definition = defs.get(attr.name)
            if definition is None:
                report.add(
                    f"attribute {attr.name!r} is not declared for "
                    f"<{element.name}>", path=path, line=attr.line)
                continue
            self._check_attribute_value(attr.value, definition, path,
                                        attr.line, report, ids, idrefs)
            if definition.type == "ID":
                attr.is_id = True
            if definition.default_kind == "#FIXED" and \
                    attr.value != definition.default_value:
                report.add(
                    f"attribute {attr.name!r} must have the fixed value "
                    f"{definition.default_value!r}", path=path,
                    line=attr.line)

        for name, definition in defs.items():
            if name in present:
                continue
            if definition.default_kind == "#REQUIRED":
                report.add(
                    f"required attribute {name!r} is missing on "
                    f"<{element.name}>", path=path, line=element.line)
            elif definition.default_value is not None:
                added = element.set_attribute(name, definition.default_value)
                added.specified = False
                if definition.type == "ID":
                    added.is_id = True

    def _check_attribute_value(self, value: str, definition: AttributeDef,
                               path: str, line: int | None,
                               report: ValidationReport, ids: dict[str, str],
                               idrefs: list[tuple[str, str, int | None]]
                               ) -> None:
        att = definition.name
        kind = definition.type
        if kind == "CDATA":
            return
        normalized = collapse_whitespace(value)
        if kind == "ID":
            if not is_ncname(normalized) and not is_name(normalized):
                report.add(f"attribute {att!r}: {normalized!r} is not a "
                           "valid ID name", path=path, line=line)
            elif normalized in ids:
                report.add(
                    f"duplicate ID {normalized!r} (first used at "
                    f"{ids[normalized]})", path=path, line=line)
            else:
                ids[normalized] = path
        elif kind == "IDREF":
            idrefs.append((normalized, path, line))
        elif kind == "IDREFS":
            for token in split_xml_space(normalized):
                idrefs.append((token, path, line))
        elif kind in ("NMTOKEN", "ENTITY"):
            if not normalized or " " in normalized:
                report.add(
                    f"attribute {att!r}: {value!r} is not a single token",
                    path=path, line=line)
        elif kind in ("NMTOKENS", "ENTITIES"):
            if not normalized:
                report.add(f"attribute {att!r}: empty token list",
                           path=path, line=line)
        elif kind in ("enumeration", "NOTATION"):
            if normalized not in definition.enumeration:
                allowed = ", ".join(definition.enumeration)
                report.add(
                    f"attribute {att!r}: value {normalized!r} not in "
                    f"({allowed})", path=path, line=line)
