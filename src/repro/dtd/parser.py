"""Parser for DTD text (internal subsets and external ``.dtd`` files).

Supports ``<!ELEMENT>``, ``<!ATTLIST>``, ``<!ENTITY>`` (general and
parameter, internal values only), comments, and processing instructions.
Parameter-entity references (``%name;``) are expanded textually before
declaration parsing, as XML 1.0 prescribes for the common cases.
"""

from __future__ import annotations

from ..xml.errors import XMLSyntaxError
from ..xml.lexer import Scanner
from .ast import (
    ATTRIBUTE_TYPES,
    AttributeDef,
    ContentParticle,
    DTD,
    ElementType,
    GroupParticle,
    NameParticle,
)

__all__ = ["parse_dtd"]


def parse_dtd(text: str) -> DTD:
    """Parse DTD declarations from *text* into a :class:`DTD`."""
    dtd = DTD()
    _collect_parameter_entities(text, dtd)
    expanded = _expand_parameter_entities(text, dtd)
    _Parser(expanded, dtd).run()
    return dtd


def _collect_parameter_entities(text: str, dtd: DTD) -> None:
    scanner = Scanner(text)
    while not scanner.at_end:
        if scanner.startswith("<!ENTITY"):
            start = scanner.pos
            scanner.advance(8)
            scanner.skip_space()
            if scanner.peek() == "%":
                scanner.advance()
                scanner.skip_space()
                name = scanner.read_name("parameter entity name")
                scanner.skip_space()
                value = scanner.read_quoted("entity value")
                dtd.parameter_entities[name] = value
                scanner.skip_space()
                if scanner.peek() == ">":
                    scanner.advance()
                continue
            scanner.pos = start + 1
        else:
            scanner.advance()


def _expand_parameter_entities(text: str, dtd: DTD, depth: int = 0) -> str:
    if depth > 10:
        raise XMLSyntaxError("parameter entity expansion too deep")
    if "%" not in text or not dtd.parameter_entities:
        return text
    out: list[str] = []
    index = 0
    while index < len(text):
        ch = text[index]
        if ch == "%":
            end = text.find(";", index + 1)
            candidate = text[index + 1:end] if end != -1 else ""
            if candidate in dtd.parameter_entities:
                replacement = dtd.parameter_entities[candidate]
                out.append(_expand_parameter_entities(
                    replacement, dtd, depth + 1))
                index = end + 1
                continue
        out.append(ch)
        index += 1
    return "".join(out)


class _Parser:
    def __init__(self, text: str, dtd: DTD) -> None:
        self.scanner = Scanner(text)
        self.dtd = dtd

    def run(self) -> None:
        scanner = self.scanner
        while True:
            scanner.skip_space()
            if scanner.at_end:
                return
            if scanner.startswith("<!--"):
                scanner.advance(4)
                scanner.read_until("-->", "comment")
            elif scanner.startswith("<!ELEMENT"):
                self._parse_element_decl()
            elif scanner.startswith("<!ATTLIST"):
                self._parse_attlist_decl()
            elif scanner.startswith("<!ENTITY"):
                self._parse_entity_decl()
            elif scanner.startswith("<!NOTATION"):
                scanner.read_until(">", "notation declaration")
            elif scanner.startswith("<?"):
                scanner.read_until("?>", "processing instruction")
            else:
                raise scanner.error(
                    f"unexpected content in DTD: {scanner.peek()!r}")

    # -- <!ELEMENT ...> ------------------------------------------------------

    def _parse_element_decl(self) -> None:
        scanner = self.scanner
        scanner.expect("<!ELEMENT")
        scanner.require_space("after <!ELEMENT")
        name = scanner.read_name("element name")
        scanner.require_space("after element name")
        if name in self.dtd.elements:
            raise scanner.error(f"duplicate <!ELEMENT {name}> declaration")

        if scanner.match("EMPTY"):
            etype = ElementType(name, "EMPTY")
        elif scanner.match("ANY"):
            etype = ElementType(name, "ANY")
        elif scanner.startswith("("):
            etype = self._parse_content_spec(name)
        else:
            raise scanner.error("expected EMPTY, ANY, or a content model")
        scanner.skip_space()
        scanner.expect(">", "'>' ending element declaration")
        self.dtd.elements[name] = etype

    def _parse_content_spec(self, element_name: str) -> ElementType:
        scanner = self.scanner
        checkpoint = scanner.pos
        scanner.expect("(")
        scanner.skip_space()
        if scanner.startswith("#PCDATA"):
            scanner.advance(7)
            names: list[str] = []
            while True:
                scanner.skip_space()
                if scanner.match(")"):
                    # '(#PCDATA)' may be followed by '*'; with names it must.
                    starred = scanner.match("*")
                    if names and not starred:
                        raise scanner.error(
                            "mixed content with names must end in ')*'")
                    return ElementType(element_name, "mixed",
                                       mixed_names=tuple(names))
                scanner.expect("|", "'|' in mixed content")
                scanner.skip_space()
                names.append(scanner.read_name("element name"))
        scanner.pos = checkpoint
        model = self._parse_children_group()
        return ElementType(element_name, "children", model=model)

    def _parse_children_group(self) -> ContentParticle:
        scanner = self.scanner
        scanner.expect("(")
        particles = [self._parse_cp()]
        scanner.skip_space()
        separator = None
        while not scanner.startswith(")"):
            if scanner.match(","):
                kind = ","
            elif scanner.match("|"):
                kind = "|"
            else:
                raise scanner.error("expected ',', '|' or ')'")
            if separator is None:
                separator = kind
            elif separator != kind:
                raise scanner.error(
                    "cannot mix ',' and '|' in one group")
            scanner.skip_space()
            particles.append(self._parse_cp())
            scanner.skip_space()
        scanner.expect(")")
        group_kind = "choice" if separator == "|" else "seq"
        group = GroupParticle(group_kind, particles)
        group.occurrence = self._parse_occurrence()
        return group

    def _parse_cp(self) -> ContentParticle:
        scanner = self.scanner
        scanner.skip_space()
        if scanner.startswith("("):
            return self._parse_children_group()
        name = scanner.read_name("element name in content model")
        particle = NameParticle(name)
        particle.occurrence = self._parse_occurrence()
        return particle

    def _parse_occurrence(self) -> str:
        ch = self.scanner.peek()
        if ch in ("?", "*", "+"):
            self.scanner.advance()
            return ch
        return ""

    # -- <!ATTLIST ...> -------------------------------------------------------

    def _parse_attlist_decl(self) -> None:
        scanner = self.scanner
        scanner.expect("<!ATTLIST")
        scanner.require_space("after <!ATTLIST")
        element = scanner.read_name("element name")
        defs = self.dtd.attributes.setdefault(element, {})
        while True:
            had_space = scanner.skip_space()
            if scanner.match(">"):
                return
            if not had_space:
                raise scanner.error("white space required before attribute")
            name = scanner.read_name("attribute name")
            scanner.require_space("after attribute name")
            att_type, enumeration = self._parse_att_type()
            scanner.require_space("after attribute type")
            default_kind, default_value = self._parse_default()
            # First declaration wins, per XML 1.0 §3.3.
            if name not in defs:
                defs[name] = AttributeDef(
                    element=element, name=name, type=att_type,
                    enumeration=enumeration, default_kind=default_kind,
                    default_value=default_value)

    def _parse_att_type(self) -> tuple[str, tuple[str, ...]]:
        scanner = self.scanner
        if scanner.startswith("NOTATION"):
            scanner.advance(8)
            scanner.require_space("after NOTATION")
            values = self._parse_enumeration(read_names=True)
            return "NOTATION", values
        if scanner.startswith("("):
            return "enumeration", self._parse_enumeration(read_names=False)
        for att_type in sorted(ATTRIBUTE_TYPES, key=len, reverse=True):
            if scanner.match(att_type):
                return att_type, ()
        raise scanner.error("expected an attribute type")

    def _parse_enumeration(self, read_names: bool) -> tuple[str, ...]:
        scanner = self.scanner
        scanner.expect("(")
        values: list[str] = []
        while True:
            scanner.skip_space()
            values.append(scanner.read_nmtoken())
            scanner.skip_space()
            if scanner.match(")"):
                return tuple(values)
            scanner.expect("|", "'|' in enumeration")

    def _parse_default(self) -> tuple[str, str | None]:
        scanner = self.scanner
        if scanner.match("#REQUIRED"):
            return "#REQUIRED", None
        if scanner.match("#IMPLIED"):
            return "#IMPLIED", None
        if scanner.match("#FIXED"):
            scanner.require_space("after #FIXED")
            return "#FIXED", scanner.read_quoted("fixed value")
        return "", scanner.read_quoted("default value")

    # -- <!ENTITY ...> ------------------------------------------------------------

    def _parse_entity_decl(self) -> None:
        scanner = self.scanner
        scanner.expect("<!ENTITY")
        scanner.require_space("after <!ENTITY")
        if scanner.peek() == "%":
            # Parameter entities were pre-collected; skip the declaration.
            scanner.read_until(">", "entity declaration")
            return
        name = scanner.read_name("entity name")
        scanner.require_space("after entity name")
        if scanner.startswith("SYSTEM") or scanner.startswith("PUBLIC"):
            raise scanner.error(
                "external entities are not supported in this subset")
        value = scanner.read_quoted("entity value")
        self.dtd.general_entities[name] = value
        scanner.skip_space()
        scanner.expect(">", "'>' ending entity declaration")
