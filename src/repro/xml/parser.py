"""A conforming-subset XML 1.0 + Namespaces parser.

Parses a document string into the :mod:`repro.xml.dom` tree.  Supported:

* XML declaration, document type declaration (internal subset captured as
  raw text for the DTD module), comments, processing instructions,
* elements, attributes (with value normalization), namespaces
  (well-formedness checked when ``namespaces=True``),
* character data, CDATA sections, predefined entities and character
  references,
* precise error positions on every well-formedness violation.

Names, white space, attribute values and character data are consumed one
run at a time: a compiled regular expression (its character classes
generated from the :mod:`repro.xml.chars` range tables) matches the
longest run that needs no attention, and only the character that ends a
run (markup, a reference, a line end to normalize, a forbidden character)
is looked at on its own.

Unsupported (rejected, not silently ignored): external entities and custom
general entities — the CASE-tool documents of the paper never use them.

Example
-------
>>> doc = parse('<goldmodel id="m1" name="DW"><factclasses/></goldmodel>')
>>> doc.root_element.get_attribute("name")
'DW'
"""

from __future__ import annotations

import re

from .chars import NAME_RE, NON_CHAR_CLASS, is_qname
from .dom import (
    Attribute,
    Comment,
    Document,
    Element,
    ProcessingInstruction,
    Text,
)
from .errors import XMLNamespaceError, XMLSyntaxError
from .escaping import resolve_char_ref, resolve_entity
from .lexer import Scanner

__all__ = ["parse", "parse_file", "XMLParser"]

#: A run of character data: legal characters other than those content
#: treats specially ('<', '&', ']' and the '\r' of a line end).
_TEXT_RUN = re.compile(f"[^<&\\]\\r{NON_CHAR_CLASS}]+")
_DOUBLE_RUN = f'[^"<&\\t\\n\\r{NON_CHAR_CLASS}]*'
_SINGLE_RUN = f"[^'<&\\t\\n\\r{NON_CHAR_CLASS}]*"
#: A run of an attribute value that needs no normalization, per quote.
_VALUE_RUN = {'"': re.compile(_DOUBLE_RUN), "'": re.compile(_SINGLE_RUN)}
#: An attribute's name, its '=' with the white space around it and, when
#: the value is one run, the quoted value (group 2 or 3).
_ATTRIBUTE = re.compile(
    f"({NAME_RE.pattern})[ \\t\\r\\n]*=[ \\t\\r\\n]*"
    f"(?:\"({_DOUBLE_RUN})\"|'({_SINGLE_RUN})')?")
#: The characters the internal-subset scan stops at.
_SUBSET_MARK = re.compile("[][\"']")


def parse(text: str | bytes, *, namespaces: bool = True) -> Document:
    """Parse *text* into a :class:`Document`.

    Raises :class:`~repro.xml.errors.XMLSyntaxError` for well-formedness
    violations and :class:`~repro.xml.errors.XMLNamespaceError` for
    namespace violations (undeclared prefixes, duplicate expanded names).
    """
    return XMLParser(namespaces=namespaces).parse(text)


def parse_file(path, *, namespaces: bool = True) -> Document:
    """Parse the file at *path* (bytes are decoded per the XML declaration)."""
    with open(path, "rb") as handle:
        return parse(handle.read(), namespaces=namespaces)


def _decode(data: bytes) -> str:
    """Decode *data* honouring BOMs and the encoding pseudo-attribute.

    Bytes that are invalid in their encoding, and an encoding this Python
    does not know, raise :class:`XMLSyntaxError` like any other
    well-formedness violation.
    """
    if data.startswith(b"\xef\xbb\xbf"):
        return _decoded(data[3:], "utf-8")
    if data.startswith(b"\xff\xfe"):
        wide = data[2:4] == b"\x00\x00"
        return _decoded(data, "utf-32-le" if wide else "utf-16-le")[1:]
    if data.startswith(b"\xfe\xff"):
        return _decoded(data, "utf-16-be")[1:]
    head = data[:128].decode("latin-1", errors="replace")
    if head.startswith("<?xml"):
        decl_end = head.find("?>")
        if decl_end != -1 and "encoding" in head[:decl_end]:
            match = re.search(
                r"encoding\s*=\s*['\"]([A-Za-z][A-Za-z0-9._-]*)['\"]",
                head[:decl_end])
            if match:
                return _decoded(data, match.group(1))
    return _decoded(data, "utf-8")


def _decoded(data: bytes, encoding: str) -> str:
    try:
        return data.decode(encoding)
    except LookupError:
        raise XMLSyntaxError(f"unknown encoding {encoding!r}") from None
    except UnicodeError as exc:
        start = getattr(exc, "start", None)
        where = "" if start is None else f" at byte {start}"
        reason = getattr(exc, "reason", str(exc))
        raise XMLSyntaxError(
            f"document is not valid {encoding}{where}: {reason}") from None


class XMLParser:
    """Recursive-descent XML parser.  One instance parses one document."""

    def __init__(self, *, namespaces: bool = True) -> None:
        self.namespaces = namespaces
        self._scanner: Scanner | None = None

    # -- entry point -----------------------------------------------------------

    def parse(self, text: str | bytes) -> Document:
        """Parse *text* and return the document tree."""
        if isinstance(text, bytes):
            text = _decode(text)
        if text.startswith("﻿"):
            text = text[1:]
        scanner = self._scanner = Scanner(text)
        document = Document()

        self._parse_prolog(document)
        if scanner.at_end or scanner.peek() != "<":
            raise scanner.error("expected document element")
        element = self._parse_element(parent_element=None)
        document.append_child(element)
        self._parse_misc(document)
        if not scanner.at_end:
            raise scanner.error("content after document element")
        return document

    # -- prolog -----------------------------------------------------------------

    def _parse_prolog(self, document: Document) -> None:
        scanner = self._scanner
        assert scanner is not None
        if scanner.startswith("<?xml") and scanner.peek(5) in " \t\r\n":
            self._parse_xml_declaration(document)
        while True:
            scanner.skip_space()
            if scanner.startswith("<!--"):
                document.append_child(self._parse_comment())
            elif scanner.startswith("<?"):
                document.append_child(self._parse_pi())
            elif scanner.startswith("<!DOCTYPE"):
                if document.doctype_name is not None:
                    raise scanner.error("multiple document type declarations")
                self._parse_doctype(document)
            else:
                return

    def _parse_xml_declaration(self, document: Document) -> None:
        scanner = self._scanner
        assert scanner is not None
        scanner.expect("<?xml")
        scanner.require_space("after '<?xml'")
        scanner.expect("version", "version pseudo-attribute")
        document.version = self._parse_pseudo_attr_value()
        if document.version not in ("1.0", "1.1"):
            raise scanner.error(
                f"unsupported XML version {document.version!r}")
        scanner.skip_space()
        if scanner.startswith("encoding"):
            scanner.expect("encoding")
            document.encoding = self._parse_pseudo_attr_value()
            scanner.skip_space()
        if scanner.startswith("standalone"):
            scanner.expect("standalone")
            value = self._parse_pseudo_attr_value()
            if value not in ("yes", "no"):
                raise scanner.error("standalone must be 'yes' or 'no'")
            document.standalone = value == "yes"
            scanner.skip_space()
        scanner.expect("?>", "end of XML declaration")

    def _parse_pseudo_attr_value(self) -> str:
        scanner = self._scanner
        assert scanner is not None
        scanner.skip_space()
        scanner.expect("=", "'='")
        scanner.skip_space()
        return scanner.read_quoted("value")

    def _parse_doctype(self, document: Document) -> None:
        scanner = self._scanner
        assert scanner is not None
        scanner.expect("<!DOCTYPE")
        scanner.require_space("after '<!DOCTYPE'")
        document.doctype_name = scanner.read_name("doctype name")
        scanner.skip_space()
        if scanner.startswith("SYSTEM"):
            scanner.expect("SYSTEM")
            scanner.require_space("after SYSTEM")
            document.doctype_system = scanner.read_quoted("system identifier")
        elif scanner.startswith("PUBLIC"):
            scanner.expect("PUBLIC")
            scanner.require_space("after PUBLIC")
            document.doctype_public = scanner.read_quoted("public identifier")
            scanner.require_space("after public identifier")
            document.doctype_system = scanner.read_quoted("system identifier")
        scanner.skip_space()
        if scanner.peek() == "[":
            scanner.advance()
            text, start = scanner.text, scanner.pos
            depth = 1
            while depth:
                mark = _SUBSET_MARK.search(text, scanner.pos)
                if mark is None:
                    raise scanner.error(
                        "unterminated internal subset", len(text))
                scanner.pos = mark.end()
                ch = mark.group()
                if ch == "[":
                    depth += 1
                elif ch == "]":
                    depth -= 1
                else:
                    scanner.read_until(ch, "literal in internal subset")
            document.internal_subset = text[start:scanner.pos - 1]
            scanner.skip_space()
        scanner.expect(">", "end of DOCTYPE")

    def _parse_misc(self, document: Document) -> None:
        scanner = self._scanner
        assert scanner is not None
        while True:
            scanner.skip_space()
            if scanner.startswith("<!--"):
                document.append_child(self._parse_comment())
            elif scanner.startswith("<?"):
                document.append_child(self._parse_pi())
            else:
                return

    # -- elements ---------------------------------------------------------------

    def _parse_element(self, parent_element: Element | None) -> Element:
        scanner = self._scanner
        assert scanner is not None
        start = scanner.pos
        scanner.expect("<")
        name = scanner.read_name("element name")
        line, column = scanner.location(start)
        element = Element(name, line=line, column=column)
        if parent_element is not None:
            # Attach early so namespace lookup sees ancestors during parsing.
            element.parent = parent_element

        text = scanner.text
        seen_attrs: set[str] = set()
        while True:
            had_space = scanner.skip_space()
            pos = scanner.pos
            if text.startswith(">", pos):
                scanner.pos = pos + 1
                self._parse_content(element)
                self._parse_end_tag(element)
                break
            if text.startswith("/>", pos):
                scanner.pos = pos + 2
                break
            if not had_space:
                raise scanner.error("white space required before attribute")
            self._parse_attribute(element, seen_attrs)

        element.parent = None  # the caller re-attaches via append_child
        if self.namespaces:
            self._check_namespaces(element, parent_element)
        return element

    def _parse_attribute(self, element: Element, seen: set[str]) -> None:
        scanner = self._scanner
        assert scanner is not None
        attr_start = scanner.pos
        match = _ATTRIBUTE.match(scanner.text, attr_start)
        name = scanner.read_name("attribute name") if match is None \
            else match.group(1)
        if name in seen:
            raise scanner.error(
                f"duplicate attribute {name!r}", attr_start)
        seen.add(name)
        if match is None:
            # The name is fine, so the '=' is missing: this raises.
            scanner.skip_space()
            scanner.expect("=", "'=' after attribute name")
        scanner.pos = match.end()
        value = match.group(2)
        if value is None:
            value = match.group(3)
            if value is None:
                value = self._parse_attribute_value()
        line, column = scanner.location(attr_start)
        if name == "xmlns":
            element.declare_namespace("", value)
        elif name.startswith("xmlns:"):
            prefix = name[6:]
            if prefix == "xmlns":
                raise scanner.error(
                    "the 'xmlns' prefix cannot be declared", attr_start)
            if prefix == "xml" and value != "http://www.w3.org/XML/1998/namespace":
                raise scanner.error(
                    "the 'xml' prefix cannot be rebound", attr_start)
            if not value:
                raise scanner.error(
                    f"namespace prefix {prefix!r} cannot be undeclared "
                    "in XML 1.0", attr_start)
            element.declare_namespace(prefix, value)
        attr = Attribute(name, value, line=line, column=column)
        attr.parent = element
        element.attributes.append(attr)

    def _parse_attribute_value(self) -> str:
        scanner = self._scanner
        assert scanner is not None
        text, pos = scanner.text, scanner.pos
        quote = text[pos:pos + 1]
        if quote not in ("'", '"'):
            raise scanner.error("attribute value must be quoted")
        run = _VALUE_RUN[quote].match
        start, pos = pos + 1, run(text, pos + 1).end()
        parts = [text[start:pos]]
        while True:
            ch = text[pos:pos + 1]
            if ch == quote:
                scanner.pos = pos + 1
                return "".join(parts)
            if not ch:
                raise scanner.error("unterminated attribute value", pos)
            if ch == "<":
                raise scanner.error(
                    "'<' is not allowed in attribute values", pos)
            if ch == "&":
                scanner.pos = pos
                parts.append(self._parse_reference())
                pos = scanner.pos
            elif ch in "\t\r\n":
                # Attribute-value normalization (XML 1.0 §3.3.3).
                parts.append(" ")
                pos += 2 if text.startswith("\r\n", pos) else 1
            else:
                raise scanner.error(
                    f"illegal character U+{ord(ch):04X} in attribute", pos)
            end = run(text, pos).end()
            parts.append(text[pos:end])
            pos = end

    def _parse_content(self, element: Element) -> None:
        scanner = self._scanner
        assert scanner is not None
        text = scanner.text
        text_run = _TEXT_RUN.match
        parts: list[str] = []
        pos = scanner.pos
        while True:
            run = text_run(text, pos)
            if run is not None:
                parts.append(run.group())
                pos = run.end()
            ch = text[pos:pos + 1]
            if ch == "<":
                if parts:
                    element.append_child(Text("".join(parts)))
                    parts.clear()
                scanner.pos = pos
                if text.startswith("</", pos):
                    return
                if text.startswith("<!--", pos):
                    element.append_child(self._parse_comment())
                elif text.startswith("<![CDATA[", pos):
                    scanner.pos = pos + 9
                    data = scanner.read_until("]]>", "CDATA section")
                    element.append_child(Text(data, is_cdata=True))
                elif text.startswith("<?", pos):
                    element.append_child(self._parse_pi())
                elif text.startswith("<!", pos):
                    raise scanner.error("markup declaration not allowed here")
                else:
                    element.append_child(self._parse_element(element))
                pos = scanner.pos
            elif ch == "&":
                scanner.pos = pos
                parts.append(self._parse_reference())
                pos = scanner.pos
            elif ch == "]":
                if text.startswith("]]>", pos):
                    raise scanner.error(
                        "']]>' is not allowed in content", pos)
                parts.append(ch)
                pos += 1
            elif ch == "\r":
                # End-of-line normalization (XML 1.0 §2.11).
                parts.append("\n")
                pos += 2 if text.startswith("\r\n", pos) else 1
            elif not ch:
                raise scanner.error(
                    f"unexpected end of input inside <{element.name}>", pos)
            else:
                raise scanner.error(
                    f"illegal character U+{ord(ch):04X} in content", pos)

    def _parse_end_tag(self, element: Element) -> None:
        scanner = self._scanner
        assert scanner is not None
        start = scanner.pos
        scanner.expect("</")
        name = scanner.read_name("end-tag name")
        if name != element.name:
            raise scanner.error(
                f"end tag </{name}> does not match start tag "
                f"<{element.name}>", start)
        scanner.skip_space()
        scanner.expect(">", "'>' closing end tag")

    # -- misc constructs -----------------------------------------------------------

    def _parse_comment(self) -> Comment:
        scanner = self._scanner
        assert scanner is not None
        scanner.expect("<!--")
        data = scanner.read_until("-->", "comment")
        if "--" in data or data.endswith("-"):
            raise scanner.error("'--' is not allowed inside comments")
        return Comment(data)

    def _parse_pi(self) -> ProcessingInstruction:
        scanner = self._scanner
        assert scanner is not None
        start = scanner.pos
        scanner.expect("<?")
        target = scanner.read_name("processing-instruction target")
        if target.lower() == "xml":
            raise scanner.error(
                "processing-instruction target 'xml' is reserved", start)
        data = ""
        if scanner.skip_space():
            data = scanner.read_until("?>", "processing instruction")
        else:
            scanner.expect("?>", "'?>'")
        return ProcessingInstruction(target, data)

    def _parse_reference(self) -> str:
        scanner = self._scanner
        assert scanner is not None
        start = scanner.pos
        scanner.expect("&")
        body = scanner.read_until(";", "entity reference")
        line, column = scanner.location(start)
        if body.startswith("#"):
            return resolve_char_ref(body, line, column)
        return resolve_entity(body, line, column)

    # -- namespace well-formedness ------------------------------------------------

    def _check_namespaces(self, element: Element,
                          parent: Element | None) -> None:
        scanner = self._scanner
        assert scanner is not None
        element.parent = parent
        try:
            prefix = element.prefix
            if prefix is not None and element.lookup_namespace(prefix) is None:
                raise XMLNamespaceError(
                    f"undeclared namespace prefix {prefix!r} on element "
                    f"<{element.name}>", element.line, element.column)
            if not is_qname(element.name):
                raise XMLNamespaceError(
                    f"element name {element.name!r} is not a valid QName",
                    element.line, element.column)
            expanded_seen: set[tuple[str | None, str]] = set()
            for attr in element.attributes:
                if attr.name == "xmlns" or attr.name.startswith("xmlns:"):
                    continue
                if not is_qname(attr.name):
                    raise XMLNamespaceError(
                        f"attribute name {attr.name!r} is not a valid QName",
                        attr.line, attr.column)
                aprefix = attr.prefix
                if aprefix is not None and \
                        element.lookup_namespace(aprefix) is None:
                    raise XMLNamespaceError(
                        f"undeclared namespace prefix {aprefix!r} on "
                        f"attribute {attr.name!r}", attr.line, attr.column)
                key = (attr.namespace_uri, attr.local_name)
                if aprefix is not None and key in expanded_seen:
                    raise XMLNamespaceError(
                        f"duplicate attribute {{{key[0]}}}{key[1]}",
                        attr.line, attr.column)
                expanded_seen.add(key)
        finally:
            element.parent = None
