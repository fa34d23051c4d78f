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

A start tag is consumed in one step.  One regular expression
(:data:`_START_TAG`) matches its name, every attribute whose value is one
run, and the closing ``>`` or ``/>``; one bisect gives the tag's line and
column, and each attribute's follows from its offset unless the tag
spans lines.  The nodes are built with the DOM's parser-only
constructors, which trust the names the match proved, and are appended
without insertability checks.  Namespace checks run only on tags that
hold a colon or an ``xmlns`` attribute.  A tag the match rejects (a value
holding a reference, or a tab or line end to normalize; a duplicate
attribute; any error) is parsed one construct at a time instead, so each
error is raised by the same code at the same position.

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
    XML_NAMESPACE,
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


def _one_run_attribute(group: str) -> str:
    """White space, then an attribute whose value is one run: its name
    and its value (double- or single-quoted), each opened with *group*."""
    return (f"[ \\t\\r\\n]+{group}{NAME_RE.pattern})"
            f"[ \\t\\r\\n]*=[ \\t\\r\\n]*"
            f"(?:\"{group}{_DOUBLE_RUN})\"|'{group}{_SINGLE_RUN})')")


#: A whole start tag in one match: the element name (group 1), every
#: attribute (group 2) when each value is one run, and '/' (group 3) when
#: the tag is empty.  Each repetition of an attribute begins with white
#: space and ends at its closing quote, and inside it the name, the '='
#: and the value are each delimited by characters their neighbours cannot
#: hold.  So the pattern can match a text in only one way: a tag rejected
#: late (say, at a '&' in its last value) backtracks through each
#: repetition once, in time linear in the tag's length.
_START_TAG = re.compile(
    f"<({NAME_RE.pattern})((?:{_one_run_attribute('(?:')})*)"
    "[ \\t\\r\\n]*(/?)>")
#: One attribute of a tag :data:`_START_TAG` matched: its name (group 1)
#: and its value (group 2 or 3).
_TAG_ATTRIBUTE = re.compile(_one_run_attribute("("))
#: The characters the internal-subset scan stops at.
_SUBSET_MARK = re.compile("[][\"']")
#: A character that is not a ``Char`` (comments, PIs, CDATA sections,
#: system literals).
_NON_CHAR = re.compile(f"[{NON_CHAR_CLASS}]")
#: A character that is not a ``PubidChar`` (production [13]).
_NON_PUBID_CHAR = re.compile("[^ \r\na-zA-Z0-9'()+,./:=?;!*#@$_%-]")
#: Production [81] EncName.
_ENC_NAME = re.compile("[A-Za-z][A-Za-z0-9._-]*")
_DECLARED_ENCODING = re.compile(
    f"encoding\\s*=\\s*['\"]({_ENC_NAME.pattern})['\"]")


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
            match = _DECLARED_ENCODING.search(head[:decl_end])
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
            # Decoding consumed the BOM; a second U+FEFF is no BOM.
            text = _decode(text)
        elif text.startswith("\ufeff"):
            text = text[1:]
        scanner = self._scanner = Scanner(text)
        document = Document()

        self._parse_prolog(document)
        if scanner.at_end or scanner.peek() != "<":
            raise scanner.error("expected document element")
        element = self._parse_element(None)
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
        had_space = scanner.skip_space()
        if scanner.startswith("encoding"):
            if not had_space:
                raise scanner.error("white space required before 'encoding'")
            scanner.expect("encoding")
            document.encoding = self._parse_pseudo_attr_value()
            if _ENC_NAME.fullmatch(document.encoding) is None:
                raise scanner.error(
                    f"malformed encoding name {document.encoding!r}")
            had_space = scanner.skip_space()
        if scanner.startswith("standalone"):
            if not had_space:
                raise scanner.error(
                    "white space required before 'standalone'")
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
            document.doctype_system = self._read_literal(
                "system identifier", _NON_CHAR)
        elif scanner.startswith("PUBLIC"):
            scanner.expect("PUBLIC")
            scanner.require_space("after PUBLIC")
            document.doctype_public = self._read_literal(
                "public identifier", _NON_PUBID_CHAR)
            scanner.require_space("after public identifier")
            document.doctype_system = self._read_literal(
                "system identifier", _NON_CHAR)
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

    def _read_literal(self, what: str, illegal: re.Pattern) -> str:
        """A quoted literal of the DOCTYPE, none of whose characters
        match *illegal*."""
        start = self._scanner.pos + 1
        literal = self._scanner.read_quoted(what)
        self._check_chars(literal, start, what, illegal)
        return literal

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

    def _parse_element(self, parent: Element | None) -> Element:
        """Parse one element with its content.  It comes back attached to
        *parent* (so namespace lookups reach its ancestors) but not yet
        among *parent*'s children."""
        scanner = self._scanner
        assert scanner is not None
        tag = _START_TAG.match(scanner.text, scanner.pos)
        built = None if tag is None else self._build_start_tag(tag, parent)
        if built is None:
            element, empty = self._parse_start_tag(parent)
            check = True
        else:
            element, check = built
            scanner.pos = tag.end()
            empty = tag.group(3)
        if not empty:
            self._parse_content(element)
            self._parse_end_tag(element)
        if check and self.namespaces:
            self._check_namespaces(element)
        return element

    def _build_start_tag(self, tag: re.Match, parent: Element | None
                         ) -> tuple[Element, bool] | None:
        """The element of a start tag :data:`_START_TAG` matched, with
        its attributes, and whether a name in the tag has a colon (only
        then can a namespace check fail).  None when two attributes share
        a name: the stepwise path then raises the exact error."""
        scanner = self._scanner
        start = tag.start()
        name = tag.group(1)
        line, column = scanner.location(start)
        colon = ":" in name
        if colon:
            # Element() raises DOMError for a Name that is not a QName.
            element = Element(name, line=line, column=column)
            element.parent = parent
        else:
            element = Element.parsed(name, line, column, parent)
        first, last = tag.span(2)
        if first == last:
            return element, colon
        text = scanner.text
        multiline = text.find("\n", first, last) != -1
        attributes = element.attributes
        seen: set[str] = set()
        for match in _TAG_ATTRIBUTE.finditer(text, first, last):
            attr_name, value, single = match.group(1, 2, 3)
            if attr_name in seen:
                return None
            seen.add(attr_name)
            if value is None:
                value = single
            pos = match.start(1)
            if multiline:
                attr_line, attr_column = scanner.location(pos)
            else:
                attr_line, attr_column = line, column + pos - start
            is_decl = attr_name == "xmlns" or attr_name.startswith("xmlns:")
            if is_decl:
                self._declare_namespace(element, attr_name, value, pos)
            elif ":" in attr_name:
                colon = True
            attributes.append(Attribute.parsed(
                attr_name, value, attr_line, attr_column, element, is_decl))
        return element, colon

    def _parse_start_tag(self, parent: Element | None
                         ) -> tuple[Element, bool]:
        """Parse a start tag one construct at a time: the path for a tag
        the one-step match rejects, which raises each error at its
        position.  Returns the element and whether the tag was empty."""
        scanner = self._scanner
        assert scanner is not None
        start = scanner.pos
        scanner.expect("<")
        name = scanner.read_name("element name")
        line, column = scanner.location(start)
        element = Element(name, line=line, column=column)
        element.parent = parent
        text = scanner.text
        seen: set[str] = set()
        while True:
            had_space = scanner.skip_space()
            pos = scanner.pos
            if text.startswith(">", pos):
                scanner.pos = pos + 1
                return element, False
            if text.startswith("/>", pos):
                scanner.pos = pos + 2
                return element, True
            if not had_space:
                raise scanner.error("white space required before attribute")
            self._parse_attribute(element, seen)

    def _parse_attribute(self, element: Element, seen: set[str]) -> None:
        scanner = self._scanner
        assert scanner is not None
        attr_start = scanner.pos
        name = scanner.read_name("attribute name")
        if name in seen:
            raise scanner.error(
                f"duplicate attribute {name!r}", attr_start)
        seen.add(name)
        scanner.skip_space()
        scanner.expect("=", "'=' after attribute name")
        scanner.skip_space()
        value = self._parse_attribute_value()
        line, column = scanner.location(attr_start)
        is_decl = name == "xmlns" or name.startswith("xmlns:")
        if is_decl:
            self._declare_namespace(element, name, value, attr_start)
        element.attributes.append(Attribute.parsed(
            name, value, line, column, element, is_decl))

    def _declare_namespace(self, element: Element, name: str, value: str,
                           pos: int) -> None:
        """Record the ``xmlns`` or ``xmlns:*`` attribute at *pos*."""
        scanner = self._scanner
        assert scanner is not None
        if name == "xmlns":
            element.declare_namespace("", value)
            return
        prefix = name[6:]
        if prefix == "xmlns":
            raise scanner.error(
                "the 'xmlns' prefix cannot be declared", pos)
        if prefix == "xml" and value != XML_NAMESPACE:
            raise scanner.error("the 'xml' prefix cannot be rebound", pos)
        if not value:
            raise scanner.error(
                f"namespace prefix {prefix!r} cannot be undeclared "
                "in XML 1.0", pos)
        element.declare_namespace(prefix, value)

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
        # Every child is new and built here, so it is appended directly,
        # without append_child's insertability checks.
        children = element.children
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
                    child = Text("".join(parts))
                    child.parent = element
                    children.append(child)
                    parts.clear()
                scanner.pos = pos
                if text.startswith("</", pos):
                    return
                if text.startswith("<!--", pos):
                    child = self._parse_comment()
                elif text.startswith("<![CDATA[", pos):
                    scanner.pos = pos + 9
                    data = scanner.read_until("]]>", "CDATA section")
                    self._check_chars(data, pos + 9, "CDATA section")
                    child = Text(data, is_cdata=True)
                elif text.startswith("<?", pos):
                    child = self._parse_pi()
                elif text.startswith("<!", pos):
                    raise scanner.error("markup declaration not allowed here")
                else:
                    child = self._parse_element(element)
                child.parent = element
                children.append(child)
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
        start = scanner.pos
        data = scanner.read_until("-->", "comment")
        if "--" in data or data.endswith("-"):
            raise scanner.error("'--' is not allowed inside comments")
        self._check_chars(data, start, "comment")
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
        if self.namespaces and ":" in target:
            # Namespaces in XML 1.0 §7: no PI target contains a colon.
            line, column = scanner.location(start)
            raise XMLNamespaceError(
                f"processing-instruction target {target!r} contains a "
                "colon", line, column)
        data = ""
        if scanner.skip_space():
            data_start = scanner.pos
            data = scanner.read_until("?>", "processing instruction")
            self._check_chars(data, data_start, "processing instruction")
        else:
            scanner.expect("?>", "'?>'")
        return ProcessingInstruction(target, data)

    def _check_chars(self, data: str, start: int, what: str,
                     illegal: re.Pattern = _NON_CHAR) -> None:
        """Raise at the first character of *data* (which begins at
        offset *start*) that *illegal* matches: by default, the first
        that is not a ``Char``."""
        bad = illegal.search(data)
        if bad is not None:
            raise self._scanner.error(
                f"illegal character U+{ord(bad.group()):04X} in {what}",
                start + bad.start())

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

    def _check_namespaces(self, element: Element) -> None:
        """Check the names of *element*, which is attached to its parent,
        against the namespaces in scope.  (Its name is a QName already:
        the :class:`Element` constructor checks that.)"""
        prefix = element.prefix
        if prefix is not None and element.lookup_namespace(prefix) is None:
            raise XMLNamespaceError(
                f"undeclared namespace prefix {prefix!r} on element "
                f"<{element.name}>", element.line, element.column)
        expanded_seen: set[tuple[str | None, str]] = set()
        for attr in element.attributes:
            if attr.is_namespace_decl:
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
