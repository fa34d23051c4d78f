"""Stylesheet compilation: ``<xsl:stylesheet>`` documents → compiled form.

A compiled :class:`Stylesheet` holds template rules (with compiled match
patterns and bodies), key definitions, global variables/parameters, and
the ``xsl:output`` settings.  ``xsl:include`` is supported through a
resolver callback; included rules share the including stylesheet's
precedence (imports, which the paper's stylesheets don't use, are treated
like includes with a lower precedence tier).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..xml.chars import split_xml_space
from ..xml.dom import Document, Element
from ..xml.parser import parse as parse_xml
from ..xpath.ast import Expr
from .errors import XSLTStaticError
from .instructions import (
    Body,
    XSL_NAMESPACE,
    compile_body,
    parse_expr,
)
from .patterns import Pattern, compile_pattern

__all__ = ["Stylesheet", "TemplateRule", "KeyDefinition", "OutputSettings",
           "compile_stylesheet"]


@dataclass(frozen=True)
class TemplateRule:
    """One ``xsl:template``.

    ``order`` breaks priority ties (later rules win, per the recommended
    conflict recovery).  ``precedence`` separates import tiers.
    """

    pattern: Pattern | None
    name: str | None
    mode: str | None
    priority: float
    body: Body
    params: tuple = ()
    order: int = 0
    precedence: int = 0


@dataclass(frozen=True)
class KeyDefinition:
    """One ``xsl:key``: a match pattern and a use expression."""

    name: str
    match: Pattern
    use: Expr


@dataclass
class OutputSettings:
    """``xsl:output`` attributes relevant to serialization."""

    method: str = "xml"
    indent: bool = False
    encoding: str = "UTF-8"
    doctype_public: str | None = None
    doctype_system: str | None = None
    omit_xml_declaration: bool = False

    def doctype(self, root_name: str) -> str | None:
        """Build the DOCTYPE line for serialized output, if configured."""
        if self.doctype_public:
            return (f'<!DOCTYPE {root_name} PUBLIC '
                    f'"{self.doctype_public}" "{self.doctype_system or ""}">')
        if self.doctype_system:
            return f'<!DOCTYPE {root_name} SYSTEM "{self.doctype_system}">'
        return None


@dataclass
class Stylesheet:
    """A compiled stylesheet ready to drive transformations."""

    templates: list[TemplateRule] = field(default_factory=list)
    keys: list[KeyDefinition] = field(default_factory=list)
    #: Global xsl:variable / xsl:param: name → (is_param, select, body).
    globals: list[tuple[str, bool, Expr | None, Body]] = \
        field(default_factory=list)
    output: OutputSettings = field(default_factory=OutputSettings)
    version: str = "1.0"
    #: Namespace bindings declared on <xsl:stylesheet>, used for patterns.
    namespaces: dict[str, str] = field(default_factory=dict)
    #: Element names from xsl:strip-space ('*' allowed).
    strip_space: set = field(default_factory=set)
    #: Element names from xsl:preserve-space (overrides strip-space).
    preserve_space: set = field(default_factory=set)
    source: Document | None = None

    def named_template(self, name: str) -> TemplateRule:
        """Look up a named template, raising when undefined."""
        for rule in self.templates:
            if rule.name == name:
                return rule
        raise XSLTStaticError(f"no template named {name!r}")


def compile_stylesheet(
    source: "str | bytes | Document",
    *,
    resolver: Callable[[str], "str | bytes | Document"] | None = None,
) -> Stylesheet:
    """Compile stylesheet *source* (text or DOM).

    *resolver* maps ``xsl:include``/``xsl:import`` hrefs to stylesheet
    sources; without one, includes raise.
    """
    document = source if isinstance(source, Document) else parse_xml(source)
    stylesheet = Stylesheet(source=document)
    _compile_into(document, stylesheet, resolver, precedence=0)
    # Later rules win ties; keep stable order index.
    return stylesheet


def _compile_into(document: Document, stylesheet: Stylesheet,
                  resolver, precedence: int) -> None:
    root = document.root_element
    if root is None:
        raise XSLTStaticError("stylesheet document has no root element")
    if root.namespace_uri != XSL_NAMESPACE or \
            root.local_name not in ("stylesheet", "transform"):
        raise XSLTStaticError(
            f"expected <xsl:stylesheet>, found <{root.name}>")
    stylesheet.version = root.get_attribute("version", "1.0") or "1.0"
    for prefix, uri in root.in_scope_namespaces().items():
        if uri != XSL_NAMESPACE:
            stylesheet.namespaces.setdefault(prefix, uri)

    for child in root.children:
        if not isinstance(child, Element):
            continue
        if child.namespace_uri != XSL_NAMESPACE:
            continue  # top-level non-XSL elements are ignored (§2.2)
        kind = child.local_name
        if kind == "template":
            _compile_template(child, stylesheet, precedence)
        elif kind == "output":
            _compile_output(child, stylesheet.output)
        elif kind == "key":
            stylesheet.keys.append(KeyDefinition(
                name=_required(child, "name"),
                match=compile_pattern(_required(child, "match")),
                use=parse_expr(_required(child, "use"), "key use"),
            ))
        elif kind in ("variable", "param"):
            name = _required(child, "name")
            select_text = child.get_attribute("select")
            select = parse_expr(select_text, "global variable") \
                if select_text else None
            body = compile_body(child) if select is None else ()
            stylesheet.globals.append(
                (name, kind == "param", select, body))
        elif kind in ("include", "import"):
            href = _required(child, "href")
            if resolver is None:
                raise XSLTStaticError(
                    f"cannot resolve xsl:{kind} href={href!r}: no resolver "
                    "was provided")
            included = resolver(href)
            included_doc = included if isinstance(included, Document) \
                else parse_xml(included)
            tier = precedence - 1 if kind == "import" else precedence
            _compile_into(included_doc, stylesheet, resolver, tier)
        elif kind == "strip-space":
            stylesheet.strip_space.update(
                split_xml_space(_required(child, "elements")))
        elif kind == "preserve-space":
            stylesheet.preserve_space.update(
                split_xml_space(_required(child, "elements")))
        elif kind in ("namespace-alias", "decimal-format",
                      "attribute-set", "script"):
            # Accepted but inert in this subset; the goldmodel stylesheets
            # do not rely on them.
            continue
        else:
            raise XSLTStaticError(
                f"unsupported top-level element <xsl:{kind}>")


def _compile_template(element: Element, stylesheet: Stylesheet,
                      precedence: int) -> None:
    match_text = element.get_attribute("match")
    name = element.get_attribute("name")
    if match_text is None and name is None:
        raise XSLTStaticError(
            "xsl:template requires a 'match' or 'name' attribute")
    mode = element.get_attribute("mode")
    priority_text = element.get_attribute("priority")

    compiled = compile_body(element)
    params = tuple(
        instr for instr in compiled if getattr(instr, "is_param", False))
    body = tuple(
        instr for instr in compiled if not getattr(instr, "is_param", False))

    if match_text is None:
        stylesheet.templates.append(TemplateRule(
            pattern=None, name=name, mode=mode, priority=0.0, body=body,
            params=params, order=len(stylesheet.templates),
            precedence=precedence))
        return

    pattern = compile_pattern(match_text)
    # Each union alternative behaves as its own rule for priority purposes.
    for alternative in pattern.split_alternatives():
        priority = float(priority_text) if priority_text is not None \
            else alternative.default_priority()
        stylesheet.templates.append(TemplateRule(
            pattern=alternative, name=name, mode=mode, priority=priority,
            body=body, params=params, order=len(stylesheet.templates),
            precedence=precedence))


def _compile_output(element: Element, output: OutputSettings) -> None:
    method = element.get_attribute("method")
    if method:
        if method not in ("xml", "html", "text"):
            raise XSLTStaticError(f"unsupported output method {method!r}")
        output.method = method
    if element.get_attribute("indent"):
        output.indent = element.get_attribute("indent") == "yes"
    if element.get_attribute("encoding"):
        output.encoding = element.get_attribute("encoding") or "UTF-8"
    if element.get_attribute("doctype-public"):
        output.doctype_public = element.get_attribute("doctype-public")
    if element.get_attribute("doctype-system"):
        output.doctype_system = element.get_attribute("doctype-system")
    if element.get_attribute("omit-xml-declaration"):
        output.omit_xml_declaration = \
            element.get_attribute("omit-xml-declaration") == "yes"


def _required(element: Element, attribute: str) -> str:
    value = element.get_attribute(attribute)
    if value is None:
        raise XSLTStaticError(
            f"<xsl:{element.local_name}> requires the {attribute!r} "
            "attribute")
    return value
