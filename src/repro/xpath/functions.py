"""The XPath 1.0 core function library (§4).

Every function takes ``(context, args)`` where *args* are already-evaluated
XPath values.  Argument-count checking raises
:class:`~repro.xpath.errors.XPathTypeError` with the function name, matching
the diagnostics style of real processors.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..xml.chars import collapse_whitespace, split_xml_space
from ..xml.dom import Attribute, Element, NamespaceNode, Node
from .datamodel import (
    document_order,
    is_node_set,
    to_boolean,
    to_number,
    to_string,
)
from .errors import XPathTypeError
from .evaluator import Context

__all__ = ["CORE_FUNCTIONS"]


def _arity(name: str, args: Sequence[object], low: int,
           high: int | None = None) -> None:
    high = low if high is None else high
    if not (low <= len(args) <= high):
        expected = str(low) if low == high else f"{low}..{high}"
        raise XPathTypeError(
            f"{name}() expects {expected} argument(s), got {len(args)}")


def _context_string(context: Context, args: Sequence[object]) -> str:
    return to_string(args[0]) if args else context.node.string_value()


# -- node-set functions -----------------------------------------------------


def fn_last(context: Context, args: Sequence[object]) -> object:
    _arity("last", args, 0)
    return float(context.size)


def fn_position(context: Context, args: Sequence[object]) -> object:
    _arity("position", args, 0)
    return float(context.position)


def fn_count(context: Context, args: Sequence[object]) -> object:
    _arity("count", args, 1)
    if not is_node_set(args[0]):
        raise XPathTypeError("count() requires a node-set")
    return float(len(args[0]))  # type: ignore[arg-type]


def fn_id(context: Context, args: Sequence[object]) -> object:
    _arity("id", args, 1)
    value = args[0]
    if is_node_set(value):
        tokens: list[str] = []
        for node in value:  # type: ignore[union-attr]
            tokens.extend(split_xml_space(node.string_value()))
    else:
        tokens = split_xml_space(to_string(value))

    root = context.node.root
    id_map: dict[str, Element] = {}
    declared_ids = False
    if isinstance(root, (Element,)) or hasattr(root, "iter_elements"):
        for element in root.iter_elements():  # type: ignore[union-attr]
            for attr in element.attributes:
                if attr.is_id:
                    declared_ids = True
                    id_map.setdefault(attr.value, element)
        if not declared_ids:
            # Fallback for unvalidated documents: treat @id as ID-typed,
            # which matches the goldmodel schema's declarations.
            for element in root.iter_elements():  # type: ignore[union-attr]
                value_ = element.get_attribute("id")
                if value_ is not None:
                    id_map.setdefault(value_, element)
    found = [id_map[token] for token in tokens if token in id_map]
    return document_order(found)


def fn_local_name(context: Context, args: Sequence[object]) -> object:
    _arity("local-name", args, 0, 1)
    node = _first_node(context, args, "local-name")
    if node is None:
        return ""
    if isinstance(node, (Element, Attribute)):
        return node.local_name
    if isinstance(node, NamespaceNode):
        return node.prefix_name
    if node.kind == "processing-instruction":
        return node.target  # type: ignore[union-attr]
    return ""


def fn_namespace_uri(context: Context, args: Sequence[object]) -> object:
    _arity("namespace-uri", args, 0, 1)
    node = _first_node(context, args, "namespace-uri")
    if isinstance(node, (Element, Attribute)):
        return node.namespace_uri or ""
    return ""


def fn_name(context: Context, args: Sequence[object]) -> object:
    _arity("name", args, 0, 1)
    node = _first_node(context, args, "name")
    if node is None:
        return ""
    if isinstance(node, (Element, Attribute)):
        return node.name
    if isinstance(node, NamespaceNode):
        return node.prefix_name
    if node.kind == "processing-instruction":
        return node.target  # type: ignore[union-attr]
    return ""


def _first_node(context: Context, args: Sequence[object],
                fname: str) -> Node | None:
    if not args:
        return context.node
    if not is_node_set(args[0]):
        raise XPathTypeError(f"{fname}() requires a node-set argument")
    nodes = document_order(args[0])  # type: ignore[arg-type]
    return nodes[0] if nodes else None


# -- string functions ----------------------------------------------------------


def fn_string(context: Context, args: Sequence[object]) -> object:
    _arity("string", args, 0, 1)
    return _context_string(context, args)


def fn_concat(context: Context, args: Sequence[object]) -> object:
    _arity("concat", args, 2, 10_000)
    return "".join(to_string(arg) for arg in args)


def fn_starts_with(context: Context, args: Sequence[object]) -> object:
    _arity("starts-with", args, 2)
    return to_string(args[0]).startswith(to_string(args[1]))


def fn_contains(context: Context, args: Sequence[object]) -> object:
    _arity("contains", args, 2)
    return to_string(args[1]) in to_string(args[0])


def fn_substring_before(context: Context, args: Sequence[object]) -> object:
    _arity("substring-before", args, 2)
    haystack, needle = to_string(args[0]), to_string(args[1])
    index = haystack.find(needle)
    return haystack[:index] if index >= 0 else ""


def fn_substring_after(context: Context, args: Sequence[object]) -> object:
    _arity("substring-after", args, 2)
    haystack, needle = to_string(args[0]), to_string(args[1])
    index = haystack.find(needle)
    return haystack[index + len(needle):] if index >= 0 else ""


def fn_substring(context: Context, args: Sequence[object]) -> object:
    _arity("substring", args, 2, 3)
    text = to_string(args[0])
    # Per §4.2 a position p is kept iff p >= round(start) and, with a
    # length, p < round(start) + round(length) — rounded *separately*,
    # with IEEE semantics (so -inf + inf = NaN keeps nothing).
    start = _xpath_round(to_number(args[1]))
    if len(args) == 3:
        end = start + _xpath_round(to_number(args[2]))
    else:
        end = math.inf
    if math.isnan(start) or math.isnan(end):
        return ""
    begin = max(start, 1.0)
    if begin == math.inf or end <= begin:
        return ""
    if end == math.inf:
        return text[int(begin) - 1:]
    return text[int(begin) - 1:int(end) - 1]


def _xpath_round(value: float) -> float:
    """round() per XPath: .5 towards +infinity; NaN/inf pass through."""
    if math.isnan(value) or math.isinf(value):
        return value
    return float(math.floor(value + 0.5))


def fn_string_length(context: Context, args: Sequence[object]) -> object:
    _arity("string-length", args, 0, 1)
    return float(len(_context_string(context, args)))


def fn_normalize_space(context: Context, args: Sequence[object]) -> object:
    _arity("normalize-space", args, 0, 1)
    return collapse_whitespace(_context_string(context, args))


def fn_translate(context: Context, args: Sequence[object]) -> object:
    _arity("translate", args, 3)
    text = to_string(args[0])
    source = to_string(args[1])
    target = to_string(args[2])
    mapping: dict[str, str | None] = {}
    for index, ch in enumerate(source):
        if ch not in mapping:
            mapping[ch] = target[index] if index < len(target) else None
    out: list[str] = []
    for ch in text:
        if ch in mapping:
            replacement = mapping[ch]
            if replacement is not None:
                out.append(replacement)
        else:
            out.append(ch)
    return "".join(out)


# -- boolean functions --------------------------------------------------------------


def fn_boolean(context: Context, args: Sequence[object]) -> object:
    _arity("boolean", args, 1)
    return to_boolean(args[0])


def fn_not(context: Context, args: Sequence[object]) -> object:
    _arity("not", args, 1)
    return not to_boolean(args[0])


def fn_true(context: Context, args: Sequence[object]) -> object:
    _arity("true", args, 0)
    return True


def fn_false(context: Context, args: Sequence[object]) -> object:
    _arity("false", args, 0)
    return False


def fn_lang(context: Context, args: Sequence[object]) -> object:
    _arity("lang", args, 1)
    wanted = to_string(args[0]).lower()
    node: Node | None = context.node
    while node is not None:
        if isinstance(node, Element):
            value = node.get_attribute("xml:lang")
            if value is not None:
                actual = value.lower()
                return actual == wanted or \
                    actual.startswith(wanted + "-")
        node = node.parent
    return False


# -- number functions ---------------------------------------------------------------


def fn_number(context: Context, args: Sequence[object]) -> object:
    _arity("number", args, 0, 1)
    if args:
        return to_number(args[0])
    return to_number(context.node.string_value())


def fn_sum(context: Context, args: Sequence[object]) -> object:
    _arity("sum", args, 1)
    if not is_node_set(args[0]):
        raise XPathTypeError("sum() requires a node-set")
    return float(sum(
        to_number(node.string_value())
        for node in args[0]))  # type: ignore[union-attr]


def fn_floor(context: Context, args: Sequence[object]) -> object:
    _arity("floor", args, 1)
    value = to_number(args[0])
    return value if math.isnan(value) or math.isinf(value) \
        else float(math.floor(value))


def fn_ceiling(context: Context, args: Sequence[object]) -> object:
    _arity("ceiling", args, 1)
    value = to_number(args[0])
    return value if math.isnan(value) or math.isinf(value) \
        else float(math.ceil(value))


def fn_round(context: Context, args: Sequence[object]) -> object:
    _arity("round", args, 1)
    value = to_number(args[0])
    if math.isnan(value) or math.isinf(value):
        return value
    # XPath rounds .5 towards positive infinity (unlike banker's rounding).
    return float(math.floor(value + 0.5))


#: The complete core library, keyed by function name.
CORE_FUNCTIONS = {
    "last": fn_last,
    "position": fn_position,
    "count": fn_count,
    "id": fn_id,
    "local-name": fn_local_name,
    "namespace-uri": fn_namespace_uri,
    "name": fn_name,
    "string": fn_string,
    "concat": fn_concat,
    "starts-with": fn_starts_with,
    "contains": fn_contains,
    "substring-before": fn_substring_before,
    "substring-after": fn_substring_after,
    "substring": fn_substring,
    "string-length": fn_string_length,
    "normalize-space": fn_normalize_space,
    "translate": fn_translate,
    "boolean": fn_boolean,
    "not": fn_not,
    "true": fn_true,
    "false": fn_false,
    "lang": fn_lang,
    "number": fn_number,
    "sum": fn_sum,
    "floor": fn_floor,
    "ceiling": fn_ceiling,
    "round": fn_round,
}
