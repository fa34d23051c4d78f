"""Built-in XML Schema datatypes (XSD Part 2 subset).

Each datatype knows how to normalize a lexical form (whiteSpace facet),
parse it into a typed Python value, and describe itself.  The set covers
everything ``goldmodel.xsd`` uses (``string``, ``boolean``, ``date``,
``ID``, ``IDREF``) plus the numeric, temporal and token types any realistic
schema needs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date, datetime, time
from decimal import Decimal, InvalidOperation
from typing import Callable

from ..xml.chars import (
    collapse_whitespace,
    is_name,
    is_ncname,
    is_qname,
    split_xml_space,
)

__all__ = ["Datatype", "BUILTIN_TYPES", "lookup_builtin"]

# whiteSpace facet values.
PRESERVE = "preserve"
REPLACE = "replace"
COLLAPSE = "collapse"


@dataclass(frozen=True)
class Datatype:
    """A built-in atomic datatype.

    ``parse`` maps a whitespace-normalized lexical form to a Python value,
    raising ``ValueError`` when the form is not in the lexical space.
    """

    name: str
    parse: Callable[[str], object]
    whitespace: str = COLLAPSE
    #: Set for the ID/IDREF family so the validator can track references.
    id_kind: str | None = None

    def normalize(self, text: str) -> str:
        """Apply this type's whiteSpace facet to raw text.

        Text the facet would leave unchanged (the common case) is
        returned as it is, after one regex search.
        """
        if self.whitespace == PRESERVE:
            return text
        if self.whitespace == REPLACE:
            if _REPLACEABLE.search(text) is None:
                return text
            return text.replace("\t", " ").replace("\n", " ") \
                .replace("\r", " ")
        if _COLLAPSIBLE.search(text) is None:
            return text
        return collapse_whitespace(text)

    def check(self, text: str) -> tuple[str, object]:
        """Normalize and parse *text*: ``(lexical form, typed value)``.

        Raises ``ValueError`` when *text* is not in the lexical space.
        """
        lexical = self.normalize(text)
        return lexical, self.parse(lexical)

    def validate(self, text: str) -> object:
        """Normalize and parse *text*; raises ``ValueError`` when invalid."""
        return self.check(text)[1]


#: What the ``replace`` facet changes: tab, line feed, carriage return.
_REPLACEABLE = re.compile("[\t\n\r]")
#: What ``collapse`` changes besides those: a space at either end or
#: next to another space.
_COLLAPSIBLE = re.compile("[\t\n\r]|  |^ | $")


# -- parsers -----------------------------------------------------------------


def _parse_string(text: str) -> str:
    return text


def _parse_boolean(text: str) -> bool:
    if text in ("true", "1"):
        return True
    if text in ("false", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_decimal(text: str) -> Decimal:
    if not re.fullmatch(r"[+-]?(\d+(\.\d*)?|\.\d+)", text):
        raise ValueError(f"not a decimal: {text!r}")
    try:
        return Decimal(text)
    except InvalidOperation:  # pragma: no cover - regex should prevent this
        raise ValueError(f"not a decimal: {text!r}") from None


def _integer_parser(low: int | None, high: int | None,
                    type_name: str) -> Callable[[str], int]:
    def parse(text: str) -> int:
        if not re.fullmatch(r"[+-]?\d+", text):
            raise ValueError(f"not an integer: {text!r}")
        value = int(text)
        if low is not None and value < low:
            raise ValueError(f"{value} below minimum of {type_name}")
        if high is not None and value > high:
            raise ValueError(f"{value} above maximum of {type_name}")
        return value

    return parse


def _parse_float(text: str) -> float:
    if text in ("INF", "+INF"):
        return float("inf")
    if text == "-INF":
        return float("-inf")
    if text == "NaN":
        return float("nan")
    if not re.fullmatch(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?", text):
        raise ValueError(f"not a float: {text!r}")
    return float(text)


_DATE_RE = re.compile(
    r"(-?\d{4,})-(\d{2})-(\d{2})(Z|[+-]\d{2}:\d{2})?")
_TIME_RE = re.compile(
    r"(\d{2}):(\d{2}):(\d{2})(\.\d+)?(Z|[+-]\d{2}:\d{2})?")
_DATETIME_RE = re.compile(
    r"(-?\d{4,})-(\d{2})-(\d{2})T"
    r"(\d{2}):(\d{2}):(\d{2})(\.\d+)?(Z|[+-]\d{2}:\d{2})?")


def _parse_date(text: str) -> date:
    match = _DATE_RE.fullmatch(text)
    if not match:
        raise ValueError(f"not a date: {text!r}")
    year, month, day = int(match[1]), int(match[2]), int(match[3])
    try:
        return date(year, month, day)
    except ValueError:
        raise ValueError(f"not a valid calendar date: {text!r}") from None


def _parse_time(text: str) -> time:
    match = _TIME_RE.fullmatch(text)
    if not match:
        raise ValueError(f"not a time: {text!r}")
    hour, minute, second = int(match[1]), int(match[2]), int(match[3])
    micro = int(float(match[4] or "0") * 1_000_000)
    if hour == 24 and minute == 0 and second == 0:
        hour = 0
    try:
        return time(hour, minute, second, micro)
    except ValueError:
        raise ValueError(f"not a valid time: {text!r}") from None


def _parse_datetime(text: str) -> datetime:
    match = _DATETIME_RE.fullmatch(text)
    if not match:
        raise ValueError(f"not a dateTime: {text!r}")
    micro = int(float(match[7] or "0") * 1_000_000)
    try:
        return datetime(int(match[1]), int(match[2]), int(match[3]),
                        int(match[4]), int(match[5]), int(match[6]), micro)
    except ValueError:
        raise ValueError(f"not a valid dateTime: {text!r}") from None


def _parse_gyear(text: str) -> int:
    if not re.fullmatch(r"-?\d{4,}(Z|[+-]\d{2}:\d{2})?", text):
        raise ValueError(f"not a gYear: {text!r}")
    return int(text.rstrip("Z").split("+")[0])


_DURATION_RE = re.compile(
    r"-?P(?=.)(\d+Y)?(\d+M)?(\d+D)?(T(?=.)(\d+H)?(\d+M)?(\d+(\.\d+)?S)?)?")


def _parse_duration(text: str) -> str:
    if not _DURATION_RE.fullmatch(text):
        raise ValueError(f"not a duration: {text!r}")
    return text


def _parse_any_uri(text: str) -> str:
    # anyURI's lexical space is deliberately loose; reject only whitespace
    # (already collapsed) and control characters.
    if any(ord(ch) < 0x20 for ch in text):
        raise ValueError(f"not a URI: {text!r}")
    return text


def _name_parser(predicate: Callable[[str], bool],
                 type_name: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if not predicate(text):
            raise ValueError(f"not a valid {type_name}: {text!r}")
        return text

    return parse


_NMTOKEN_RE = re.compile(r"[-.:\w·̀-ͯ‿-⁀]+")


def _parse_nmtoken(text: str) -> str:
    if not _NMTOKEN_RE.fullmatch(text):
        raise ValueError(f"not an NMTOKEN: {text!r}")
    return text


def _list_parser(item: Callable[[str], object],
                 type_name: str) -> Callable[[str], list[object]]:
    def parse(text: str) -> list[object]:
        tokens = split_xml_space(text)
        if not tokens:
            raise ValueError(f"empty {type_name} list")
        return [item(token) for token in tokens]

    return parse


def _parse_language(text: str) -> str:
    if not re.fullmatch(r"[a-zA-Z]{1,8}(-[a-zA-Z0-9]{1,8})*", text):
        raise ValueError(f"not a language code: {text!r}")
    return text


def _parse_base64(text: str) -> bytes:
    import base64

    try:
        return base64.b64decode(text.replace(" ", ""), validate=True)
    except Exception:
        raise ValueError(f"not base64: {text!r}") from None


def _parse_hex(text: str) -> bytes:
    if len(text) % 2 or not re.fullmatch(r"[0-9a-fA-F]*", text):
        raise ValueError(f"not hexBinary: {text!r}")
    return bytes.fromhex(text)


# -- registry --------------------------------------------------------------------

_INT32 = 2 ** 31
_INT64 = 2 ** 63

BUILTIN_TYPES: dict[str, Datatype] = {}


def _register(datatype: Datatype) -> Datatype:
    BUILTIN_TYPES[datatype.name] = datatype
    return datatype


_register(Datatype("string", _parse_string, PRESERVE))
_register(Datatype("normalizedString", _parse_string, REPLACE))
_register(Datatype("token", _parse_string))
_register(Datatype("language", _parse_language))
_register(Datatype("boolean", _parse_boolean))
_register(Datatype("decimal", _parse_decimal))
_register(Datatype("integer", _integer_parser(None, None, "integer")))
_register(Datatype("nonNegativeInteger",
                   _integer_parser(0, None, "nonNegativeInteger")))
_register(Datatype("positiveInteger",
                   _integer_parser(1, None, "positiveInteger")))
_register(Datatype("nonPositiveInteger",
                   _integer_parser(None, 0, "nonPositiveInteger")))
_register(Datatype("negativeInteger",
                   _integer_parser(None, -1, "negativeInteger")))
_register(Datatype("long", _integer_parser(-_INT64, _INT64 - 1, "long")))
_register(Datatype("int", _integer_parser(-_INT32, _INT32 - 1, "int")))
_register(Datatype("short", _integer_parser(-32768, 32767, "short")))
_register(Datatype("byte", _integer_parser(-128, 127, "byte")))
_register(Datatype("unsignedLong",
                   _integer_parser(0, 2 ** 64 - 1, "unsignedLong")))
_register(Datatype("unsignedInt",
                   _integer_parser(0, 2 ** 32 - 1, "unsignedInt")))
_register(Datatype("unsignedShort",
                   _integer_parser(0, 65535, "unsignedShort")))
_register(Datatype("unsignedByte", _integer_parser(0, 255, "unsignedByte")))
_register(Datatype("float", _parse_float))
_register(Datatype("double", _parse_float))
_register(Datatype("date", _parse_date))
_register(Datatype("time", _parse_time))
_register(Datatype("dateTime", _parse_datetime))
_register(Datatype("gYear", _parse_gyear))
_register(Datatype("duration", _parse_duration))
_register(Datatype("anyURI", _parse_any_uri))
_register(Datatype("Name", _name_parser(is_name, "Name")))
_register(Datatype("NCName", _name_parser(is_ncname, "NCName")))
_register(Datatype("QName", _name_parser(is_qname, "QName")))
_register(Datatype("NMTOKEN", _parse_nmtoken))
_register(Datatype("NMTOKENS", _list_parser(_parse_nmtoken, "NMTOKENS")))
_register(Datatype("ID", _name_parser(is_ncname, "ID"), id_kind="ID"))
_register(Datatype("IDREF", _name_parser(is_ncname, "IDREF"),
                   id_kind="IDREF"))
_register(Datatype(
    "IDREFS",
    _list_parser(_name_parser(is_ncname, "IDREF"), "IDREFS"),
    id_kind="IDREFS"))
_register(Datatype("ENTITY", _name_parser(is_ncname, "ENTITY")))
_register(Datatype("base64Binary", _parse_base64))
_register(Datatype("hexBinary", _parse_hex))
_register(Datatype("anySimpleType", _parse_string, PRESERVE))


def lookup_builtin(name: str) -> Datatype:
    """Return the built-in datatype *name* (``xsd:`` prefix stripped).

    Raises ``KeyError`` with a helpful message for unknown names.
    """
    local = name.split(":", 1)[-1]
    try:
        return BUILTIN_TYPES[local]
    except KeyError:
        raise KeyError(f"unknown built-in XSD type {name!r}") from None
