"""XML 1.0 (Fifth Edition) character-class predicates and name validation.

These predicates implement the productions the parser and the schema
validator depend on:

* ``Char``      — characters legal anywhere in a document (production [2])
* ``S``         — white space (production [3])
* ``NameStartChar`` / ``NameChar`` — productions [4] and [4a]
* ``Name`` / ``NCName`` / ``QName`` — XML names and their
  namespaces-aware variants (Namespaces in XML 1.0, productions [7]–[10])

The ranges are transcribed directly from the specification.  They are kept
as tuples of ``(low, high)`` code-point pairs and searched with
:func:`bisect.bisect_right`, which keeps membership checks O(log n) without
building multi-megabyte lookup sets.  The same tables generate the regular
expression character classes the lexer scans whole runs with
(:data:`NAME_START_CLASS`, :data:`NAME_CHAR_CLASS`, :data:`NON_CHAR_CLASS`),
so a character class is defined once for both uses.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import lru_cache

__all__ = [
    "is_xml_char",
    "is_space",
    "is_name_start_char",
    "is_name_char",
    "is_name",
    "is_ncname",
    "is_qname",
    "split_qname",
    "strip_xml_space",
    "split_xml_space",
    "collapse_whitespace",
    "NAME_START_CLASS",
    "NAME_CHAR_CLASS",
    "NON_CHAR_CLASS",
    "NAME_RE",
]

# Production [2] Char, XML 1.0 5th edition.
_CHAR_RANGES = (
    (0x9, 0xA),
    (0xD, 0xD),
    (0x20, 0xD7FF),
    (0xE000, 0xFFFD),
    (0x10000, 0x10FFFF),
)

# Production [4] NameStartChar.
_NAME_START_RANGES = (
    (ord(":"), ord(":")),
    (ord("A"), ord("Z")),
    (ord("_"), ord("_")),
    (ord("a"), ord("z")),
    (0xC0, 0xD6),
    (0xD8, 0xF6),
    (0xF8, 0x2FF),
    (0x370, 0x37D),
    (0x37F, 0x1FFF),
    (0x200C, 0x200D),
    (0x2070, 0x218F),
    (0x2C00, 0x2FEF),
    (0x3001, 0xD7FF),
    (0xF900, 0xFDCF),
    (0xFDF0, 0xFFFD),
    (0x10000, 0xEFFFF),
)

# Production [4a] NameChar = NameStartChar | extra ranges below.
_NAME_EXTRA_RANGES = (
    (ord("-"), ord("-")),
    (ord("."), ord(".")),
    (ord("0"), ord("9")),
    (0xB7, 0xB7),
    (0x300, 0x36F),
    (0x203F, 0x2040),
)

_SPACE = frozenset(" \t\r\n")


def _compile(ranges: tuple[tuple[int, int], ...]) -> tuple[list[int], list[int]]:
    lows = [low for low, _ in ranges]
    highs = [high for _, high in ranges]
    return lows, highs


_CHAR_LOWS, _CHAR_HIGHS = _compile(_CHAR_RANGES)
_START_LOWS, _START_HIGHS = _compile(
    tuple(sorted(_NAME_START_RANGES)))
_NAME_LOWS, _NAME_HIGHS = _compile(
    tuple(sorted(_NAME_START_RANGES + _NAME_EXTRA_RANGES)))


def _class_body(ranges: tuple[tuple[int, int], ...]) -> str:
    """The inside of a regex character class matching *ranges*."""
    return "".join(f"\\U{low:08x}-\\U{high:08x}" for low, high in ranges)


def _complement(ranges: tuple[tuple[int, int], ...]
                ) -> tuple[tuple[int, int], ...]:
    """The code points in no range of the sorted, disjoint *ranges*."""
    gaps, low = [], 0
    for start, end in ranges:
        if start > low:
            gaps.append((low, start - 1))
        low = end + 1
    if low <= 0x10FFFF:
        gaps.append((low, 0x10FFFF))
    return tuple(gaps)


#: Regex class bodies (without the brackets) for NameStartChar, NameChar
#: and every code point that is not a ``Char``.
NAME_START_CLASS = _class_body(_NAME_START_RANGES)
NAME_CHAR_CLASS = _class_body(_NAME_START_RANGES + _NAME_EXTRA_RANGES)
NON_CHAR_CLASS = _class_body(_complement(_CHAR_RANGES))

#: Production [5] Name.
NAME_RE = re.compile(f"[{NAME_START_CLASS}][{NAME_CHAR_CLASS}]*")


def _in_ranges(cp: int, lows: list[int], highs: list[int]) -> bool:
    idx = bisect_right(lows, cp) - 1
    return idx >= 0 and cp <= highs[idx]


def is_xml_char(ch: str) -> bool:
    """Return True if *ch* may appear anywhere in an XML 1.0 document."""
    return _in_ranges(ord(ch), _CHAR_LOWS, _CHAR_HIGHS)


def is_space(ch: str) -> bool:
    """Return True if *ch* matches the XML ``S`` production."""
    return ch in _SPACE


def is_name_start_char(ch: str) -> bool:
    """Return True if *ch* may start an XML Name."""
    return _in_ranges(ord(ch), _START_LOWS, _START_HIGHS)


def is_name_char(ch: str) -> bool:
    """Return True if *ch* may appear inside an XML Name."""
    return _in_ranges(ord(ch), _NAME_LOWS, _NAME_HIGHS)


# The name predicates and split_qname are memoized: document and result
# trees repeat a small vocabulary of element/attribute names, and these
# run on the hot path of every Element/Attribute construction.

@lru_cache(maxsize=8192)
def is_name(text: str) -> bool:
    """Return True if *text* is a valid XML ``Name`` (colons allowed)."""
    return NAME_RE.fullmatch(text) is not None


@lru_cache(maxsize=8192)
def is_ncname(text: str) -> bool:
    """Return True if *text* is a valid ``NCName`` (a Name without colons)."""
    return is_name(text) and ":" not in text


@lru_cache(maxsize=8192)
def is_qname(text: str) -> bool:
    """Return True if *text* is a valid ``QName`` (``prefix:local`` or local)."""
    if ":" not in text:
        return is_ncname(text)
    prefix, _, local = text.partition(":")
    return is_ncname(prefix) and is_ncname(local)


@lru_cache(maxsize=8192)
def split_qname(text: str) -> tuple[str | None, str]:
    """Split a QName into ``(prefix, local)``; prefix is None when absent."""
    if ":" in text:
        prefix, _, local = text.partition(":")
        return prefix, local
    return None, text


def strip_xml_space(text: str) -> str:
    """Strip leading/trailing XML white space (the ``S`` characters only)."""
    return text.strip(" \t\r\n")


_NON_SPACE_RUN = re.compile("[^ \t\r\n]+")


def split_xml_space(text: str) -> list[str]:
    """Split *text* on runs of XML white space (the ``S`` characters
    only), dropping empty tokens.

    ``str.split()`` is not a substitute: it also splits on U+00A0,
    U+0085, U+2028, U+3000 and other characters XML counts as content.
    """
    return _NON_SPACE_RUN.findall(text)


def collapse_whitespace(text: str) -> str:
    """Apply the XSD ``collapse`` whiteSpace facet to *text*."""
    return " ".join(split_xml_space(text))
