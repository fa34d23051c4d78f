"""Low-level scanning support for the XML parser.

:class:`Scanner` is a cursor over the document text that tracks line and
column positions and provides the primitive operations the recursive-descent
parser is built from (peek/advance/expect/read-until).  Names and white
space are consumed with one compiled-regex match per run, never one
character at a time.  Keeping it separate lets the DTD parser reuse the
same machinery for the internal subset.
"""

from __future__ import annotations

import re
from bisect import bisect_right

from .chars import NAME_CHAR_CLASS, NAME_RE
from .errors import XMLSyntaxError

__all__ = ["Scanner"]

_SPACE_RE = re.compile(r"[ \t\r\n]*")
_NMTOKEN_RE = re.compile(f"[{NAME_CHAR_CLASS}]+")


class Scanner:
    """A position-tracking cursor over *text*."""

    __slots__ = ("text", "pos", "_line_starts")

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        # Precompute line start offsets for O(log n) position reporting.
        starts = [0]
        find = text.find
        idx = find("\n")
        while idx != -1:
            starts.append(idx + 1)
            idx = find("\n", idx + 1)
        self._line_starts = starts

    # -- positions -----------------------------------------------------------

    def location(self, pos: int | None = None) -> tuple[int, int]:
        """Return 1-based ``(line, column)`` for *pos* (default: current)."""
        if pos is None:
            pos = self.pos
        line = bisect_right(self._line_starts, pos)
        return line, pos - self._line_starts[line - 1] + 1

    def error(self, message: str, pos: int | None = None) -> XMLSyntaxError:
        """Build an :class:`XMLSyntaxError` at *pos* (default: current)."""
        line, column = self.location(pos)
        return XMLSyntaxError(message, line, column)

    # -- primitives ------------------------------------------------------------

    @property
    def at_end(self) -> bool:
        """True when the cursor has consumed all input."""
        return self.pos >= len(self.text)

    def peek(self, offset: int = 0) -> str:
        """The character at cursor+offset, or '' past the end."""
        idx = self.pos + offset
        return self.text[idx] if idx < len(self.text) else ""

    def advance(self, count: int = 1) -> None:
        """Move the cursor forward *count* characters."""
        self.pos += count

    def startswith(self, literal: str) -> bool:
        """True if the input at the cursor begins with *literal*."""
        return self.text.startswith(literal, self.pos)

    def match(self, literal: str) -> bool:
        """Consume *literal* if present; return whether it was consumed."""
        if self.startswith(literal):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str, what: str | None = None) -> None:
        """Consume *literal* or raise a syntax error mentioning *what*."""
        if not self.match(literal):
            found = self.peek() or "end of input"
            raise self.error(
                f"expected {what or literal!r}, found {found!r}")

    def skip_space(self) -> bool:
        """Skip XML white space; return True if any was consumed."""
        start = self.pos
        self.pos = _SPACE_RE.match(self.text, start).end()
        return self.pos != start

    def require_space(self, context: str) -> None:
        """Skip white space, raising if none was present."""
        if not self.skip_space():
            raise self.error(f"white space required {context}")

    def read_name(self, what: str = "name") -> str:
        """Consume and return an XML Name."""
        match = NAME_RE.match(self.text, self.pos)
        if match is None:
            raise self.error(f"expected {what}")
        self.pos = match.end()
        return match.group()

    def read_nmtoken(self) -> str:
        """Consume and return an XML Nmtoken (one or more NameChars)."""
        match = _NMTOKEN_RE.match(self.text, self.pos)
        if match is None:
            raise self.error("expected an NMTOKEN")
        self.pos = match.end()
        return match.group()

    def read_until(self, terminator: str, what: str) -> str:
        """Consume and return text up to *terminator* (also consumed)."""
        idx = self.text.find(terminator, self.pos)
        if idx == -1:
            raise self.error(f"unterminated {what}")
        chunk = self.text[self.pos:idx]
        self.pos = idx + len(terminator)
        return chunk

    def read_quoted(self, what: str) -> str:
        """Consume a quoted literal ('...' or "...") and return its body."""
        quote = self.peek()
        if quote not in ("'", '"'):
            raise self.error(f"expected quoted {what}")
        self.advance()
        return self.read_until(quote, what)
