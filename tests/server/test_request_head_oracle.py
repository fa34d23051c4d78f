"""Differential oracle: the server's request-head parser against the stdlib's.

``_RepositoryHandler.parse_request`` reads the request line and header
lines itself; the stdlib's ``BaseHTTPRequestHandler.parse_request``
(``email.feedparser`` underneath) shares no code with it.  Both run on
in-memory streams over one corpus of request heads: hand-written
valid and malformed heads plus seeded one-edit mutants of the valid
ones.  For each head they must give the same error status, or both
accept it with the same method, target, version, close decision,
``100 Continue`` and headers.  The stdlib's headers are compared as
``app.handle`` received them before the server parsed heads itself:
``dict(headers.items())`` with names lower-cased.

Where the two may differ, :data:`ALLOWED` says how and why.  A head is
put in a category by :func:`_category`, which reads the raw bytes
without either parser.
"""

from __future__ import annotations

import io
import random
import re
import sys
from http.server import BaseHTTPRequestHandler

import pytest

from repro.server.httpd import _RepositoryHandler

#: How the new parser may answer where the stdlib differs, and why: a
#: status sent without ``100 Continue``, or None for the stdlib's own
#: outcome without the ``100 Continue``.
ALLOWED = {
    "not-a-field-line": (
        400, "A header line that is not `name: value`, with a name of "
        "visible ASCII: RFC 9112 §5 makes it invalid.  The stdlib ends "
        "the head at such a line and silently drops the headers after "
        "it (or drops the line alone, for an empty name or a line "
        "starting `From `)."),
    "space-before-colon": (
        400, "RFC 9112 §5.1: a server MUST answer 400 to whitespace "
        "between a field name and its colon.  The stdlib ends the head "
        "there and drops the headers after it."),
    "obs-fold": (
        400, "RFC 9112 §5.2 lets a server reject a folded line with 400. "
        "The stdlib joins it to the previous value, CRLF included, or "
        "drops it when no field precedes it."),
    "cr-or-nul": (
        400, "RFC 9110 §5.5: a value holding a CR or NUL is invalid, "
        "and RFC 9112 §2.2 lets a recipient reject a bare CR.  The "
        "stdlib keeps a NUL in the value and splits the line at a CR."),
    "transfer-encoding": (
        501, "RFC 9112 §6.1: this server cannot decode a transfer coding, "
        "so any Transfer-Encoding is 501 and a close.  The stdlib "
        "accepts it, and the body would be read as the next request."),
    "conflicting-content-length": (
        400, "RFC 9112 §6.3: differing Content-Length values make the "
        "framing invalid, so 400 and a close.  The stdlib accepts, "
        "keeping the first value for framing and the last for the app."),
    "expect-without-length": (
        None, "RFC 9110 §10.1.1: a server may omit the 100 when the "
        "framing says there is no content, and without a Content-Length "
        "this server reads none; the stdlib invites a body it would "
        "then read as the next request.  Otherwise the two agree."),
    "expect-with-refused-length": (
        400, "The Content-Length is checked before the 100, so a body "
        "the server will refuse is never invited.  The stdlib sends the "
        "100 and leaves the length to the handler."),
    "py310-version": (
        400, "Python 3.10's stdlib parses version numbers with int() "
        "alone; 3.11 added the check for 1-10 ASCII digits that the new "
        "parser applies, so 3.10 accepts `HTTP/+1.1` or reads "
        "`HTTP/12345678901.1` as HTTP/2 and later (505)."),
}

SERVED = ("GET", "HEAD", "POST", "PUT", "DELETE")


class _Probe:
    """Records what one handler made of a head, without an app."""

    quiet = False  # so every response reaches log_request

    def log_request(self, code="-", size="-") -> None:
        if self.status is None:
            self.status = int(code)

    def log_message(self, format, *args) -> None:  # noqa: A002
        pass

    def accepted(self) -> None:
        self.outcome = (self.command, self.path, self.request_version,
                        self.close_connection, self.received_headers())


class _Stdlib(_Probe, BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def received_headers(self) -> dict[str, str]:
        return {name.lower(): value
                for name, value in dict(self.headers.items()).items()}

    do_GET = do_HEAD = do_POST = do_PUT = do_DELETE = _Probe.accepted


class _New(_Probe, _RepositoryHandler):
    def received_headers(self) -> dict[str, str]:
        return dict(self.headers)

    def _dispatch(self, method: str) -> None:
        self.accepted()


def _run(handler_class, head: bytes) -> tuple:
    """``("status", n)``, ``("accept", ...)`` or ``("none",)``, plus
    whether ``100 Continue`` was sent."""
    handler = handler_class.__new__(handler_class)
    handler.rfile = io.BytesIO(head)
    handler.wfile = io.BytesIO()
    handler.client_address = ("127.0.0.1", 0)
    handler.status = handler.outcome = None
    handler.close_connection = True
    handler.handle_one_request()
    continued = handler.wfile.getvalue().startswith(
        b"HTTP/1.1 100 Continue\r\n\r\n")
    if handler.status is not None:
        return ("status", handler.status), continued
    if handler.outcome is not None:
        return ("accept", *handler.outcome), continued
    return ("none",), continued


# -- the corpus -------------------------------------------------------------

def _head(request_line: str, *fields: str, end: str = "\r\n") -> bytes:
    return "".join(line + end for line in (request_line, *fields, "")
                   ).encode("iso-8859-1")


VALID = {
    **{f"{method.lower()}": _head(
        f"{method} /models/sales HTTP/1.1", "Host: 127.0.0.1:8040",
        "Accept-Encoding: identity", "Content-Length: 0")
       for method in SERVED},
    "get-site-conditional": _head(
        "GET /site/sales/index.html HTTP/1.1", "Host: h",
        'If-None-Match: "abc123"', "User-Agent: goldbench"),
    "http-1.0": _head("GET / HTTP/1.0", "Host: h"),
    "http-1.0-keep-alive": _head("GET / HTTP/1.0", "Connection: keep-alive"),
    "http-0.9": _head("GET /models/sales"),
    "http-0.9-with-header": _head("GET /", "Host: h"),
    "connection-close": _head("GET / HTTP/1.1", "Connection: close"),
    "connection-close-mixed-case": _head("GET / HTTP/1.1",
                                         "connection: CLOSE"),
    "connection-keep-alive": _head("GET / HTTP/1.1",
                                   "Connection: keep-alive"),
    "expect-100": _head("PUT /models/x HTTP/1.1", "Host: h",
                        "Expect: 100-continue", "Content-Length: 4"),
    "expect-100-http-1.0": _head("PUT /models/x HTTP/1.0",
                                 "Expect: 100-continue"),
    "duplicate-headers": _head("GET / HTTP/1.1", "Accept: a/b",
                               "Accept: c/d", "X-Trace: 1", "X-Trace: 2"),
    "duplicate-content-length": _head("PUT /models/x HTTP/1.1",
                                      "Content-Length: 3",
                                      "Content-Length: 3"),
    "mixed-case-names": _head("GET / HTTP/1.1", "HOST: h", "accept: x",
                              "X-GoldCase-Request-ID: abc",
                              "x-goldcase-request-id: def"),
    "bare-lf": _head("GET / HTTP/1.1", "Host: h", "Accept: x", end="\n"),
    "blank-values": _head("GET / HTTP/1.1", "X-Empty:", "X-Blank:   ",
                          "X-Tab:\tv\t"),
    "no-space-after-colon": _head("GET / HTTP/1.1", "Host:h"),
    "obs-text-value": _head("GET / HTTP/1.1", "X-Name: caf\xe9"),
    "double-slash-target": _head("GET //evil.example/x HTTP/1.1"),
    "98-lines": _head("GET / HTTP/1.1",
                      *(f"X-H{index}: v" for index in range(98))),
    "99-lines": _head("GET / HTTP/1.1",
                      *(f"X-H{index}: v" for index in range(99))),
    "line-of-65536-bytes": _head(
        "GET / HTTP/1.1", "X-Pad: " + "a" * (65536 - len("X-Pad: \r\n"))),
}

MALFORMED = {
    "folded-line": _head("GET / HTTP/1.1", "X-Long: a", " b", "Host: h"),
    "folded-first-line": _head("GET / HTTP/1.1", "\tb", "Host: h"),
    "no-colon": _head("GET / HTTP/1.1", "Host: h", "NoColonHere",
                      "Accept: x"),
    "empty-name": _head("GET / HTTP/1.1", ": v", "Host: h"),
    "from-line": _head("GET / HTTP/1.1", "From someone", "Host: h"),
    "space-before-colon": _head("GET / HTTP/1.1", "Host : h", "Accept: x"),
    "tab-before-colon": _head("GET / HTTP/1.1", "Host\t: h"),
    "nul-in-value": _head("GET / HTTP/1.1", "X-A: a\x00b"),
    "cr-in-value": _head("GET / HTTP/1.1", "X-A: a\rb", "Host: h"),
    "transfer-encoding": _head("PUT /models/x HTTP/1.1", "Host: h",
                               "Transfer-Encoding: chunked"),
    "conflicting-content-length": _head(
        "PUT /models/x HTTP/1.1", "Content-Length: 5", "Content-Length: 40"),
    "100-lines": _head("GET / HTTP/1.1",
                       *(f"X-H{index}: v" for index in range(100))),
    "150-lines": _head("GET / HTTP/1.1",
                       *(f"X-H{index}: v" for index in range(150))),
    "line-of-65537-bytes": _head(
        "GET / HTTP/1.1", "X-Pad: " + "a" * (65537 - len("X-Pad: \r\n"))),
    "request-line-of-65537-bytes": _head(
        "GET /" + "a" * (65537 - len("GET / HTTP/1.1\r\n")) + " HTTP/1.1"),
    "empty-request-line": b"\r\n",
    "eof": b"",
    "one-word": _head("GARBAGE"),
    "four-words": _head("GET / extra HTTP/1.1"),
    "http-0.9-put": _head("PUT /models/x"),
    "unknown-method": _head("PATCH /models/x HTTP/1.1"),
    **{f"version-{version}": _head(f"GET / {version}")
       for version in ("HTTP/2.0", "HTTP/3.0", "HTTP/1", "HTTP/1.1.1",
                       "HTTP/a.b", "HTTPS/1.1", "http/1.1", "HTTP/1.x",
                       "HTTP/1.", "HTTP/+1.1", "HTTP/1.-1",
                       "HTTP/12345678901.1", "HTTP/1.1_0", "HTTP/\xb2.1",
                       "HTTP/01.1", "HTTP/1.10")},
}

#: Bytes the mutants insert or substitute: the head's delimiters, the
#: bytes RFC 9110 singles out, and a few ordinary ones.
MUTATION_BYTES = b" \t\r\n:\x00/.,;\x7f\x80\xff1aZ-"
MUTANTS_PER_HEAD = 40
SEED = 20240611


def _mutants() -> dict[str, bytes]:
    rng = random.Random(SEED)
    small = {name: head for name, head in VALID.items() if len(head) < 500}
    mutants = {}
    for name, head in small.items():
        for index in range(MUTANTS_PER_HEAD):
            at = rng.randrange(len(head))
            byte = bytes([rng.choice(MUTATION_BYTES)])
            edit = rng.choice(("delete", "insert", "replace"))
            if edit == "delete":
                mutant = head[:at] + head[at + 1:]
            elif edit == "insert":
                mutant = head[:at] + byte + head[at:]
            else:
                mutant = head[:at] + byte + head[at + 1:]
            mutants[f"{name}-{edit}-{at}-{byte.hex()}-{index}"] = mutant
    return mutants


CORPUS = {**VALID, **MALFORMED, **_mutants()}


# -- the allow-list's classifier --------------------------------------------

_TOKEN_NAME = re.compile(rb"[!-9;-~]+")
_VERSION_DIGITS = re.compile(rb"HTTP/[0-9]{1,10}\.[0-9]{1,10}")


def _category(head: bytes) -> str | None:
    """The first :data:`ALLOWED` category the raw *head* falls in."""
    request_line, _, rest = head.partition(b"\n")
    words = request_line.rstrip(b"\r\n").decode("iso-8859-1").split()
    if (sys.version_info < (3, 11) and len(words) >= 3
            and not _VERSION_DIGITS.fullmatch(words[-1].encode("latin-1"))):
        return "py310-version"
    lengths = set()
    length = expect = None
    for line in rest.split(b"\n"):
        if line in (b"", b"\r"):
            break
        line = line[:-1] if line.endswith(b"\r") else line
        if line[:1] in (b" ", b"\t"):
            return "obs-fold"
        name, colon, value = line.partition(b":")
        if not colon:
            return "not-a-field-line"
        if name.rstrip(b" \t") != name and name.strip(b" \t"):
            return "space-before-colon"
        if not _TOKEN_NAME.fullmatch(name):
            return "not-a-field-line"
        if b"\r" in value or b"\x00" in value:
            return "cr-or-nul"
        if name.lower() == b"transfer-encoding":
            return "transfer-encoding"
        if name.lower() == b"content-length":
            length = value.strip(b" \t")
            lengths.add(length)
        if name.lower() == b"expect":
            expect = value.strip(b" \t").lower()
    if len(lengths) > 1:
        return "conflicting-content-length"
    if expect == b"100-continue":
        if length is None:
            return "expect-without-length"
        if not length.isdigit():
            return "expect-with-refused-length"
    return None


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_new_parser_agrees_with_the_stdlib(name):
    head = CORPUS[name]
    stdlib, new = _run(_Stdlib, head), _run(_New, head)
    if new == stdlib:
        return
    category = _category(head)
    assert category is not None, (
        f"{head[:200]!r}: stdlib {stdlib}, new parser {new}")
    status, _reason = ALLOWED[category]
    answer = stdlib[0] if status is None else ("status", status)
    assert new == (answer, False), (
        f"{head[:200]!r} ({category}): stdlib {stdlib}, new parser {new}")


def test_every_allowed_difference_occurs():
    """Each allow-list entry is needed by some head of the corpus (the
    Python 3.10 one only on 3.10)."""
    used = {_category(head) for head in CORPUS.values()
            if _run(_Stdlib, head) != _run(_New, head)}
    expected = set(ALLOWED)
    if sys.version_info >= (3, 11):
        expected.discard("py310-version")
    assert used == expected
