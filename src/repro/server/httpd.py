"""The socket layer: :class:`ModelRepositoryApp` on ThreadingHTTPServer.

Stdlib-only, matching the repo's no-dependency rule.  The paper ran
XSLT "in the server and the HTML is returned to the client browser"
(§6); this module is that server.  ``ThreadingHTTPServer`` gives one
thread per connection, which is exactly the concurrency model the site
cache is built for: distinct models publish in parallel, concurrent
requests for one stale model coalesce on its build lock.  At most
:attr:`RepositoryHTTPServer.max_connections` connections are served at
once; the accepting thread answers any beyond that ``503`` itself.

The handler frames requests and responses itself, since on a read of a
cached page the stdlib's framing cost more than the application.  Its
parser reads the request line and the header lines in one pass and
splits each header line once, at its first colon, into the dict that
``app.handle`` receives (names lower-cased, the last of a repeated
field winning).  Every response — status line, headers and body — is
built as one bytes object and sent with one write, and ``Date`` is
formatted once per second.

The handler is hardened against hostile or broken clients (DESIGN.md
§12).  Request heads get the stdlib's answers: ``400`` for a malformed
request line or version, ``414`` for a request line over 65,536 bytes,
``431`` for a header line over that or more than 99 header lines,
``505`` for HTTP/2 and later.  The parser is stricter than the stdlib
where RFC 9112 lets it be: a header line that is not ``name: value``
(no colon, whitespace before the colon, obs-fold) or whose value holds
a CR or NUL is a ``400``, where the stdlib ended the head early or
kept the line.  It refuses a body framing it cannot honour: any
``Transfer-Encoding`` is ``501``, differing ``Content-Length`` values
are ``400``, both with a close.  Every connection carries a read
timeout (stalled body reads get ``408`` and a close instead of a parked
thread), request bodies are bounded (``413`` past
:data:`MAX_BODY_BYTES`), a non-numeric ``Content-Length`` is a clean
``400`` (both checked before an ``Expect: 100-continue`` is
answered, so a refused body is never invited), and an exception
escaping the application layer is answered with a JSON ``500`` and a
closed connection — never a traceback that kills the handler thread
mid-response.  The regression tests in
``tests/server/test_http_errors.py`` pin all of these behaviours, and
``tests/server/test_request_head_oracle.py`` checks the parser against
the stdlib's.  ``httpd.read`` / ``httpd.write`` fault-injection points
simulate slow and vanishing clients on either side of the application
call.

:class:`ModelServer` is the embeddable form (tests, benchmarks: bind
port 0, ``start()``, talk HTTP, ``stop()``); :func:`serve_forever`
is the blocking form behind ``goldcase serve``.
"""

from __future__ import annotations

import json
import re
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..faults import FAULTS, FaultError, fault_point
from ..obs.recorder import RECORDER as _REC
from .app import ModelRepositoryApp

__all__ = ["ModelServer", "RepositoryHTTPServer", "make_handler",
           "make_server", "serve_forever", "MAX_BODY_BYTES",
           "READ_TIMEOUT_S"]

#: Largest accepted request body; a PUT beyond this is answered 413.
#: Generous for model documents (the large benchmark model is ~1 MB).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Per-connection socket timeout: how long one blocking read (request
#: line, headers, or body) may stall before the connection is dropped
#: (mid-body stalls are answered 408 first).
READ_TIMEOUT_S = 30.0

_READ_FAULT = fault_point(
    "httpd.read", "raise/delay/corrupt around the request-body socket "
                  "read (httpd.py)")
_WRITE_FAULT = fault_point(
    "httpd.write", "raise/delay before the response bytes are written "
                   "(httpd.py)")

#: Longest request or header line, line ending included (the stdlib's
#: limit: longer request lines get 414, longer header lines 431).
_MAX_LINE = 65536
#: Most header lines in one head; one more gets 431.  The stdlib's limit
#: of 100 lines counts the blank line that ends the head.
_MAX_HEADER_LINES = 99
#: Lines that end a head.  The last two occur only where the stream
#: ends; as in the stdlib, the head is then what arrived.
_HEAD_END = (b"\r\n", b"\n", b"", b"\r")

#: One header line: a name of visible ASCII other than ``:``, the colon,
#: optional leading blanks, then a value without CR, LF or NUL.  A line
#: that does not match — no colon, whitespace before the colon, an
#: obs-fold continuation, a CR or NUL in the value — is a 400.
_HEADER_LINE = re.compile(
    r"([!-9;-~]+):[ \t]*([^\r\n\x00]*)\r?\n?").fullmatch
#: A Content-Length value: ``1*DIGIT`` (RFC 9110 §8.6), ASCII only.
_DIGITS = re.compile(r"[0-9]+").fullmatch
#: An HTTP version the stdlib (3.11 on) accepts: 1-10 digits each side.
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})").fullmatch

_SERVER_VERSION = "goldcase-repository/1.0"
_SERVER_LINE = (f"Server: {_SERVER_VERSION} "
                f"{BaseHTTPRequestHandler.sys_version}\r\n")
_STATUS_LINES = {status.value:
                 f"HTTP/1.1 {status.value} {status.phrase}\r\n"
                 for status in HTTPStatus}

#: (second, ``Date`` header line) of the last response; threads racing
#: on a new second each format the same line.
_date = (0, "")


def _date_line() -> str:
    """The ``Date`` header line, formatted anew only when the second
    changes."""
    global _date
    second = int(time.time())
    cached = _date
    if cached[0] != second:
        cached = _date = (second,
                          f"Date: {formatdate(second, usegmt=True)}\r\n")
    return cached[1]


def _response_bytes(status: int, headers, body: bytes,
                    send_body: bool = True) -> bytes:
    """One HTTP/1.1 response as one bytes object: status line,
    ``Server``, ``Date``, *headers*, ``Content-Length`` (of *body*
    whether or not it is sent) and, if *send_body*, the body."""
    head = [_STATUS_LINES.get(status) or f"HTTP/1.1 {status} \r\n",
            _SERVER_LINE, _date_line()]
    for name, value in headers:
        head.append(f"{name}: {value}\r\n")
    head.append(f"Content-Length: {len(body)}\r\n\r\n")
    data = "".join(head).encode("latin-1")
    return data + body if send_body else data


def _transport_error(message: str, request_id: str | None,
                     retry_after: int | None = None
                     ) -> tuple[list[tuple[str, str]], bytes]:
    """Headers and JSON body of a transport error, which closes the
    connection."""
    headers = [("Content-Type", "application/json; charset=utf-8")]
    if request_id is not None:
        headers.append(("X-Goldcase-Request-Id", request_id))
    if retry_after is not None:
        headers.append(("Retry-After", str(retry_after)))
    headers.append(("Connection", "close"))
    body = (json.dumps({"error": message, "kind": "transport"},
                       sort_keys=True) + "\n").encode("utf-8")
    return headers, body


class RepositoryHTTPServer(ThreadingHTTPServer):
    """The threaded server every repository process listens with.

    ``socketserver`` listens with a backlog of 5: a burst of
    simultaneous connects overflows it, and each dropped SYN waits out
    the kernel's initial retransmit timeout (about 1 s on Linux).

    ``ThreadingHTTPServer`` starts one thread per connection with no
    cap, and an idle keep-alive connection holds its thread for the
    read timeout.  At most :attr:`max_connections` connections are
    served at once; the accepting thread answers each one beyond that
    with a ``503`` and ``Retry-After``, counts it as a transport event,
    and closes it without starting a thread.  A slot frees when its
    connection's thread ends.
    """

    daemon_threads = True
    request_queue_size = 128
    #: The listen backlog's depth: twice the 64 simultaneous connects
    #: ``tests/server/test_accept_backlog.py`` opens and eight times the
    #: 16-client bursts of the S4 and Q9 benchmarks, with room for
    #: connections whose client closed but whose thread has not yet
    #: seen it.  It bounds the handler threads, and with them the
    #: telemetry buffers that every new thread's registration folds.
    max_connections = 128

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._slots = threading.BoundedSemaphore(self.max_connections)

    def process_request(self, request, client_address) -> None:
        if not self._slots.acquire(blocking=False):
            self._refuse(request)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._slots.release()  # no thread started to release it
            raise

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()

    def _refuse(self, request) -> None:
        """Answer a connection over the cap: 503, then close."""
        message = f"connection limit of {self.max_connections} reached"
        app = getattr(self.RequestHandlerClass, "app", None)
        request_id = None
        if app is not None:
            request_id = app.telemetry.transport_event("-", "-", 503,
                                                       message)
        try:
            request.sendall(_response_bytes(
                503, *_transport_error(message, request_id, retry_after=1)))
        except OSError:
            pass  # the peer is gone already
        self.shutdown_request(request)


class _RepositoryHandler(BaseHTTPRequestHandler):
    """Adapts one HTTP exchange onto ``app.handle``."""

    server_version = _SERVER_VERSION
    protocol_version = "HTTP/1.1"  # keep-alive: load generators reuse
    # connections, so Content-Length on every response is mandatory.
    # Small responses + keep-alive hit the Nagle/delayed-ACK interaction
    # (~40 ms per request) unless the socket writes immediately.
    disable_nagle_algorithm = True
    #: socketserver applies this to the connection in setup(); stalls
    #: anywhere in the exchange then raise TimeoutError instead of
    #: parking the handler thread forever.
    timeout = READ_TIMEOUT_S

    # Set by make_server on the handler subclass.
    app: ModelRepositoryApp = None  # type: ignore[assignment]
    quiet = True
    max_body_bytes = MAX_BODY_BYTES

    def parse_request(self) -> bool:
        """Parse ``raw_requestline`` and read the header lines after it.

        Sets ``command``, ``path``, ``request_version``,
        ``close_connection`` and ``headers``: a dict keyed by lower-cased
        field name, in which the last line of a repeated field wins.
        Returns False after sending an error response, or with nothing
        sent for an empty request line.
        """
        self.command = None
        self.request_version = "HTTP/0.9"
        self.close_connection = True
        self.requestline = requestline = str(
            self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = requestline.split()
        if not words:
            return False
        version = (0, 9)
        if len(words) >= 3:
            match = _VERSION(words[-1])
            if match is None:
                self.send_error(400, f"Bad request version ({words[-1]!r})")
                return False
            version = int(match[1]), int(match[2])
            if version >= (2, 0):
                self.send_error(
                    505, f"Invalid HTTP version ({words[-1][5:]})")
                return False
            self.request_version = words[-1]
            self.close_connection = version < (1, 1)
        if not 2 <= len(words) <= 3:
            self.send_error(400, f"Bad request syntax ({requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2 and command != "GET":
            self.send_error(400, f"Bad HTTP/0.9 request type ({command!r})")
            return False
        if path.startswith("//"):
            # Clients read //host/path as another host (gh-87389).
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path

        headers: dict[str, str] = {}
        self.headers = headers
        readline = self.rfile.readline
        lines = 0
        malformed = None
        conflicting_length = False
        while True:
            line = readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(431, "Line too long", "header line")
                return False
            if line in _HEAD_END:
                break
            lines += 1
            if lines > _MAX_HEADER_LINES:
                self.send_error(431, "Too many headers",
                                f"more than {_MAX_HEADER_LINES} header lines")
                return False
            field = _HEADER_LINE(line.decode("iso-8859-1"))
            if field is None:
                # Answered once the whole head is read, so that the
                # line limits win as in the stdlib and no unread head
                # turns the close into a reset.
                if malformed is None:
                    malformed = line
                continue
            name, value = field.groups()
            name = name.lower()
            prior = headers.setdefault(name, value)
            if prior is not value:  # a repeated field: the last wins
                headers[name] = value
                if (name == "content-length"
                        and prior.rstrip(" \t") != value.rstrip(" \t")):
                    conflicting_length = True
        if malformed is not None:
            self.send_error(400, "Bad header line", repr(malformed[:80]))
            return False
        # A body framing this server cannot honour would leave the rest
        # of the stream misread as further requests (RFC 9112 §6.1, §6.3).
        if "transfer-encoding" in headers:
            self._fail(501, "Transfer-Encoding is not supported; send "
                            "the body with Content-Length")
            return False
        if conflicting_length:
            self._fail(400, "conflicting Content-Length values")
            return False

        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (version >= (1, 1)
                and headers.get("expect", "").lower() == "100-continue"
                and "content-length" in headers):
            # Invite only a body that will be read: a length refused
            # later is refused now, before any 100.  Without a length
            # there is no content, and no 100 (RFC 9110 §10.1.1).
            if self._body_length() is None:
                return False
            return self.handle_expect_100()
        return True

    def _send(self, status: int, headers, body: bytes) -> None:
        """Write one response in one write: the body is left out for
        HEAD and 304, and HTTP/0.9 gets the body alone."""
        if not self.quiet or _REC.enabled:
            self.log_request(status)
        send_body = self.command != "HEAD" and status != 304
        if self.request_version == "HTTP/0.9":
            self.wfile.write(body if send_body else b"")
        else:
            self.wfile.write(_response_bytes(status, headers, body,
                                             send_body))

    def _fail(self, status: int, message: str, *,
              retry_after: int | None = None,
              request_id: str | None = None) -> None:
        """A JSON error response that always closes the connection.

        Used for transport-level failures (bad framing, timeouts,
        crashed application) where the connection state is no longer
        trustworthy enough for keep-alive.  *request_id* is the id of a
        request the app already counted and logged.
        """
        app = self.app
        if request_id is None and app is not None:
            # The app never saw this exchange; record it in telemetry
            # directly so transport rejections still get ids + counters.
            request_id = app.telemetry.transport_event(
                getattr(self, "command", None) or "-",
                getattr(self, "path", None) or "-", status, message)
        try:
            self._send(status,
                       *_transport_error(message, request_id, retry_after))
        except OSError:
            pass  # the peer is gone; nothing left to tell them
        self.close_connection = True

    def _body_length(self) -> int | None:
        """The request's Content-Length (0 without one), or None after a
        400 or 413 was sent."""
        raw_length = self.headers.get("content-length")
        if not raw_length:
            length = 0
        elif _DIGITS(raw_length.strip(" \t")):
            length = int(raw_length)
        else:
            self._fail(400, f"invalid Content-Length {raw_length!r}")
            return None
        if length > self.max_body_bytes:
            self._fail(413, f"request body of {length} bytes exceeds the "
                            f"{self.max_body_bytes}-byte limit")
            return None
        return length

    def _read_body(self) -> bytes | None:
        """The request body, or None after an error response was sent."""
        length = self._body_length()
        if length is None:
            return None
        try:
            body = self.rfile.read(length) if length else b""
        except TimeoutError:
            self._fail(408, "timed out reading the request body")
            return None
        if len(body) < length:
            self._fail(400, f"request body truncated at {len(body)} of "
                            f"{length} bytes")
            return None
        return body

    def _dispatch(self, method: str) -> None:
        body = self._read_body()
        if body is None:
            return
        if FAULTS.enabled:
            try:
                body = FAULTS.hit(_READ_FAULT, body)
            except FaultError:
                # A vanished client: drop the exchange without a
                # response, exactly what a reset mid-read looks like.
                self.close_connection = True
                return
        try:
            response = self.app.handle(method, self.path, self.headers, body)
        except Exception as exc:  # the app must never kill the thread
            if _REC.enabled:
                _REC.count("server.http.app_error")
            self.log_error("application error on %s %s: %r",
                           method, self.path, exc)
            self._fail(500, "internal server error",
                       request_id=getattr(exc, "request_id", None))
            return
        if FAULTS.enabled:
            try:
                FAULTS.hit(_WRITE_FAULT)
            except FaultError:
                self.close_connection = True  # drop before the write
                return
        try:
            self._send(response.status, response.headers, response.body)
        except (OSError, TimeoutError):
            self.close_connection = True  # peer vanished mid-write

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._dispatch("GET")

    def do_HEAD(self) -> None:  # noqa: N802
        self._dispatch("HEAD")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_PUT(self) -> None:  # noqa: N802
        self._dispatch("PUT")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.quiet:
            super().log_message(format, *args)
        if _REC.enabled:
            _REC.count("server.http.request_line")

    def log_error(self, format: str, *args) -> None:  # noqa: A002
        # Transport-level rejections (400/408/413/431/500) are expected
        # under chaos; keep them off stderr unless access logging is on.
        if not self.quiet:
            super().log_error(format, *args)


def make_handler(app: ModelRepositoryApp, *, quiet: bool = True,
                 read_timeout_s: float = READ_TIMEOUT_S,
                 max_body_bytes: int = MAX_BODY_BYTES) -> type:
    """The request-handler class bound to *app*.

    Factored out of :func:`make_server` so alternate socket layers (the
    pre-fork worker servers in :mod:`repro.server.workers`) serve the
    exact same hardened handler.
    """
    return type("_BoundHandler", (_RepositoryHandler,),
                {"app": app, "quiet": quiet, "timeout": read_timeout_s,
                 "max_body_bytes": max_body_bytes})


def make_server(app: ModelRepositoryApp | None = None, *,
                host: str = "127.0.0.1", port: int = 0,
                quiet: bool = True,
                read_timeout_s: float = READ_TIMEOUT_S,
                max_body_bytes: int = MAX_BODY_BYTES
                ) -> tuple[RepositoryHTTPServer, ModelRepositoryApp]:
    """A bound (not yet serving) threaded server around *app*."""
    if app is None:
        app = ModelRepositoryApp()
    handler = make_handler(app, quiet=quiet,
                           read_timeout_s=read_timeout_s,
                           max_body_bytes=max_body_bytes)
    return RepositoryHTTPServer((host, port), handler), app


class ModelServer:
    """An embeddable server: ``start()`` in a thread, ``stop()`` cleanly."""

    def __init__(self, app: ModelRepositoryApp | None = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 quiet: bool = True,
                 read_timeout_s: float = READ_TIMEOUT_S,
                 max_body_bytes: int = MAX_BODY_BYTES) -> None:
        self.httpd, self.app = make_server(
            app, host=host, port=port, quiet=quiet,
            read_timeout_s=read_timeout_s, max_body_bytes=max_body_bytes)
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the bound server (no trailing slash)."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ModelServer":
        """Serve on a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="goldcase-httpd",
            daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the listener down and join the serving thread."""
        self.httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self.httpd.server_close()

    def __enter__(self) -> "ModelServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_forever(app: ModelRepositoryApp | None = None, *,
                  host: str = "127.0.0.1", port: int = 8040,
                  quiet: bool = False) -> None:
    """Blocking serve loop for the CLI; returns on KeyboardInterrupt."""
    server, _ = make_server(app, host=host, port=port, quiet=quiet)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
