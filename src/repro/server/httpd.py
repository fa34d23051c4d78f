"""The socket layer: :class:`ModelRepositoryApp` on ThreadingHTTPServer.

Stdlib-only, matching the repo's no-dependency rule.  The paper ran
XSLT "in the server and the HTML is returned to the client browser"
(§6); this module is that server.  ``ThreadingHTTPServer`` gives one
thread per connection, which is exactly the concurrency model the site
cache is built for: distinct models publish in parallel, concurrent
requests for one stale model coalesce on its build lock.

The handler is hardened against hostile or broken clients (DESIGN.md
§12): every connection carries a read timeout (stalled body reads get
``408`` and a close instead of a parked thread), request bodies are
bounded (``413`` past :data:`MAX_BODY_BYTES`), a non-numeric
``Content-Length`` is a clean ``400``, and an exception escaping the
application layer is answered with a JSON ``500`` and a closed
connection — never a traceback that kills the handler thread mid-
response.  Malformed request lines (400) and oversized or over-many
header blocks (431) are already rejected by the stdlib parser; the
regression tests in ``tests/server/test_http_errors.py`` pin all of
these behaviours.  ``httpd.read`` / ``httpd.write`` fault-injection
points simulate slow and vanishing clients on either side of the
application call.

:class:`ModelServer` is the embeddable form (tests, benchmarks: bind
port 0, ``start()``, talk HTTP, ``stop()``); :func:`serve_forever`
is the blocking form behind ``goldcase serve``.
"""

from __future__ import annotations

import json
import threading
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


class RepositoryHTTPServer(ThreadingHTTPServer):
    """The threaded server every repository process listens with.

    ``socketserver`` listens with a backlog of 5: a burst of
    simultaneous connects overflows it, and each dropped SYN waits out
    the kernel's initial retransmit timeout (about 1 s on Linux).
    """

    daemon_threads = True
    request_queue_size = 128


class _RepositoryHandler(BaseHTTPRequestHandler):
    """Adapts one HTTP exchange onto ``app.handle``."""

    server_version = "goldcase-repository/1.0"
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

    def _fail(self, status: int, message: str, *,
              retry_after: int | None = None,
              request_id: str | None = None) -> None:
        """A JSON error response that always closes the connection.

        Used for transport-level failures (bad framing, timeouts,
        crashed application) where the connection state is no longer
        trustworthy enough for keep-alive.  *request_id* is the id of a
        request the app already counted and logged.
        """
        body = (json.dumps({"error": message, "kind": "transport"},
                           sort_keys=True) + "\n").encode("utf-8")
        app = self.app
        if request_id is None and app is not None:
            # The app never saw this exchange; record it in telemetry
            # directly so transport rejections still get ids + counters.
            request_id = app.telemetry.transport_event(
                getattr(self, "command", None) or "-",
                getattr(self, "path", None) or "-", status, message)
        try:
            self.send_response(status)
            self.send_header("Content-Type",
                             "application/json; charset=utf-8")
            if request_id is not None:
                self.send_header("X-Goldcase-Request-Id", request_id)
            if retry_after is not None:
                self.send_header("Retry-After", str(retry_after))
            self.send_header("Content-Length", str(len(body)))
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except OSError:
            pass  # the peer is gone; nothing left to tell them
        self.close_connection = True

    def _read_body(self) -> bytes | None:
        """The request body, or None after an error response was sent."""
        raw_length = self.headers.get("Content-Length")
        try:
            length = int(raw_length) if raw_length else 0
        except ValueError:
            self._fail(400, f"invalid Content-Length {raw_length!r}")
            return None
        if length < 0:
            self._fail(400, f"invalid Content-Length {raw_length!r}")
            return None
        if length > self.max_body_bytes:
            self._fail(413, f"request body of {length} bytes exceeds the "
                            f"{self.max_body_bytes}-byte limit")
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
            response = self.app.handle(
                method, self.path, dict(self.headers.items()), body)
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
            self.send_response(response.status)
            for name, value in response.headers:
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(response.body)))
            self.end_headers()
            if method != "HEAD" and response.status != 304:
                self.wfile.write(response.body)
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
