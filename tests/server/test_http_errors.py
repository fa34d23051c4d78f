"""Transport hardening: hostile/broken clients get clean status codes.

Regression tests for ISSUE 5 satellite 1: malformed request lines,
oversized headers, bad Content-Length framing, a Transfer-Encoding,
oversized bodies, stalled body reads, and application-layer crashes
must all produce a well-formed HTTP error response
(400/408/413/431/500/501) and a closed connection — never a traceback
in the handler thread, a hung client, or a second request read out of
a body.
Every test also proves the server survives: a fresh request afterwards
is served normally.
"""

from __future__ import annotations

import http.client
import json
import socket

import pytest

from repro.faults import FAULTS, FaultPlan, injected_faults
from repro.mdm import model_to_xml, sales_model
from repro.server import ModelRepositoryApp, ModelServer

SALES_XML = model_to_xml(sales_model()).encode("utf-8")


@pytest.fixture(autouse=True)
def _clean_faults():
    FAULTS.deactivate()
    yield
    FAULTS.deactivate()


@pytest.fixture(scope="module")
def server():
    with ModelServer(read_timeout_s=1.0,
                     max_body_bytes=64 * 1024) as running:
        connection = http.client.HTTPConnection(
            running.host, running.port, timeout=30)
        connection.request("PUT", "/models/sales", body=SALES_XML)
        assert connection.getresponse().status == 201
        connection.close()
        yield running


def _raw_exchange(server, payload: bytes, timeout: float = 10.0) -> bytes:
    """Send raw bytes, read until the server closes; returns the reply."""
    with socket.create_connection((server.host, server.port),
                                  timeout=timeout) as sock:
        sock.sendall(payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
        return b"".join(chunks)


def _status_line(reply: bytes) -> int:
    assert reply.startswith(b"HTTP/1."), reply[:80]
    return int(reply.split(b" ", 2)[1])


def _only_response(reply: bytes) -> tuple[int, str]:
    """The status and transport error of *reply*, which must hold one
    response with a ``Connection: close`` and nothing after its body."""
    head, _, rest = reply.partition(b"\r\n\r\n")
    fields = dict(line.split(b": ", 1) for line in head.split(b"\r\n")[1:])
    assert fields[b"Connection"] == b"close", head
    assert len(rest) == int(fields[b"Content-Length"]), reply
    payload = json.loads(rest)
    assert payload["kind"] == "transport"
    return _status_line(reply), payload["error"]


def _assert_still_serving(server) -> None:
    connection = http.client.HTTPConnection(
        server.host, server.port, timeout=10)
    try:
        connection.request("GET", "/models/sales")
        response = connection.getresponse()
        assert response.status == 200
        assert response.read() == SALES_XML
    finally:
        connection.close()


class TestMalformedFraming:
    def test_garbage_request_line_is_400(self, server):
        # A one-word request line is parsed as HTTP/0.9, whose error
        # reply is body-only (no status line) — still a 400, still a
        # clean close.
        reply = _raw_exchange(server, b"GARBAGE\r\n\r\n")
        if reply.startswith(b"HTTP/1."):
            assert _status_line(reply) == 400
        else:
            assert b"400" in reply
        _assert_still_serving(server)

    def test_bad_request_syntax_is_400(self, server):
        reply = _raw_exchange(server, b"GET /\x01 oops HTTP/1.1\r\n\r\n")
        assert _status_line(reply) == 400
        _assert_still_serving(server)

    def test_oversized_header_line_is_431(self, server):
        huge = b"X-Padding: " + b"a" * 70_000
        reply = _raw_exchange(
            server, b"GET / HTTP/1.1\r\n" + huge + b"\r\n\r\n")
        assert _status_line(reply) == 431
        _assert_still_serving(server)

    def test_too_many_headers_is_431(self, server):
        headers = b"".join(b"X-H%d: v\r\n" % index for index in range(150))
        reply = _raw_exchange(
            server, b"GET / HTTP/1.1\r\n" + headers + b"\r\n")
        assert _status_line(reply) == 431
        _assert_still_serving(server)


class TestBodyFraming:
    def test_non_numeric_content_length_is_400(self, server):
        reply = _raw_exchange(
            server,
            b"PUT /models/x HTTP/1.1\r\nHost: h\r\n"
            b"Content-Length: banana\r\n\r\n")
        assert _status_line(reply) == 400
        assert b"Content-Length" in reply
        _assert_still_serving(server)

    def test_negative_content_length_is_400(self, server):
        reply = _raw_exchange(
            server,
            b"PUT /models/x HTTP/1.1\r\nHost: h\r\n"
            b"Content-Length: -5\r\n\r\n")
        assert _status_line(reply) == 400
        _assert_still_serving(server)

    @pytest.mark.parametrize("length", [b"+10", b"1_0", b"\xb2"])
    def test_length_that_int_reads_but_is_not_digits_is_400(self, server,
                                                              length):
        """RFC 9110 §8.6 allows ``1*DIGIT`` only: a sign, an underscore
        or a latin-1 superscript two never frames a body."""
        reply = _raw_exchange(
            server,
            b"PUT /models/x HTTP/1.1\r\nHost: h\r\n"
            b"Content-Length: " + length + b"\r\n\r\n")
        status, error = _only_response(reply)
        assert status == 400
        assert "Content-Length" in error
        _assert_still_serving(server)

    def test_oversized_body_is_413_without_reading_it(self, server):
        reply = _raw_exchange(
            server,
            b"PUT /models/x HTTP/1.1\r\nHost: h\r\n"
            b"Content-Length: 10000000\r\n\r\n")
        assert _status_line(reply) == 413
        _assert_still_serving(server)

    def test_over_limit_expect_put_is_413_without_100(self, server):
        """The body is refused before the client is invited to send it:
        one 413 with a close, then EOF."""
        reply = _raw_exchange(
            server,
            b"PUT /models/x HTTP/1.1\r\nHost: h\r\n"
            b"Expect: 100-continue\r\nContent-Length: 999999\r\n\r\n")
        status, error = _only_response(reply)
        assert status == 413
        assert "limit" in error
        _assert_still_serving(server)

    @pytest.mark.parametrize("length", [b"banana", b"-5"])
    def test_invalid_length_expect_put_is_400_without_100(self, server,
                                                          length):
        reply = _raw_exchange(
            server,
            b"PUT /models/x HTTP/1.1\r\nHost: h\r\n"
            b"Expect: 100-continue\r\nContent-Length: " + length
            + b"\r\n\r\n")
        status, error = _only_response(reply)
        assert status == 400
        assert "Content-Length" in error
        _assert_still_serving(server)

    def test_expect_put_within_the_limit_reads_100_then_its_answer(
            self, server):
        with socket.create_connection((server.host, server.port),
                                      timeout=10.0) as sock:
            sock.sendall(
                b"PUT /models/expect HTTP/1.1\r\nHost: h\r\n"
                b"Expect: 100-continue\r\nConnection: close\r\n"
                b"Content-Length: %d\r\n\r\n" % len(SALES_XML))
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                chunk = sock.recv(1)
                assert chunk, interim
                interim += chunk
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(SALES_XML)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        assert _status_line(reply) in (200, 201)
        _assert_still_serving(server)

    def test_stalled_body_read_is_408(self, server):
        """Promise 100 bytes, send none: the 1 s read timeout answers
        408 and closes instead of parking the handler thread."""
        reply = _raw_exchange(
            server,
            b"PUT /models/x HTTP/1.1\r\nHost: h\r\n"
            b"Content-Length: 100\r\n\r\n",
            timeout=15.0)
        assert _status_line(reply) == 408
        _assert_still_serving(server)

    def test_truncated_body_is_rejected_cleanly(self, server):
        """Promise 100 bytes, send 10, half-close: a 400 (or a clean
        drop), and the server keeps serving."""
        with socket.create_connection((server.host, server.port),
                                      timeout=15.0) as sock:
            sock.sendall(
                b"PUT /models/x HTTP/1.1\r\nHost: h\r\n"
                b"Content-Length: 100\r\n\r\n" + b"0123456789")
            sock.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        reply = b"".join(chunks)
        if reply:  # a response is optional for a vanished client...
            assert _status_line(reply) == 400
        _assert_still_serving(server)  # ...but survival is not

    def test_conflicting_content_lengths_are_400_then_close(self, server):
        """Two differing lengths: a peer honouring the other one sees a
        different request boundary, so the smuggled GET inside the body
        must never be answered."""
        smuggled = b"GET /health HTTP/1.1\r\nHost: h\r\n\r\n"
        body = b"<x/>\n" + smuggled + b"#" * (40 - 5 - len(smuggled))
        reply = _raw_exchange(
            server,
            b"PUT /models/x HTTP/1.1\r\nHost: h\r\n"
            b"Content-Length: 5\r\nContent-Length: 40\r\n\r\n" + body)
        status, error = _only_response(reply)
        assert status == 400
        assert "Content-Length" in error
        _assert_still_serving(server)

    def test_transfer_encoding_is_501_then_close(self, server):
        """A chunked body is not read as Content-Length 0 with the chunk
        bytes parsed as the next request."""
        reply = _raw_exchange(
            server,
            b"PUT /models/x HTTP/1.1\r\nHost: h\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"5\r\n<x/>\n\r\n0\r\n\r\n")
        status, error = _only_response(reply)
        assert status == 501
        assert "Transfer-Encoding" in error
        _assert_still_serving(server)


class TestUndecodableUpload:
    """A body the XML decoder rejects is the client's fault: 400 with
    the store's ``xml-parse`` diagnostic, not a 500 that closes."""

    @pytest.mark.parametrize("body", [
        b'<goldmodel name="\xff"/>',
        b'<?xml version="1.0" encoding="bogus"?><goldmodel/>',
    ], ids=["invalid-utf-8", "unknown-encoding"])
    def test_put_is_400_xml_parse(self, server, body):
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=10)
        try:
            connection.request("PUT", "/models/garbled", body=body)
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert response.getheader("Connection") != "close"
            assert payload["kind"] == "parse"
            assert [issue["code"] for issue in payload["issues"]] == \
                ["xml-parse"]
        finally:
            connection.close()
        _assert_still_serving(server)


class TestApplicationCrash:
    def test_app_exception_is_a_json_500_with_close(self):
        class ExplodingApp(ModelRepositoryApp):
            def handle(self, *args, **kwargs):
                raise RuntimeError("handler bug")

        with ModelServer(ExplodingApp()) as server:
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=10)
            try:
                connection.request("GET", "/models")
                response = connection.getresponse()
                body = response.read()
                assert response.status == 500
                assert response.getheader("Connection") == "close"
                assert b"internal server error" in body
            finally:
                connection.close()
            # The next connection gets a thread of its own and the same
            # clean 500 — the crash never wedges the listener.
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=10)
            try:
                connection.request("GET", "/models")
                assert connection.getresponse().status == 500
            finally:
                connection.close()

    def test_crashed_request_is_counted_and_logged_once(self, monkeypatch):
        """A handler that raises gives one request, one 5xx and one
        access-log line, whose id is the one the client receives."""
        app = ModelRepositoryApp()
        log: list[str] = []
        app.telemetry.access_log = log.append

        def crash(*args, **kwargs):
            raise RuntimeError("handler bug")

        monkeypatch.setattr(app, "_route", crash)
        with ModelServer(app) as server:
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=10)
            try:
                connection.request("GET", "/models")
                response = connection.getresponse()
                body = response.read()
            finally:
                connection.close()
        assert response.status == 500
        assert response.getheader("Connection") == "close"
        assert json.loads(body) == {"error": "internal server error",
                                    "kind": "transport"}
        window = app.telemetry.window
        assert window.total("http.requests") == 1
        assert window.total("http.status.5xx") == 1
        assert len(log) == 1
        line = json.loads(log[0])
        assert line["id"] == response.getheader("X-Goldcase-Request-Id")
        assert (line["method"], line["path"], line["status"]) \
            == ("GET", "/models", 500)

    def test_unabsorbed_fault_is_a_clean_500(self, server):
        """A store.put fault has no degradation path: the response is
        the app layer's JSON 500, keep-alive preserved."""
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=10)
        try:
            with injected_faults(FaultPlan().add("store.put")):
                connection.request("PUT", "/models/sales", body=SALES_XML)
                response = connection.getresponse()
                payload = response.read()
            assert response.status == 500
            assert b'"fault"' in payload
            # Same (kept-alive) connection serves the next request.
            connection.request("GET", "/models/sales")
            assert connection.getresponse().status == 200
        finally:
            connection.close()


class TestInjectedTransportFaults:
    def test_write_fault_drops_the_connection_not_the_server(self, server):
        with injected_faults(FaultPlan().add("httpd.write")):
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=10)
            try:
                connection.request("GET", "/models/sales")
                with pytest.raises((http.client.HTTPException, OSError)):
                    connection.getresponse()
            finally:
                connection.close()
        _assert_still_serving(server)

    def test_read_delay_fault_slows_but_serves(self, server):
        with injected_faults(
                FaultPlan().add("httpd.read", "delay", delay_s=0.05)):
            _assert_still_serving(server)
