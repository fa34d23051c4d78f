"""The listening socket absorbs a burst of simultaneous connects, and
the server caps the connections it serves at once.

``socketserver`` listens with a backlog of 5.  A burst of connects
overflows it, the kernel drops the surplus SYNs, and those clients wait
out the initial SYN retransmit timeout (about 1 s on Linux) before the
handshake completes — a stall that benchmark clients read as a slow
request.  Every repository server listens with a 128-deep backlog.

Each served connection holds a thread; past the cap a connection is
answered ``503`` by the accepting thread and closed.
"""

from __future__ import annotations

import json
import socket
import threading
import time

from repro.server import ModelRepositoryApp, ModelServer
from repro.server.httpd import RepositoryHTTPServer, make_handler
from repro.server.workers import _InheritedSocketServer, _ReusePortServer

CONNECTIONS = 64
CONNECT_BUDGET_S = 0.100


def _connect_times(host: str, port: int, count: int) -> list[float]:
    barrier = threading.Barrier(count)
    times: list[float] = [float("inf")] * count
    sockets: list[socket.socket] = []
    lock = threading.Lock()

    def client(index: int) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        with lock:
            sockets.append(sock)
        barrier.wait()
        started = time.perf_counter()
        sock.connect((host, port))
        times[index] = time.perf_counter() - started

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(count)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        for sock in sockets:
            sock.close()
    return times


def test_simultaneous_connects_do_not_stall():
    server = ModelServer().start()
    try:
        times = _connect_times(server.host, server.port, CONNECTIONS)
    finally:
        server.stop()
    slow = sorted(t for t in times if t >= CONNECT_BUDGET_S)
    assert not slow, (
        f"{len(slow)} of {CONNECTIONS} connects took >= "
        f"{CONNECT_BUDGET_S * 1000:.0f} ms: {slow[:5]}")


def test_every_server_class_listens_128_deep():
    for server_class in (RepositoryHTTPServer, _ReusePortServer,
                         _InheritedSocketServer):
        assert server_class.request_queue_size == 128, server_class


class _FourConnectionServer(RepositoryHTTPServer):
    max_connections = 4


def _read_to_eof(sock: socket.socket) -> bytes:
    chunks = []
    while chunk := sock.recv(65536):
        chunks.append(chunk)
    return b"".join(chunks)


def _get_models(sock: socket.socket) -> int:
    """Send ``GET /models`` on a kept-alive *sock*; its status."""
    sock.sendall(b"GET /models HTTP/1.1\r\nHost: h\r\n\r\n")
    reply = b""
    while b"\r\n\r\n" not in reply:
        chunk = sock.recv(65536)
        assert chunk, reply
        reply += chunk
    return int(reply.split(b" ", 2)[1])


def test_connections_over_the_cap_get_503_and_a_close():
    app = ModelRepositoryApp()
    server = _FourConnectionServer(("127.0.0.1", 0), make_handler(app))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    address = server.server_address[:2]
    sockets = []
    try:
        # Idle connections, accepted in connect order.  The refused ones
        # send nothing: closing a socket with unread input resets it,
        # which can discard the 503 before the client reads it.
        for _ in range(8):
            sockets.append(socket.create_connection(address, timeout=10))
        for sock in sockets[4:]:
            reply = _read_to_eof(sock)  # one 503, then EOF
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 503 "), reply
            assert b"\r\nRetry-After: 1\r\n" in head
            assert b"\r\nConnection: close\r\n" in head
            assert json.loads(body)["kind"] == "transport"
        for sock in sockets[:4]:
            assert _get_models(sock) == 200
        assert app.telemetry.window.total("http.transport_error") == 4
        for sock in sockets[:4]:
            sock.close()
        # A slot frees when its thread sees the close.  Until then a new
        # connection reads a 503 at once; a served one reads nothing.
        deadline = time.monotonic() + 10
        while True:
            with socket.create_connection(address, timeout=10) as sock:
                sock.settimeout(1.0)
                try:
                    refused = sock.recv(65536)
                except TimeoutError:
                    sock.settimeout(10)
                    assert _get_models(sock) == 200
                    break
            assert refused.startswith(b"HTTP/1.1 503 "), refused
            assert time.monotonic() < deadline, "no slot was freed"
            time.sleep(0.05)
    finally:
        for sock in sockets:
            sock.close()
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()
    assert not thread.is_alive()
