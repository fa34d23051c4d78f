"""The listening socket absorbs a burst of simultaneous connects.

``socketserver`` listens with a backlog of 5.  A burst of connects
overflows it, the kernel drops the surplus SYNs, and those clients wait
out the initial SYN retransmit timeout (about 1 s on Linux) before the
handshake completes — a stall that benchmark clients read as a slow
request.  Every repository server listens with a 128-deep backlog.
"""

from __future__ import annotations

import socket
import threading
import time

from repro.server import ModelServer
from repro.server.httpd import RepositoryHTTPServer
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
