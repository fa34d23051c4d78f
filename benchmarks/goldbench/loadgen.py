"""The shared closed-loop keep-alive load generator.

Every goldbench workload drives the server through this module:

* :class:`Client` wraps one keep-alive HTTP/1.1 connection.  It is
  opened *before* the clock starts (:meth:`Client.connect`), and every
  connect time is kept, so a stalled ``connect()`` shows up as
  ``httpd.connect_ms.max`` instead of as a stall inside a measured sweep.
* Every request becomes an :class:`Op` carrying its start/end times, its
  outcome and the ``X-Goldcase-Request-Id`` the server minted, so a
  client latency can be matched with the server-side trace of the same
  request.
* Reports are medians and IQRs over rounds (:func:`median_iqr`), never
  best-of-N; tail percentiles follow the ">= 10 samples beyond the
  percentile, otherwise no value" rule (:func:`tail_percentile`).
* :func:`pin` redials until ``/stats`` says the connection landed on the
  wanted pre-fork worker (SO_REUSEPORT picks the worker per connection).

The loop is closed: each caller waits for its reply before sending the
next request, like a browser loading a page or an author waiting for a
republish.  Nothing here starts a thread; the workloads own theirs.
"""

from __future__ import annotations

import bisect
import hashlib
import http.client
import json
import math
import statistics
import time
from dataclasses import dataclass, field

REQUEST_ID_HEADER = "x-goldcase-request-id"

#: Samples that must lie beyond a tail percentile for it to be reported.
MIN_BEYOND = 10

#: Per-request socket timeout; a rebuild of the large model takes well
#: under a second, so anything near this is a hung server.
TIMEOUT_S = 60.0


@dataclass
class Reply:
    """One HTTP exchange as the client saw it."""

    status: int
    headers: dict[str, str]
    body: bytes
    start: float
    end: float

    @property
    def request_id(self) -> str | None:
        return self.headers.get(REQUEST_ID_HEADER)

    @property
    def sha(self) -> str:
        return hashlib.sha256(self.body).hexdigest()

    def json(self):
        return json.loads(self.body.decode("utf-8"))


@dataclass
class Op:
    """One logical operation: a read, an edit, a query."""

    kind: str
    start: float
    end: float
    ok: bool = True
    request_id: str | None = None
    #: What the offline oracle needs to check it after the run.
    detail: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class TransportError(Exception):
    """The connection failed mid-exchange (reset, timeout, bad framing)."""


class Client:
    """One keep-alive connection to the server under test."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.connection: http.client.HTTPConnection | None = None
        #: Milliseconds spent in every ``connect()`` this client made.
        self.connect_ms: list[float] = []

    def connect(self) -> None:
        self.close()
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=TIMEOUT_S)
        start = time.perf_counter()
        connection.connect()
        self.connect_ms.append((time.perf_counter() - start) * 1000.0)
        self.connection = connection

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None

    def request(self, method: str, path: str, *, body: bytes | None = None,
                headers: dict[str, str] | None = None) -> Reply:
        """One exchange on the open connection; raises TransportError."""
        if self.connection is None:
            raise TransportError("not connected")
        start = time.perf_counter()
        try:
            self.connection.request(method, path, body=body,
                                    headers=headers or {})
            response = self.connection.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            raise TransportError(f"{method} {path}: {exc!r}") from exc
        end = time.perf_counter()
        reply = Reply(response.status,
                      {k.lower(): v for k, v in response.getheaders()},
                      payload, start, end)
        if response.will_close:
            # The server closed on purpose (an error path); reconnect
            # outside the exchange so the next op starts on a live socket.
            self.connect()
        return reply

    def get(self, path: str, headers: dict[str, str] | None = None) -> Reply:
        return self.request("GET", path, headers=headers)


def pin(host: str, port: int, worker_id: int, *,
        attempts: int = 200) -> Client:
    """A client whose connection is served by pre-fork worker *worker_id*.

    The kernel picks the worker when the connection is accepted, so the
    only way to choose is to redial until ``/stats`` reports the wanted
    ``worker.id``.  Every connect time is kept on the returned client.
    """
    client = Client(host, port)
    for _ in range(attempts):
        client.connect()
        reply = client.get("/stats")
        if reply.status == 200 and \
                reply.json().get("worker", {}).get("id") == worker_id:
            return client
    client.close()
    raise RuntimeError(f"no connection reached worker {worker_id} "
                       f"in {attempts} attempts")


# -- statistics -------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """The *q*-quantile (0..1) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def beyond(n: int, q: float) -> int:
    """How many of *n* samples lie strictly beyond the *q*-quantile."""
    return n - math.ceil(q * n)


def tail_percentile(values: list[float], q: float
                    ) -> tuple[float | None, str | None]:
    """``(value, None)`` when >= MIN_BEYOND samples lie beyond the
    *q*-quantile, else ``(None, reason)``."""
    extra = beyond(len(values), q)
    if extra < MIN_BEYOND:
        return None, (f"p{q * 100:g} needs {MIN_BEYOND} samples beyond it; "
                      f"{len(values)} samples leave {extra}")
    return percentile(values, q), None


def median_iqr(values: list[float]) -> tuple[float, float]:
    """``(median, q3 - q1)`` as :func:`statistics.quantiles` gives them."""
    if len(values) == 1:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q3 - q1


def rounds(ops: list[Op], start: float, seconds: float,
           count: int) -> list[list[Op]]:
    """Split *ops* into *count* equal rounds by start time."""
    width = seconds / count
    out: list[list[Op]] = [[] for _ in range(count)]
    for op in ops:
        index = int((op.start - start) // width)
        if 0 <= index < count:
            out[index].append(op)
    return out


class Zipf:
    """A seeded Zipf (exponent 1) sampler over ``range(n)``; rank 0 is
    the most popular."""

    def __init__(self, n: int, rng) -> None:
        total = 0.0
        self._cumulative = []
        for rank in range(1, n + 1):
            total += 1.0 / rank
            self._cumulative.append(total)
        self._rng = rng

    def __call__(self) -> int:
        point = self._rng.random() * self._cumulative[-1]
        return min(bisect.bisect_right(self._cumulative, point),
                   len(self._cumulative) - 1)
