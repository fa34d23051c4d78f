"""The benchmark scripts' shared load generator, size ladder and plumbing.

The six HTTP experiments (S4, R5, C6, O8, Q9, M10) drive a live server
through goldbench's :mod:`loadgen` and nothing else: every request is a
:class:`loadgen.Client` exchange recorded as a :class:`loadgen.Op`.
This module holds, once:

* :func:`sweep` -- closed-loop keep-alive clients, all connected before
  the start barrier.  A transport error or an unexpected reply is a
  failed op counted against ``attempted``; it never ends a client.
* :func:`burst` -- pre-connected clients that send one identical request
  at the same instant (the coalescing proofs).
* :func:`measure` -- one unmeasured warm-up sweep per configuration,
  then rounds that run every configuration once, alternating which one
  goes first.
* :func:`summarize` and :func:`paired` -- medians and IQRs over rounds
  (:func:`loadgen.median_iqr`), a pooled p99 through
  :func:`loadgen.tail_percentile` (``null`` with its reason when fewer
  than 10 samples lie beyond it), and the per-round ratios that gates
  comparing two configurations read.
* The size ladder (goldbench's ``inputs.SIZES``), the
  ``--smoke``/``--check``/``--label``/``--json`` parser, the BENCH JSON
  merge-writer and the ``CHECK OK`` / ``CHECK FAILED`` exit, which the
  in-process scripts share too.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import sys
import threading
from dataclasses import dataclass
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (os.path.join(ROOT, "src"), os.path.join(HERE, "goldbench")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from inputs import SIZES  # noqa: E402  (goldbench's ladder)
from loadgen import (Client, Op, Reply, TransportError,  # noqa: E402
                     median_iqr, percentile, pin, tail_percentile)
from workloads import run_threads  # noqa: E402

__all__ = ["CLIENTS", "ROUNDS", "SIZES", "SMOKE_ROUNDS", "Round", "burst",
           "connect", "describe", "exchange", "failed", "fetch", "finish",
           "measure", "outcome", "paired", "parser", "prime", "spread",
           "summarize", "sweep", "tally", "write_bench"]

#: Keep-alive clients per sweep.
CLIENTS = 8

#: Measured rounds per configuration: one sweep is not a measurement.
ROUNDS = 5
SMOKE_ROUNDS = 3

#: Reply outcomes a sweep accepts unless told otherwise.
OK = ("ok",)


# -- one exchange -------------------------------------------------------------


def connect(server, worker: int | None = None) -> Client:
    """An open client; with *worker*, one pinned to that pre-fork worker."""
    if worker is not None:
        return pin(server.host, server.port, worker)
    client = Client(server.host, server.port)
    client.connect()
    return client


def fetch(server, method: str, path: str, *,
          body: bytes | None = None) -> Reply:
    """One exchange on its own connection, opened before the exchange
    starts (so ``reply.end - reply.start`` holds no connect)."""
    client = connect(server)
    try:
        return client.request(method, path, body=body)
    finally:
        client.close()


def prime(server, paths: list[str], worker: int | None = None) -> None:
    """GET every path once on one connection; raise unless each is a 200."""
    client = connect(server, worker)
    try:
        for path in paths:
            reply = client.get(path)
            if reply.status != 200:
                raise RuntimeError(f"priming {path}: status {reply.status}: "
                                   f"{reply.body[:120]!r}")
    finally:
        client.close()


def outcome(reply: Reply) -> str:
    """``ok``, ``stale`` or ``shed`` for a well-formed reply, else what
    is wrong with it."""
    if reply.status in (200, 201):
        if not reply.body:
            return f"empty {reply.status}"
        return "stale" if reply.headers.get("x-goldcase-stale") == "true" \
            else "ok"
    if reply.status == 503:
        return "shed" if "retry-after" in reply.headers \
            else "503 without Retry-After"
    return f"status {reply.status}"


def exchange(client: Client, method: str, path: str, *,
             body: bytes | None = None, accept=OK) -> Op:
    """One request as an :class:`Op`, failed unless its :func:`outcome`
    is in *accept*; a transport error (or a failed redial after a reply
    that closed the connection) is a failed op, and the client redials
    for the next one."""
    start = perf_counter()
    try:
        reply = client.request(method, path, body=body)
    except (TransportError, OSError) as exc:
        try:
            client.connect()
        except OSError:
            pass  # the next request fails and is counted too
        return Op(method, start, perf_counter(), ok=False,
                  detail={"path": path, "outcome": f"transport error: {exc}"})
    result = outcome(reply)
    return Op(method, reply.start, reply.end, ok=result in accept,
              request_id=reply.request_id,
              detail={"path": path, "outcome": result})


# -- sweeps -------------------------------------------------------------------


@dataclass
class Round:
    """One sweep: every op it sent, its wall time and the process CPU."""

    ops: list[Op]
    elapsed_s: float
    cpu_s: float

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)

    @property
    def rps(self) -> float:
        return self.attempted / self.elapsed_s

    @property
    def p50_ms(self) -> float:
        return percentile([op.ms for op in self.ops], 0.5)

    @property
    def cpu_us(self) -> float:
        """Process CPU per request, an in-process server's included."""
        return 1e6 * self.cpu_s / self.attempted


def sweep(server, paths: list[str], per_client: int, *,
          clients: int = CLIENTS, workers: int | None = None,
          accept=OK) -> Round:
    """*clients* closed-loop keep-alive clients, *per_client* GETs each.

    Client ``i`` asks for ``paths[(i + n) % len(paths)]`` on its n-th
    request.  Every connection opens before the barrier that starts the
    clock; with *workers*, client ``i`` is pinned to pre-fork worker
    ``i % workers``.  A reply whose :func:`outcome` is not in *accept*
    is a failed op.
    """
    connections: list[Client] = []
    marks: list[float] = []
    barrier = threading.Barrier(
        clients, action=lambda: marks.extend((perf_counter(),
                                              process_time())))

    def client(index: int) -> list[Op]:
        barrier.wait()
        return [exchange(connections[index], "GET",
                         paths[(index + number) % len(paths)],
                         accept=accept)
                for number in range(per_client)]

    try:
        for index in range(clients):
            connections.append(connect(
                server, None if workers is None else index % workers))
        per_thread = run_threads([(client, (index,))
                                  for index in range(clients)])
        elapsed, cpu = perf_counter() - marks[0], process_time() - marks[1]
    finally:
        for connection in connections:
            connection.close()
    return Round([op for ops in per_thread for op in ops], elapsed, cpu)


def burst(server, path: str, clients: int) -> Round:
    """*clients* pre-connected clients send one identical GET at once."""
    return sweep(server, [path], 1, clients=clients)


@dataclass
class Series:
    """One configuration's unmeasured warm-up sweep and measured rounds."""

    warmup: Round
    rounds: list[Round]


def measure(configs: dict, rounds: int) -> dict[str, Series]:
    """Warm up each configuration once, then run *rounds* rounds.

    *configs* maps a name to a callable that runs one sweep and returns
    its :class:`Round`.  Each round runs every configuration once, in
    order on even rounds and in reverse on odd ones, so drift and the
    slow first sweep after a pause land on every configuration alike.
    """
    names = list(configs)
    warmups = {name: configs[name]() for name in names}
    measured: dict[str, list[Round]] = {name: [] for name in names}
    for number in range(rounds):
        for name in names if number % 2 == 0 else names[::-1]:
            gc.collect()  # not inside the next sweep
            measured[name].append(configs[name]())
    return {name: Series(warmups[name], measured[name]) for name in names}


# -- summaries ----------------------------------------------------------------


def spread(values: list[float]) -> dict:
    """``{"median", "iqr"}`` of *values*."""
    median, iqr = median_iqr(values)
    return {"median": median, "iqr": iqr}


def tally(ops: list[Op]) -> dict:
    """``attempted`` and ``failed``, with the first failures spelled out."""
    failures = [op for op in ops if not op.ok]
    counts = {"attempted": len(ops), "failed": len(failures)}
    if failures:
        counts["failures"] = [f"{op.detail['path']}: {op.detail['outcome']}"
                              for op in failures[:5]]
    return counts


def summarize(series: Series) -> dict:
    """Medians and IQRs over the rounds, the pooled p99, and counts."""
    rounds = series.rounds
    ops = [op for one in rounds for op in one.ops]
    p99, reason = tail_percentile([op.ms for op in ops], 0.99)
    summary = {
        **tally(ops),
        "rounds": len(rounds),
        "requests_per_round": rounds[0].attempted,
        "outcomes": dict(sorted(collections.Counter(
            op.detail["outcome"] for op in ops).items())),
        "throughput_rps": spread([one.rps for one in rounds]),
        "p50_ms": spread([one.p50_ms for one in rounds]),
        "p99_ms": p99,
        "round_throughput_rps": [round(one.rps, 1) for one in rounds],
        "warmup": tally(series.warmup.ops),
    }
    if reason is not None:
        summary["p99_ms_reason"] = reason
    return summary


def describe(summary: dict) -> str:
    """One line for a :func:`summarize` result."""
    rps, p50 = summary["throughput_rps"], summary["p50_ms"]
    p99 = "n/a" if summary["p99_ms"] is None \
        else f"{summary['p99_ms']:.2f} ms"
    return (f"{rps['median']:.0f} req/s (IQR {rps['iqr']:.0f}), "
            f"p50 {p50['median']:.2f} ms (IQR {p50['iqr']:.2f}), "
            f"p99 {p99}; {summary['failed']} of {summary['attempted']} "
            f"failed over {summary['rounds']} rounds")


def paired(series_a: Series, series_b: Series, stat: str) -> dict:
    """Median and IQR of the per-round ratios *a* / *b* of *stat*, a
    :class:`Round` property."""
    ratios = [getattr(a, stat) / getattr(b, stat)
              for a, b in zip(series_a.rounds, series_b.rounds)]
    return {**spread(ratios), "rounds": len(ratios)}


def failed(label: str, counts: dict) -> list[str]:
    """A CHECK failure for each failed request a :func:`tally` (or a
    summary and its warm-up) counts."""
    problems = []
    for name, part in ((label, counts),
                       (f"{label} warm-up", counts.get("warmup"))):
        if part and part["failed"]:
            problems.append(
                f"{name}: {part['failed']} of {part['attempted']} requests "
                f"failed ({'; '.join(part['failures'])})")
    return problems


# -- the scripts' plumbing ----------------------------------------------------


def parser(description: str, bench_json: str) -> argparse.ArgumentParser:
    """The ``--smoke``/``--check``/``--label``/``--json`` options."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--smoke", action="store_true",
                        help="medium model, fewer rounds, no JSON")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when a gate fails or any request "
                             "failed")
    parser.add_argument("--label", default="after",
                        help="run label recorded in the JSON")
    parser.add_argument("--json", default=os.path.join(ROOT, bench_json),
                        help="JSON file to merge the run into")
    return parser


def write_bench(path: str, benchmark: str, label: str, result: dict,
                derive=None) -> None:
    """Merge *result* into *path* under ``runs[label]``.

    *derive*, when given, may add top-level keys computed from the
    merged payload before it is written.
    """
    payload = {"benchmark": benchmark, "runs": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    payload.setdefault("benchmark", benchmark)
    payload.setdefault("runs", {})[label] = result
    if derive is not None:
        derive(payload)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.normpath(path)}")


def finish(args, benchmark: str, result: dict, failures: list[str]) -> int:
    """Write *result* unless ``--smoke``; the exit code under ``--check``."""
    if not args.smoke:
        write_bench(args.json, benchmark, args.label, result)
    if not args.check:
        return 0
    if failures:
        print("CHECK FAILED: " + "; ".join(failures[:10]))
        return 1
    print("CHECK OK")
    return 0
