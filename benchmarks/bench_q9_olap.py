"""Experiment Q9: the OLAP query service under load (ISSUE 9).

A load generator against the ``/olap/<model>/query`` endpoint, answering
the acceptance questions:

* **Uncached execution rate** — the time for a query request after the
  aggregate cache is invalidated (synthetic star already generated, so
  the sample isolates cube execution + the JSON rendering), measured as
  the median over several invalidate-and-query rounds; its reciprocal
  is the single-request execution rate the cache must beat.
* **Warm-cache throughput** — concurrent keep-alive clients sweeping a
  set of materialized queries; reports requests/s and p50/p99 latency.
  The gate (``--check``) counts, from the aggregate cache's own stats
  read in the main thread around the sweep, that the warm phase
  executed no query: every warm request was an aggregate-cache hit.
* **Coalescing proof** — with the obs recorder on, a barrier-started
  burst of 16 clients firing the *identical* query against an
  invalidated cache must record exactly one ``olap.cache.execute``
  (the other clients coalesce on the per-key lock).

Both gates count; neither compares times, so a faster engine cannot
fail them.  The warm/uncached ratio is still reported, and timing is
goldbench ``analyze``'s job.

Results merge into ``BENCH_q9_olap.json`` under ``--label``::

    PYTHONPATH=src python benchmarks/bench_q9_olap.py --label after

``--smoke --check`` is the CI ``server-smoke`` gate: the medium model,
fewer repetitions, JSON not written, both gates still enforced.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import statistics
import sys
import threading
from time import perf_counter

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.mdm import model_to_xml, synthetic_model
from repro.obs import RECORDER
from repro.olap.service import DatasetConfig, OlapService
from repro.server import ModelRepositoryApp, ModelServer

#: Same model ladder as bench_s4_server; the dataset scales separately.
SIZES = {
    "medium": dict(
        model=dict(facts=5, dimensions=10, levels_per_dimension=4,
                   measures_per_fact=6),
        dataset=DatasetConfig(members_per_level=5, rows_per_fact=500)),
    "large": dict(
        model=dict(facts=20, dimensions=25, levels_per_dimension=5,
                   measures_per_fact=8),
        dataset=DatasetConfig(members_per_level=6, rows_per_fact=2000)),
}

#: The identical-query burst size the coalescing proof uses.
BURST_CLIENTS = 16

#: Query variants swept by the warm phase — Fact0's m0 carries no
#: additivity restriction, so any aggregation is legal on any grain.
QUERIES = (
    "fact=Fact0&measure=fact0_m0:SUM&dice=Dimension0@D0L1&seed=1",
    "fact=Fact0&measure=fact0_m0:SUM"
    "&dice=Dimension0@D0L1,Dimension1@D1L1&seed=1",
    "fact=Fact0&measure=fact0_m0:AVG&dice=Dimension1@D1L2&seed=1",
    "fact=Fact0&measure=fact0_m0:COUNT&dice=Dimension0@D0L2&seed=1",
    "fact=Fact0&measure=fact0_m0:SUM&dice=Dimension0&seed=1",
    "fact=Fact0&measure=fact0_m0:MAX&dice=Dimension2@D2L1&seed=1",
)


def _connect(server) -> http.client.HTTPConnection:
    return http.client.HTTPConnection(server.host, server.port, timeout=60)


def _request(connection, method: str, path: str, *,
             body: bytes | None = None, headers: dict | None = None):
    connection.request(method, path, body=body, headers=headers or {})
    response = connection.getresponse()
    payload = response.read()
    return response.status, dict(response.getheaders()), payload


def _query_path(name: str, query: str) -> str:
    return f"/olap/{name}/query?{query}"


def bench_uncached(server, name: str, repeats: int) -> dict:
    """Median query time with the aggregate cache dropped each round.

    The synthetic star survives invalidation (datasets are cached per
    seed), so this isolates the work the cache elides on a hit: cube
    execution plus the JSON rendering (the XML is rendered only when a
    client asks for it).
    """
    samples = []
    connection = _connect(server)
    try:
        # Prime the dataset so round 0 is not charged for generation.
        status, _, payload = _request(
            connection, "GET", _query_path(name, QUERIES[0]))
        assert status == 200, payload
        for _ in range(repeats):
            server.app.olap.cache.invalidate(name)
            start = perf_counter()
            status, headers, payload = _request(
                connection, "GET", _query_path(name, QUERIES[0]))
            samples.append(perf_counter() - start)
            assert status == 200, payload
            assert headers.get("X-Goldcase-Olap") == "executed", headers
    finally:
        connection.close()
    return {
        "repeats": repeats,
        "median_s": statistics.median(samples),
        "best_s": min(samples),
        "rate_rps": 1.0 / statistics.median(samples),
    }


def bench_warm(server, name: str, *, clients: int,
               requests_per_client: int) -> dict:
    """Concurrent keep-alive sweep over materialized queries."""
    connection = _connect(server)
    try:
        for query in QUERIES:  # prime every variant
            status, _, payload = _request(
                connection, "GET", _query_path(name, query))
            assert status == 200, (query, payload)
    finally:
        connection.close()

    latencies: list[list[float]] = [[] for _ in range(clients)]
    failures: list[object] = []
    barrier = threading.Barrier(clients + 1)

    def client(index: int) -> None:
        connection = _connect(server)
        try:
            barrier.wait()
            recorded = latencies[index]
            for request_number in range(requests_per_client):
                query = QUERIES[(index + request_number) % len(QUERIES)]
                start = perf_counter()
                status, _, _ = _request(
                    connection, "GET", _query_path(name, query))
                recorded.append(perf_counter() - start)
                if status != 200:
                    failures.append(status)
        finally:
            connection.close()

    threads = [threading.Thread(target=client, args=(index,), daemon=True)
               for index in range(clients)]
    for thread in threads:
        thread.start()
    before = server.app.olap.cache.stats()
    barrier.wait()
    start = perf_counter()
    for thread in threads:
        thread.join()
    elapsed = perf_counter() - start
    after = server.app.olap.cache.stats()

    merged = sorted(sample for per_client in latencies
                    for sample in per_client)
    total = len(merged)
    return {
        "clients": clients,
        "requests": total,
        "failed": len(failures),
        "executions": after["executions"] - before["executions"],
        "hits": after["hits"] - before["hits"],
        "elapsed_s": elapsed,
        "throughput_rps": total / elapsed,
        "p50_ms": 1000 * merged[total // 2],
        "p99_ms": 1000 * merged[min(total - 1, (total * 99) // 100)],
        "max_ms": 1000 * merged[-1],
    }


def bench_burst(server, name: str) -> dict:
    """16 clients, one identical query, cold cache: one execution."""
    server.app.olap.cache.invalidate(name)
    RECORDER.enable(clear=True)
    try:
        barrier = threading.Barrier(BURST_CLIENTS)
        failures: list[object] = []

        def client() -> None:
            connection = _connect(server)
            try:
                barrier.wait()
                status, _, _ = _request(
                    connection, "GET", _query_path(name, QUERIES[0]))
                if status != 200:
                    failures.append(status)
            finally:
                connection.close()

        threads = [threading.Thread(target=client, daemon=True)
                   for _ in range(BURST_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        counters = RECORDER.snapshot().counters
    finally:
        RECORDER.disable()
    assert not failures, failures
    return {
        "clients": BURST_CLIENTS,
        "executions": counters.get("olap.cache.execute", 0),
        "served_without_executing": (
            counters.get("olap.cache.hit", 0)
            + counters.get("olap.cache.coalesced", 0)),
    }


def run(size: str, *, repeats: int, clients: int,
        requests_per_client: int) -> dict:
    spec = SIZES[size]
    model = synthetic_model(**spec["model"])
    xml = model_to_xml(model).encode("utf-8")
    name = f"bench-{size}"
    app = ModelRepositoryApp(olap=OlapService(dataset=spec["dataset"]))
    with ModelServer(app) as server:
        connection = _connect(server)
        try:
            status, _, payload = _request(
                connection, "PUT", f"/models/{name}", body=xml)
            assert status in (200, 201), payload
        finally:
            connection.close()
        uncached = bench_uncached(server, name, repeats)
        warm = bench_warm(server, name, clients=clients,
                          requests_per_client=requests_per_client)
        burst = bench_burst(server, name)
    return {
        "size": size,
        "model": dict(spec["model"]),
        "dataset": {
            "members_per_level": spec["dataset"].members_per_level,
            "rows_per_fact": spec["dataset"].rows_per_fact,
        },
        "queries": len(QUERIES),
        "uncached": uncached,
        "warm": warm,
        "burst": burst,
        "warm_vs_uncached_speedup":
            warm["throughput_rps"] / uncached["rate_rps"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="OLAP query service load benchmark (Q9)")
    parser.add_argument("--smoke", action="store_true",
                        help="medium model, fewer repeats, no JSON")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless every warm request was an "
                             "aggregate-cache hit and the identical-query "
                             "burst executed exactly once")
    parser.add_argument("--label", default="after")
    parser.add_argument("--json", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..",
        "BENCH_q9_olap.json"))
    parser.add_argument("--clients", type=int, default=8)
    args = parser.parse_args(argv)

    if args.smoke:
        result = run("medium", repeats=2, clients=args.clients,
                     requests_per_client=25)
    else:
        result = run("large", repeats=5, clients=args.clients,
                     requests_per_client=50)

    uncached = result["uncached"]
    print(f"uncached query: {uncached['median_s'] * 1000:.1f} ms "
          f"({uncached['rate_rps']:.2f} req/s)")
    warm = result["warm"]
    print(f"warm cache:     {warm['throughput_rps']:.0f} req/s over "
          f"{warm['clients']} clients "
          f"(p50 {warm['p50_ms']:.2f} ms, p99 {warm['p99_ms']:.2f} ms)")
    print(f"                {warm['requests']} requests: {warm['hits']} "
          f"aggregate-cache hits, {warm['executions']} executions, "
          f"{warm['failed']} failed")
    print(f"speedup:        {result['warm_vs_uncached_speedup']:.1f}x "
          f"warm throughput vs uncached execution rate (not gated)")
    burst = result["burst"]
    print(f"coalescing:     {burst['clients']} identical queries -> "
          f"{burst['executions']} execution(s), "
          f"{burst['served_without_executing']} served without executing")

    if not args.smoke:
        payload = {"benchmark": "q9_olap", "runs": {}}
        if os.path.exists(args.json):
            with open(args.json, encoding="utf-8") as handle:
                payload = json.load(handle)
        payload.setdefault("runs", {})[args.label] = result
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.normpath(args.json)}")

    if args.check:
        failures = []
        if warm["failed"] or warm["executions"] or \
                warm["hits"] != warm["requests"]:
            failures.append(
                f"warm phase: {warm['requests']} requests, "
                f"{warm['hits']} hits, {warm['executions']} executions, "
                f"{warm['failed']} failed (expected all hits)")
        if burst["executions"] != 1:
            failures.append(
                f"identical-query burst executed {burst['executions']} "
                "times (expected 1)")
        if failures:
            print("CHECK FAILED: " + "; ".join(failures))
            return 1
        print("CHECK OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
