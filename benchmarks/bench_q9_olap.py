"""Experiment Q9: the OLAP query service under load (ISSUE 9).

A load generator against the ``/olap/<model>/query`` endpoint, answering
the acceptance questions:

* **Uncached execution rate** — the time for a query request after the
  aggregate cache is invalidated (synthetic star already generated, so
  the sample isolates cube execution + the JSON rendering), measured as
  the median over several invalidate-and-query rounds; its reciprocal
  is the single-request execution rate the cache must beat.
* **Warm-cache throughput** — concurrent keep-alive clients sweeping a
  set of materialized queries (:func:`httpload.sweep`); reports the
  median requests/s and p50 over rounds and the pooled p99.  The gate
  (``--check``) counts, from the aggregate cache's own stats read
  around the warm-up sweep and the rounds, that the warm phase executed
  no query: every warm request was an aggregate-cache hit.
* **Coalescing proof** — with the obs recorder on, a barrier-started
  burst of 16 clients firing the *identical* query against an
  invalidated cache must record exactly one ``olap.cache.execute``
  (the other clients coalesce on the per-key lock).

Both gates count; neither compares times, so a faster engine cannot
fail them.  ``--check`` also fails on any failed request.  The
warm/uncached ratio is still reported, and timing is goldbench
``analyze``'s job.

Results merge into ``BENCH_q9_olap.json`` under ``--label``::

    PYTHONPATH=src python benchmarks/bench_q9_olap.py --label after

``--smoke --check`` is the CI ``server-smoke`` gate: the medium model,
fewer rounds, JSON not written, both gates still enforced.
"""

from __future__ import annotations

import sys

import httpload
from loadgen import median_iqr
from repro.mdm import model_to_xml, synthetic_model
from repro.obs import RECORDER
from repro.olap.service import DatasetConfig, OlapService
from repro.server import ModelRepositoryApp, ModelServer

#: The star generated for each size of the shared model ladder.
DATASETS = {
    "medium": DatasetConfig(members_per_level=5, rows_per_fact=500),
    "large": DatasetConfig(members_per_level=6, rows_per_fact=2000),
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


def _query_path(name: str, query: str) -> str:
    return f"/olap/{name}/query?{query}"


def bench_uncached(server, name: str, rounds: int) -> dict:
    """Median query time with the aggregate cache dropped each round.

    The synthetic star survives invalidation (datasets are cached per
    seed), so this isolates the work the cache elides on a hit: cube
    execution plus the JSON rendering (the XML is rendered only when a
    client asks for it).
    """
    path = _query_path(name, QUERIES[0])
    samples = []
    client = httpload.connect(server)
    try:
        # Prime the dataset so round 0 is not charged for generation.
        reply = client.get(path)
        assert reply.status == 200, reply.body
        for _ in range(rounds):
            server.app.olap.cache.invalidate(name)
            reply = client.get(path)
            assert reply.status == 200, reply.body
            assert reply.headers.get("x-goldcase-olap") == "executed", \
                reply.headers
            samples.append(reply.end - reply.start)
    finally:
        client.close()
    median, iqr = median_iqr(samples)
    return {"rounds": rounds, "median_s": median, "iqr_s": iqr,
            "rate_rps": 1.0 / median}


def bench_warm(server, name: str, *, rounds: int, per_client: int) -> dict:
    """Concurrent keep-alive sweeps over materialized queries, with the
    aggregate cache's own counts around them."""
    paths = [_query_path(name, query) for query in QUERIES]
    httpload.prime(server, paths)
    before = server.app.olap.cache.stats()
    series = httpload.measure(
        {"warm": lambda: httpload.sweep(server, paths, per_client)},
        rounds)["warm"]
    after = server.app.olap.cache.stats()
    return {
        **httpload.summarize(series),
        # Warm-up included: every request since priming.
        "requests": series.warmup.attempted
        + sum(one.attempted for one in series.rounds),
        "executions": after["executions"] - before["executions"],
        "hits": after["hits"] - before["hits"],
    }


def bench_burst(server, name: str) -> dict:
    """16 clients, one identical query, cold cache: one execution."""
    server.app.olap.cache.invalidate(name)
    RECORDER.enable(clear=True)
    try:
        burst = httpload.burst(server, _query_path(name, QUERIES[0]),
                               BURST_CLIENTS)
        counters = RECORDER.snapshot().counters
    finally:
        RECORDER.disable()
    return {
        "clients": BURST_CLIENTS,
        **httpload.tally(burst.ops),
        "executions": counters.get("olap.cache.execute", 0),
        "served_without_executing": (
            counters.get("olap.cache.hit", 0)
            + counters.get("olap.cache.coalesced", 0)),
    }


def run(size: str, *, rounds: int, per_client: int) -> dict:
    model = synthetic_model(**httpload.SIZES[size])
    xml = model_to_xml(model).encode("utf-8")
    name = f"bench-{size}"
    app = ModelRepositoryApp(olap=OlapService(dataset=DATASETS[size]))
    with ModelServer(app) as server:
        reply = httpload.fetch(server, "PUT", f"/models/{name}", body=xml)
        assert reply.status in (200, 201), reply.body
        uncached = bench_uncached(server, name, rounds)
        warm = bench_warm(server, name, rounds=rounds,
                          per_client=per_client)
        burst = bench_burst(server, name)
    return {
        "size": size,
        "model": dict(httpload.SIZES[size]),
        "dataset": {
            "members_per_level": DATASETS[size].members_per_level,
            "rows_per_fact": DATASETS[size].rows_per_fact,
        },
        "queries": len(QUERIES),
        "clients": httpload.CLIENTS,
        "uncached": uncached,
        "warm": warm,
        "burst": burst,
        "warm_vs_uncached_speedup":
            warm["throughput_rps"]["median"] / uncached["rate_rps"],
    }


def main(argv=None) -> int:
    args = httpload.parser("OLAP query service load benchmark (Q9)",
                           "BENCH_q9_olap.json").parse_args(argv)
    if args.smoke:
        result = run("medium", rounds=httpload.SMOKE_ROUNDS, per_client=25)
    else:
        result = run("large", rounds=httpload.ROUNDS, per_client=50)

    uncached, warm = result["uncached"], result["warm"]
    burst = result["burst"]
    print(f"uncached query: {uncached['median_s'] * 1000:.1f} ms "
          f"(IQR {uncached['iqr_s'] * 1000:.1f}; "
          f"{uncached['rate_rps']:.2f} req/s)")
    print(f"warm cache:     {httpload.describe(warm)}")
    print(f"                {warm['requests']} requests: {warm['hits']} "
          f"aggregate-cache hits, {warm['executions']} executions")
    print(f"speedup:        {result['warm_vs_uncached_speedup']:.1f}x "
          f"warm throughput vs uncached execution rate (not gated)")
    print(f"coalescing:     {burst['clients']} identical queries -> "
          f"{burst['executions']} execution(s), "
          f"{burst['served_without_executing']} served without executing")

    failures = (httpload.failed("warm", warm)
                + httpload.failed("burst", burst))
    if warm["executions"] or warm["hits"] != warm["requests"]:
        failures.append(
            f"warm phase: {warm['requests']} requests, "
            f"{warm['hits']} hits, {warm['executions']} executions "
            f"(expected all hits)")
    if burst["executions"] != 1:
        failures.append(
            f"identical-query burst executed {burst['executions']} "
            "times (expected 1)")
    return httpload.finish(args, "q9_olap", result, failures)


if __name__ == "__main__":
    sys.exit(main())
