"""Experiment S4: the model-repository server under load (ISSUE 4).

A load generator against :class:`repro.server.ModelServer` on an
ephemeral port, answering the acceptance questions:

* **Cold publish rate** — the time for the first request after an
  invalidating re-upload with the publisher caches cleared (the
  republish, an incremental one since I7, + link check + serve),
  measured as the median over the rounds; its reciprocal is the
  single-request publish rate the cache must beat.
* **Warm-cache throughput** — concurrent keep-alive clients sweeping
  the published site (:func:`httpload.sweep`); reports the median
  requests/s and p50 over rounds and the pooled p99.  The acceptance
  gate (``--check``) requires warm throughput ≥ 10× the cold publish
  rate.
* **Coalescing proof** — a barrier-started burst of clients against a
  freshly invalidated model must add exactly one ``rebuilds`` to the
  site cache's stats (the other clients coalesce on the per-model build
  lock).

``--check`` also fails on any failed request.  Results merge into
``BENCH_s4_server.json`` under ``--label``::

    PYTHONPATH=src python benchmarks/bench_s4_server.py --label after

``--smoke --check`` is the CI ``server-smoke`` gate: the medium model,
fewer rounds, JSON not written, coalescing still enforced (the 10×
throughput gate stays on, it has orders of magnitude of headroom).
"""

from __future__ import annotations

import sys

import httpload
from loadgen import median_iqr
from repro.mdm import model_to_xml, synthetic_model
from repro.server import ModelServer
from repro.web.publisher import clear_publisher_caches

#: Acceptance: warm-cache throughput must beat the cold publish rate by
#: at least this factor (ISSUE 4).
MIN_WARM_SPEEDUP = 10.0

#: Clients in the coalescing burst.
BURST_CLIENTS = 16


def _invalidate(server, name: str, xml: bytes, revision: int) -> None:
    """Re-upload with changed bytes (a description stamped on the root)."""
    changed = xml.replace(
        b"<goldmodel ",
        f'<goldmodel description="rev{revision}" '.encode(), 1)
    assert changed != xml, "invalidation tweak did not change the bytes"
    reply = httpload.fetch(server, "PUT", f"/models/{name}", body=changed)
    assert reply.status in (200, 201), reply.body


def bench_cold(server, name: str, xml: bytes, rounds: int) -> dict:
    """Median first-request time after a full invalidation."""
    samples = []
    for number in range(rounds):
        _invalidate(server, name, xml, revision=1000 + number)
        clear_publisher_caches()
        reply = httpload.fetch(server, "GET", f"/site/{name}/index.html")
        assert reply.status == 200, reply.body
        samples.append(reply.end - reply.start)
    median, iqr = median_iqr(samples)
    return {"rounds": rounds, "median_s": median, "iqr_s": iqr,
            "rate_rps": 1.0 / median}


def bench_coalescing(server, name: str, xml: bytes) -> dict:
    """Burst a freshly invalidated model; the site cache's stats must
    show one rebuild and ``clients - 1`` requests served without
    building."""
    _invalidate(server, name, xml, revision=2000)
    before = server.app.cache.stats()
    burst = httpload.burst(server, f"/site/{name}/index.html",
                           BURST_CLIENTS)
    after = server.app.cache.stats()
    delta = {stat: after[stat] - before[stat]
             for stat in ("rebuilds", "hits", "coalesced")}
    return {
        "clients": BURST_CLIENTS,
        **httpload.tally(burst.ops),
        "rebuilds": delta["rebuilds"],
        "served_from_cache": delta["hits"] + delta["coalesced"],
    }


def run(size: str, *, rounds: int, per_client: int) -> dict:
    xml = model_to_xml(synthetic_model(**httpload.SIZES[size])).encode()
    name = f"bench-{size}"
    with ModelServer() as server:
        reply = httpload.fetch(server, "PUT", f"/models/{name}", body=xml)
        assert reply.status in (200, 201), reply.body
        httpload.prime(server, [f"/site/{name}/index.html"])
        pages = sorted(server.app.cache.peek(name, "multi").pages)
        paths = [f"/site/{name}/{page}" for page in pages]
        cold = bench_cold(server, name, xml, rounds)
        httpload.prime(server, paths)  # every page serves
        warm = httpload.summarize(httpload.measure(
            {"warm": lambda: httpload.sweep(server, paths, per_client)},
            rounds)["warm"])
        coalescing = bench_coalescing(server, name, xml)
    return {
        "size": size,
        "model": dict(httpload.SIZES[size]),
        "pages": len(paths),
        "clients": httpload.CLIENTS,
        "cold": cold,
        "warm": warm,
        "coalescing": coalescing,
        "warm_vs_cold_speedup":
            warm["throughput_rps"]["median"] / cold["rate_rps"],
    }


def main(argv=None) -> int:
    args = httpload.parser("model-repository server load benchmark (S4)",
                           "BENCH_s4_server.json").parse_args(argv)
    if args.smoke:
        result = run("medium", rounds=httpload.SMOKE_ROUNDS, per_client=25)
    else:
        result = run("large", rounds=httpload.ROUNDS, per_client=50)

    cold, warm = result["cold"], result["warm"]
    coalescing = result["coalescing"]
    print(f"cold publish: {cold['median_s'] * 1000:.1f} ms "
          f"(IQR {cold['iqr_s'] * 1000:.1f}; {cold['rate_rps']:.2f} req/s)")
    print(f"warm cache:   {httpload.describe(warm)}")
    print(f"speedup:      {result['warm_vs_cold_speedup']:.1f}x "
          f"warm throughput vs cold publish rate")
    print(f"coalescing:   {coalescing['clients']} concurrent clients -> "
          f"{coalescing['rebuilds']} rebuild(s), "
          f"{coalescing['served_from_cache']} served from cache")

    failures = (httpload.failed("warm", warm)
                + httpload.failed("coalescing", coalescing))
    if result["warm_vs_cold_speedup"] < MIN_WARM_SPEEDUP:
        failures.append(
            f"warm/cold speedup {result['warm_vs_cold_speedup']:.1f}x "
            f"< {MIN_WARM_SPEEDUP}x")
    if coalescing["rebuilds"] != 1:
        failures.append(f"coalescing burst rebuilt {coalescing['rebuilds']} "
                        "times (expected 1)")
    return httpload.finish(args, "s4_server", result, failures)


if __name__ == "__main__":
    sys.exit(main())
