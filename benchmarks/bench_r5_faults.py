"""Experiment R5: throughput and degradation under injected faults.

Three questions from ISSUE 5, answered against a live
:class:`repro.server.ModelServer`:

* **Guard overhead** — the fault-injection guards sit on the server's
  hot paths behind ``if FAULTS.enabled``.  ``clean`` measures the warm
  sweep with the registry off (the shipped default — the number to
  compare against ``BENCH_s4_server.json``); ``armed_noop`` re-measures
  with a plan active for a point the hot path never hits, forcing every
  guard through the full registry lookup — the worst-case tax.  The
  two alternate round by round and the gate reads the median of the
  per-round p50 ratios.
* **1% rebuild failures** — a background invalidator forces rebuilds
  while ``cache.rebuild=raise:0.01`` is active; throughput and p99 are
  recorded, and every response must be a 200 (current or explicitly
  stale) or a 503 shed — never hung, never empty.
* **Total rebuild failure** — with ``rate=1.0`` every rebuild dies;
  the sweep must be served entirely from explicit staleness, and one
  faults-off request afterwards must come back fresh.

Results merge into ``BENCH_r5_faults.json`` under ``--label``::

    PYTHONPATH=src python benchmarks/bench_r5_faults.py --label after

``--smoke --check`` is the CI gate (medium model, JSON not written).
"""

from __future__ import annotations

import contextlib
import sys
import threading

import httpload
from repro.faults import FAULTS, FaultPlan
from repro.mdm import model_to_xml, synthetic_model
from repro.server import ModelServer

#: Acceptance: arming the registry (without any fault firing on the hot
#: path) may at most double the warm median latency.  The gate uses p50
#: rather than throughput because wall-clock throughput at smoke sample
#: sizes is dominated by single-request stragglers (one delayed-ACK
#: stall skews ``total/elapsed`` by an order of magnitude while every
#: percentile stays flat).  The shipped default — registry off —
#: short-circuits at one attribute read; the ISSUE's <2 % criterion is
#: checked against ``clean`` vs the S4 baseline in EXPERIMENTS.md.
MAX_ARMED_P50_RATIO = 2.0

#: Seconds between the background invalidator's re-uploads.
INVALIDATE_EVERY_S = 0.2

#: Every reply a degraded server may give: fresh, explicitly stale, or
#: shed with a Retry-After.
ACCEPT = ("ok", "stale", "shed")


def _stamped(xml: bytes, revision: int) -> bytes:
    changed = xml.replace(
        b"<goldmodel ",
        f'<goldmodel description="rev{revision}" '.encode(), 1)
    assert changed != xml
    return changed


def _upload(server, name: str, xml: bytes) -> None:
    reply = httpload.fetch(server, "PUT", f"/models/{name}", body=xml)
    assert reply.status in (200, 201), reply.body


@contextlib.contextmanager
def _invalidating(server, name: str, xml: bytes):
    """Re-upload changed bytes every INVALIDATE_EVERY_S while inside.

    One invalidation precedes the block, so even a fast sweep sees a
    rebuild.  Yields the list the re-uploads' ops are appended to.
    """
    ops = []
    stop = threading.Event()
    client = httpload.connect(server)

    def put(revision: int) -> None:
        ops.append(httpload.exchange(client, "PUT", f"/models/{name}",
                                     body=_stamped(xml, revision)))

    def invalidator() -> None:
        revision = 5000
        while not stop.wait(INVALIDATE_EVERY_S):
            revision += 1
            put(revision)

    put(4999)
    thread = threading.Thread(target=invalidator)
    thread.start()
    try:
        yield ops
    finally:
        stop.set()
        thread.join()
        client.close()


def run(size: str, *, rounds: int, per_client: int) -> dict:
    xml = model_to_xml(synthetic_model(**httpload.SIZES[size])).encode()
    name = f"bench-{size}"
    FAULTS.deactivate()
    with ModelServer() as server:
        _upload(server, name, xml)
        httpload.prime(server, [f"/site/{name}/index.html"])
        pages = sorted(server.app.cache.peek(name, "multi").pages)
        paths = [f"/site/{name}/{page}" for page in pages]
        httpload.prime(server, paths)  # the sweeps measure warm serving

        def sweep(per=per_client):
            return httpload.sweep(server, paths, per, accept=ACCEPT)

        def armed_sweep():
            # Registry armed, but for a point the warm path never
            # reaches: every `if FAULTS.enabled` guard pays hit()'s cost.
            FAULTS.activate(FaultPlan(seed=5).add("bench.noop"))
            try:
                return sweep()
            finally:
                FAULTS.deactivate()

        warm = httpload.measure({"clean": sweep, "armed_noop": armed_sweep},
                                rounds)

        # 1 % of rebuilds die while an invalidator forces rebuilds.
        stats_before = server.app.cache.stats()
        FAULTS.activate(FaultPlan(seed=5).add("cache.rebuild", rate=0.01))
        try:
            with _invalidating(server, name, xml) as invalidations:
                faulty = httpload.summarize(
                    httpload.measure({"faulty": sweep}, rounds)["faulty"])
        finally:
            FAULTS.deactivate()
        stats_after = server.app.cache.stats()
        faulty["invalidations"] = httpload.tally(invalidations)
        for stat in ("rebuilds", "build_failures"):
            faulty[stat] = stats_after[stat] - stats_before[stat]

        # Every rebuild dies: the site must survive on explicit
        # staleness alone, then recover with one faults-off request.
        _upload(server, name, _stamped(xml, revision=9999))
        FAULTS.activate(FaultPlan(seed=5).add("cache.rebuild", rate=1.0))
        try:
            degraded = httpload.summarize(httpload.measure(
                {"degraded": lambda: sweep(max(5, per_client // 5))},
                rounds)["degraded"])
        finally:
            FAULTS.deactivate()
        reply = httpload.fetch(server, "GET", f"/site/{name}/index.html")
        degraded["recovered"] = httpload.outcome(reply) == "ok"

    return {
        "size": size,
        "model": dict(httpload.SIZES[size]),
        "pages": len(pages),
        "clients": httpload.CLIENTS,
        "clean": httpload.summarize(warm["clean"]),
        "armed_noop": httpload.summarize(warm["armed_noop"]),
        "faulty_1pct": faulty,
        "degraded_all_fail": degraded,
        # Median of the per-round ratios armed / clean.
        "armed_p50_ratio": httpload.paired(
            warm["armed_noop"], warm["clean"], "p50_ms"),
    }


def main(argv=None) -> int:
    args = httpload.parser("fault-injection degradation benchmark (R5)",
                           "BENCH_r5_faults.json").parse_args(argv)
    if args.smoke:
        result = run("medium", rounds=httpload.SMOKE_ROUNDS, per_client=25)
    else:
        result = run("large", rounds=httpload.ROUNDS, per_client=50)

    faulty, degraded = result["faulty_1pct"], result["degraded_all_fail"]
    ratio = result["armed_p50_ratio"]["median"]
    outcomes = faulty["outcomes"]
    print(f"clean:     {httpload.describe(result['clean'])}")
    print(f"armed:     {httpload.describe(result['armed_noop'])}; "
          f"{ratio:.2f}x clean p50 (median pair)")
    print(f"1% faults: {httpload.describe(faulty)} — "
          f"{faulty['rebuilds']} rebuilds, "
          f"{faulty['build_failures']} failed, "
          f"{outcomes.get('stale', 0)} stale, {outcomes.get('shed', 0)} "
          f"shed, {faulty['invalidations']['attempted']} invalidations")
    print(f"all-fail:  {degraded['outcomes'].get('stale', 0)} stale / "
          f"{degraded['attempted']} requests, "
          f"recovered={degraded['recovered']}")

    failures = []
    for scenario in ("clean", "armed_noop", "faulty_1pct",
                     "degraded_all_fail"):
        failures += httpload.failed(scenario, result[scenario])
    failures += httpload.failed("invalidator", faulty["invalidations"])
    if ratio > MAX_ARMED_P50_RATIO:
        failures.append(f"armed p50 {ratio:.2f}x clean "
                        f"(> {MAX_ARMED_P50_RATIO}x)")
    if faulty["rebuilds"] == 0:
        failures.append("faulty sweep forced no rebuilds")
    if not degraded["outcomes"].get("stale"):
        failures.append("all-fail sweep served no stale responses")
    if not degraded["recovered"]:
        failures.append("no fresh page after faults cleared")
    return httpload.finish(args, "r5_faults", result, failures)


if __name__ == "__main__":
    sys.exit(main())
