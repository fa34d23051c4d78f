"""Experiment C6: compiled XSLT closures vs the tree-walking interpreter.

Three questions from ISSUE 6, answered at the publisher layer (where
the compiled path plugs in) and over HTTP (where users feel it):

* **Cold publish** — ``clear_publisher_caches()`` then one
  ``publish_multi_page``: stylesheet parse + compile + transform +
  serialize.  The ISSUE's acceptance gate is a >=2x median speedup on
  the large model.
* **Warm publish** — stylesheet and transformer cached, the steady
  state of the model-repository server's rebuilds.  Compiling must
  never regress this; the benchmark also reports how many publishes
  amortize the one-time closure compilation.
* **Warm HTTP serving** — keep-alive sweeps against two live
  :class:`repro.server.ModelServer` instances, one whose site each
  engine built.  Warm requests are served from the site cache, so this
  is a no-regression guard for the serving path around the engine,
  comparable to the ``clean`` sweeps in ``BENCH_r5_faults.json`` /
  ``BENCH_s4_server.json``.

The engines alternate one publish (one sweep) at a time, and every
ratio is the median of the per-pair ratios, so host-speed drift during
the run moves both sides of a pair alike instead of landing on one
engine's block of samples.  Garbage is collected before each sample:
a publish leaves cyclic DOM garbage behind, and a collection of it
inside the next timed publish doubled that publish's time.

Every measured publish is also checked byte-for-byte against the other
engine — a benchmark of a wrong answer would be meaningless.

Results merge into ``BENCH_c6_compile.json`` under ``--label``::

    PYTHONPATH=src python benchmarks/bench_c6_compile.py --label after

``--smoke --check`` is the CI gate (medium model, JSON not written).
"""

from __future__ import annotations

import contextlib
import functools
import gc
import statistics
import sys
from time import perf_counter

import httpload
from loadgen import median_iqr
from repro.mdm import model_to_xml, synthetic_model
from repro.server import ModelServer
from repro.web.publisher import clear_publisher_caches, publish_multi_page
from repro.xslt import CompiledTransformer, set_compile_enabled

#: Acceptance: compiled cold publish at least 2x faster (median of
#: the per-pair ratios).
MIN_COLD_SPEEDUP = 2.0
#: The smoke gate runs the medium model, where the per-publish costs
#: both engines share (model→DOM conversion, stylesheet parsing) are a
#: much larger slice of the total, diluting the ratio; the 2x claim is
#: checked on the large model in the full run.
SMOKE_MIN_COLD_SPEEDUP = 1.4
#: Warm publishes must not regress: compiled may be no slower than 5%
#: over the interpreter (in practice it is several times faster).
MIN_WARM_SPEEDUP = 0.95
#: Warm HTTP requests are cache hits under both engines; allow generous
#: scheduler noise while still catching a structural regression.
MAX_WARM_HTTP_P50_RATIO = 1.5


#: (name, compile enabled) for the two engines.
ENGINES = (("compiled", True), ("interpreted", False))


def _publish(model, enabled, *, cold):
    """Seconds for one ``publish_multi_page`` call, and its pages."""
    set_compile_enabled(enabled)
    try:
        if cold:
            clear_publisher_caches()
        gc.collect()
        start = perf_counter()
        pages = publish_multi_page(model).pages
        return perf_counter() - start, pages
    finally:
        set_compile_enabled(None)


def _paired_publishes(model, *, repeats, cold):
    """*repeats* pairs of publishes, one per engine, alternating.

    Returns each engine's median and IQR in milliseconds, and the
    median and IQR of the per-pair ratios interpreted / compiled.  The
    engine that goes first alternates from pair to pair.
    """
    if not cold:
        for _, enabled in ENGINES:  # prime the stylesheet caches
            _publish(model, enabled, cold=False)
    samples = {engine: [] for engine, _ in ENGINES}
    ratios = []
    for pair in range(repeats):
        order = ENGINES if pair % 2 == 0 else ENGINES[::-1]
        for engine, enabled in order:
            samples[engine].append(_publish(model, enabled, cold=cold)[0])
        ratios.append(samples["interpreted"][-1] / samples["compiled"][-1])
    return ({engine: [1000 * value for value in median_iqr(values)]
             for engine, values in samples.items()},
            median_iqr(ratios))


def _engine_times(model, *, repeats):
    """{cold,warm} medians and IQRs for both engines, the paired
    speedups, and the byte-identity check."""
    cold_ms, cold_speedup = _paired_publishes(model, repeats=repeats,
                                              cold=True)
    warm_ms, warm_speedup = _paired_publishes(model, repeats=repeats,
                                              cold=False)
    times = {engine: {"cold_ms": cold_ms[engine][0],
                      "cold_iqr_ms": cold_ms[engine][1],
                      "warm_ms": warm_ms[engine][0],
                      "warm_iqr_ms": warm_ms[engine][1]}
             for engine, _ in ENGINES}
    pages = {engine: _publish(model, enabled, cold=False)[1]
             for engine, enabled in ENGINES}
    identical = pages["compiled"] == pages["interpreted"]
    return (times, {"cold": cold_speedup, "warm": warm_speedup},
            identical, len(pages["compiled"]))


def _compile_cost(repeats):
    """Milliseconds to build the closures for the multi-page stylesheet."""
    from repro.web.publisher import _compiled
    from repro.web.stylesheets import MULTI_PAGE_XSL

    clear_publisher_caches()
    sheet = _compiled(MULTI_PAGE_XSL)  # parsed once; compile measured alone
    samples = []
    stats = {}
    for _ in range(repeats):
        start = perf_counter()
        transformer = CompiledTransformer(sheet)
        samples.append(perf_counter() - start)
        stats = transformer.compile_stats
    return 1000 * statistics.median(samples), stats


def _start_server(stack, xml, name, enabled):
    """A fresh server whose site one engine built; (server, paths)."""
    set_compile_enabled(enabled)
    clear_publisher_caches()
    try:
        server = stack.enter_context(ModelServer())
        reply = httpload.fetch(server, "PUT", f"/models/{name}", body=xml)
        assert reply.status in (200, 201), reply.body
        httpload.prime(server, [f"/site/{name}/index.html"])
    finally:
        set_compile_enabled(None)
    pages = sorted(server.app.cache.peek(name, "multi").pages)
    return server, [f"/site/{name}/{page}" for page in pages]


def _server_run(xml, name, *, per_client, rounds):
    """Warm HTTP sweeps, alternating between the engines' servers.

    Returns each engine's summary over its rounds and the median of the
    per-round p50 ratios compiled / interpreted.
    """
    with contextlib.ExitStack() as stack:
        servers = {engine: _start_server(stack, xml, name, enabled)
                   for engine, enabled in ENGINES}
        series = httpload.measure(
            {engine: functools.partial(httpload.sweep, server, paths,
                                       per_client)
             for engine, (server, paths) in servers.items()}, rounds)
    return ({engine: httpload.summarize(runs)
             for engine, runs in series.items()},
            httpload.paired(series["compiled"], series["interpreted"],
                            "p50_ms"))


def run(size, *, repeats, per_client):
    model = synthetic_model(**httpload.SIZES[size])
    # Warm the process-global caches (xpath parse, patterns, AVTs) once
    # per engine: they survive clear_publisher_caches(), so without this
    # whichever engine runs first pays all their misses.
    for _, enabled in ENGINES:
        _publish(model, enabled, cold=True)
    clear_publisher_caches()
    times, speedups, identical, page_count = _engine_times(
        model, repeats=repeats)
    compile_ms, compile_stats = _compile_cost(repeats)
    clear_publisher_caches()

    warm_saving_ms = (times["interpreted"]["warm_ms"]
                      - times["compiled"]["warm_ms"])
    http, http_p50_ratio = _server_run(
        model_to_xml(model).encode("utf-8"), f"bench-{size}",
        per_client=per_client, rounds=repeats)
    return {
        "size": size,
        "model": dict(httpload.SIZES[size]),
        "pages": page_count,
        "byte_identical": identical,
        "publish": times,
        "pairs": repeats,
        # Medians and IQRs of the per-pair ratios interpreted / compiled.
        "cold_speedup": speedups["cold"][0],
        "cold_speedup_iqr": speedups["cold"][1],
        "warm_speedup": speedups["warm"][0],
        "warm_speedup_iqr": speedups["warm"][1],
        "compile_ms": compile_ms,
        "compile_stats": compile_stats,
        # Publishes after which ahead-of-time compilation has paid for
        # itself (the server compiles once and rebuilds indefinitely).
        "publishes_to_amortize": (compile_ms / warm_saving_ms
                                  if warm_saving_ms > 0 else None),
        "http_warm": http,
        # Per-round p50 ratios compiled / interpreted.
        "http_warm_p50_ratio": http_p50_ratio,
    }


def main(argv=None) -> int:
    args = httpload.parser("compiled-vs-interpreted XSLT benchmark (C6)",
                           "BENCH_c6_compile.json").parse_args(argv)
    if args.smoke:
        result = run("medium", repeats=5, per_client=25)
    else:
        result = run("large", repeats=5, per_client=50)

    publish = result["publish"]
    print(f"cold publish: compiled {publish['compiled']['cold_ms']:.1f} ms "
          f"vs interpreted {publish['interpreted']['cold_ms']:.1f} ms "
          f"({result['cold_speedup']:.2f}x median pair, "
          f"{result['pages']} pages)")
    print(f"warm publish: compiled {publish['compiled']['warm_ms']:.1f} ms "
          f"vs interpreted {publish['interpreted']['warm_ms']:.1f} ms "
          f"({result['warm_speedup']:.2f}x median pair)")
    amortize = result["publishes_to_amortize"]
    print(f"compile:      {result['compile_ms']:.1f} ms "
          f"({result['compile_stats']}), amortized after "
          f"{amortize:.2f} publishes" if amortize is not None else
          "compile:      warm saving <= 0; never amortizes")
    http = result["http_warm"]
    http_ratio = result["http_warm_p50_ratio"]["median"]
    for engine in ("compiled", "interpreted"):
        print(f"http {engine + ':':13s}{httpload.describe(http[engine])}")
    print(f"http p50 ratio: {http_ratio:.2f} compiled / interpreted "
          f"(median pair)")
    print(f"byte-identical: {result['byte_identical']}")

    failures = []
    if not result["byte_identical"]:
        failures.append("compiled pages differ from interpreted pages")
    min_cold = SMOKE_MIN_COLD_SPEEDUP if args.smoke else MIN_COLD_SPEEDUP
    if result["cold_speedup"] < min_cold:
        failures.append(f"cold speedup {result['cold_speedup']:.2f}x "
                        f"< {min_cold}x")
    if result["warm_speedup"] < MIN_WARM_SPEEDUP:
        failures.append(f"warm speedup {result['warm_speedup']:.2f}x "
                        f"< {MIN_WARM_SPEEDUP}x")
    if http_ratio > MAX_WARM_HTTP_P50_RATIO:
        failures.append(f"warm http p50 ratio {http_ratio:.2f} "
                        f"> {MAX_WARM_HTTP_P50_RATIO}")
    for engine in ("compiled", "interpreted"):
        failures += httpload.failed(f"http {engine}", http[engine])
    return httpload.finish(args, "c6_compile", result, failures)


if __name__ == "__main__":
    sys.exit(main())
