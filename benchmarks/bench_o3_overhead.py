"""Experiment O3: observability overhead on the multi-page publish.

Answers the two questions the obs layer must not dodge (ISSUE 3):

* **Disabled cost** — every instrumented hot path guards recording with
  ``if RECORDER.enabled:``; with the recorder off that guard is the
  *only* extra work versus a build without the obs layer.  The guard
  count cannot be timed differentially (it is far below run-to-run
  noise on an end-to-end publish), so it is *bounded* instead: an
  enabled run counts how many guarded events the publish emits (an
  overestimate of guard evaluations, since several counters record
  batched events behind one guard), a microbenchmark prices one
  flag check, and the product over the disabled publish time is the
  estimated disabled-mode overhead.  ``--check`` fails (exit 1) when
  that bound exceeds 2 %.
* **Enabled cost** — the honest price of profiling: median publish time
  with the recorder collecting (including the profile-page render)
  versus disabled.

Results merge into ``BENCH_o3_obs.json`` under ``--label``::

    PYTHONPATH=src python benchmarks/bench_o3_overhead.py --label after

``--smoke --check`` is the CI ``obs-overhead`` gate: one repetition on
the medium model, JSON not written, threshold still enforced.
"""

from __future__ import annotations

import argparse
import os
from time import perf_counter

import httpload
from loadgen import median_iqr
from repro.mdm import synthetic_model
from repro.obs import RECORDER, build_trace
from repro.web import publish_multi_page

#: The acceptance bound on disabled-mode overhead.
MAX_DISABLED_OVERHEAD = 0.02


def _median_publish(model, repeats: int, *,
                    enabled: bool) -> tuple[float, float]:
    """Median and IQR in seconds of *repeats* publishes."""
    samples = []
    for _ in range(repeats):
        if enabled:
            RECORDER.enable(clear=True)
        else:
            RECORDER.disable()
        start = perf_counter()
        publish_multi_page(model)
        samples.append(perf_counter() - start)
    RECORDER.disable()
    return median_iqr(samples)


def guarded_event_count(model) -> int:
    """Events recorded by one enabled publish — bounds guard evaluations.

    Counter values, histogram entries and spans each sit behind one
    ``if RECORDER.enabled:`` (or no-op span) check; counters that record
    batches (e.g. ``dom.order_key.hit`` adds per chain link under a
    single per-call guard) make this an overestimate, which is the safe
    direction for an upper bound.
    """
    RECORDER.enable(clear=True)
    try:
        publish_multi_page(model)
        trace = build_trace(include_caches=False)
    finally:
        RECORDER.disable()
    events = sum(trace["counters"].values())
    events += sum(h["count"] for h in trace["histograms"].values())
    events += 2 * sum(a["count"] for a in trace["span_aggregates"].values())
    return events


def flag_check_cost(iterations: int = 1_000_000) -> float:
    """Seconds per ``if RECORDER.enabled:`` check (empty-loop corrected)."""
    recorder = RECORDER
    assert not recorder.enabled
    start = perf_counter()
    for _ in range(iterations):
        if recorder.enabled:
            raise AssertionError("recorder must stay disabled here")
    guarded = perf_counter() - start
    start = perf_counter()
    for _ in range(iterations):
        pass
    empty = perf_counter() - start
    return max((guarded - empty) / iterations, 0.0)


def run_suite(smoke: bool) -> dict:
    repeats = 3 if smoke else 9
    size = "medium" if smoke else "large"
    model = synthetic_model(**httpload.SIZES[size])
    publish_multi_page(model)  # warm compile/transformer caches

    disabled_s, disabled_iqr = _median_publish(model, repeats,
                                               enabled=False)
    enabled_s, enabled_iqr = _median_publish(model, repeats, enabled=True)
    events = guarded_event_count(model)
    per_check_s = flag_check_cost()
    estimated_disabled_overhead = events * per_check_s / disabled_s
    enabled_overhead = enabled_s / disabled_s - 1.0

    suite = {
        "model": size,
        "repeats": repeats,
        "publish_disabled_median_s": disabled_s,
        "publish_disabled_iqr_s": disabled_iqr,
        "publish_enabled_median_s": enabled_s,
        "publish_enabled_iqr_s": enabled_iqr,
        "enabled_overhead_fraction": round(enabled_overhead, 4),
        "guarded_events_per_publish": events,
        "flag_check_cost_ns": round(per_check_s * 1e9, 2),
        "estimated_disabled_overhead_fraction":
            round(estimated_disabled_overhead, 6),
        "max_disabled_overhead_fraction": MAX_DISABLED_OVERHEAD,
    }
    print(f"  {size}: publish disabled {disabled_s * 1000:.1f} ms, "
          f"enabled {enabled_s * 1000:.1f} ms "
          f"(+{enabled_overhead * 100:.1f}%)")
    print(f"  {events} guarded events × {per_check_s * 1e9:.1f} ns/check "
          f"→ disabled overhead ≈ "
          f"{estimated_disabled_overhead * 100:.3f}% "
          f"(bound {MAX_DISABLED_OVERHEAD * 100:.0f}%)")
    return suite


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="fast single-size run, no JSON written")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when the estimated disabled-mode "
                             "overhead exceeds the 2%% bound")
    parser.add_argument("--label", default="after",
                        help="run label recorded in the JSON")
    parser.add_argument(
        "--output",
        default=os.path.join(httpload.ROOT, "BENCH_o3_obs.json"),
        help="JSON file to merge results into")
    args = parser.parse_args(argv)

    print(f"bench_o3_overhead: label={args.label} smoke={args.smoke}")
    suite = run_suite(args.smoke)

    if not args.smoke:
        httpload.write_bench(args.output, "o3_obs", args.label, suite)

    if args.check and suite["estimated_disabled_overhead_fraction"] > \
            MAX_DISABLED_OVERHEAD:
        print("FAIL: disabled-mode observability overhead exceeds "
              f"{MAX_DISABLED_OVERHEAD * 100:.0f}%")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
