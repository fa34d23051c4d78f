"""Experiment I7: incremental republish vs cold publish after one edit.

The claim from ISSUE 7: once a site has been published with a
dependency index (DESIGN.md §14), republishing after a *single-element
edit* — the common case for a designer nudging one attribute — should
be at least 5x faster than a cold publish of the edited model, because
only the pages whose units the diff dirtied are re-rendered.

Three measurements per size:

* **Cold publish** — ``clear_publisher_caches()`` then
  ``publish_multi_page`` of the edited model, per repeat.  This is the
  cost every edit paid before this PR (the 147 ms recorded in
  BENCH_c6_compile.json is this measurement), and matches bench_c6's
  cold leg.
* **Incremental republish** — the steady-state chain the server runs:
  each timed step feeds the previous step's pages and index into
  ``republish_incremental`` for the next edit (two single-element
  edits alternate so every step has a real diff).  Byte identity to a
  cold publish of the same model is asserted after every step,
  *outside* the timed region, and every step must take the incremental
  path (``mode == "incremental"``), not a silent fallback.
* **Tracked publish overhead** — ``publish_with_index`` vs plain
  ``publish_multi_page``, the price of recording the index in the
  first place.  Reported, not gated: it is paid once per cold build.

A model-level edit (toggling ``showatts``) is also timed as the
worst case where the diff dirties every page; no gate applies — it is
there to show the floor honestly, not to flatter the headline number.

Results merge into ``BENCH_i7_incremental.json`` under ``--label``::

    PYTHONPATH=src python benchmarks/bench_i7_incremental.py --label after

``--smoke --check`` is the CI gate (medium model, JSON not written).
"""

from __future__ import annotations

import sys
from time import perf_counter

import httpload
from loadgen import median_iqr
from repro.mdm import document_to_model, model_to_document, synthetic_model
from repro.web.incremental import publish_with_index, republish_incremental
from repro.web.publisher import clear_publisher_caches, publish_multi_page

#: Acceptance (ISSUE 7): incremental republish of a single-element edit
#: at least 5x faster than a cold publish on the large model.
MIN_SPEEDUP = 5.0
#: The smoke gate runs the medium model, where fewer pages are reused
#: so the ratio is naturally smaller; the 5x claim is checked on the
#: large model in the full run.
SMOKE_MIN_SPEEDUP = 3.0


def _single_element_edit(model):
    """The edited model: one factatt renamed — one unit dirtied."""
    document = model_to_document(model)
    att = document.root_element.find("factclasses").find("factclass") \
        .find("factatts").find("factatt")
    att.set_attribute("name", att.get_attribute("name") + " (edited)")
    return document_to_model(document)


def _model_level_edit(model):
    """The worst-case edit: a root attribute read by every page."""
    document = model_to_document(model)
    root = document.root_element
    root.set_attribute(
        "showatts", "no" if root.get_attribute("showatts") == "yes" else "yes")
    return document_to_model(document)


def _ms(samples):
    """Median and IQR of *samples* (seconds), in milliseconds."""
    return tuple(1000 * value for value in median_iqr(samples))


def _median_ms(thunk, repeats):
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        thunk()
        samples.append(perf_counter() - start)
    return _ms(samples)


def _median_cold_ms(edited, repeats):
    """Median and IQR of cache-cleared cold publishes (the pre-PR
    per-edit cost).

    Mirrors bench_c6's cold leg: caches cleared *outside* the timed
    region, so the number is parse + compile + transform + serialize.
    """
    samples = []
    for _ in range(repeats):
        clear_publisher_caches()
        start = perf_counter()
        publish_multi_page(edited)
        samples.append(perf_counter() - start)
    publish_multi_page(edited)  # leave the caches warm again
    return _ms(samples)


def _measure_single_edit(model, site, index, *, repeats):
    """Steady-state chain: each step republishes the next edit against
    the previous step's pages and index, exactly as the server does.
    Byte identity to a cold publish is asserted after every timed step.
    """
    edit_a = _single_element_edit(model)
    edit_b = _single_element_edit(edit_a)  # same factatt, renamed again
    cold_pages = {0: publish_multi_page(edit_a).pages,
                  1: publish_multi_page(edit_b).pages}

    pages, chain_index = dict(site.pages), index
    samples, infos = [], []
    for step in range(max(2 * repeats, 2)):
        edited = edit_a if step % 2 == 0 else edit_b
        start = perf_counter()
        new_site, chain_index, info = republish_incremental(
            edited, pages, chain_index)
        samples.append(perf_counter() - start)
        infos.append(info)
        assert info["mode"] == "incremental", \
            f"single-element edit fell back: {info['mode']} ({info['reason']})"
        pages = dict(new_site.pages)
        assert pages == cold_pages[step % 2], "incremental bytes diverged"

    cold_ms, cold_iqr_ms = _median_cold_ms(edit_a, repeats)
    incremental_ms, incremental_iqr_ms = _ms(samples)
    info = infos[-1]
    return {
        "cold_ms": cold_ms,
        "cold_iqr_ms": cold_iqr_ms,
        "incremental_ms": incremental_ms,
        "incremental_iqr_ms": incremental_iqr_ms,
        "incremental_steps": len(samples),
        "speedup": cold_ms / incremental_ms,
        "mode": info["mode"],
        "pages_rebuilt": info["pages_rebuilt"],
        "pages_reused": info["pages_reused"],
    }


def _measure_model_edit(model, site, index, *, repeats):
    """Worst case: a root-attribute edit dirties every page."""
    edited = _model_level_edit(model)
    cold_pages = publish_multi_page(edited).pages
    previous_pages = dict(site.pages)
    infos = []

    def incremental():
        _, _, info = republish_incremental(
            edited, dict(previous_pages), index)
        infos.append(info)

    incremental_ms, incremental_iqr_ms = _median_ms(incremental, repeats)
    new_site, _, _ = republish_incremental(edited, dict(previous_pages), index)
    assert new_site.pages == cold_pages, "incremental bytes diverged"
    cold_ms, cold_iqr_ms = _median_cold_ms(edited, repeats)
    info = infos[-1]
    return {
        "cold_ms": cold_ms,
        "cold_iqr_ms": cold_iqr_ms,
        "incremental_ms": incremental_ms,
        "incremental_iqr_ms": incremental_iqr_ms,
        "speedup": cold_ms / incremental_ms,
        "mode": info["mode"],
        "pages_rebuilt": info["pages_rebuilt"],
        "pages_reused": info["pages_reused"],
    }


def run(size, *, repeats):
    model = synthetic_model(**httpload.SIZES[size])
    clear_publisher_caches()
    publish_multi_page(model)  # warm stylesheet/transformer caches

    plain_ms, plain_iqr_ms = _median_ms(lambda: publish_multi_page(model),
                                        repeats)
    tracked_ms, tracked_iqr_ms = _median_ms(
        lambda: publish_with_index(model), repeats)
    site, index = publish_with_index(model)

    single = _measure_single_edit(model, site, index, repeats=repeats)
    worst = _measure_model_edit(model, site, index, repeats=repeats)

    return {
        "size": size,
        "model": dict(httpload.SIZES[size]),
        "pages": len(index.page_names),
        "repeats": repeats,
        "single_edit": single,
        "model_level_edit": worst,
        "tracked_publish_ms": tracked_ms,
        "tracked_publish_iqr_ms": tracked_iqr_ms,
        "plain_publish_ms": plain_ms,
        "plain_publish_iqr_ms": plain_iqr_ms,
        "tracking_overhead_ratio": tracked_ms / plain_ms,
    }


def main(argv=None) -> int:
    args = httpload.parser("incremental-republish benchmark (I7)",
                           "BENCH_i7_incremental.json").parse_args(argv)

    if args.smoke:
        result = run("medium", repeats=5)
    else:
        result = run("large", repeats=7)

    single, worst = result["single_edit"], result["model_level_edit"]
    print(f"single edit:  incremental {single['incremental_ms']:.1f} ms "
          f"vs cold {single['cold_ms']:.1f} ms "
          f"({single['speedup']:.2f}x; {single['pages_rebuilt']} rebuilt, "
          f"{single['pages_reused']} reused of {result['pages']} pages)")
    print(f"model edit:   incremental {worst['incremental_ms']:.1f} ms "
          f"vs cold {worst['cold_ms']:.1f} ms "
          f"({worst['speedup']:.2f}x; {worst['pages_rebuilt']} rebuilt)")
    print(f"tracking:     tracked publish {result['tracked_publish_ms']:.1f} "
          f"ms vs plain {result['plain_publish_ms']:.1f} ms "
          f"({result['tracking_overhead_ratio']:.2f}x)")

    failures = []
    min_speedup = SMOKE_MIN_SPEEDUP if args.smoke else MIN_SPEEDUP
    if single["speedup"] < min_speedup:
        failures.append(f"single-edit speedup {single['speedup']:.2f}x "
                        f"< {min_speedup}x")
    if single["mode"] != "incremental":
        failures.append(f"single edit took mode {single['mode']!r}")
    return httpload.finish(args, "i7_incremental", result, failures)


if __name__ == "__main__":
    sys.exit(main())
