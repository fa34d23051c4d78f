"""Experiment P1: hot-path microbenchmarks for the XPath/XSLT engine.

Times the three layers the performance work targets, on the paper-scale
model and on synthetic models of increasing size (same knobs as the S1
scaling sweep):

* ``sort``     — :func:`sort_document_order` over every node of the GOLD
  document (exercises ``document_order_key`` caching),
* ``xpath``    — representative location paths over the GOLD document
  (exercises step-wise order preservation in ``_apply_steps``),
* ``dispatch`` — a full transform with the multi-page stylesheet against
  a pre-built source tree (exercises indexed template dispatch),
* ``publish``  — end-to-end ``publish_multi_page`` / ``publish_single_page``
  (exercises everything, including the compile caches).

Results are appended under a ``--label`` (``before`` / ``after``) into a
JSON file so successive PRs can track the trajectory:

    PYTHONPATH=src python benchmarks/bench_p1_engine.py --label after

``--smoke`` runs one fast repetition on the small model only and skips
writing the JSON — meant for CI, where it fails loudly if any benchmark
path raises.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time

import httpload
from repro.mdm import model_to_document, sales_model, synthetic_model
from repro.web import publish_multi_page, publish_single_page
from repro.web.stylesheets import MULTI_PAGE_XSL, stylesheet_resolver
from repro.xml.dom import sort_document_order
from repro.xpath import evaluate
from repro.xslt import Transformer, compile_stylesheet

#: The shared ladder with a small rung below it (bench S1's sizes).
SIZES = {
    "small": dict(facts=1, dimensions=3, levels_per_dimension=2,
                  measures_per_fact=4),
    "medium": httpload.SIZES["medium"],
    "large": httpload.SIZES["large"],
}

#: Location paths that stress different axes and step shapes.
XPATH_QUERIES = (
    "//attribute",
    "//level/@name",
    "/goldmodel/factclasses/factclass/attributes/attribute",
    "//dimensionclass//level[@name]",
    "count(//*)",
)


def _time(callable_, repeats: int) -> dict:
    """Best/median wall time of *callable_* over *repeats* runs."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        samples.append(time.perf_counter() - start)
    return {
        "best_s": min(samples),
        "median_s": statistics.median(samples),
        "repeats": repeats,
    }


def bench_sort(document, repeats: int) -> dict:
    nodes = [document]
    nodes.extend(document.iter_descendants())
    for element in document.iter_elements():
        nodes.extend(element.attributes)
    # Worst-case-ish input: reversed document order.
    nodes.reverse()
    result = _time(lambda: sort_document_order(nodes), repeats)
    result["node_count"] = len(nodes)
    return result


def bench_xpath(document, repeats: int) -> dict:
    def run():
        for query in XPATH_QUERIES:
            evaluate(query, document)

    result = _time(run, repeats)
    result["queries"] = len(XPATH_QUERIES)
    return result


def bench_dispatch(document, repeats: int) -> dict:
    stylesheet = compile_stylesheet(
        MULTI_PAGE_XSL, resolver=stylesheet_resolver)
    transformer = Transformer(stylesheet)
    return _time(lambda: transformer.transform(document), repeats)


def bench_publish(model, repeats: int) -> dict:
    multi = _time(lambda: publish_multi_page(model), repeats)
    single = _time(lambda: publish_single_page(model), repeats)
    return {"multi_page": multi, "single_page": single}


def run_suite(smoke: bool) -> dict:
    repeats = 1 if smoke else 5
    suite: dict = {"models": {}}
    models = {"paper": sales_model()}
    if smoke:
        models["small"] = synthetic_model(**SIZES["small"])
    else:
        for name, kwargs in SIZES.items():
            models[name] = synthetic_model(**kwargs)
    for name, model in models.items():
        document = model_to_document(model)
        entry = {
            "sort": bench_sort(document, repeats),
            "xpath": bench_xpath(document, repeats),
            "dispatch": bench_dispatch(document, repeats),
            "publish": bench_publish(model, repeats),
        }
        suite["models"][name] = entry
        best = entry["publish"]["multi_page"]["best_s"]
        print(f"  {name:>7}: multi-page publish best {best * 1000:.1f} ms, "
              f"sort best {entry['sort']['best_s'] * 1000:.2f} ms "
              f"({entry['sort']['node_count']} nodes)")
    return suite


def _speedups(payload: dict) -> None:
    """Record before/after speedups once both runs are present."""
    before = payload["runs"].get("before")
    after = payload["runs"].get("after")
    if not (before and after):
        return
    speedups = {}
    for name, entry in after["models"].items():
        base = before["models"].get(name)
        if not base:
            continue
        speedups[name] = {
            "multi_page_publish": round(
                base["publish"]["multi_page"]["best_s"]
                / entry["publish"]["multi_page"]["best_s"], 2),
            "sort": round(base["sort"]["best_s"]
                          / entry["sort"]["best_s"], 2),
            "xpath": round(base["xpath"]["best_s"]
                           / entry["xpath"]["best_s"], 2),
            "dispatch": round(base["dispatch"]["best_s"]
                              / entry["dispatch"]["best_s"], 2),
        }
    payload["speedup_before_over_after"] = speedups
    print("speedups (before/after):", json.dumps(speedups, indent=2))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="single fast repetition, no JSON written")
    parser.add_argument("--label", default="after",
                        help="run label recorded in the JSON (before/after)")
    parser.add_argument(
        "--output",
        default=os.path.join(httpload.ROOT, "BENCH_p1_engine.json"),
        help="JSON file to merge results into")
    args = parser.parse_args(argv)

    print(f"bench_p1_engine: label={args.label} smoke={args.smoke}")
    suite = run_suite(args.smoke)
    if args.smoke:
        print("smoke run ok (JSON not written)")
        return 0

    httpload.write_bench(args.output, "p1_engine", args.label, suite,
                         derive=_speedups)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
