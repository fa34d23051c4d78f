"""Differential conformance runner.

Usage::

    python -m repro.testkit.run --seed 0 --budget 30

Runs seed-derived iterations until the time budget is exhausted (or for
an exact ``--iterations`` count).  Each iteration is fully determined by
``(seed, index)`` and exercises all seven workload families:

* a random GOLD model through the full pipeline harness,
* a DOM mutation script checked differentially after every operation,
* a batch of random XPath expressions against both evaluators,
* indexed vs linear template dispatch over the model document,
* the compiled streaming renderer vs the interpreter, byte-for-byte,
  over both the model document and a mutated generic document,
* a model edit script replayed through the incremental republisher,
  each step proven byte-identical to a cold publish,
* random OLAP queries over a random dataset of the iteration's model
  and of the paper's sales model, each answered by the cube engine and
  by an independent sqlite3 oracle.

Failures are printed and written as JSON reproducers (seed, iteration,
and the failing records) to ``--failures-dir`` so a red CI run can be
replayed locally with ``--seed S --start I --iterations 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from ..mdm.examples import sales_model
from ..mdm.xml_io import model_to_document
from ..obs import RECORDER, build_trace, write_trace
from .differential import (
    GENERIC_DIFFERENTIAL_XSL,
    compiled_differential,
    dispatch_differential,
    incremental_differential,
    olap_differential,
    run_mutation_differential,
    sort_differential,
    xpath_differential,
)
from .generators import (
    random_document,
    random_model,
    random_model_edit_script,
    random_mutations,
    random_xpath,
)
from .pipeline import run_pipeline

__all__ = ["run_iteration", "main"]

#: Per-iteration workload sizes (kept small: one iteration should take
#: well under a second so a 30 s budget covers a broad corpus).
MUTATIONS_PER_ITERATION = 16
XPATHS_PER_ITERATION = 25
SORT_SHUFFLES = 3
MODEL_EDITS_PER_ITERATION = 4


def iteration_rng(seed: int, index: int) -> random.Random:
    """The deterministic RNG for iteration *index* of *seed*."""
    return random.Random(f"{seed}:{index}")


def run_iteration(seed: int, index: int) -> list[dict]:
    """Run one full iteration; returns JSON-serializable failure records.

    Each workload family runs inside an observability span
    (``testkit.<family>``), so a harness with the global recorder
    enabled (the CLI below always enables it) gets per-stage timings
    for free; with the recorder disabled the spans are no-ops.
    """
    rng = iteration_rng(seed, index)
    failures: list[dict] = []

    with RECORDER.span("testkit.pipeline"):
        model = random_model(rng)
        pipeline = run_pipeline(model)
        for failure in pipeline.failures:
            record = failure.as_dict()
            record["model"] = model.name
            failures.append(record)

    with RECORDER.span("testkit.mutations"):
        documents = [random_document(rng), random_document(rng)]
        operations = random_mutations(rng, MUTATIONS_PER_ITERATION)
        failures.extend(run_mutation_differential(documents, operations))

    target = random_document(rng)
    expressions = [random_xpath(rng) for _ in range(XPATHS_PER_ITERATION)]
    with RECORDER.span("testkit.xpath"):
        failures.extend(xpath_differential(target, expressions))
    with RECORDER.span("testkit.sort"):
        failures.extend(sort_differential(target, SORT_SHUFFLES, rng))

    model_document = model_to_document(model)
    with RECORDER.span("testkit.dispatch"):
        failures.extend(dispatch_differential(model_document))

    # Compiled streaming renderer vs the interpreter: every shipped
    # stylesheet over the model document, plus the generic sheets over a
    # document the mutation script just finished mangling.
    with RECORDER.span("testkit.compiled"):
        failures.extend(compiled_differential(model_document))
        failures.extend(compiled_differential(
            documents[0], stylesheets=GENERIC_DIFFERENTIAL_XSL))

    # Incremental republish vs cold publish: a random edit script over
    # the iteration's model, every step proven byte-identical.
    with RECORDER.span("testkit.incremental"):
        edits = random_model_edit_script(rng, MODEL_EDITS_PER_ITERATION)
        failures.extend(incremental_differential(model, edits))

    # Cube engine vs the sqlite3 oracle.  The sales model has every
    # shape the engine must group right: a non-strict roll-up, a
    # many-to-many dimension, alternative paths and an additivity rule.
    with RECORDER.span("testkit.olap"):
        failures.extend(olap_differential(model, rng))
        failures.extend(olap_differential(sales_model(), rng))

    for record in failures:
        record.setdefault("seed", seed)
        record.setdefault("iteration", index)
    return failures


def _write_reproducers(directory: str, seed: int,
                       failures: list[dict]) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"seed{seed}-failures.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(failures, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testkit.run",
        description="Differential conformance harness for the "
                    "XML→XPath→XSLT→HTML pipeline.")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed; iteration i uses RNG(seed:i)")
    parser.add_argument("--budget", type=float, default=30.0,
                        help="time budget in seconds (default 30)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="run exactly N iterations, ignoring --budget")
    parser.add_argument("--start", type=int, default=0,
                        help="first iteration index (for replaying one "
                             "failing iteration)")
    parser.add_argument("--failures-dir", default="testkit-failures",
                        help="directory for JSON reproducers of failures")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write the observability trace (trace.json) "
                             "of the whole run to PATH")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-iteration progress output")
    args = parser.parse_args(argv)

    started = time.monotonic()
    index = args.start
    completed = 0
    all_failures: list[dict] = []
    # The harness always records: per-stage spans cost nothing compared
    # to the differential workloads and every red run gets its timings.
    was_enabled = RECORDER.enabled
    RECORDER.enable(clear=not was_enabled)
    try:
        while True:
            if args.iterations is not None:
                if completed >= args.iterations:
                    break
            elif completed > 0 and time.monotonic() - started >= args.budget:
                break
            failures = run_iteration(args.seed, index)
            completed += 1
            if failures:
                all_failures.extend(failures)
                print(f"iteration {index}: {len(failures)} failure(s)",
                      file=sys.stderr)
                for record in failures[:5]:
                    print(f"  {json.dumps(record, sort_keys=True)}",
                          file=sys.stderr)
            elif not args.quiet and completed % 10 == 0:
                elapsed = time.monotonic() - started
                print(f"... {completed} iterations green ({elapsed:.1f}s)")
            index += 1
    finally:
        trace = build_trace()
        RECORDER.enabled = was_enabled
    if args.trace:
        directory = os.path.dirname(args.trace)
        if directory:
            os.makedirs(directory, exist_ok=True)
        write_trace(args.trace, trace)
        print(f"trace written to {args.trace}")

    elapsed = time.monotonic() - started
    if all_failures:
        stages = {
            path.removeprefix("testkit."): round(stats["total"], 6)
            for path, stats in trace["span_aggregates"].items()
            if path.startswith("testkit.")
        }
        failure_count = len(all_failures)
        bad = sorted({record["iteration"] for record in all_failures})
        # One extra context record (not a failure): where the run's time
        # went, so a red CI log shows which stage blew the budget.
        all_failures.append({
            "check": "stage-timings", "seed": args.seed,
            "iteration": -1, "stages_s": stages,
        })
        path = _write_reproducers(args.failures_dir, args.seed, all_failures)
        print(f"testkit: FAIL — {failure_count} failure(s) across "
              f"iterations {bad} in {elapsed:.1f}s; reproducers: {path}")
        print(f"replay one with: python -m repro.testkit.run "
              f"--seed {args.seed} --start {bad[0]} --iterations 1")
        return 1
    print(f"testkit: OK — {completed} iterations, 0 failures, "
          f"seed {args.seed}, {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
