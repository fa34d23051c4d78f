"""The testkit runner: every differential and chaos family, one loop.

Usage::

    python -m repro.testkit.run --seed 0 --budget 30
    python -m repro.testkit.run --family chaos --seed 1 --budget 15

A *family* is one kind of generated check: a function of
``(rng, seed, iteration)`` that returns failure records.  The families
in :data:`FAMILIES` are:

* ``pipeline`` — a random GOLD model through the full pipeline harness,
  indexed vs linear template dispatch over its document included;
* ``mutations`` — a DOM mutation script checked after every operation;
* ``xpath`` — random XPath expressions against both evaluators, and
  both document-order sorts, over one random document;
* ``compiled`` — the compiled streaming renderer vs the interpreter,
  byte for byte, over a model document and a mangled generic one;
* ``incremental`` — a model edit script replayed through the
  incremental republisher, each step byte-identical to a cold publish;
* ``olap`` — random OLAP queries over random datasets of a random
  model and of the paper's sales model, answered by the cube engine
  and by an independent sqlite3 oracle;
* ``multiproc``, ``chaosmp`` and ``chaos`` — checks against a live
  server, passed as a fourth argument: a two-worker fleet vs offline
  publishing (:mod:`repro.testkit.multiproc`), worker kills
  (:mod:`repro.testkit.chaosmp`) and fault plans
  (:mod:`repro.testkit.chaos`).

Without ``--family`` the in-process families run; a server family runs
only when named, on a fixture started once per run.  Each iteration
runs every selected family once, in table order, until ``--budget``
runs out (at least one iteration always runs) or for exactly
``--iterations`` iterations.  Family *F* at iteration *I* of seed *S*
draws from ``random.Random(f"{F}:{S}:{I}")``, so
``--family F --seed S --start I --iterations 1`` reproduces what *F*
did at iteration *I* of any run.

Every failure record carries ``family``, ``seed``, ``iteration`` and
``check``.  A red run writes them, with run-level context records
(``iteration: -1``), to ``--failures-dir`` as
``seed{S}-{families}-failures.json`` and prints one replay line per
failing family.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, ContextManager

from ..faults import FAULTS
from ..mdm import sales_model
from ..mdm.xml_io import model_to_document
from ..obs import RECORDER, build_trace, write_trace
from . import chaos, chaosmp, multiproc
from .differential import (
    GENERIC_DIFFERENTIAL_XSL,
    compiled_differential,
    incremental_differential,
    olap_differential,
    run_mutation_differential,
    sort_differential,
    xpath_differential,
)
from .generators import (
    apply_mutation,
    random_document,
    random_model,
    random_model_edit_script,
    random_mutations,
    random_xpath,
)
from .pipeline import run_pipeline

__all__ = ["FAMILIES", "Family", "family_rng", "main", "run_family"]

#: Per-iteration workload sizes (kept small: one iteration should take
#: well under a second so a 30 s budget covers a broad corpus).
MUTATIONS_PER_ITERATION = 16
XPATHS_PER_ITERATION = 25
SORT_SHUFFLES = 3
MODEL_EDITS_PER_ITERATION = 4


def family_rng(family: str, seed: int, iteration: int) -> random.Random:
    """The RNG that family *family* draws from at *iteration* of *seed*."""
    return random.Random(f"{family}:{seed}:{iteration}")


def _pipeline(rng: random.Random, seed: int, iteration: int) -> list[dict]:
    model = random_model(rng)
    return [dict(failure.as_dict(), model=model.name)
            for failure in run_pipeline(model).failures]


def _mutations(rng: random.Random, seed: int, iteration: int) -> list[dict]:
    documents = [random_document(rng), random_document(rng)]
    operations = random_mutations(rng, MUTATIONS_PER_ITERATION)
    return run_mutation_differential(documents, operations)


def _xpath(rng: random.Random, seed: int, iteration: int) -> list[dict]:
    target = random_document(rng)
    expressions = [random_xpath(rng) for _ in range(XPATHS_PER_ITERATION)]
    return (xpath_differential(target, expressions)
            + sort_differential(target, SORT_SHUFFLES, rng))


def _compiled(rng: random.Random, seed: int, iteration: int) -> list[dict]:
    """Every shipped stylesheet over a model document, and the generic
    sheets over a document that a mutation script has mangled."""
    failures = compiled_differential(model_to_document(random_model(rng)))
    pool = [random_document(rng), random_document(rng)]
    for operation in random_mutations(rng, MUTATIONS_PER_ITERATION):
        apply_mutation(pool, operation)
    return failures + compiled_differential(
        pool[0], stylesheets=GENERIC_DIFFERENTIAL_XSL)


def _incremental(rng: random.Random, seed: int,
                 iteration: int) -> list[dict]:
    model = random_model(rng)
    edits = random_model_edit_script(rng, MODEL_EDITS_PER_ITERATION)
    return incremental_differential(model, edits)


def _olap(rng: random.Random, seed: int, iteration: int) -> list[dict]:
    """The sales model has every shape the engine must group right: a
    non-strict roll-up, a many-to-many dimension, alternative paths and
    an additivity rule."""
    model = random_model(rng)
    return (olap_differential(model, rng)
            + olap_differential(sales_model(), rng))


@dataclass(frozen=True)
class Family:
    """One kind of generated check."""

    check: Callable[..., list[dict]]
    #: Starts the live server the check takes as its fourth argument;
    #: None for an in-process family.
    fixture: Callable[[], ContextManager] | None = None
    #: The fixture's run-level context record, printed at the end of a
    #: run and written with a red run's failures.
    context: Callable[[object], dict] | None = None


#: Every family, in the order an iteration runs them.  Fixtures start
#: in this order too: the fleets fork before the chaos server starts
#: its threads, because a fork beside running threads can leave the
#: child a lock that no thread will release.
FAMILIES: dict[str, Family] = {
    "pipeline": Family(_pipeline),
    "mutations": Family(_mutations),
    "xpath": Family(_xpath),
    "compiled": Family(_compiled),
    "incremental": Family(_incremental),
    "olap": Family(_olap),
    "multiproc": Family(multiproc.run_iteration, multiproc.fleet),
    "chaosmp": Family(chaosmp.run_round, chaosmp.fleet),
    "chaos": Family(chaos.run_round, chaos.serving, chaos.context),
}

#: What runs without ``--family``: the families that need no server.
DEFAULT_FAMILIES = tuple(name for name, family in FAMILIES.items()
                         if family.fixture is None)


def run_family(name: str, seed: int, iteration: int,
               fixture: object = None) -> list[dict]:
    """Family *name*'s failure records at *iteration* of *seed*."""
    family = FAMILIES[name]
    rng = family_rng(name, seed, iteration)
    with RECORDER.span(f"testkit.{name}"):
        if family.fixture is None:
            records = family.check(rng, seed, iteration)
        else:
            records = family.check(rng, seed, iteration, fixture)
    for record in records:
        record.update(family=name, seed=seed, iteration=iteration)
    return records


def _write_reproducers(directory: str, name: str,
                       records: list[dict]) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testkit.run",
        description="The testkit: differential and chaos families for "
                    "the XML→XSD→XSLT→HTTP pipeline.")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed; family F draws from RNG(F:seed:i) "
                             "at iteration i")
    parser.add_argument("--budget", type=float, default=30.0,
                        help="time budget in seconds (default 30)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="run exactly N iterations, ignoring --budget")
    parser.add_argument("--start", type=int, default=0,
                        help="first iteration index (for replaying one "
                             "failing iteration)")
    parser.add_argument("--family", action="append", choices=FAMILIES,
                        help="run this family (repeatable; default: "
                             f"{', '.join(DEFAULT_FAMILIES)})")
    parser.add_argument("--failures-dir", default="testkit-failures",
                        help="directory for JSON reproducers of failures")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write the observability trace (trace.json) "
                             "of the in-process families to PATH")
    args = parser.parse_args(argv)
    selected = args.family or DEFAULT_FAMILIES
    names = [name for name in FAMILIES if name in selected]

    started = time.monotonic()
    FAULTS.deactivate()  # a GOLDCASE_FAULTS plan would skew every oracle
    # The recorder runs only around the in-process families: while it is
    # on, every publish adds a timing page that no server oracle expects,
    # and httpd logs every request.  Fixtures start (fleets fork) with
    # it off.
    was_enabled = RECORDER.enabled
    if not was_enabled:
        RECORDER.clear()
    RECORDER.disable()
    spent = dict.fromkeys(names, 0.0)
    failures: list[dict] = []
    completed = 0
    try:
        with ExitStack() as stack:
            fixtures = {name: stack.enter_context(FAMILIES[name].fixture())
                        for name in names if FAMILIES[name].fixture}
            while True:
                if args.iterations is not None:
                    if completed >= args.iterations:
                        break
                elif completed and time.monotonic() - started >= args.budget:
                    break
                iteration = args.start + completed
                found: list[dict] = []
                for name in names:
                    RECORDER.enabled = name not in fixtures
                    began = time.monotonic()
                    found += run_family(name, args.seed, iteration,
                                        fixtures.get(name))
                    spent[name] += time.monotonic() - began
                    RECORDER.disable()
                completed += 1
                if found:
                    failures += found
                    print(f"iteration {iteration}: {len(found)} "
                          f"failure(s)", file=sys.stderr)
                    for record in found[:5]:
                        print(f"  {json.dumps(record, sort_keys=True)}",
                              file=sys.stderr)
                elif completed % 10 == 0:
                    print(f"... {completed} iterations green "
                          f"({time.monotonic() - started:.1f}s)")
            contexts = [dict(FAMILIES[name].context(fixture), family=name)
                        for name, fixture in fixtures.items()
                        if FAMILIES[name].context]
        trace = build_trace() if args.trace else None
    finally:
        RECORDER.enabled = was_enabled
    if trace is not None:
        directory = os.path.dirname(args.trace)
        if directory:
            os.makedirs(directory, exist_ok=True)
        write_trace(args.trace, trace)
        print(f"trace written to {args.trace}")

    elapsed = time.monotonic() - started
    for record in contexts:
        print(f"{record['family']}: {json.dumps(record, sort_keys=True)}")
    label = "+".join(names)
    if not failures:
        print(f"testkit: OK — {completed} iterations of {label}, "
              f"0 failures, seed {args.seed}, {elapsed:.1f}s")
        return 0
    first_bad: dict[str, int] = {}
    for record in failures:
        first_bad.setdefault(record["family"], record["iteration"])
    # Context records (not failures): where the run's time went, so a
    # red CI log shows which family blew the budget, and each server
    # fixture's own summary.
    context = [{"family": name, "check": "stage-timings",
                "total_s": round(seconds, 6)}
               for name, seconds in spent.items()] + contexts
    for record in context:
        record.update(seed=args.seed, iteration=-1)
    path = _write_reproducers(
        args.failures_dir, f"seed{args.seed}-{label}-failures.json",
        failures + context)
    print(f"testkit: FAIL — {len(failures)} failure(s) in "
          f"{', '.join(first_bad)} in {elapsed:.1f}s; reproducers: {path}")
    for name, iteration in first_bad.items():
        print(f"replay with: python -m repro.testkit.run --family {name} "
              f"--seed {args.seed} --start {iteration} --iterations 1")
    return 1


if __name__ == "__main__":
    sys.exit(main())
