"""Differential conformance tooling for the paper's pipeline.

Three layers (see DESIGN.md §9):

* :mod:`repro.testkit.reference` — deliberately naive, cache-free
  oracles for document order, namespace resolution, XPath evaluation
  and template dispatch; :mod:`repro.testkit.sqloracle` answers OLAP
  queries in sqlite3, independently of the cube engine;
* :mod:`repro.testkit.generators` / :mod:`repro.testkit.strategies` —
  seed-replayable random workloads (GOLD models, DOM mutation scripts,
  XPath expressions) and their Hypothesis wrappers;
* :mod:`repro.testkit.differential` / :mod:`repro.testkit.pipeline` —
  the comparisons themselves, plus the end-to-end model pipeline
  harness, with a CLI entry point in :mod:`repro.testkit.run`::

      python -m repro.testkit.run --seed 0 --budget 30
"""

from .differential import (
    check_document,
    dispatch_differential,
    namespace_mismatches,
    order_key_mismatches,
    run_mutation_differential,
    warm_caches,
    xpath_differential,
)
from .generators import (
    apply_mutation,
    random_document,
    random_model,
    random_mutations,
    random_xpath,
)
from .pipeline import PipelineFailure, PipelineReport, run_pipeline
from .reference import (
    ReferenceXPathEvaluator,
    reference_evaluate,
    reference_find_rule,
    reference_lookup_namespace,
    reference_order_key,
    reference_sort,
    template_dispatch_disagreements,
)

__all__ = [
    "reference_order_key",
    "reference_sort",
    "reference_lookup_namespace",
    "ReferenceXPathEvaluator",
    "reference_evaluate",
    "reference_find_rule",
    "template_dispatch_disagreements",
    "random_model",
    "random_document",
    "random_mutations",
    "apply_mutation",
    "random_xpath",
    "order_key_mismatches",
    "namespace_mismatches",
    "check_document",
    "warm_caches",
    "run_mutation_differential",
    "xpath_differential",
    "dispatch_differential",
    "PipelineFailure",
    "PipelineReport",
    "run_pipeline",
]
