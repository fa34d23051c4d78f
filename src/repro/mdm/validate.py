"""Semantic validation of GOLD models.

These checks enforce the constraints §2 states informally and §3.1
encodes in the XML Schema:

* identifiers are globally unique (``xsd:ID``);
* shared aggregations and additivity rules reference existing dimension
  classes (the ``dimclassKey`` keyrefs);
* additivity rules name dimensions the fact actually shares (stronger
  than the schema can express — the CASE-tool layer of checking);
* every classification hierarchy is a **DAG rooted in the dimension
  class** ({dag}), checked with :mod:`graphlib`;
* every level has exactly one identifying ({OID}) and at most one
  descriptor ({D}) attribute; a missing descriptor is a warning because
  OLAP export needs it (§2);
* cube classes reference existing facts, measures, dimensions, levels,
  and respect additivity rules.
"""

from __future__ import annotations

from collections import deque
from graphlib import CycleError, TopologicalSorter

from ..xsd.errors import ValidationReport
from .dimensions import DimensionClass
from .model import GoldModel

__all__ = ["validate_model"]


def validate_model(model: GoldModel) -> ValidationReport:
    """Run every semantic check; returns a report of errors and warnings."""
    report = ValidationReport()
    _check_unique_ids(model, report)
    _check_fact_references(model, report)
    for dimension in model.dimensions:
        _check_hierarchy_dag(dimension, report)
        _check_level_attributes(dimension, report)
    _check_cubes(model, report)
    return report


def _check_unique_ids(model: GoldModel, report: ValidationReport) -> None:
    seen: set[str] = set()
    for identifier in model.all_ids():
        if identifier in seen:
            report.add(f"duplicate identifier {identifier!r}",
                       code="mdm-unique-id")
        seen.add(identifier)


def _check_fact_references(model: GoldModel,
                           report: ValidationReport) -> None:
    dimension_ids = {d.id for d in model.dimensions}
    for fact in model.facts:
        shared: set[str] = set()
        for aggregation in fact.aggregations:
            if aggregation.dimension not in dimension_ids:
                report.add(
                    f"fact {fact.name!r}: shared aggregation references "
                    f"unknown dimension {aggregation.dimension!r}",
                    path=fact.id, code="mdm-dangling-dimension")
            if aggregation.dimension in shared:
                report.add(
                    f"fact {fact.name!r}: duplicate shared aggregation to "
                    f"dimension {aggregation.dimension!r}",
                    path=fact.id, code="mdm-duplicate-aggregation")
            shared.add(aggregation.dimension)
        for attribute in fact.attributes:
            for rule in attribute.additivity:
                if rule.dimension not in dimension_ids:
                    report.add(
                        f"fact {fact.name!r}: additivity rule of "
                        f"{attribute.name!r} references unknown dimension "
                        f"{rule.dimension!r}",
                        path=fact.id, code="mdm-dangling-dimension")
                elif rule.dimension not in shared:
                    report.add(
                        f"fact {fact.name!r}: additivity rule of "
                        f"{attribute.name!r} names dimension "
                        f"{rule.dimension!r} the fact does not share",
                        path=fact.id, code="mdm-additivity-scope")
        if fact.is_factless:
            report.add(
                f"fact {fact.name!r} has no attributes (fact-less fact "
                "table)", path=fact.id, severity="warning",
                code="mdm-factless")


def _check_hierarchy_dag(dimension: DimensionClass,
                         report: ValidationReport) -> None:
    known = {dimension.id} | {
        level.id for level in dimension.iter_levels()}
    targets: dict[str, list[str]] = {}
    for source, target, _relation in dimension.hierarchy_edges():
        if target not in known:
            report.add(
                f"dimension {dimension.name!r}: relation from {source!r} "
                f"references unknown level {target!r}",
                path=dimension.id, code="mdm-dangling-level")
            continue
        targets.setdefault(source, []).append(target)

    # TopologicalSorter takes node → predecessors; its CycleError lists
    # one cycle in edge order, first node repeated at the end.
    sources: dict[str, set[str]] = {}
    for source, outgoing in targets.items():
        for target in outgoing:
            sources.setdefault(target, set()).add(source)
    try:
        TopologicalSorter(sources).prepare()
    except CycleError as error:
        shown = " -> ".join(error.args[1][:-1])
        report.add(
            f"dimension {dimension.name!r}: classification hierarchy has a "
            f"cycle ({shown}) — the {{dag}} constraint is violated",
            path=dimension.id, code="mdm-dag")
        return

    # Rooted: every level reachable from the dimension class.
    reachable = {dimension.id}
    queue = deque(reachable)
    while queue:
        for target in targets.get(queue.popleft(), ()):
            if target not in reachable:
                reachable.add(target)
                queue.append(target)
    for level in dimension.iter_levels():
        if level.id not in reachable and \
                level not in dimension.categorization_levels:
            report.add(
                f"dimension {dimension.name!r}: level {level.name!r} is "
                "not reachable from the dimension class (the DAG must be "
                "rooted in the dimension class)",
                path=dimension.id, code="mdm-dag-root")


def _check_level_attributes(dimension: DimensionClass,
                            report: ValidationReport) -> None:
    carriers = [(dimension.name, dimension.attributes)] + [
        (level.name, level.attributes) for level in dimension.levels]
    for name, attributes in carriers:
        oids = [a for a in attributes if a.is_oid]
        descriptors = [a for a in attributes if a.is_descriptor]
        if not oids:
            report.add(
                f"dimension {dimension.name!r}: {name!r} has no "
                "identifying {OID} attribute (required for OLAP export)",
                path=dimension.id, code="mdm-oid")
        elif len(oids) > 1:
            report.add(
                f"dimension {dimension.name!r}: {name!r} has "
                f"{len(oids)} {{OID}} attributes; exactly one is required",
                path=dimension.id, code="mdm-oid")
        if not descriptors:
            report.add(
                f"dimension {dimension.name!r}: {name!r} has no "
                "descriptor {D} attribute",
                path=dimension.id, severity="warning", code="mdm-descriptor")
        elif len(descriptors) > 1:
            report.add(
                f"dimension {dimension.name!r}: {name!r} has "
                f"{len(descriptors)} {{D}} attributes; at most one is "
                "expected", path=dimension.id, code="mdm-descriptor")


def _check_cubes(model: GoldModel, report: ValidationReport) -> None:
    for cube in model.cubes:
        for problem in cube.check_against(model):
            report.add(problem, path=cube.id, code="mdm-cube")
