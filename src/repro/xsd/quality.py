"""Schema quality checking — the stand-in for IBM's Schema Quality Checker.

The paper (§3.2) validated ``goldmodel.xsd`` itself with IBM SQC before
using it.  :func:`check_schema` performs the analogous static analysis on
our compiled schemas:

* **UPA** — Unique Particle Attribution violations in content models;
* **identity constraints** — keyrefs referring to undefined keys (a
  keyref may refer to a key or a unique), field-count mismatches
  between keyref and key;
* **attribute sanity** — defaults/fixed values that are invalid for the
  declared attribute type, duplicate attribute names on one type;
* **structure** — element declarations with neither content nor
  attributes (warning), unreachable named types (warning), duplicate
  element names inside one scope with different types (error).
"""

from __future__ import annotations

from .components import (
    AttributeDecl,
    ComplexType,
    ElementDecl,
    ModelGroup,
    Particle,
)
from .errors import ValidationReport
from .schema import Schema

__all__ = ["check_schema"]


def check_schema(schema: Schema) -> ValidationReport:
    """Statically analyse *schema*; errors make it unusable, warnings advise."""
    report = ValidationReport()
    _check_identity_constraints(schema, report)

    seen_types: set[int] = set()
    for decl in schema.iter_element_decls():
        ctype = decl.type
        if not isinstance(ctype, ComplexType) or id(ctype) in seen_types:
            continue
        seen_types.add(id(ctype))
        scope = ctype.name or f"type of element <{decl.name}>"
        _check_upa(schema, ctype, scope, report)
        _check_attributes(ctype, scope, report)
        _check_child_consistency(ctype, scope, report)
        if ctype.content is None and ctype.simple_content is None \
                and not ctype.attributes:
            report.add(
                f"{scope}: empty complex type (no content, no attributes)",
                severity="warning", code="sqc-empty-type")

    _check_unreachable_types(schema, seen_types, report)
    return report


def _check_upa(schema: Schema, ctype: ComplexType, scope: str,
               report: ValidationReport) -> None:
    automaton = schema.automaton_for(ctype)
    if automaton is None:
        return
    for name in automaton.ambiguous_transitions():
        report.add(
            f"{scope}: content model is ambiguous on element <{name}> "
            "(Unique Particle Attribution violation)",
            code="cos-nonambig")


def _check_attributes(ctype: ComplexType, scope: str,
                      report: ValidationReport) -> None:
    seen: set[str] = set()
    for decl in ctype.attributes:
        if decl.name in seen:
            report.add(
                f"{scope}: duplicate attribute declaration {decl.name!r}",
                code="ct-props-correct.4")
        seen.add(decl.name)
        for label, value in (("default", decl.default), ("fixed", decl.fixed)):
            if value is None:
                continue
            try:
                decl.type.validate(value)
            except ValueError as exc:
                report.add(
                    f"{scope}: attribute {decl.name!r} has an invalid "
                    f"{label} value {value!r}: {exc}",
                    code="a-props-correct.2")
        id_kind = getattr(decl.type, "id_kind", None)
        if id_kind == "ID" and (decl.default is not None or
                                decl.fixed is not None):
            report.add(
                f"{scope}: ID attribute {decl.name!r} must not have a "
                "default or fixed value", code="a-props-correct.3")


def _check_child_consistency(ctype: ComplexType, scope: str,
                             report: ValidationReport) -> None:
    """Element Declarations Consistent: same name → same type in one scope."""
    if ctype.content is None:
        return
    by_name: dict[str, ElementDecl] = {}
    for decl in _iter_particle_elements(ctype.content):
        existing = by_name.get(decl.name)
        if existing is not None and existing.type is not decl.type:
            report.add(
                f"{scope}: element <{decl.name}> is declared twice with "
                "different types", code="cos-element-consistent")
        by_name[decl.name] = decl


def _iter_particle_elements(particle: Particle):
    stack = [particle]
    while stack:
        current = stack.pop()
        term = current.term
        if isinstance(term, ElementDecl):
            yield term
        elif isinstance(term, ModelGroup):
            stack.extend(term.particles)


def _check_identity_constraints(schema: Schema,
                                report: ValidationReport) -> None:
    names: set[str] = set()
    constraints = list(schema.iter_identity_constraints())
    for _decl, constraint in constraints:
        if constraint.name in names:
            report.add(
                f"duplicate identity constraint name {constraint.name!r}",
                code="c-props-correct.1")
        names.add(constraint.name)
    keys = schema.referable_constraints()
    for decl, constraint in constraints:
        if constraint.kind != "keyref":
            continue
        refer = constraint.refer or ""
        if refer not in keys:
            report.add(
                f"keyref {constraint.name!r} (on element <{decl.name}>) "
                f"refers to undefined key {refer!r}",
                code="c-props-correct.2")
        elif len(keys[refer].fields) != len(constraint.fields):
            report.add(
                f"keyref {constraint.name!r} has {len(constraint.fields)} "
                f"field(s) but key {refer!r} has {len(keys[refer].fields)}",
                code="c-props-correct.2")


def _check_unreachable_types(schema: Schema, reachable_ids: set[int],
                             report: ValidationReport) -> None:
    reachable_simple: set[int] = set()
    for decl in schema.iter_element_decls():
        ctype = decl.type
        if isinstance(ctype, ComplexType):
            for attr in ctype.attributes:
                reachable_simple.add(id(attr.type))
            if ctype.simple_content is not None:
                reachable_simple.add(id(ctype.simple_content))
        elif ctype is not None:
            reachable_simple.add(id(ctype))
    for name, definition in schema.types.items():
        if isinstance(definition, ComplexType):
            if id(definition) not in reachable_ids:
                report.add(
                    f"named complex type {name!r} is never used",
                    severity="warning", code="sqc-unused-type")
        elif id(definition) not in reachable_simple:
            report.add(
                f"named simple type {name!r} is never used",
                severity="warning", code="sqc-unused-type")
