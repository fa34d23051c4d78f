"""Executing cube classes against a star schema.

Implements the OLAP semantics the GOLD model prescribes:

* **dice** groups fact rows by their ancestors at the requested levels —
  following the classification DAG, so alternative paths, non-strict
  relationships (a row then contributes to *every* parent group) and
  non-complete hierarchies (rows without an ancestor fall into the
  ``None`` group) behave per §2;
* **slice** filters on fact attributes (``Fact.attr`` or just ``attr``)
  and on dimension attributes at any level
  (``Dimension.attribute`` / ``Dimension.Level.attribute``);
* **additivity rules are enforced**: aggregating a measure along a
  dimension with a function its rules forbid raises
  :class:`AdditivityError` — the machine-checkable version of the
  paper's "additive rules are defined as constraints".

Each execution first compiles the cube into a plan (per dice axis, the
coordinates of every base member; the measures; the slices), then makes
flat passes over the fact rows (DESIGN.md §16).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from operator import add

from ..mdm.cubes import CubeClass, DiceGrouping, SliceCondition
from ..mdm.enums import AggregationKind
from ..mdm.errors import ModelError, ModelReferenceError
from ..mdm.model import GoldModel
from .star import StarSchema

__all__ = ["AdditivityError", "CubeResult", "execute_cube", "CubeEngine"]


class AdditivityError(ModelError):
    """An aggregation violates a measure's additivity rules."""


@dataclass
class CubeResult:
    """The table a cube class evaluates to.

    ``group_levels`` names the dice levels (column headers);
    ``rows`` maps group-key tuples to ``{measure_name: value}``.
    """

    cube: CubeClass
    group_levels: tuple[str, ...]
    measure_names: tuple[str, ...]
    rows: dict[tuple, dict[str, object]] = field(default_factory=dict)
    #: Fact rows that were excluded by slice conditions.
    sliced_out: int = 0

    def to_rows(self) -> list[tuple]:
        """Sorted ``(group..., measure values...)`` tuples."""
        out = []
        for key in sorted(self.rows, key=_sort_key):
            values = self.rows[key]
            out.append(key + tuple(values[m] for m in self.measure_names))
        return out

    def pretty(self) -> str:
        """A fixed-width table for terminal display."""
        headers = self.group_levels + self.measure_names
        body = [tuple(str(v) for v in row) for row in self.to_rows()]
        widths = [
            max(len(h), *(len(r[i]) for r in body)) if body else len(h)
            for i, h in enumerate(headers)
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)


def _sort_key(key: tuple):
    return tuple(map(_coordinate_order, key))


def execute_cube(cube: CubeClass, star: StarSchema) -> CubeResult:
    """Evaluate *cube* against *star*; enforces additivity rules."""
    return CubeEngine(star).execute(cube)


class CubeEngine:
    """A reusable executor bound to one star schema."""

    def __init__(self, star: StarSchema) -> None:
        self.star = star
        self.model: GoldModel = star.model

    # -- entry ----------------------------------------------------------------

    def execute(self, cube: CubeClass) -> CubeResult:
        # Additivity problems get their dedicated error type; everything
        # else (dangling refs) surfaces as ModelReferenceError.
        self._check_additivity(cube)
        problems = cube.check_against(self.model)
        if problems:
            raise ModelReferenceError("; ".join(problems))

        # Compile the plan once: everything that does not depend on the
        # row, so the passes below are dict lookups and list building.
        fact = self.model.fact_class(cube.fact)
        measures = tuple(
            (fact.attribute(ref).name, cube.aggregation_for(ref))
            for ref in cube.measures)
        group_levels = tuple(
            self._level_label(d.dimension, d.level) for d in cube.dices)
        fact_conditions, dim_conditions = self._split_slices(cube, fact)
        fact_slices = [
            (fact.attribute(c.attribute.split(".")[-1]).name,
             c.operator.apply, c.value) for c in fact_conditions]
        member_slices = (self._allowed_members(dim_conditions) or {}).items()
        axes = [self._axis(dice) for dice in cube.dices]

        # Slice: fact predicates first, then member slices, each
        # evaluated only on the rows every earlier condition kept.
        rows = self.star.facts[fact.id].rows
        kept = rows
        for name, apply, value in fact_slices:
            kept = [row for row in kept
                    if apply(row.values.get(name), value)]
        for dimension_id, allowed in member_slices:
            kept = [row for row in kept
                    if _admits(row.coordinates.get(dimension_id), allowed)]

        # Dice: one column of coordinate tuples per axis.  Each tuple has
        # several entries under non-strict or many-to-many fan-out, and
        # the row joins the group of every combination.
        columns = []
        for dimension_id, plan, base in axes:
            keys = [row.coordinates.get(dimension_id) for row in kept]
            try:
                columns.append(list(map(plan.__getitem__, keys)))
            except (KeyError, TypeError):  # a key list, or an unknown key
                columns.append([_coordinates(k, plan, base) for k in keys])
        groups: dict[tuple, list[dict]] = {}
        for values, *coordinates in zip([row.values for row in kept],
                                        *columns):
            for key in product(*coordinates):
                group = groups.get(key)
                if group is None:
                    group = groups[key] = []
                group.append(values)

        result = CubeResult(cube=cube, group_levels=group_levels,
                            measure_names=tuple(n for n, _ in measures),
                            sliced_out=len(rows) - len(kept))
        for key, group in groups.items():
            result.rows[key] = {
                name: _aggregate(kind, [
                    v for values in group
                    if (v := values.get(name)) is not None])
                for name, kind in measures}
        return result

    # -- additivity ------------------------------------------------------------------

    def _check_additivity(self, cube: CubeClass) -> None:
        fact = self.model.fact_class(cube.fact)
        for dice in cube.dices:
            dimension = self.model.dimension_class(dice.dimension)
            for ref in cube.measures:
                attribute = fact.attribute(ref)
                kind = cube.aggregation_for(ref)
                if kind not in attribute.allowed_aggregations(dimension.id):
                    raise AdditivityError(
                        f"measure {attribute.name!r} may not be aggregated "
                        f"with {kind.value} along dimension "
                        f"{dimension.name!r} (additivity rule)")

    # -- grouping ---------------------------------------------------------------------

    def _level_label(self, dimension_ref: str, level_ref: str) -> str:
        dimension = self.model.dimension_class(dimension_ref)
        if level_ref in (dimension.id, dimension.name):
            return dimension.name
        return f"{dimension.name}.{dimension.level(level_ref).name}"

    def _axis(self, dice: DiceGrouping
              ) -> tuple[str, dict[object, tuple], bool]:
        """``(dimension id, base key → sorted coordinates, base grain?)``.

        Resolves each base member's ancestors at the dice level once; a
        member whose hierarchy ends early (non-complete) groups under
        ``None``.
        """
        dimension = self.model.dimension_class(dice.dimension)
        data = self.star.dimensions[dimension.id]
        return dimension.id, {
            key: tuple(sorted({a.key for a in data.ancestors_at(
                key, dice.level)}, key=_coordinate_order)) or (None,)
            for key in data.members(dimension.id)
        }, dice.level in (dimension.id, dimension.name)

    # -- slicing -----------------------------------------------------------------------

    def _split_slices(self, cube: CubeClass, fact):
        fact_conditions: list[SliceCondition] = []
        dim_conditions: list[tuple[str, str | None, str, SliceCondition]] = []
        for condition in cube.slices:
            parts = condition.attribute.split(".")
            if len(parts) == 1 or parts[0] in (fact.id, fact.name):
                fact_conditions.append(condition)
                continue
            dimension = self.model.dimension_class(parts[0])
            if len(parts) == 2:
                dim_conditions.append(
                    (dimension.id, None, parts[1], condition))
            elif len(parts) == 3:
                level = dimension.level(parts[1])
                dim_conditions.append(
                    (dimension.id, level.id, parts[2], condition))
            else:
                raise ModelReferenceError(
                    f"cannot resolve slice attribute "
                    f"{condition.attribute!r}")
        return fact_conditions, dim_conditions

    def _allowed_members(self, dim_conditions) -> dict[str, set] | None:
        """Base-level member keys allowed per dimension, or None (no slices)."""
        if not dim_conditions:
            return None
        allowed: dict[str, set] = {}
        for dimension_id, level_id, attr_name, condition in dim_conditions:
            data = self.star.dimensions[dimension_id]
            base_members = data.members(dimension_id)
            keys: set = set()
            if level_id is None:
                for key, member in base_members.items():
                    value = member.attributes.get(attr_name)
                    if condition.operator.apply(value, condition.value):
                        keys.add(key)
            else:
                # Keep base members whose ancestor at the level matches.
                for key in base_members:
                    for ancestor in data.ancestors_at(key, level_id):
                        value = ancestor.attributes.get(attr_name)
                        if condition.operator.apply(value, condition.value):
                            keys.add(key)
                            break
            if dimension_id in allowed:
                allowed[dimension_id] &= keys
            else:
                allowed[dimension_id] = keys
        return allowed


def _coordinate_order(value: object):
    return value is None, str(value)


def _coordinates(keys, plan: dict[object, tuple], base: bool) -> tuple:
    """One axis's sorted coordinates for a row's key or key list.

    A key the dimension lacks (a row appended without the integrity
    check) is its own coordinate at the base grain and ``None`` above.
    """
    if not isinstance(keys, (list, tuple)):
        return plan.get(keys) or ((keys,) if base else (None,))
    union = {value for key in keys for value in _coordinates(key, plan, base)}
    return tuple(sorted(union, key=_coordinate_order)) or (None,)


def _admits(keys, allowed: set) -> bool:
    """A row passes a member slice when any of its keys is allowed."""
    if not isinstance(keys, (list, tuple)):
        return keys is None or keys in allowed
    return not keys or any(key in allowed for key in keys)


def _aggregate(kind: AggregationKind, present: list) -> object:
    """Aggregate one group's non-``None`` measure values (row order).

    Sums are a left fold from ``0.0`` over the numbers, added one at a
    time in row order; builtin ``sum()`` is avoided because Python 3.12
    compensates float sums, which would change the answer's bits.
    """
    if kind is AggregationKind.COUNT:
        return len(present)
    if kind is AggregationKind.MIN:
        return min(present, default=None)
    if kind is AggregationKind.MAX:
        return max(present, default=None)
    total = reduce(add, [
        v for v in present
        if isinstance(v, (int, float)) and not isinstance(v, bool)], 0.0)
    if kind is AggregationKind.SUM:
        return total
    if kind is AggregationKind.AVG:
        return total / len(present) if present else math.nan
    raise AssertionError(kind)  # pragma: no cover
