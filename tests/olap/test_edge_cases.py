"""OLAP engine edge cases: incomplete hierarchies, empty data, NaN."""

import math

import pytest

from repro.mdm import (
    AggregationKind,
    CubeClass,
    DiceGrouping,
    ModelBuilder,
)
from repro.olap import StarSchema, execute_cube


def build_world(with_orphan_day=True):
    b = ModelBuilder("Edge")
    time = (b.dimension("Time", is_time=True)
            .attribute("day", oid=True).attribute("dl", descriptor=True))
    time.level("Month").attribute("m", oid=True) \
        .attribute("ml", descriptor=True).done()
    time.relate_root("Month")  # non-complete by default (§2)
    fact = b.fact("Sales").measure("qty").uses(time)
    model = b.build()

    star = StarSchema(model)
    data = star.dimension_data("Time")
    data.add_member("Month", "jan")
    data.add_member("Time", "d1", parents={"Month": "jan"})
    if with_orphan_day:
        data.add_member("Time", "orphan")  # no parent: non-complete
    return model, star, fact.fact


def month_cube(model, fact):
    time = model.dimension_class("Time")
    return CubeClass(
        id="c", name="c", fact=fact.id,
        measures=(fact.attributes[0].id,),
        aggregations=(AggregationKind.SUM,),
        dices=(DiceGrouping(time.id, time.level("Month").id),))


class TestIncompleteHierarchies:
    def test_orphan_rows_group_under_none(self):
        model, star, fact = build_world()
        star.insert_fact("Sales", {"Time": "d1"}, {"qty": 10})
        star.insert_fact("Sales", {"Time": "orphan"}, {"qty": 5})
        result = execute_cube(month_cube(model, fact), star)
        assert result.rows[("jan",)]["qty"] == 10.0
        assert result.rows[(None,)]["qty"] == 5.0

    def test_none_group_sorts_last(self):
        model, star, fact = build_world()
        star.insert_fact("Sales", {"Time": "orphan"}, {"qty": 5})
        star.insert_fact("Sales", {"Time": "d1"}, {"qty": 1})
        rows = execute_cube(month_cube(model, fact), star).to_rows()
        assert rows[-1][0] is None


class TestEmptyData:
    def test_no_rows_gives_empty_result(self):
        model, star, fact = build_world()
        result = execute_cube(month_cube(model, fact), star)
        assert result.rows == {}
        assert result.to_rows() == []

    def test_pretty_with_no_rows(self):
        model, star, fact = build_world()
        pretty = execute_cube(month_cube(model, fact), star).pretty()
        assert "Time.Month" in pretty

    def test_null_measures_skipped(self):
        model, star, fact = build_world()
        star.insert_fact("Sales", {"Time": "d1"}, {"qty": None})
        star.insert_fact("Sales", {"Time": "d1"}, {"qty": 3})
        result = execute_cube(month_cube(model, fact), star)
        assert result.rows[("jan",)]["qty"] == 3.0

    def test_avg_of_nothing_is_nan(self):
        model, star, fact = build_world()
        star.insert_fact("Sales", {"Time": "d1"}, {"qty": None})
        cube = month_cube(model, fact)
        from dataclasses import replace

        cube = replace(cube, aggregations=(AggregationKind.AVG,))
        result = execute_cube(cube, star)
        assert math.isnan(result.rows[("jan",)]["qty"])


class TestCubeWithoutAggregations:
    def test_defaults_to_sum(self):
        model, star, fact = build_world()
        star.insert_fact("Sales", {"Time": "d1"}, {"qty": 2})
        star.insert_fact("Sales", {"Time": "d1"}, {"qty": 3})
        time = model.dimension_class("Time")
        cube = CubeClass(
            id="c", name="c", fact=fact.id,
            measures=(fact.attributes[0].id,),
            dices=(DiceGrouping(time.id, time.level("Month").id),))
        result = execute_cube(cube, star)
        assert result.rows[("jan",)]["qty"] == 5.0


def base_cube(model, fact):
    time = model.dimension_class("Time")
    return CubeClass(
        id="b", name="b", fact=fact.id,
        measures=(fact.attributes[0].id,),
        aggregations=(AggregationKind.SUM,),
        dices=(DiceGrouping(time.id, time.id),))


class TestRowsAppendedWithoutTheIntegrityCheck:
    """Rows added through ``FactTable.append`` skip ``insert_fact``'s
    referential check; the engine still answers for them."""

    def append(self, model, star, fact, keys, qty):
        time = model.dimension_class("Time")
        coordinates = {} if keys is None else {time.id: keys}
        star.facts[fact.id].append(coordinates, {"qty": qty})

    def test_unknown_key_is_itself_at_base_and_none_above(self):
        model, star, fact = build_world()
        self.append(model, star, fact, "ghost", 4)
        self.append(model, star, fact, "d1", 1)
        base = execute_cube(base_cube(model, fact), star)
        assert list(base.rows) == [("ghost",), ("d1",)]
        month = execute_cube(month_cube(model, fact), star)
        assert month.rows == {(None,): {"qty": 4.0}, ("jan",): {"qty": 1.0}}

    def test_row_without_a_key_groups_under_none(self):
        model, star, fact = build_world()
        self.append(model, star, fact, None, 2)
        self.append(model, star, fact, [], 3)
        for cube in (base_cube(model, fact), month_cube(model, fact)):
            assert execute_cube(cube, star).rows == {(None,): {"qty": 5.0}}

    def test_key_list_takes_the_union_of_its_coordinates(self):
        model, star, fact = build_world()
        self.append(model, star, fact, ["orphan", "d1", "ghost"], 7)
        month = execute_cube(month_cube(model, fact), star)
        assert list(month.rows) == [("jan",), (None,)]
        base = execute_cube(base_cube(model, fact), star)
        assert list(base.rows) == [("d1",), ("ghost",), ("orphan",)]
        assert all(v == {"qty": 7.0} for v in base.rows.values())
