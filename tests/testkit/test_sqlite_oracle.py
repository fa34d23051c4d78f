"""The cube engine against the independent sqlite3 oracle."""

from __future__ import annotations

import random

import pytest

from repro.mdm import sales_model
from repro.olap import CubeEngine, DimensionData
from repro.olap.service import (
    DatasetConfig,
    parse_query,
    resolve_query,
    synthesize_star,
)
from repro.olap.service.query import QuerySpec
from repro.testkit.differential import (
    OLAP_DATASET,
    cube_differential,
    olap_differential,
)
from repro.testkit.generators import random_model
from repro.testkit.sqloracle import SqlOracle

MODEL = sales_model()


@pytest.fixture(scope="module")
def star():
    return synthesize_star(MODEL, "oracle", 3, DatasetConfig(**OLAP_DATASET))


def spec(**params) -> QuerySpec:
    return resolve_query(parse_query(dict(params, fact="Sales")), MODEL)


def fed_rows(answer) -> int:
    """Fact rows fed into groups, from a COUNT measure (the first)."""
    return sum(values[0] for values in answer.rows.values())


def kept_rows(star, answer) -> int:
    return len(star.fact_table("Sales").rows) - answer.sliced_out


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_engine_agrees_with_the_oracle(seed):
    rng = random.Random(f"sqlite-oracle:{seed}")
    failures = olap_differential(random_model(rng), rng)
    failures += olap_differential(MODEL, rng)
    assert failures == []


#: Queries whose answers show each shape the oracle must reproduce.
SHAPES = {
    # Week -> Year is non-strict: a row feeds several Year groups.
    "non-strict fan-out": dict(measure="qty:COUNT", dice="Time@Year"),
    # A ticket line may reference several products.
    "many-to-many": dict(measure="qty:COUNT", dice="Product"),
    "non-complete": dict(measure="qty:COUNT,total:SUM",
                         dice="Time@Week,Store@City"),
    "fact slice": dict(measure="qty:COUNT,total:AVG", dice="Store@Country",
                       slice="qty GT 50"),
    "dimension slice": dict(measure="qty:COUNT,total:MAX",
                            dice="Product@Family",
                            slice="Product.price LT 500"),
    "level slice": dict(measure="qty:COUNT,total:MIN", dice="Time@Month",
                        slice='Time.Year.year_number GET 300'),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_oracle_reproduces_each_shape(star, shape):
    query = spec(**SHAPES[shape])
    answer = SqlOracle(star).answer(query)
    assert answer.rows
    assert cube_differential(star, [query]) == []
    if shape in ("non-strict fan-out", "many-to-many"):
        assert fed_rows(answer) > kept_rows(star, answer)
    if shape == "non-complete":
        assert any(None in key for key in answer.rows)
    if "slice" in shape:
        assert 0 < answer.sliced_out < len(star.fact_table("Sales").rows)


def test_additivity_rejection_is_checked(star):
    # Inventory may not be summed along Time (§2 additivity rule).
    time = MODEL.dimension_class("Time")
    inventory = MODEL.fact_class("Sales").attribute("inventory")
    query = QuerySpec(fact=MODEL.fact_class("Sales").id,
                      measures=((inventory.id, "SUM"),),
                      dices=((time.id, time.id),))
    assert SqlOracle(star).rejects(query)
    assert cube_differential(star, [query]) == []


def test_oracle_never_walks_the_hierarchy_in_python(star, monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("the oracle called ancestors_at")

    monkeypatch.setattr(DimensionData, "ancestors_at", forbidden)
    oracle = SqlOracle(star)
    answer = oracle.answer(spec(**SHAPES["level slice"]))
    assert answer.rows


def test_oracle_catches_a_wrong_answer(star, monkeypatch):
    """Not vacuous: an engine that drops the None group is reported."""
    query = spec(**SHAPES["non-complete"])
    execute = CubeEngine.execute

    def lossy(self, cube):
        result = execute(self, cube)
        result.rows = {k: v for k, v in result.rows.items() if None not in k}
        return result

    monkeypatch.setattr(CubeEngine, "execute", lossy)
    failures = cube_differential(star, [query])
    assert [f["problem"] for f in failures] == ["group keys"]
