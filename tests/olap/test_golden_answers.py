"""Byte-identical regression check for OLAP query answers.

``golden_olap_answers.json`` pins the SHA-256 of :func:`render_json`
for a fixed set of canonical queries over the sales model's synthetic
dataset (one fixed :class:`DatasetConfig`, dataset seeds 0 and 1).  The
queries cover one to three dice axes, the base grain (including the
many-to-many Product dimension), every level, fact, dimension and level
slices, and all five aggregation functions.  The digests were captured
from the row-at-a-time engine; any change to the groups, their order,
``sliced_out`` or a single float bit changes a digest.

Regenerate (only after an *intentional* answer change) with::

    PYTHONPATH=src python tests/olap/test_golden_answers.py --regenerate
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random

import pytest

from repro.mdm import sales_model
from repro.olap import CubeEngine
from repro.olap.service import (
    DatasetConfig,
    parse_query,
    resolve_query,
    synthesize_star,
)
from repro.olap.service.render import render_json, result_payload

GOLDEN_PATH = os.path.join(os.path.dirname(__file__),
                           "golden_olap_answers.json")

MODEL = sales_model()
CONFIG = DatasetConfig(members_per_level=6, rows_per_fact=800)
CONTENT_HASH = "golden-sales"
QUERY_COUNT = 72

AGGREGATIONS = ("SUM", "COUNT", "MIN", "MAX", "AVG")
MEASURES = ("qty", "total", "inventory", "num_ticket")
DIMENSIONS = {
    "Time": ("Month", "Week", "Year"),
    "Product": ("Family", "Group", "PerishableProduct"),
    "Store": ("City", "Province", "Country"),
}
SLICES = {
    "fact": [
        "qty GT 50", "Sales.total LET 40", "inventory NOTEQ 0",
        "num_ticket IN [12.5, 99.0]",
    ],
    "dimension": [
        "Product.price GT 500", 'Store.store_name NOTIN ["Store 1"]',
        'Product.product_name NOTEQ "unknown"',
        'Time.is_holiday LIKE "Time 1%"',
    ],
    "level": [
        'Store.City.city_name EQ "City 2"', "Time.Year.year_number LT 500",
        'Product.Family.family_name IN ["Family 1", "Family 4"]',
        'Store.Country.country_name NOTLIKE "%3"',
        "Time.Week.week_number GET 300",
    ],
}


def _aggregation(measure: str, dices: list[str], preferred: str) -> str:
    """*preferred*, unless the additivity rules forbid it on *dices*."""
    attribute = MODEL.fact_class("Sales").attribute(measure)
    allowed = set.intersection(*(
        {kind.value for kind in attribute.allowed_aggregations(
            MODEL.dimension_class(name).id)} for name in dices))
    return preferred if preferred in allowed else sorted(allowed)[0]


def generate_queries(count: int = QUERY_COUNT) -> list[dict]:
    """*count* distinct canonical queries (``QuerySpec.canonical_dict``)."""
    rng = random.Random("golden-olap-answers")
    out: list[dict] = []
    seen: set[str] = set()
    index = 0
    while len(out) < count:
        axes = 1 + index % 3
        names = rng.sample(sorted(DIMENSIONS), axes)
        dice = []
        for name in names:
            level = rng.choice((None,) + DIMENSIONS[name])
            dice.append(name if level is None else f"{name}@{level}")
        measures = []
        for j, measure in enumerate(rng.sample(MEASURES, 1 + index % 3)):
            preferred = AGGREGATIONS[(index + j) % len(AGGREGATIONS)]
            measures.append(
                f"{measure}:{_aggregation(measure, names, preferred)}")
        params: dict = {"fact": "Sales", "measure": ",".join(measures),
                        "dice": ",".join(dice), "seed": str(index % 2)}
        kinds = [None, "fact", "dimension", "level"][index % 4]
        if kinds is not None:
            params["slice"] = [rng.choice(SLICES[kinds])]
            if index % 5 == 0:
                params["slice"].append(rng.choice(SLICES["level"]))
        index += 1
        spec = resolve_query(parse_query(params), MODEL)
        if spec.query_key() in seen:
            continue
        seen.add(spec.query_key())
        out.append(spec.canonical_dict())
    return out


@functools.lru_cache(maxsize=None)
def dataset(seed: int):
    return synthesize_star(MODEL, CONTENT_HASH, seed, CONFIG)


def answer_digest(query: dict) -> str:
    """SHA-256 of the JSON answer to canonical *query*."""
    spec = resolve_query(parse_query(query), MODEL)
    star = dataset(spec.seed)
    result = CubeEngine(star).execute(spec.to_cube(MODEL))
    payload = result_payload(MODEL, CONTENT_HASH, spec, result,
                             dataset=star.summary())
    return hashlib.sha256(render_json(payload)).hexdigest()


def _golden() -> list[dict]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


GOLDEN = _golden() if os.path.exists(GOLDEN_PATH) else []


@pytest.mark.parametrize("index", range(len(GOLDEN)))
def test_answer_is_byte_identical(index):
    entry = GOLDEN[index]
    assert answer_digest(entry["query"]) == entry["sha256"], (
        f"answer changed for {json.dumps(entry['query'], sort_keys=True)}")


def test_golden_queries_cover_the_engine():
    """The pinned set keeps its coverage: at least 60 queries, 1-3 dice
    axes, the base grain of every dimension, every aggregation, and
    fact, dimension and level slices."""
    queries = [entry["query"] for entry in GOLDEN]
    assert len(queries) >= 60
    assert {len(q["dice"]) for q in queries} == {1, 2, 3}
    base = {d["dimension"] for q in queries for d in q["dice"]
            if d["dimension"] == d["level"]}
    assert base == {MODEL.dimension_class(n).id for n in DIMENSIONS}
    assert {m["aggregation"] for q in queries
            for m in q["measures"]} == set(AGGREGATIONS)
    slice_shapes = {len(s["attribute"].split(".")) for q in queries
                    for s in q["slice"]}
    assert slice_shapes == {2, 3}
    fact_id = MODEL.fact_class("Sales").id
    assert any(s["attribute"].startswith(fact_id + ".")
               for q in queries for s in q["slice"])


def test_generator_reproduces_the_pinned_queries():
    assert generate_queries() == [entry["query"] for entry in GOLDEN]


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--regenerate", action="store_true",
                        help="rewrite golden_olap_answers.json from the "
                             "current engine")
    if parser.parse_args().regenerate:
        golden = [{"query": query, "sha256": answer_digest(query)}
                  for query in generate_queries()]
        with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
            json.dump(golden, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(golden)} digests to {GOLDEN_PATH}")
