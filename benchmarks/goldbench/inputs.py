"""Seeded input generators: the model, page streams, edits, OLAP queries.

Everything the server receives is generated here from ``--seed``, so the
same seed always sends the same bytes and the same request sequence.
Nothing here touches the network or the clock.
"""

from __future__ import annotations

import dataclasses
import random
import re
from urllib.parse import urlencode

from repro.mdm import model_to_xml, synthetic_model
from repro.mdm.model import GoldModel
from repro.olap.service import parse_query, resolve_query

from loadgen import Zipf

#: The large model is the benchmark's subject (163 KB of XML, 314
#: pages); the medium one keeps ``--smoke`` under a few seconds a run.
SIZES = {
    "large": dict(facts=20, dimensions=25, levels_per_dimension=5,
                  measures_per_fact=8),
    "medium": dict(facts=5, dimensions=10, levels_per_dimension=4,
                   measures_per_fact=6),
}

#: The name the model is stored under on the server.
MODEL_NAME = "gold"

#: Share of browse reads sent as conditional GETs (If-None-Match -> 304).
CONDITIONAL_SHARE = 0.10

#: One fresh OLAP query per this many requests (20% fresh, 80% repeats).
FRESH_EVERY = 5

EDIT_KINDS = ("fact_attribute", "dimension_attribute", "level_name")

_SUFFIX = re.compile(r" e\d+$")
_NUMBER = re.compile(r"\d+")


def model_xml(size: str) -> bytes:
    """The synthetic model the server is loaded with, as upload bytes."""
    return model_to_xml(synthetic_model(**SIZES[size])).encode("utf-8")


# -- page reads --------------------------------------------------------------


def page_kind(page: str) -> str:
    """The page's name with its numbers taken out (``f#.html`` for
    every fact page); pages of one kind cost about the same to serve."""
    return _NUMBER.sub("#", page)


def popularity(pages: list[str], seed: int) -> list[str]:
    """*pages*, most popular first.

    The order is stratified by :func:`page_kind`: the kind of page at
    each rank is the same for every seed, and the seed picks which page
    of that kind holds the rank.  So seeds differ in which pages they
    read, not in how much a read costs (a fact page is 20 times the
    bytes of an additivity page).
    """
    layout = sorted(pages)
    random.Random("goldbench:popularity").shuffle(layout)
    by_kind: dict[str, list[str]] = {}
    for page in sorted(pages):
        by_kind.setdefault(page_kind(page), []).append(page)
    rng = random.Random(f"goldbench:popularity:{seed}")
    for group in by_kind.values():
        rng.shuffle(group)
    return [by_kind[page_kind(page)].pop() for page in layout]


def page_stream(pages: list[str], seed: int, stream: int):
    """Endless ``(page, conditional)`` reads: seeded Zipf over the
    :func:`popularity` order, which every stream shares; each stream
    draws from it with its own generator."""
    order = popularity(pages, seed)
    rng = random.Random(f"goldbench:pages:{seed}:{stream}")
    zipf = Zipf(len(order), rng)
    while True:
        page = order[zipf()]
        yield page, rng.random() < CONDITIONAL_SHARE


# -- edits -------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Edit:
    """One single-element edit and the model version it produces."""

    kind: str
    target: str
    model: GoldModel


def _renamed(name: str, step: int) -> str:
    return f"{_SUFFIX.sub('', name)} e{step}"


def _replace_at(items: list, index: int, item) -> list:
    return items[:index] + [item] + items[index + 1:]


def edit_script(model: GoldModel, seed: int, count: int) -> list[Edit]:
    """*count* chained single-element renames, cycling over the kinds.

    Each edit copies only the path to the renamed element (the rest of
    the model is shared with the previous version, never mutated), so
    every version stays a distinct object the incremental publisher can
    diff against its predecessor.
    """
    rng = random.Random(f"goldbench:edits:{seed}")
    edits: list[Edit] = []
    current = model
    for step in range(1, count + 1):
        kind = EDIT_KINDS[(step - 1) % len(EDIT_KINDS)]
        if kind == "fact_attribute":
            f = rng.randrange(len(current.facts))
            fact = current.facts[f]
            a = rng.randrange(len(fact.attributes))
            attribute = fact.attributes[a]
            target = f"{fact.id}/{attribute.id}"
            fact = dataclasses.replace(fact, attributes=_replace_at(
                fact.attributes, a, dataclasses.replace(
                    attribute, name=_renamed(attribute.name, step))))
            current = dataclasses.replace(
                current, facts=_replace_at(current.facts, f, fact))
        else:
            d = rng.randrange(len(current.dimensions))
            dimension = current.dimensions[d]
            if kind == "dimension_attribute":
                a = rng.randrange(len(dimension.attributes))
                attribute = dimension.attributes[a]
                target = f"{dimension.id}/{attribute.id}"
                dimension = dataclasses.replace(
                    dimension, attributes=_replace_at(
                        dimension.attributes, a, dataclasses.replace(
                            attribute, name=_renamed(attribute.name, step))))
            else:
                lv = rng.randrange(len(dimension.levels))
                level = dimension.levels[lv]
                target = f"{dimension.id}/{level.id}"
                dimension = dataclasses.replace(
                    dimension, levels=_replace_at(
                        dimension.levels, lv, dataclasses.replace(
                            level, name=_renamed(level.name, step))))
            current = dataclasses.replace(
                current, dimensions=_replace_at(current.dimensions, d,
                                                dimension))
        edits.append(Edit(kind, target, current))
    return edits


# -- OLAP queries ------------------------------------------------------------


def query_path(params: dict) -> str:
    return f"/olap/{MODEL_NAME}/query?{urlencode(params, doseq=True)}"


def as_url_params(params: dict) -> dict:
    """*params* in the list-valued shape the server parses URLs into."""
    return {key: value if isinstance(value, list) else [value]
            for key, value in params.items()}


def query_key(params: dict, model: GoldModel) -> str:
    """The server's canonical cache key; raises QueryError if invalid."""
    return resolve_query(parse_query(as_url_params(params)),
                         model).query_key()


def setup_query(model: GoldModel) -> dict:
    """The query whose first execution builds the OLAP dataset."""
    fact = model.facts[0]
    measure = next(a for a in fact.attributes if not a.is_oid)
    return {"fact": fact.id, "measure": f"{measure.id}:COUNT",
            "dice": fact.dimension_ids[0], "seed": "0"}


@dataclasses.dataclass(frozen=True)
class Shape:
    """What sets the size of a query's result: which dice axes stay at
    the base grain (every synthetic level has the same member count,
    the base grain has more), how many measures, and the slice."""

    base: tuple[bool, ...]
    measures: int
    slice: tuple[str, int] | None


def query_shapes(count: int) -> list[Shape]:
    """*count* shapes, the same for every seed: dice axis counts cycle 1,
    2, 3; one axis in six stays at the base grain; one or two measures;
    a slice on half of them.  A seed changes which fact, dimensions,
    levels and measures a query names, not how large its result is, so
    the seeds' runs measure the same mix of small and large results."""
    rng = random.Random("goldbench:olap:shapes")
    return [Shape(base=tuple(rng.random() < 1 / 6 for _ in range(1 + n % 3)),
                  measures=rng.choice((1, 2)),
                  slice=(rng.choice(("GT", "LT")), rng.choice((25, 50, 75)))
                  if rng.random() < 0.5 else None)
            for n in range(count)]


def _fresh_query(model: GoldModel, rng: random.Random, shape: Shape
                 ) -> dict:
    fact = rng.choice(model.facts)
    dims = rng.sample(fact.dimension_ids, len(shape.base))
    dice = []
    for dimension_id, base in zip(dims, shape.base):
        levels = [level.id for level in
                  model.dimension_class(dimension_id).levels]
        dice.append(dimension_id if base
                    else f"{dimension_id}@{rng.choice(levels)}")
    candidates = [a for a in fact.attributes if not a.is_oid]
    measures = []
    for attribute in rng.sample(candidates, shape.measures):
        allowed = set.intersection(*(attribute.allowed_aggregations(d)
                                     for d in dims))
        aggregation = rng.choice(sorted(kind.value for kind in allowed))
        measures.append(f"{attribute.id}:{aggregation}")
    params = {"fact": fact.id, "measure": ",".join(measures),
              "dice": ",".join(dice), "seed": "0"}
    if shape.slice is not None:
        operator, threshold = shape.slice
        params["slice"] = [f"{rng.choice(candidates).id} {operator} "
                           f"{threshold}"]
    return params


def fresh_queries(model: GoldModel, seed: int, count: int) -> list[dict]:
    """The analyze workload's *count* distinct valid fresh queries, one
    per :func:`query_shapes` shape.

    The fact, dimensions, levels, measures, additivity-legal
    aggregations and the slice attribute are drawn from the seed.  The
    setup query is never among them.
    """
    rng = random.Random(f"goldbench:olap:analyze:{seed}")
    seen = {query_key(setup_query(model), model)}
    out: list[dict] = []
    for shape in query_shapes(count):
        while True:
            params = _fresh_query(model, rng, shape)
            key = query_key(params, model)
            if key not in seen:
                seen.add(key)
                out.append(params)
                break
    return out


def analyze_streams(fresh: list[dict], seed: int, streams: int = 2
                    ) -> list[list[tuple[str, int]]]:
    """Per-connection ``(kind, fresh index)`` request sequences.

    Fresh queries are dealt round-robin, so the connections never send
    the same fresh query; every :data:`FRESH_EVERY`-th request is fresh
    and the rest repeat (Zipf, oldest first) one of the same
    connection's earlier fresh queries, which the closed loop has
    already seen materialized, so a repeat is always a cache hit.
    """
    out = []
    for stream in range(streams):
        rng = random.Random(f"goldbench:repeats:{seed}:{stream}")
        mine = list(range(stream, len(fresh), streams))
        zipf = Zipf(len(mine), rng)
        ops: list[tuple[str, int]] = []
        issued = 0
        for position in range(len(mine) * FRESH_EVERY):
            if position % FRESH_EVERY == 0:
                ops.append(("fresh", mine[issued]))
                issued += 1
            else:
                rank = zipf()
                while rank >= issued:
                    rank = zipf()
                ops.append(("repeat", mine[rank]))
        out.append(ops)
    return out
