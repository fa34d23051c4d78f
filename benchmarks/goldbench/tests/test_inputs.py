"""Generators: deterministic per seed, different across seeds, valid."""

import itertools

import pytest

import inputs
from repro.mdm import xml_to_model
from repro.olap.service import parse_query, resolve_query


@pytest.fixture(scope="module")
def model():
    return xml_to_model(inputs.model_xml("large"))


def _take(stream, n=300):
    return list(itertools.islice(stream, n))


def test_page_stream_is_seeded(model):
    pages = [f"p{i}.html" for i in range(50)]
    first = _take(inputs.page_stream(pages, 0, 0))
    assert first == _take(inputs.page_stream(pages, 0, 0))
    assert first != _take(inputs.page_stream(pages, 1, 0))
    assert first != _take(inputs.page_stream(pages, 0, 1))
    conditional = sum(1 for _, cond in first if cond) / len(first)
    assert 0.03 < conditional < 0.2


def test_popularity_keeps_the_kind_at_each_rank_across_seeds():
    pages = ([f"f{i}.html" for i in range(20)]
             + [f"l{i}.html" for i in range(120)] + ["index.html"])
    orders = [inputs.popularity(pages, seed) for seed in range(4)]
    for order in orders:
        assert sorted(order) == sorted(pages)
    kinds = [[inputs.page_kind(page) for page in order] for order in orders]
    assert all(k == kinds[0] for k in kinds)
    assert len({tuple(order) for order in orders}) == len(orders)


def test_edit_script_is_seeded_and_chained(model):
    edits = inputs.edit_script(model, 0, 9)
    again = inputs.edit_script(model, 0, 9)
    other = inputs.edit_script(model, 1, 9)
    assert [e.target for e in edits] == [e.target for e in again]
    assert [e.target for e in edits] != [e.target for e in other]
    assert [e.kind for e in edits[:3]] == list(inputs.EDIT_KINDS)
    previous = model
    for edit in edits:
        assert edit.model != previous
        previous = edit.model
    # Versions are copies: the original model is untouched.
    assert model == xml_to_model(inputs.model_xml("large"))


def _keys(queries, model):
    keys = set()
    for params in queries:
        # resolve_query enforces references and additivity (422 class).
        spec = resolve_query(parse_query(inputs.as_url_params(params)),
                             model)
        keys.add(spec.query_key())
    assert len(keys) == len(queries)
    assert inputs.query_key(inputs.setup_query(model), model) not in keys
    return keys


def test_fresh_queries_are_seeded_distinct_and_valid(model):
    queries = inputs.fresh_queries(model, 0, 120)
    assert queries == inputs.fresh_queries(model, 0, 120)
    assert queries != inputs.fresh_queries(model, 1, 120)
    _keys(queries, model)
    axes = [len(q["dice"].split(",")) for q in queries]
    assert axes.count(1) == axes.count(2) == axes.count(3) == 40


def _shape(params):
    return ([("@" in axis) for axis in params["dice"].split(",")],
            len(params["measure"].split(",")),
            params.get("slice", [" "])[0].split(" ")[1:])


def test_fresh_queries_have_the_same_shapes_on_every_seed(model):
    shapes = [[_shape(q) for q in inputs.fresh_queries(model, seed, 60)]
              for seed in (0, 1, 2)]
    assert shapes[0] == shapes[1] == shapes[2]
    bases = [at_level for axes, _, _ in shapes[0] for at_level in axes]
    assert 0 < bases.count(False) < bases.count(True)
    assert {measures for _, measures, _ in shapes[0]} == {1, 2}


def test_analyze_streams_split_fresh_and_repeat_only_own(model):
    fresh = inputs.fresh_queries(model, 0, 40)
    streams = inputs.analyze_streams(fresh, 0)
    assert streams == inputs.analyze_streams(fresh, 0)
    assert streams != inputs.analyze_streams(fresh, 1)
    own = [set(), set()]
    for s, stream in enumerate(streams):
        seen = set()
        for position, (kind, index) in enumerate(stream):
            assert index % 2 == s
            if position % inputs.FRESH_EVERY == 0:
                assert kind == "fresh" and index not in seen
                seen.add(index)
            else:
                assert kind == "repeat" and index in seen
        own[s] = seen
    assert not own[0] & own[1]
    assert len(own[0]) + len(own[1]) == len(fresh)
