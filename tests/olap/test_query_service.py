"""OLAP query service: canonical specs, synthetic data, aggregate cache.

Covers the three pillars of the service subsystem:

* the declarative query layer — parse → resolve is a *fixed point* over
  :meth:`QuerySpec.to_params` (property-based), diagnostics follow the
  store's issue shape;
* deterministic synthetic datasets per (content hash, seed, config);
* the materialized-aggregate cache — differential against a direct
  engine execution, coalescing bursts, failure degradation, sheds;
* the XML view of a stored result — rendered from the JSON on the
  first XML request, once per entry, and never by an execution.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.coalesce import CacheBuildError, CacheOverloadError
from repro.faults import FaultPlan, injected_faults
from repro.mdm import sales_model
from repro.olap import CubeEngine, populate_star, star_data_sql
from repro.olap.service import (
    AggregateCache,
    DatasetConfig,
    OlapService,
    QueryError,
    QueryRenderError,
    parse_query,
    resolve_query,
    synthesize_star,
)
from repro.olap.service.render import (
    render_json,
    render_xml,
    result_etag,
    result_payload,
)
from repro.server.buildstore import ARTIFACT_VERSION, BuildStore

MODEL = sales_model()
SMALL = DatasetConfig(members_per_level=3, rows_per_fact=60)


def resolve(params: dict):
    return resolve_query(parse_query(params), MODEL)


# ---------------------------------------------------------------------------
# Canonical query layer


#: (measure ref, aggregations that are additivity-safe along any
#: dimension of the sales model — inventory may not be summed over Time).
MEASURES = {
    "qty": ("SUM", "AVG", "MIN", "MAX", "COUNT"),
    "total": ("SUM", "AVG", "MIN", "MAX", "COUNT"),
    "inventory": ("AVG", "MIN", "MAX"),
}

DICES = {
    "Time": (None, "Month", "Week", "Year"),
    "Store": (None, "City", "Province", "Country"),
    "Product": (None, "Family", "Group"),
}

SLICE_ATTRIBUTES = ("Product.product_name", "Store.City.city_name",
                    "Time.is_holiday", "Sales.qty")

slice_values = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    st.text(max_size=12),
)


@st.composite
def query_params(draw):
    measures = draw(st.lists(
        st.sampled_from(sorted(MEASURES)), min_size=1, max_size=3,
        unique=True))
    rendered = ",".join(
        f"{m}:{draw(st.sampled_from(MEASURES[m]))}" for m in measures)
    params: dict[str, object] = {"fact": "Sales", "measure": rendered,
                                 "seed": str(draw(st.integers(0, 5)))}
    dices = draw(st.lists(st.sampled_from(sorted(DICES)), max_size=3,
                          unique=True))
    if dices:
        params["dice"] = ",".join(
            d if (level := draw(st.sampled_from(DICES[d]))) is None
            else f"{d}@{level}" for d in dices)
    slices = draw(st.lists(
        st.tuples(st.sampled_from(SLICE_ATTRIBUTES),
                  st.sampled_from(["EQ", "NOTEQ", "GT", "LT"]),
                  slice_values),
        max_size=3))
    if slices:
        params["slice"] = [f"{attr} {op} {json.dumps(value)}"
                           for attr, op, value in slices]
    return params


class TestCanonicalFixedPoint:
    @settings(max_examples=60, deadline=None)
    @given(query_params())
    def test_parse_resolve_is_fixed_point_of_to_params(self, params):
        spec = resolve(params)
        again = resolve(spec.to_params())
        assert again == spec
        assert again.query_key() == spec.query_key()

    @settings(max_examples=30, deadline=None)
    @given(query_params())
    def test_canonical_dict_is_a_fixed_point_too(self, params):
        """The POST body shape round-trips to the identical spec."""
        spec = resolve(params)
        assert resolve(spec.canonical_dict()) == spec

    def test_slice_order_does_not_change_the_key(self):
        one = resolve({"fact": "Sales", "measure": "qty:SUM",
                       "slice": ['Product.product_name EQ "a"',
                                 'Store.City.city_name EQ "b"']})
        two = resolve({"fact": "Sales", "measure": "qty:SUM",
                       "slice": ['Store.City.city_name EQ "b"',
                                 'Product.product_name EQ "a"']})
        assert one == two
        assert one.query_key() == two.query_key()

    def test_dice_order_is_presentation_and_changes_the_key(self):
        one = resolve({"fact": "Sales", "measure": "qty:SUM",
                       "dice": "Time@Month,Store@City"})
        two = resolve({"fact": "Sales", "measure": "qty:SUM",
                       "dice": "Store@City,Time@Month"})
        assert one.query_key() != two.query_key()

    def test_cube_expansion_matches_the_ad_hoc_form(self):
        from_cube = resolve({"cube": "c46-dice-slice"})
        ad_hoc = resolve({
            "fact": "Sales", "measure": "qty:SUM,total:SUM",
            "dice": "Time@Month,Store@City",
            "slice": ['Product.product_name NOTEQ "unknown"']})
        assert from_cube == ad_hoc


class TestDiagnostics:
    def test_unknown_fact_is_a_reference_issue(self):
        with pytest.raises(QueryError) as excinfo:
            resolve({"fact": "Nope", "measure": "qty:SUM"})
        assert excinfo.value.kind == "reference"
        assert excinfo.value.issues[0]["path"] == "/query/fact"

    def test_every_dangling_reference_is_collected(self):
        with pytest.raises(QueryError) as excinfo:
            resolve({"fact": "Sales", "measure": "bogus:SUM",
                     "dice": "Nowhere@X"})
        paths = [issue["path"] for issue in excinfo.value.issues]
        assert "/query/measures/0" in paths
        assert "/query/dice/0/dimension" in paths

    def test_additivity_violation_names_the_measure_position(self):
        with pytest.raises(QueryError) as excinfo:
            resolve({"fact": "Sales", "measure": "qty:SUM,inventory:SUM",
                     "dice": "Time@Month"})
        assert excinfo.value.kind == "additivity"
        issue = excinfo.value.issues[0]
        assert issue["path"] == "/query/measures/1/aggregation"
        assert "additivity rule" in issue["message"]
        assert issue["line"] is None  # store-shaped: position is a path

    def test_unknown_parameter_is_a_form_error(self):
        with pytest.raises(QueryError) as excinfo:
            parse_query({"fact": "Sales", "measure": "qty", "mesure": "x"})
        assert excinfo.value.kind == "form"


# ---------------------------------------------------------------------------
# Synthetic datasets


class TestSyntheticDatasets:
    def test_deterministic_per_hash_and_seed(self):
        one = synthesize_star(MODEL, "h1", 3, SMALL)
        two = synthesize_star(MODEL, "h1", 3, SMALL)
        assert star_data_sql(one) == star_data_sql(two)

    def test_seed_and_content_hash_both_matter(self):
        base = star_data_sql(synthesize_star(MODEL, "h1", 3, SMALL))
        assert star_data_sql(
            synthesize_star(MODEL, "h1", 4, SMALL)) != base
        assert star_data_sql(
            synthesize_star(MODEL, "h2", 3, SMALL)) != base

    def test_non_complete_rate_leaves_hierarchy_gaps(self):
        """Members may roll up to nothing along non-complete relations."""
        star = populate_star(MODEL, members_per_level=4, rows_per_fact=10,
                             seed=2, non_complete_rate=1.0)
        time = MODEL.dimension_class("Time")
        week = time.level("Week").id
        data = star.dimensions[time.id]
        gaps = [key for key in data.members(time.id)
                if not data.ancestors_at(key, week)]
        # Time→Week is non-complete: at rate 1.0 every link is dropped.
        assert len(gaps) == len(data.members(time.id))
        # Time→Month is declared complete, so it is never broken.
        month = time.level("Month").id
        assert all(data.ancestors_at(key, month)
                   for key in data.members(time.id))

    def test_zero_rate_is_byte_identical_to_legacy_loader(self):
        legacy = star_data_sql(populate_star(
            MODEL, members_per_level=4, rows_per_fact=10, seed=2))
        explicit = star_data_sql(populate_star(
            MODEL, members_per_level=4, rows_per_fact=10, seed=2,
            non_complete_rate=0.0))
        assert legacy == explicit


# ---------------------------------------------------------------------------
# Materialized aggregates: differential, coalescing, degradation


QUERY = {"fact": "Sales", "measure": "qty:SUM,total:AVG",
         "dice": "Time@Month,Store@City",
         "slice": ['Product.product_name NOTEQ "unknown"'], "seed": "1"}


#: One query per dice of the sales model's levels (48 distinct keys).
DICE_QUERIES = [
    {"fact": "Sales", "measure": "qty:SUM", "seed": "1",
     **({"dice": ",".join(dice)} if dice else {})}
    for dice in (
        [f"{dim}@{level}" for dim, level in zip(DICES, levels) if level]
        for levels in itertools.product(*DICES.values()))]


class TestDifferential:
    def test_cached_result_matches_direct_engine_execution(self):
        """The tentpole's correctness bar: caching never changes values."""
        service = OlapService(dataset=SMALL)
        spec = resolve(QUERY)
        entry, outcome = service.execute("m", "h1", MODEL, spec)
        assert outcome == "executed"
        payload = json.loads(entry.renderings["json"])

        star = synthesize_star(MODEL, "h1", spec.seed, SMALL)
        direct = CubeEngine(star).execute(spec.to_cube(MODEL))
        assert payload["rows"] == [list(row) for row in direct.to_rows()]
        assert payload["row_count"] == len(direct.rows)
        assert payload["sliced_out"] == direct.sliced_out
        assert payload["query_key"] == spec.query_key()

    def test_hit_returns_the_same_bytes(self):
        service = OlapService(dataset=SMALL)
        spec = resolve(QUERY)
        first, _ = service.execute("m", "h1", MODEL, spec)
        second, outcome = service.execute("m", "h1", MODEL, spec)
        assert outcome == "hit"
        assert second.renderings == first.renderings
        assert second.etags == first.etags


def stub_entry(content_hash: str, tag: str):
    """The cache reads ``.content_hash`` (freshness) and ``.renderings``
    (resident-byte accounting); anything else rides along."""
    import types

    return types.SimpleNamespace(content_hash=content_hash, tag=tag,
                                 renderings={"json": tag.encode("ascii")})


class TestAggregateCacheConcurrency:
    def test_identical_query_burst_runs_exactly_one_execution(self):
        cache = AggregateCache()
        executions = []
        release = threading.Event()

        def execute():
            executions.append(threading.get_ident())
            release.wait(timeout=10)
            return stub_entry("h1", "entry")

        outcomes: list[str] = []
        barrier = threading.Barrier(16, action=lambda: threading.Timer(
            0.05, release.set).start())

        def query():
            barrier.wait()
            entry, outcome = cache.entry("m", "h1", 1, "k", execute)
            outcomes.append(outcome)

        threads = [threading.Thread(target=query) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(executions) == 1
        assert len(outcomes) == 16
        assert outcomes.count("executed") == 1
        assert set(outcomes) <= {"executed", "coalesced", "hit"}

    def test_failure_serves_stale_then_recovers(self):
        cache = AggregateCache()
        cache.entry("m", "h1", 1, "k", lambda: stub_entry("h1", "old"))

        def boom():
            raise RuntimeError("engine exploded")

        entry, outcome = cache.entry("m", "h2", 1, "k", boom)
        assert outcome == "stale"
        assert entry.tag == "old"
        # The failure never poisons the key: the next attempt executes.
        entry, outcome = cache.entry(
            "m", "h2", 1, "k", lambda: stub_entry("h2", "new"))
        assert (entry.tag, outcome) == ("new", "executed")

    @staticmethod
    def _older_request_behind(cache: AggregateCache, newer_execute):
        """Run a request for hash h1 (it read the record before a
        re-upload) that takes its token snapshot while a request for h2
        is executing, and blocks on the key lock until that finishes.

        Returns the h2 request's result (or exception) and the h1
        request's.  Deterministic: the h2 execution returns only once
        the h1 request has asked for the key lock.
        """
        key_lock = cache._key_lock
        waiting = threading.Event()
        results: list = []

        def tracking_key_lock(key):
            if threading.current_thread() is older:
                waiting.set()
            return key_lock(key)

        def older_request():
            try:
                results.append(cache.entry(
                    "m", "h1", 1, "k", lambda: stub_entry("h1", "old")))
            except CacheBuildError as exc:
                results.append(exc)

        def newer():
            older.start()
            assert waiting.wait(timeout=10)
            return newer_execute()

        cache._key_lock = tracking_key_lock
        older = threading.Thread(target=older_request)
        try:
            newer_result = cache.entry("m", "h2", 1, "k", newer)
        except CacheBuildError as exc:
            newer_result = exc
        older.join(timeout=10)
        assert not older.is_alive()
        [older_result] = results
        return newer_result, older_result

    def test_waiter_behind_a_newer_success_runs_its_own_query(self):
        """That success is no failure: the waiter executes its own
        hash instead of answering "stale" with the newer entry."""
        cache = AggregateCache()
        newer, older = self._older_request_behind(
            cache, lambda: stub_entry("h2", "new"))
        assert (newer[0].tag, newer[1]) == ("new", "executed")
        assert (older[0].tag, older[1]) == ("old", "executed")
        stats = cache.stats()
        assert (stats["executions"], stats["stale_served"]) == (2, 0)

    def test_waiter_behind_a_failure_shares_it(self):
        cache = AggregateCache()

        def boom():
            raise RuntimeError("engine exploded")

        newer, older = self._older_request_behind(cache, boom)
        assert isinstance(newer, CacheBuildError)
        assert isinstance(older, CacheBuildError)
        assert "engine exploded" in str(older)
        stats = cache.stats()
        assert (stats["executions"], stats["failures"]) == (1, 1)

    def test_failure_with_no_prior_entry_raises(self):
        cache = AggregateCache()

        def boom():
            raise RuntimeError("cold failure")

        with pytest.raises(CacheBuildError) as excinfo:
            cache.entry("m", "h1", 1, "k", boom)
        assert "cold failure" in str(excinfo.value)

    def test_overload_sheds_with_retry_after(self):
        cache = AggregateCache(max_concurrent_executions=1,
                               execute_wait_s=0.05)
        started = threading.Event()
        release = threading.Event()

        def slow():
            started.set()
            release.wait(timeout=10)
            return stub_entry("h1", "slow")

        holder = threading.Thread(
            target=lambda: cache.entry("m", "h1", 1, "k1", slow))
        holder.start()
        try:
            assert started.wait(timeout=10)
            with pytest.raises(CacheOverloadError) as excinfo:
                cache.entry("m", "h1", 1, "k2",
                            lambda: stub_entry("h1", "fast"))
            assert excinfo.value.retry_after_s >= 1
        finally:
            release.set()
            holder.join(timeout=10)

    def test_stats_tolerates_a_view_added_while_it_sums(self):
        """A first XML request may add to an entry's renderings while
        stats() sums their sizes; here it does so the moment stats()
        takes the JSON's length."""
        cache = AggregateCache()
        entry, _ = cache.entry("m", "h1", 1, "k",
                               lambda: stub_entry("h1", "x"))

        class AddsTheView(bytes):
            def __len__(self) -> int:
                entry.renderings.setdefault("xml", b"<x/>")
                return bytes.__len__(self)

        entry.renderings["json"] = AddsTheView(b"{}")
        assert cache.stats()["resident_bytes"] == 2
        assert cache.stats()["resident_bytes"] == 6

    def test_invalidate_drops_only_that_model(self):
        cache = AggregateCache()
        cache.entry("a", "h1", 1, "k", lambda: stub_entry("h1", "x"))
        cache.entry("b", "h1", 1, "k", lambda: stub_entry("h1", "y"))
        assert cache.invalidate("a") == 1
        assert cache.stats()["entries"] == 1

    @staticmethod
    def _invalidate_during_execution(key_of_m, request_after: bool):
        """Invalidate model "m" while an execution of *key_of_m* is in
        flight; with *request_after*, the invalidating thread then
        requests that key again.

        Returns what ``invalidate`` returned and the most executions of
        the key that ever ran at once.
        """
        started, release = threading.Event(), threading.Event()
        lock = threading.Lock()
        running, most = [0], [0]
        removed: list[int] = []

        def execute(wait: bool):
            def run():
                with lock:
                    running[0] += 1
                    most[0] = max(most[0], running[0])
                if wait:
                    started.set()
                    assert release.wait(timeout=10)
                with lock:
                    running[0] -= 1
                return stub_entry("h1", "x")
            return run

        def invalidate():
            removed.append(key_of_m.invalidate())
            if request_after:
                key_of_m.request(execute(False))

        executing = threading.Thread(
            target=lambda: key_of_m.request(execute(True)))
        executing.start()
        assert started.wait(timeout=10)
        invalidating = threading.Thread(target=invalidate)
        invalidating.start()
        # Time for an invalidate that does not wait to act.
        invalidating.join(timeout=0.2)
        release.set()
        for thread in (executing, invalidating):
            thread.join(timeout=10)
            assert not thread.is_alive()
        return removed, most[0]

    def test_invalidate_waits_out_the_execution_in_flight(self, key_of_m):
        """The execution does not store its entry after the drop."""
        removed, _ = self._invalidate_during_execution(
            key_of_m, request_after=False)
        assert removed == [1]
        assert key_of_m.entries() == 0

    def test_request_after_invalidate_never_executes_beside_one(
            self, key_of_m):
        _, most_at_once = self._invalidate_during_execution(
            key_of_m, request_after=True)
        assert most_at_once == 1


@pytest.fixture(params=["aggregates", "datasets"])
def key_of_m(request, monkeypatch):
    """One key of model "m": an aggregate of an :class:`AggregateCache`,
    or a dataset of an :class:`OlapService`.

    ``request(run)`` asks for the key with ``run`` as its execution (for
    a dataset, its generation), ``invalidate()`` drops model "m", and
    ``entries()`` counts what that cache holds.
    """
    import types

    if request.param == "aggregates":
        cache = AggregateCache()
        return types.SimpleNamespace(
            request=lambda run: cache.entry("m", "h1", 1, "k", run),
            invalidate=lambda: cache.invalidate("m"),
            entries=lambda: cache.stats()["entries"])
    service = OlapService(dataset=SMALL)
    runs = threading.local()
    monkeypatch.setattr("repro.olap.service.service.synthesize_star",
                        lambda *args: runs.run())

    def generate(run):
        runs.run = run
        service.star_for("m", "h1", MODEL, 1)

    return types.SimpleNamespace(
        request=generate, invalidate=lambda: service.invalidate("m"),
        entries=lambda: service.dataset_info()["currsize"])


class TestFaultPoints:
    def test_execute_fault_degrades_warm_queries_to_stale(self):
        service = OlapService(dataset=SMALL)
        spec = resolve({"fact": "Sales", "measure": "qty:SUM", "seed": "1"})
        fresh, _ = service.execute("m", "h1", MODEL, spec)
        with injected_faults(FaultPlan().add("olap.execute")):
            entry, outcome = service.execute("m", "h2", MODEL, spec)
        assert outcome == "stale"
        assert entry.content_hash == "h1"
        assert entry.renderings == fresh.renderings

    def test_generate_fault_surfaces_cold_as_execution_error(self):
        service = OlapService(dataset=SMALL)
        spec = resolve({"fact": "Sales", "measure": "qty:SUM", "seed": "7"})
        with injected_faults(FaultPlan().add("olap.generate")):
            with pytest.raises(CacheBuildError):
                service.execute("m", "h1", MODEL, spec)
        # Recovery: the same query executes cleanly once faults lift.
        entry, outcome = service.execute("m", "h1", MODEL, spec)
        assert outcome == "executed"
        assert entry.row_count >= 0


# ---------------------------------------------------------------------------
# The XML view: derived from the stored JSON on the first XML request


def offline_payload(content_hash: str, spec) -> dict:
    """The result payload of *spec*, executed without the service."""
    star = synthesize_star(MODEL, content_hash, spec.seed, SMALL)
    result = CubeEngine(star).execute(spec.to_cube(MODEL))
    return result_payload(MODEL, content_hash, spec, result,
                          dataset=star.summary())


class TestXmlView:
    def test_execution_stores_only_the_json(self, xml_renders):
        service = OlapService(dataset=SMALL)
        spec = resolve(QUERY)
        entry, outcome = service.execute("m", "h1", MODEL, spec)
        assert outcome == "executed"
        assert set(entry.renderings) == set(entry.etags) == {"json"}
        assert xml_renders == []
        payload = offline_payload("h1", spec)
        assert service.rendering(entry, "json") == (
            render_json(payload), result_etag(render_json(payload)))
        assert xml_renders == []

    def test_xml_renders_from_the_json_once_and_is_kept(self, xml_renders):
        service = OlapService(dataset=SMALL)
        spec = resolve(QUERY)
        entry, _ = service.execute("m", "h1", MODEL, spec)
        expected = render_xml(offline_payload("h1", spec))
        assert service.rendering(entry, "xml") == (
            expected, result_etag(expected))
        again, outcome = service.execute("m", "h1", MODEL, spec)
        assert outcome == "hit" and again is entry
        assert service.rendering(again, "xml")[0] == expected
        assert len(xml_renders) == 1
        assert entry.renderings["xml"] == expected

    def test_sixteen_concurrent_cold_xml_requests_render_once(
            self, xml_renders):
        service = OlapService(dataset=SMALL)
        spec = resolve(QUERY)
        barrier = threading.Barrier(16)
        results: list = [None] * 16

        def ask(slot: int) -> None:
            barrier.wait()
            entry, _ = service.execute("m", "h1", MODEL, spec)
            results[slot] = service.rendering(entry, "xml")

        threads = [threading.Thread(target=ask, args=(slot,))
                   for slot in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert service.cache.stats()["executions"] == 1
        assert len(xml_renders) == 1
        assert None not in results and len(set(results)) == 1
        data, etag = results[0]
        assert data == render_xml(offline_payload("h1", spec))
        assert etag == result_etag(data)

    @pytest.mark.parametrize("seed", ["1", "2", "3"])
    def test_stats_while_sixteen_threads_render_xml(self, seed):
        """The resident-byte count reads every entry's renderings while
        first XML requests add to them, and never trips over one.
        Three seeds, because the race shows only in some runs;
        ``test_stats_tolerates_a_view_added_while_it_sums`` forces it."""
        service = OlapService(dataset=SMALL)
        entries = [service.execute("m", "h1", MODEL,
                                   resolve({**params, "seed": seed}))[0]
                   for params in DICE_QUERIES]
        errors: list = []

        def render(mine) -> None:
            try:
                for entry in mine:
                    service.rendering(entry, "xml")
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=render,
                                    args=(entries[slot::16],))
                   for slot in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30
            while any(thread.is_alive() for thread in threads) and \
                    time.monotonic() < deadline:
                service.cache.stats()
        finally:
            sys.setswitchinterval(interval)
            for thread in threads:
                thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert service.cache.stats()["resident_bytes"] == sum(
            len(entry.renderings["json"]) + len(entry.renderings["xml"])
            for entry in entries)

    def test_failed_rendering_stores_nothing_and_the_next_retries(
            self, xml_renders):
        service = OlapService(dataset=SMALL)
        spec = resolve(QUERY)
        entry, _ = service.execute("m", "h1", MODEL, spec)
        json_bytes = entry.renderings["json"]
        before = service.cache.stats()
        with injected_faults(FaultPlan().add("xslt.transform")):
            with pytest.raises(QueryRenderError) as excinfo:
                service.rendering(entry, "xml")
            # A JSON request runs no XSLT: the fault cannot touch it.
            assert service.rendering(entry, "json")[0] == json_bytes
        assert "XML rendering failed" in str(excinfo.value)
        assert set(entry.renderings) == set(entry.etags) == {"json"}
        assert entry.renderings["json"] == json_bytes
        assert service.cache.stats() == before
        data, _ = service.rendering(entry, "xml")
        assert data == render_xml(offline_payload("h1", spec))
        assert len(xml_renders) == 2

    def test_stale_entry_serves_the_xml_of_its_own_json(self):
        service = OlapService(dataset=SMALL)
        spec = resolve({"fact": "Sales", "measure": "qty:SUM", "seed": "1"})
        service.execute("m", "h1", MODEL, spec)
        with injected_faults(FaultPlan().add("olap.execute")):
            entry, outcome = service.execute("m", "h2", MODEL, spec)
            assert outcome == "stale"
            data, _ = service.rendering(entry, "xml")
        assert data == render_xml(offline_payload("h1", spec))

    def test_entry_loaded_from_the_build_store_serves_identical_xml(
            self, xml_renders):
        spec = resolve(QUERY)
        with tempfile.TemporaryDirectory() as root:
            writer = OlapService(dataset=SMALL, buildstore=BuildStore(root))
            fresh, outcome = writer.execute("m", "h1", MODEL, spec)
            assert outcome == "executed"
            reader = OlapService(dataset=SMALL, buildstore=BuildStore(root))
            loaded, outcome = reader.execute("other", "h1", MODEL, spec)
            assert outcome == "hit"
            assert reader.cache.stats()["disk_hits"] == 1
            assert set(loaded.renderings) == {"json"}
            assert reader.rendering(loaded, "xml") == \
                writer.rendering(fresh, "xml")
        assert len(xml_renders) == 2

    def test_artifact_holding_both_formats_still_loads(self):
        """An artifact written when every execution rendered both
        formats loads as its JSON; the XML is derived as usual."""
        spec = resolve(QUERY)
        payload = offline_payload("h1", spec)
        json_bytes, xml_bytes = render_json(payload), render_xml(payload)
        with tempfile.TemporaryDirectory() as root:
            store = BuildStore(root)
            artifact = {
                "version": ARTIFACT_VERSION, "kind": "aggregate",
                "content_hash": "h1", "seed": spec.seed,
                "query_key": spec.query_key(),
                "renderings": {"json": json_bytes.decode("utf-8"),
                               "xml": xml_bytes.decode("utf-8")},
                "etags": {"json": result_etag(json_bytes),
                          "xml": result_etag(xml_bytes)},
                "row_count": payload["row_count"],
                "sliced_out": payload["sliced_out"],
            }
            path = store._agg_path("h1", spec.seed, spec.query_key())
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(artifact, handle)
            service = OlapService(dataset=SMALL, buildstore=store)
            entry, outcome = service.execute("m", "h1", MODEL, spec)
        assert outcome == "hit"
        assert service.cache.stats()["executions"] == 0
        assert service.rendering(entry, "json") == (
            json_bytes, result_etag(json_bytes))
        assert service.rendering(entry, "xml") == (
            xml_bytes, result_etag(xml_bytes))
