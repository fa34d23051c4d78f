"""Cache behaviour under injected rebuild failures (ISSUE 5).

The contract: a failed rebuild never poisons the cache — waiting
clients share one outcome (the same stale page, or the same error),
the degraded state is explicit (Warning header, /health 503, stats),
and the next request after the failure retries the build.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.coalesce import CacheBuildError, CacheOverloadError
from repro.faults import FAULTS, FaultPlan, injected_faults
from repro.mdm import model_to_xml, sales_model, two_facts_model
from repro.server import ModelRepositoryApp, SiteCache

SALES_XML = model_to_xml(sales_model()).encode("utf-8")
RETAIL_XML = model_to_xml(two_facts_model()).encode("utf-8")
SALES_V2 = SALES_XML.replace(b"Sales DW", b"Sales DW v2")
CLIENTS = 8


@pytest.fixture(autouse=True)
def _clean_faults():
    FAULTS.deactivate()
    yield
    FAULTS.deactivate()


@pytest.fixture()
def app():
    app = ModelRepositoryApp()
    assert app.handle("PUT", "/models/sales", {}, SALES_XML).status == 201
    return app


def _drop_index(app, name: str = "sales") -> None:
    """Strip the cached multi entry's dependency index, as if the entry
    had been adopted from the build store (which stores none)."""
    key = (name, "multi")
    app.cache._entries[key] = replace(app.cache.peek(*key), index=None)


def _hammer(app, path: str, clients: int = CLIENTS) -> list:
    barrier = threading.Barrier(clients)

    def fetch(_):
        barrier.wait()
        return app.handle("GET", path)

    with ThreadPoolExecutor(max_workers=clients) as pool:
        return list(pool.map(fetch, range(clients)))


class TestServeStale:
    def test_failed_rebuild_serves_previous_build_with_warning(self, app):
        fresh = app.handle("GET", "/site/sales/index.html")
        assert fresh.status == 200 and fresh.header("Warning") is None
        app.handle("PUT", "/models/sales", {}, SALES_V2)
        with injected_faults(FaultPlan().add("cache.rebuild")):
            stale = app.handle("GET", "/site/sales/index.html")
        assert stale.status == 200
        assert stale.body == fresh.body  # the previous build's bytes
        assert "stale" in stale.header("Warning")
        assert stale.header("X-Goldcase-Stale") == "true"
        stats = app.cache.stats()
        assert stats["stale_served"] == 1
        assert stats["build_failures"] == 1

    def test_recovery_after_faults_clear(self, app):
        app.handle("GET", "/site/sales/index.html")
        app.handle("PUT", "/models/sales", {}, SALES_V2)
        with injected_faults(FaultPlan().add("cache.rebuild")):
            app.handle("GET", "/site/sales/index.html")
        recovered = app.handle("GET", "/site/sales/index.html")
        assert recovered.status == 200
        assert recovered.header("Warning") is None
        assert b"Sales DW v2" in recovered.body
        assert app.cache.build_error("sales", "multi") is None

    def test_health_reflects_degraded_mode_and_recovery(self, app):
        app.handle("GET", "/site/sales/index.html")
        app.handle("PUT", "/models/sales", {}, SALES_V2)
        with injected_faults(FaultPlan().add("cache.rebuild")):
            degraded = app.handle("GET", "/health/sales")
        assert degraded.status == 503
        payload = degraded.json
        assert payload["stale"] is True
        assert payload["ok"] is False
        assert "FaultError" in payload["last_build_error"]
        recovered = app.handle("GET", "/health/sales")
        assert recovered.status == 200
        assert recovered.json["stale"] is False
        assert recovered.json["last_build_error"] is None

    def test_waiting_clients_all_get_the_same_stale_page(
            self, app, monkeypatch):
        """A burst against a failing rebuild: one build attempt, every
        client gets the identical stale body, nobody hangs or 500s."""
        import time

        from repro.server import cache as cache_module

        # The fake below is the *full-build* seam; drop the entry's
        # dependency index so the warm rebuild cannot route around it
        # via the diff path.
        app.handle("GET", "/site/sales/index.html")
        _drop_index(app)
        baseline = app.cache.stats()["rebuilds"]
        app.handle("PUT", "/models/sales", {}, SALES_V2)

        def slow_failing_build(record, variant):
            time.sleep(0.1)  # hold the lock so the burst really waits
            raise RuntimeError("injected build failure")

        monkeypatch.setattr(cache_module, "_build_variant",
                            slow_failing_build)
        responses = _hammer(app, "/site/sales/index.html")
        assert {r.status for r in responses} == {200}
        assert len({r.body for r in responses}) == 1
        assert all(r.header("X-Goldcase-Stale") == "true"
                   for r in responses)
        stats = app.cache.stats()
        # Failure attempts coalesce like successful builds: the waiters
        # blocked during the failed attempt share its outcome instead
        # of piling N more doomed builds onto the fault.
        assert stats["rebuilds"] - baseline == 1
        assert stats["build_failures"] == 1

    def test_instant_failures_still_serve_stale_to_every_client(self, app):
        """Even when failures are instant (no waiters to coalesce),
        every request gets the stale page, never an error or a hang."""
        app.handle("GET", "/site/sales/index.html")
        app.handle("PUT", "/models/sales", {}, SALES_V2)
        with injected_faults(FaultPlan().add("cache.rebuild")):
            responses = _hammer(app, "/site/sales/index.html")
        assert {r.status for r in responses} == {200}
        assert len({r.body for r in responses}) == 1
        assert all(r.header("X-Goldcase-Stale") == "true"
                   for r in responses)

    def test_waiter_behind_a_newer_build_builds_its_own_hash(
            self, app, monkeypatch):
        """A request that read the record just before a re-upload and
        then waited on the lock through the newer build: that build
        succeeded, so the waiter builds its own bytes instead of being
        served the newer build marked stale.  Deterministic: the newer
        build returns only once the older request has asked for the
        lock, after its attempt snapshot."""
        from repro.server import cache as cache_module

        older_record = app.store.get("sales")
        app.handle("PUT", "/models/sales", {}, SALES_V2)
        newer_record = app.store.get("sales")
        real_build = cache_module._build_variant
        model_lock = app.cache._model_lock
        waiting = threading.Event()
        results: list = []

        def tracking_model_lock(*args):
            if threading.current_thread() is older:
                waiting.set()
            return model_lock(*args)

        def gated_build(record, variant):
            if record.content_hash == newer_record.content_hash:
                older.start()
                assert waiting.wait(timeout=10)
            return real_build(record, variant)

        monkeypatch.setattr(app.cache, "_model_lock", tracking_model_lock)
        monkeypatch.setattr(cache_module, "_build_variant", gated_build)
        older = threading.Thread(target=lambda: results.append(
            app.cache.entry(older_record, "multi")))
        newer = app.cache.entry(newer_record, "multi")
        older.join(timeout=10)
        assert not older.is_alive()
        [waiter] = results
        assert newer.content_hash == newer_record.content_hash
        assert waiter.content_hash == older_record.content_hash
        stats = app.cache.stats()
        assert (stats["rebuilds"], stats["stale_served"]) == (2, 0)
        assert stats["build_failures"] == 0


class TestColdFailure:
    def test_cold_build_failure_is_a_500_not_a_poisoned_entry(self, app):
        with injected_faults(FaultPlan().add("cache.rebuild")):
            response = app.handle("GET", "/site/sales/index.html")
        assert response.status == 500
        assert response.json["kind"] == "build"
        assert app.cache.peek("sales", "multi") is None
        # Next request (faults gone) rebuilds successfully.
        assert app.handle("GET", "/site/sales/index.html").status == 200

    def test_cold_burst_shares_one_failure(self, app, monkeypatch):
        import time

        from repro.server import cache as cache_module

        def slow_failing_build(record, variant):
            time.sleep(0.1)
            raise RuntimeError("injected build failure")

        monkeypatch.setattr(cache_module, "_build_variant",
                            slow_failing_build)
        baseline = app.cache.stats()["rebuilds"]
        responses = _hammer(app, "/site/sales/index.html")
        assert {r.status for r in responses} == {500}
        assert len({r.body for r in responses}) == 1
        stats = app.cache.stats()
        assert stats["rebuilds"] - baseline == 1

    def test_direct_cache_api_raises_site_build_error(self, app):
        record = app.store.get("sales")
        with injected_faults(FaultPlan().add("cache.rebuild")):
            with pytest.raises(CacheBuildError) as excinfo:
                app.cache.entry(record, "multi")
        assert excinfo.value.name == "sales"


class TestShedding:
    def test_build_slot_exhaustion_sheds_with_retry_after(self):
        """Two models, one build slot, a slow build: the second
        distinct-model rebuild sheds 503 instead of queueing."""
        cache = SiteCache(max_concurrent_builds=1, build_wait_s=0.05)
        app = ModelRepositoryApp(cache=cache)
        app.handle("PUT", "/models/sales", {}, SALES_XML)
        app.handle("PUT", "/models/retail", {}, RETAIL_XML)

        release = threading.Event()
        entered = threading.Event()
        plan = FaultPlan().add("cache.rebuild", "delay", delay_s=1.0)
        original_sleep = FAULTS._sleep

        def gated_sleep(_seconds):
            entered.set()
            assert release.wait(timeout=10)

        FAULTS._sleep = gated_sleep
        try:
            with injected_faults(plan):
                with ThreadPoolExecutor(max_workers=2) as pool:
                    slow = pool.submit(
                        app.handle, "GET", "/site/sales/index.html")
                    assert entered.wait(timeout=10)
                    shed = pool.submit(
                        app.handle, "GET", "/site/retail/index.html")
                    response = shed.result(timeout=10)
                    assert response.status == 503
                    assert response.json["kind"] == "overload"
                    assert response.header("Retry-After") is not None
                    release.set()
                    assert slow.result(timeout=10).status == 200
        finally:
            FAULTS._sleep = original_sleep
        assert app.cache.stats()["shed"] == 1
        # After the convoy clears, the shed model builds fine.
        assert app.handle("GET", "/site/retail/index.html").status == 200

    def test_direct_cache_api_raises_overload(self):
        cache = SiteCache(max_concurrent_builds=1, build_wait_s=0.01)
        # Exhaust the only slot from this thread, then ask for a build.
        assert cache._slots.acquire(timeout=1)
        try:
            app = ModelRepositoryApp(cache=cache)
            app.handle("PUT", "/models/sales", {}, SALES_XML)
            record = app.store.get("sales")
            with pytest.raises(CacheOverloadError):
                cache.entry(record, "multi")
        finally:
            cache._slots.release()


class TestPerPageFaults:
    def test_publish_page_fault_degrades_like_rebuild_fault(self, app):
        app.handle("GET", "/site/sales/index.html")
        app.handle("PUT", "/models/sales", {}, SALES_V2)
        with injected_faults(FaultPlan().add("publish.page")):
            stale = app.handle("GET", "/site/sales/index.html")
        assert stale.status == 200
        assert stale.header("X-Goldcase-Stale") == "true"
        assert "FaultError" in app.cache.build_error("sales", "multi")

    def test_xslt_transform_fault_degrades_like_rebuild_fault(self, app):
        app.handle("GET", "/site/sales/index.html")
        app.handle("PUT", "/models/sales", {}, SALES_V2)
        with injected_faults(FaultPlan().add("xslt.transform")):
            stale = app.handle("GET", "/site/sales/index.html")
        assert stale.status == 200
        assert stale.header("X-Goldcase-Stale") == "true"


class TestIncrementalRebuild:
    """Warm "multi" rebuilds route through the diff-driven republisher
    (DESIGN.md §14); these pin its server-side contract: byte-identity
    to cold builds, serve-stale on an injected diff fault, and full
    fallback whenever the entry whose bytes would be reused carries no
    dependency index."""

    def _warm(self, app):
        assert app.handle("GET", "/site/sales/index.html").status == 200

    def test_warm_rebuild_is_incremental_and_byte_identical(self, app):
        self._warm(app)
        app.handle("PUT", "/models/sales", {}, SALES_V2)
        assert app.handle("GET", "/site/sales/index.html").status == 200
        stats = app.cache.stats()
        assert stats["incremental"] >= 1
        assert stats["incremental_fallback"] == 0

        cold = ModelRepositoryApp()
        cold.handle("PUT", "/models/sales", {}, SALES_V2)
        assert cold.handle("GET", "/site/sales/index.html").status == 200
        incremental_entry = app.cache.peek("sales", "multi")
        cold_entry = cold.cache.peek("sales", "multi")
        assert incremental_entry.pages == cold_entry.pages
        assert incremental_entry.etags == cold_entry.etags

    def test_publish_diff_fault_serves_stale_then_recovers_fresh(self, app):
        self._warm(app)
        previous = app.cache.peek("sales", "multi")
        app.handle("PUT", "/models/sales", {}, SALES_V2)
        with injected_faults(FaultPlan().add("publish.diff")):
            stale = app.handle("GET", "/site/sales/index.html")
        assert stale.status == 200
        assert stale.header("X-Goldcase-Stale") == "true"
        assert stale.body == previous.pages["index.html"]
        assert "FaultError" in app.cache.build_error("sales", "multi")
        recovered = app.handle("GET", "/site/sales/index.html")
        assert recovered.status == 200
        assert recovered.header("X-Goldcase-Stale") != "true"
        assert b"Sales DW v2" in recovered.body
        assert app.cache.build_error("sales", "multi") is None

    def test_entry_without_index_rebuilds_cold(self, app):
        """An entry adopted from the build store carries no index, so
        its successor is a cold build, never a diff against nothing."""
        self._warm(app)
        _drop_index(app)
        app.handle("PUT", "/models/sales", {}, SALES_V2)
        assert app.handle("GET", "/site/sales/index.html").status == 200
        stats = app.cache.stats()
        assert stats["incremental_fallback"] >= 1
        assert stats["incremental"] == 0

        cold = ModelRepositoryApp()
        cold.handle("PUT", "/models/sales", {}, SALES_V2)
        assert cold.handle("GET", "/site/sales/index.html").status == 200
        assert app.cache.peek("sales", "multi").pages == \
            cold.cache.peek("sales", "multi").pages

        # The fallback's entry carries its own index, so the next warm
        # rebuild goes incremental again.
        app.handle("PUT", "/models/sales", {}, SALES_XML)
        assert app.handle("GET", "/site/sales/index.html").status == 200
        assert app.cache.stats()["incremental"] >= 1

    def test_invalidate_drops_the_stored_index(self, app):
        self._warm(app)
        assert app.cache.peek("sales", "multi").index is not None
        assert app.cache.dep_index_info()["currsize"] == 1
        app.handle("DELETE", "/models/sales")
        assert app.cache.peek("sales", "multi") is None
        assert app.cache.dep_index_info()["currsize"] == 0
