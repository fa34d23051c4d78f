"""Rebuild coalescing: one transform per invalidation, any client count."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.mdm import model_to_xml, sales_model, two_facts_model
from repro.server import ModelRepositoryApp
from repro.server import cache as cache_module

SALES_XML = model_to_xml(sales_model()).encode("utf-8")
RETAIL_XML = model_to_xml(two_facts_model()).encode("utf-8")
CLIENTS = 12


@pytest.fixture()
def app():
    app = ModelRepositoryApp()
    app.handle("PUT", "/models/sales", {}, SALES_XML)
    return app


def _hammer(app, path: str, clients: int = CLIENTS) -> list:
    """*clients* threads request *path* simultaneously (barrier start)."""
    barrier = threading.Barrier(clients)

    def fetch(_):
        barrier.wait()
        return app.handle("GET", path)

    with ThreadPoolExecutor(max_workers=clients) as pool:
        return list(pool.map(fetch, range(clients)))


class TestCoalescing:
    def test_cold_burst_builds_exactly_once(self, app, monkeypatch):
        """Slowed build + simultaneous clients: the lock coalesces all."""
        real_build = cache_module._build_variant
        calls = []

        def slow_build(record, variant):
            calls.append(variant)
            entry = real_build(record, variant)
            import time
            time.sleep(0.05)  # widen the window a racy cache would lose
            return entry

        monkeypatch.setattr(cache_module, "_build_variant", slow_build)
        responses = _hammer(app, "/site/sales/index.html")
        assert all(r.status == 200 for r in responses)
        assert calls == ["multi"]
        stats = app.cache.stats()
        assert stats["rebuilds"] == 1
        assert stats["coalesced"] + stats["hits"] == CLIENTS - 1

    def test_all_coalesced_responses_are_byte_identical(self, app):
        responses = _hammer(app, "/site/sales/index.html")
        bodies = {r.body for r in responses}
        etags = {r.header("ETag") for r in responses}
        assert len(bodies) == 1 and len(etags) == 1

    def test_one_rebuild_per_invalidation(self, app):
        app.handle("GET", "/site/sales/index.html")  # warm
        changed = SALES_XML.replace(b"Sales DW", b"Sales DW rev2")
        app.handle("PUT", "/models/sales", {}, changed)
        _hammer(app, "/site/sales/index.html")
        assert app.cache.stats()["rebuilds"] == 2  # initial + one more

    def test_distinct_models_use_distinct_locks(self, app):
        app.handle("PUT", "/models/retail", {}, RETAIL_XML)
        lock_sales = app.cache._key_lock(("sales", "multi"))
        lock_retail = app.cache._key_lock(("retail", "multi"))
        assert lock_sales is not lock_retail
        assert app.cache._key_lock(("sales", "multi")) is lock_sales

    def test_distinct_models_build_concurrently(self, app, monkeypatch):
        """While one model's build sleeps, the other's completes."""
        app.handle("PUT", "/models/retail", {}, RETAIL_XML)
        real_build = cache_module._build_variant
        started = threading.Event()
        release = threading.Event()

        def gated_build(record, variant):
            if record.name == "sales":
                started.set()
                assert release.wait(timeout=10)
            return real_build(record, variant)

        monkeypatch.setattr(cache_module, "_build_variant", gated_build)
        with ThreadPoolExecutor(max_workers=2) as pool:
            slow = pool.submit(app.handle, "GET", "/site/sales/")
            assert started.wait(timeout=10)
            fast = pool.submit(app.handle, "GET", "/site/retail/")
            assert fast.result(timeout=10).status == 200  # not blocked
            release.set()
            assert slow.result(timeout=10).status == 200


def _not_modified(app) -> int:
    return app.handle("GET", "/stats").json["requests"]["not_modified"]


class TestObsCounters:
    def test_counters_prove_coalescing(self, app):
        """The acceptance-criteria signal: the cache's stats record
        exactly one rebuild for a burst of concurrent clients."""
        before, requests_before = app.cache.stats(), app.request_count()
        _hammer(app, "/site/sales/index.html")
        after, requests_after = app.cache.stats(), app.request_count()
        assert after["rebuilds"] - before["rebuilds"] == 1
        assert requests_after - requests_before == CLIENTS
        served_without_build = (after["hits"] - before["hits"]
                                + after["coalesced"] - before["coalesced"])
        assert served_without_build == CLIENTS - 1

    def test_not_modified_counter(self, app):
        etag = app.handle("GET", "/site/sales/index.html").header("ETag")
        before = _not_modified(app)
        app.handle("GET", "/site/sales/index.html",
                   {"If-None-Match": etag})
        assert _not_modified(app) - before == 1
