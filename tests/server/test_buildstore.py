"""The on-disk build store: content addressing, locks, shared models.

ISSUE 10's correctness core: an artifact is a pure function of the
model's content hash, so (1) reopening the store — a respawned worker,
a restarted supervisor — yields byte-identical pages and ETags without
re-rendering, (2) a *different process* building the same bytes yields
the same artifact, and (3) concurrent writers of one key, across any
mix of threads and processes, execute exactly one build (the
cross-process extension of the PR 4 coalescing contract).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
import threading

from hypothesis import given, settings

from repro.mdm import model_to_xml, sales_model, two_facts_model
from repro.server import BuildStore, SharedModelStore, SiteCache
from repro.server.cache import _build_variant
from repro.testkit.strategies import gold_models

_MODELS = gold_models(max_facts=2, max_dimensions=2, max_levels=2)
_CTX = multiprocessing.get_context("fork")


def _xml(model) -> bytes:
    return model_to_xml(model).encode("utf-8")


def _publish(root: str, xml_bytes: bytes, name: str = "m"):
    """PUT + build one model through a store-backed cache."""
    store = BuildStore(root)
    models = SharedModelStore(store)
    record, _ = models.put(name, xml_bytes)
    cache = SiteCache(buildstore=store)
    entry = cache.entry(record, "multi")
    return store, models, record, cache, entry


# -- same hash ⇒ same artifact, across reopen ------------------------------


@settings(max_examples=5, deadline=None)
@given(_MODELS)
def test_reopened_store_serves_identical_bytes_without_rebuilding(model):
    """A fresh process reopening the store (a respawned worker) gets
    byte-identical pages and ETags from disk — zero transforms run."""
    xml_bytes = _xml(model)
    with tempfile.TemporaryDirectory() as root:
        _, _, record, first_cache, built = _publish(root, xml_bytes)
        assert first_cache.stats()["rebuilds"] == 1

        # "Reopen": brand-new store/model-store/cache objects over the
        # same directory, as a respawned worker would construct.
        reopened = BuildStore(root)
        models = SharedModelStore(reopened)
        revived = models.get("m")
        assert revived is not None
        assert revived.content_hash == record.content_hash
        assert revived.xml_bytes == xml_bytes
        warm_cache = SiteCache(buildstore=reopened)
        warm = warm_cache.entry(revived, "multi")
        assert warm.pages == built.pages
        assert warm.etags == built.etags
        assert warm.messages == built.messages
        stats = warm_cache.stats()
        assert stats["rebuilds"] == 0
        assert stats["disk_hits"] == 1


@settings(max_examples=5, deadline=None)
@given(_MODELS)
def test_artifact_name_rebinding_shares_bytes_across_model_names(model):
    """Two models holding identical bytes share one artifact: the
    second name's build is a disk hit, rebound to its own name and
    revision, with every page byte and ETag identical."""
    xml_bytes = _xml(model)
    with tempfile.TemporaryDirectory() as root:
        store, models, _, cache, first = _publish(root, xml_bytes, "alpha")
        record_b, _ = models.put("beta", xml_bytes)
        second = cache.entry(record_b, "multi")
        assert second.name == "beta"
        assert cache.stats()["rebuilds"] == 1  # only alpha's build ran
        assert second.pages == first.pages
        assert second.etags == first.etags


@settings(max_examples=5, deadline=None)
@given(_MODELS)
def test_corrupt_artifact_degrades_to_rebuild(model):
    """A torn or garbage artifact is a miss, never an exception: the
    cache rebuilds and re-publishes a good artifact over it."""
    xml_bytes = _xml(model)
    with tempfile.TemporaryDirectory() as root:
        store, models, record, _, built = _publish(root, xml_bytes)
        path = store._site_path(record.content_hash, "multi")
        with open(path, "wb") as handle:
            handle.write(b"{not json")
        cache = SiteCache(buildstore=BuildStore(root))
        entry = cache.entry(record, "multi")
        assert entry.pages == built.pages
        assert cache.stats()["rebuilds"] == 1
        with open(path, "rb") as handle:
            assert json.loads(handle.read())["kind"] == "site"


def test_adopted_entry_rebuilds_cold_once_then_incrementally():
    """The build store keeps no dependency index, so an entry adopted
    from a peer's artifact has none: its successor is a tracked cold
    build, counted once as ``incremental_fallback``, and the entry that
    build makes carries an index, so the next rebuild is incremental.
    Every rebuild is byte-identical to an offline build."""
    from repro.testkit.generators import apply_model_edit

    v1 = sales_model()
    v2, _ = apply_model_edit(v1, ("describe", 1, 1, 0))
    v3, _ = apply_model_edit(v2, ("describe", 2, 2, 0))
    with tempfile.TemporaryDirectory() as root:
        store, models, record, peer, _ = _publish(root, _xml(v1))
        assert peer.peek("m", "multi").index is not None
        cache = SiteCache(buildstore=store)
        assert cache.entry(record, "multi").index is None
        assert cache.stats()["disk_hits"] == 1

        expected = {"rebuilds": 0, "incremental": 0,
                    "incremental_fallback": 0}
        for version, counted in ((v2, "incremental_fallback"),
                                 (v3, "incremental")):
            record, _ = models.put("m", _xml(version))
            entry = cache.entry(record, "multi")
            offline = _build_variant(record, "multi")
            assert entry.pages == offline.pages
            assert entry.etags == offline.etags
            assert entry.index is not None
            expected["rebuilds"] += 1
            expected[counted] += 1
            stats = cache.stats()
            assert {key: stats[key] for key in expected} == expected


# -- same hash ⇒ same artifact, across processes ---------------------------


def _build_in_child(root: str, xml_bytes: bytes, results) -> None:
    _, _, _, cache, entry = _publish(root, xml_bytes)
    results.put({"stats": cache.stats(),
                 "etags": entry.etags, "pid": os.getpid()})


def test_child_process_build_is_byte_identical_to_offline():
    """An artifact written by another *process* matches the entry an
    in-process offline build computes — the property that makes
    cross-process cache hits safe by construction."""

    xml_bytes = _xml(sales_model())
    with tempfile.TemporaryDirectory() as root:
        store = BuildStore(root)
        models = SharedModelStore(store)
        record, _ = models.put("m", xml_bytes)
        results = _CTX.Queue()
        child = _CTX.Process(
            target=_build_in_child, args=(root, xml_bytes, results))
        child.start()
        payload = results.get(timeout=60)
        child.join(timeout=60)
        assert child.exitcode == 0
        assert payload["pid"] != os.getpid()
        assert payload["stats"]["rebuilds"] == 1

        offline = _build_variant(record, "multi")
        loaded = store.load_site(record, "multi")
        assert loaded is not None
        assert loaded.pages == offline.pages
        assert loaded.etags == offline.etags == payload["etags"]

        # And the parent's own cache adopts it without building.
        cache = SiteCache(buildstore=store)
        assert cache.entry(record, "multi").etags == offline.etags
        assert cache.stats()["rebuilds"] == 0


# -- concurrent writers of one key ⇒ exactly one build ---------------------


def _burst_in_child(root: str, xml_bytes: bytes, clients: int,
                    barrier, results) -> None:
    store = BuildStore(root)
    models = SharedModelStore(store)
    record = models.get("m")
    cache = SiteCache(buildstore=store)
    outcomes: list[str] = []
    errors: list[str] = []

    def one_client() -> None:
        try:
            entry = cache.entry(record, "multi")
            outcomes.append(entry.content_hash)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(f"{type(exc).__name__}: {exc}")

    barrier.wait(timeout=60)
    threads = [threading.Thread(target=one_client)
               for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    results.put({"stats": cache.stats(), "outcomes": outcomes,
                 "errors": errors})


def test_sixteen_client_burst_across_four_processes_builds_once():
    """The ISSUE 10 regression: per-process model locks no longer
    serialize cross-worker builds, so the shared file lock must — a
    16-client burst across 4 worker processes executes one transform
    fleet-wide; everyone else coalesces in-process or adopts the
    artifact from disk."""

    xml_bytes = _xml(sales_model())
    with tempfile.TemporaryDirectory() as root:
        store = BuildStore(root)
        SharedModelStore(store).put("m", xml_bytes)
        workers, clients = 4, 4
        barrier = _CTX.Barrier(workers)
        results = _CTX.Queue()
        procs = [
            _CTX.Process(target=_burst_in_child,
                         args=(root, xml_bytes, clients, barrier, results))
            for _ in range(workers)]
        for proc in procs:
            proc.start()
        payloads = [results.get(timeout=120) for _ in procs]
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0

        record_hash = SharedModelStore(store).get("m").content_hash
        total_rebuilds = sum(p["stats"]["rebuilds"] for p in payloads)
        assert total_rebuilds == 1, payloads
        for payload in payloads:
            assert payload["errors"] == []
            assert len(payload["outcomes"]) == clients
            assert set(payload["outcomes"]) == {record_hash}
        # The one builder stored the artifact; every other process
        # either found it pre-lock or adopted it post-lock.
        assert sum(p["stats"]["disk_stores"] for p in payloads) == 1
        assert sum(p["stats"]["disk_hits"] for p in payloads) \
            == workers - 1


# -- the shared model tier -------------------------------------------------


def test_shared_store_read_your_writes_across_instances():
    """A PUT acknowledged by one store instance is visible — same
    bytes, same revision — to a peer instance over the same directory,
    and a DELETE unpublishes for every peer."""

    first_xml = _xml(sales_model())
    second_xml = _xml(two_facts_model())
    with tempfile.TemporaryDirectory() as root:
        writer = SharedModelStore(BuildStore(root))
        reader = SharedModelStore(BuildStore(root))
        record, created = writer.put("m", first_xml)
        assert created and record.revision == 1
        seen = reader.get("m")
        assert seen is not None
        assert seen.xml_bytes == first_xml
        assert seen.revision == 1
        assert seen.etag == record.etag
        assert reader.names() == ["m"]

        # A replacement rolls revision and hash for every peer.
        replacement, created = writer.put("m", second_xml)
        assert not created and replacement.revision == 2
        seen = reader.get("m")
        assert seen.xml_bytes == second_xml
        assert seen.revision == 2

        # Re-uploading identical bytes keeps the hash, bumps revision.
        again, _ = writer.put("m", second_xml)
        assert again.content_hash == replacement.content_hash
        assert again.revision == 3
        assert reader.get("m").revision == 3

        assert writer.delete("m")
        assert reader.get("m") is None
        assert reader.names() == []


def test_aggregate_artifacts_round_trip_across_reopen():
    """OLAP aggregates share the artifact tier: the stored JSON and its
    ETag come back bit-identical from a reopened store, rebound to
    whatever record name asks.  An XML view the entry already carries
    is not stored: every process derives it from the JSON."""
    from repro.olap.service.aggcache import AggregateEntry

    entry = AggregateEntry(
        name="m", content_hash="ab" * 32, seed=7, query_key="q1",
        renderings={"json": b'{"rows": []}', "xml": b"<r/>"},
        etags={"json": '"e1"', "xml": '"e2"'},
        row_count=3, sliced_out=1)
    with tempfile.TemporaryDirectory() as root:
        assert BuildStore(root).store_aggregate(entry)
        reopened = BuildStore(root)
        loaded = reopened.load_aggregate("other", "ab" * 32, 7, "q1")
        assert loaded is not None
        assert loaded.name == "other"
        assert loaded.renderings == {"json": entry.renderings["json"]}
        assert loaded.etags == {"json": entry.etags["json"]}
        assert loaded.row_count == 3 and loaded.sliced_out == 1
        # A different query key or hash is a miss, not a wrong answer.
        assert reopened.load_aggregate("m", "ab" * 32, 7, "q2") is None
        assert reopened.load_aggregate("m", "cd" * 32, 7, "q1") is None
