"""The OLAP query service: datasets + engine + aggregate cache.

:class:`OlapService` is what the HTTP layer talks to.  It owns

* a per-``(model, seed)`` star-schema cache, validated against the
  model's content hash (a re-upload regenerates the dataset lazily,
  like every other content-keyed cache in the repo);
* the :class:`~repro.olap.service.aggcache.AggregateCache` of
  materialized results, with the build store as its disk tier when
  one is wired;
* the execution path: resolve the canonical query, synthesize (or
  reuse) the dataset, run the :class:`~repro.olap.engine.CubeEngine`,
  render the JSON and its ETag — all under the cache's
  ``olap.execute`` span, fault point, and coalescing machinery;
* the XML view: rendered from an entry's stored JSON on the first XML
  request and kept on the entry (DESIGN.md §16.8).

It deliberately does not import anything from :mod:`repro.server`;
the server imports *it*.
"""

from __future__ import annotations

import json
import threading

from ...faults import FAULTS, fault_point
from ...mdm.enums import AggregationKind, Operator
from ...mdm.model import GoldModel
from ...obs.recorder import RECORDER as _REC
from ..engine import CubeEngine
from ..star import StarSchema
from .aggcache import AggregateCache, AggregateEntry
from .datagen import DatasetConfig, synthesize_star
from .query import QuerySpec
from .render import (
    render_json,
    render_xml,
    result_etag,
    result_payload,
)

__all__ = ["OlapService", "QueryRenderError", "RESULT_FORMATS"]

_EXECUTE_FAULT = fault_point(
    "olap.execute", "raise/delay inside a materialized-aggregate "
                    "execution, before the engine runs (service.py)")

#: The formats a query can be served in; an execution stores the
#: first, and the others are derived from it on demand.
RESULT_FORMATS = ("json", "xml")


class QueryRenderError(Exception):
    """Rendering the XML of a stored result failed; nothing was stored."""


class OlapService:
    """Queries over derived datasets, materialized and coalesced."""

    def __init__(self, *, dataset: DatasetConfig | None = None,
                 buildstore=None) -> None:
        self.dataset = dataset or DatasetConfig()
        self.cache = AggregateCache()
        #: Optional :class:`repro.server.buildstore.BuildStore`.  When
        #: wired (the pre-fork server, DESIGN.md §17), it is the
        #: aggregate cache's disk tier: N workers materialize one query
        #: once.
        self._buildstore = buildstore
        self._meta_lock = threading.Lock()
        #: (name, seed) → (content_hash, star).
        self._stars: dict[tuple[str, int], tuple[str, StarSchema]] = {}
        #: (name, seed) → its generation lock, created on first use and
        #: never dropped.
        self._star_locks: dict[tuple[str, int], threading.Lock] = {}
        self._star_stats = {"hits": 0, "generations": 0}

    # -- datasets ----------------------------------------------------------

    def _star_lock(self, key: tuple[str, int]) -> threading.Lock:
        with self._meta_lock:
            lock = self._star_locks.get(key)
            if lock is None:
                lock = self._star_locks[key] = threading.Lock()
            return lock

    def star_for(self, name: str, content_hash: str, model: GoldModel,
                 seed: int) -> StarSchema:
        """The dataset for ``(name, seed)``, regenerated on hash roll.

        Generation serializes per key so N concurrent first-queries
        synthesize once; a failed generation leaves no entry behind
        (the next request retries).
        """
        key = (name, seed)
        with self._meta_lock:
            cached = self._stars.get(key)
        if cached is not None and cached[0] == content_hash:
            with self._meta_lock:
                self._star_stats["hits"] += 1
            return cached[1]
        with self._star_lock(key):
            with self._meta_lock:
                cached = self._stars.get(key)
            if cached is not None and cached[0] == content_hash:
                with self._meta_lock:
                    self._star_stats["hits"] += 1
                return cached[1]
            star = synthesize_star(model, content_hash, seed,
                                   self.dataset)
            with self._meta_lock:
                self._stars[key] = (content_hash, star)
                self._star_stats["generations"] += 1
            return star

    # -- execution ---------------------------------------------------------

    def execute(self, name: str, content_hash: str, model: GoldModel,
                spec: QuerySpec) -> tuple[AggregateEntry, str]:
        """Materialize *spec* (already canonical) for one model record.

        Returns ``(entry, outcome)`` — see
        :meth:`AggregateCache.entry` for outcomes and failure modes.
        """
        query_key = spec.query_key()

        def _run() -> AggregateEntry:
            with _REC.span("olap.execute", model=name,
                           key=query_key[:12]):
                if FAULTS.enabled:
                    FAULTS.hit(_EXECUTE_FAULT)
                star = self.star_for(name, content_hash, model,
                                     spec.seed)
                result = CubeEngine(star).execute(spec.to_cube(model))
                payload = result_payload(
                    model, content_hash, spec, result,
                    dataset=star.summary())
                data = render_json(payload)
                return AggregateEntry(
                    name=name, content_hash=content_hash,
                    seed=spec.seed, query_key=query_key,
                    renderings={"json": data},
                    etags={"json": result_etag(data)},
                    row_count=payload["row_count"],
                    sliced_out=payload["sliced_out"])

        store = self._buildstore
        disk = None if store is None else (
            lambda: store.load_aggregate(name, content_hash, spec.seed,
                                         query_key),
            lambda: store.lock(
                "olap", f"{content_hash}-{spec.seed}-{query_key}"),
            store.store_aggregate)
        return self.cache.entry(name, content_hash, spec.seed,
                                query_key, _run, disk)

    def rendering(self, entry: AggregateEntry,
                  fmt: str) -> tuple[bytes, str]:
        """*entry*'s bytes in *fmt* (one of :data:`RESULT_FORMATS`)
        and their ETag.

        The JSON is what the execution stored.  The XML is rendered
        from it on the entry's first XML request, under the entry's
        lock, and kept on the entry.  A failed rendering raises
        :class:`QueryRenderError` and stores nothing, so the next
        request retries; the cache never sees it.
        """
        if fmt == "xml" and "xml" not in entry.renderings:
            with entry.view_lock:
                if "xml" not in entry.renderings:
                    with _REC.span("olap.render", model=entry.name,
                                   key=entry.query_key[:12]):
                        try:
                            data = render_xml(
                                json.loads(entry.renderings["json"]))
                        except Exception as exc:
                            raise QueryRenderError(
                                f"XML rendering failed for {entry.name}/"
                                f"{entry.query_key[:12]}: "
                                f"{type(exc).__name__}: {exc}") from exc
                    # The ETag first: a lock-free reader that sees the
                    # bytes must find their ETag.
                    entry.etags["xml"] = result_etag(data)
                    entry.renderings["xml"] = data
        return entry.renderings[fmt], entry.etags[fmt]

    # -- introspection -----------------------------------------------------

    def schema_payload(self, model: GoldModel) -> dict:
        """The queryable surface of one model: what can be asked."""
        facts = []
        for fact in model.facts:
            dimensions = []
            for dimension_id in fact.dimension_ids:
                dimension = model.dimension_class(dimension_id)
                aggregation = fact.aggregation_for(dimension_id)
                dimensions.append({
                    "id": dimension.id,
                    "name": dimension.name,
                    "many_to_many": bool(
                        aggregation and aggregation.many_to_many),
                    "levels": [
                        {"id": level.id, "name": level.name,
                         "attributes": [a.name
                                        for a in level.attributes]}
                        for level in dimension.iter_levels()],
                    "attributes": [a.name
                                   for a in dimension.attributes],
                })
            facts.append({
                "id": fact.id,
                "name": fact.name,
                "measures": [
                    {"id": a.id, "name": a.name, "type": a.type,
                     "degenerate": a.is_oid,
                     "additivity": [rule.describe()
                                    for rule in a.additivity]}
                    for a in fact.attributes],
                "dimensions": dimensions,
            })
        return {
            "model": model.name,
            "facts": facts,
            "cubes": [{"id": cube.id, "name": cube.name,
                       "fact": cube.fact}
                      for cube in model.cubes],
            "operators": [o.value for o in Operator],
            "aggregations": [k.value for k in AggregationKind],
            "dataset": {
                "members_per_level": self.dataset.members_per_level,
                "rows_per_fact": self.dataset.rows_per_fact,
                "non_strict_fanout": self.dataset.non_strict_fanout,
                "non_complete_rate": self.dataset.non_complete_rate,
            },
        }

    def dataset_info(self) -> dict:
        """The star-schema cache in ``cache_info()`` shape."""
        with self._meta_lock:
            return {"hits": self._star_stats["hits"],
                    "misses": self._star_stats["generations"],
                    "currsize": len(self._stars), "maxsize": None}

    def stats(self) -> dict:
        stats = {"aggregates": self.cache.stats(),
                 "datasets": self.dataset_info()}
        return stats

    def invalidate(self, name: str) -> int:
        """Drop the datasets and materializations of one model; returns
        how many.

        Datasets follow the invalidation rule of the aggregate cache
        (DESIGN.md §11.3): each goes under its key's lock, so a
        generation in flight finishes first and never stores its
        dataset after the drop, and the lock stays, so a request sent
        after the drop never generates beside one still running.
        """
        removed = self.cache.invalidate(name)
        with self._meta_lock:
            keys = [key for key in self._star_locks if key[0] == name]
        for key in keys:
            with self._star_lock(key):
                with self._meta_lock:
                    if self._stars.pop(key, None) is not None:
                        removed += 1
        return removed
