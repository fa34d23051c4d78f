"""The incremental rebuild cache: one built site per (model, variant).

The serving hot path (DESIGN.md §11) never re-runs XSLT for a model
whose bytes have not changed.  :class:`SiteCache` is the shared
:class:`~repro.coalesce.CoalescingCache` (content-hash keys, one build
per key and hash, shedding, serve-stale, the disk tier, invalidation;
DESIGN.md §11.3) adapted to sites:

* **Keyed** ``(name, variant)``, variant ∈ :data:`VARIANTS`.  A
  request served stale gets an entry whose ``content_hash`` differs
  from its record's; the HTTP layer marks it with a ``Warning``
  header.
* **Incremental when possible (DESIGN.md §14).**  Multi-page builds run
  tracked, and each entry carries the dependency index it was built
  with.  A rebuild triggered by a re-upload goes through
  :func:`repro.web.incremental.republish_incremental` against the
  previous entry's index — diffing the models and re-rendering only
  dirty pages, reusing the previous entry's bytes (and therefore its
  ETags) for the rest.  The build store keeps no index, so an entry
  adopted from a peer's artifact has none, and its successor is a cold
  tracked build (the ``incremental`` / ``incremental_fallback`` stats).
* **Link-checked at build time.**  Every page-producing build runs
  :func:`repro.web.linkcheck.check_site` and stores the report, so the
  ``/health/<model>`` endpoint surfaces broken anchors instead of the
  server silently shipping them.  An incremental rebuild hands the
  check the previous entry's report, so only changed pages are scanned.

Pages are stored UTF-8 encoded next to their strong ETags (SHA-256 of
the encoded bytes), so conditional GETs are answered without touching
page text again.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from ..coalesce import CoalescingCache
from ..faults import FAULTS, fault_point
from ..obs.recorder import RECORDER as _REC
from ..web.client import client_bundle
from ..web.incremental import (
    DependencyIndex,
    build_index,
    classify_node,
    republish_incremental,
)
from ..web.linkcheck import LinkReport, check_site
from ..web.publisher import (
    PROFILE_PAGE,
    publish_multi_page,
    publish_single_page,
)
from ..web.stylesheets import MULTI_PAGE_XSL
from ..xml import tracking as _tracking
from .store import ModelRecord
from .telemetry import mark as _mark

__all__ = ["SiteCache", "SiteEntry", "VARIANTS"]

_REBUILD_FAULT = fault_point(
    "cache.rebuild", "raise/delay inside a site rebuild, before the "
                     "transform runs (cache.py)")

#: The publishable variants of one model.
VARIANTS = ("multi", "single", "bundle")


def page_etag(payload: bytes) -> str:
    """Strong ETag for one served resource: quoted SHA-256 of its bytes."""
    return f'"{hashlib.sha256(payload).hexdigest()}"'


@dataclass(frozen=True)
class SiteEntry:
    """One built variant: encoded pages, their ETags, health, and the
    dependency index its successor diffs against."""

    name: str
    variant: str
    content_hash: str
    revision: int
    #: filename → UTF-8 page bytes (HTML/CSS, or XML/XSL for bundles).
    pages: dict[str, bytes]
    #: filename → strong ETag of the encoded bytes.
    etags: dict[str, str]
    #: Link-check outcome (None for the bundle variant — no HTML).
    link_report: LinkReport | None = None
    messages: list[str] = field(default_factory=list)
    #: The index of a "multi" entry built here (tracked or incremental);
    #: None for the other variants and for an entry adopted from the
    #: build store, which never stores one.
    index: DependencyIndex | None = field(
        default=None, compare=False, repr=False)


def _build_variant(record: ModelRecord, variant: str) -> SiteEntry:
    if variant == "bundle":
        bundle = client_bundle(record.model)
        text_pages = {"model.xml": bundle.document_xml, **bundle.stylesheets}
        site_report = None
        messages: list[str] = []
    else:
        publish = publish_multi_page if variant == "multi" \
            else publish_single_page
        site = publish(record.model)
        text_pages = site.pages
        site_report = check_site(site)
        messages = site.messages
    return _entry(record, variant, text_pages, site_report, messages)


def _entry(record: ModelRecord, variant: str, text_pages: dict[str, str],
           link_report: LinkReport | None, messages: list[str],
           index: DependencyIndex | None = None) -> SiteEntry:
    """*text_pages* encoded as *record*'s entry, with their ETags."""
    pages = {name: text.encode("utf-8")
             for name, text in text_pages.items()}
    return SiteEntry(
        name=record.name, variant=variant,
        content_hash=record.content_hash, revision=record.revision,
        pages=pages,
        etags={name: page_etag(data) for name, data in pages.items()},
        link_report=link_report, messages=messages, index=index)


class SiteCache(CoalescingCache):
    """Content-hash keyed cache of built :class:`SiteEntry` objects."""

    BUILDS = "rebuilds"
    FAILURES = "build_failures"
    STATS = ("hits", "rebuilds", "coalesced", "invalidations",
             "build_failures", "stale_served", "shed", "incremental",
             "incremental_fallback", "disk_hits", "disk_stores")

    #: Per-request telemetry flag for each stat (singular forms end up
    #: in access-log lines and windowed counters).
    _FLAG = {"hits": "cache_hit", "rebuilds": "rebuild",
             "coalesced": "coalesced", "invalidations": "invalidation",
             "build_failures": "build_failure",
             "stale_served": "stale_served", "shed": "shed",
             "incremental": "incremental",
             "incremental_fallback": "incremental_fallback",
             "disk_hits": "disk_hit", "disk_stores": "disk_store"}

    def __init__(self, *, max_concurrent_builds: int | None = None,
                 build_wait_s: float | None = None,
                 buildstore=None) -> None:
        super().__init__(max_concurrent_builds, build_wait_s)
        #: Optional :class:`repro.server.buildstore.BuildStore`, the
        #: cache's disk tier: it extends per-key coalescing across
        #: processes (DESIGN.md §17).  When None the cache is
        #: in-memory only.
        self._buildstore = buildstore

    # -- internals ---------------------------------------------------------

    def _bump(self, stat: str) -> None:
        # Every hit runs this: an explicit base call costs less than
        # super().
        CoalescingCache._bump(self, stat)
        # Tag the in-flight request (thread-local; no-op off-request) so
        # its access-log line says what the cache did for it.
        _mark(self._FLAG[stat])

    @staticmethod
    def _size(entry: SiteEntry) -> int:
        return sum(len(data) for data in entry.pages.values())

    def _key_lock(self, key: tuple[str, str]):
        return self._model_lock(key)

    #: The lock map under the name goldbench's traced run rebinds: a
    #: call marks an ``entry`` that missed the lock-free path.
    _model_lock = CoalescingCache._key_lock

    # -- public API --------------------------------------------------------

    def entry(self, record: ModelRecord, variant: str) -> SiteEntry:
        """The built *variant* for *record*, rebuilding only on staleness.

        See :meth:`CoalescingCache.get`.  A returned entry whose
        ``content_hash`` differs from the record's is stale — the
        degraded serve-stale path; callers that care (the HTTP layer)
        compare the hashes.
        """
        if variant not in VARIANTS:
            raise KeyError(f"unknown site variant {variant!r}")
        key = (record.name, variant)
        store = self._buildstore
        disk = None if store is None else (
            lambda: store.load_site(record, variant),
            lambda: store.lock("site", f"{record.content_hash}-{variant}"),
            store.store_site)
        return self.get(key, record.content_hash,
                        lambda: self._attempt(key, record, variant),
                        disk)[0]

    def _attempt(self, key: tuple[str, str], record: ModelRecord,
                 variant: str) -> SiteEntry:
        """Actually run one build (the cache has counted it), going
        incremental for stale "multi" entries.

        Full builds always go through the module-level
        :func:`_build_variant` (the seam fault tests monkeypatch).  A
        "multi" rebuild diffs against the index its previous entry
        carries; a previous entry without one (adopted from the build
        store) makes this a tracked full build, counted as
        ``incremental_fallback``.
        """
        with _REC.span("server.rebuild", model=record.name,
                       variant=variant):
            if FAULTS.enabled:
                FAULTS.hit(_REBUILD_FAULT)
            if variant != "multi":
                return _build_variant(record, variant)
            previous = self._entries.get(key)
            if previous is not None and previous.index is not None:
                return self._build_incremental(record, previous)
            if previous is not None:
                self._bump("incremental_fallback")
            return self._build_tracked(record)

    def _build_tracked(self, record: ModelRecord) -> SiteEntry:
        """Full multi build, tracked so the *next* rebuild can be
        incremental.  Called with the key lock held."""
        tracker = _tracking.ReadTracker(classify_node)
        with _tracking.installed(tracker):
            entry = _build_variant(record, "multi")
        page_names = sorted(
            name for name in entry.pages
            if name.endswith(".html") and name != PROFILE_PAGE)
        # ETags are quoted sha256 of the UTF-8 bytes — exactly the text
        # hashes the index stores, so no page is decoded or re-hashed.
        index = build_index(
            tracker, page_names,
            {name: entry.etags[name].strip('"') for name in page_names},
            stylesheet=MULTI_PAGE_XSL, baseline_model=record.model)
        return replace(entry, index=index)

    def _build_incremental(self, record: ModelRecord,
                           previous: SiteEntry) -> SiteEntry:
        """Diff-driven rebuild reusing *previous*'s bytes for clean pages.

        ``republish_incremental`` degrades to a full publish internally
        on any diff/index miss (counted here as ``incremental_fallback``)
        but lets injected ``publish.diff`` faults propagate, so the
        caller's serve-stale degradation still gets exercised.  The link
        check rescans only pages *previous*'s report has not seen.
        """
        previous_pages = {name: data.decode("utf-8")
                          for name, data in previous.pages.items()}
        site, index, info = republish_incremental(
            record.model, previous_pages, previous.index)
        entry = _entry(record, "multi", site.pages,
                       check_site(site, previous.link_report),
                       site.messages, index)
        self._bump("incremental_fallback" if info["mode"] == "full"
                   else "incremental")
        return entry

    def peek(self, name: str, variant: str) -> SiteEntry | None:
        """The cached entry, fresh or stale, without building (or None)."""
        return self._entries.get((name, variant))

    def build_error(self, name: str, variant: str) -> str | None:
        """The most recent build failure for (name, variant), if any.

        Non-None means the cache is in degraded mode for that key: the
        latest rebuild failed and requests are being served the stale
        entry (or errors).  Cleared by the next successful build.
        """
        with self._meta_lock:
            return self._errors.get((name, variant))

    def dep_index_info(self) -> dict:
        """The entries' dependency indexes in ``cache_info()`` shape.

        "Hits" are rebuilds an entry's index actually served (diff-driven
        incremental republishes); "misses" are rebuilds that wanted an
        index but fell back to a cold tracked build; "currsize" counts
        the entries holding an index.  Shaped like the
        ``functools.lru_cache`` views in :func:`repro.obs.cache_stats` so
        ``/stats`` and ``/metrics`` treat every cache uniformly.
        """
        # list() copies in one C call, with no thread switch inside.
        indexed = sum(entry.index is not None
                      for entry in list(self._entries.values()))
        with self._meta_lock:
            return {
                "hits": self._stats["incremental"],
                "misses": self._stats["incremental_fallback"],
                "currsize": indexed,
                "maxsize": None,
            }
