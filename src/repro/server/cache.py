"""The incremental rebuild cache: one built site per (model, variant).

The serving hot path (DESIGN.md §11) never re-runs XSLT for a model
whose bytes have not changed:

* **Keyed on content.**  Entries are keyed ``(name, variant)`` and
  carry the :attr:`~repro.server.store.ModelRecord.content_hash` they
  were built from.  A lookup whose record hash matches is a pure dict
  read — no lock, no transform.  A re-upload that changes bytes rolls
  the hash, so the *next* request (and only for that model) rebuilds.
* **Coalesced rebuilds.**  Builds serialize on a per-model lock:
  when N clients hit a freshly invalidated model at once, one thread
  builds while the rest block on the lock, then re-check and find the
  fresh entry — one transform per invalidation, regardless of client
  count (``server.site.coalesced`` counts the waiters that were spared
  a build).  Distinct models hold distinct locks, so they build in
  parallel on the server's thread pool.
* **Incremental when possible (DESIGN.md §14).**  Multi-page builds run
  tracked, and the resulting dependency index is stored *under the
  content hash of the entry it describes*.  A rebuild triggered by a
  re-upload goes through :func:`repro.web.incremental
  .republish_incremental` when the stored index matches the previous
  entry — diffing the models and re-rendering only dirty pages, reusing
  the previous entry's bytes (and therefore its ETags) for the rest —
  and falls back to a cold tracked build on any mismatch
  (``server.site.incremental`` / ``server.site.incremental_fallback``).
* **Link-checked at build time.**  Every page-producing build runs
  :func:`repro.web.linkcheck.check_site` and stores the report, so the
  ``/health/<model>`` endpoint surfaces broken anchors instead of the
  server silently shipping them.  An incremental rebuild hands the
  check the previous entry's report, so only changed pages are scanned.
* **Degrades, never hangs (DESIGN.md §12).**  Builds are bounded by a
  global slot pool: a rebuild that cannot get a slot within the wait
  budget is *shed* (:class:`CacheOverloadError` → 503 + Retry-After)
  instead of queueing unboundedly.  A build that *fails* (an injected
  fault, or a genuinely broken publish) serves the previous — stale —
  entry when one exists (``server.stale_served``; the HTTP layer marks
  it with a ``Warning`` header) and raises :class:`SiteBuildError`
  when there is nothing to fall back to.  Failures coalesce exactly
  like builds do: waiters blocked on the model lock during a failed
  attempt share its outcome instead of piling N more doomed builds
  onto the fault (pinned by tests/server/test_cache_faults.py); the
  next request *after* the failure retries, so the cache is never
  poisoned.

Pages are stored UTF-8 encoded next to their strong ETags (SHA-256 of
the encoded bytes), so conditional GETs are answered without touching
page text again.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

from ..faults import FAULTS, fault_point
from ..obs.recorder import RECORDER as _REC
from ..web.client import client_bundle
from ..web.incremental import (
    DependencyIndex,
    build_index,
    classify_node,
    incremental_enabled,
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

__all__ = ["SiteCache", "SiteEntry", "VARIANTS", "CacheOverloadError",
           "SiteBuildError"]

_REBUILD_FAULT = fault_point(
    "cache.rebuild", "raise/delay inside a site rebuild, before the "
                     "transform runs (cache.py)")

#: The publishable variants of one model.
VARIANTS = ("multi", "single", "bundle")


class CacheOverloadError(Exception):
    """A rebuild was shed: no build slot within the wait budget."""

    def __init__(self, name: str, variant: str, retry_after_s: int) -> None:
        super().__init__(
            f"rebuild of {name}/{variant} shed under load; retry in "
            f"{retry_after_s}s")
        self.name = name
        self.variant = variant
        self.retry_after_s = retry_after_s


class SiteBuildError(Exception):
    """A rebuild failed and no stale entry exists to serve instead."""

    def __init__(self, name: str, variant: str, cause: str) -> None:
        super().__init__(f"site build failed for {name}/{variant}: {cause}")
        self.name = name
        self.variant = variant
        self.cause = cause


def page_etag(payload: bytes) -> str:
    """Strong ETag for one served resource: quoted SHA-256 of its bytes."""
    return f'"{hashlib.sha256(payload).hexdigest()}"'


@dataclass(frozen=True)
class SiteEntry:
    """One built variant: encoded pages, their ETags, and health."""

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
    pages = {name: text.encode("utf-8")
             for name, text in text_pages.items()}
    return SiteEntry(
        name=record.name, variant=variant,
        content_hash=record.content_hash, revision=record.revision,
        pages=pages,
        etags={name: page_etag(data) for name, data in pages.items()},
        link_report=site_report, messages=messages)


class SiteCache:
    """Content-hash keyed cache of built :class:`SiteEntry` objects."""

    #: Default bound on concurrent builds across all models: enough to
    #: keep distinct models building in parallel, small enough that a
    #: burst of invalidations degrades to shedding instead of a convoy
    #: of transforms starving the serving threads.
    MAX_CONCURRENT_BUILDS = 4
    #: How long a request may wait for a build slot before being shed.
    BUILD_WAIT_S = 5.0
    #: The Retry-After hint attached to shed responses.
    RETRY_AFTER_S = 1

    def __init__(self, *, max_concurrent_builds: int | None = None,
                 build_wait_s: float | None = None,
                 buildstore=None) -> None:
        #: Optional :class:`repro.server.buildstore.BuildStore`.  When
        #: wired, the slow path consults the content-addressed disk tier
        #: before building and every build runs under the fleet-wide
        #: file lock, extending per-model coalescing across processes
        #: (DESIGN.md §17).  When None — every pre-existing deployment —
        #: behavior is byte-identical to the in-memory-only cache.
        self._buildstore = buildstore
        self._meta_lock = threading.Lock()
        self._entries: dict[tuple[str, str], SiteEntry] = {}
        self._model_locks: dict[str, threading.Lock] = {}
        self._build_slots = threading.BoundedSemaphore(
            max_concurrent_builds or self.MAX_CONCURRENT_BUILDS)
        self._build_wait_s = self.BUILD_WAIT_S \
            if build_wait_s is None else build_wait_s
        #: (name, variant) → message of the most recent failed build;
        #: cleared by the next successful build of that key.
        self._build_errors: dict[tuple[str, str], str] = {}
        #: (name, "multi") → (content_hash of the entry the index was
        #: recorded for, its dependency index).  The hash pins the index
        #: to one specific build: an incremental rebuild only runs when
        #: it matches the entry whose bytes would be reused, so a server
        #: restarted (or otherwise holding a divergent entry) never
        #: applies a diff against the wrong baseline.
        self._dep_indexes: dict[tuple[str, str],
                                tuple[str, DependencyIndex]] = {}
        #: (name, variant) → monotonic count of *finished* build
        #: attempts (success or failure).  A waiter that blocked on the
        #: model lock snapshots this before blocking: an unchanged value
        #: after the lock means nobody tried (build it), a changed value
        #: with a still-stale entry means the attempt it waited on
        #: failed (share that failure, do not retry in lockstep).
        self._build_tokens: dict[tuple[str, str], int] = {}
        # Local stats power the /stats endpoint even with the obs
        # recorder off; obs counters mirror them when profiling.
        self._stats = {"hits": 0, "rebuilds": 0, "coalesced": 0,
                       "invalidations": 0, "build_failures": 0,
                       "stale_served": 0, "shed": 0,
                       "incremental": 0, "incremental_fallback": 0,
                       "disk_hits": 0, "disk_stores": 0}

    # -- internals ---------------------------------------------------------

    def _model_lock(self, name: str) -> threading.Lock:
        with self._meta_lock:
            lock = self._model_locks.get(name)
            if lock is None:
                lock = self._model_locks[name] = threading.Lock()
            return lock

    _COUNTER = {"hits": "server.site.hit", "rebuilds": "server.site.rebuild",
                "coalesced": "server.site.coalesced",
                "invalidations": "server.site.invalidation",
                "build_failures": "server.site.build_failure",
                "stale_served": "server.stale_served",
                "shed": "server.shed",
                "incremental": "server.site.incremental",
                "incremental_fallback": "server.site.incremental_fallback",
                "disk_hits": "server.site.disk_hit",
                "disk_stores": "server.site.disk_store"}

    #: Per-request telemetry flag for each stat (singular forms end up
    #: in access-log lines and windowed counters).
    _FLAG = {"hits": "cache_hit", "rebuilds": "rebuild",
             "coalesced": "coalesced", "invalidations": "invalidation",
             "build_failures": "build_failure",
             "stale_served": "stale_served", "shed": "shed",
             "incremental": "incremental",
             "incremental_fallback": "incremental_fallback",
             "disk_hits": "disk_hit", "disk_stores": "disk_store"}

    def _bump(self, stat: str) -> None:
        with self._meta_lock:
            self._stats[stat] += 1
        if _REC.enabled:
            _REC.count(self._COUNTER[stat])
        # Tag the in-flight request (thread-local; no-op off-request) so
        # its access-log line says what the cache did for it.
        _mark(self._FLAG[stat])

    def _fresh(self, key: tuple[str, str],
               record: ModelRecord) -> SiteEntry | None:
        entry = self._entries.get(key)
        if entry is not None and entry.content_hash == record.content_hash:
            return entry
        return None

    # -- public API --------------------------------------------------------

    def entry(self, record: ModelRecord, variant: str) -> SiteEntry:
        """The built *variant* for *record*, rebuilding only on staleness.

        The fast path is a lock-free dict read validated against the
        record's content hash.  The slow path serializes on the
        per-model lock; waiters re-check after acquiring it, so a burst
        of requests against a stale model performs exactly one build —
        and, symmetrically, exactly one *failure*: waiters present
        during a failed attempt inherit its outcome (the stale previous
        entry, or :class:`SiteBuildError`) instead of retrying in
        lockstep against the same fault.

        A returned entry whose ``content_hash`` differs from the
        record's is stale — the degraded serve-stale path; callers that
        care (the HTTP layer) compare the hashes.  Raises
        :class:`CacheOverloadError` when the build-slot pool is
        exhausted past the wait budget.
        """
        if variant not in VARIANTS:
            raise KeyError(f"unknown site variant {variant!r}")
        key = (record.name, variant)
        entry = self._fresh(key, record)
        if entry is not None:
            self._bump("hits")
            return entry
        token_before = self._build_tokens.get(key, 0)
        with self._model_lock(record.name):
            entry = self._fresh(key, record)
            if entry is not None:
                # Another request built it while we waited on the lock.
                self._bump("coalesced")
                return entry
            if self._buildstore is not None:
                entry = self._buildstore.load_site(record, variant)
                if entry is not None:
                    # A peer process already built these bytes; adopt
                    # its artifact without spending a build slot.  This
                    # outranks the shared-failure check below: a fresh
                    # artifact on disk supersedes a local failed attempt.
                    self._bump("disk_hits")
                    with self._meta_lock:
                        self._build_errors.pop(key, None)
                    self._entries[key] = entry
                    return entry
            if self._build_tokens.get(key, 0) != token_before:
                # The build we waited on finished and the entry is
                # still stale: that attempt failed.  Share its outcome.
                self._bump("coalesced")
                return self._degraded(key, record, variant)
            if not self._build_slots.acquire(timeout=self._build_wait_s):
                self._bump("shed")
                raise CacheOverloadError(
                    record.name, variant, self.RETRY_AFTER_S)
            try:
                entry = self._build_locked(key, record, variant)
            except Exception as exc:
                self._bump("build_failures")
                with self._meta_lock:
                    self._build_errors[key] = \
                        f"{type(exc).__name__}: {exc}"
                return self._degraded(key, record, variant)
            else:
                with self._meta_lock:
                    self._build_errors.pop(key, None)
                self._entries[key] = entry
                return entry
            finally:
                self._build_slots.release()
                with self._meta_lock:
                    self._build_tokens[key] = \
                        self._build_tokens.get(key, 0) + 1

    def _build_locked(self, key: tuple[str, str], record: ModelRecord,
                      variant: str) -> SiteEntry:
        """One build attempt, fleet-coalesced when a store is wired.

        Without a build store this is exactly the pre-fork behavior.
        With one, the build runs under the cross-process file lock for
        this (hash, variant): losers of the lock race find the winner's
        artifact on the post-lock disk re-check and adopt it —
        ``rebuilds`` counts only builds that actually ran, fleet-wide.
        The flock dies with its process, so a SIGKILLed builder never
        wedges the key.
        """
        if self._buildstore is None:
            return self._attempt(key, record, variant)
        with self._buildstore.lock(
                "site", f"{record.content_hash}-{variant}"):
            entry = self._buildstore.load_site(record, variant)
            if entry is not None:
                self._bump("disk_hits")
                return entry
            entry = self._attempt(key, record, variant)
            if self._buildstore.store_site(entry):
                self._bump("disk_stores")
            return entry

    def _attempt(self, key: tuple[str, str], record: ModelRecord,
                 variant: str) -> SiteEntry:
        """Actually run one build (the only place ``rebuilds`` bumps)."""
        self._bump("rebuilds")
        with _REC.span("server.rebuild", model=record.name,
                       variant=variant):
            if FAULTS.enabled:
                FAULTS.hit(_REBUILD_FAULT)
            return self._build(key, record, variant)

    def _build(self, key: tuple[str, str], record: ModelRecord,
               variant: str) -> SiteEntry:
        """Build *variant*, going incremental for stale "multi" entries.

        Full builds always go through the module-level
        :func:`_build_variant` (the seam fault tests monkeypatch); the
        incremental path only engages when a previous entry *and* a
        dependency index recorded for that exact entry (content hashes
        match) are available.  Any other combination — including an
        index left over from a different baseline — falls back to a
        tracked full build, counted as ``incremental_fallback``.
        """
        if variant != "multi" or not incremental_enabled():
            return _build_variant(record, variant)
        previous = self._entries.get(key)
        with self._meta_lock:
            stored = self._dep_indexes.get(key)
        if previous is not None and stored is not None:
            stored_hash, index = stored
            if stored_hash == previous.content_hash:
                return self._build_incremental(key, record, previous, index)
            # The index describes some other build than the entry whose
            # bytes we would reuse (e.g. state reloaded after a restart):
            # applying the diff would republish against the wrong
            # baseline, so rebuild cold instead.
            self._bump("incremental_fallback")
        return self._build_tracked(key, record)

    def _build_tracked(self, key: tuple[str, str],
                       record: ModelRecord) -> SiteEntry:
        """Full multi build, tracked so the *next* rebuild can be
        incremental.  Called with the model lock held."""
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
        with self._meta_lock:
            self._dep_indexes[key] = (entry.content_hash, index)
        return entry

    def _build_incremental(self, key: tuple[str, str], record: ModelRecord,
                           previous: SiteEntry,
                           index: DependencyIndex) -> SiteEntry:
        """Diff-driven rebuild reusing *previous*'s bytes for clean pages.

        ``republish_incremental`` degrades to a full publish internally
        on any diff/index miss (counted here as ``incremental_fallback``)
        but lets injected ``publish.diff`` faults propagate, so the
        caller's serve-stale degradation still gets exercised.  The link
        check rescans only pages *previous*'s report has not seen (an
        entry adopted from the build store carries no scans, so its
        successor gets a full check).
        """
        previous_pages = {name: data.decode("utf-8")
                          for name, data in previous.pages.items()}
        site, new_index, info = republish_incremental(
            record.model, previous_pages, index)
        pages = {name: text.encode("utf-8")
                 for name, text in site.pages.items()}
        entry = SiteEntry(
            name=record.name, variant="multi",
            content_hash=record.content_hash, revision=record.revision,
            pages=pages,
            etags={name: page_etag(data) for name, data in pages.items()},
            link_report=check_site(site, previous.link_report),
            messages=site.messages)
        with self._meta_lock:
            self._dep_indexes[key] = (entry.content_hash, new_index)
        self._bump("incremental_fallback" if info["mode"] == "full"
                   else "incremental")
        return entry

    def _degraded(self, key: tuple[str, str], record: ModelRecord,
                  variant: str) -> SiteEntry:
        """Serve the stale entry after a failed build, or raise.

        Called with the model lock held.  The stale entry keeps its old
        content hash, which is how callers (and tests) recognise it.
        """
        stale = self._entries.get(key)
        if stale is not None:
            self._bump("stale_served")
            return stale
        with self._meta_lock:
            cause = self._build_errors.get(key, "build failed")
        raise SiteBuildError(record.name, variant, cause)

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
            return self._build_errors.get((name, variant))

    def invalidate(self, name: str) -> int:
        """Drop every cached variant of *name*; returns entries removed.

        ``put`` does not need to call this — a changed content hash
        already invalidates — but DELETE uses it to free the memory of
        sites that can no longer be served.  Degraded-mode markers go
        with the entries: a re-created model starts clean.
        """
        removed = 0
        with self._model_lock(name):
            for variant in VARIANTS:
                if self._entries.pop((name, variant), None) is not None:
                    removed += 1
            with self._meta_lock:
                for variant in VARIANTS:
                    self._build_errors.pop((name, variant), None)
                    self._dep_indexes.pop((name, variant), None)
        if removed:
            self._bump("invalidations")
        return removed

    def dep_index_info(self) -> dict:
        """The dependency-index store in ``cache_info()`` shape.

        "Hits" are rebuilds the stored index actually served (diff-driven
        incremental republishes); "misses" are rebuilds that wanted the
        index but fell back to a cold tracked build.  Shaped like the
        ``functools.lru_cache`` views in :func:`repro.obs.cache_stats` so
        ``/stats`` and ``/metrics`` treat every cache uniformly.
        """
        with self._meta_lock:
            return {
                "hits": self._stats["incremental"],
                "misses": self._stats["incremental_fallback"],
                "currsize": len(self._dep_indexes),
                "maxsize": None,
            }

    def stats(self) -> dict:
        """Hit/rebuild/coalesced/invalidation counters plus sizes."""
        with self._meta_lock:
            stats = dict(self._stats)
        stats["entries"] = len(self._entries)
        stats["resident_bytes"] = sum(
            len(data) for entry in list(self._entries.values())
            for data in entry.pages.values())
        with self._meta_lock:
            stats["degraded_keys"] = ["/".join(key)
                                      for key in sorted(self._build_errors)]
        return stats
