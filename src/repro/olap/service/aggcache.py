"""The materialized-aggregate cache (DESIGN.md §16).

Mirrors the site cache's degradation contract (``server/cache.py``) for
the compute-bound traffic class:

* **Keyed on content.**  Entries are keyed ``(model name, data seed,
  canonical query key)`` and carry the content hash they were computed
  from; a lookup whose record hash matches is a lock-free dict read.
  A re-upload rolls the hash, so every materialized aggregate of that
  model lazily recomputes on next touch.
* **Coalesced executions.**  Executions serialize on a per-key lock:
  N clients issuing the same fresh query perform exactly one
  execution.  Waiters snapshot an execution token before blocking, so
  a waiter that slept through a *failed* attempt shares its outcome
  (stale entry or error) instead of re-running a doomed execution; a
  waiter that slept through a success for another content hash runs
  its own query, so "stale" always means an execution failed.
* **Degrades, never hangs.**  A bounded slot pool sheds executions
  that cannot start within the wait budget
  (:class:`QueryOverloadError` → 503 + Retry-After); a *failed*
  execution (an ``olap.generate``/``olap.execute`` fault, or a broken
  model) serves the previous — stale — entry when one exists, and
  raises :class:`QueryExecutionError` when there is nothing to fall
  back to.  The next request after a failure retries; the cache is
  never poisoned.

The cache does not import the server's telemetry (the server imports
*us*): :meth:`AggregateCache.entry` returns an *outcome* string
(``"hit"``/``"executed"``/``"coalesced"``/``"stale"``) and the HTTP
layer translates outcomes into request flags and response headers.
Local counters power ``/olap/<model>/stats`` with the obs recorder
off; ``olap.cache.*`` counters mirror them when profiling.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

from ...obs.recorder import RECORDER as _REC

__all__ = ["AggregateCache", "AggregateEntry", "QueryOverloadError",
           "QueryExecutionError"]


class QueryOverloadError(Exception):
    """An execution was shed: no slot within the wait budget."""

    def __init__(self, name: str, query_key: str,
                 retry_after_s: int) -> None:
        super().__init__(
            f"query {query_key[:12]} on {name} shed under load; retry "
            f"in {retry_after_s}s")
        self.name = name
        self.query_key = query_key
        self.retry_after_s = retry_after_s


class QueryExecutionError(Exception):
    """An execution failed and no stale entry exists to serve."""

    def __init__(self, name: str, query_key: str, cause: str) -> None:
        super().__init__(
            f"query execution failed for {name}/{query_key[:12]}: "
            f"{cause}")
        self.name = name
        self.query_key = query_key
        self.cause = cause


@dataclass(frozen=True)
class AggregateEntry:
    """One materialized result: renderings, ETags, and provenance.

    An execution stores only the JSON; the XML view is added by
    :meth:`~repro.olap.service.service.OlapService.rendering` on the
    first XML request (DESIGN.md §16.8).
    """

    name: str
    content_hash: str
    seed: int
    query_key: str
    #: format → encoded result bytes: "json" always, "xml" once derived.
    renderings: dict[str, bytes]
    #: format → strong ETag of those bytes.
    etags: dict[str, str]
    row_count: int
    sliced_out: int
    #: Serializes deriving a view, so N concurrent first requests for
    #: it render once.
    view_lock: threading.Lock = field(
        default_factory=threading.Lock, compare=False, repr=False)


class AggregateCache:
    """Content-hash keyed cache of :class:`AggregateEntry` objects."""

    #: Bound on concurrent executions across all models — executions
    #: are compute-bound (dataset synthesis + aggregation), so a burst
    #: degrades to shedding instead of a convoy starving the serving
    #: threads.
    MAX_CONCURRENT_EXECUTIONS = 4
    #: How long a request may wait for a slot before being shed.
    EXECUTE_WAIT_S = 5.0
    #: The Retry-After hint attached to shed responses.
    RETRY_AFTER_S = 1

    def __init__(self, *, max_concurrent_executions: int | None = None,
                 execute_wait_s: float | None = None,
                 buildstore=None) -> None:
        #: Optional :class:`repro.server.buildstore.BuildStore`.  When
        #: wired (the pre-fork server, DESIGN.md §17), aggregates are
        #: shared fleet-wide: the slow path consults the disk tier and
        #: executions run under the cross-process file lock, so N
        #: workers materialize one query once.  None (the default)
        #: keeps the in-memory-only behavior byte-identical.
        self._buildstore = buildstore
        self._meta_lock = threading.Lock()
        #: (name, seed, query_key) → entry.
        self._entries: dict[tuple[str, int, str], AggregateEntry] = {}
        self._key_locks: dict[tuple[str, int, str], threading.Lock] = {}
        self._slots = threading.BoundedSemaphore(
            max_concurrent_executions or self.MAX_CONCURRENT_EXECUTIONS)
        self._wait_s = self.EXECUTE_WAIT_S \
            if execute_wait_s is None else execute_wait_s
        #: key → message of the most recent failed execution; cleared
        #: by the next success on that key.
        self._errors: dict[tuple[str, int, str], str] = {}
        #: key → monotonic count of *finished* execution attempts
        #: (success or failure); waiters snapshot it to recognise the
        #: attempt they slept through (see server/cache.py).
        self._tokens: dict[tuple[str, int, str], int] = {}
        self._stats = {"hits": 0, "executions": 0, "coalesced": 0,
                       "failures": 0, "stale_served": 0, "shed": 0,
                       "invalidations": 0,
                       "disk_hits": 0, "disk_stores": 0}

    # -- internals ---------------------------------------------------------

    def _key_lock(self, key: tuple[str, int, str]) -> threading.Lock:
        with self._meta_lock:
            lock = self._key_locks.get(key)
            if lock is None:
                lock = self._key_locks[key] = threading.Lock()
            return lock

    _COUNTER = {"hits": "olap.cache.hit",
                "executions": "olap.cache.execute",
                "coalesced": "olap.cache.coalesced",
                "failures": "olap.cache.failure",
                "stale_served": "olap.cache.stale_served",
                "shed": "olap.cache.shed",
                "invalidations": "olap.cache.invalidation",
                "disk_hits": "olap.cache.disk_hit",
                "disk_stores": "olap.cache.disk_store"}

    def _bump(self, stat: str) -> None:
        with self._meta_lock:
            self._stats[stat] += 1
        if _REC.enabled:
            _REC.count(self._COUNTER[stat])

    def _fresh(self, key: tuple[str, int, str],
               content_hash: str) -> AggregateEntry | None:
        entry = self._entries.get(key)
        if entry is not None and entry.content_hash == content_hash:
            return entry
        return None

    # -- public API --------------------------------------------------------

    def entry(self, name: str, content_hash: str, seed: int,
              query_key: str, execute: Callable[[], AggregateEntry]
              ) -> tuple[AggregateEntry, str]:
        """The materialized result, executing only on staleness.

        Returns ``(entry, outcome)`` where *outcome* is ``"hit"``
        (fresh, lock-free), ``"executed"`` (this request ran the
        query), ``"coalesced"`` (another request executed it while we
        waited) or ``"stale"`` (the execution failed; *entry* is the
        previous materialization — its ``content_hash`` differs from
        the record's).  Raises :class:`QueryOverloadError` when shed
        and :class:`QueryExecutionError` when a failure has no stale
        fallback.
        """
        key = (name, seed, query_key)
        entry = self._fresh(key, content_hash)
        if entry is not None:
            self._bump("hits")
            return entry, "hit"
        token_before = self._tokens.get(key, 0)
        with self._key_lock(key):
            entry = self._fresh(key, content_hash)
            if entry is not None:
                # Another request materialized it while we waited.
                self._bump("coalesced")
                return entry, "coalesced"
            if self._buildstore is not None:
                entry = self._buildstore.load_aggregate(
                    name, content_hash, seed, query_key)
                if entry is not None:
                    # A peer process already materialized this query
                    # for these bytes; adopt its artifact.  Outranks
                    # the shared-failure check: a fresh artifact on
                    # disk supersedes a local failed attempt.
                    self._bump("disk_hits")
                    with self._meta_lock:
                        self._errors.pop(key, None)
                    self._entries[key] = entry
                    return entry, "hit"
            with self._meta_lock:
                failed = key in self._errors
            if failed and self._tokens.get(key, 0) != token_before:
                # The attempt we slept through finished, failed, and
                # left the entry stale: share its outcome.  (One that
                # succeeded for another content hash — a re-upload
                # raced this request — is no failure: execute ours.)
                self._bump("coalesced")
                return self._degraded(key), "stale"
            if not self._slots.acquire(timeout=self._wait_s):
                self._bump("shed")
                raise QueryOverloadError(name, query_key,
                                         self.RETRY_AFTER_S)
            try:
                entry, outcome = self._execute_locked(
                    name, content_hash, seed, query_key, execute)
            except Exception as exc:
                self._bump("failures")
                with self._meta_lock:
                    self._errors[key] = f"{type(exc).__name__}: {exc}"
                return self._degraded(key), "stale"
            else:
                with self._meta_lock:
                    self._errors.pop(key, None)
                self._entries[key] = entry
                return entry, outcome
            finally:
                self._slots.release()
                with self._meta_lock:
                    self._tokens[key] = self._tokens.get(key, 0) + 1

    def _execute_locked(self, name: str, content_hash: str, seed: int,
                        query_key: str,
                        execute: Callable[[], AggregateEntry]
                        ) -> tuple[AggregateEntry, str]:
        """One execution attempt, fleet-coalesced when a store is wired.

        With a build store the execution runs under the cross-process
        file lock for this (hash, seed, query) — a loser of the lock
        race adopts the winner's artifact from the post-lock disk
        re-check (outcome ``"coalesced"``, the cross-process analogue
        of waiting on the key lock).  ``executions`` counts only
        queries that actually ran, fleet-wide.
        """
        if self._buildstore is None:
            self._bump("executions")
            return execute(), "executed"
        with self._buildstore.lock(
                "olap", f"{content_hash}-{seed}-{query_key}"):
            entry = self._buildstore.load_aggregate(
                name, content_hash, seed, query_key)
            if entry is not None:
                self._bump("disk_hits")
                return entry, "coalesced"
            self._bump("executions")
            entry = execute()
            if self._buildstore.store_aggregate(entry):
                self._bump("disk_stores")
            return entry, "executed"

    def _degraded(self, key: tuple[str, int, str]) -> AggregateEntry:
        """The stale entry after a failed execution, or raise."""
        stale = self._entries.get(key)
        if stale is not None:
            self._bump("stale_served")
            return stale
        with self._meta_lock:
            cause = self._errors.get(key, "execution failed")
        raise QueryExecutionError(key[0], key[2], cause)

    def execution_error(self, name: str, seed: int,
                        query_key: str) -> str | None:
        """The most recent failure for one key, if any (degraded mode)."""
        with self._meta_lock:
            return self._errors.get((name, seed, query_key))

    def invalidate(self, name: str) -> int:
        """Drop every materialization of *name*; returns entries removed.

        A changed content hash already invalidates lazily; DELETE uses
        this to free memory and clear degraded-mode markers.
        """
        removed = 0
        with self._meta_lock:
            for key in [k for k in self._entries if k[0] == name]:
                del self._entries[key]
                removed += 1
            for key in [k for k in self._errors if k[0] == name]:
                del self._errors[key]
            for key in [k for k in self._tokens if k[0] == name]:
                del self._tokens[key]
            for key in [k for k in self._key_locks if k[0] == name]:
                del self._key_locks[key]
        if removed:
            self._bump("invalidations")
        return removed

    def info(self) -> dict:
        """``cache_info()`` shape, so /stats and /metrics treat every
        cache uniformly (hits fold in coalesced waiters — requests
        answered without a fresh execution)."""
        with self._meta_lock:
            return {
                "hits": self._stats["hits"] + self._stats["coalesced"],
                "misses": self._stats["executions"],
                "currsize": len(self._entries),
                "maxsize": None,
            }

    def stats(self) -> dict:
        """Hit/execution/coalesced/shed counters plus sizes."""
        with self._meta_lock:
            stats = dict(self._stats)
            stats["entries"] = len(self._entries)
            stats["degraded_keys"] = [
                f"{key[0]}/{key[1]}/{key[2][:12]}"
                for key in sorted(self._errors)]
        # list() copies in one C call, with no thread switch inside: a
        # first XML request may add to an entry's renderings meanwhile.
        stats["resident_bytes"] = sum(
            len(data) for entry in list(self._entries.values())
            for data in list(entry.renderings.values()))
        return stats
