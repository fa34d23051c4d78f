"""One content-hash keyed build cache under the site and OLAP caches.

The server derives two kinds of artifact from a stored model: its
published sites (DESIGN.md §11) and its materialized OLAP aggregates
(§16).  Both are pure functions of the model's bytes, so both are
cached by :class:`CoalescingCache` under one contract (DESIGN.md
§11.3):

* **Keyed on content.**  An entry sits under a key that starts with the
  model name, and carries the ``content_hash`` it was built from.  A
  lookup whose hash matches is one dict read and one compare, with no
  lock.  A re-upload rolls the hash, so the next request for each key
  of that model rebuilds.
* **One build per key and hash.**  Builds serialize on a per-key lock:
  of N requests that miss at once, one builds and the rest wait,
  re-check and find its entry.  Distinct keys build in parallel.
* **The waiter rule.**  A waiter snapshots the key's attempt count
  before it blocks.  It shares the outcome of the attempt it slept
  through only if that attempt failed, so a burst against a fault
  makes one doomed build, not N.  If the attempt succeeded for another
  content hash (the waiter read its record just before a re-upload),
  the waiter builds its own, so "stale" always means a failed build.
* **Bounded builds.**  A build that cannot get one of the slots within
  the wait budget is shed (:class:`CacheOverloadError`, 503 +
  Retry-After) instead of queueing.
* **Serve stale.**  A failed build serves the previous entry of its key
  when there is one, and raises :class:`CacheBuildError` when there is
  not.  The next request after a failure retries; nothing is poisoned.
* **The disk tier.**  With one wired, the slow path first loads a
  peer process's artifact (which outranks a failure remembered here),
  then takes the cross-process lock of these bytes, loads again,
  and only then builds and stores.
* **Invalidation.**  Dropping a model waits out each in-flight build of
  its keys, then drops their entries and failure markers.

Subclasses adapt the cache to one artifact: they name its counters,
say how many bytes an entry holds, and build.
"""

from __future__ import annotations

import threading
from typing import Callable

__all__ = ["CacheBuildError", "CacheOverloadError", "CoalescingCache"]


def _label(key: tuple) -> str:
    return "/".join(str(part) for part in key)


class CacheOverloadError(Exception):
    """A build was shed: no build slot within the wait budget."""

    def __init__(self, key: tuple, retry_after_s: int) -> None:
        super().__init__(f"build of {_label(key)} shed under load; retry "
                         f"in {retry_after_s}s")
        self.name = key[0]
        self.retry_after_s = retry_after_s


class CacheBuildError(Exception):
    """A build failed and no stale entry exists to serve instead."""

    def __init__(self, key: tuple, cause: str) -> None:
        super().__init__(f"build of {_label(key)} failed: {cause}")
        self.name = key[0]
        self.cause = cause


class CoalescingCache:
    """Entries built once per key and content hash; see the module
    docstring for the contract."""

    #: Bound on concurrent builds across all keys: enough to keep
    #: distinct keys building in parallel, small enough that a burst of
    #: invalidations degrades to shedding instead of a convoy of builds
    #: starving the serving threads.
    SLOTS = 4
    #: How long a build may wait for a slot before it is shed.
    WAIT_S = 5.0
    #: The Retry-After hint attached to shed responses.
    RETRY_AFTER_S = 1

    #: The subclass's stat names, in ``stats()`` order.  They include
    #: every stat :meth:`get` bumps.
    STATS: tuple[str, ...] = ()
    #: The subclass's names for the stats of a build that ran and of
    #: one that failed.
    BUILDS = "builds"
    FAILURES = "failures"

    def __init__(self, slots: int | None = None,
                 wait_s: float | None = None) -> None:
        self._meta_lock = threading.Lock()
        self._entries: dict[tuple, object] = {}
        #: key → its build lock, created on first use and never dropped,
        #: so every request for one key serializes on one lock object.
        self._locks: dict[tuple, threading.Lock] = {}
        self._slots = threading.BoundedSemaphore(slots or self.SLOTS)
        self._wait_s = self.WAIT_S if wait_s is None else wait_s
        #: key → message of the most recent failed build; cleared by the
        #: next success, or by invalidation.
        self._errors: dict[tuple, str] = {}
        #: key → count of finished build attempts (success or failure),
        #: which waiters snapshot to recognise the attempt they slept
        #: through.
        self._attempts: dict[tuple, int] = {}
        self._stats = dict.fromkeys(self.STATS, 0)

    # -- subclass hooks -----------------------------------------------------

    @staticmethod
    def _size(entry) -> int:
        """The bytes *entry* holds (for ``resident_bytes``)."""
        raise NotImplementedError

    def _bump(self, stat: str) -> None:
        with self._meta_lock:
            self._stats[stat] += 1

    def _key_lock(self, key: tuple) -> threading.Lock:
        with self._meta_lock:
            lock = self._locks.get(key)
            if lock is None:
                lock = self._locks[key] = threading.Lock()
            return lock

    # -- the contract -------------------------------------------------------

    def get(self, key: tuple, content_hash: str, build: Callable,
            disk: tuple[Callable, Callable, Callable] | None = None
            ) -> tuple[object, str]:
        """``(entry, outcome)`` for *key* at *content_hash*, building
        only on staleness.

        *build* returns a fresh entry.  *disk*, when given, is the disk
        tier ``(load, flock, store)``: ``load()`` returns a stored entry
        for these bytes or None, ``flock()`` is a context manager that
        serializes their builds across processes, and ``store(entry)``
        persists a build, returning True when it wrote.

        *outcome* is ``"hit"`` (fresh without the lock, or adopted from
        disk before it), ``"built"`` (this request built it),
        ``"coalesced"`` (another thread or process built it while this
        request waited) or ``"stale"`` (the build failed: *entry* is the
        previous one, and its ``content_hash`` differs).  Raises
        :class:`CacheOverloadError` when shed and
        :class:`CacheBuildError` when a failure has no entry to fall
        back on.
        """
        entry = self._entries.get(key)
        if entry is not None and entry.content_hash == content_hash:
            self._bump("hits")
            return entry, "hit"
        attempts = self._attempts.get(key, 0)
        with self._key_lock(key):
            entry = self._entries.get(key)
            if entry is not None and entry.content_hash == content_hash:
                self._bump("coalesced")
                return entry, "coalesced"
            if disk is not None:
                entry = disk[0]()
                if entry is not None:
                    # A peer process already built these bytes: adopt
                    # them without a slot.  This outranks the shared
                    # failure below: a fresh artifact on disk supersedes
                    # a failed attempt remembered here.
                    self._bump("disk_hits")
                    self._keep(key, entry)
                    return entry, "hit"
            with self._meta_lock:
                failed = key in self._errors
            if failed and self._attempts.get(key, 0) != attempts:
                # The attempt this request slept through failed and
                # left the entry stale: share its outcome.
                self._bump("coalesced")
                return self._degraded(key)
            if not self._slots.acquire(timeout=self._wait_s):
                self._bump("shed")
                raise CacheOverloadError(key, self.RETRY_AFTER_S)
            try:
                entry, outcome = self._attempt_build(build, disk)
            except Exception as exc:
                self._bump(self.FAILURES)
                with self._meta_lock:
                    self._errors[key] = f"{type(exc).__name__}: {exc}"
                return self._degraded(key)
            else:
                self._keep(key, entry)
                return entry, outcome
            finally:
                self._slots.release()
                with self._meta_lock:
                    self._attempts[key] = self._attempts.get(key, 0) + 1

    def _attempt_build(self, build: Callable, disk) -> tuple[object, str]:
        """One build attempt, under the disk tier's lock when wired.

        Losers of the cross-process lock race find the winner's
        artifact on the re-check and adopt it, so ``BUILDS`` counts only
        builds that ran, fleet-wide.  The lock dies with its process,
        so a builder killed mid-build never wedges the key.
        """
        if disk is None:
            self._bump(self.BUILDS)
            return build(), "built"
        load, flock, store = disk
        with flock():
            entry = load()
            if entry is not None:
                self._bump("disk_hits")
                return entry, "coalesced"
            self._bump(self.BUILDS)
            entry = build()
            if store(entry):
                self._bump("disk_stores")
            return entry, "built"

    def _keep(self, key: tuple, entry) -> None:
        with self._meta_lock:
            self._errors.pop(key, None)
        self._entries[key] = entry

    def _degraded(self, key: tuple) -> tuple[object, str]:
        """Serve the stale entry after a failed build, or raise.

        Called with the key lock held.  The stale entry keeps its old
        content hash, which is how callers recognise it.
        """
        stale = self._entries.get(key)
        if stale is not None:
            self._bump("stale_served")
            return stale, "stale"
        with self._meta_lock:
            cause = self._errors.get(key, "build failed")
        raise CacheBuildError(key, cause)

    def invalidate(self, name: str) -> int:
        """Drop every entry of model *name*; returns how many.

        A changed content hash already invalidates lazily; DELETE uses
        this to free memory.  Each key's in-flight build finishes first,
        so none stores its entry after the drop.  Failure markers go
        with the entries: a re-created model starts clean.
        """
        with self._meta_lock:
            keys = [key for key in self._locks if key[0] == name]
        removed = 0
        for key in keys:
            with self._key_lock(key):
                if self._entries.pop(key, None) is not None:
                    removed += 1
                with self._meta_lock:
                    self._errors.pop(key, None)
        if removed:
            self._bump("invalidations")
        return removed

    # -- introspection ------------------------------------------------------

    def info(self) -> dict:
        """``cache_info()`` shape, so /stats and /metrics treat every
        cache uniformly (hits fold in coalesced waiters: requests
        answered without a build)."""
        with self._meta_lock:
            return {
                "hits": self._stats["hits"] + self._stats["coalesced"],
                "misses": self._stats[self.BUILDS],
                "currsize": len(self._entries),
                "maxsize": None,
            }

    def stats(self) -> dict:
        """The counters, plus entries, resident bytes and the keys in
        degraded mode (their latest build failed)."""
        with self._meta_lock:
            stats = dict(self._stats)
            stats["entries"] = len(self._entries)
            stats["degraded_keys"] = [_label(key)
                                      for key in sorted(self._errors)]
        # list() copies in one C call, with no thread switch inside.
        stats["resident_bytes"] = sum(
            self._size(entry) for entry in list(self._entries.values()))
        return stats
