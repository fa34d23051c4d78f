"""The materialized-aggregate cache (DESIGN.md §16).

:class:`AggregateCache` is the shared
:class:`~repro.coalesce.CoalescingCache` (DESIGN.md §11.3) keyed
``(model name, data seed, canonical query key)``, for the
compute-bound traffic class.  A re-upload rolls the hash, so every
materialized aggregate of that model lazily recomputes on next touch.

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

from ...coalesce import CoalescingCache

__all__ = ["AggregateCache", "AggregateEntry"]


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


class AggregateCache(CoalescingCache):
    """Content-hash keyed cache of :class:`AggregateEntry` objects."""

    BUILDS = "executions"
    _COUNTER = {"hits": "olap.cache.hit",
                "executions": "olap.cache.execute",
                "coalesced": "olap.cache.coalesced",
                "failures": "olap.cache.failure",
                "stale_served": "olap.cache.stale_served",
                "shed": "olap.cache.shed",
                "invalidations": "olap.cache.invalidation",
                "disk_hits": "olap.cache.disk_hit",
                "disk_stores": "olap.cache.disk_store"}

    def __init__(self, *, max_concurrent_executions: int | None = None,
                 execute_wait_s: float | None = None) -> None:
        super().__init__(max_concurrent_executions, execute_wait_s)

    @staticmethod
    def _size(entry: AggregateEntry) -> int:
        # list() copies in one C call, with no thread switch inside: a
        # first XML request may add to an entry's renderings meanwhile.
        return sum(len(data) for data in list(entry.renderings.values()))

    def entry(self, name: str, content_hash: str, seed: int,
              query_key: str, execute: Callable[[], AggregateEntry],
              disk=None) -> tuple[AggregateEntry, str]:
        """The materialized result, executing only on staleness.

        Returns ``(entry, outcome)`` where *outcome* is ``"hit"``
        (fresh, lock-free), ``"executed"`` (this request ran the
        query), ``"coalesced"`` (another request executed it while we
        waited) or ``"stale"`` (the execution failed; *entry* is the
        previous materialization — its ``content_hash`` differs from
        the record's).  *disk* is the disk tier, as in
        :meth:`CoalescingCache.get`.
        """
        entry, outcome = self.get((name, seed, query_key), content_hash,
                                  execute, disk)
        return entry, "executed" if outcome == "built" else outcome
