"""Always-on rolling telemetry: per-second buckets and quantile sketches.

The PR 3 :mod:`repro.obs.recorder` is a *profiler*: armed per run,
snapshotted after the fact, zero-overhead when disabled.  Production
operators need the opposite trade: a metric surface that is **always
on**, cheap enough to leave enabled at full request rate, and carries a
*time dimension* so "requests per second over the last minute" and
"p99 over the last five minutes" are answerable at any instant
(DESIGN.md §15).

Two pieces, both stdlib-only and import-free within the package:

* :class:`QuantileSketch` — a streaming histogram over log-spaced
  buckets (growth factor :data:`GAMMA`).  Recording is O(1): one
  ``log``, one dict increment.  Quantile queries return the upper bound
  of the bucket holding the requested order statistic, which bounds the
  relative error by one bucket: for the exact q-quantile ``x`` the
  estimate ``x̂`` satisfies ``x <= x̂ < GAMMA * x`` (documented bound,
  pinned by Hypothesis tests in ``tests/obs/test_rolling_properties``).
  Merging two sketches adds their bucket counts, so per-window merges
  commute and lose nothing.
* :class:`RollingWindow` — one ring of per-second buckets (counters
  plus sketches) and one set of lifetime totals, sized to the largest
  window it must answer.  Each writer thread writes to a small buffer
  of its own that holds only what it wrote in its current second, so
  the armed hot path is a couple of dict ops under a lock no other
  writer takes.  A buffer folds into the ring when its second rolls
  over, before any read, and after its thread has died.  Memory is
  O(window + live threads): the ring overwrites slots in place, so a
  server up for a month holds exactly as many buckets as one up for
  twenty minutes.

The clock is injectable (seconds, monotonic by convention) so tests
advance time explicitly — no wall-clock reads are needed to exercise
rollover, skew, or reclaim behaviour.
"""

from __future__ import annotations

import math
import threading
import time

__all__ = [
    "GAMMA",
    "MIN_TRACKED",
    "QuantileSketch",
    "RollingWindow",
    "WINDOWS",
]

#: Per-bucket growth factor of the log-spaced sketch: one bucket spans
#: ``(GAMMA**(i-1), GAMMA**i]``, bounding quantile relative error at
#: ``GAMMA - 1`` (10%).
GAMMA = 1.1

#: Values at or below this (seconds) collapse into the zero bucket —
#: nothing the server times is faster than a nanosecond.
MIN_TRACKED = 1e-9

#: The standard reporting windows (seconds): 1m / 5m / 15m.
WINDOWS = (60, 300, 900)

_LOG_GAMMA = math.log(GAMMA)


class QuantileSketch:
    """A mergeable streaming histogram with bounded-error quantiles."""

    __slots__ = ("buckets", "zeros", "count", "total")

    def __init__(self) -> None:
        #: bucket index -> observation count; index ``i`` covers the
        #: value interval ``(GAMMA**(i-1), GAMMA**i]``.
        self.buckets: dict[int, int] = {}
        self.zeros = 0
        self.count = 0
        self.total = 0.0

    @staticmethod
    def bucket_index(value: float) -> int:
        """The index of the bucket covering *value* (> MIN_TRACKED)."""
        return math.ceil(math.log(value) / _LOG_GAMMA)

    @staticmethod
    def bucket_upper(index: int) -> float:
        """The inclusive upper value bound of bucket *index*."""
        return GAMMA ** index

    def add(self, value: float, n: int = 1) -> None:
        """Record *value* *n* times (O(1): one log, one dict op)."""
        self.count += n
        self.total += value * n
        if value <= MIN_TRACKED:
            self.zeros += n
            return
        index = math.ceil(math.log(value) / _LOG_GAMMA)
        buckets = self.buckets
        buckets[index] = buckets.get(index, 0) + n

    def add_indexed(self, index: int | None, value: float) -> None:
        """:meth:`add` with the bucket index precomputed (None = zero).

        The per-request path feeds one observation into two sketches
        (cumulative and the current second's bucket); computing the
        ``log`` once and bumping both via this method halves the
        transcendental work.
        """
        self.count += 1
        self.total += value
        if index is None:
            self.zeros += 1
        else:
            buckets = self.buckets
            buckets[index] = buckets.get(index, 0) + 1

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold *other* into this sketch; merging commutes."""
        self.count += other.count
        self.total += other.total
        self.zeros += other.zeros
        buckets = self.buckets
        for index, n in other.buckets.items():
            buckets[index] = buckets.get(index, 0) + n
        return self

    def copy(self) -> "QuantileSketch":
        clone = QuantileSketch()
        clone.buckets = dict(self.buckets)
        clone.zeros = self.zeros
        clone.count = self.count
        clone.total = self.total
        return clone

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile estimate (upper bucket bound at that rank).

        Guarantee: with ``x`` the exact order statistic at rank
        ``ceil(q * count)``, the returned value lies in
        ``[x, GAMMA * x)`` — at most one bucket above, never below.
        Returns 0.0 for an empty sketch.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q!r} outside [0, 1]")
        if not self.count:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        if target <= self.zeros:
            return 0.0
        cumulative = self.zeros
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= target:
                return GAMMA ** index
        return GAMMA ** max(self.buckets)  # pragma: no cover (float slop)

    def fraction_above(self, threshold: float) -> float:
        """The fraction of observations strictly above *threshold*.

        Bucket-resolution approximation: observations sharing the
        threshold's bucket count as *not above* (their true values may
        sit either side), so the answer is exact to within one bucket's
        mass — the right direction for burn-rate alerts, which should
        not fire on values inside the measurement error.
        """
        if not self.count:
            return 0.0
        if threshold <= MIN_TRACKED:
            return (self.count - self.zeros) / self.count
        limit = math.ceil(math.log(threshold) / _LOG_GAMMA)
        above = sum(n for index, n in self.buckets.items() if index > limit)
        return above / self.count

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ascending.

        The Prometheus histogram shape: each pair says "this many
        observations were <= upper_bound"; the final implicit +Inf
        bucket is :attr:`count`.
        """
        pairs: list[tuple[float, int]] = []
        cumulative = self.zeros
        if self.zeros:
            pairs.append((MIN_TRACKED, cumulative))
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            pairs.append((GAMMA ** index, cumulative))
        return pairs

    def as_dict(self) -> dict:
        return {"count": self.count, "total": self.total,
                "mean": self.mean, "p50": self.quantile(0.5),
                "p99": self.quantile(0.99)}


class _Bucket:
    """One second's accumulation: counters plus named sketches."""

    __slots__ = ("second", "counters", "sketches")

    def __init__(self, second: int) -> None:
        self.second = second
        self.counters: dict[str, int] = {}
        self.sketches: dict[str, QuantileSketch] = {}


class _Buffer:
    """One writer thread's writes in its current second.

    This is all the armed hot path touches: one lock no other writer
    takes, one clock read, and a dict bump or a list append.  At full
    request rate the telemetry cost is made of cache misses, not
    instruction count, so a request lands on the small hot dicts its
    thread touched a moment ago instead of the cold ring and sketches.
    The writes fold into the ring when the second rolls over (see
    :meth:`RollingWindow._fold`).
    """

    __slots__ = ("window", "clock", "thread", "lock", "second",
                 "counters", "hits", "observations")

    def __init__(self, window: "RollingWindow") -> None:
        self.window = window
        self.clock = window._clock
        self.thread = threading.current_thread()
        self.lock = threading.Lock()
        #: The second the pending writes belong to (None: nothing pending).
        self.second: int | None = None
        self.counters: dict[str, int] = {}
        #: counter-name tuple -> request count; the fused request path
        #: (:meth:`record_hit`) bumps one entry per request instead of
        #: one per counter, and the fold fans the tuple back out.
        self.hits: dict[tuple, int] = {}
        #: sketch name -> pending values; the lists are emptied in
        #: place at fold and reused, so a steady-state request adds
        #: one float to a hot list — no GC-tracked allocation at all.
        self.observations: dict[str, list[float]] = {}

    def fold(self) -> None:
        """Move the pending second into the ring (buffer lock held)."""
        if self.second is not None:
            self.window._fold(self)
            self.second = None

    def _roll(self) -> None:
        """Fold if the clock has left the pending second (lock held)."""
        second = int(self.clock())
        if second != self.second:
            self.fold()
            self.second = second

    def inc(self, name: str, n: int = 1) -> None:
        with self.lock:
            self._roll()
            counters = self.counters
            counters[name] = counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        with self.lock:
            self._roll()
            values = self.observations.get(name)
            if values is None:
                values = self.observations[name] = []
            values.append(value)

    def record(self, counters: dict[str, int],
               observations: dict[str, float] | None = None) -> None:
        with self.lock:
            self._roll()
            pending = self.counters
            for name, n in counters.items():
                pending[name] = pending.get(name, 0) + n
            if observations:
                obs = self.observations
                for name, value in observations.items():
                    values = obs.get(name)
                    if values is None:
                        values = obs[name] = []
                    values.append(value)

    def record_hit(self, names: tuple, sized_name: str | None,
                   size: int, obs_name: str, obs_value: float) -> None:
        with self.lock:
            self._roll()
            hits = self.hits
            hits[names] = hits.get(names, 0) + 1
            if sized_name is not None:
                pending = self.counters
                pending[sized_name] = pending.get(sized_name, 0) + size
            values = self.observations.get(obs_name)
            if values is None:
                values = self.observations[obs_name] = []
            values.append(obs_value)


class RollingWindow:
    """Time-windowed counters and latency sketches over a bucket ring.

    * ``inc``/``observe``/``record``/``record_hit`` are the armed hot
      path; they write to the calling thread's :class:`_Buffer`.  Each
      write also feeds *cumulative* totals (monotonic since
      construction — the ``/metrics`` counter surface) so windowed
      rates and lifetime counters never disagree about the past.
    * Every read first folds every buffer, then reads the one ring.
      Windowed reads (``window_counters`` / ``window_sketch``) merge
      only the buckets whose stamped second falls inside
      ``(now - window, now]``; a stale slot left from a clock jump is
      filtered by its stamp, never double-counted.
    * The ring is fixed at ``window_s`` slots; second ``t`` lands in
      slot ``t % window_s``, evicting an older second that lived there
      — reclaim is free and memory is O(window + live threads), not
      O(uptime).
    * Lock order: the registry lock, then a buffer's lock, then the
      ring lock.  Nothing takes a buffer's lock while it holds the
      ring lock, and a writer takes the ring lock once per second.
    """

    def __init__(self, *, window_s: int = WINDOWS[-1],
                 clock=time.monotonic) -> None:
        if window_s < 1:
            raise ValueError("window_s must be at least one second")
        self.window_s = window_s
        self._clock = clock
        self._lock = threading.Lock()
        self._ring: list[_Bucket | None] = [None] * window_s
        self._totals: dict[str, int] = {}
        self._total_sketches: dict[str, QuantileSketch] = {}
        self._local = threading.local()
        self._registry_lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._started = clock()

    # -- recording (the armed hot path) ------------------------------------

    def buffer_for_thread(self) -> _Buffer:
        """This thread's write buffer, for callers that cache it.

        The telemetry finish path resolves its buffer once per thread
        (and re-resolves only if the window object changes) instead of
        paying the ``threading.local`` lookup per request.  Safe to
        hold: a live thread's buffer is never dropped, and folding
        moves its writes without invalidating it.
        """
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = self._local.buffer = _Buffer(self)
            with self._registry_lock:
                self._buffers.append(buffer)
            # Registering is when dead threads' buffers go, so the
            # registry stays O(live threads) under thread-per-connection.
            self._fold_buffers()
        return buffer

    def inc(self, name: str, n: int = 1) -> None:
        """Add *n* to counter *name* (cumulative and current second)."""
        self.buffer_for_thread().inc(name, n)

    def observe(self, name: str, value: float) -> None:
        """Record *value* into sketch *name* (cumulative and windowed)."""
        self.buffer_for_thread().observe(name, value)

    def record(self, counters: dict[str, int],
               observations: dict[str, float] | None = None) -> None:
        """Apply many counters and observations atomically.

        One lock acquisition and one clock read for a whole request's
        worth of increments.
        """
        self.buffer_for_thread().record(counters, observations)

    def record_hit(self, names: tuple, sized_name: str | None,
                   size: int, obs_name: str, obs_value: float) -> None:
        """:meth:`record` for the common single-request shape.

        *names* are counters incremented by one, *sized_name* (if any)
        by *size*, and *obs_value* lands in sketch *obs_name*.  The
        caller precomputes *names* once per (status, flags, model)
        combination, so the armed hot path skips building and
        iterating a scratch dict entirely — it is the fused form of
        what :meth:`repro.server.telemetry.ServerTelemetry.finish`
        used to assemble per request.  Because callers intern the
        names tuple, the whole counter side of a request is one dict
        bump; the fold fans it out per name.
        """
        self.buffer_for_thread().record_hit(names, sized_name, size,
                                            obs_name, obs_value)

    # -- folding -----------------------------------------------------------

    def _fold(self, buffer: _Buffer) -> None:
        """Add *buffer*'s pending second to the totals and the ring.

        Called with the buffer's lock held.  The one fold rule: second
        ``s`` goes to slot ``s % window_s``.  An older second there is
        replaced, ``s`` itself is added to, and a newer second means
        ``s`` is outside every window, so it reaches the totals only
        and the newer bucket stays intact.  Pending data moves — it is
        never re-read — so totals stay monotonic and nothing is
        counted twice.
        """
        second = buffer.second
        with self._lock:
            slot = second % self.window_s
            bucket = self._ring[slot]
            if bucket is None or bucket.second < second:
                bucket = self._ring[slot] = _Bucket(second)
            elif bucket.second > second:
                bucket = _Bucket(second)  # totals only: dropped below
            totals = self._totals
            counters = bucket.counters
            for name, n in buffer.counters.items():
                totals[name] = totals.get(name, 0) + n
                counters[name] = counters.get(name, 0) + n
            for names, count in buffer.hits.items():
                for name in names:
                    totals[name] = totals.get(name, 0) + count
                    counters[name] = counters.get(name, 0) + count
            for name, values in buffer.observations.items():
                if not values:
                    continue
                sketch = self._total_sketches.get(name)
                if sketch is None:
                    sketch = self._total_sketches[name] = QuantileSketch()
                windowed = bucket.sketches.get(name)
                if windowed is None:
                    windowed = bucket.sketches[name] = QuantileSketch()
                for value in values:
                    if value <= MIN_TRACKED:
                        index = None
                    else:
                        index = math.ceil(math.log(value) / _LOG_GAMMA)
                    sketch.add_indexed(index, value)
                    windowed.add_indexed(index, value)
                del values[:]
        buffer.counters.clear()
        buffer.hits.clear()

    def _fold_buffers(self) -> None:
        """Fold every buffer into the ring; drop dead threads' buffers.

        Every read starts here, so no write is ever invisible.  A
        thread's liveness is read *before* its buffer folds: a thread
        already dead can write nothing after the fold, and one that
        dies just after is kept until the next pass.
        """
        with self._registry_lock:
            live = []
            for buffer in self._buffers:
                alive = buffer.thread.is_alive()
                with buffer.lock:
                    buffer.fold()
                if alive:
                    live.append(buffer)
            self._buffers = live

    # -- reading (snapshot time) -------------------------------------------

    def uptime_s(self) -> float:
        return self._clock() - self._started

    def totals(self) -> dict[str, int]:
        """Cumulative counters since construction (monotonic)."""
        self._fold_buffers()
        with self._lock:
            return dict(self._totals)

    def total(self, name: str) -> int:
        self._fold_buffers()
        with self._lock:
            return self._totals.get(name, 0)

    def total_sketch(self, name: str) -> QuantileSketch:
        """A copy of the cumulative sketch *name* (empty if unknown)."""
        self._fold_buffers()
        with self._lock:
            sketch = self._total_sketches.get(name)
            return sketch.copy() if sketch is not None else QuantileSketch()

    def sketch_names(self) -> list[str]:
        self._fold_buffers()
        with self._lock:
            return sorted(self._total_sketches)

    def _window_buckets(self, window_s: int) -> list[_Bucket]:
        """Buckets inside ``(now - window_s, now]`` (ring lock held)."""
        window_s = min(window_s, self.window_s)
        now = int(self._clock())
        low = now - window_s
        return [bucket for bucket in self._ring
                if bucket is not None and low < bucket.second <= now]

    def window_counters(self, window_s: int) -> dict[str, int]:
        """Summed counters over the trailing *window_s* seconds."""
        merged: dict[str, int] = {}
        self._fold_buffers()
        with self._lock:
            for bucket in self._window_buckets(window_s):
                for name, n in bucket.counters.items():
                    merged[name] = merged.get(name, 0) + n
        return merged

    def window_sketch(self, name: str, window_s: int) -> QuantileSketch:
        """Sketch *name* merged over the trailing *window_s* seconds."""
        merged = QuantileSketch()
        self._fold_buffers()
        with self._lock:
            for bucket in self._window_buckets(window_s):
                sketch = bucket.sketches.get(name)
                if sketch is not None:
                    merged.merge(sketch)
        return merged

    def series(self, name: str, seconds: int = 60) -> list[int]:
        """Per-second values of counter *name*, oldest to newest.

        Exactly *seconds* entries ending at the current second; seconds
        with no bucket (idle or reclaimed) read as zero.
        """
        seconds = min(seconds, self.window_s)
        self._fold_buffers()
        with self._lock:
            now = int(self._clock())
            by_second = {bucket.second: bucket.counters.get(name, 0)
                         for bucket in self._ring if bucket is not None}
        return [by_second.get(second, 0)
                for second in range(now - seconds + 1, now + 1)]

    def bucket_count(self) -> int:
        """Occupied ring slots (bounded by ``window_s`` forever)."""
        self._fold_buffers()
        with self._lock:
            return sum(1 for bucket in self._ring if bucket is not None)

    def rate(self, name: str, window_s: int) -> float:
        """Counter *name* per second over the trailing window."""
        return self.window_counters(window_s).get(name, 0) / window_s

    def snapshot(self, windows: tuple[int, ...] = WINDOWS) -> dict:
        """A JSON-ready view: totals, windowed rates, and quantiles."""
        snap: dict = {
            "uptime_s": self.uptime_s(),
            "window_s": self.window_s,
            "totals": self.totals(),
            "windows": {},
        }
        for window_s in windows:
            window_s = min(window_s, self.window_s)
            entry = {"counters": self.window_counters(window_s),
                     "sketches": {}}
            for name in self.sketch_names():
                sketch = self.window_sketch(name, window_s)
                if sketch.count:
                    entry["sketches"][name] = sketch.as_dict()
            snap["windows"][str(window_s)] = entry
        return snap
