"""Rolling-window behaviour under an injectable clock.

These tests drive :class:`repro.obs.rolling.RollingWindow` with a
manual clock: windows must advance, buckets must roll over without
double-counting, clock skew must never corrupt a window, and memory
must stay O(window) regardless of uptime (ISSUE 8 satellite c).
"""

import sys
import threading
import time

import pytest

from repro.obs.rolling import GAMMA, QuantileSketch, RollingWindow


class ManualClock:
    """A settable seconds clock for deterministic window tests."""

    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float = 1.0) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return ManualClock()


@pytest.fixture
def window(clock):
    return RollingWindow(window_s=60, clock=clock)


class TestCounters:
    def test_inc_lands_in_current_second_and_totals(self, window):
        window.inc("req", 3)
        assert window.total("req") == 3
        assert window.window_counters(60) == {"req": 3}

    def test_window_excludes_older_seconds(self, window, clock):
        window.inc("req")
        clock.tick(10)
        window.inc("req")
        assert window.window_counters(5) == {"req": 1}
        assert window.window_counters(60) == {"req": 2}
        # Totals never forget.
        assert window.total("req") == 2

    def test_rate_is_per_second(self, window, clock):
        for _ in range(30):
            clock.tick(1)
            window.inc("req")
        # Window (now-30, now] covers exactly the 30 incremented seconds.
        assert window.rate("req", 30) == pytest.approx(1.0)

    def test_record_batches_counters_and_observations(self, window):
        """The one-lock batch path lands exactly like serial inc/observe."""
        window.record({"req": 2, "bytes": 100}, {"lat": 0.004})
        window.record({"req": 1})
        assert window.total("req") == 3
        assert window.window_counters(60) == {"req": 3, "bytes": 100}
        assert window.total_sketch("lat").count == 1
        assert window.window_sketch("lat", 60).count == 1

    def test_counters_expire_out_of_the_largest_window(self, window, clock):
        window.inc("req", 5)
        clock.tick(61)
        assert window.window_counters(60) == {}
        assert window.total("req") == 5


class TestRollover:
    def test_slot_reuse_never_double_counts(self, window, clock):
        """Second t and t+window share a ring slot; the old bucket must
        be evicted, not summed into."""
        window.inc("req", 7)
        clock.tick(60)  # same slot, new second
        window.inc("req", 1)
        assert window.window_counters(60) == {"req": 1}

    def test_clock_regression_is_not_double_counted(self, window, clock):
        """A backwards clock step (skew) lands in an already-stamped
        second; reads filter on the stamp and never count a bucket
        twice."""
        window.inc("req")
        clock.tick(5)
        window.inc("req")
        clock.tick(-5)  # skew backwards onto the first second
        window.inc("req")
        # now = 1000 again: the t=1005 bucket is in the future and
        # filtered out; the t=1000 bucket holds both its increments.
        assert window.window_counters(60) == {"req": 2}
        assert window.total("req") == 3

    def test_memory_is_bounded_by_window_not_uptime(self, window, clock):
        """A month of uptime occupies no more ring slots than the
        window holds seconds."""
        for _ in range(5000):  # ~83 windows' worth of distinct seconds
            window.inc("req")
            clock.tick(1)
        assert window.bucket_count() <= 60
        assert window.total("req") == 5000

    def test_idle_gap_reads_zero_not_stale(self, window, clock):
        window.inc("req", 9)
        clock.tick(30)
        series = window.series("req", 60)
        assert len(series) == 60
        assert series[-1] == 0  # idle now
        assert series[-31] == 9  # the old second, still in window
        assert sum(series) == 9


class TestSketchWindows:
    def test_observe_feeds_window_and_totals(self, window, clock):
        window.observe("lat", 0.010)
        clock.tick(10)
        window.observe("lat", 0.020)
        recent = window.window_sketch("lat", 5)
        assert recent.count == 1
        assert window.window_sketch("lat", 60).count == 2
        assert window.total_sketch("lat").count == 2

    def test_windowed_quantile_reflects_only_recent_values(
            self, window, clock):
        for _ in range(100):
            window.observe("lat", 0.001)
        clock.tick(30)
        for _ in range(100):
            window.observe("lat", 0.100)
        p50_recent = window.window_sketch("lat", 10).quantile(0.5)
        assert 0.100 <= p50_recent < 0.100 * GAMMA
        # The cumulative sketch remembers both eras.
        total = window.total_sketch("lat")
        assert total.count == 200

    def test_snapshot_shape(self, window):
        window.inc("req")
        window.observe("lat", 0.002)
        snap = window.snapshot(windows=(60,))
        assert snap["totals"] == {"req": 1}
        entry = snap["windows"]["60"]
        assert entry["counters"] == {"req": 1}
        assert entry["sketches"]["lat"]["count"] == 1


class TestSketch:
    def test_quantile_upper_bounds_exact_value(self):
        sketch = QuantileSketch()
        for value in [0.001, 0.002, 0.003, 0.004, 0.100]:
            sketch.add(value)
        estimate = sketch.quantile(0.5)
        assert 0.003 <= estimate < 0.003 * GAMMA

    def test_zero_values_collapse_into_zero_bucket(self):
        sketch = QuantileSketch()
        sketch.add(0.0, 10)
        sketch.add(1.0)
        assert sketch.quantile(0.5) == 0.0
        assert sketch.quantile(1.0) >= 1.0

    def test_empty_sketch_is_inert(self):
        sketch = QuantileSketch()
        assert sketch.quantile(0.99) == 0.0
        assert sketch.fraction_above(1.0) == 0.0
        assert sketch.cumulative_buckets() == []

    def test_fraction_above(self):
        sketch = QuantileSketch()
        for _ in range(90):
            sketch.add(0.001)
        for _ in range(10):
            sketch.add(1.0)
        assert sketch.fraction_above(0.010) == pytest.approx(0.10)

    def test_cumulative_buckets_end_at_count(self):
        sketch = QuantileSketch()
        for value in [0.001, 0.010, 0.100]:
            sketch.add(value)
        pairs = sketch.cumulative_buckets()
        assert pairs[-1][1] == sketch.count
        uppers = [upper for upper, _ in pairs]
        assert uppers == sorted(uppers)

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            QuantileSketch().quantile(1.5)


class TestSharded:
    """Per-thread write buffers must read exactly like one shared ring."""

    def test_reads_merge_across_threads(self, clock):
        window = RollingWindow(window_s=60, clock=clock)

        def work():
            window.record({"req": 2}, {"lat": 0.004})

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window.inc("req")  # this thread's own buffer
        assert window.total("req") == 9
        assert window.window_counters(60) == {"req": 9}
        assert window.window_sketch("lat", 60).count == 4
        assert window.total_sketch("lat").count == 4
        assert sum(window.series("req", 60)) == 9

    def test_dead_thread_shards_are_retired_without_losing_counts(
            self, clock):
        window = RollingWindow(window_s=60, clock=clock)
        for _ in range(10):
            thread = threading.Thread(
                target=lambda: window.inc("req"))
            thread.start()
            thread.join()
        # Registering one more buffer (this thread's) folds and drops
        # the dead threads' buffers.
        window.inc("req")
        assert len(window._buffers) <= 2  # at most a survivor + ours
        assert window.total("req") == 11
        assert window.window_counters(60) == {"req": 11}

    def test_fold_into_a_newer_second_reaches_totals_only(self, clock):
        """A buffer that folds second s after its slot took s + window
        adds to the totals and leaves the newer bucket intact."""
        window = RollingWindow(window_s=60, clock=clock)
        window.buffer_for_thread()  # registered before the stalled one

        def stalled():
            # Second 1000, still pending in the buffer when this dies.
            window.record({"req": 1}, {"lat": 0.002})

        thread = threading.Thread(target=stalled)
        thread.start()
        thread.join()
        clock.tick(60)  # second 1060 takes the stalled second's slot
        window.record({"req": 5}, {"lat": 0.004})
        clock.tick(1)
        window.inc("other")  # rolls this buffer: 1060 folds first
        # The read folds the dead thread's second 1000 last.
        assert window.total("req") == 6
        assert window.total_sketch("lat").count == 2
        assert window.window_counters(60) == {"req": 5, "other": 1}
        assert window.window_sketch("lat", 60).count == 1
        assert window.series("req", 3) == [0, 5, 0]

    def test_snapshot_shape_matches_plain_window(self, clock):
        window = RollingWindow(window_s=60, clock=clock)
        window.record({"req": 1}, {"lat": 0.002})
        snap = window.snapshot(windows=(60,))
        assert snap["totals"] == {"req": 1}
        assert snap["windows"]["60"]["sketches"]["lat"]["count"] == 1


class TestOneRingUnderConcurrency:
    """Writers, dying threads and a reader share one ring while the
    clock rolls; nothing is lost, nothing counts twice, and totals
    never step backwards."""

    WRITERS = 6
    WRITES = 30000

    def test_threaded_writes_fold_exactly_once(self, clock):
        window = RollingWindow(window_s=60, clock=clock)
        names = ("req", "http.status.2xx")
        stop = threading.Event()
        regressions: list[tuple[int, int]] = []

        def writer():
            for _ in range(self.WRITES):
                window.record_hit(names, "bytes", 3, "lat", 0.002)

        def short_lived():
            # Dies with this write pending in its buffer.
            window.record_hit(names, None, 0, "lat", 0.0)

        def reader():
            last = 0
            while not stop.is_set():
                total = window.total("req")
                if total < last:
                    regressions.append((last, total))
                last = total
                window.window_counters(60)
                window.series("req", 60)

        writers = [threading.Thread(target=writer)
                   for _ in range(self.WRITERS)]
        reading = threading.Thread(target=reader)
        deaths = 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in writers + [reading]:
                thread.start()
            deadline = time.monotonic() + 60
            while any(thread.is_alive() for thread in writers) \
                    and time.monotonic() < deadline:
                clock.tick(0.5)
                dying = threading.Thread(target=short_lived)
                dying.start()
                dying.join(timeout=10)
                deaths += 1
            for thread in writers:
                thread.join(timeout=10)
            stop.set()
            reading.join(timeout=10)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in writers + [reading])
        expected = self.WRITERS * self.WRITES + deaths
        assert window.total("req") == expected
        assert window.total("http.status.2xx") == expected
        assert window.total("bytes") == 3 * self.WRITERS * self.WRITES
        assert window.total_sketch("lat").count == expected
        assert regressions == []


def test_window_rejects_zero_length():
    with pytest.raises(ValueError):
        RollingWindow(window_s=0)
