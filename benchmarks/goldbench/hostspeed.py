"""Host-speed correction for goldbench's time metrics.

The 2-vCPU VM the benchmark was built on changes speed under it: a
fixed piece of pure-Python work takes anywhere from 1x to 2x as long
from one second to the next, and its average over ten seconds moves by
25% from one minute to the next (README, "Host speed").  Raw times from
two runs of the same code therefore differ by more than any regression
bound could allow.

So a run measures the speed of the core it runs on while it runs:

* :func:`pin` puts the load generator, the server it starts and the
  sampler on one core (children inherit the affinity).
* :class:`Sampler` runs this file as a separate process.  Every
  :data:`PERIOD_S` it wakes, times one fixed work item (:func:`item`) in
  thread CPU time and sleeps again, until its standard input closes; it
  then prints the samples as JSON.
* :meth:`Speed.factor` is :data:`REFERENCE_S` over the item's mean cost
  in an interval: 1 when the core ran at the reference speed, 0.6 when
  it ran at 60% of it.  ``run.py`` reports a time as the raw time times
  the factor of the interval it was measured in, i.e. as it would read
  on a core of the reference speed, and a rate as the raw rate over it.

The sampler alone (``run.py`` starts it)::

    python3 benchmarks/goldbench/hostspeed.py     # sample until EOF
"""

from __future__ import annotations

import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import time

#: Seconds between samples.  The core switches speed within a tenth of
#: a second at times, so an operation of a few tens of milliseconds
#: needs samples this close together to be corrected by its own speed.
#: An item costs about 0.1 ms, so the sampler takes 2% of the core.
PERIOD_S = 0.005

#: Cost of :func:`item` in seconds on a core at the reference speed (the
#: fast state of the 2-vCPU VM the bounds were set on).  Only the ratio
#: to a measured cost matters; it keeps corrected times near raw ones.
REFERENCE_S = 1.0e-4

#: An interval with fewer samples than this is widened around its middle
#: until it has them.
MIN_SAMPLES = 12


def item() -> int:
    """The fixed work item: string formatting and dict updates, the
    interpreter's everyday mix, in a working set that fits any cache."""
    counts: dict[str, int] = {}
    total = 0
    for i in range(200):
        key = "k%d" % (i & 31)
        counts[key] = counts.get(key, 0) + i
        total += len(key)
    return total + len(counts)


def pin() -> int | None:
    """Restrict this process (and what it starts later) to one core;
    returns the core, or None when affinity cannot be set here."""
    try:
        core = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {core})
    except (AttributeError, OSError):
        return None
    return core


class Speed:
    """Samples ``(perf_counter time, item seconds)``, sorted by time."""

    def __init__(self, samples: list[tuple[float, float]]) -> None:
        if len(samples) < MIN_SAMPLES:
            raise RuntimeError(f"the host-speed sampler took "
                               f"{len(samples)} samples, too few")
        self.samples = sorted(samples)
        self._times = [t for t, _ in self.samples]

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean item cost in ``[start, end]``."""
        low = bisect.bisect_left(self._times, start)
        high = bisect.bisect_right(self._times, end)
        while high - low < MIN_SAMPLES:
            if low > 0 and (high == len(self._times) or
                            start - self._times[low - 1]
                            <= self._times[high] - end):
                low -= 1
            else:
                high += 1
        cost = statistics.fmean(c for _, c in self.samples[low:high])
        return REFERENCE_S / cost


class Sampler:
    """The sampler process; :meth:`stop` ends it and returns a Speed."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def stop(self) -> Speed:
        out, _ = self.proc.communicate(timeout=30)
        return Speed([tuple(s) for s in json.loads(out)])

    def kill(self) -> None:
        """End the process if :meth:`stop` did not (an error path)."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()


def sample() -> list[tuple[float, float]]:
    """Sample until standard input closes."""
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        at = time.perf_counter()
        cpu = time.thread_time()
        item()
        samples.append((at, time.thread_time() - cpu))
    return samples


if __name__ == "__main__":
    json.dump(sample(), sys.stdout)
