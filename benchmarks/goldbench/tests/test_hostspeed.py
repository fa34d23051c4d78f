"""Host-speed factors from sampler samples, and the sampler process."""

import time

import pytest

import hostspeed
from hostspeed import MIN_SAMPLES, REFERENCE_S, Speed


def _speed():
    # The core runs at half the reference speed for t < 50, at the
    # reference speed from t = 50 on; one sample per time unit.
    return Speed([(float(t), REFERENCE_S * (2.0 if t < 50 else 1.0))
                  for t in range(100)])


def test_factor_is_reference_over_mean_cost():
    speed = _speed()
    assert speed.factor(60.0, 80.0) == pytest.approx(1.0)
    assert speed.factor(10.0, 30.0) == pytest.approx(0.5)
    # 10 slow and 10 fast samples: mean cost 1.5 x the reference.
    assert speed.factor(40.0, 59.0) == pytest.approx(1 / 1.5)


def test_short_interval_widens_to_min_samples_around_it():
    speed = _speed()
    # No sample inside; the nearest MIN_SAMPLES straddle t = 49.5.
    assert speed.factor(49.4, 49.6) == pytest.approx(1 / 1.5)
    # At the end of the samples the window grows inwards only.
    assert speed.factor(200.0, 201.0) == pytest.approx(1.0)
    assert speed.factor(-5.0, -4.0) == pytest.approx(0.5)
    assert MIN_SAMPLES <= 50


def test_too_few_samples_is_an_error():
    with pytest.raises(RuntimeError):
        Speed([(0.0, REFERENCE_S)] * (MIN_SAMPLES - 1))


def test_sampler_samples_until_stopped():
    sampler = hostspeed.Sampler()
    try:
        start = time.perf_counter()
        time.sleep(MIN_SAMPLES * hostspeed.PERIOD_S * 3)
        end = time.perf_counter()
        speed = sampler.stop()
    finally:
        sampler.kill()
    assert sampler.proc.returncode == 0
    times = [t for t, _ in speed.samples]
    assert start - 1.0 < times[0] and times[-1] < end + 1.0
    assert 0.05 < speed.factor(start, end) < 20
