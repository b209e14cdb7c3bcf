"""Unit tests for the host-speed normalizer on synthetic sample series.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import hostnorm  # noqa: E402

REF = 0.001


def series(duration_at, start=0.0, end=60.0, step=0.1):
    """Samples every ``step`` seconds with ``duration_at(t)`` durations."""
    count = int(round((end - start) / step))
    times = [start + step * (i + 0.5) for i in range(count)]
    return [(t, duration_at(t)) for t in times]


def test_constant_speed_leaves_time_unchanged():
    samples = series(lambda t: REF)
    for start, end in [(0.0, 60.0), (10.0, 12.5), (30.0, 30.3)]:
        assert hostnorm.normalize(samples, start, end, REF) == pytest.approx(
            end - start
        )


def test_constant_slow_host_scales_every_span():
    samples = series(lambda t: 2 * REF)
    assert hostnorm.normalize(samples, 5.0, 25.0, REF) == pytest.approx(10.0)


def test_slowdown_inside_span_halves_it():
    # The host runs at half speed only between t=20 and t=30.
    samples = series(lambda t: 2 * REF if 20.0 <= t < 30.0 else REF)
    assert hostnorm.normalize(samples, 20.0, 30.0, REF) == pytest.approx(5.0)
    # Spans outside the slow stretch are untouched.
    assert hostnorm.normalize(samples, 5.0, 15.0, REF) == pytest.approx(10.0)
    assert hostnorm.normalize(samples, 35.0, 45.0, REF) == pytest.approx(10.0)


def test_two_speed_span_weights_both_speeds():
    # Half of the span at half speed: 10 s at 2x cost count as 5 s.
    samples = series(lambda t: 2 * REF if t < 10.0 else REF)
    assert hostnorm.normalize(samples, 0.0, 20.0, REF) == pytest.approx(15.0)


def test_median_ignores_isolated_outliers():
    # One preempted kernel run per second must not move the estimate.
    samples = series(lambda t: 50 * REF if int(t * 10) % 10 == 0 else REF)
    assert hostnorm.normalize(samples, 10.0, 20.0, REF) == pytest.approx(10.0)


def test_short_span_uses_its_neighbours():
    samples = series(lambda t: 2 * REF)
    # 0.25 s holds two or three samples; the estimate widens to ten.
    used = hostnorm.span_samples(samples, 10.0, 10.25)
    assert len(used) == hostnorm.SHORT_SAMPLES
    assert hostnorm.normalize(samples, 10.0, 10.25, REF) == pytest.approx(
        0.125
    )


def test_span_between_samples_borrows_nearest():
    samples = [(1.0, REF), (2.0, 2 * REF), (3.0, 2 * REF), (9.0, 4 * REF)]
    # No sample falls inside [2.1, 2.2]; the nearest ones are used.
    used = hostnorm.span_samples(samples, 2.1, 2.2)
    assert len(used) == len(samples)
    # A long span with few samples widens only to MIN_SAMPLES.
    used = hostnorm.span_samples(samples, 1.5, 3.5)
    assert used == [REF, 2 * REF, 2 * REF]


def test_long_span_with_enough_samples_uses_only_its_own():
    samples = series(lambda t: REF if t < 10.0 else 3 * REF)
    used = hostnorm.span_samples(samples, 10.0, 12.0)
    assert len(used) == 20
    assert set(used) == {3 * REF}


def test_no_samples_is_an_error():
    with pytest.raises(ValueError):
        hostnorm.normalize([], 0.0, 1.0, REF)


def test_sampler_records_and_restores_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with hostnorm.Sampler(interval_s=0.01) as sampler:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.samples) >= 5
    mids = [mid for mid, _ in sampler.samples]
    assert mids == sorted(mids)
    assert all(duration > 0 for _, duration in sampler.samples)
    assert signal.getsignal(signal.SIGALRM) == previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
