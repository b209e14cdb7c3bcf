"""Host-speed normalization for timed spans.

The benchmark host's speed swings about 2x within seconds (shared
vCPUs, steal time), so raw wall seconds of identical work spread far
wider than any bound a regression gate could use.  This module measures
the host's speed *during* each span instead of assuming it:

* :func:`reference_kernel` is a fixed pure-Python workload of about one
  millisecond (dict and list traffic, integer and float arithmetic —
  the same interpreter paths the flows spend their time in).  It must
  never change: the pinned reference duration ``R0`` is only meaningful
  for this exact kernel.
* :class:`Sampler` runs the kernel from a ``SIGALRM`` handler every
  ``interval_s`` (100 ms by default) for the whole run and records
  ``(midpoint, duration)`` samples.
* :func:`span_factor` judges a span by
  ``R0 / median(kernel durations inside the span)``.  A span shorter
  than ``SHORT_SPAN_S`` or holding fewer than ``MIN_SAMPLES`` samples
  borrows its nearest neighbours, up to ``SHORT_SAMPLES`` (10) for
  short spans, so a 0.3 s setup is not judged on two samples.
* :func:`normalize` converts a span's raw seconds to reference-host
  seconds, one ``CHUNK_S`` piece at a time.

The sampler only runs the kernel between Python bytecodes of the main
thread; a long native call delays a sample, it never corrupts one.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left
from typing import List, Sequence, Tuple

#: One sample: (midpoint of the kernel run, kernel duration), both in
#: ``time.perf_counter`` seconds.
Sample = Tuple[float, float]

#: Fewest samples a span's speed estimate may rest on.
MIN_SAMPLES = 3
#: Spans shorter than this (seconds) widen to ``SHORT_SAMPLES`` samples.
SHORT_SPAN_S = 1.0
SHORT_SAMPLES = 10
#: Longer spans are normalized piecewise, in pieces of this length.
CHUNK_S = 1.0

_TABLE = list(range(64))


def reference_kernel() -> int:
    """A fixed ~1 ms pure-Python workload.  Do not edit: ``R0`` is
    pinned for exactly this code."""
    table = _TABLE
    counts = {}
    acc = 0
    x = 0.5
    for i in range(3000):
        key = table[(i * 7) & 63]
        counts[key] = counts.get(key, 0) + 1
        acc += key ^ i
        x = x * 0.999 + 0.001 * key
    return acc + len(counts) + int(x)


class Sampler:
    """Runs :func:`reference_kernel` on a ``SIGALRM`` interval timer.

    Use as a context manager (or :meth:`start` / :meth:`stop`); the
    previous ``SIGALRM`` handler and timer are restored on stop.
    """

    def __init__(self, interval_s: float = 0.1) -> None:
        self.interval_s = interval_s
        self.samples: List[Sample] = []
        self._busy = False
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            started = time.perf_counter()
            reference_kernel()
            ended = time.perf_counter()
            self.samples.append(((started + ended) / 2.0, ended - started))
        finally:
            self._busy = False

    def start(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def __enter__(self) -> "Sampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def span_samples(
    samples: Sequence[Sample], start: float, end: float
) -> List[float]:
    """Kernel durations that judge the host speed over ``[start, end]``.

    ``samples`` must be sorted by midpoint (the sampler appends in
    time order).  Samples inside the span are used when there are at
    least ``MIN_SAMPLES`` of them (``SHORT_SAMPLES`` for spans shorter
    than ``SHORT_SPAN_S``); otherwise the span widens to that many
    samples nearest to it.
    """
    if not samples:
        raise ValueError("no host-speed samples recorded")
    need = SHORT_SAMPLES if end - start < SHORT_SPAN_S else MIN_SAMPLES
    mids = [mid for mid, _ in samples]
    lo = bisect_left(mids, start)
    hi = bisect_left(mids, end, lo)
    while hi - lo < need and (lo > 0 or hi < len(samples)):
        # Grow toward whichever neighbour is closer to the span.
        before = start - mids[lo - 1] if lo > 0 else float("inf")
        after = mids[hi] - end if hi < len(samples) else float("inf")
        if before <= after:
            lo -= 1
        else:
            hi += 1
    return [duration for _, duration in samples[lo:hi]]


def span_factor(
    samples: Sequence[Sample], start: float, end: float, ref_s: float
) -> float:
    """``R0 / median(kernel durations)`` judging ``[start, end]``; below
    1 when the host runs slower than the reference."""
    return ref_s / statistics.median(span_samples(samples, start, end))


def normalize(
    samples: Sequence[Sample], start: float, end: float, ref_s: float
) -> float:
    """The span's raw seconds in reference-host seconds.

    Long spans are cut into ``CHUNK_S`` pieces, each scaled by its own
    :func:`span_factor`: the host's speed can change several times
    inside one 20 s flow, and a single median over a two-speed span
    picks one speed instead of weighting both.
    """
    total = 0.0
    piece_start = start
    while piece_start < end:
        piece_end = min(end, piece_start + CHUNK_S)
        total += (piece_end - piece_start) * span_factor(
            samples, piece_start, piece_end, ref_s
        )
        piece_start = piece_end
    return total
