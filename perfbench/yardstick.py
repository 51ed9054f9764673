"""Host speed during a run, measured with a fixed task.

On a shared host the speed of a core drifts: over ten minutes of
``regions-tight`` passes, pass times ranged from 2.5 to 4.6 s in spells of
tens of seconds, longer than a run, so ten runs had quartile spreads of
15-20% of their median whatever their length up to a minute. A fixed task
slows by the same factor: over 10-second windows the mean request time
spread 14%, its ratio to the mean task time 3%.

So request times are reported in *reference seconds*: each measured time
multiplied by ``REFERENCE_S / mean task time`` over the samples taken from
``WINDOW_S`` before the request to ``WINDOW_S`` after it. The task runs
between requests, outside the timed calls; it mixes interpreted Python,
small numpy operations and JSON, the kinds of work pkregion does, and shares
no code with the package, so a change to the package shows in full.
``setup_s`` is not corrected: spawn times did not follow the task (over
15-spawn windows, correcting widened the spread of the median from 10% to
12%).
"""

from __future__ import annotations

import bisect
import json
import time

import numpy as np

# Mean duration of ``task`` on the 2-core host the baseline was measured on
# (Python 3.11.7, numpy 2.4.6); fixed, so corrected times stay comparable.
REFERENCE_S = 2.0e-3

# Least wall time between two samples.
INTERVAL_S = 0.025
# A request's speed is the mean of the samples taken from this long before
# it starts to this long after it ends.
WINDOW_S = 1.0

_VECTOR = np.linspace(0.01, 1.0, 256)
_DOC = {"values": [i / 7.0 for i in range(200)], "name": "x" * 64}


def task() -> float:
    """Run the fixed task once; return its wall time in seconds."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(3000):
        acc += i * i % 7
        table[i % 97] = acc
    for _ in range(40):
        acc += float((_VECTOR * np.log2(_VECTOR)).sum())
    for _ in range(5):
        acc += len(json.loads(json.dumps(_DOC))["values"])
    return time.perf_counter() - start


class Probe:
    """Samples ``task`` at most once per ``INTERVAL_S`` of wall time.

    ``samples`` holds (perf_counter at the end of the sample, duration).
    """

    def __init__(self):
        self.samples = []
        self._last = -INTERVAL_S

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            duration = task()
            self._last = time.perf_counter()
            self.samples.append((self._last, duration))



def factor(durations) -> float:
    """Multiplier from measured to reference seconds."""
    return REFERENCE_S * len(durations) / sum(durations)


def local_factors(starts, latencies, samples) -> list:
    """One multiplier per request, from the samples within ``WINDOW_S``.

    Speed drifts in spells of tens of seconds, which can begin or end within
    a run; a long request takes the speed of its own neighbourhood. A probe
    samples right after each request, so no window is empty.
    """
    times = [t for t, _ in samples]
    prefix = [0.0]
    for _, duration in samples:
        prefix.append(prefix[-1] + duration)
    out = []
    for start, latency in zip(starts, latencies):
        lo = bisect.bisect_left(times, start - WINDOW_S)
        hi = bisect.bisect_right(times, start + latency + WINDOW_S)
        out.append(REFERENCE_S * (hi - lo) / (prefix[hi] - prefix[lo]))
    return out
