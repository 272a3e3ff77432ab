"""A machine-speed reference that the benchmark's timings are scaled by.

On the shared two-core host this benchmark was built on, the same work
took from 1.7 s to 3.3 s from one half-minute to the next (300 toy-model
forwards, no steal time reported), so raw wall times of separate runs
differ by more than any bound worth setting. A fixed reference computation
run in between the measured work slows down by the same factor: over 40
interleaved batches the raw times spread 22% (interquartile range over
median) and their ratio to the reference 3%.

Every end-to-end time is therefore reported at a nominal machine speed,
on which one `reference_unit()` takes REFERENCE_NOMINAL_S:

    reported = raw * REFERENCE_NOMINAL_S / median(reference samples nearby)

The reference samples are taken between the measured operations (one per
training example, answered example or eight finite-difference forwards),
their own time is subtracted from the measured intervals, and "nearby" is
the samples started within WINDOW_S of the one next to the measurement.
"""

from __future__ import annotations

import bisect
import functools
import statistics
import time

import numpy as np

REFERENCE_ITERATIONS = 50
REFERENCE_NOMINAL_S = 5e-4
# The host's speed changes within a second, so a duration is judged by the
# samples started within WINDOW_S of the sample taken next to it.
WINDOW_S = 0.5


def reference_unit() -> None:
    """A fixed mix of Python dispatch and 1x8 numpy ops, like a GRU step's."""
    a = np.full((1, 8), 0.5)
    w = np.full((8, 8), 0.1)
    for _ in range(REFERENCE_ITERATIONS):
        a = np.tanh(1.0 / (1.0 + np.exp(-(a @ w))) * a + 0.1)


class SpeedProbe:
    """Start times and durations of `reference_unit()` runs, in order."""

    def __init__(self):
        self.starts: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> int:
        """Run the reference once; returns the sample's index."""
        start = time.perf_counter()
        reference_unit()
        self.samples.append(time.perf_counter() - start)
        self.starts.append(start)
        return len(self.samples) - 1

    def reference(self, index: int) -> float:
        """Median duration of the samples started within WINDOW_S of sample
        `index`."""
        t = self.starts[index]
        low = bisect.bisect_left(self.starts, t - WINDOW_S)
        high = bisect.bisect_right(self.starts, t + WINDOW_S)
        return statistics.median(self.samples[low:high])

    def scale(self, duration: float, index: int) -> float:
        """`duration`, measured next to sample `index`, at nominal speed."""
        return duration * REFERENCE_NOMINAL_S / self.reference(index)

    def normalise(self, duration: float) -> float:
        """`duration` at nominal speed, judged by the median of all samples."""
        return duration * REFERENCE_NOMINAL_S / statistics.median(self.samples)

    def region(self, start: float, end: float) -> float:
        """Time from `start` to `end`, less the samples taken in between, at
        nominal speed: each stretch between two samples is scaled by the
        reference around the sample that opens it."""
        inside = [i for i, t in enumerate(self.starts) if start <= t < end]
        if not inside:
            return self.normalise(end - start)
        total = self.scale(self.starts[inside[0]] - start, inside[0])
        for i, j in zip(inside, inside[1:] + [None]):
            stretch_end = self.starts[j] if j is not None else end
            total += self.scale(stretch_end - self.starts[i] - self.samples[i], i)
        return total

    def before_each_call(self, cls, method: str):
        """Context manager: take one sample before every `cls.method` call."""
        return _Probed(self, cls, method)


class _Probed:
    def __init__(self, probe: SpeedProbe, cls, method: str):
        self.probe, self.cls, self.method = probe, cls, method

    def __enter__(self):
        original = self.original = self.cls.__dict__[self.method]
        sample = self.probe.sample

        @functools.wraps(original)
        def probed(*args, **kwargs):
            sample()
            return original(*args, **kwargs)

        setattr(self.cls, self.method, probed)
        return self.probe

    def __exit__(self, *exc):
        setattr(self.cls, self.method, self.original)
        return False
