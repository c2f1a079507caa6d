"""Calibrated, batched timing samples.

Shared virtual machines drift between fast and slow phases; on a 2-vCPU
Xeon VM raw wall time of identical code moved by 20-30 % between runs, and
the speed changed within seconds too. Every sample is therefore scaled by
how fast a fixed pure-Python calibration loop ran while the sample was
taken:

    value = seconds * CAL_NOMINAL_S / median(calibration loop times)

The loop runs once just before and once just after the sample, and every
TICK_S during it, driven by an interval timer; a query call of several
seconds is sampled throughout, not only at its ends. Time spent in the loop
is subtracted from the sample, and the median ignores a loop that was
preempted. One calibration factor scales every figure of a sample alike.
The loop touches no relagg object, so no change to relagg can move it.
"""

import gc
import math
import signal
import statistics
import time
from dataclasses import dataclass, field

CAL_ITERATIONS = 4000
CAL_NOMINAL_S = 0.0036  # the loop's median time on a 2-vCPU 2.0 GHz Xeon VM
TICK_S = 0.05           # calibration period during a sample
SAMPLE_S = 0.6          # shorter calls are timed in batches at least this long


def calibration_loop():
    """Seconds taken by a fixed mix of dict updates, tuples and a sort."""
    start = time.perf_counter()
    counts = {}
    pairs = []
    for i in range(CAL_ITERATIONS):
        key = i * 7919 % 1009
        counts[key] = counts.get(key, 0) + i
        pairs.append((key, i & 255, -i))
    pairs.sort()
    elapsed = time.perf_counter() - start
    if pairs[0] != (0, 0, 0):
        raise RuntimeError("calibration loop computed a wrong result")
    return elapsed


def batch_size(seconds_per_call):
    """Calls per sample so that one sample lasts at least SAMPLE_S."""
    return max(1, math.ceil(SAMPLE_S / max(seconds_per_call, 1e-9)))


class Calibrator:
    """Runs the calibration loop on SIGALRM every TICK_S while active."""

    def __init__(self):
        self.loops = []
        self.spent_s = 0.0   # wall time inside the loops, to be subtracted
        self._running = False

    def loop(self):
        self._running = True
        start = time.perf_counter()
        self.loops.append(calibration_loop())
        self.spent_s += time.perf_counter() - start
        self._running = False

    def _on_tick(self, signum, frame):
        if not self._running:   # a tick that lands inside a loop is dropped
            self.loop()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


@dataclass
class Sample:
    raw_s: float   # wall seconds per call, calibration time excluded
    cal_s: float   # median calibration loop time during the sample

    @property
    def value(self):
        return self.raw_s * CAL_NOMINAL_S / self.cal_s


def take_sample(call, calls):
    """Time `calls` back-to-back calls of `call`; returns (Sample, outputs).

    Garbage is collected before the sample, outside the timed interval.
    """
    gc.collect()
    outputs = []
    with Calibrator() as cal:
        cal.loop()
        spent = cal.spent_s
        start = time.perf_counter()
        for _ in range(calls):
            outputs.append(call())
        elapsed = time.perf_counter() - start - (cal.spent_s - spent)
        cal.loop()
    return Sample(elapsed / calls, statistics.median(cal.loops)), outputs


@dataclass
class Series:
    """Samples of one metric within one run."""

    calls: int
    samples: list = field(default_factory=list)

    def summary(self):
        values = [s.value for s in self.samples]
        q1, _, q3 = quartiles(values)
        return {
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "n": len(values),
            "calls_per_sample": self.calls,
            "raw_median": statistics.median(s.raw_s for s in self.samples),
            "cal_median": statistics.median(s.cal_s for s in self.samples),
        }


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return statistics.quantiles(values, n=4)
