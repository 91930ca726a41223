"""Host-speed calibration.

The benchmark's host is a share of a machine whose speed drifts: the same
pure-Python loop takes up to half as long again for stretches of seconds to
minutes, and it also swings within a second.  To take that drift out of the
figures, a repetition runs a fixed kernel of the benchmark's own between
operations, and each operation's time is scaled by REF_S / (the mean time of
the kernel calls just before and just after it).

The kernel does what the package does most, in plain Python and sharing no
code with it: it multiplies sparse polynomials held as dicts from exponent
tuples to integers, and sorts the terms.  Its time is the thread CPU time of
the calling thread, with the garbage collector off, so threads or garbage
that the program leaves behind do not slow it.
"""
from __future__ import annotations

import bisect
import gc
import random
import statistics
from time import perf_counter, thread_time

# the reference speed: a host on which one kernel call takes REF_S seconds.
# Scaled times read in seconds on such a host.
REF_S = 0.004
EVERY_S = 0.05          # a stream takes a sample when this much time has passed
SETUP_SAMPLES = 3       # samples before set-up and after each of its stages

_rng = random.Random(0)
_FACTORS = [
    {tuple(_rng.randrange(4) for _ in range(4)): _rng.randrange(1, 9)
     for _ in range(40)}
    for _ in range(2)
]


def kernel():
    a, b = _FACTORS
    for _ in range(2):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        terms = sorted(out.items(), key=lambda t: (sum(t[0]), t[0]))
    return terms


def sample():
    """One kernel call's thread CPU time, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = thread_time()
        kernel()
        return thread_time() - t
    finally:
        if enabled:
            gc.enable()


def run_stages(steps):
    """Runs set-up, one stage per step of the iterator steps, with
    SETUP_SAMPLES kernel calls before the first stage and after each.
    Returns the set-up time and its scaled time: each stage's time scaled by
    REF_S ÷ the median of the samples on both sides of it."""
    before = [sample() for _ in range(SETUP_SAMPLES)]
    total = scaled = 0.0
    steps = iter(steps)
    done = False
    while not done:
        t = perf_counter()
        try:
            next(steps)
        except StopIteration:
            done = True
        took = perf_counter() - t
        after = [sample() for _ in range(SETUP_SAMPLES)]
        total += took
        scaled += took * REF_S / statistics.median(before + after)
        before = after
    return total, scaled


class Clock:
    """Kernel samples taken during one repetition, each stamped with the
    perf_counter() time at which it was taken."""

    def __init__(self):
        for _ in range(3):  # let the interpreter specialize the kernel
            kernel()
        self.stamps = []
        self.times = []

    def take(self):
        self.stamps.append(perf_counter())
        self.times.append(sample())

    def maybe(self):
        if not self.stamps or perf_counter() - self.stamps[-1] >= EVERY_S:
            self.take()

    def scale(self, start):
        """REF_S ÷ the mean of the last sample taken before start and the
        first taken after it; samples are taken only between operations, so
        these two enclose the operation that started at start."""
        i = bisect.bisect(self.stamps, start)
        if not 0 < i < len(self.stamps):
            raise ValueError("no calibration sample on both sides of the operation")
        return REF_S / ((self.times[i - 1] + self.times[i]) / 2)
