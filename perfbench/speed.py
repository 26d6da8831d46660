"""Machine-speed calibration for reported times.

On a shared machine the interpreter's speed drifts by tens of percent over
a few seconds, in CPU time as much as in wall time, because the cores are
shared with other tenants. The benchmark therefore runs a fixed block of
pure-Python work after each round of operations (small set intersections,
dict lookups and a generator, then an intersection and a union of two
3000-string sets, the two kinds of work the library's kernels do), for about 3% of the round's time, and scales
the round's times by

    factor = REFERENCE_S / (mean calibration block time of that sample)

so a reported second is a second on a machine where the block takes
REFERENCE_S. The calibration never runs while a library call is in
flight, and garbage collection is off during a block, so the library's
own cost, including the garbage it leaves, stays in its own timings. A
set-up is timed call by call, each call scaled by the samples taken just
before and after it. The raw figures and the median factor are printed
beside the result.
"""

from __future__ import annotations

import gc
import random
import time
from array import array

# nominal seconds of one calibration block (about its mean on a 2-core x86 box)
REFERENCE_S = 6e-4
# calibration time as a share of the work it scales
SHARE = 0.03

_SETS = [frozenset(range(i, i + 40)) for i in range(0, 400, 10)]
_TABLE = {i: i * 0.5 for i in range(1000)}
_WIDE = [frozenset(f"i{x}" for x in random.Random(k).sample(range(10_000), 3_000)) for k in (1, 2)]


def _block() -> float:
    total = 0.0
    for i in range(150):
        common = _SETS[i % 40] & _SETS[(i * 7) % 40]
        total += max((_TABLE[c] for c in common), default=0.0)
    return total + len(_WIDE[0] & _WIDE[1]) + len(_WIDE[0] | _WIDE[1])


class SpeedProbe:
    """Calibration samples of one phase, in the order they were taken.
    A sample is the mean time of the blocks run for it."""

    def __init__(self):
        self.samples = array("d")

    def sample(self, seconds: float = 0.0, min_blocks: int = 2) -> None:
        """Run blocks for at least `seconds` and min_blocks blocks."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            blocks = 0
            start = time.perf_counter()
            while blocks < min_blocks or time.perf_counter() - start < seconds:
                _block()
                blocks += 1
            self.samples.append((time.perf_counter() - start) / blocks)
        finally:
            if enabled:
                gc.enable()

    def factors(self) -> list[float]:
        return [REFERENCE_S / s for s in self.samples]


class Stopwatch:
    """Times a sequence of calls, each followed by a calibration sample of
    SHARE of its wall time; a call is scaled by the mean of the samples
    just before and just after it. Totals accumulate in the attributes."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.probe = SpeedProbe()
        self.probe.sample(min_blocks=4)
        self.wall = self.scaled = self.cpu = self.scaled_cpu = 0.0

    def run(self, name: str, call, *args):
        """call(*args) inside a span named `name`."""
        cpu = time.process_time()
        start = time.perf_counter()
        with self.tracer.span(name):
            result = call(*args)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
        before = self.probe.samples[-1]
        self.probe.sample(seconds=SHARE * wall, min_blocks=4)
        factor = 2 * REFERENCE_S / (before + self.probe.samples[-1])
        self.wall += wall
        self.scaled += wall * factor
        self.cpu += cpu
        self.scaled_cpu += cpu * factor
        return result
