"""Host time that holds still on a machine whose speed does not.

The benchmark box has two shared cores, and neighbours on the same host
slow Python by 20 % to over 100 %, in bursts of a second and in spells of
minutes (a fixed job shows a fast mode, slower modes above it, nothing ever
faster, our second vCPU idle throughout, and CPU time inflating with wall
time, so it is contention and not steal).  The raw wall time of a
15-second run follows them: three passes of dash_small a minute apart gave
52, 85 and 121 queries per second.

The interference does not depend on the code under test, so it is
measured by something that does not either.  While a section of the
benchmark runs (a set-up, a pass, the traced run), a :class:`SpeedProbe`
interrupts it every 20 ms and times the same small job, and every host
time of the section is divided by how much slower than
:data:`REFERENCE_JOB_MS` the job ran over that section.  All samples stay
as they were measured, in order: a pause the engine itself causes, or work
that grows through the run, is in the numbers; what is divided out is the
machine.  The interruptions take about 4 % of a section, on every commit
alike.

The job tokenizes a fixed piece of source with the standard library: pure
Python with some breadth of code and data.  A tight arithmetic loop was
tried first and slows less than the engine does when the neighbour's
memory traffic is the cause (engine time against loop time, on a log
scale, had slope 1.4 to 1.6 on dash_small; against this job 0.9 to 1.2).
The correction is a model, not a filter: what spread it leaves is in
BASELINE.json.
"""

from __future__ import annotations

import io
import math
import signal
import time
import tokenize
from typing import Sequence

# About what the job takes on the benchmark box in a good hour (0.14 to
# 0.16 ms).  It only fixes the scale: reported times are host milliseconds
# on a machine that runs the job in this time.
REFERENCE_JOB_MS = 0.16
INTERVAL_S = 0.020

_SOURCE = "def f(a, b=3):\n    return [x * a + b for x in range(10) if x % 2 == 0]\n" * 2


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def _job() -> None:
    for _ in tokenize.generate_tokens(io.StringIO(_SOURCE).readline):
        pass


class SpeedProbe:
    """How fast the machine runs a fixed job while a ``with`` block runs.

    An interval timer raises SIGALRM in the main thread, between two
    bytecodes of whatever the block is doing, so the job runs on the same
    core, in the same process, at moments spread evenly over the block's
    wall time.  Sections do not nest: the timer is the process's only one.
    """

    def __init__(self) -> None:
        self.job_ms: list[float] = []

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        # So that a block shorter than the interval has a sample too.
        self._sample()

    def _sample(self, *_signal_args) -> None:
        # Untimed runs first, so that what the interrupted code left in the
        # processor's caches (the code under test's doing) is not in the
        # samples: with one warm-up the job read 0.85 or 1.07 of its warm
        # time from pass to pass, whatever the machine did.
        for _ in range(3):
            _job()
        for _ in range(2):
            start = time.perf_counter()
            _job()
            self.job_ms.append((time.perf_counter() - start) * 1000.0)

    def slowdown(self) -> float:
        """Host time over time at reference speed: about 1.0 on the undisturbed box.

        Work that takes ``t`` at reference speed takes ``t * job/reference``
        while the job runs that slow, so host time ``T`` sampled evenly is
        ``T * mean(reference/job)`` at reference speed.
        """
        return len(self.job_ms) / sum(REFERENCE_JOB_MS / ms for ms in self.job_ms)
