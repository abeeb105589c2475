"""Host-speed calibration for the end-to-end host times.

On a shared virtual machine the host's speed drifts. On the 2-vCPU VM
this benchmark was built on, the same job took anywhere from 0.38 s to
0.72 s within one minute, and ten 30 s runs of one workload spread by a
quarter to a third of their median with raw host times. That drift is
the machine's, not the program's, so the end-to-end host times are
reported in *reference seconds*: raw host seconds scaled by how fast the
machine ran a fixed calibration kernel during the same run.

The kernel is repository-independent (``heapq``, ``dict``, small-object
method calls and small numpy operations, the kinds of work the
simulator's hot loops do), so no change to the program can move it. It
runs with the cyclic garbage collector paused, because its cost must not
depend on how many objects the jobs left alive. The run samples it
between jobs for a fixed share of each job's host time, so the samples
cover the run in proportion to where its job time went.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import List

import numpy as np

#: Median seconds of one kernel sample on the reference machine (2 vCPU
#: x86-64 VM, Python 3.11.7, numpy 2.4.6), measured over several hundred
#: samples. Reference seconds = raw seconds x REFERENCE_S / run median.
REFERENCE_S = 0.012
#: Kernel time spent after each job, as a share of the job's host time.
SHARE = 0.05
#: Fewest samples taken at each sampling point.
MIN_SAMPLES = 2


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, by: int) -> int:
        self.value += by
        return self.value


_IN = np.arange(1024.0)
_OUT = np.empty(1024)


def kernel_seconds() -> float:
    """Host seconds of one run of the fixed calibration kernel."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        heap: List[int] = []
        counts = {}
        cell = _Cell()
        for i in range(12000):
            heapq.heappush(heap, (i * 7919) % 10007)
            key = i & 255
            counts[key] = counts.get(key, 0) + cell.bump(1)
        while heap:
            heapq.heappop(heap)
        for _ in range(150):
            np.multiply(_IN, 1.0001, out=_OUT)
            np.sqrt(_OUT, out=_OUT)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class HostSpeed:
    """Kernel samples of one run and the speed factor they give."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, budget_s: float) -> None:
        """Run the kernel for about ``budget_s`` (at least MIN_SAMPLES times)."""
        spent = 0.0
        taken = 0
        while taken < MIN_SAMPLES or spent < budget_s:
            seconds = kernel_seconds()
            self.samples.append(seconds)
            spent += seconds
            taken += 1

    @property
    def factor(self) -> float:
        """Reference seconds per raw host second (above 1 when the host
        ran faster than the reference machine)."""
        return REFERENCE_S / statistics.median(self.samples)
