"""Host speed probe: a fixed reference kernel timed all through a run.

On a shared virtual machine the CPU time a fixed job takes moves with
the host's load: other tenants on the same physical cores slow every
instruction, and the speed switches between levels up to 1.6x apart
within seconds.  The probe measures that speed where the workload runs.
A periodic ``SIGALRM`` runs a small fixed kernel on the main thread (a
Python loop over small NumPy operations, the same mix of interpreter and
BLAS work as the program) and records its thread CPU time.
:meth:`SpeedProbe.normalised_cpu` charges the block's CPU time at the
nominal speed over the mean kernel time of the run, so a run that met a
slow host reads about the same as one that did not, while a change that
makes the program do less work still shows.

The kernel is independent of the program: no ``repro`` code runs in it.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, List

import numpy as np

#: Seconds between two samples, and kernel runs per sample (the fastest
#: run is kept).
INTERVAL_S = 0.2
REPEATS = 2
#: The kernel's CPU seconds that define the nominal speed: a host on
#: which one kernel run takes this long charges CPU time one to one.
NOMINAL_KERNEL_S = 1e-3

_RNG = np.random.default_rng(0x5EED)
_W = [_RNG.standard_normal((32, 32)).astype(np.float32) * 0.2
      for _ in range(4)]
_X = _RNG.standard_normal((8, 32)).astype(np.float32)


def kernel() -> float:
    """One fixed unit of interpreter plus small-NumPy work (about 1 ms)."""
    total = 0.0
    x = _X
    for step in range(28):
        for w in _W:
            x = np.tanh(x @ w)
        scores = {f"t{j}": float(v) for j, v in enumerate(x[0, :8])}
        total += max(scores.values()) + sum(sorted(scores.values())[:3])
        x = x - x.mean(axis=1, keepdims=True) + step * 1e-3
    return total


class SpeedProbe:
    """Samples the reference kernel's speed while a block runs.

    Use as a context manager around the measured block, on the main
    thread.  The kernel's own CPU time is kept out of :attr:`work_cpu`.

    The mean kernel time over the run was the steadiest of the speed
    estimates tried on a 2-CPU KVM guest (six runs per workload): the
    normalised CPU time spread by a standard deviation of 2.1-2.8% of the
    mean on every workload, against 4-8% raw.  Charging each 0.2 s
    stretch at the speed measured around it did better on the campaign
    alone (1.3%) and worse on Table 3 (3.6-7.5%) and the faulted serving
    run (3.9%).
    """

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.kernel_s: List[float] = []   #: fastest kernel run per sample
        self.work_cpu = 0.0               #: process CPU of the block
        self._kernel_cpu = 0.0
        self._cpu0 = 0.0
        self._previous: Any = None

    def _sample(self, signum: int = 0, frame: Any = None) -> None:
        runs = []
        for _ in range(REPEATS):
            t0 = time.thread_time()
            kernel()
            runs.append(time.thread_time() - t0)
        self.kernel_s.append(min(runs))
        self._kernel_cpu += sum(runs)

    def __enter__(self) -> "SpeedProbe":
        self._cpu0 = time.process_time()
        self._sample()                       # a reading at the start
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                         self.interval_s)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()                       # and one at the end
        self.work_cpu = (time.process_time() - self._cpu0
                         - self._kernel_cpu)

    def normalised_cpu(self) -> float:
        """The block's CPU seconds at the nominal speed."""
        return (self.work_cpu * NOMINAL_KERNEL_S
                / statistics.fmean(self.kernel_s))
