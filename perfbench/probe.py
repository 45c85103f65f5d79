"""Host speed probe.

The benchmark runs on a few cores of a shared host.  Other tenants' load
on shared cores and caches makes the same code run up to ~1.8x slower,
in stretches from under a second to several minutes, far more than the
changes the benchmark must resolve.  Taking the fastest of a few repeats
does not help when a whole run falls in a slow stretch.

So a fixed probe runs just before and just after every op: a pure-Python
loop (interpreter speed) and a complex matrix product, a Hermitian
eigensolve and an FFT on fixed arrays (BLAS, LAPACK and pocketfft speed,
which slow down more than the interpreter does).  The mean of the two
slowdowns against the reference times below estimates how much the host
slowed the op, and the runner divides the op's wall time by it, raised to
the op's measured sensitivity (below).  The probe never runs while an op
does: the two CPUs of the host slow each other down, so a probe running
beside the op would measure the op's own load.  The probe runs no program
code, so a change to the program cannot change the divisor.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Fastest probe parts, in ns, on a 2-core x86-64 (Xeon, AVX-512) host with
# no other load: the unit in which adjusted times are expressed.
REF_INTERP_NS = 5.4e6
REF_NUMERIC_NS = 3.8e6
LOOP = 100_000
# Op time grows as the probe's slowdown to these powers: the median over
# op slots of the least-squares slope of log op time on log probe
# slowdown, over 25-50 passes per workload on that host.  Ops and set-ups
# timed in the parent around a fresh interpreter gave 0.46-0.94 (median
# 0.77); solves timed and probed inside the PCG worker gave 1.0-1.43
# (median 1.18).
PARENT_SENSITIVITY = 0.8
WORKER_SENSITIVITY = 1.2
REPEATS = 3  # the fastest of these: a probe preempted once is not a slow host


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        self.h = self.a[:128, :128] + self.a[:128, :128].conj().T

    def slowdown(self) -> float:
        """Host slowdown now: geometric mean of both parts against reference."""
        interp = numeric = math.inf
        for _ in range(REPEATS):
            t0 = time.perf_counter_ns()
            acc = 0
            for i in range(LOOP):
                acc += i * i
            t1 = time.perf_counter_ns()
            self.a @ self.a
            np.linalg.eigvalsh(self.h)
            np.fft.fft(self.a, axis=0)
            t2 = time.perf_counter_ns()
            interp, numeric = min(interp, t1 - t0), min(numeric, t2 - t1)
        return math.sqrt(interp / REF_INTERP_NS * numeric / REF_NUMERIC_NS)


def adjusted(value: float, slowdown: float, sensitivity: float) -> float:
    """A time measured at the given host slowdown, at reference speed."""
    return value / slowdown ** sensitivity
