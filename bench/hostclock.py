"""Wall time rescaled to a fixed reference host speed.

The shared host this benchmark was written on changes speed by up to 1.7x
within seconds (identical residual evaluations drift from 2.0 ms to 3.6 ms
and back), and CPU time follows wall time, so neither raw wall time nor a
median of a short run repeats between runs. A HostClock samples the host
speed every INTERVAL_S seconds with a fixed numpy kernel, run from a SIGALRM
handler, and weighs each stretch of work between two samples by how much
slower the kernel ran than at the reference speed. The kernel runs twice per
sample and only the second run is timed: the first run after other work pays
a cold-cache penalty that depends on what it interrupted. The result is the time
the work would have taken at the reference speed, in seconds. The kernel is
benchmark code, so a change to the package moves the numerator only.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.01
# Median kernel time at the fast (uncontended) state of the host the
# benchmark was tuned on; it only sets the scale of the reported seconds.
REFERENCE_KERNEL_S = 6.5e-5

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal(64)
_A = _RNG.standard_normal((24, 24)) + 24.0 * np.eye(24)
_E = np.exp(1j * _RNG.standard_normal((33, 13)))
_C = _RNG.standard_normal((6, 13, 2)) + 0j


def kernel() -> None:
    """Small-array numpy work of the kinds the package does: elementwise
    ufuncs, a small dense solve and a small einsum. Against the package's
    own operations (n=6 and n=48 residuals, an n=48 midpoint Newton solve,
    an n=24 resonance scan) this mix left about 2 % spread in 15 s windows,
    where raw times spread by 11-13 %."""
    y = _X
    for _ in range(8):
        y = np.sin(y) * 0.5 + _X
    np.linalg.solve(_A, y[:24])
    np.einsum("tl,nlc->tnc", _E, _C)


class HostClock:
    """Context manager that samples host speed while it is open; `timed`
    runs a callable and returns (result, raw_s, scaled_s)."""

    def __init__(self):
        self.begins: list = []       # sample start, before the warm-up run
        self.starts: list = []       # timed run start
        self.ends: list = []
        self._old = None
        self._busy = False

    def _sample(self, *_):
        if self._busy:               # a signal arrived during a sample
            return
        self._busy = True
        begin = time.perf_counter()
        kernel()
        t0 = time.perf_counter()
        kernel()
        self.ends.append(time.perf_counter())
        self.starts.append(t0)
        self.begins.append(begin)
        self._busy = False

    def __enter__(self):
        for _ in range(20):          # warm the kernel's code path
            kernel()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def timed(self, fn):
        self._sample()
        i0 = len(self.starts) - 1
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        self._sample()
        return out, raw, self.scaled(i0, len(self.starts) - 1)

    def scaled(self, i0: int, i1: int) -> float:
        """Reference-speed seconds of the work between samples i0 and i1:
        each stretch between two samples runs at the mean of the speeds
        measured at its ends. Smoothing over more samples tracked worse,
        since the host switches speed within tens of milliseconds."""
        begins = np.array(self.begins[i0 + 1:i1 + 1])
        ends = np.array(self.ends[i0:i1 + 1])
        speed = REFERENCE_KERNEL_S / (ends - np.array(self.starts[i0:i1 + 1]))
        return float(((begins - ends[:-1]) * 0.5 * (speed[:-1] + speed[1:])).sum())
