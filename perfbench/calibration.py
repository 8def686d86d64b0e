"""Host-speed calibration: a fixed numpy kernel timed around and during solves.

On a shared host the speed a process gets drifts by up to ±25% over seconds
to minutes, with the load other tenants put on the same cores.  A solve and
this kernel, timed at the same moments, slow down together: the kernel runs
the same kinds of LAPACK calls the solvers spend their time in (complex least
squares on a 500×30 stacked system, as `tls` builds at 50×50×10, r=3, and
complex SVDs of 50×50 frequency slices after an FFT, as `tnn_admm` runs).
Dividing a solve's time by the kernel's median time over the same stretch,
and scaling by the kernel's time on a reference host, removes most of that
drift.

The kernel uses numpy only, on fixed inputs, so no change to tubalkit moves it.
"""

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# Kernel seconds that normalised times are scaled to.  On a shared 2-vCPU Xeon
# at 2.1 GHz (OpenBLAS 0.3.31 at its default 2 threads) the median kernel run
# took 0.020-0.030 s per benchmark run, 0.025 s over 40 runs; normalised
# seconds are near that host's wall seconds.
REFERENCE_S = 0.023
# Kernel runs in one calibration before or after a solve.
REPS = 5
# Wall seconds between kernel runs while a solve is in flight.
SAMPLE_INTERVAL_S = 0.5

_rng = np.random.default_rng(161001690)
_DESIGN = _rng.standard_normal((500, 30)) + 1j * _rng.standard_normal((500, 30))
_RHS = _rng.standard_normal(500) + 1j * _rng.standard_normal(500)
_TENSOR = _rng.standard_normal((50, 50, 10))


def kernel_s():
    """Seconds of one kernel run (REFERENCE_S on the reference host)."""
    start = time.perf_counter()
    for _ in range(2):
        for _ in range(10):
            np.linalg.lstsq(_DESIGN, _RHS, rcond=None)
        spectrum = np.fft.fft(_TENSOR, axis=2)
        for j in range(3):
            np.linalg.svd(spectrum[:, :, j])
    return time.perf_counter() - start


def calibrate():
    """Seconds of each of REPS kernel runs, back to back."""
    return [kernel_s() for _ in range(REPS)]


@dataclass
class Sampled:
    seconds: float = float("nan")  # wall seconds of the block, kernel runs left out
    kernel_runs: list = field(default_factory=list)  # seconds of each kernel run


@contextmanager
def sampling(interval=SAMPLE_INTERVAL_S):
    """Time the block, running the kernel after each `interval` wall seconds in it.

    A SIGALRM handler runs the kernel on this thread between bytecodes, so no
    thread is started.  The one-shot timer is set again only after a kernel
    run ends, so runs never nest.  Every kernel run falls inside the timed
    stretch, and its time is taken out of the block's seconds.
    """
    sampled = Sampled()
    active = True

    def sample(signum, frame):
        if active:  # an alarm already pending when the block ends is dropped
            sampled.kernel_runs.append(kernel_s())
            signal.setitimer(signal.ITIMER_REAL, interval)

    previous = signal.signal(signal.SIGALRM, sample)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, interval)
    try:
        yield sampled
    finally:
        active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        sampled.seconds = time.perf_counter() - start - sum(sampled.kernel_runs)
        signal.signal(signal.SIGALRM, previous)


def normalise(seconds, kernel_runs):
    """Seconds scaled to the reference host by the kernel runs timed with them."""
    return seconds * REFERENCE_S / statistics.median(kernel_runs)
