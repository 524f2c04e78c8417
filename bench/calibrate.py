"""Host-speed calibration for the end-to-end times.

Shared hosts change speed under the benchmark: on the 2-core host this
benchmark was defined on, the same pcmkit call took anywhere from 1x to 1.7x
its fastest time, in phases lasting tens of seconds, with no CPU steal
reported.  Raw wall times from two runs minutes apart are therefore not
comparable.  The benchmark times a fixed kernel, which runs no pcmkit code,
between consecutive measured steps, and reports each measured wall time
divided by the mean of the kernel's times just before and after it, scaled
by REFERENCE_S.  The result reads as the time the call would take on a host
where the kernel takes REFERENCE_S.  The raw wall times are printed beside it.
"""
from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

# Median kernel time on the defining host (2-core Intel Xeon, Python 3.11.7,
# numpy 2.4.6) in its fast phase.  A fixed constant: it only sets the scale.
REFERENCE_S = 0.005

_MATRIX = np.random.default_rng(0).random((6, 6)) + 0.5


def kernel_seconds() -> float:
    """Wall time of a fixed mix of interpreted arithmetic and small numpy calls.

    The mix resembles pcmkit's own hot paths.  It allocates no container
    objects, and collection is paused while it runs, so the heap the measured
    program leaves behind does not change its time.
    """
    w, y = np.empty(6), np.empty(6)
    paused = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        x = 0.0
        for _ in range(240):
            w.fill(1.0 / 6.0)
            for _ in range(5):
                np.dot(_MATRIX, w, out=y)
                y /= y.sum()
                w, y = y, w
            for i in range(100):
                x = (x * 0.999 + i) % 97.0
        return perf_counter() - t0
    finally:
        if paused:
            gc.enable()


def normalized(seconds, steps, kernel) -> list:
    """Scale each time by the kernel times at the boundaries of its step."""
    return [t * 2.0 * REFERENCE_S / (kernel[i] + kernel[i + 1]) for t, i in zip(seconds, steps)]
