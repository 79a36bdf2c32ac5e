"""The host's speed, measured beside the program so that times share one scale.

On a shared host the same code runs up to 1.9x faster or slower for
stretches from a second to several minutes, and CPU time does not remove
that.  So the benchmark runs a fixed kernel before every job (the kernel
is benchmark code and never changes with the package) and divides each
pass's times by how many times slower than ``REFERENCE_S`` that pass's
kernels ran; a set-up interpreter takes the slowdown of the passes just
before and after it.  The kernel is the mix the package's inner loops are
made of: arithmetic on small numpy arrays, a short FFT and float
formatting.  On a 2-vCPU x86-64 Xeon VM, over passes of the ``attack``
workload whose CPU time varied by 11% (coefficient of variation), the
kernel's time followed it with a log-log slope of 1.03 and a correlation
of 0.93, and the divided pass times varied by 4%.
"""

from __future__ import annotations

import statistics

import numpy as np

import tracing

# CPU time of one kernel run that defines speed 1: about its time on a
# 2-vCPU x86-64 Xeon VM, so reported times stay near measured CPU times.
REFERENCE_S = 1.5e-3

_GRID = np.linspace(0.0, 1.0, 64)


def kernel_s() -> float:
    """CPU time of one run of the kernel."""
    c0 = tracing.clock()
    v = np.zeros(64)
    acc = 0.0
    for k in range(60):
        v = v + 1e-3 * (np.cos(_GRID * k) - v)
        acc += float(np.abs(np.fft.rfft(v)).sum())
        acc += len(f"{acc:.6g},{k}")
    return tracing.clock() - c0


def slowdown(kernel_times: list[float]) -> float:
    """How many times slower than the reference these kernel runs went."""
    return statistics.fmean(kernel_times) / REFERENCE_S
