"""Host speed, measured with a fixed reference kernel between commands.

On a shared VM the host's own speed drifts: a fixed loop runs up to twice
as slow for minutes at a time, and set-up time, fixed work, moves with it.
Wall times of one workload then spread across runs by more than any change
to the program would.  The benchmark therefore times a kernel for a moment
before and after every command, and divides the command's wall time by the
kernel's slowdown against its reference time.  The result is the command's
time in reference-host seconds: what it would take on a host on which the
kernel takes its reference time.  The kernels call no code of the program,
so every change to the program shows in full.

The drift does not slow every kind of work alike: Python-level code slows
more than dense LAPACK calls.  So there are two kernels, one of each kind
of work: "python" loops over small matrix-vector products, as the slot
contractions do, and "dense" is one dense symmetric eigensolve, as the
factor eigenproblems are.  Each workload names the kernels that match its
own work and is scaled by their mean slowdown.  Kernel inputs and reference
times are fixed; changing either rescales every calibrated figure, so
neither may change between the runs being compared.
"""

from __future__ import annotations

import statistics
import time
from functools import cache

# median kernel times on a 2-core shared x86_64 VM with one BLAS thread
REFERENCE_S = {"python": 0.0006, "dense": 0.013}

# each kernel is timed for this long at each measurement
SECONDS_PER_MEASUREMENT = 0.1


@cache
def _inputs():
    # numpy loads here, after the benchmark has pinned the BLAS threads
    import numpy as np
    import scipy.linalg

    rng = np.random.default_rng(0)
    small = rng.standard_normal((81, 81))
    large = rng.standard_normal((320, 320))
    return scipy.linalg, small @ small.T, rng.standard_normal(81), large @ large.T


def _python_kernel():
    _, small, vec, _ = _inputs()
    total = 0.0
    for i in range(200):
        total += float((small @ vec)[i % 81])
    return total


def _dense_kernel():
    linalg, _, _, large = _inputs()
    return linalg.eigh(large)


_KERNELS = {"python": _python_kernel, "dense": _dense_kernel}


def _slowdown(name: str) -> float:
    kernel = _KERNELS[name]
    samples = []
    started = time.perf_counter()
    while not samples or time.perf_counter() - started < SECONDS_PER_MEASUREMENT:
        t0 = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) / REFERENCE_S[name]


def slowdown(names) -> float:
    """Mean over the named kernels of median kernel time over reference time."""
    return statistics.mean(_slowdown(name) for name in names)
