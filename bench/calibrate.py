"""Host-speed calibration of measured times.

On a shared host the same computation runs up to about 1.6 times slower
while other tenants load the physical core.  Process CPU time rises with
wall time, so the slowdown is in execution speed, not in scheduling, and
it drifts over seconds to minutes: a run-to-run spread that no run length
in the time budget averages away.

The benchmark therefore runs a fixed reference computation next to each
piece of work it measures and scales the measured time to the reference's
nominal duration:

    reported = measured * REF_NOMINAL_S / reference_measured

A change to the library moves the measured time but not the reference, so
the scaled time follows the program; a host slowdown moves both and
cancels.  The reference mixes what the library spends its time on:
interpreted arithmetic, small LAPACK calls and float formatting.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median duration of reference_seconds() on an idle core of the host the
# bounds were tuned on (Intel Xeon, 2 vCPUs, numpy 2.4 with OpenBLAS).
REF_NOMINAL_S = 2.4e-3

_A = np.eye(8) + 0.01
_V = np.linspace(0.0, 1.0, 400)


def reference_seconds() -> float:
    """Wall time of one run of the fixed reference computation."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(16000):
        s += i * 0.5
    for _ in range(240):
        np.linalg.cholesky(_A)
    for _ in range(2):
        " ".join(repr(float(x)) for x in _V)
    return time.perf_counter() - t0


def scale(measured: float, reference: float) -> float:
    """``measured`` seconds expressed at the reference's nominal speed."""
    return measured * REF_NOMINAL_S / reference


def scale_series(measured: list[float], refs: list[float]) -> list[float]:
    """Scale each of a sequence of back-to-back measurements.

    ``refs`` holds one reference before each measurement and one after the
    last.  Measurement i is scaled by the median of the references within
    three places of it on either side: one reference is too short to time
    precisely, while the host's speed changes over a few hundred
    milliseconds at the fastest.
    """
    if len(refs) != len(measured) + 1:
        raise ValueError("need one reference before each measurement and one after the last")
    return [
        scale(t, statistics.median(refs[max(0, i - 2) : i + 4])) for i, t in enumerate(measured)
    ]
