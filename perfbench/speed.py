"""Machine-speed probe: times are reported at a fixed reference speed.

The host this benchmark was defined on (a 2-vCPU Intel Xeon shared with
other tenants) changes speed by up to 1.8x over seconds to minutes:
windows of ten GA runs took from 0.29 s to 0.53 s per run within two
minutes, with the same code and seeds. So every time the benchmark
reports is the measured time multiplied by

    REFERENCE_KERNEL_S / (mean kernel time measured during that interval),

i.e. the time the interval would have taken with the kernel at
REFERENCE_KERNEL_S. The raw wall times and the factor are printed and
kept in `perfbench/out/` beside the reported values.

The kernel is one least-squares solve of the size the local meta-model
fits (150 points, 91 coefficients). It tracked the optimizers' speed
better than a small-numpy interpreter loop: repeating one seeded run 25
to 40 times on that host, with probes every 50 ms during the run, the
spread (interquartile range / median) of the scaled times was 0.06 to
0.07 on well_cma, well_surrogate and sphere_constrained; with the
interpreter loop it was 0.18, 0.11 and 0.07, and unscaled 0.19, 0.14
and 0.13.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_KERNEL_S = 1.0e-3
PROBE_REPEATS = 2
_rng = np.random.default_rng(0)
_A = _rng.standard_normal((150, 91))
_B = _rng.standard_normal(150)


def probe() -> float:
    """Median time of a few kernel runs, in seconds."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        np.linalg.lstsq(_A, _B, rcond=None)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def factor(probes: list[float]) -> float:
    """Scale from measured time to time at the reference speed, for an
    interval during which these probes were taken."""
    return REFERENCE_KERNEL_S / statistics.fmean(probes)
