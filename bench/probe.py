"""A fixed reference kernel, timed between operations to track the host's speed.

On a shared host the speed of a core changes for seconds to minutes, by up
to about 2x, and every operation timed in a slow phase is slower by the same
factor. The probe does a fixed mix of the work the workloads do (interpreter
loops, many small numpy calls, batched small complex solves) and does not
touch ``trajdiag``, so a change to the program under test leaves it alone.
Dividing an operation statistic by the same statistic of the probes from
the same run removes most of the host's phase; ``REFERENCE_S`` turns the
ratio back into a time on a host where the probe takes that long.
"""

from __future__ import annotations

from bisect import bisect_left
from statistics import fmean
from time import perf_counter

import numpy as np

# about the probe's time on a 2-vCPU Xeon VM at 2.0 GHz in a fast phase; only a
# unit, so that normalized figures read as seconds on such a host
REFERENCE_S = 0.003
# share of a workload process's loop time spent in probes
DUTY = 0.03

_RNG = np.random.default_rng(20071025)
_MATRICES = (_RNG.standard_normal((40, 12, 12)) + 1j * _RNG.standard_normal((40, 12, 12))
             + 6.0 * np.eye(12))
_RHS = _RNG.standard_normal((40, 12, 1)) + 0j
_VECTOR = _RNG.standard_normal(64)


def probe() -> float:
    """Run the reference kernel once; return its wall time in seconds."""
    start = perf_counter()
    acc = 0.0
    table = {}
    for i in range(6000):
        x = (i * 0.37) % 1.7
        acc += x * x - acc * 1e-6
        table[i & 63] = acc
    v = _VECTOR
    for _ in range(300):
        v = np.abs(v * 0.999 + 0.001).clip(0.0, 10.0)
        acc += float(v.sum())
    for _ in range(5):
        np.linalg.solve(_MATRICES, _RHS)
    return perf_counter() - start


def normalize(seconds: float, probes: list[float]) -> float:
    """``seconds`` at the host speed the ``probes`` show, scaled to ``REFERENCE_S``."""
    return seconds * REFERENCE_S / fmean(probes)


def normalize_ops(op_s: list[float], probe_s: list[float], probe_after: list[int]) -> list[float]:
    """Normalize each operation by the nearest probes before and after it.

    ``probe_after[k]`` is the index of the operation after which probe ``k``
    ran (-1: before the first); it never decreases, and a probe runs before
    the first operation.
    """
    groups: dict[int, list[float]] = {}
    for seconds, after in zip(probe_s, probe_after):
        groups.setdefault(after, []).append(seconds)
    keys = sorted(groups)
    normalized = []
    for index, seconds in enumerate(op_s):
        k = bisect_left(keys, index)
        near = groups[keys[k - 1]] + (groups[keys[k]] if k < len(keys) else [])
        normalized.append(normalize(seconds, near))
    return normalized
