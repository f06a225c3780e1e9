"""Host-speed probe: rescales measured times to a reference host speed.

On a shared virtual machine the speed of the same code drifts by tens of
percent within seconds and by up to about 2x over minutes, in CPU time as
much as in wall time (the process is not descheduled; each instruction just
runs slower).  A fixed probe of benchmark-owned code, a mix of interpreted
complex arithmetic and small numpy calls like the package's inner loops, is
timed right before and right after every measured operation.  Its fastest
repeat tracks the host's current speed, and a time scaled by
``REFERENCE_PROBE_S / probe`` reads as the time on a host where the probe
takes ``REFERENCE_PROBE_S``.  The probe never calls the package, so no change
to the package can move it.
"""
from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# The probe's fastest repeat on a 2-core Intel Xeon VM (Python 3.11, numpy
# 2.4) in its faster phases; a constant, so scaled times of different runs
# and commits compare directly.
REFERENCE_PROBE_S = 0.0009
PROBE_REPEATS = 10

_T = np.arange(16.0).reshape(2, 2, 2, 2) * (1 + 0.5j)
_V = np.array([0.6 + 0.1j, -0.3 + 0.7j])
_PHASE = complex(math.cos(0.3), math.sin(0.3))


def _probe_once() -> float:
    start = perf_counter()
    total = 0j
    for i in range(2000):
        total += (i * 0.5 + 1j) * _PHASE ** (i % 3)
    for _ in range(30):
        np.einsum("ijkl,i,j->kl", _T, _V, _V.conj())
        np.linalg.eigh(np.eye(2) + 0.1 * _T[0, 0])
    return perf_counter() - start


def probe() -> float:
    """Fastest of ``PROBE_REPEATS`` runs of the probe, in seconds."""
    return min(_probe_once() for _ in range(PROBE_REPEATS))


def timed(fn, *args):
    """Call ``fn(*args)`` between two probes.

    Returns (result, seconds, probe seconds), the probe being the faster of
    the two sides.
    """
    before = probe()
    start = perf_counter()
    result = fn(*args)
    elapsed = perf_counter() - start
    return result, elapsed, min(before, probe())


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` rescaled to the reference host speed."""
    return seconds * REFERENCE_PROBE_S / probe_s
