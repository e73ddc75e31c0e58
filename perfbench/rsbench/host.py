"""The host-speed probe: a fixed kernel whose time tracks the host, not the program.

On a shared host the speed of a process drifts by tens of percent and
differs most from one process to the next; the program slows with it.
Process CPU time tracks wall time, so this is not scheduling.  Each worker
runs the probe before every call and a few times before its cold call and
after its loop, and its timings are scaled by ``NOMINAL_S`` over the mean of
its probe times, so they read as seconds on a host where the probe takes
``NOMINAL_S``.  The probe is a single-threaded LAPACK call on a fixed matrix
of the benchmark's own; a change to the program does not move it.
"""

from __future__ import annotations

import time

import numpy as np

#: the probe's time on the nominal host; a scaled timing reads as on that host
NOMINAL_S = 0.013
#: order of the complex matrix whose eigenvalues the probe computes
PROBE_ORDER = 100


def _fixed_matrix():
    re, im = np.random.default_rng(20250508).standard_normal((2, PROBE_ORDER, PROBE_ORDER))
    return re + 1j * im


_MATRIX = _fixed_matrix()


def probe() -> float:
    """Seconds the fixed kernel takes now (about 13 ms on one core)."""
    start = time.perf_counter()
    np.linalg.eigvals(_MATRIX)
    return time.perf_counter() - start
