"""Fixed reference computations that measure the host's current speed.

On a shared host the speed of one vCPU drifts by a third within seconds.
The worker runs a probe just before and just after each operation, for a
share of the operation's own time, and scales the operation's time by
``reference time / mean probe time``, so a figure reads as the time the
operation would take at the reference speed.  Each workload uses the probe
whose work resembles its operations, because interpreter work and BLAS
calls do not slow down alike: ``interpreter`` formats and parses floats, as
the CLI's CSV and JSON I/O do, and runs one small symmetric
eigendecomposition; ``blas`` multiplies two 256x256 matrices.  The probes run no ophp code, so a change to the program cannot
move them.
"""

import gc
import time

import numpy as np

# Bound at import, before the tracer wraps numpy.linalg.
from numpy.linalg import eigh

_VALUES = np.random.default_rng(0).standard_normal(400).tolist()
_SYMMETRIC = np.random.default_rng(1).standard_normal((48, 48))
_SYMMETRIC = _SYMMETRIC + _SYMMETRIC.T
_SQUARE = np.random.default_rng(2).standard_normal((256, 256))


def _interpreter():
    parsed = [float(t) for t in ",".join(repr(v) for v in _VALUES).split(",")]
    if parsed[-1] != _VALUES[-1]:
        raise AssertionError("probe parsed its own output wrongly")
    eigh(_SYMMETRIC)


def _blas():
    _SQUARE @ _SQUARE


# name -> (computation, its typical time in ms on a 2-vCPU Intel Xeon with
# one BLAS thread)
PROBES = {
    "interpreter": (_interpreter, 1.0),
    "blas": (_blas, 0.7),
}


def probe(name: str) -> int:
    """CPU nanoseconds of one run of the named probe.  The garbage collector
    is off while it runs, so the size of the program's heap cannot change
    its time."""
    work = PROBES[name][0]
    gc.disable()
    try:
        start = time.process_time_ns()
        work()
        return time.process_time_ns() - start
    finally:
        gc.enable()


def sample(name: str, budget_ns: float) -> list:
    """Runs the named probe until ``budget_ns`` of probe time have passed,
    and at least once; returns each run's CPU nanoseconds."""
    runs = [probe(name)]
    while sum(runs) < budget_ns:
        runs.append(probe(name))
    return runs


def speed(name: str, probes_ns) -> float:
    """Factor that converts a time measured beside ``probes_ns`` of the
    named probe to the reference speed."""
    return PROBES[name][1] * 1e6 * len(probes_ns) / sum(probes_ns)
