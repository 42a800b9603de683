"""A fixed probe that measures how fast the machine runs, during each op.

On a shared host the same code runs at different speeds from one moment
to the next (a core's neighbours come and go), by up to 1.7x and often
within a second, so an op of a few seconds cannot be timed steadier than
that.  The benchmark therefore times this probe every ``INTERVAL_S`` while
an op runs (``Sampler``, driven by SIGALRM) and rescales the op's wall time
to the speed the probe reports:

    op_s = (wall - probe time) * NOMINAL_S / mean probe time

so an op reads the seconds it would take on a machine where the probe
takes ``NOMINAL_S``.  The probe uses scipy only, on inputs fixed here, and
calls the solver it looked up at import, so no change to the library and
no tracing wrapper can change it.

The probe is a small sparse direct solve.  Four candidates were timed
around the ops of all four workloads for 80-250 s each: an interpreted
Python loop, batched 2x2 eigensolves, a dense matrix product and a sparse
solve.  Rescaling by the sparse solve left about the least spread in the
ops' 20-25 s medians on every workload; the Python loop left the most.
Sampling it during the op rather than between ops halved the spread again
on three workloads (per-op coefficient of variation 0.08 instead of 0.16
on pointwise_suite, 0.02 instead of 0.15 on torus_c2_global).
"""

import signal
import statistics
import time

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import spsolve as _spsolve

# about what one probe takes on an idle core of a 2-vCPU Xeon (Sapphire
# Rapids) virtual machine; only a unit, fixed once for all runs
NOMINAL_S = 0.0012
INTERVAL_S = 0.05  # between probes while an op runs (about 3 % of its time)
MEASURE_PROBES = 30

_K = 20
_L1 = scipy.sparse.diags([-1.0, 2.1, -1.0], [-1, 0, 1], shape=(_K, _K))
_I = scipy.sparse.identity(_K)
_L = (scipy.sparse.kron(_L1, _I) + scipy.sparse.kron(_I, _L1)).tocsc()
_B = np.random.default_rng(20251029).normal(size=_K * _K)


def probe():
    """Wall seconds of one sparse direct solve of a 400-unknown 2-D
    Laplacian."""
    t = time.perf_counter()
    _spsolve(_L, _B)
    return time.perf_counter() - t


def measure():
    """Mean probe time over ``MEASURE_PROBES`` probes in a row."""
    return statistics.fmean(probe() for _ in range(MEASURE_PROBES))


class Sampler:
    """Times the probe every ``INTERVAL_S`` while the ``with`` block runs.

    ``samples`` holds the probe times, ``spent`` the seconds the handler
    took, to be taken off the block's wall time.  The handler runs between
    bytecodes of the main thread, so a long call into C delays it until
    the call returns.  One more probe runs right after the block, so even a
    block shorter than the interval has a sample.
    """

    def __enter__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _handler(self, signum, frame):
        t = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())
        return False

    def speed(self):
        """Mean probe time during the block (and right after it)."""
        return statistics.fmean(self.samples)
