"""Host speed, measured between operations, to scale wall times to a reference speed.

The benchmark runs on shared virtual machines whose speed drifts by up to
1.8x over minutes while no other process of the guest runs and no steal
time is reported: the same fixed loop takes 0.10 s in one minute and
0.18 s in the next, in CPU time as in wall time. A run of 30 s therefore
lands in a fast or a slow stretch, and wall times alone spread by more
than a regression the benchmark must catch.

``Speed.sample`` times a fixed kernel of the same kinds of work the
program does: a dense eigensolve, a loop of small numpy operations and
string formatting. The program's large eigensolves respond less to the
drift than this kernel does, and a kernel built around a 256-wide
eigensolve tracked them better but the simulations worse; over nine runs
per workload this kernel left the smaller spread on every end-to-end
time. The benchmark samples it before and after every timed
operation, outside the timed region, and ``Speed.factor`` scales the
operation's wall time by ``REFERENCE_S`` over the mean of the two
samples. A scaled time reads as the seconds the operation would take
when the kernel takes ``REFERENCE_S``; raw wall times and every kernel
sample are kept in the result file.
"""

from time import perf_counter

import numpy as np

# Median time of one ``kernel`` call on a 2-vCPU Intel Xeon virtual
# machine at 2.0 GHz, BLAS on one thread, Python 3.11 and numpy 2.4.
REFERENCE_S = 0.013
REPEATS = 3
# Eigensolves of lifts too large for the core's own caches speed up less
# than the kernel when the host does: by 1.36x and 1.48x where the kernel
# sped up 1.65x and 1.88x. Their scale factor is raised to this power,
# which of 0.5, 0.6, 0.75 and 1 left the smallest spread of their time
# between runs in three of four sets of ten runs.
DENSE_EXPONENT = 0.75

_rng = np.random.default_rng(20240917)
_DENSE = _rng.standard_normal((80, 80))
_SMALL = _rng.standard_normal((8, 8)) / 4.0
_VEC = _rng.standard_normal(8)


def kernel():
    """A fixed mix of LAPACK, small-array numpy and interpreter work."""
    np.linalg.eigvals(_DENSE)
    x = _VEC
    for _ in range(1200):
        x = np.tanh(_SMALL @ x + _VEC)
    ",".join(f"{v:.17g}" for v in np.linspace(0.0, 1.0, 2500))


class Speed:
    """Kernel samples taken between operations."""

    def __init__(self):
        kernel()  # warm caches and lazy imports
        self.samples = []

    def sample(self):
        """Time the kernel ``REPEATS`` times; returns and keeps the mean seconds per call.

        One untimed call comes first: the operation or subprocess before a
        sample leaves the caches cold, and samples taken cold right after
        the import subprocess ran up to 2.4x the median of their run.
        """
        kernel()
        t0 = perf_counter()
        for _ in range(REPEATS):
            kernel()
        s = (perf_counter() - t0) / REPEATS
        self.samples.append(s)
        return s

    @staticmethod
    def factor(before, after, dense=False):
        """Scale from wall to reference seconds for the time between two samples."""
        f = REFERENCE_S / (0.5 * (before + after))
        return f**DENSE_EXPONENT if dense else f
