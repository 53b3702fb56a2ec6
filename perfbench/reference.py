"""A fixed reference task that measures how fast the host runs right now.

On a shared host the same work runs at uneven speed: from one minute to
the next the cores are slower or faster by a fifth or more, for the
program and for anything else alike.  The benchmark runs this task
between the program's units and reports each time metric scaled to the
speed at which the task takes ``NOMINAL_S``.  The task uses numpy alone,
no program code, so a change to the program cannot move it.  Like the
program it makes many small numpy calls from Python, on 2-5 dimensional
matrices as in ``suite`` and ``orders``, and a few on 16-24 dimensional
ones as in ``wide``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median time of one task on the 2-core x86_64 machine the baseline was
# taken on (perfbench/README.md); the scale of every reported time
NOMINAL_S = 2.5e-3
# one task: eigendecompose and rebuild this many small and large matrices,
# taken in turn from pools large enough that the task walks through memory
SMALL, LARGE = 100, 3
SMALL_DIMS, LARGE_DIMS = (2, 3, 4, 5), (16, 20, 24)
SMALL_POOL, LARGE_POOL = 4000, 60
# share of each unit's wall time spent on the task after it
SHARE = 0.03


def _hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g + g.conj().T


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = [_hermitian(rng, SMALL_DIMS[i % len(SMALL_DIMS)])
                      for i in range(SMALL_POOL)]
        self.large = [_hermitian(rng, LARGE_DIMS[i % len(LARGE_DIMS)])
                      for i in range(LARGE_POOL)]
        self.tasks = 0
        self.times: list[float] = []

    def task(self) -> float:
        """Eigendecompose each matrix and rebuild it from the result, so the
        task makes matrix products as well as ``eigh`` calls, as the program
        does.  Returns the largest reconstruction error, which is not used."""

        k = self.tasks
        self.tasks += 1
        picks = (self.small[(k * SMALL) % SMALL_POOL:][:SMALL]
                 + self.large[(k * LARGE) % LARGE_POOL:][:LARGE])
        err = 0.0
        for m in picks:
            w, u = np.linalg.eigh(m)
            err = max(err, float(np.abs((u * w) @ u.conj().T - m).max()))
        return err

    def pace(self, wall: float) -> None:
        """Run the task, at least once, until ``SHARE`` of ``wall`` is spent."""

        spent = 0.0
        while spent <= SHARE * wall:
            t0 = time.perf_counter()
            self.task()
            took = time.perf_counter() - t0
            self.times.append(took)
            spent += took

    def scale(self, first: int = 0) -> float:
        """Factor that takes a time measured while tasks ``first`` on ran
        to the nominal speed."""

        return NOMINAL_S / statistics.median(self.times[first:])
