"""Reference kernel that tracks the speed of the host.

On a shared host the CPU time of one identical round swings by up to 30 %
within minutes as neighbours load the cores.  The benchmark therefore runs
this fixed kernel before and after every timed unit (a round, or a fresh
interpreter for set-up) and rescales the unit's CPU time to a host on which
the kernel takes ``NOMINAL_S``:

    reported = CPU time x NOMINAL_S / mean(kernel before, kernel after)

The kernel uses numpy and Python only, never qmarkov, so no change to the
package can move it.  Its mix (3x3 Kronecker products with float formatting,
batched 6x6 eigvalsh, 9x9 SVDs) follows where the rounds spend their time.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Median kernel time on a 2-vCPU Xeon (2.1 GHz) host, so that reported times
# read close to raw CPU seconds there.
NOMINAL_S = 0.2


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._k = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = rng.standard_normal((500, 6, 6))
        self._h = h + h.transpose(0, 2, 1)
        self._m = rng.standard_normal((9, 9))

    def run(self) -> float:
        """CPU seconds of one pass of the kernel."""
        start = time.process_time()
        acc = 0.0
        for _ in range(4000):
            acc += len(f"{np.kron(self._k.conj(), self._k)[0, 0].real:.15g}")
        for _ in range(25):
            acc += float(np.linalg.eigvalsh(self._h)[:, -1].sum())
        for _ in range(2000):
            acc += float(np.linalg.svd(self._m, compute_uv=False)[0])
        elapsed = time.process_time() - start
        if not math.isfinite(acc):
            raise ArithmeticError("reference kernel produced a non-finite sum")
        return elapsed

    @staticmethod
    def rescaled(cpu_s: float, before: float, after: float) -> float:
        """``cpu_s`` on a host where the kernel takes NOMINAL_S."""
        return cpu_s * NOMINAL_S / ((before + after) / 2.0)
