"""Host-speed probe that scales the benchmark's times to a reference speed.

A shared host can run the same pass 20 to 50% slower for minutes at a time,
and a run's median cannot average that away. The probe times a fixed mix of
the operations the package spends its time in: small numpy eigensolves and
inverses, exact Fraction arithmetic and a 30-digit mpmath eigensolve. It uses
none of the package's code, so no change to the package can move it. run.py
probes once before each pass and scales that pass's times by
REFERENCE_S / (probe time).
"""

from __future__ import annotations

import time
from fractions import Fraction

import mpmath
import numpy as np

# about the median probe time on a shared 2-core Intel Xeon VM at 2.1 GHz
# with Python 3.11.7, numpy 2.4.6 and mpmath 1.3.0: times are reported at
# that host's typical speed
REFERENCE_S = 0.25

_MATRIX = np.eye(8) + 0.01 * np.arange(64.0).reshape(8, 8)
_BLOCK = np.array([[2.0, 0.5], [0.5, 3.0]])


def probe() -> float:
    """Seconds the fixed mix takes now."""
    t0 = time.perf_counter()
    for i in range(1500):
        np.linalg.eigvals(_MATRIX)
        np.linalg.inv(_BLOCK + i)
        (Fraction(1.0 + i) - Fraction(0.5)) * (Fraction(1.0 + i) + Fraction(0.5))
    with mpmath.mp.workdps(30):
        k = mpmath.matrix(_MATRIX.tolist())
        for _ in range(3):
            mpmath.eig(k, left=False, right=False)
    return time.perf_counter() - t0
