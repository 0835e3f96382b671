"""Host speed, measured with fixed work that uses no `pam` code.

On a shared machine the same work runs up to 1.8x slower for stretches
of seconds to minutes, while CPU time stays equal to wall time: the host
itself runs slower.  The benchmark times a fixed kernel just before and
just after each round, and reports every time as it would read at the
kernel's reference speed:

    reported = measured * REFERENCE_S / kernel time around the measurement

The kernel does the three kinds of work the workloads do, in about equal
shares: exact rational arithmetic on a few hundred bits, big-integer
products, and small numpy matrix-vector steps.  It is the benchmark's own
code, so a change to `pam` moves the workload times and leaves the kernel
alone.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import List

import numpy

# reported times read as on a host where the kernel takes this long; on
# the host this was written on (2 vCPUs, Python 3.11.7, numpy 2.4.6) it
# took 17-25 ms when fast.  Only ratios between runs matter.
REFERENCE_S = 0.020

_BIG = [(7 ** (900 + i)) | 1 for i in range(40)]
_WALK = numpy.eye(41, k=1) + numpy.eye(41, k=-1) + numpy.eye(41)
_MASK = (1 << 300) - 1


def kernel() -> tuple:
    x = Fraction(3, 7)
    for i in range(300):
        x = (x * x + Fraction(1, i + 2)) / (x + 1)
        x = Fraction(x.numerator & _MASK, (x.denominator & _MASK) or 1)
    acc = 1
    for a in _BIG:
        for b in _BIG[:3]:
            acc = (acc * a + b) % (b * a)
    v = numpy.ones(41)
    for _ in range(1400):
        v = _WALK @ v
        v /= numpy.linalg.norm(v)
    return x, acc, float(v[0])


class HostSpeed:
    """Samples of the kernel's time, taken on demand."""

    def __init__(self):
        self.samples: List[float] = []

    def scale(self) -> float:
        """REFERENCE_S over the kernel's time now."""
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)
        return REFERENCE_S / self.samples[-1]
