"""A fixed computation that gauges how fast the host runs at the moment.

On a shared host the speed of the same work drifts by a third or more,
over seconds to minutes, as neighbours load the machine.  The benchmark times
this reference right before every CLI run and scales each run's times by
the reference's, so that most of the drift cancels.  The reference uses only
the standard library, never polarrep, so no change to the program under test
can move it.  It stays in pure Python and allocates little, so the benchmark
process stays small: a child's max-RSS starts from its parent's size at the
fork.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

#: Normalised times are raw seconds x (NOMINAL_S / reference seconds) **
#: SENSITIVITY.  On a 2-vCPU Xeon VM the reference takes 0.05 to 0.14 s,
#: mostly about 0.09.
NOMINAL_S = 0.1
#: How far the CLI runs' times move with the reference's.  The reference's
#: time swings more than theirs, so scaling by the whole ratio over-corrects;
#: of the exponents 0.5, 0.75 and 1, 0.75 left the smallest run-to-run
#: spread on all three workloads (perfbench/README.md).
SENSITIVITY = 0.75


def _fraction_convolution() -> Fraction:
    """Exact products and sums, as ``Poly`` multiplication does them."""
    a = [Fraction(i + 1, 2 * i + 3) for i in range(100)]
    b = [Fraction(2 * i + 1, i + 5) for i in range(100)]
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return sum(out)


def _interpreter_loop() -> int:
    """Small-integer arithmetic, indexing and dict updates."""
    counts: dict[int, int] = {}
    bits = [0] * 1024
    for i in range(100_000):
        k = (i * 2654435761) & 1023
        bits[k] ^= i & 1
        counts[k & 255] = counts.get(k & 255, 0) + bits[k]
    return sum(counts.values())


def reference_s() -> float:
    """Wall seconds of one run of the reference computation."""
    start = perf_counter()
    _fraction_convolution()
    _interpreter_loop()
    return perf_counter() - start
