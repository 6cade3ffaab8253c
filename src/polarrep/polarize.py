"""Inner polarization of the design erasures, exact and certified.

Sub-codeword j's channel, with design erasure z, is inner polarized into the
u-bits j * 2**levels + i (``_polarize``).  The same recursion runs on
integer numerators over one denominator (the exact reduced ratios behind
``simulate --exact``), on erasure polynomials
(``codec.synthetic_polynomials``) and on ``Decimal`` lower and upper bounds
under directed rounding.  The bounds give every u-bit's correctly rounded
float without the full numerators, whose bits double at every level; a bit
is evaluated exactly, along its own index path, only where its bounds round
to different floats.  ``design_ranking`` picks the design's worst bits from
the same bounds, ranking exactly only the one cluster of overlapping bounds
that the cut falls inside.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from typing import Sequence

from .poly import Poly

#: Significant digits of the directed-rounding bounds behind the design
#: floats and ranking; a bit whose two bounds round to different floats is
#: evaluated exactly.
BOUND_PREC = 40


def _polarize(values: list, levels: int, den) -> list:
    """Inner polarization of numerators over the one denominator ``den``
    (an int, or the unit :class:`Poly` for erasure polynomials): entry j
    becomes its synthetic channels at j * 2**levels + i, where the bits of i,
    most significant first, pick the check map z -> 2z - z**2 (0) or the bit
    map z -> z**2 (1), as in ``channel_algebra.standard_synthetic_channel``.

    With z = n/d the maps give n(2d - n)/d**2 and n**2/d**2, so every result
    lies over den**(2**levels).  If n/d is in lowest terms, so are both
    results: each prime of d divides 2d, so it divides neither n nor 2d - n.
    On ``Decimal``s (``den`` 1) every step multiplies non-negative factors,
    so under directed rounding each result bounds its exact value from the
    same side as its input does.
    """
    for _ in range(levels):
        twice = den + den
        nxt = []
        for z in values:
            nxt.append(z * (twice - z))
            nxt.append(z * z)
        values = nxt
        den = den * den
    return values


def synthetic_erasure_ratios(
    per_subword: Sequence[Poly], inner_levels: int, eps: Fraction
) -> list[tuple[int, int]]:
    """Design erasure of every u-bit at ``eps`` as a reduced ratio
    (numerator, denominator): each sub-channel's value, inner polarized
    exactly.  The bits of one sub-codeword share one denominator."""
    ratios = []
    for z in per_subword:
        value = z.evaluate(eps)
        den = value.denominator ** (1 << inner_levels)
        ratios += [(n, den) for n in _polarize([value.numerator], inner_levels, value.denominator)]
    return ratios


def _path_ratio(value: Fraction, levels: int, i: int) -> tuple[int, int]:
    """Exact erasure of inner bit i of a sub-channel with erasure ``value``,
    as ``_polarize`` gives it, along i's own path only."""
    n, d = value.numerator, value.denominator
    for level in reversed(range(levels)):
        n = n * n if i >> level & 1 else n * (d + d - n)
        d *= d
    return n, d


def _bounds(value: Fraction, levels: int, rounding: str) -> list[decimal.Decimal]:
    """``_polarize`` of a sub-channel erasure on ``BOUND_PREC``-digit
    ``Decimal``s rounded towards ``rounding`` (floor or ceiling): a lower or
    an upper bound on the design erasure of each of its inner bits.  The
    exponent range is the widest, so nothing underflows.  Rounding up can
    pass 1, where the check map turns down, so every level is capped at 1."""
    context = decimal.Context(prec=BOUND_PREC, rounding=rounding,
                              Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)
    with decimal.localcontext(context):
        one = decimal.Decimal(1)
        out = [decimal.Decimal(value.numerator) / value.denominator]
        for _ in range(levels):
            out = [min(z, one) for z in _polarize(out, 1, one)]
    return out


def design_ranking(
    per_subword: Sequence[Poly], inner_levels: int, eps: Fraction, cut: int
) -> tuple[list[float], tuple[int, ...]]:
    """Every u-bit's design erasure at ``eps``, correctly rounded to a
    float, and the sorted indices of the ``cut`` worst bits, with the larger
    index first at equal erasure, exactly.

    A bit's float is its lower bound's when both ``_bounds`` round to the
    same float: rounding is monotone, so that is the float of the exact
    value; if they do not, the bit is evaluated exactly along its own path.
    For the cut, the bits are sorted on their upper bounds and grouped into
    clusters of overlapping bounds: a bit whose upper bound lies below the
    least lower bound of the cluster before it starts a new one, so the
    clusters are in exact order, and equal erasures share a cluster.  Only
    the cluster the cut falls inside is ranked on exact integer keys over
    the least common denominator of its bits."""
    values = [z.evaluate(eps) for z in per_subword]
    floats, bounds = [], []
    for value in values:
        lo = _bounds(value, inner_levels, decimal.ROUND_FLOOR)
        hi = _bounds(value, inner_levels, decimal.ROUND_CEILING)
        for i, (a, b) in enumerate(zip(lo, hi)):
            x = float(a)
            if x != float(b):
                n, d = _path_ratio(value, inner_levels, i)
                x = n / d
            floats.append(x)
        bounds += zip(lo, hi)
    if not 0 < cut < len(floats):
        return floats, tuple(range(cut))
    worst, cluster = [], []
    for i in sorted(range(len(floats)), key=lambda i: bounds[i][1], reverse=True):
        low, high = bounds[i]
        if cluster and high < floor:
            if len(worst) + len(cluster) >= cut:
                break
            worst += cluster
            cluster = []
        floor = min(floor, low) if cluster else low
        cluster.append(i)
    rest = cut - len(worst)
    if rest < len(cluster):
        ratios = {i: _path_ratio(values[i >> inner_levels], inner_levels, i) for i in cluster}
        common = math.lcm(*{d for _, d in ratios.values()})
        keys = {i: n * (common // d) for i, (n, d) in ratios.items()}
        cluster.sort(key=lambda i: (keys[i], i), reverse=True)
    return floats, tuple(sorted(worst + cluster[:rest]))


def synthetic_erasure_values(
    per_subword: Sequence[Poly], inner_levels: int, eps: Fraction
) -> list[Fraction]:
    """Design erasure of every u-bit at ``eps``, as exact fractions."""
    return [Fraction(n, d) for n, d in synthetic_erasure_ratios(per_subword, inner_levels, eps)]
