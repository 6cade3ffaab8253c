"""Inner polarization of the design erasures, exact and certified.

Sub-codeword j's channel, with design erasure z, is inner polarized into the
u-bits j * 2**levels + i (``_polarize``).  The same recursion runs on
integer numerators over one denominator (the exact reduced ratios behind
``simulate --exact`` and ``CodeSpec.design_ratios``), on erasure
polynomials (``codec.synthetic_polynomials``) and on ``Decimal`` lower and
upper bounds under directed rounding.  The bounds give every u-bit's
correctly rounded float without the full numerators, whose bits double at
every level; a bit is evaluated exactly, along its own index path, only
where its bounds cannot decide.  ``_rank_ties`` orders a run of equal floats
exactly, by the bounds where they are disjoint and on exact keys where they
overlap.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from typing import Sequence

from .poly import Poly

#: Significant digits of the directed-rounding bounds behind the design
#: floats; a bit whose two bounds round to different floats is evaluated
#: exactly.
BOUND_PREC = 40

#: A sub-codeword whose exact design ratios have denominators of at most
#: this many bits takes its floats from them: up to about there, the int
#: arithmetic is cheaper than the bounds.
EXACT_BITS = 3000


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
    return [ratio for z in per_subword for ratio in _ratios(z.evaluate(eps), inner_levels)]


def _ratios(value: Fraction, levels: int) -> list[tuple[int, int]]:
    """Exact erasures of the inner bits of a sub-channel with erasure
    ``value``, as reduced ratios over one denominator."""
    den = value.denominator ** (1 << levels)
    return [(n, den) for n in _polarize([value.numerator], levels, value.denominator)]


def _path_ratio(value: Fraction, levels: int, i: int) -> tuple[int, int]:
    """Exact erasure of inner bit i of a sub-channel with erasure ``value``,
    as ``_polarize`` gives it, along i's own path only."""
    n, d = value.numerator, value.denominator
    for level in reversed(range(levels)):
        n = n * n if i >> level & 1 else n * (d + d - n)
        d *= d
    return n, d


def _bounds(
    value: Fraction, levels: int, rounding: str, path: int | None = None
) -> list[decimal.Decimal]:
    """``_polarize`` of a sub-channel erasure on ``BOUND_PREC``-digit
    ``Decimal``s rounded towards ``rounding`` (floor or ceiling): a lower or
    an upper bound on the design erasure of each of its inner bits, or with
    ``path`` only of inner bit ``path``.  The exponent range is the widest,
    so nothing underflows.  Rounding up can pass 1, where the check map
    turns down, so every level is capped at 1."""
    context = decimal.Context(prec=BOUND_PREC, rounding=rounding,
                              Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)
    with decimal.localcontext(context):
        one = decimal.Decimal(1)
        out = [decimal.Decimal(value.numerator) / value.denominator]
        for level in reversed(range(levels)):
            out = [min(z, one) for z in _polarize(out, 1, one)]
            if path is not None:
                out = [out[path >> level & 1]]
    return out


_ROUNDINGS = (decimal.ROUND_FLOOR, decimal.ROUND_CEILING)


def synthetic_erasure_floats(
    per_subword: Sequence[Poly], inner_levels: int, eps: Fraction
) -> list[float]:
    """Design erasure of every u-bit at ``eps``, correctly rounded to a
    float.  Short exact ratios (``EXACT_BITS``) are divided.  Otherwise a
    bit's float is its lower bound's when both ``_bounds`` round to the same
    float: rounding is monotone, so that is the float of the exact value;
    if they do not, the bit is evaluated exactly along its own path."""
    floats = []
    for z in per_subword:
        value = z.evaluate(eps)
        if value.denominator.bit_length() << inner_levels <= EXACT_BITS:
            floats += [n / d for n, d in _ratios(value, inner_levels)]
            continue
        lo, hi = (_bounds(value, inner_levels, r) for r in _ROUNDINGS)
        for i, (a, b) in enumerate(zip(lo, hi)):
            x = float(a)
            if x != float(b):
                n, d = _path_ratio(value, inner_levels, i)
                x = n / d
            floats.append(x)
    return floats


def _rank_ties(
    run: list[int], per_subword: Sequence[Poly], levels: int, eps: Fraction
) -> list[int]:
    """The u-bits of ``run`` worst first, and at equal erasure the larger
    index first, exactly.  Each bit's ``_bounds`` are taken along its own
    path; bits whose bounds are disjoint are in order by them, and only a
    cluster of overlapping bounds is sorted on exact integer keys over the
    least common denominator of that cluster."""
    if len(run) == 1:
        return run
    values = [z.evaluate(eps) for z in per_subword]
    bounds = {i: [_bounds(values[i >> levels], levels, r, i)[0] for r in _ROUNDINGS] for i in run}

    def exactly(cluster: list[int]) -> list[int]:
        if len(cluster) == 1:
            return cluster
        ratios = {i: _path_ratio(values[i >> levels], levels, i) for i in cluster}
        common = math.lcm(*{d for _, d in ratios.values()})
        keys = {i: n * (common // d) for i, (n, d) in ratios.items()}
        return sorted(cluster, key=lambda i: (keys[i], i), reverse=True)

    ranked, cluster = [], []
    for i in sorted(run, key=lambda i: bounds[i][1], reverse=True):
        lo, hi = bounds[i]
        if cluster and hi < floor:
            ranked += exactly(cluster)
            cluster = []
        floor = min(floor, lo) if cluster else lo
        cluster.append(i)
    return ranked + exactly(cluster)


def synthetic_erasure_values(
    per_subword: Sequence[Poly], inner_levels: int, eps: Fraction
) -> list[Fraction]:
    """Design erasure of every u-bit at ``eps``, as exact fractions."""
    return [Fraction(n, d) for n, d in synthetic_erasure_ratios(per_subword, inner_levels, eps)]
