"""Inner polarization of the design erasures, exact and certified.

Sub-codeword j's channel, with design erasure z, is inner polarized into the
u-bits j * 2**levels + i (``_polarize``), on integer numerators over one
denominator (the exact ratios behind ``simulate --exact``), on erasure
polynomials (``codec.synthetic_polynomials``) and on binary mantissas
floored to ``MANTISSA_BITS`` bits, lower bounds that a fixed count of units
in the last place turns into upper ones.  ``design_ranking`` takes each
u-bit's correctly rounded float and the design's worst bits from the
bounds, evaluating a bit exactly, along its own index path, only where they
do not decide.  The design needs only the sub-channel erasures at the
design point, as fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

#: Bits of the floored mantissas behind the design floats and ranking; a bit
#: whose two bounds round to different floats is evaluated exactly.
MANTISSA_BITS = 160


def _polarize(values: list, levels: int, den) -> list:
    """Inner polarization of numerators over the one denominator ``den``
    (an int, or the unit ``Poly`` for erasure polynomials): entry j
    becomes its synthetic channels at j * 2**levels + i, where the bits of i,
    most significant first, pick the check map z -> 2z - z**2 (0) or the bit
    map z -> z**2 (1), as in ``channel_algebra.standard_synthetic_channel``.

    With z = n/d the maps give n(2d - n)/d**2 and n**2/d**2, so every result
    lies over den**(2**levels).  If n/d is in lowest terms, so are both
    results: each prime of d divides 2d, so it divides neither n nor 2d - n.
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


def synthetic_erasure_ratios(values: Sequence[Fraction], levels: int) -> list[tuple[int, int]]:
    """Design erasure of every u-bit as a reduced ratio (numerator,
    denominator): each sub-channel erasure in ``values``, inner polarized
    exactly.  The bits of one sub-codeword share one denominator."""
    ratios = []
    for value in values:
        den = value.denominator ** (1 << levels)
        ratios += [(n, den) for n in _polarize([value.numerator], levels, value.denominator)]
    return ratios


def _path_ratio(value: Fraction, levels: int, i: int) -> tuple[int, int]:
    """Exact erasure of inner bit i of a sub-channel with erasure ``value``,
    as ``_polarize`` gives it, along i's own path only."""
    n, d = value.numerator, value.denominator
    for level in reversed(range(levels)):
        n = n * n if i >> level & 1 else n * (d + d - n)
        d *= d
    return n, d


def _floor_pass(value: Fraction, levels: int) -> list[tuple[int, int]]:
    """``_polarize`` of a sub-channel erasure on mantissas (n, e) = n * 2**-e,
    n of ``MANTISSA_BITS`` = P bits, every step floored to P bits: both maps
    increase on [0, 1], so this bounds each inner bit from below.  The check
    map gives the mantissa 2n - n**2 / 2**e in [n, 2n], floored as
    2n + (-n**2 >> e) without the e-bit 2**e, and the bit map n**2 over
    2**2e."""
    bits, p, q = MANTISSA_BITS, value.numerator, value.denominator
    if not p:  # exact, and with no P-bit mantissa
        return [(0, 0)] * (1 << levels)
    e = bits + q.bit_length() - p.bit_length()
    n = (p << e) // q  # p/q * 2**e lies in (2**(P-1), 2**(P+1))
    if n >> bits:
        n, e = n >> 1, e - 1
    level = [(n, e)]
    for _ in range(levels):
        nxt = []
        for n, e in level:
            sq = n * n
            x = n + n + (-sq >> e)
            s, t = x.bit_length() - bits, sq.bit_length() - bits
            nxt += (x >> s, e - s), (sq >> t, e + e - t)
        level = nxt
    return level


def _slack(value: Fraction, levels: int) -> int | None:
    """Units in the last place that turn a lower mantissa of ``_floor_pass``
    into an upper bound, or None where the bound is 1.  With the lower bound
    z(1 - rho), the first floor leaves rho < u = 2**(1-P), a bit step
    2 rho + u and a check step rho + u.  So after L levels rho < 2**(L+2-P),
    and for rho <= 1/2, z <= lower (1 + 2 rho) < lower + 2**(L+3) units.  A
    dyadic value over 2**k has results over 2**(k * 2**L); when that is at
    most 2**P they all fit in P bits, no floor drops a bit, and the slack
    is 0."""
    q, bits = value.denominator, MANTISSA_BITS
    if q & (q - 1) == 0 and (q.bit_length() - 1) << levels <= bits:
        return 0
    return 1 << levels + 3 if bits >= levels + 3 else None


def _float(n: int, e: int) -> float:
    """n * 2**-e correctly rounded: by ``ldexp`` (which rounds n, then scales)
    for a normal result and n below 2**1024, else by exact division."""
    top = n.bit_length() - e  # n * 2**-e < 2**top; below 2**-1075 it rounds to 0.0
    if top > -1022 and n.bit_length() < 1000:
        return math.ldexp(n, -e)
    return n / (1 << e) if top > -1075 else 0.0


def design_ranking(
    values: Sequence[Fraction], inner_levels: int, cut: int
) -> tuple[list[float], tuple[int, ...]]:
    """Every u-bit's design erasure, given the sub-channel erasures
    ``values`` at the design point, correctly rounded to a float, and the
    sorted indices of the ``cut`` worst bits, with the larger index first at
    equal erasure, exactly.

    A bit's float is its lower bound's when its upper bound rounds to the
    same float (rounding is monotone), else its exact value's.  For the cut,
    the bits are sorted on their lower bounds, and a bit whose upper bound on
    the widest slack lies below the lower bound before it starts a new
    cluster; units do not shrink as the bound grows, so the clusters are in
    exact order, and equal erasures share one.  Only the cluster the cut
    falls inside is ranked on exact integer keys over the least common
    denominator of its bits."""
    levels, bits, size = inner_levels, MANTISSA_BITS, len(values) << inner_levels
    bounds = [b for value in values for b in _floor_pass(value, levels)]
    slacks, floats = [_slack(value, levels) for value in values], []
    for i, (n, e) in enumerate(bounds):
        x, s = _float(n, e), slacks[i >> levels]
        if x != (1.0 if s is None else _float(n + s, e)):
            n, d = _path_ratio(values[i >> levels], levels, i)
            x = n / d
        floats.append(x)
    if not 0 < cut < size:
        return floats, tuple(range(cut))
    # On P-bit mantissas the (-e, n) order is the order of the values; a
    # zero's (0, 0) is not, so then no bounds split the bits.
    keys = [n - (e << bits) for n, e in bounds]
    wide = max(slacks) if all(values) and None not in slacks else None
    worst, cluster = [], []
    for i in sorted(range(size), key=keys.__getitem__, reverse=True):
        if cluster and wide is not None:
            (n, e), (above, f) = bounds[i], bounds[cluster[-1]]
            # e >= f, and two binades down the upper bound lies below.
            if n + wide < above << min(e - f, 2):
                if len(worst) + len(cluster) >= cut:
                    break
                worst += cluster
                cluster = []
        cluster.append(i)
    rest = cut - len(worst)
    if rest < len(cluster):
        ratios = {i: _path_ratio(values[i >> levels], levels, i) for i in cluster}
        common = math.lcm(*{d for _, d in ratios.values()})
        keys = {i: n * (common // d) for i, (n, d) in ratios.items()}
        cluster.sort(key=lambda i: (keys[i], i), reverse=True)
    return floats, tuple(sorted(worst + cluster[:rest]))


def synthetic_erasure_values(values: Sequence[Fraction], levels: int) -> list[Fraction]:
    """``synthetic_erasure_ratios`` as fractions."""
    return [Fraction(n, d) for n, d in synthetic_erasure_ratios(values, levels)]
