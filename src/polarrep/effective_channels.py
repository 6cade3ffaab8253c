"""Exact effective-channel erasure polynomials for pattern assignments.

Three computations live here, deliberately kept independent of one another so
they can be cross-checked:

* ``regular_block_erasures`` -- the closed-form design recursion for a single
  regular pattern: at each level the odd child maps z -> z*(1 + z - z**2)
  and the even child z -> z**2 when the pattern bit polarizes, both children
  staying at z when it does not.  It walks numerators over one shared
  denominator, so it yields the polynomials or, at a rational point, their
  exact integer numerators.
* ``assignment_erasures`` -- the design analysis for an arbitrary multiset
  of kernels: blocks with identical kernels merge their aligned legs at each
  polarizing level, distinct kernels contribute independent per-block
  factors, and a lone polarizing block resolves its partner through two uses
  of the partner's channel (the same convention the single-pattern recursion
  bakes into its odd-child map).  This reproduces the closed-form
  effective-channel expressions of the best known patterns and reduces to
  the exact decoder analysis for two repetitions and for pure-repetition
  assignments.  Each factor (the walk ``patterns._factor`` on ``EPS`` over
  the unit polynomial) depends only on (kernel, multiplicity,
  sub-codeword), so it is computed once (``_design_factor``) and shared by
  every assignment.
* ``reference_expression_set`` -- fixed transcriptions of the known
  closed-form effective-channel expressions for the best four-repetition
  patterns, written with the check, bit and repetition transforms of
  :mod:`polarrep.channel_algebra` and kept as a golden reference.

The design analysis is a per-channel-use calculation, deliberately simpler
than the full behavior of the operational decoder in :mod:`polarrep.codec`;
the codec's brute-force oracle measures the difference, which is zero for
two repetitions and confined to coefficients at or above the shortest route
weight for four.
"""

from __future__ import annotations

from functools import cache
from fractions import Fraction
from typing import NamedTuple

from .channel_algebra import bit_combine, check_combine, repeat_channel
from .patterns import Kernel, PatternAssignment, PatternFamily, _factor, _kernel_groups
from .poly import EPS, ONE, Poly


class EffectiveChannelSet(NamedTuple):
    """Per-sub-codeword erasure polynomials and the scheme's capacity.

    ``capacity_poly`` is the achievable rate per channel use per
    transmission: (sum of per-sub-codeword capacities) / r**2, the r**2
    accounting for both the r sub-codewords and the r transmissions.  It is
    stored as the integer polynomial r - sum(z) over the one denominator
    r**2, reduced by their common factor.
    """

    r: int
    per_subword: tuple[Poly, ...]
    capacity_poly: Poly

    def capacity_at(self, eps: Fraction | int) -> Fraction:
        return self.capacity_poly.evaluate(eps)

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "per_subword": [p.to_strings() for p in self.per_subword],
            "capacity": self.capacity_poly.to_strings(),
        }


def _make_set(per_subword: tuple[Poly, ...]) -> EffectiveChannelSet:
    r = len(per_subword)
    total = Poly.const(r)
    for z in per_subword:
        total = total - z
    return EffectiveChannelSet(r, per_subword, total.scale(Fraction(1, r * r)))


# -- regular-pattern design recursion ---------------------------------------

def regular_block_erasures(i: int, t: int, eps=EPS, den=ONE) -> tuple:
    """Per-sub-codeword erasures of regular pattern i at t levels, as
    numerators over den**(3**t).

    Bits of ``i`` are consumed most significant first, one per level; the
    seed is the raw erasure probability eps/den.  With z = n/d a polarizing
    level gives n(d**2 + nd - n**2)/d**3 (z -> z(1 + z - z**2)) and
    n**2 d/d**3 (z -> z**2), a plain level nd**2/d**3 twice, so every
    pattern's results share one denominator.  With the defaults (``EPS``
    over the unit ``Poly``) they are the erasure polynomials; with ints
    (p, q) they are the integer numerators at eps = p/q, which is how
    ``curves`` evaluates the scheme without building it.  Pattern
    2**t - 1 (identity) leaves every sub-codeword at the raw channel.
    """
    if t < 0:
        raise ValueError("level count must be >= 0")
    if not 0 <= i < (1 << t):
        raise ValueError(f"pattern index {i} out of range for t={t}")
    zs = [eps]
    for level in range(t - 1, -1, -1):
        square = den * den
        nxt = []
        if (i >> level) & 1:
            for n in zs:
                n = n * square
                nxt += (n, n)
        else:
            for n in zs:
                nxt.append(n * (square + n * den - n * n))
                nxt.append(n * n * den)
        zs = nxt
        den = square * den
    return tuple(zs)


def coded_repetition_scheme(t: int) -> EffectiveChannelSet:
    """Design channels of the one-polarized-block scheme for r = 2**t blocks.

    One block carries the fully polarized pattern (index 0) and the other
    r - 1 blocks repeat the sub-codewords unchanged, so each design erasure
    is the pattern-0 polynomial times eps**(r-1).
    """
    if t < 1:
        raise ValueError("need at least one level")
    r = 1 << t
    rep = EPS ** (r - 1)
    per = tuple(z * rep for z in regular_block_erasures(0, t))
    return _make_set(per)


# -- design analysis for arbitrary assignments -------------------------------

@cache
def _design_factor(kern: Kernel, mult: int, k: int) -> Poly:
    """Factor of sub-codeword k contributed by ``mult`` blocks of one kernel.

    It depends only on (kern, mult, k), so every assignment reads one
    table: reg8's 6,435 assignments need at most 512 entries.
    """
    return _factor(kern, EPS**mult, ONE, k, mult == 1)[0]


def assignment_erasures(
    assignment: PatternAssignment, family: PatternFamily
) -> EffectiveChannelSet:
    """Design erasure polynomials of every sub-codeword for an assignment.

    The assignment must have one kernel per sub-codeword (as many blocks as
    the kernel size), which is the standard shape where every block carries
    one combination of all sub-codewords.  Blocks are grouped by kernel;
    each distinct kernel contributes one multiplicative factor per
    sub-codeword (``_design_factor``), with repeated kernels fused into a
    repetition-boosted single block.
    """
    groups = _kernel_groups(assignment, family)
    per = []
    for k in range(family.size):
        acc = ONE
        for kern, mult in groups:
            acc = acc * _design_factor(kern, mult, k)
        per.append(acc)
    return _make_set(tuple(per))


# -- golden closed-form references ------------------------------------------

def _regular_best_r4() -> tuple[Poly, ...]:
    """Best regular pattern for four blocks: {0, 3, 3, 3}."""
    u = check_combine(EPS, repeat_channel(EPS, 2))
    w3 = repeat_channel(EPS, 3)
    return (
        bit_combine(check_combine(u, repeat_channel(u, 2)), w3),
        bit_combine(repeat_channel(u, 2), w3),
        bit_combine(check_combine(repeat_channel(EPS, 2), repeat_channel(EPS, 4)), w3),
        bit_combine(repeat_channel(EPS, 4), w3),
    )


def _irregular_best_r4() -> tuple[Poly, ...]:
    """Best irregular pattern for four blocks: {2, 5, 7, 7}."""
    u = check_combine(EPS, repeat_channel(EPS, 2))
    heads = (
        bit_combine(u, u),
        bit_combine(u, repeat_channel(EPS, 2)),
        bit_combine(check_combine(repeat_channel(EPS, 2), repeat_channel(EPS, 4)), EPS),
        bit_combine(repeat_channel(EPS, 4), EPS),
    )
    return tuple(bit_combine(bit_combine(h, EPS), EPS) for h in heads)


_REFERENCE_SETS = {
    "regular_best_r4": _regular_best_r4,
    "irregular_best_r4": _irregular_best_r4,
}


def reference_expression_set(which: str) -> EffectiveChannelSet:
    """Golden effective channels for the published best r=4 patterns.

    These are fixed transcriptions of the closed-form expressions, written
    with the channel transforms and evaluated on each call, independent of
    :func:`assignment_erasures`; comparing the two (and both against the
    codec's brute-force oracle) is part of the validation story, not an
    identity assumed by the code.
    """
    try:
        build = _REFERENCE_SETS[which]
    except KeyError:
        raise ValueError(
            f"unknown reference set {which!r}; expected one of {sorted(_REFERENCE_SETS)}"
        ) from None
    return _make_set(build())
