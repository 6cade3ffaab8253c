"""Machine-checkable certificates for the scheme's capacity inequalities.

A gain certificate has three ingredients, each exact: the difference
polynomial's values at the interval endpoints, the number of its distinct
real roots in the open interval (0, 1), and its sign at one interior sample.
Zero roots plus a strict interior sign proves a strict inequality on all of
(0, 1); endpoint values document where the difference degenerates.
Refutation is a first-class outcome so the same tooling can honestly
evaluate patterns that do not beat plain repetition.

The roots are excluded by Budan's 0-1 test (Descartes' rule of signs after
one integer Taylor shift): zero sign variations prove there is no root in
(0, 1), and anyone can re-check the count from the printed difference.  Only
when variations remain is a Sturm chain built; it counts the roots exactly
and is printed as the witness.  Dominance checks need a verdict, not a
witness, and take the same two steps.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import MAX_GAIN_T  # defined by the package, which the command line reads
from .poly import EPS, Poly, SturmSequence, budan_variations, count_roots_in

#: The level maps of one polarizing step: sub-codeword k's erasure is their
#: composition along the bits of k (``regular_block_erasures(0, t)``).
_F0 = EPS + EPS**2 - EPS**3
_F1 = EPS**2


class GainCertificate(NamedTuple):
    """Certificate that the coded-repetition scheme strictly beats plain
    repetition for r = 2**t blocks on the whole open unit interval.

    ``difference_poly`` is the sum of the polarized block's per-sub-codeword
    erasures minus r*eps; the scheme wins wherever it is negative.
    ``method`` names the root test that settled ``roots_in_open_unit``:
    ``budan`` (zero ``budan_variations``) or ``sturm`` (the fallback, whose
    chain is kept).  The zero difference is refuted before either runs, with
    method ``none``.
    """

    r: int
    difference_poly: Poly
    endpoint_values: tuple[Fraction, Fraction]
    interior_sample: tuple[Fraction, Fraction]
    roots_in_open_unit: int
    verdict: str
    method: str
    budan_variations: int | None
    sturm_chain: tuple[Poly, ...]

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    def to_json_dict(self) -> dict:
        d = {
            "r": self.r,
            "difference": self.difference_poly.to_strings(),
            "endpoint_values": [str(v) for v in self.endpoint_values],
            "interior_sample": {
                "eps": str(self.interior_sample[0]),
                "value": str(self.interior_sample[1]),
            },
            "roots_in_open_unit": self.roots_in_open_unit,
            "verdict": self.verdict,
            "method": self.method,
            "budan_variations": self.budan_variations,
        }
        if self.method == "sturm":
            d["sturm_chain"] = [p.to_strings() for p in self.sturm_chain]
        return d


def certify_difference(
    difference: Poly, sample: Fraction = Fraction(1, 2), r: int = 0
) -> GainCertificate:
    """Certificate machinery for an arbitrary difference polynomial.

    Certified iff the difference vanishes at 0 and 1, has no root strictly
    inside (0, 1), and is strictly negative at the interior sample.  The
    identically-zero polynomial is refuted (no strict gain anywhere).  The
    roots are excluded by Budan's 0-1 test; a Sturm chain counts them only
    where sign variations remain.
    """
    sample = Fraction(sample)
    if not 0 < sample < 1:
        raise ValueError(f"interior sample must lie in (0, 1), got {sample}")
    endpoints = (difference.evaluate(0), difference.evaluate(1))
    variations = None if difference.is_zero() else budan_variations(difference)
    if variations is None:
        method, roots, chain = "none", 0, ()
    elif variations == 0:
        method, roots, chain = "budan", 0, ()
    else:
        sturm = SturmSequence(difference)
        method, roots, chain = "sturm", sturm.roots_in(0, 1), sturm.chain
    value = difference.evaluate(sample)
    verdict = (
        "certified"
        if endpoints == (0, 0) and roots == 0 and value < 0
        else "refuted"
    )
    return GainCertificate(r, difference, endpoints, (sample, value), roots, verdict, method,
                           variations, chain)


def check_gain_level(t: int) -> None:
    """Refuse a level count outside 1..``MAX_GAIN_T`` before any work."""
    if t < 1:
        raise ValueError(f"need at least one level, got t={t}")
    if t > MAX_GAIN_T:
        raise ValueError(f"t={t} exceeds the certified range MAX_GAIN_T={MAX_GAIN_T}")


def certify_gain(t: int, sample: Fraction = Fraction(1, 2)) -> GainCertificate:
    """Prove the strict capacity gain of the scheme with 2**t repetitions.

    Builds the difference between the polarized block's total erasure and
    r*eps, whose strict negativity on (0, 1) is equivalent to the scheme's
    capacity exceeding that of plain repetition.  The total is built by
    composition, S_t = S_{t-1}(f0) + S_{t-1}(f1) from S_0 = eps: composing
    is linear in the outer polynomial, so this equals the sum of the 2**t
    sub-codeword polynomials without building them.
    """
    check_gain_level(t)
    total = EPS
    for _ in range(t):
        total = total.compose(_F0) + total.compose(_F1)
    r = 1 << t
    return certify_difference(total - EPS.scale(r), sample=sample, r=r)


def certify_dominance(pa: Poly, pb: Poly, sample: Fraction = Fraction(1, 2)) -> str:
    """Certify pa > pb on the open interval (0, 1).

    Returns ``certified`` when pa - pb has no root strictly inside (0, 1)
    and is positive at the sample (equality at the endpoints is allowed);
    ``refuted`` otherwise, including for identical polynomials.  No root
    inside plus a positive sample forces both endpoint values to be >= 0, so
    the endpoints need no check of their own.

    The sample sign is checked first, then Budan's 0-1 test: zero sign
    variations prove there is no root in (0, 1), and only when variations
    remain does a Sturm chain count the roots.
    """
    d = pa - pb
    if d.is_zero() or d.evaluate(sample) <= 0:
        return "refuted"
    if budan_variations(d) == 0 or count_roots_in(d, 0, 1) == 0:
        return "certified"
    return "refuted"
