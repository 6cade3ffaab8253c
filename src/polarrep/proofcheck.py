"""Machine-checkable certificates for the scheme's capacity inequalities.

A certificate has three ingredients, each exact: the difference polynomial's
values at the interval endpoints, the number of its distinct real roots in
the open interval (0, 1) counted by a Sturm chain, and its sign at one
interior sample.  Zero roots plus a strict interior sign proves a strict
inequality on all of (0, 1); endpoint values document where the difference
degenerates.  Refutation is a first-class outcome so the same tooling can
honestly evaluate patterns that do not beat plain repetition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .effective_channels import regular_block_erasures
from .poly import EPS, Poly, SturmSequence, count_roots_in


@dataclass(frozen=True)
class GainCertificate:
    """Certificate that the coded-repetition scheme strictly beats plain
    repetition for r = 2**t blocks on the whole open unit interval.

    ``difference_poly`` is the sum of the polarized block's per-sub-codeword
    erasures minus r*eps; the scheme wins wherever it is negative.
    """

    r: int
    difference_poly: Poly
    endpoint_values: tuple[Fraction, Fraction]
    interior_sample: tuple[Fraction, Fraction]
    roots_in_open_unit: int
    verdict: str
    sturm_chain: tuple[Poly, ...]

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "difference": self.difference_poly.to_strings(),
            "endpoint_values": [str(v) for v in self.endpoint_values],
            "interior_sample": {
                "eps": str(self.interior_sample[0]),
                "value": str(self.interior_sample[1]),
            },
            "roots_in_open_unit": self.roots_in_open_unit,
            "verdict": self.verdict,
            "sturm_chain": [p.to_strings() for p in self.sturm_chain],
        }


def certify_difference(
    difference: Poly, sample: Fraction = Fraction(1, 2), r: int = 0
) -> GainCertificate:
    """Certificate machinery for an arbitrary difference polynomial.

    Certified iff the difference vanishes at 0 and 1, has no root strictly
    inside (0, 1), and is strictly negative at the interior sample.  The
    identically-zero polynomial is refuted (no strict gain anywhere).
    """
    sample = Fraction(sample)
    if not 0 < sample < 1:
        raise ValueError(f"interior sample must lie in (0, 1), got {sample}")
    if difference.is_zero():
        return GainCertificate(
            r=r,
            difference_poly=difference,
            endpoint_values=(Fraction(0), Fraction(0)),
            interior_sample=(sample, Fraction(0)),
            roots_in_open_unit=0,
            verdict="refuted",
            sturm_chain=(),
        )
    endpoints = (difference.evaluate(0), difference.evaluate(1))
    sturm = SturmSequence(difference)
    roots = sturm.roots_in(0, 1)
    value = difference.evaluate(sample)
    verdict = (
        "certified"
        if endpoints == (0, 0) and roots == 0 and value < 0
        else "refuted"
    )
    return GainCertificate(
        r=r,
        difference_poly=difference,
        endpoint_values=endpoints,
        interior_sample=(sample, value),
        roots_in_open_unit=roots,
        verdict=verdict,
        sturm_chain=sturm.chain,
    )


def certify_gain(t: int, sample: Fraction = Fraction(1, 2)) -> GainCertificate:
    """Prove the strict capacity gain of the scheme with 2**t repetitions.

    Builds the difference between the polarized block's total erasure and
    r*eps, whose strict negativity on (0, 1) is equivalent to the scheme's
    capacity exceeding that of plain repetition.
    """
    if t < 1:
        raise ValueError(f"need at least one level, got t={t}")
    r = 1 << t
    total = Poly.zero()
    for z in regular_block_erasures(0, t):
        total = total + z
    return certify_difference(total - EPS.scale(r), sample=sample, r=r)


def endpoint_certificates(t: int) -> list[dict]:
    """Endpoint report for every sub-codeword of the fully polarized pattern.

    For each k this reconstructs the erasure polynomial by composing the two
    level maps f0(a) = a + a**2 - a**3 and f1(a) = a**2 along the bits of
    k - 1, checks the composition against the level recursion coefficient
    for coefficient, and evaluates at 0 and 1 (expected 0 and 1: the scheme
    degenerates at both endpoints, which is why certificates work on the
    open interval).
    """
    if t < 1:
        raise ValueError("need at least one level")
    per = regular_block_erasures(0, t)
    f0 = EPS + EPS**2 - EPS**3
    f1 = EPS**2
    reports = []
    for k, z in enumerate(per, start=1):
        chain = []
        acc = EPS
        for level in range(t - 1, -1, -1):
            bit = ((k - 1) >> level) & 1
            chain.append("f1" if bit else "f0")
            acc = (f1 if bit else f0).compose(acc)
        reports.append(
            {
                "k": k,
                "chain": chain,
                "value_at_0": z.evaluate(0),
                "value_at_1": z.evaluate(1),
                "chain_matches_recursion": acc == z,
            }
        )
    return reports


def certify_dominance(pa: Poly, pb: Poly, sample: Fraction = Fraction(1, 2)) -> str:
    """Certify pa > pb on the open interval (0, 1).

    Returns ``certified`` when pa - pb has no root strictly inside (0, 1)
    and is positive at the sample (equality at the endpoints is allowed);
    ``refuted`` otherwise, including for identical polynomials.  No root
    inside plus a positive sample forces both endpoint values to be >= 0, so
    the endpoints need no check of their own.
    """
    d = pa - pb
    if d.is_zero() or count_roots_in(d, 0, 1) != 0 or d.evaluate(sample) <= 0:
        return "refuted"
    return "certified"
