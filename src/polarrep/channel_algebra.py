"""Erasure-channel transforms as operations on erasure-probability polynomials.

For a binary erasure channel, the reliability parameter equals the erasure
probability, so the two polarization combinations have exact closed forms:
the check combination of channels with erasures ``a`` and ``b`` yields
``a + b - a*b`` (recoverable only when both observations survive), and the
bit combination yields ``a * b`` (the partner bit is known, so any surviving
observation resolves the bit).  Repetition is the bit combination of a
channel with itself.

``standard_synthetic_channel`` composes the two maps into Arıkan's plain
polarization of one channel; it is kept as an independent reference for the
codec's inner recursion.  Closed-form effective-channel formulas, such as the
golden references in :mod:`polarrep.effective_channels`, are written directly
with these functions.
"""

from __future__ import annotations

from .poly import EPS, Poly


def check_combine(za: Poly, zb: Poly) -> Poly:
    """Erasure polynomial of the check (weaker) combination: za + zb - za*zb."""
    return za + zb - za * zb


def bit_combine(za: Poly, zb: Poly) -> Poly:
    """Erasure polynomial of the bit (stronger) combination: za * zb."""
    return za * zb


def repeat_channel(z: Poly, r: int) -> Poly:
    """Erasure polynomial of the r-fold repetition of a channel: z**r."""
    if r < 1:
        raise ValueError(f"repetition count must be >= 1, got {r}")
    return z**r


def standard_synthetic_channel(m: int, i: int, base: Poly = EPS) -> Poly:
    """Erasure polynomial of synthetic channel i after m polarization levels.

    The bits of ``i`` are consumed most-significant first; bit 0 applies the
    check map z -> 2z - z**2 and bit 1 the bit map z -> z**2, starting from
    ``base`` (the raw channel by default).
    """
    if m < 0:
        raise ValueError("level count must be >= 0")
    if not 0 <= i < (1 << m):
        raise ValueError(f"index {i} out of range for m={m}")
    z = base
    for level in range(m - 1, -1, -1):
        if (i >> level) & 1:
            z = z * z
        else:
            z = z.scale(2) - z * z
    return z
