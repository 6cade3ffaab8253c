"""Polar coded repetition over binary erasure channels.

Exact effective-channel analysis for repetition schemes whose blocks carry
modified polarization kernels, an exhaustive pattern search, exact
capacity-gain proofs (Budan's 0-1 test, with Sturm root counting where sign
variations remain), and a working encoder/decoder with a brute-force oracle
and Monte Carlo simulator.

Importing the package loads none of its modules: each public name is
imported from its module on first use (PEP 562), so a command-line run loads
only what its command runs.  ``kernels`` loads only ``patterns``, and only
``simulate`` loads the codec.  Every module runs on the standard library
alone.  Records are NamedTuples, or ``patterns._Record`` where tuple
behaviour would change their meaning, so nothing loads ``dataclasses``.
"""

import importlib
from fractions import Fraction

#: Largest level count ``certify_gain`` accepts and ``curves`` evaluates.  Every
#: t = 1..7 is certified by Budan's test with zero variations; t = 8 is unmeasured.
#: On the default grid ``curves`` takes 0.06 s of exact arithmetic at t = 7,
#: 0.8 s at t = 8 and 105 s at t = 10 (Python 3.11, one Xeon vCPU).
MAX_GAIN_T = 7

#: Uniform rational grid 1/20 .. 19/20 used when the caller does not choose.
DEFAULT_GRID: tuple[Fraction, ...] = tuple(Fraction(i, 20) for i in range(1, 20))


def _check_grid(grid) -> None:
    """Refuse an erasure grid with a point outside (0, 1) or a repeated
    point, which would count its wins twice."""
    seen = set()
    for g in grid:
        if not 0 < g < 1:
            raise ValueError(f"grid point {g} outside (0, 1)")
        if g in seen:
            raise ValueError(f"grid point {g} repeated")
        seen.add(g)


def _exact(n, d: int = 1) -> str:
    """``str(Fraction(n, d))`` of a ``Fraction`` n, or of ints n/d in lowest
    terms, also past the limit on ``str(int)`` digits, which stays in force
    for parsing input: only what ``str`` refuses goes to the slower ``Decimal``."""
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:
        from decimal import Decimal

        n, d = n.as_integer_ratio() if d == 1 else (n, d)
        return str(Decimal(n)) if d == 1 else f"{Decimal(n)}/{Decimal(d)}"


#: Each public name's module.
_EXPORTS = {
    name: module
    for module, names in {
        "channel_algebra": "bit_combine check_combine repeat_channel standard_synthetic_channel",
        "effective_channels": "EffectiveChannelSet assignment_erasures coded_repetition_scheme "
                              "reference_expression_set regular_block_erasures",
        "patterns": "G2 I2 LEAF Kernel PatternAssignment PatternFamily apply_kernel "
                    "family_by_name irregular_family_r4 regular_family",
        "poly": "EPS Poly SturmSequence count_roots_in",
        "proofcheck": "GainCertificate certify_difference certify_dominance certify_gain",
        "search": "SearchReport best_assignment enumerate_assignments",
        "codec": "CodeSpec DecodeFailure SimReport compare_oracle_with_analysis design_code "
                 "encode exact_erasure_oracle monte_carlo oracle_spec sc_decode",
    }.items()
    for name in names.split()
}

__all__ = ["DEFAULT_GRID", *_EXPORTS]


def __getattr__(name: str):
    # PEP 562: called only for names missing from the module namespace.
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
