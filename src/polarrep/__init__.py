"""Polar coded repetition over binary erasure channels.

Exact effective-channel analysis for repetition schemes whose blocks carry
modified polarization kernels, an exhaustive pattern search, exact
capacity-gain proofs (Budan's 0-1 test, with Sturm root counting where sign
variations remain), and a working encoder/decoder with a brute-force oracle
and Monte Carlo simulator.

The encoder/decoder names come from :mod:`polarrep.codec` and are resolved
on first use, so the exact analysis never imports the codec.  numpy is
needed only by ``erasure_flow``, which imports it when called: the codec,
its design, its exact oracle and its Monte Carlo run without it.
"""

from .channel_algebra import (
    bit_combine,
    check_combine,
    repeat_channel,
    standard_synthetic_channel,
)
from .effective_channels import (
    EffectiveChannelSet,
    assignment_erasures,
    coded_repetition_scheme,
    reference_expression_set,
    regular_block_erasures,
)
from .patterns import (
    G2,
    I2,
    LEAF,
    Kernel,
    PatternAssignment,
    PatternFamily,
    apply_kernel,
    family_by_name,
    irregular_family_r4,
    regular_family,
)
from .poly import EPS, Poly, SturmSequence, count_roots_in
from .proofcheck import (
    GainCertificate,
    certify_difference,
    certify_dominance,
    certify_gain,
)
from .search import DEFAULT_GRID, SearchReport, best_assignment, enumerate_assignments

_CODEC_EXPORTS = frozenset({
    "CodeSpec", "DecodeFailure", "SimReport", "compare_oracle_with_analysis",
    "design_code", "encode", "exact_erasure_oracle", "monte_carlo",
    "oracle_spec", "sc_decode",
})


def __getattr__(name: str):
    # PEP 562: called only for names missing from the module namespace.
    if name in _CODEC_EXPORTS:
        from . import codec

        return getattr(codec, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
