"""Polar coded repetition over binary erasure channels.

Exact effective-channel analysis for repetition schemes whose blocks carry
modified polarization kernels, an exhaustive pattern search, Sturm-certified
capacity-gain proofs, and a working encoder/decoder with a brute-force
oracle and Monte Carlo simulator.
"""

from .channel_algebra import (
    bit_combine,
    check_combine,
    repeat_channel,
    standard_synthetic_channel,
)
from .codec import (
    CodeSpec,
    DecodeFailure,
    SimReport,
    compare_oracle_with_analysis,
    design_code,
    encode,
    exact_erasure_oracle,
    monte_carlo,
    oracle_spec,
    sc_decode,
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

__version__ = "0.1.0"
