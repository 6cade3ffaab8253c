"""Encoder, successive-cancellation decoder, exact oracle, and simulator.

The code transmits r = 2**t blocks; block b carries its kernel applied to
the r sub-codewords, each of which is an inner polar codeword of length
2**(m-t).  Decoding follows the kernel tree: the earlier half of the
sub-codewords is decoded first, using partner estimates assembled from the
second-half legs of blocks whose bottom kernels match; once known, it is
subtracted and the later half is decoded from everything that carries it.
Messages live in {0, 1, erased}: a check combine erases if either input is
erased (else XOR), a variable combine erases only if all inputs are erased
(conflicting known values are impossible over an erasure channel).

That schedule is written once, in ``_walk``; what a combine does to a
message comes from one of three op sets: ``_Values`` for ``sc_decode``,
``_Flags`` for ``erasure_flow`` and ``_Tally`` for
``decode_operation_count``, so the three cannot drift apart.

Because erasure propagation does not depend on the transmitted values, the
per-bit behavior of this decoder is a deterministic function of the erasure
pattern.  ``erasure_flow`` evaluates that function for whole batches of
patterns at once; the brute-force oracle feeds it every pattern of a short
code to get exact per-bit erasure polynomials, and the Monte Carlo driver
feeds it sampled patterns.  The oracle is the ground truth the design
analysis in :mod:`polarrep.effective_channels` is compared against.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterable, Sequence

import numpy as np

from .effective_channels import assignment_erasures
from .patterns import (
    Kernel,
    Matrix,
    PatternAssignment,
    PatternFamily,
    apply_kernel,
    split_kernel,
)
from .poly import EPS, Poly

#: Full enumeration of 2**N erasure patterns stays cheap up to this length.
#: Total lengths r * 2**m are powers of two, so the next length, 32, is the
#: first one refused.
ORACLE_MAX_BITS = 16

#: Symbols drawn per Monte Carlo chunk (32 MB of float64), in whole trials.
MC_CHUNK_DRAWS = 1 << 22


class DecodeFailure(Exception):
    """Raised when the first undecodable unfrozen bit is reached."""

    def __init__(self, bit_index: int):
        super().__init__(f"undecodable information bit at index {bit_index}")
        self.bit_index = bit_index


@dataclass(frozen=True)
class CodeSpec:
    """One concrete code instance.

    ``frozen`` is the sorted tuple of frozen u-bit indices; the remaining
    ``k`` indices carry information.  Global bit index j*2**(m-t) + i is bit
    i of sub-codeword j, which is also the successive-cancellation decode
    order.  ``design_erasures`` holds the exact erasures at ``design_eps``
    that chose the frozen set; derived, it stays out of equality and output.
    """

    m: int
    t: int
    family: PatternFamily
    assignment: PatternAssignment
    design_eps: Fraction
    k: int
    frozen: tuple[int, ...]
    design_erasures: tuple[Fraction, ...] = field(default=(), compare=False, repr=False)

    @property
    def r(self) -> int:
        return 1 << self.t

    @property
    def n(self) -> int:
        return 1 << self.m

    @property
    def inner_len(self) -> int:
        return 1 << (self.m - self.t)

    @property
    def total_len(self) -> int:
        return self.r * self.n

    @property
    def info_positions(self) -> tuple[int, ...]:
        frozen = set(self.frozen)
        return tuple(i for i in range(self.n) if i not in frozen)

    def kernels(self) -> tuple[Kernel, ...]:
        return self.assignment.kernels(self.family)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "t": self.t,
            "family": self.family.kind,
            "assignment": list(self.assignment.indices),
            "design_eps": str(self.design_eps),
            "k": self.k,
            "frozen": list(self.frozen),
        }


def _polarize(values: list, levels: int) -> list:
    """Inner polarization of exact values or :class:`Poly` erasures: entry j
    becomes its synthetic channels at j * 2**levels + i, where the bits of i,
    most significant first, pick the check map z -> 2z - z**2 (0) or the bit
    map z -> z**2 (1), as in ``channel_algebra.standard_synthetic_channel``."""
    for _ in range(levels):
        nxt = []
        for z in values:
            sq = z * z
            nxt.append(z + z - sq)
            nxt.append(sq)
        values = nxt
    return values


def synthetic_erasure_values(
    per_subword: Sequence[Poly], inner_levels: int, eps: Fraction
) -> list[Fraction]:
    """Design erasure of every u-bit at ``eps``: each sub-channel's value,
    inner polarized exactly."""
    return _polarize([z.evaluate(eps) for z in per_subword], inner_levels)


def synthetic_polynomials(spec: CodeSpec) -> list[Poly]:
    """Exact design erasure polynomial of every u-bit of the code."""
    per = assignment_erasures(spec.assignment, spec.family).per_subword
    return _polarize(list(per), spec.m - spec.t)


def design_code(
    m: int,
    t: int,
    assignment: PatternAssignment,
    design_eps: Fraction | int | str,
    k: int,
    family: PatternFamily,
) -> CodeSpec:
    """Choose the frozen set for a code of 2**m u-bits and k info bits.

    All 2**m synthetic erasures are evaluated exactly at the design point
    and the worst 2**m - k are frozen; at equal erasure the larger index is
    frozen first, so constructions are deterministic.  The values are kept
    on the spec as ``design_erasures``.
    """
    if not 0 <= t <= m:
        raise ValueError(f"need 0 <= t <= m, got t={t}, m={m}")
    if not 0 <= k <= (1 << m):
        raise ValueError(f"info bit count {k} out of range for m={m}")
    design_eps = Fraction(design_eps)
    if not 0 <= design_eps <= 1:
        raise ValueError(f"design erasure must lie in [0, 1], got {design_eps}")
    if family.size != (1 << t):
        raise ValueError(f"family kernels have size {family.size}, expected {1 << t}")
    per = assignment_erasures(assignment, family).per_subword
    values = synthetic_erasure_values(per, m - t, design_eps)
    order = sorted(range(1 << m), key=lambda i: (values[i], i), reverse=True)
    frozen = tuple(sorted(order[: (1 << m) - k]))
    return CodeSpec(
        m=m,
        t=t,
        family=family,
        assignment=assignment,
        design_eps=design_eps,
        k=k,
        frozen=frozen,
        design_erasures=tuple(values),
    )


# -- encoding ---------------------------------------------------------------

def inner_encode(u: Sequence[int]) -> tuple[int, ...]:
    """Polar transform of a length-2**q word (earlier bits are XORed down)."""
    if len(u) == 1:
        return (u[0],)
    h = len(u) // 2
    left = inner_encode(u[:h])
    right = inner_encode(u[h:])
    return tuple(a ^ b for a, b in zip(left, right)) + right


def encode(spec: CodeSpec, info_bits: Sequence[int]) -> list[tuple[int, ...]]:
    """Encode info bits into the r transmitted blocks.

    Info bits fill the unfrozen u-positions in index order, each sub-codeword
    is inner polar coded, and block b applies the b-th kernel of the
    canonical assignment order to the tuple of sub-codewords.
    """
    if len(info_bits) != spec.k:
        raise ValueError(f"expected {spec.k} info bits, got {len(info_bits)}")
    u = [0] * spec.n
    for pos, bit in zip(spec.info_positions, info_bits):
        u[pos] = int(bit)
    width = spec.inner_len
    subwords = [
        inner_encode(u[j * width : (j + 1) * width]) for j in range(spec.r)
    ]
    return [apply_kernel(kern, subwords) for kern in spec.kernels()]


# -- the kernel-tree carrier walk --------------------------------------------

def _walk(carriers: list[tuple[Matrix, Any]], ops: Any, first: int = 0) -> list:
    """Successive-cancellation schedule over the kernel tree.

    Each carrier is (kernel rows, message) for a block or a leg derived from
    one, over the sub-codewords ``first``, ``first + 1``, ...; a message has
    one row per kernel position along its first axis.  ``ops`` supplies
    ``merge`` (variable combine), ``check`` (check combine with a partner
    estimate), ``cancel`` (interference removal given the decoded earlier
    half) and ``leaf`` (inner decoding).  Returns one leaf result per
    sub-codeword, in order.
    """
    size = len(carriers[0][0])
    if size == 1:
        return [ops.leaf(ops.merge([msg for _, msg in carriers]), first)]
    h = size // 2
    splits = [(split_kernel(rows), msg) for rows, msg in carriers]

    # Partner estimates: one per distinct bottom kernel, from every carrier
    # whose bottom kernel matches.
    estimates: dict[Matrix, Any] = {}
    for (e, _, b), _msg in splits:
        if e and b not in estimates:
            estimates[b] = ops.merge([msg[h:] for (_, _, bb), msg in splits if bb == b])

    earlier = [
        (a, ops.check(msg[:h], estimates[b]) if e else msg[:h])
        for (e, a, b), msg in splits
    ]
    known = _walk(earlier, ops, first)
    later = []
    for (e, a, b), msg in splits:
        later.append((b, msg[h:]))
        if e:
            later.append((b, ops.cancel(msg[:h], a, known)))
    return known + _walk(later, ops, first + h)


def _carriers(spec: CodeSpec, rows: Any) -> list[tuple[Matrix, Any]]:
    """Pair each block's kernel with its r message rows (block b owns rows
    b*r to b*r + r - 1 of ``rows``)."""
    r = spec.r
    return [(kern.rows, rows[b * r : (b + 1) * r]) for b, kern in enumerate(spec.kernels())]


# -- value-level SC decoding ------------------------------------------------

def _combine_check(a: int | None, b: int | None) -> int | None:
    if a is None or b is None:
        return None
    return a ^ b

def _combine_first(values: Iterable[int | None]) -> int | None:
    for v in values:
        if v is not None:
            return v
    return None


def _inner_sc(
    msgs: list[int | None], frozen: set[int], bit_offset: int
) -> tuple[list[int], list[int]]:
    """Standard polar SC over erasure messages; returns (u_hat, x_hat)."""
    if len(msgs) == 1:
        if bit_offset in frozen:
            return [0], [0]
        if msgs[0] is None:
            raise DecodeFailure(bit_offset)
        return [msgs[0]], [msgs[0]]
    h = len(msgs) // 2
    left_in = [_combine_check(msgs[i], msgs[i + h]) for i in range(h)]
    u_left, x_left = _inner_sc(left_in, frozen, bit_offset)
    right_in = [
        _combine_first((_combine_check(msgs[i], x_left[i]), msgs[i + h]))
        for i in range(h)
    ]
    u_right, x_right = _inner_sc(right_in, frozen, bit_offset + h)
    return u_left + u_right, [a ^ b for a, b in zip(x_left, x_right)] + x_right


class _Values:
    """Messages are rows of symbols in {0, 1, None}; a leaf yields the
    decoded u-bits and the re-encoded sub-codeword, which ``cancel`` needs."""

    def __init__(self, frozen: set[int], width: int):
        self.frozen = frozen
        self.width = width

    def merge(self, msgs):
        return [[_combine_first(col) for col in zip(*rows)] for rows in zip(*msgs)]

    def check(self, msg, estimate):
        return [list(map(_combine_check, x, y)) for x, y in zip(msg, estimate)]

    def cancel(self, msg, a: Matrix, known):
        out = []
        for p, row in enumerate(msg):
            for q, arow in enumerate(a):
                if arow[p]:
                    row = [None if v is None else v ^ x for v, x in zip(row, known[q][1])]
            out.append(row)
        return out

    def leaf(self, msg, j: int):
        return _inner_sc(msg[0], self.frozen, j * self.width)


def sc_decode(spec: CodeSpec, received: Sequence[int | None]) -> list[int]:
    """Successive-cancellation decode of a full received word.

    ``received`` holds the concatenated blocks with ``None`` marking
    erasures.  Returns the information bits; raises :class:`DecodeFailure`
    with the first undecodable unfrozen bit index otherwise.
    """
    if len(received) != spec.total_len:
        raise ValueError(f"expected {spec.total_len} symbols, got {len(received)}")
    width = spec.inner_len
    rows = [list(received[i : i + width]) for i in range(0, spec.total_len, width)]
    leaves = _walk(_carriers(spec, rows), _Values(set(spec.frozen), width))
    u_hat = [bit for u, _ in leaves for bit in u]
    return [u_hat[i] for i in spec.info_positions]


# -- batched genie-aided erasure propagation --------------------------------

def _inner_flags(msgs: np.ndarray) -> list[np.ndarray]:
    if msgs.shape[1] == 1:
        return [msgs[:, 0]]
    h = msgs.shape[1] // 2
    first = _inner_flags(msgs[:, :h] | msgs[:, h:])
    second = _inner_flags(msgs[:, :h] & msgs[:, h:])
    return first + second


class _Flags:
    """Messages are boolean erasure masks, rows first, then (batch, width);
    values are never needed because erasure propagation does not depend on
    them, so interference removal leaves a mask unchanged."""

    def merge(self, msgs):
        return functools.reduce(operator.and_, msgs)

    def check(self, msg, estimate):
        return msg | estimate

    def cancel(self, msg, a: Matrix, known):
        return msg

    def leaf(self, msg, j: int):
        return _inner_flags(msg[0])


def erasure_flow(spec: CodeSpec, erased: np.ndarray) -> np.ndarray:
    """Genie-aided per-bit erasure flags for a batch of erasure patterns.

    ``erased`` is boolean with shape (batch, total_len); the result has
    shape (batch, 2**m), entry (s, i) telling whether u-bit i is left
    undetermined in pattern s when all earlier bits are known.  Value
    tracking is unnecessary: erasure propagation is value-independent.
    """
    batch, n_sym = erased.shape
    if n_sym != spec.total_len:
        raise ValueError(f"expected {spec.total_len} symbols, got {n_sym}")
    rows = erased.reshape(batch, -1, spec.inner_len).transpose(1, 0, 2)
    leaves = _walk(_carriers(spec, rows), _Flags())
    return np.stack([f for leaf in leaves for f in leaf], axis=1)


# -- operation count ---------------------------------------------------------

class _Tally:
    """Messages are row ranges (only their lengths matter); every combine
    adds its symbol-level operation count to ``ops``."""

    def __init__(self, spec: CodeSpec):
        self.width = spec.inner_len
        self.inner_ops = spec.inner_len * (spec.m - spec.t)
        self.ops = 0

    def merge(self, msgs):
        self.ops += (len(msgs) - 1) * len(msgs[0]) * self.width
        return msgs[0]

    def check(self, msg, estimate):
        self.ops += len(msg) * self.width
        return msg

    def cancel(self, msg, a: Matrix, known):
        self.ops += len(msg) * self.width
        return msg

    def leaf(self, msg, j: int):
        self.ops += self.inner_ops


def decode_operation_count(spec: CodeSpec) -> int:
    """Deterministic combine-operation count of one decoder run."""
    tally = _Tally(spec)
    _walk(_carriers(spec, range(spec.r * spec.r)), tally)
    return tally.ops


# -- exact oracle ------------------------------------------------------------

def exact_erasure_oracle(spec: CodeSpec) -> list[Poly]:
    """Exact per-u-bit erasure polynomials of the operational decoder.

    Enumerates every erasure pattern of the full code, runs the genie-aided
    decoder on all of them, and assembles, for each bit, the exact
    polynomial sum of eps**w (1-eps)**(N-w) over failing patterns.  Requires
    every bit unfrozen (the oracle characterizes channels, not one code) and
    a total length of at most ORACLE_MAX_BITS.
    """
    n_sym = spec.total_len
    if spec.k != spec.n:
        raise ValueError("oracle requires a spec with all bits unfrozen")
    if n_sym > ORACLE_MAX_BITS:
        raise ValueError(f"total length {n_sym} exceeds oracle bound {ORACLE_MAX_BITS}")
    counts = np.zeros((spec.n, n_sym + 1), dtype=np.int64)
    idx = np.arange(1 << n_sym, dtype=np.uint32)
    patterns = ((idx[:, None] >> np.arange(n_sym, dtype=np.uint32)) & 1).astype(bool)
    weights = patterns.sum(axis=1)
    flags = erasure_flow(spec, patterns)
    for i in range(spec.n):
        counts[i] = np.bincount(weights[flags[:, i]], minlength=n_sym + 1)
    one_minus = [Poly.one()]
    for _ in range(n_sym):
        one_minus.append(one_minus[-1] * (Poly.one() - EPS))
    polys = []
    for i in range(spec.n):
        acc = Poly.zero()
        for w in range(n_sym + 1):
            c = int(counts[i, w])
            if c:
                acc = acc + (Poly.monomial(w, c) * one_minus[n_sym - w])
        polys.append(acc)
    return polys


def oracle_spec(
    family: PatternFamily,
    assignment: PatternAssignment,
    m: int,
    t: int,
) -> CodeSpec:
    """All-bits-unfrozen spec for oracle runs and channel measurements."""
    return design_code(m, t, assignment, Fraction(1, 2), 1 << m, family)


# -- Monte Carlo -------------------------------------------------------------

@dataclass(frozen=True)
class SimReport:
    """Empirical genie-aided erasure rates from simulated transmissions."""

    spec: CodeSpec
    eps: Fraction
    trials: int
    seed: int
    per_bit_rates: tuple[float, ...]
    block_error_rate: float
    operations: int
    operations_per_decode: int

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "eps": str(self.eps),
            "trials": self.trials,
            "seed": self.seed,
            "per_bit_erasure_rates": list(self.per_bit_rates),
            "block_error_rate": self.block_error_rate,
            "operations": self.operations,
            "operations_per_decode": self.operations_per_decode,
        }


def monte_carlo(
    spec: CodeSpec,
    eps: Fraction | float | str,
    trials: int,
    seed: int = 0,
) -> SimReport:
    """Simulate i.i.d. erasures and measure genie-aided per-bit rates.

    Rates are reported for every u-bit; the block error rate counts trials
    where any unfrozen bit was undecodable.  Results are independent of the
    transmitted values and deterministic given the seed: draws come from one
    stream in trial order, so the chunk size (``MC_CHUNK_DRAWS`` symbols,
    whole trials) does not change them.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    eps = Fraction(str(eps)) if isinstance(eps, float) else Fraction(eps)
    if not 0 <= eps <= 1:
        raise ValueError(f"erasure probability must lie in [0, 1], got {eps}")
    rng = np.random.default_rng(seed)
    info = list(spec.info_positions)
    bit_fail = np.zeros(spec.n, dtype=np.int64)
    block_fail = 0
    remaining = trials
    p = float(eps)
    rows = max(1, MC_CHUNK_DRAWS // spec.total_len)
    while remaining:
        size = min(rows, remaining)
        erased = rng.random((size, spec.total_len)) < p
        flags = erasure_flow(spec, erased)
        bit_fail += flags.sum(axis=0)
        if info:
            block_fail += int(flags[:, info].any(axis=1).sum())
        remaining -= size
    ops_each = decode_operation_count(spec)
    return SimReport(
        spec=spec,
        eps=eps,
        trials=trials,
        seed=seed,
        per_bit_rates=tuple(float(v) / trials for v in bit_fail),
        block_error_rate=block_fail / trials,
        operations=ops_each * trials,
        operations_per_decode=ops_each,
    )


# -- oracle vs analysis comparison -------------------------------------------

@dataclass(frozen=True)
class OracleComparison:
    """Coefficient-level comparison of oracle and analysis channel sets."""

    label: str
    m: int
    total_len: int
    oracle_polys: tuple[Poly, ...]
    analysis_polys: tuple[Poly, ...]
    mismatched_bits: tuple[int, ...]

    @property
    def equal(self) -> bool:
        return not self.mismatched_bits

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "m": self.m,
            "total_len": self.total_len,
            "equal": self.equal,
            "mismatched_bits": list(self.mismatched_bits),
            "oracle": [p.to_strings() for p in self.oracle_polys],
            "analysis": [p.to_strings() for p in self.analysis_polys],
        }


def compare_oracle_with_analysis(
    family: PatternFamily,
    assignment: PatternAssignment,
    m: int,
    t: int,
    analysis: Sequence[Poly] | None = None,
    label: str = "",
) -> OracleComparison:
    """Run the oracle and diff it against analysis channels, per coefficient.

    ``analysis`` defaults to the design channels of the assignment; pass the
    golden reference expressions to compare those instead.  Sub-codeword
    channels are inner polarized so both sides describe the same 2**m bits.
    """
    spec = oracle_spec(family, assignment, m, t)
    oracle = exact_erasure_oracle(spec)
    if analysis is None:
        analysis = assignment_erasures(assignment, family).per_subword
    composed = _polarize(list(analysis), m - t)
    mism = tuple(i for i in range(1 << m) if oracle[i] != composed[i])
    return OracleComparison(
        label=label or f"{family.kind}:{assignment.label()} m={m}",
        m=m,
        total_len=spec.total_len,
        oracle_polys=tuple(oracle),
        analysis_polys=tuple(composed),
        mismatched_bits=mism,
    )
