"""Encoder, successive-cancellation decoder, exact oracle, and simulator.

The code transmits r = 2**t blocks; block b carries its kernel applied to
the r sub-codewords, each of which is an inner polar codeword of length
2**(m-t).  Decoding follows the kernel tree: the earlier half of the
sub-codewords is decoded first, using partner estimates assembled from the
second-half legs of blocks whose bottom kernels match; once known, it is
subtracted and the later half is decoded from everything that carries it.

That decoder is written once, ``_decode``: one walk over the kernel tree
that makes its combines itself.  Messages are (values, erased) row-int pairs
with ``lanes`` bits per symbol, one pattern per bit of a lane.  A check
combine XORs the values and erases where either input is erased; a variable
combine takes each symbol from the first input that knows it and erases only
where all inputs are erased (known symbols never conflict over an erasure
channel); interference removal XORs in the re-encoded earlier half.
``sc_decode`` is the decoder with one lane.  Erasure propagation does not
depend on the transmitted values, so the erasure flow (``_flow``:
``erasure_flow``, the oracle, the Monte Carlo and
``decode_operation_count``) is the same decoder on all-zero values, with one
lane per erasure pattern, deciding all patterns in one walk; it also counts
the symbol-level combines of one decode, so the operation count is that of
the walk the decoder actually runs.  ``encode`` and the interference removal
share one encoder, ``patterns.apply_kernel`` down a kernel tree: the polar
transform's tree for the inner code, each block's kernel for the blocks.

The exact oracle builds the lanes of all 2**N patterns of a short code
directly and counts each bit's failures per pattern weight to get exact
per-bit erasure polynomials; it is the ground truth the design analysis in
:mod:`polarrep.effective_channels` is compared against.  A design needs only
the sub-channel erasures at its point (``design_erasures``), so only the
oracle and ``synthetic_polynomials`` load the polynomial modules.  The
Monte Carlo draws its row ints directly as exact Bernoulli(eps) bits from
``random.Random(seed).getrandbits`` and counts failures by popcount;
``erasure_flow`` packs its patterns' lanes into rows as the oracle does.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from fractions import Fraction
from typing import TYPE_CHECKING, Any, NamedTuple, Sequence

from .patterns import (LEAF, Kernel, PatternAssignment, PatternFamily, _factor, _kernel_groups,
                       _Record, apply_kernel)
from .polarize import (  # all three design erasure forms are read from codec
    _polarize,
    design_ranking,
    synthetic_erasure_ratios,
    synthetic_erasure_values,
)

if TYPE_CHECKING:  # the polynomial modules load only for the oracle and polynomials
    from .poly import Poly

#: Full enumeration of 2**N erasure patterns stays cheap up to this length.
#: Total lengths r * 2**m are powers of two, so the next length, 32, is the
#: first one refused.
ORACLE_MAX_BITS = 16

#: Largest m of any spec, designed or not.  The design ranks on certified
#: bounds, but exact design ratios (``synthetic_erasure_ratios``, behind
#: ``simulate --exact``), ``synthetic_polynomials`` and the exact keys of the
#: ranking still double their numerators' bits per inner level: all 2**15
#: exact ratios take about 12 s and 300 MB at eps = 1/2 (35 s and 460 MB at
#: eps = 1/3).
MAX_DESIGN_M = 15

#: A Monte Carlo flow batch holds up to 64 times this many pattern-symbols
#: (8 MB of lanes), in whole groups of 64 trials and at least one group, so
#: memory stays bounded whatever the trial count.
MC_CHUNK_DRAWS = 1 << 20

#: Full-width comparator rounds of the Bernoulli sampler before the lanes
#: still open, about one in 2**_ROUNDS, are drawn packed.
_ROUNDS = 10


class DecodeFailure(Exception):
    """Raised when the first undecodable unfrozen bit is reached."""

    def __init__(self, bit_index: int):
        super().__init__(f"undecodable information bit at index {bit_index}")
        self.bit_index = bit_index


class CodeSpec(_Record):
    """One concrete code instance.

    ``frozen`` is the sorted tuple of frozen u-bit indices; the remaining
    ``k`` indices carry information.  Global bit index j*2**(m-t) + i is bit
    i of sub-codeword j, which is also the successive-cancellation decode
    order.  ``design_floats`` holds the correctly rounded erasures at
    ``design_eps`` that chose the frozen set; derived, they stay out of
    equality, hashing, repr and output, which is why the spec is a
    ``_Record`` and not a NamedTuple.  A spec with no design (``oracle_spec``)
    has no floats; ``synthetic_erasure_ratios`` evaluates the erasures exactly.
    """

    __slots__ = ("m", "t", "family", "assignment", "design_eps", "k", "frozen", "design_floats")

    def __init__(self, m: int, t: int, family: PatternFamily, assignment: PatternAssignment,
                 design_eps: Fraction, k: int, frozen: tuple[int, ...],
                 design_floats: tuple[float, ...] = ()) -> None:
        super().__init__(m, t, family, assignment, design_eps, k, frozen, design_floats)

    def _key(self) -> tuple:
        return self.m, self.t, self.family, self.assignment, self.design_eps, self.k, self.frozen

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


def synthetic_polynomials(spec: CodeSpec) -> list[Poly]:
    """Exact design erasure polynomial of every u-bit of the code."""
    from .effective_channels import assignment_erasures
    from .poly import Poly

    per = assignment_erasures(spec.assignment, spec.family).per_subword
    return _polarize(list(per), spec.m - spec.t, Poly.one())


def design_erasures(
    assignment: PatternAssignment, family: PatternFamily, eps: Fraction
) -> list[Fraction]:
    """Design erasure of every sub-channel at ``eps`` = p/q, exactly: the
    design factor walk (``patterns._factor``) on (p**mult, q**mult), which
    gives the erasure polynomials there without building them, reduced once."""
    groups = _kernel_groups(assignment, family)
    p, q = eps.numerator, eps.denominator
    return [Fraction(*map(math.prod, zip(*(_factor(kern, p**mult, q**mult, k, mult == 1)
                                           for kern, mult in groups))))
            for k in range(family.size)]


def _check_shape(m: int, t: int, assignment: PatternAssignment, family: PatternFamily) -> None:
    """Refuse a code shape no spec can have: m above ``MAX_DESIGN_M``, t
    outside [0, m], kernels not of size 2**t, or an assignment with an index
    outside the family or not one block per kernel position."""
    if m > MAX_DESIGN_M:
        raise ValueError(f"m={m} exceeds the exact design bound MAX_DESIGN_M={MAX_DESIGN_M}")
    if not 0 <= t <= m:
        raise ValueError(f"need 0 <= t <= m, got t={t}, m={m}")
    if family.size != (1 << t):
        raise ValueError(f"family kernels have size {family.size}, expected {1 << t}")
    _kernel_groups(assignment, family)


def design_code(
    m: int,
    t: int,
    assignment: PatternAssignment,
    design_eps: Fraction | int | str,
    k: int,
    family: PatternFamily,
) -> CodeSpec:
    """Choose the frozen set for a code of 2**m u-bits and k info bits.

    The 2**m synthetic erasures are ranked at the design point and the
    worst 2**m - k are frozen; at equal erasure the larger index is frozen
    first, so constructions are deterministic.  The ranking is exact
    (``polarize.design_ranking``), and the correctly rounded floats it
    returns are kept on the spec as ``design_floats``.  m is at most
    ``MAX_DESIGN_M``.
    """
    _check_shape(m, t, assignment, family)
    if not 0 <= k <= (1 << m):
        raise ValueError(f"info bit count {k} out of range for m={m}")
    design_eps = Fraction(design_eps)
    if not 0 <= design_eps <= 1:
        raise ValueError(f"design erasure must lie in [0, 1], got {design_eps}")
    values = design_erasures(assignment, family, design_eps)
    floats, frozen = design_ranking(values, m - t, (1 << m) - k)
    return CodeSpec(m, t, family, assignment, design_eps, k, frozen, tuple(floats))


# -- encoding ---------------------------------------------------------------

def encode(spec: CodeSpec, info_bits: Sequence[int]) -> list[tuple[int, ...]]:
    """Encode info bits into the r transmitted blocks.

    Info bits fill the unfrozen u-positions in index order, each sub-codeword
    is inner polar coded by the kernel tree of the polar transform, and block
    b applies the b-th kernel of the canonical assignment order to the tuple
    of sub-codewords.
    """
    if len(info_bits) != spec.k:
        raise ValueError(f"expected {spec.k} info bits, got {len(info_bits)}")
    u = [0] * spec.n
    for pos, bit in zip(spec.info_positions, info_bits):
        if bit not in (0, 1):
            raise ValueError(f"info bits must be 0 or 1, got {bit!r}")
        u[pos] = int(bit)
    inner = LEAF
    for _ in range(spec.m - spec.t):
        inner = Kernel(1, inner, inner)
    width = spec.inner_len
    subwords = [
        apply_kernel(inner, [(bit,) for bit in u[j * width : (j + 1) * width]])
        for j in range(spec.r)
    ]
    return [apply_kernel(kern, subwords) for kern in spec.kernels()]


# -- the SC decoder ---------------------------------------------------------

def _inner_sc(
    values: int, erased: int, width: int, lanes: int, frozen: set[int], bit_offset: int
) -> tuple[list[tuple[int, int]], int]:
    """Standard polar SC on one row's (values, erased) lanes; returns each
    u-bit's (value, erased) lanes, a frozen bit's value 0, and the re-encoded
    sub-codeword."""
    if width == 1:
        u = 0 if bit_offset in frozen else values
        return [(u, erased)], u
    h = width // 2
    shift = h * lanes
    mask = (1 << shift) - 1
    v0, v1, e0, e1 = values & mask, values >> shift, erased & mask, erased >> shift
    if h == 1:  # both leaves inline: half the calls of recursing to width 1
        x0 = 0 if bit_offset in frozen else v0 ^ v1
        x1 = 0 if bit_offset + 1 in frozen else v1 ^ ((v1 ^ v0 ^ x0) & e1)
        return [(x0, e0 | e1), (x1, e0 & e1)], (x0 ^ x1) | x1 << shift
    del mask  # as wide as half the row: free it before the recursion
    bits0, x0 = _inner_sc(v0 ^ v1, e0 | e1, h, lanes, frozen, bit_offset)
    bits1, x1 = _inner_sc(v1 ^ ((v1 ^ v0 ^ x0) & e1), e0 & e1, h, lanes, frozen, bit_offset + h)
    return bits0 + bits1, (x0 ^ x1) | x1 << shift


def _merge(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Variable combine: each symbol from the first message that knows it."""
    (v, e), (w, f) = a, b
    return v ^ ((v ^ w) & e), e & f


def _decode(spec: CodeSpec, rows: list, lanes: int) -> tuple[list[tuple[int, int]], int]:
    """(value, erased) lanes of every u-bit, given the r*r (values, erased)
    row ints of the received blocks (row q holds symbols q*inner_len
    onwards), and the combine count of one decode.

    The walk follows the kernel tree.  Each carrier is (kernel, message) for
    a block or a leg derived from one, over the sub-codewords ``first``,
    ``first + 1``, ...; a message is a list of (values, erased) row-int
    pairs, one per kernel position: a row holds the lanes of its ``width``
    symbols, symbol i at bits i*lanes to (i+1)*lanes - 1, and bit s of a lane
    for pattern s.  A value bit means nothing where its symbol is erased.  A
    leaf yields each u-bit's (value, erased) lanes and the re-encoded
    sub-codeword, which the interference removal needs.

    Every combine adds the symbol-level operation count of one decode to
    ``ops``, whatever the number of lanes; the inner decoder of a leaf costs
    ``width * log2(width)``.
    """
    frozen, width, r = set(spec.frozen), spec.inner_len, spec.r
    ops = 0

    def merge(msgs: list[list[tuple[int, int]]]) -> list[tuple[int, int]]:
        nonlocal ops
        ops += (len(msgs) - 1) * len(msgs[0]) * width
        return [functools.reduce(_merge, aligned) for aligned in zip(*msgs)]

    def walk(carriers: list[tuple[Kernel, list]], first: int) -> list:
        nonlocal ops
        if carriers[0][0].a is None:
            ops += width * (width.bit_length() - 1)
            return [_inner_sc(*merge([msg for _, msg in carriers])[0], width, lanes, frozen,
                              first * width)]
        h = carriers[0][0].a.size
        # Each polarizing carrier costs one check combine and one
        # interference removal over its h earlier rows.
        ops += 2 * h * width * sum(kern.e for kern, _ in carriers)

        # Partner estimates: one per distinct bottom kernel, from every carrier
        # whose bottom kernel matches.
        estimates: dict[Kernel, list] = {}
        for kern, _msg in carriers:
            if kern.e and kern.b not in estimates:
                estimates[kern.b] = merge([msg[h:] for other, msg in carriers if other.b == kern.b])

        earlier = [
            (kern.a, [(v ^ w, e | f) for (v, e), (w, f) in zip(msg[:h], estimates[kern.b])]
             if kern.e else msg[:h])
            for kern, msg in carriers
        ]
        del estimates  # not read again: free them before the earlier half decodes
        known = walk(earlier, first)
        del earlier  # its check outputs: free them before the later half decodes
        later = []
        for kern, msg in carriers:
            later.append((kern.b, msg[h:]))
            if kern.e:
                later.append((kern.b, [(v ^ x, e) for (v, e), x in zip(
                    msg[:h], apply_kernel(kern.a, [(coded,) for _, coded in known]))]))
        return known + walk(later, first + h)

    leaves = walk([(kern, rows[b * r : (b + 1) * r]) for b, kern in enumerate(spec.kernels())], 0)
    return [bit for bits, _ in leaves for bit in bits], ops


def sc_decode(spec: CodeSpec, received: Sequence[int | None]) -> list[int]:
    """Successive-cancellation decode of a full received word.

    ``received`` holds the concatenated blocks with ``None`` marking
    erasures.  Returns the information bits; raises :class:`DecodeFailure`
    with the first undecodable unfrozen bit index otherwise.  The known
    symbols must be those of a codeword, as over an erasure channel: a
    variable combine takes each symbol from the first input that knows it,
    so a word whose known symbols conflict may decode either way.
    """
    if len(received) != spec.total_len:
        raise ValueError(f"expected {spec.total_len} symbols, got {len(received)}")
    for s in received:
        if s not in (0, 1, None):
            raise ValueError(f"received symbols must be 0, 1 or None, got {s!r}")
    values = int("".join("1" if s == 1 else "0" for s in reversed(received)), 2)
    erased = int("".join("1" if s is None else "0" for s in reversed(received)), 2)
    width = spec.inner_len
    mask = (1 << width) - 1
    rows = [(values >> q & mask, erased >> q & mask) for q in range(0, spec.total_len, width)]
    bits, _ = _decode(spec, rows, 1)
    for i in spec.info_positions:
        if bits[i][1]:
            raise DecodeFailure(i)
    return [bits[i][0] for i in spec.info_positions]


# -- batched genie-aided erasure propagation --------------------------------

def _flow(spec: CodeSpec, rows: list[int], lanes: int) -> tuple[list[int], int]:
    """Erasure lane of every u-bit, given the r*r erasure row ints of the
    received blocks, and the combine count of one decode: the decoder on
    all-zero values, which erasure propagation does not depend on."""
    bits, ops = _decode(spec, [(0, e) for e in rows], lanes)
    return [e for _, e in bits], ops


def decode_operation_count(spec: CodeSpec) -> int:
    """Deterministic combine-operation count of one decoder run: the flow
    over one unerased pattern."""
    return _flow(spec, [0] * (spec.r * spec.r), 1)[1]


def _lane_rows(symbols: list[int], width: int, lanes: int) -> list[int]:
    """The flow's rows from one ``lanes``-bit lane per symbol, ``width``
    symbols per row: symbol q*width + j at bits j*lanes onwards of row q."""
    return [sum(lane << j * lanes for j, lane in enumerate(symbols[q : q + width]))
            for q in range(0, len(symbols), width)]


def erasure_flow(spec: CodeSpec, erased: Sequence[Sequence[Any]]) -> list[list[bool]]:
    """Genie-aided per-bit erasure flags for a batch of erasure patterns.

    Each pattern in ``erased`` is a sequence of ``total_len`` values, true
    where the symbol is erased.  Returns one row of 2**m flags per pattern,
    flag i telling whether u-bit i is left undetermined in that pattern when
    all earlier bits are known.  The sent values are not needed: erasure
    propagation does not depend on them.
    """
    n_sym = spec.total_len
    masks = [bytes(map(operator.truth, pattern)) for pattern in erased]
    for mask in masks:
        if len(mask) != n_sym:
            raise ValueError(f"expected {n_sym} symbols, got {len(mask)}")
    if not masks:
        return []
    # Symbol i's lane is column i of the pattern-major 0/1 bytes, as binary
    # digits with pattern s at bit s; each flag lane is read back the same way.
    batch, data = len(masks), b"".join(masks).translate(bytes.maketrans(b"\0\1", b"01"))
    symbols = [int(data[i::n_sym][::-1], 2) for i in range(n_sym)]
    flags, _ = _flow(spec, _lane_rows(symbols, spec.inner_len, batch), batch)
    digits = "".join(format(f, f"0{batch}b")[::-1] for f in flags)
    return [list(map("1".__eq__, digits[s::batch])) for s in range(batch)]


# -- exact oracle ------------------------------------------------------------

def exact_erasure_oracle(spec: CodeSpec) -> list[Poly]:
    """Exact per-u-bit erasure polynomials of the operational decoder.

    Runs the genie-aided decoder once on the lanes of all 2**N erasure
    patterns of the full code (bit p of a lane is pattern p), counts each
    bit's failing patterns per weight w, and assembles the exact polynomial
    sum of eps**w (1-eps)**(N-w) over them.  Requires every bit unfrozen
    (the oracle characterizes channels, not one code) and a total length of
    at most ORACLE_MAX_BITS.
    """
    from .poly import EPS, Poly

    n_sym = spec.total_len
    if spec.k != spec.n:
        raise ValueError("oracle requires a spec with all bits unfrozen")
    if n_sym > ORACLE_MAX_BITS:
        raise ValueError(f"total length {n_sym} exceeds oracle bound {ORACLE_MAX_BITS}")
    # Pattern p erases symbol i when bit i of p is set, so symbol i's lane
    # repeats 2**i zeros then 2**i ones, doubled from one period until it
    # spans every pattern; by_weight[w] marks the patterns of weight w, built
    # one symbol at a time.
    lanes = 1 << n_sym
    symbols = []
    for i in range(n_sym):
        lane, span = (1 << (1 << i)) - 1 << (1 << i), 2 << i
        while span < lanes:
            lane |= lane << span
            span <<= 1
        symbols.append(lane)
    rows = _lane_rows(symbols, spec.inner_len, lanes)
    by_weight = [1]
    for i in range(n_sym):
        by_weight = [a | b << (1 << i) for a, b in zip(by_weight + [0], [0] + by_weight)]
    counts = [[(f & mask).bit_count() for mask in by_weight] for f in _flow(spec, rows, lanes)[0]]
    one_minus = [Poly.one()]
    for _ in range(n_sym):
        one_minus.append(one_minus[-1] * (Poly.one() - EPS))
    polys = []
    for per_weight in counts:
        acc = Poly.zero()
        for w, c in enumerate(per_weight):
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
    """All-bits-unfrozen spec for oracle runs and channel measurements.
    Nothing is frozen, so no design erasure is evaluated."""
    _check_shape(m, t, assignment, family)
    return CodeSpec(m, t, family, assignment, Fraction(1, 2), 1 << m, ())


# -- Monte Carlo -------------------------------------------------------------

class SimReport(NamedTuple):
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


def erasure_probability(eps: Fraction | float | str) -> Fraction:
    """The channel erasure probability as an exact fraction (a float by its
    decimal text); raises ``ValueError`` outside [0, 1]."""
    eps = Fraction(str(eps)) if isinstance(eps, float) else Fraction(eps)
    if not 0 <= eps <= 1:
        raise ValueError(f"erasure probability must lie in [0, 1], got {eps}")
    return eps


#: ``bytes.translate`` table marking the nonzero bytes with 1.
_NONZERO = bytes([0] + [1] * 255)


def _deposit(mask: int, bits: int) -> int:
    """The int holding bit j of ``bits`` at the j-th lowest set bit of
    ``mask``; ``mask`` is sparse, so its nonzero bytes are found by
    ``bytes.find`` and only their bits are visited."""
    data = mask.to_bytes(-(-mask.bit_length() // 8), "little")
    nonzero = data.translate(_NONZERO)
    out = bytearray(len(data))
    i = nonzero.find(1)
    while i >= 0:
        byte = data[i]
        while byte:
            low = byte & -byte
            if bits & 1:
                out[i] |= low
            bits >>= 1
            byte ^= low
        i = nonzero.find(1, i + 1)
    return int.from_bytes(out, "little")


def _bernoulli_bits(getrandbits, nbits: int, p: int, q: int) -> int:
    """An int of ``nbits`` independent Bernoulli(p/q) bits, 0 <= p <= q.

    Bit i is set when a uniform U_i in [0, 1) falls below p/q.  U_i is read
    one random bit at a time against the binary expansion of p/q, and the
    first place where they differ decides the lane (Knuth and Yao 1976).  A
    round draws one bit for every lane with one ``getrandbits(nbits)``: the
    open lanes whose bit differs are decided, set where the expansion has a
    1.  The next expansion bit comes from doubling p mod q, so a dyadic
    a/2**k ends after at most k rounds (one for 1/2), and 0 and 1 take none.
    After ``_ROUNDS`` rounds the lanes still open are drawn as one packed
    int, by this function on the rest of the expansion, and deposited into
    the open positions, lowest first.
    """
    if p == q:
        return (1 << nbits) - 1
    # open_ = -1 stands for every lane before the first round, so that round
    # builds no mask; the open lanes are only worked out for a next round.
    hits, open_ = 0, -1
    rounds = 0
    while open_ and p:
        if rounds == _ROUNDS:
            return hits | _deposit(open_, _bernoulli_bits(getrandbits, open_.bit_count(), p, q))
        rounds += 1
        differ = getrandbits(nbits) if open_ < 0 else getrandbits(nbits) & open_
        p += p
        if p >= q:
            p -= q
            hits = hits | differ if hits else differ
        if p:
            open_ = ((1 << nbits) - 1 if open_ < 0 else open_) ^ differ
    return hits


def monte_carlo(
    spec: CodeSpec,
    eps: Fraction | float | str,
    trials: int,
    seed: int = 0,
) -> SimReport:
    """Simulate i.i.d. erasures and measure genie-aided per-bit rates.

    Rates are reported for every u-bit; the block error rate counts trials
    where any unfrozen bit was undecodable.  Trials run in flow batches of up
    to 64 * ``MC_CHUNK_DRAWS`` pattern-symbols.  Each of a batch's r*r row
    ints is drawn in order as inner_len * batch exact Bernoulli(eps) bits
    (``_bernoulli_bits`` on ``random.Random(seed).getrandbits``; lanes are
    exactly the batch, so nothing is padded), the flow runs once per batch,
    and failures are counted with ``int.bit_count``.  Results do not depend
    on the transmitted values; they are fixed by the seed, eps, the trial
    count, the code's shape and the batch size, and a different batch size
    draws a different stream.  The seed must be non-negative, because
    ``random.Random`` seeds with its absolute value.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    eps = erasure_probability(eps)
    getrandbits = random.Random(seed).getrandbits
    info = list(spec.info_positions)
    bit_fail = [0] * spec.n
    block_fail = 0
    per_batch = 64 * max(1, MC_CHUNK_DRAWS // spec.total_len)
    done = 0
    while done < trials:
        batch = min(per_batch, trials - done)
        rows = [_bernoulli_bits(getrandbits, spec.inner_len * batch, eps.numerator, eps.denominator)
                for _ in range(spec.r * spec.r)]
        flags, ops_each = _flow(spec, rows, batch)
        bit_fail = [n + f.bit_count() for n, f in zip(bit_fail, flags)]
        if info:
            block_fail += functools.reduce(operator.or_, [flags[i] for i in info]).bit_count()
        done += batch
    return SimReport(spec, eps, trials, seed, per_bit_rates=tuple(v / trials for v in bit_fail),
                     block_error_rate=block_fail / trials, operations=ops_each * trials,
                     operations_per_decode=ops_each)


# -- oracle vs analysis comparison -------------------------------------------

class OracleComparison(NamedTuple):
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
    golden reference expressions to compare those instead, one per
    sub-codeword.  Sub-codeword channels are inner polarized so both sides
    describe the same 2**m bits.
    """
    from .effective_channels import assignment_erasures
    from .poly import Poly

    spec = oracle_spec(family, assignment, m, t)
    if analysis is None:
        analysis = assignment_erasures(assignment, family).per_subword
    if len(analysis) != spec.r:
        raise ValueError(f"expected {spec.r} analysis polynomials, got {len(analysis)}")
    oracle = exact_erasure_oracle(spec)
    composed = _polarize(list(analysis), m - t, Poly.one())
    mism = tuple(i for i in range(1 << m) if oracle[i] != composed[i])
    return OracleComparison(label or f"{family.kind}:{assignment.label()} m={m}", m,
                            spec.total_len, tuple(oracle), tuple(composed), mism)
