"""Codec: construction, encoding, decoding, oracle, and simulation."""

import hashlib
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from polarrep import codec, polarize
from polarrep.channel_algebra import standard_synthetic_channel
from polarrep.codec import (
    CodeSpec,
    DecodeFailure,
    compare_oracle_with_analysis,
    decode_operation_count,
    design_code,
    encode,
    erasure_flow,
    exact_erasure_oracle,
    monte_carlo,
    oracle_spec,
    sc_decode,
    synthetic_erasure_ratios,
    synthetic_erasure_values,
    synthetic_polynomials,
)
from polarrep.effective_channels import assignment_erasures, reference_expression_set
from polarrep.patterns import PatternAssignment, _kernel_groups, family_by_name, regular_family
from polarrep.poly import EPS, Poly
from polarrep.search import enumerate_assignments

REG2 = family_by_name("reg2")
A01 = PatternAssignment([0, 1])

RATIO_EPS = [F(0), F(1), F(1, 2), F(1, 3), F(2, 5), F(1, 6), F(5, 7)]

#: SHA-256 of the comma-joined frozen indices at k = 2**m / 2, pinned from
#: the exact ranking on integer keys over the least common denominator of
#: all 2**m design erasures.
GOLDEN_FROZEN = [
    ("irr4", [2, 5, 7, 7], 12, F(1, 2),
     "31ef6f1febedca954d6dcfc7d776b4d3cf0a63e3afd8dd8ae91da966498141d4"),
    ("irr4", [2, 5, 7, 7], 12, F(1, 3),
     "84f4e631b879c415169c7840dcc14a1f5704bba0dbe8c27030410b9aa21f85bd"),
    ("reg4", [0, 3, 3, 3], 12, F(1, 2),
     "82b29257a69eb8ef036856d7da6dce3a270b64ce8ad940a48c2b7c1b2d347ebd"),
    ("reg4", [0, 3, 3, 3], 12, F(1, 3),
     "9cb44da2e80bd99f67c649d215ba681f48a40589c0c9cffb64c9e1a0de05eb8a"),
    ("irr4", [2, 5, 7, 7], 13, F(1, 2),
     "69ae7e8622936f625add85198da88f783941f3ee13e9d1562e5790fed6400ef1"),
    ("irr4", [2, 5, 7, 7], 14, F(1, 2),
     "46921b77527fbe79aac22da426d5e4e28c8825d7e8d2d64c7ebd4a7010eb5a67"),
    ("irr4", [2, 5, 7, 7], 14, F(1, 3),
     "939904bfa854bd962e2967c4e3fa0340ac32f3c93ba3b9897464e34e33b9b4f3"),
    ("irr4", [2, 5, 7, 7], 15, F(1, 2),
     "fc4a4262991a6d67d94cfedd5e965b77ff27d63119f83f5c32f326fbf7fababf"),
    ("irr4", [2, 5, 7, 7], 15, F(1, 3),
     "8ea3dc5a6fcc5826374683034f96160a364bb9f137492b6b6c8cc8d4f8433428"),
]

#: Code shapes of the golden decode corpus, each at three partial frozen sets.
GOLDEN_DECODE_SHAPES = [
    ("reg2", [0, 1], 3), ("reg2", [0, 1], 8), ("reg2", [1, 1], 6),
    ("reg4", [0, 3, 3, 3], 4), ("reg4", [1, 2, 3, 3], 7),
    ("irr4", [2, 5, 7, 7], 2), ("irr4", [2, 5, 7, 7], 8), ("irr4", [0, 3, 6, 7], 5),
    ("reg8", [0, 1, 2, 3, 4, 5, 6, 7], 3), ("reg8", [0, 0, 3, 5, 5, 6, 7, 7], 6),
]

#: SHA-256 of the corpus's decode results (720 words, 86 failures), pinned
#: from the decoder whose variable combine ORed known values.
GOLDEN_DECODES = "a12c7fc3f33fde1e5f212ff565700444d431469cc45d16b3d4dee9facb31918e"

#: SHA-256 of the erasure flow's flags on 120 seeded patterns for each of four
#: specs (reg8 at m=5, irr4 at m=6 with k=37, reg4 and reg2 at m=4), pinned
#: from the decoder that called its combines through an op-set object.
ERASURE_FLOWS = "446c920519a9c2f12d2c75579dd949ecbe7759249420327d29a5a0e787ac7d88"


def at_point(per_subword, eps):
    """The sub-channel design erasures at ``eps``, from their polynomials."""
    return [z.evaluate(eps) for z in per_subword]


def fraction_design_values(per_subword, levels, eps):
    """Reference design erasures: the inner maps applied to ``Fraction``s."""
    values = []
    for z in per_subword:
        level = [z.evaluate(eps)]
        for _ in range(levels):
            level = [w for v in level for w in (2 * v - v * v, v * v)]
        values += level
    return values


class TestDesignCode:
    def test_degenerate_inner(self):
        spec = design_code(1, 1, A01, F(1, 2), 2, REG2)
        assert spec.frozen == ()
        per = assignment_erasures(A01, REG2).per_subword
        values = synthetic_erasure_values(at_point(per, F(1, 2)), 0)
        assert values == [F(5, 16), F(1, 8)]
        assert spec.design_floats == tuple(map(float, values))

    def test_keeps_more_reliable_bit(self):
        spec = design_code(1, 1, A01, F(1, 2), 1, REG2)
        assert spec.frozen == (0,)
        assert spec.info_positions == (1,)

    def test_all_identity_matches_standard_polar_over_repetition(self):
        m, t = 4, 1
        fam = REG2
        ident = PatternAssignment([1, 1])
        spec = design_code(m, t, ident, F(1, 2), 8, fam)
        polys = synthetic_polynomials(spec)
        seen = EPS**2
        for j in range(2):
            for i in range(8):
                assert polys[j * 8 + i] == standard_synthetic_channel(3, i, base=seen)
        # Frozen set = both copies of the worst inner indices.
        inner_vals = [
            standard_synthetic_channel(3, i, base=seen).evaluate(F(1, 2))
            for i in range(8)
        ]
        worst = sorted(range(8), key=lambda i: (inner_vals[i], i), reverse=True)[:4]
        expected = sorted([j * 8 + i for j in range(2) for i in worst])
        assert list(spec.frozen) == expected

    def test_size_checked_before_design(self, monkeypatch):
        class Reached(Exception):
            pass

        def evaluated(*args):
            raise Reached

        monkeypatch.setattr(codec, "design_ranking", evaluated)
        irr4 = family_by_name("irr4")
        assignment = PatternAssignment([2, 5, 7, 7])
        with pytest.raises(Reached):
            design_code(codec.MAX_DESIGN_M, 2, assignment, F(1, 2), 1, irr4)
        with pytest.raises(ValueError, match="exceeds the exact design bound"):
            design_code(codec.MAX_DESIGN_M + 1, 2, assignment, F(1, 2), 1, irr4)

    def test_oracle_spec_evaluates_no_design(self, monkeypatch):
        def evaluated(*args):
            raise AssertionError("design erasures evaluated for an all-unfrozen spec")

        monkeypatch.setattr(codec, "design_ranking", evaluated)
        irr4 = family_by_name("irr4")
        assignment = PatternAssignment([2, 5, 7, 7])
        spec = oracle_spec(irr4, assignment, codec.MAX_DESIGN_M, 2)
        assert (spec.k, spec.frozen, spec.design_floats) == (spec.n, (), ())
        assert spec == CodeSpec(codec.MAX_DESIGN_M, 2, irr4, assignment, F(1, 2), spec.n, ())

    @pytest.mark.parametrize(
        "name, indices, m, t, reason",
        [
            ("irr4", [2, 5, 7, 7], 16, 2, "m=16 exceeds the exact design bound MAX_DESIGN_M=15"),
            ("irr4", [2, 5, 7, 7], 1, 2, "need 0 <= t <= m, got t=2, m=1"),
            ("irr4", [2, 5, 7, 7], 3, 1, "family kernels have size 4, expected 2"),
            ("irr4", [2, 5, 7, 9], 3, 2, "index 9 out of range for family irr4"),
            ("irr4", [2, 5, 7], 3, 2, "assignment has 3 blocks but kernels have size 4"),
        ],
    )
    def test_shape_checks_shared_with_oracle_spec(self, name, indices, m, t, reason):
        family, assignment = family_by_name(name), PatternAssignment(indices)
        with pytest.raises(ValueError, match=f"^{reason}$"):
            design_code(m, t, assignment, F(1, 2), 1, family)
        with pytest.raises(ValueError, match=f"^{reason}$"):
            oracle_spec(family, assignment, m, t)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            design_code(1, 2, A01, F(1, 2), 1, REG2)
        with pytest.raises(ValueError):
            design_code(2, 1, A01, 2, 1, REG2)
        with pytest.raises(ValueError):
            design_code(2, 1, A01, F(1, 2), 5, REG2)

    @pytest.mark.parametrize(
        "name, indices, m",
        [
            ("reg2", [0, 1], 5),
            ("reg2", [1, 1], 4),
            ("reg4", [0, 3, 3, 3], 5),
            ("reg4", [1, 2, 3, 3], 4),
            ("irr4", [2, 5, 7, 7], 5),
            ("irr4", [0, 3, 6, 7], 4),
            ("reg8", [0, 1, 2, 3, 4, 5, 6, 7], 5),
            ("reg8", [0, 0, 3, 5, 5, 6, 7, 7], 4),
        ],
    )
    def test_ratios_are_the_reduced_fractions(self, name, indices, m):
        family = family_by_name(name)
        assignment = PatternAssignment(indices)
        t = family.size.bit_length() - 1
        per = assignment_erasures(assignment, family).per_subword
        for eps in RATIO_EPS:
            expected = fraction_design_values(per, m - t, eps)
            ratios = synthetic_erasure_ratios(at_point(per, eps), m - t)
            assert ratios == [(v.numerator, v.denominator) for v in expected]
            assert all(math.gcd(n, d) == 1 for n, d in ratios)
            assert synthetic_erasure_values(at_point(per, eps), m - t) == expected

    @pytest.mark.parametrize(
        "name, stride", [("reg2", 1), ("reg4", 1), ("irr4", 23)]
    )
    def test_frozen_sets_match_fraction_ranking(self, name, stride):
        family = family_by_name(name)
        t = family.size.bit_length() - 1
        for assignment in enumerate_assignments(family, family.size)[::stride]:
            per = assignment_erasures(assignment, family).per_subword
            for m in sorted({t, 5, 8}):
                n = 1 << m
                # eps = 0 ties every bit, so the index alone decides.
                for eps, k in ((F(0), n // 4), (F(1, 2), n // 2 + 1), (F(5, 7), 3 * n // 4)):
                    values = fraction_design_values(per, m - t, eps)
                    worst = sorted(range(n), key=lambda i: (values[i], i), reverse=True)
                    spec = design_code(m, t, assignment, eps, k, family)
                    assert spec.frozen == tuple(sorted(worst[: n - k]))

    @pytest.mark.parametrize("extra_bits", [0, 3000])
    @pytest.mark.parametrize(
        "name, stride, m", [("reg2", 1, 8), ("reg4", 1, 6), ("irr4", 23, 7), ("reg8", 643, 8)]
    )
    def test_floats_are_the_rounded_ratios(self, monkeypatch, name, stride, m, extra_bits):
        """The floats are the rounded ratios on ``MANTISSA_BITS``-bit
        bounds, where a bit whose bounds straddle a rounding boundary is
        evaluated exactly (reg4 {3,3,3,3} at eps=1/2 has four at a midpoint,
        which its exact dyadic pass decides), and on bounds 3000 bits wider,
        which decide every float here alone."""
        monkeypatch.setattr(polarize, "MANTISSA_BITS", polarize.MANTISSA_BITS + extra_bits)
        path, exact = polarize._path_ratio, []

        def counted(*args):
            exact.append(args)
            return path(*args)

        monkeypatch.setattr(polarize, "_path_ratio", counted)
        family = family_by_name(name)
        t = family.size.bit_length() - 1
        for assignment in enumerate_assignments(family, family.size)[::stride]:
            per = assignment_erasures(assignment, family).per_subword
            for eps in RATIO_EPS:
                values = at_point(per, eps)
                expected = [n / d for n, d in synthetic_erasure_ratios(values, m - t)]
                assert polarize.design_ranking(values, m - t, 0)[0] == expected
        if extra_bits:
            assert exact == []

    @pytest.mark.parametrize(
        "indices, m, eps",
        [([0, 1], 10, F(1, 20)), ([1, 1], 7, F(1, 2)), ([0, 1], 7, F(9, 10)), ([0, 1], 4, F(0))],
    )
    def test_ties_ranked_on_bounds_and_exact_keys(self, monkeypatch, indices, m, eps):
        """Every cut up to m=7, and a sample at m=10, takes the exactly worst
        bits, on mantissas of 7, 10 and ``MANTISSA_BITS`` bits.  At m=10 and
        eps=1/20 two pairs of ratios differ by less than one part in 10**40;
        at eps=0 all are equal."""
        values = at_point(assignment_erasures(PatternAssignment(indices), REG2).per_subword, eps)
        ratios = synthetic_erasure_ratios(values, m - 1)
        common = math.lcm(*{d for _, d in ratios})
        keys = [n * (common // d) for n, d in ratios]
        worst = sorted(range(1 << m), key=lambda i: (keys[i], i), reverse=True)
        cuts = range(1 << m) if m <= 7 else [*range(0, 1 << m, 61), 955, 989, 1023]
        for width in (7, 10, polarize.MANTISSA_BITS):
            monkeypatch.setattr(polarize, "MANTISSA_BITS", width)
            for cut in cuts:
                frozen = polarize.design_ranking(values, m - 1, cut)[1]
                assert frozen == tuple(sorted(worst[:cut])), (width, cut)

    def test_exact_fallback(self, monkeypatch):
        """Seven-bit bounds round to different floats at most bits, which
        are then evaluated exactly, and overlap at the cut: floats and
        frozen sets are unchanged."""
        cases = [(REG2, A01, 10, F(1, 20), k) for k in (1, 35, 69, 70, 512)]
        cases += [(family_by_name("irr4"), PatternAssignment([2, 5, 7, 7]), 8, eps, 128)
                  for eps in RATIO_EPS]
        cases += [(family_by_name("reg4"), PatternAssignment([0, 3, 3, 3]), 7, F(1, 3), 40)]
        designed = [design_code(m, f.size.bit_length() - 1, a, eps, k, f)
                    for f, a, m, eps, k in cases]
        path, exact = polarize._path_ratio, []

        def counted(*args):
            exact.append(args)
            return path(*args)

        monkeypatch.setattr(polarize, "MANTISSA_BITS", 7)
        monkeypatch.setattr(polarize, "_path_ratio", counted)
        for (f, a, m, eps, k), spec in zip(cases, designed):
            exact.clear()
            again = design_code(m, f.size.bit_length() - 1, a, eps, k, f)
            assert (again.frozen, again.design_floats) == (spec.frozen, spec.design_floats)
            if 0 < eps < 1:
                assert len(exact) > spec.n // 2

    def test_float_ties_ranked_exactly(self, monkeypatch):
        """reg2 {0,1} at m=10 and eps=1/20: 69 design erasures round to 0.0
        and 12 more are subnormal, so the floats tie where the exact values
        differ.  k = 1 and 35 cut inside the 0.0 run, k = 69 and 70 at its
        edge, k = 512 far from it.  The mantissa bounds keep their exponent,
        so they separate these erasures and no bit is evaluated exactly."""
        path, exact = polarize._path_ratio, []

        def counted(*args):
            exact.append(args)
            return path(*args)

        monkeypatch.setattr(polarize, "_path_ratio", counted)
        m, eps = 10, F(1, 20)
        n = 1 << m
        values = fraction_design_values(assignment_erasures(A01, REG2).per_subword, m - 1, eps)
        worst = sorted(range(n), key=lambda i: (values[i], i), reverse=True)
        for k in (1, 35, 69, 70, 512):
            spec = design_code(m, 1, A01, eps, k, REG2)
            assert spec.frozen == tuple(sorted(worst[: n - k])), k
        assert exact == []
        assert spec.design_floats == tuple(float(v) for v in values)
        zeros = [values[i] for i in range(n) if spec.design_floats[i] == 0.0]
        assert len(zeros) == len(set(zeros)) == 69
        assert sum(0.0 < x < 2.0**-1022 for x in spec.design_floats) == 12

    @pytest.mark.parametrize("name, stride", [("reg2", 1), ("reg4", 1), ("irr4", 1)])
    def test_design_erasures_are_the_polynomials_at_the_point(self, name, stride):
        """The design factor walk on the point gives every sub-channel's
        design erasure polynomial evaluated there, exactly, as numerators
        over one denominator."""
        family = family_by_name(name)
        for assignment in enumerate_assignments(family, family.size)[::stride]:
            per = assignment_erasures(assignment, family).per_subword
            groups = _kernel_groups(assignment, family)
            for eps in RATIO_EPS:
                nums, den = codec.design_erasures(groups, eps)
                assert [F(n, den) for n in nums] == at_point(per, eps)

    @pytest.mark.parametrize("name, stride", [("reg2", 1), ("reg4", 7), ("irr4", 83)])
    def test_floor_pass_brackets_path_ratios(self, monkeypatch, name, stride):
        """Every bit's exact erasure (``_path_ratio``) lies between the floor
        pass's lower mantissa and that mantissa plus its slack, or 1, for
        every m up to 9 and mantissas from 7 bits up."""
        family = family_by_name(name)
        t = family.size.bit_length() - 1
        for width in (7, 10, polarize.MANTISSA_BITS):
            monkeypatch.setattr(polarize, "MANTISSA_BITS", width)
            for assignment in enumerate_assignments(family, family.size)[::stride]:
                per = assignment_erasures(assignment, family).per_subword
                for eps in [*RATIO_EPS, F(1, 1000), F(999, 1000)]:
                    for value in at_point(per, eps):
                        for levels in range(10 - t):
                            slack = polarize._slack(value, levels)
                            lows = polarize._floor_pass(value, levels)
                            for i, (n, e) in enumerate(lows):
                                p, q = polarize._path_ratio(value, levels, i)
                                assert n * q <= p << e, (width, value, levels, i)
                                if slack is None:
                                    assert p <= q
                                else:
                                    assert p << e <= (n + slack) * q, (width, value, levels, i)

    @pytest.mark.parametrize("eps, k, ceiling", [(F(9, 10), 3996, 450), (F(19, 20), 3584, 898)])
    def test_cut_cluster_evaluations_bounded(self, monkeypatch, eps, k, ceiling):
        """Near eps = 1 the cut falls inside a cluster of overlapping bounds,
        whose bits are evaluated exactly.  For irr4 {2,5,7,7} at m = 12 the
        mantissa bounds need no more of those evaluations than 40-digit
        decimal bounds do (``ceiling``, 396 and 764 at 160 bits)."""
        path, exact = polarize._path_ratio, []

        def counted(*args):
            exact.append(args)
            return path(*args)

        monkeypatch.setattr(polarize, "_path_ratio", counted)
        design_code(12, 2, PatternAssignment([2, 5, 7, 7]), eps, k, family_by_name("irr4"))
        assert 0 < len(exact) <= ceiling

    @pytest.mark.parametrize(
        "name, indices, m, eps, digest",
        GOLDEN_FROZEN,
        ids=[f"{c[0]}-{''.join(map(str, c[1]))}-m{c[2]}-{c[3]}" for c in GOLDEN_FROZEN],
    )
    def test_golden_frozen_sets(self, name, indices, m, eps, digest):
        spec = design_code(m, 2, PatternAssignment(indices), eps, 1 << (m - 1), family_by_name(name))
        assert hashlib.sha256(",".join(map(str, spec.frozen)).encode()).hexdigest() == digest


class TestEncode:
    def test_two_block_pin(self):
        spec = design_code(1, 1, A01, F(1, 2), 2, REG2)
        assert encode(spec, [1, 0]) == [(1, 0), (1, 0)]
        assert encode(spec, [1, 1]) == [(0, 1), (1, 1)]

    def test_all_zero(self):
        spec = design_code(3, 1, A01, F(1, 2), 4, REG2)
        assert all(all(v == 0 for v in blk) for blk in encode(spec, [0] * 4))

    def test_regular_best_first_block(self):
        fam = family_by_name("reg4")
        spec = design_code(2, 2, PatternAssignment([0, 3, 3, 3]), F(1, 2), 4, fam)
        blocks = encode(spec, [1, 0, 1, 1])
        assert blocks[0] == (1, 1, 0, 1)
        assert blocks[1] == blocks[2] == blocks[3] == (1, 0, 1, 1)

    def test_length_check(self):
        spec = design_code(1, 1, A01, F(1, 2), 2, REG2)
        with pytest.raises(ValueError):
            encode(spec, [1])

    def test_info_bits_must_be_binary(self):
        # A 2 would spill into the next symbol's bit of a row int.
        spec = design_code(1, 1, A01, F(1, 2), 2, REG2)
        with pytest.raises(ValueError, match="info bits must be 0 or 1, got 2"):
            encode(spec, [2, 0])


class TestScDecode:
    def test_round_trip_no_erasures(self):
        rng = random.Random(11)
        cases = [
            design_code(4, 1, A01, F(1, 2), 9, REG2),
            design_code(
                3, 2, PatternAssignment([0, 3, 3, 3]), F(1, 2), 5, family_by_name("reg4")
            ),
            design_code(
                2, 2, PatternAssignment([2, 5, 7, 7]), F(1, 2), 3, family_by_name("irr4")
            ),
        ]
        for spec in cases:
            for _ in range(40):
                info = [rng.randint(0, 1) for _ in range(spec.k)]
                word = [b for blk in encode(spec, info) for b in blk]
                assert sc_decode(spec, word) == info

    def test_recovers_from_single_erasure(self):
        spec = design_code(1, 1, A01, F(1, 2), 2, REG2)
        # blocks for info (1, 0): (1,0) and (1,0); erase block-1 position 1
        assert sc_decode(spec, [None, 0, 1, 0]) == [1, 0]

    def test_all_erased_fails_at_first_info_bit(self):
        spec = design_code(1, 1, A01, F(1, 2), 2, REG2)
        with pytest.raises(DecodeFailure) as err:
            sc_decode(spec, [None] * 4)
        assert err.value.bit_index == 0
        frozen_first = design_code(1, 1, A01, F(1, 2), 1, REG2)
        with pytest.raises(DecodeFailure) as err:
            sc_decode(frozen_first, [None] * 4)
        assert err.value.bit_index == 1

    def test_received_symbols_must_be_binary_or_erased(self):
        spec = design_code(1, 1, A01, F(1, 2), 2, REG2)
        with pytest.raises(ValueError, match="received symbols must be 0, 1 or None, got 2"):
            sc_decode(spec, [2, 0, 1, 0])

    def test_frozen_bits_help(self):
        spec = design_code(1, 1, A01, F(1, 2), 1, REG2)
        # Only info bit is u2 = c2; block 2 = (c1, c2) = (0, 1)
        assert sc_decode(spec, [None, None, None, 1]) == [1]

    def test_golden_decodes(self):
        # Encoded codewords under random erasures: each word's decoded
        # message or first failing bit, over reg2, reg4, irr4 and reg8 shapes
        # at m up to 8 with partial frozen sets.
        rng = random.Random(19)
        lines = []
        for name, indices, m in GOLDEN_DECODE_SHAPES:
            family = family_by_name(name)
            t = family.size.bit_length() - 1
            n = 1 << m
            for k, design_eps in ((n // 4, F(1, 2)), (n // 2, F(1, 3)), (3 * n // 4, F(1, 2))):
                spec = design_code(m, t, PatternAssignment(indices), design_eps, k, family)
                for p in (0.1, 0.3, 0.5, 0.7):
                    for _ in range(6):
                        info = [rng.randint(0, 1) for _ in range(k)]
                        word = [None if rng.random() < p else b
                                for blk in encode(spec, info) for b in blk]
                        try:
                            got = "".join(map(str, sc_decode(spec, word)))
                        except DecodeFailure as err:
                            got = f"fail {err.bit_index}"
                        lines.append(f"{name}{indices} m={m} k={k}: {got}")
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLDEN_DECODES

    def test_matches_erasure_flow_on_random_patterns(self):
        # sc_decode runs the decoder on one lane and erasure_flow on one lane
        # per pattern of a batch, so this checks both that lanes stay
        # independent and that the decoded values are the message.
        rng = random.Random(5)
        irr4 = family_by_name("irr4")
        specs = [
            oracle_spec(REG2, A01, 3, 1),
            oracle_spec(irr4, PatternAssignment([2, 5, 7, 7]), 2, 2),
            # Three split levels, mixing coupled and uncoupled kernels.
            oracle_spec(family_by_name("reg8"), PatternAssignment([0, 1, 2, 3, 4, 5, 6, 7]), 3, 3),
            # Partially frozen: the decoder stops at the first flagged info bit.
            design_code(4, 2, PatternAssignment([2, 5, 7, 7]), F(1, 2), 7, irr4),
            # Inner width 16, half frozen: known earlier bits re-encode into
            # symbols the later half never received.
            design_code(5, 1, A01, F(1, 2), 16, REG2),
        ]

        # Messages come from their own stream, so the patterns stay those of
        # seed 5.
        messages = random.Random(6)

        def check(spec, pattern, flags):
            info = [messages.randint(0, 1) for _ in range(spec.k)]
            blocks = [b for blk in encode(spec, info) for b in blk]
            word = [None if e else b for e, b in zip(pattern, blocks)]
            failing = [i for i in spec.info_positions if flags[i]]
            if failing:
                with pytest.raises(DecodeFailure) as err:
                    sc_decode(spec, word)
                assert err.value.bit_index == failing[0]
            else:
                assert sc_decode(spec, word) == info

        for spec in specs:
            for _ in range(60):
                pattern = [rng.random() < 0.4 for _ in range(spec.total_len)]
                check(spec, pattern, erasure_flow(spec, np.array([pattern]))[0])
            # Stacks that fill 64-pattern words partly, exactly and past one.
            for batch in (1, 63, 64, 65, 129):
                patterns = np.array(
                    [[rng.random() < 0.4 for _ in range(spec.total_len)] for _ in range(batch)]
                )
                flags = erasure_flow(spec, patterns)
                assert len(flags) == batch
                assert all(len(row) == spec.n for row in flags)
                assert all(type(b) is bool for row in flags for b in row)
                # 0/1 integers, column-major arrays and plain lists read as
                # the same patterns.
                assert erasure_flow(spec, patterns.astype(np.int64)) == flags
                assert erasure_flow(spec, np.asfortranarray(patterns)) == flags
                assert erasure_flow(spec, patterns.tolist()) == flags
                for pattern, row in zip(patterns, flags):
                    check(spec, pattern, row)

    def test_erasure_flow_empty_batch(self):
        spec = design_code(3, 1, A01, F(1, 2), 4, REG2)
        assert erasure_flow(spec, np.zeros((0, spec.total_len), dtype=bool)) == []
        assert erasure_flow(spec, []) == []

    def test_erasure_flow_refuses_wrong_length(self):
        spec = design_code(3, 1, A01, F(1, 2), 4, REG2)
        for patterns in ([[0] * spec.total_len, [0] * 15], np.zeros((2, 17), dtype=bool)):
            with pytest.raises(ValueError, match=f"expected {spec.total_len} symbols"):
                erasure_flow(spec, patterns)

    def test_erasure_flow_pinned(self):
        # Above N = 16 no oracle exists, and sc_decode runs the same walk, so
        # a flag wrong the same way in both would pass the comparison above.
        rng = random.Random(23)
        specs = [
            oracle_spec(family_by_name("reg8"), PatternAssignment(range(8)), 5, 3),
            design_code(6, 2, PatternAssignment([2, 5, 7, 7]), F(1, 2), 37,
                        family_by_name("irr4")),
            oracle_spec(family_by_name("reg4"), PatternAssignment([0, 3, 3, 3]), 4, 2),
            oracle_spec(REG2, A01, 4, 1),
        ]
        lines = []
        for spec in specs:
            patterns = [[rng.random() < p for _ in range(spec.total_len)]
                        for p in (0.2, 0.4, 0.6) for _ in range(40)]
            lines += ["".join("01"[f] for f in row) for row in erasure_flow(spec, patterns)]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == ERASURE_FLOWS


class TestOracle:
    def test_two_block_mixed_pin(self):
        spec = oracle_spec(REG2, A01, 1, 1)
        assert exact_erasure_oracle(spec) == [EPS**2 + EPS**3 - EPS**4, EPS**3]

    def test_matches_analysis_for_two_blocks(self):
        for m in (1, 2, 3):
            for idx in ([0, 0], [0, 1], [1, 1]):
                cmp = compare_oracle_with_analysis(REG2, PatternAssignment(idx), m, 1)
                assert cmp.equal, (m, idx, cmp.mismatched_bits)

    def test_degenerate_one_block_is_standard_polar(self):
        fam = regular_family(0)
        cmp = compare_oracle_with_analysis(fam, PatternAssignment([0]), 2, 0)
        assert cmp.equal
        assert cmp.oracle_polys[2] == standard_synthetic_channel(2, 2)

    def test_all_identity_pure_repetition(self):
        fam = family_by_name("reg4")
        spec = oracle_spec(fam, PatternAssignment([3, 3, 3, 3]), 2, 2)
        assert exact_erasure_oracle(spec) == [EPS**4] * 4

    def test_four_block_best_patterns_reported(self):
        cmp_reg = compare_oracle_with_analysis(
            family_by_name("reg4"), PatternAssignment([0, 3, 3, 3]), 2, 2
        )
        cmp_irr = compare_oracle_with_analysis(
            family_by_name("irr4"), PatternAssignment([2, 5, 7, 7]), 2, 2
        )
        for cmp in (cmp_reg, cmp_irr):
            assert cmp.total_len == 16
            d = cmp.to_json_dict()
            assert "mismatched_bits" in d and "oracle" in d and "analysis" in d
            # The decoder differs from the design channels only in
            # coefficients of degree above the code's minimum route length.
            for i in cmp.mismatched_bits:
                diff = cmp.oracle_polys[i] - cmp.analysis_polys[i]
                assert all(c == 0 for c in diff.coeffs[:4])
        # The README's table: summed sub-codeword erasures, design minus
        # operational, at eps = 1/2 and in delta = 1 - eps near eps = 1.
        for cmp, at_half, near_one in ((cmp_irr, F(-5, 512), (0, 0, 1)),
                                       (cmp_reg, F(-77, 4096), (0, 0, 0, -4))):
            gap = sum(cmp.analysis_polys, Poly.zero()) - sum(cmp.oracle_polys, Poly.zero())
            assert gap.coeffs[:4] == (0,) * 4 and gap.coeffs[4] != 0
            assert gap.evaluate(F(1, 2)) == at_half
            assert gap.compose(Poly.one() - EPS).coeffs[: len(near_one)] == near_one

    @pytest.mark.parametrize("count", [0, 4])
    def test_analysis_needs_one_polynomial_per_subcodeword(self, count):
        # The four irr4 reference polynomials, or none, for a two-block code.
        analysis = reference_expression_set("irregular_best_r4").per_subword[:count]
        with pytest.raises(ValueError, match=f"expected 2 analysis polynomials, got {count}"):
            compare_oracle_with_analysis(REG2, A01, 2, 1, analysis)

    def test_requires_all_unfrozen_and_small(self):
        spec = design_code(1, 1, A01, F(1, 2), 1, REG2)
        with pytest.raises(ValueError):
            exact_erasure_oracle(spec)
        big = oracle_spec(REG2, A01, 4, 1)
        with pytest.raises(ValueError):
            exact_erasure_oracle(big)

    @pytest.mark.parametrize(
        "name, indices, m",
        [
            ("reg2", [0, 1], 2),
            ("reg2", [1, 1], 2),
            ("reg2", [0, 1], 3),
            ("reg4", [1, 2, 3, 3], 2),
            ("irr4", [2, 5, 7, 7], 2),
        ],
    )
    def test_oracle_lanes_match_erasure_flow(self, name, indices, m):
        # The oracle builds its 2**N lanes directly; erasure_flow packs the
        # same patterns from booleans (N = 8 and 16; r = 4 needs m >= 2).  Bernstein polynomials are a basis, so
        # equal polynomials mean equal per-bit, per-weight failure counts.
        family = family_by_name(name)
        spec = oracle_spec(family, PatternAssignment(indices), m, family.size.bit_length() - 1)
        n_sym = spec.total_len
        idx = np.arange(1 << n_sym)
        patterns = (idx[:, None] >> np.arange(n_sym)) & 1 == 1
        weights = patterns.sum(axis=1)
        flags = np.array(erasure_flow(spec, patterns))
        expected = []
        for i in range(spec.n):
            counts = np.bincount(weights[flags[:, i]], minlength=n_sym + 1)
            expected.append(sum(
                (Poly.monomial(w, int(c)) * (Poly.one() - EPS) ** (n_sym - w)
                 for w, c in enumerate(counts)),
                Poly.zero(),
            ))
        assert exact_erasure_oracle(spec) == expected

    def test_single_symbol_oracle(self):
        spec = oracle_spec(regular_family(0), PatternAssignment([0]), 0, 0)
        assert exact_erasure_oracle(spec) == [EPS]

    def test_oracle_total_probability(self):
        # Sum over bits of (erasure + capacity) accounts for every pattern.
        spec = oracle_spec(REG2, A01, 2, 1)
        polys = exact_erasure_oracle(spec)
        for p in polys:
            assert p.evaluate(0) == 0
            assert p.evaluate(1) == 1
            for x in (F(1, 4), F(1, 2), F(9, 10)):
                assert 0 <= p.evaluate(x) <= 1


class TestMonteCarlo:
    def test_extreme_rates(self):
        spec = design_code(3, 1, A01, F(1, 2), 4, REG2)
        silent = monte_carlo(spec, 0, 50, seed=1)
        assert set(silent.per_bit_rates) == {0.0}
        assert silent.block_error_rate == 0
        deaf = monte_carlo(spec, 1, 50, seed=1)
        assert set(deaf.per_bit_rates) == {1.0}
        # 65 lanes per symbol, not a whole number of bytes or words: every
        # trial must count.
        deaf = monte_carlo(spec, 1, 65)
        assert set(deaf.per_bit_rates) == {1.0}
        assert deaf.block_error_rate == 1.0

    def test_random_stream_pin(self):
        # Counts pinned for the exact Bernoulli rows drawn from
        # random.Random(seed).getrandbits, so a changed stream or sampler
        # shows up here and not only across versions.
        irr4 = family_by_name("irr4")
        spec = design_code(6, 2, PatternAssignment([2, 5, 7, 7]), F(3, 5), 32, irr4)
        trials = 1001
        report = monte_carlo(spec, F(3, 5), trials, seed=11)
        counts = [round(rate * trials) for rate in report.per_bit_rates]
        assert report.per_bit_rates == tuple(c / trials for c in counts)
        assert sum(counts) == 6886
        assert counts[:8] == [977, 686, 595, 128, 439, 61, 36, 0]
        assert report.block_error_rate == 5 / trials

    def test_negative_seed_refused(self):
        # random.Random(-1) would seed exactly as Random(1).
        spec = design_code(3, 1, A01, F(1, 2), 4, REG2)
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            monte_carlo(spec, F(1, 2), 10, seed=-1)

    def test_deterministic_given_seed(self, monkeypatch):
        spec = design_code(4, 1, A01, F(1, 2), 8, REG2)
        a = monte_carlo(spec, F(1, 2), 4000, seed=42)
        assert monte_carlo(spec, F(1, 2), 4000, seed=42) == a
        assert monte_carlo(spec, F(1, 2), 4000, seed=43) != a
        # Flow batches of 1280, 1280, 1280 and 160 trials: the same seed
        # gives the same report.  Each batch draws its own rows, so this is
        # not the one-batch stream above.
        monkeypatch.setattr(codec, "MC_CHUNK_DRAWS", 20 * spec.total_len)
        b = monte_carlo(spec, F(1, 2), 4000, seed=42)
        assert monte_carlo(spec, F(1, 2), 4000, seed=42) == b

    def test_rates_match_design_three_sigma(self):
        spec = design_code(5, 1, A01, F(1, 2), 16, REG2)
        trials = 40_000
        report = monte_carlo(spec, F(1, 2), trials, seed=7)
        per = assignment_erasures(A01, REG2).per_subword
        design = synthetic_erasure_values(at_point(per, F(1, 2)), 4)
        violations = 0
        for i in range(spec.n):
            p = float(design[i])
            se = math.sqrt(p * (1 - p) / trials)
            if abs(report.per_bit_rates[i] - p) > 3 * se:
                violations += 1
        assert violations <= max(1, 0.02 * spec.n)

    def test_block_error_monotone_in_eps(self):
        spec = design_code(4, 1, A01, F(1, 2), 6, REG2)
        rates = [
            monte_carlo(spec, F(i, 10), 4000, seed=3).block_error_rate
            for i in range(1, 10)
        ]
        slack = 3 * math.sqrt(0.25 / 4000)
        assert all(b >= a - slack for a, b in zip(rates, rates[1:]))


class _ScriptedBits:
    """A ``getrandbits`` that reads its words, lowest bit first, from one
    fixed bit string and refuses to read past its end."""

    def __init__(self, stream: int, length: int):
        self.stream, self.left = stream, length

    def __call__(self, k: int) -> int:
        assert k <= self.left, "the sampler read past the scripted stream"
        word = self.stream & ((1 << k) - 1)
        self.stream >>= k
        self.left -= k
        return word


#: sha256 of the hex of three draws from ``random.Random(11)``, at 1, 64
#: and 2**13 lanes, then one getrandbits(64) of the stream left: pins every
#: bit drawn and every bit consumed.  At 2**13 lanes about eight lanes of a
#: non-dyadic eps stay open after ``_ROUNDS`` and go through the deposit.
BERNOULLI_DIGESTS = {
    (0, 1): "20c902fe05d20f71928dec4dae22578c471f2a875fc710874a71c2b84e585bef",
    (1, 1): "5334dc2a13fed37935971ccb91a8b95b2134a7732b81c968f62e823b2205db15",
    (1, 2): "35f9126aa15ecbfde562b719ac63b72bbb180164cb23b6160db0db902374e056",
    (1, 4): "80e3e5f8792455421775b2e1efe60a3d8b5e5239774462d07af12aa328b4f6cd",
    (3, 8): "e4dc4d4d455e3350ce95f7e336a737be33ad428ba5a5758cea701cd4abf62d30",
    (1, 3): "53159a89648861abad73797638cdfa2722520a2a51f57cf71d1faa6e1990de4d",
    (3, 5): "5b0e77f6f88c8304db780994141108dbf257c8de8e3e7b68ce528b50e4b87387",
    (9, 10): "789ffa7b9c9d9fa3b6b4d06b74522de786ab46e5e88a2c8992352952ac74eefa",
}


class TestBernoulliBits:
    @pytest.mark.parametrize("p, q", list(BERNOULLI_DIGESTS))
    def test_draws_pinned(self, p, q):
        getrandbits = random.Random(11).getrandbits
        draws = [codec._bernoulli_bits(getrandbits, n, p, q) for n in (1, 64, 1 << 13)]
        text = ",".join(map(hex, draws + [getrandbits(64)]))
        assert hashlib.sha256(text.encode()).hexdigest() == BERNOULLI_DIGESTS[p, q]

    @pytest.mark.parametrize("rounds", [codec._ROUNDS, 2, 1])
    @pytest.mark.parametrize("lanes", [2, 3])
    def test_exact_for_dyadic_eps(self, monkeypatch, rounds, lanes):
        # eps = 3/8 = 0.011 in binary needs at most three random bits per
        # lane, full-width or packed, so every stream of 3 * lanes fair bits
        # is one equally likely outcome.  Fewer rounds send open lanes
        # through the packed tail and its deposit.
        monkeypatch.setattr(codec, "_ROUNDS", rounds)
        eps, length = F(3, 8), 3 * lanes
        got = {}
        for stream in range(1 << length):
            bits = codec._bernoulli_bits(_ScriptedBits(stream, length), lanes, 3, 8)
            got[bits] = got.get(bits, 0) + F(1, 1 << length)
        want = {
            bits: eps ** bits.bit_count() * (1 - eps) ** (lanes - bits.bit_count())
            for bits in range(1 << lanes)
        }
        assert got == want

    @pytest.mark.parametrize("eps", [F(0), F(1), F(1, 2)])
    def test_trivial_expansions(self, eps):
        # 0 and 1 draw nothing; 1/2 is one full-width word.
        words = []

        def draw(k):
            words.append(k)
            return random.Random(k).getrandbits(k)

        bits = codec._bernoulli_bits(draw, 100, eps.numerator, eps.denominator)
        assert len(words) == (eps == F(1, 2))
        if eps != F(1, 2):
            assert bits == int(eps) * ((1 << 100) - 1)

    @pytest.mark.parametrize("eps", [F(1, 3), F(3, 5)])
    def test_tail_lanes_independent(self, monkeypatch, eps):
        # Two full-width rounds leave about a quarter of the lanes to the
        # packed tail, which recurses.  Per-lane and pairwise joint
        # frequencies over the draws must match eps and eps**2.
        monkeypatch.setattr(codec, "_ROUNDS", 2)
        lanes, draws = 12, 20_000
        getrandbits = random.Random(5).getrandbits
        samples = [codec._bernoulli_bits(getrandbits, lanes, eps.numerator, eps.denominator)
                   for _ in range(draws)]
        p = float(eps)

        def z(hits, q):
            return (hits - q * draws) / math.sqrt(q * (1 - q) * draws)

        for i in range(lanes):
            assert abs(z(sum(s >> i & 1 for s in samples), p)) < 4.5, i
            for j in range(i):
                both = sum(s >> i & s >> j & 1 for s in samples)
                assert abs(z(both, p * p)) < 4.5, (i, j)

    def test_reaches_sparse_tail(self):
        # At the default round count, a non-dyadic eps over 2**16 lanes
        # leaves about 64 open lanes, drawn packed; the overall frequency
        # still matches eps.
        widths = []
        rng = random.Random(9)

        def draw(k):
            widths.append(k)
            return rng.getrandbits(k)

        lanes = 1 << 16
        bits = codec._bernoulli_bits(draw, lanes, 1, 3)
        assert widths[: codec._ROUNDS] == [lanes] * codec._ROUNDS
        assert 0 < widths[codec._ROUNDS] < lanes // 256
        assert abs(bits.bit_count() - lanes / 3) < 4.5 * math.sqrt(lanes * 2 / 9)


def test_operation_count_scaling():
    # Doubling the code length at fixed repetition count should grow the
    # decoder work by at most a bit over 2x.
    previous = None
    for m in (4, 5, 6, 7):
        spec = design_code(m, 1, A01, F(1, 2), 1 << (m - 1), REG2)
        ops = decode_operation_count(spec)
        if previous is not None:
            assert ops <= 2.5 * previous
        previous = ops
    # Pinned count of the m=10 irr4 {2,5,7,7} decoder.
    irr4 = design_code(10, 2, PatternAssignment([2, 5, 7, 7]), F(1, 2), 512,
                       family_by_name("irr4"))
    assert decode_operation_count(irr4) == 16_896


def test_monte_carlo_reports_operations():
    spec = design_code(4, 1, A01, F(1, 2), 8, REG2)
    report = monte_carlo(spec, F(1, 2), 100, seed=0)
    assert report.operations == 100 * report.operations_per_decode
    assert report.operations_per_decode == decode_operation_count(spec)


@pytest.mark.parametrize(
    "name, m, count, total, low, high",
    [
        ("reg2", 4, 3, 280, 64, 120),
        ("reg4", 3, 35, 3_730, 32, 184),
        ("irr4", 3, 330, 35_404, 32, 184),
        ("reg8", 4, 6_435, 4_311_714, 128, 1_320),
    ],
)
def test_operation_counts_pinned_over_families(name, m, count, total, low, high):
    # Every assignment of the family.  The count does not read the frozen
    # set, so the all-unfrozen spec of ``oracle_spec`` is built without its
    # design.
    fam = family_by_name(name)
    t = fam.size.bit_length() - 1
    counts = [
        decode_operation_count(CodeSpec(m, t, fam, a, F(1, 2), 1 << m, ()))
        for a in enumerate_assignments(fam, fam.size)
    ]
    assert (len(counts), sum(counts), min(counts), max(counts)) == (count, total, low, high)


def test_multi_batch_monte_carlo_reports_one_decode(monkeypatch):
    # Five flow batches of up to 128 trials: the count is per decode, not
    # per batch or per lane.
    spec = design_code(3, 1, A01, F(1, 2), 4, REG2)
    monkeypatch.setattr(codec, "MC_CHUNK_DRAWS", 2 * spec.total_len)
    report = monte_carlo(spec, F(1, 2), 600, seed=5)
    assert report.operations_per_decode == decode_operation_count(spec)
    assert report.operations == 600 * decode_operation_count(spec)


def test_oracle_exact_for_single_kernel_repetition():
    # Repeating one kernel across every block is plain repetition of its
    # block codeword; the design analysis is exact there, so the oracle
    # agrees coefficient for coefficient.
    for fname, indices in (("reg4", [0, 0, 0, 0]), ("reg4", [3, 3, 3, 3]),
                           ("irr4", [2, 2, 2, 2])):
        fam = family_by_name(fname)
        cmp = compare_oracle_with_analysis(fam, PatternAssignment(indices), 2, 2)
        assert cmp.equal, (fname, indices, cmp.mismatched_bits)
