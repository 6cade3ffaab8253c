"""Codec: construction, encoding, decoding, oracle, and simulation."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from polarrep import codec
from polarrep.channel_algebra import standard_synthetic_channel
from polarrep.codec import (
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
    synthetic_erasure_values,
    synthetic_polynomials,
)
from polarrep.effective_channels import assignment_erasures
from polarrep.patterns import PatternAssignment, family_by_name, regular_family
from polarrep.poly import EPS

REG2 = family_by_name("reg2")
A01 = PatternAssignment([0, 1])


class TestDesignCode:
    def test_degenerate_inner(self):
        spec = design_code(1, 1, A01, F(1, 2), 2, REG2)
        assert spec.frozen == ()
        values = synthetic_erasure_values(
            assignment_erasures(A01, REG2).per_subword, 0, F(1, 2)
        )
        assert values == [F(5, 16), F(1, 8)]
        assert spec.design_erasures == tuple(values)

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

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            design_code(1, 2, A01, F(1, 2), 1, REG2)
        with pytest.raises(ValueError):
            design_code(2, 1, A01, 2, 1, REG2)
        with pytest.raises(ValueError):
            design_code(2, 1, A01, F(1, 2), 5, REG2)


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

    def test_frozen_bits_help(self):
        spec = design_code(1, 1, A01, F(1, 2), 1, REG2)
        # Only info bit is u2 = c2; block 2 = (c1, c2) = (0, 1)
        assert sc_decode(spec, [None, None, None, 1]) == [1]

    def test_matches_erasure_flow_on_random_patterns(self):
        rng = random.Random(5)
        irr4 = family_by_name("irr4")
        specs = [
            oracle_spec(REG2, A01, 3, 1),
            oracle_spec(irr4, PatternAssignment([2, 5, 7, 7]), 2, 2),
            # Three split levels, mixing coupled and uncoupled kernels.
            oracle_spec(family_by_name("reg8"), PatternAssignment([0, 1, 2, 3, 4, 5, 6, 7]), 3, 3),
            # Partially frozen: the decoder stops at the first flagged info bit.
            design_code(4, 2, PatternAssignment([2, 5, 7, 7]), F(1, 2), 7, irr4),
        ]
        for spec in specs:
            for _ in range(60):
                pattern = [rng.random() < 0.4 for _ in range(spec.total_len)]
                flags = erasure_flow(spec, np.array([pattern]))[0]
                word = [None if e else 0 for e in pattern]
                failing = [i for i in spec.info_positions if flags[i]]
                if failing:
                    with pytest.raises(DecodeFailure) as err:
                        sc_decode(spec, word)
                    assert err.value.bit_index == failing[0]
                else:
                    assert sc_decode(spec, word) == [0] * spec.k


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

    def test_requires_all_unfrozen_and_small(self):
        spec = design_code(1, 1, A01, F(1, 2), 1, REG2)
        with pytest.raises(ValueError):
            exact_erasure_oracle(spec)
        big = oracle_spec(REG2, A01, 4, 1)
        with pytest.raises(ValueError):
            exact_erasure_oracle(big)

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

    def test_deterministic_given_seed(self, monkeypatch):
        spec = design_code(4, 1, A01, F(1, 2), 8, REG2)
        a = monte_carlo(spec, F(1, 2), 4000, seed=42)
        b = monte_carlo(spec, F(1, 2), 4000, seed=42)
        assert a.per_bit_rates == b.per_bit_rates
        assert a.block_error_rate == b.block_error_rate
        # Chunks of 1500, 1500 and 1000 trials draw the same stream.
        monkeypatch.setattr(codec, "MC_CHUNK_DRAWS", 1500 * spec.total_len)
        assert monte_carlo(spec, F(1, 2), 4000, seed=42) == a

    def test_rates_match_design_three_sigma(self):
        spec = design_code(5, 1, A01, F(1, 2), 16, REG2)
        trials = 40_000
        report = monte_carlo(spec, F(1, 2), trials, seed=7)
        design = synthetic_erasure_values(
            assignment_erasures(A01, REG2).per_subword, 4, F(1, 2)
        )
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


def test_oracle_exact_for_single_kernel_repetition():
    # Repeating one kernel across every block is plain repetition of its
    # block codeword; the design analysis is exact there, so the oracle
    # agrees coefficient for coefficient.
    for fname, indices in (("reg4", [0, 0, 0, 0]), ("reg4", [3, 3, 3, 3]),
                           ("irr4", [2, 2, 2, 2])):
        fam = family_by_name(fname)
        cmp = compare_oracle_with_analysis(fam, PatternAssignment(indices), 2, 2)
        assert cmp.equal, (fname, indices, cmp.mismatched_bits)
