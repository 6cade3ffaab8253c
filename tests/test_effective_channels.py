"""Design channels: the level recursion, scheme, and assignment analysis."""

from fractions import Fraction as F

import pytest

from polarrep.effective_channels import (
    assignment_erasures,
    coded_repetition_scheme,
    reference_expression_set,
    regular_block_erasures,
)
from polarrep.patterns import PatternAssignment, family_by_name, regular_family
from polarrep.poly import EPS, ONE, Poly

U = EPS + EPS**2 - EPS**3  # check of the raw channel with its square

GRID = [F(i, 100) for i in range(101)]


class TestRegularBlockErasures:
    def test_one_level_polarized(self):
        assert regular_block_erasures(0, 1) == (U, EPS**2)

    def test_identity_pattern_any_level(self):
        for t in (1, 2, 3):
            assert regular_block_erasures((1 << t) - 1, t) == (EPS,) * (1 << t)

    def test_two_level_polarized(self):
        a = U
        expected = (
            a * (ONE + a - a * a),
            a * a,
            (EPS**2) * (ONE + EPS**2 - EPS**4),
            EPS**4,
        )
        assert regular_block_erasures(0, 2) == expected

    @pytest.mark.parametrize("t", [0, 1, 2, 3])
    def test_integer_walk_is_polynomials_at_point(self, t):
        """One walk: at p/q its integer numerators are the erasure
        polynomials' values over q**(3**t)."""
        for i in range(1 << t):
            polys = regular_block_erasures(i, t)
            for p, q in ((1, 3), (2, 7), (1, 2), (19, 20)):
                nums = regular_block_erasures(i, t, p, q)
                assert all(type(n) is int for n in nums)
                assert list(nums) == [z.evaluate(F(p, q)) * q ** 3**t for z in polys]

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            regular_block_erasures(4, 2)


class TestCodedRepetitionScheme:
    def test_two_blocks(self):
        s = coded_repetition_scheme(1)
        assert s.per_subword == (EPS**2 + EPS**3 - EPS**4, EPS**3)
        assert s.capacity_poly == Poly([F(1, 2), 0, F(-1, 4), F(-1, 2), F(1, 4)])
        assert s.capacity_at(F(1, 2)) == F(25, 64)

    def test_four_blocks_last_subword(self):
        assert coded_repetition_scheme(2).per_subword[3] == EPS**7

    def test_noiseless_rate(self):
        for t in (1, 2, 3):
            assert coded_repetition_scheme(t).capacity_at(0) == F(1, 1 << t)

    def test_capacity_normalization(self):
        s = coded_repetition_scheme(2)
        total = Poly.const(4)
        for z in s.per_subword:
            total = total - z
        assert s.capacity_poly == total.scale(F(1, 16))


class TestAssignmentErasures:
    def test_two_block_cases(self):
        fam = family_by_name("reg2")
        mixed = assignment_erasures(PatternAssignment([0, 1]), fam)
        assert mixed.per_subword == (EPS**2 + EPS**3 - EPS**4, EPS**3)
        both = assignment_erasures(PatternAssignment([0, 0]), fam)
        assert both.per_subword == ((EPS**2).scale(2) - EPS**4, EPS**4)
        plain = assignment_erasures(PatternAssignment([1, 1]), fam)
        assert plain.per_subword == (EPS**2, EPS**2)
        assert both.capacity_poly == Poly([F(1, 2), 0, F(-1, 2)])
        assert plain.capacity_poly == Poly([F(1, 2), 0, F(-1, 2)])

    def test_all_identity_is_pure_repetition(self):
        fam = family_by_name("irr4")
        channels = assignment_erasures(PatternAssignment([7, 7, 7, 7]), fam)
        assert channels.per_subword == (EPS**4,) * 4

    def test_matches_scheme_for_polarized_plus_identities(self):
        for t in (1, 2, 3):
            fam = regular_family(t)
            assignment = PatternAssignment([0] + [(1 << t) - 1] * ((1 << t) - 1))
            assert (
                assignment_erasures(assignment, fam).per_subword
                == coded_repetition_scheme(t).per_subword
            )

    def test_all_polarized_is_standard_polar_over_repetition(self):
        fam = family_by_name("reg4")
        got = assignment_erasures(PatternAssignment([0, 0, 0, 0]), fam).per_subword
        z = EPS**4
        minus = z.scale(2) - z * z
        plus = z * z
        expected = (
            minus.scale(2) - minus * minus,
            minus * minus,
            plus.scale(2) - plus * plus,
            plus * plus,
        )
        assert got == expected

    def test_matches_reference_expressions(self):
        reg = assignment_erasures(
            PatternAssignment([0, 3, 3, 3]), family_by_name("reg4")
        )
        assert reg.per_subword == reference_expression_set("regular_best_r4").per_subword
        irr = assignment_erasures(
            PatternAssignment([2, 5, 7, 7]), family_by_name("irr4")
        )
        assert irr.per_subword == reference_expression_set("irregular_best_r4").per_subword

    def test_block_order_is_irrelevant(self):
        fam = family_by_name("irr4")
        a = assignment_erasures(PatternAssignment([7, 2, 7, 5]), fam)
        b = assignment_erasures(PatternAssignment([2, 5, 7, 7]), fam)
        assert a.per_subword == b.per_subword

    def test_endpoints_and_range(self):
        fam = family_by_name("irr4")
        for idx in ([2, 5, 7, 7], [0, 0, 6, 6], [1, 2, 3, 4]):
            channels = assignment_erasures(PatternAssignment(idx), fam)
            for z in channels.per_subword:
                assert z.evaluate(0) == 0
                assert z.evaluate(1) == 1
                for eps in GRID[::10]:
                    assert 0 <= z.evaluate(eps) <= 1

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            assignment_erasures(PatternAssignment([0, 1, 1]), family_by_name("reg2"))


# to_strings() of every reference polynomial as the expression-tree
# transcription produced them: the per-sub-codeword erasures, then capacity.
REFERENCE_PINS = {
    "regular_best_r4": (
        ["0/1 0/1 0/1 0/1 1/1 2/1 0/1 -4/1 -2/1 6/1 0/1 -3/1 1/1".split(),
         "0/1 0/1 0/1 0/1 0/1 1/1 2/1 -1/1 -2/1 1/1".split(),
         "0/1 0/1 0/1 0/1 0/1 1/1 0/1 1/1 0/1 -1/1".split(),
         "0/1 0/1 0/1 0/1 0/1 0/1 0/1 1/1".split()],
        "1/4 0/1 0/1 0/1 -1/16 -1/4 -1/8 3/16 1/4 -3/8 0/1 3/16 -1/16".split(),
    ),
    "irregular_best_r4": (
        ["0/1 0/1 0/1 0/1 1/1 2/1 -1/1 -2/1 1/1".split(),
         "0/1 0/1 0/1 0/1 0/1 1/1 1/1 -1/1".split(),
         "0/1 0/1 0/1 0/1 0/1 1/1 0/1 1/1 0/1 -1/1".split(),
         "0/1 0/1 0/1 0/1 0/1 0/1 0/1 1/1".split()],
        "1/4 0/1 0/1 0/1 -1/16 -1/4 0/1 1/16 -1/16 1/16".split(),
    ),
}


class TestReferenceExpressions:
    @pytest.mark.parametrize("which", sorted(REFERENCE_PINS))
    def test_pinned_polynomials(self, which):
        per_subword, capacity = REFERENCE_PINS[which]
        channels = reference_expression_set(which)
        assert channels.r == 4
        assert [z.to_strings() for z in channels.per_subword] == per_subword
        assert channels.capacity_poly.to_strings() == capacity

    def test_last_subwords(self):
        assert reference_expression_set("regular_best_r4").per_subword[3] == EPS**7
        assert reference_expression_set("irregular_best_r4").per_subword[3] == EPS**7

    def test_first_subword_regular(self):
        expected = (U * (ONE + U - U * U)) * EPS**3
        assert reference_expression_set("regular_best_r4").per_subword[0] == expected

    def test_first_subword_irregular(self):
        assert reference_expression_set("irregular_best_r4").per_subword[0] == U * U * EPS**2

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            reference_expression_set("nope")


def test_capacity_gain_two_blocks():
    # Total erasure of the polarized block stays below 2*eps inside (0, 1).
    total = Poly.zero()
    for z in regular_block_erasures(0, 1):
        total = total + z
    for eps in GRID[1:-1]:
        assert total.evaluate(eps) < 2 * eps


def test_json_shape():
    channels = coded_repetition_scheme(1)
    d = channels.to_json_dict()
    assert d["r"] == 2
    assert d["per_subword"][1] == ["0/1", "0/1", "0/1", "1/1"]


def test_range_preservation_every_assignment():
    from polarrep.search import enumerate_assignments

    coarse = [F(i, 10) for i in range(11)]
    for name in ("reg4", "irr4"):
        fam = family_by_name(name)
        for assignment in enumerate_assignments(fam, 4):
            channels = assignment_erasures(assignment, fam)
            for z in channels.per_subword:
                assert z.evaluate(0) == 0 and z.evaluate(1) == 1
                for g in coarse:
                    assert 0 <= z.evaluate(g) <= 1
