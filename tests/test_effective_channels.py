"""Design channels: the level recursion, scheme, and assignment analysis."""

import hashlib
from fractions import Fraction as F

import pytest

from polarrep.effective_channels import (
    assignment_erasures,
    coded_repetition_scheme,
    reference_expression_set,
    regular_block_erasures,
)
from polarrep.patterns import PatternAssignment, _factor, family_by_name, regular_family
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


def walk_degree(kern, mult):
    """The walk's degree: mult, times 3 for a lone block or 2 for a merged
    group at every level where some node polarizes."""
    nodes, deg = [kern], mult
    while nodes[0].a is not None:
        if any(node.e for node in nodes):
            deg *= 3 if mult == 1 else 2
        nodes = [half for node in nodes for half in (node.a, node.b)]
    return deg


@pytest.mark.parametrize("name", ["reg2", "reg4", "reg8", "reg16", "irr4"])
def test_walk_at_integer_points_is_polynomial_walk(name):
    """One walk: on (p**mult, q**mult) it gives every factor of its walk on
    (EPS**mult, ONE) at p/q, times q**deg, over the one denominator q**deg;
    for every member, lone and merged.  deg is the largest factor degree,
    except where the nodes of one level differ: irr4's member 2, lone,
    polarizes only its bottom half at the second level, so its factors of
    degree 3, 3, 6, 4 share q**9."""
    fam = family_by_name(name)
    points = ((0, 1), (1, 1), (1, 3), (2, 7), (1, 2), (19, 20), (1, 1 + (1 << 64)))
    for i, kern in enumerate(fam.members):
        for mult in sorted({1, 2, fam.size}):
            polys, unit = _factor(kern, EPS**mult, ONE, mult == 1)
            assert unit == ONE and len(polys) == fam.size
            deg, top = walk_degree(kern, mult), max(z.degree for z in polys)
            assert (deg, top) == (9, 6) if (name, i, mult) == ("irr4", 2, 1) else deg == top
            for p, q in points:
                nums, den = _factor(kern, p**mult, q**mult, mult == 1)
                assert den == q**deg
                assert nums == [z.evaluate(F(p, q)) * den for z in polys]


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


#: sha256 of every design factor's coefficient strings, recorded while the
#: factor walk took the lone and merged check maps as callables.
DESIGN_FACTORS = "f4508c4890994eb3c3d6c158301ab97b01bbde5e9cc1ad2e8605167f01b3b17e"


def test_design_factors_pinned():
    from polarrep.effective_channels import _design_factor

    factors = []
    for name in ("reg2", "reg4", "irr4", "reg8"):
        fam = family_by_name(name)
        for kern in fam.members:
            for mult in range(1, fam.size + 1):
                for k in range(fam.size):
                    factors.append(",".join(_design_factor(kern, mult)[k].to_strings()))
    assert hashlib.sha256("\n".join(factors).encode()).hexdigest() == DESIGN_FACTORS
