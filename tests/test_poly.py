"""Exact polynomial arithmetic and Sturm root counting."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarrep.poly import (
    EPS,
    ONE,
    Poly,
    SturmSequence,
    budan_variations,
    count_roots_in,
    poly_gcd,
    square_free_part,
)

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)
small_polys = st.lists(rationals, min_size=0, max_size=6).map(Poly)


def test_add_basic():
    assert EPS + EPS**2 == Poly([0, 1, 1])


def test_compose_square_of_check():
    inner = Poly([0, 1, 1, -1])  # eps + eps^2 - eps^3
    assert (EPS**2).compose(inner) == Poly([0, 0, 1, 2, -1, -2, 1])


def test_mul_annihilator():
    assert Poly([1, 2, 3]) * Poly.zero() == Poly.zero()


def test_evaluate_pins():
    assert Poly([1, 0, -1]).evaluate(F(1, 2)) == F(3, 4)
    capacity = Poly([F(1, 2), 0, F(-1, 4), F(-1, 2), F(1, 4)])
    assert capacity.evaluate(F(1, 2)) == F(25, 64)
    assert Poly([F(3, 7), 1, 5]).evaluate(0) == F(3, 7)


def test_degree_bounds():
    p, q = Poly([1, 2]), Poly([0, 0, 3])
    assert (p * q).degree == p.degree + q.degree


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, rationals)
def test_mul_evaluate_homomorphism(p, q, x):
    assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, rationals)
def test_add_evaluate_homomorphism(p, q, x):
    assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)


@settings(max_examples=40, deadline=None)
@given(small_polys)
def test_compose_identity(p):
    assert p.compose(EPS) == p
    assert EPS.compose(p) == p


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys)
def test_divmod_reconstructs(p, q):
    if q.is_zero():
        return
    quot, rem = p.divmod(q)
    assert quot * q + rem == p
    assert rem.degree < q.degree


def test_count_roots_pins():
    assert count_roots_in(Poly([-2, 0, 1]), 0, 2) == 1  # sqrt(2)
    assert count_roots_in(Poly([1, 0, 1]), -10, 10) == 0
    # sum of the two-block scheme erasures minus 2*eps: -eps*(1-eps)^2
    diff = Poly([0, 1, 1, -1]) + Poly([0, 0, 1]) - EPS.scale(2)
    assert diff == Poly([0, -1, 2, -1])
    assert count_roots_in(diff, 0, 1) == 0


def test_count_roots_open_interval_semantics():
    # Roots exactly at the endpoints are excluded.
    assert count_roots_in(Poly([0, 1]), 0, 1) == 0  # root at 0
    assert count_roots_in(Poly([-1, 1]), 0, 1) == 0  # root at 1
    assert count_roots_in(Poly([-1, 1]), 0, 2) == 1


def test_count_roots_multiplicity_collapsed():
    p = Poly([F(-1, 2), 1]) ** 3
    assert count_roots_in(p, 0, 1) == 1


def test_count_roots_rejects_zero():
    with pytest.raises(ValueError):
        count_roots_in(Poly.zero(), 0, 1)


def test_known_rational_roots():
    # Independent oracle: build polynomials from explicit roots.
    roots = [F(1, 3), F(1, 2), F(5, 7), F(9, 4)]
    p = Poly.one()
    for r in roots:
        p = p * Poly([-r, 1])
    p = p * Poly([1, 0, 1])  # irreducible factor, no real roots
    assert count_roots_in(p, 0, 1) == 3
    assert count_roots_in(p, 0, 3) == 4
    assert count_roots_in(p, F(1, 3), F(5, 7)) == 1  # endpoints excluded


def _scan_sign_changes(p, a, b, step=F(1, 1000)):
    """Count sign changes of p on a dense grid: a root-count lower bound that
    is exact when roots are simple and separated by more than the step."""
    count = 0
    x = a
    prev = None
    while x <= b:
        v = p.evaluate(x)
        if v != 0:
            if prev is not None and (v > 0) != (prev > 0):
                count += 1
            prev = v
        x += step
    return count


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=-60, max_value=60), min_size=2, max_size=6))
def test_count_roots_matches_dense_scan(root_numerators):
    # Simple, well-separated roots in (0, 1) scaled from distinct integers.
    nums = sorted(set(root_numerators))
    roots = [F(n, 127) for n in nums]
    p = Poly.one()
    for r in roots:
        p = p * Poly([-r, 1])
    inside = sum(1 for r in roots if 0 < r < 1)
    assert count_roots_in(p, 0, 1) == inside
    assert _scan_sign_changes(p, 0, 1) == inside


def test_square_free_part():
    p = Poly([0, 1]) ** 2 * Poly([-1, 1])
    sf = square_free_part(p)
    assert sf.degree == 2
    assert sf.evaluate(0) == 0 and sf.evaluate(1) == 0


def test_gcd_monic():
    a = Poly([0, 1]) * Poly([-1, 1])
    b = Poly([0, 1]) * Poly([-2, 1])
    g = poly_gcd(a, b)
    assert g == Poly([0, 1])


def test_sturm_chain_shape():
    p = Poly([0, -1, 2, -1])  # -eps(1-eps)^2, square-free part degree 2
    seq = SturmSequence(p)
    assert seq.chain[-1].degree == 0
    assert len(seq.chain) <= p.degree + 1
    # Consecutive entries: next is a positive multiple of the negated remainder.
    for f, g, h in zip(seq.chain, seq.chain[1:], seq.chain[2:]):
        _, rem = f.divmod(g)
        ratio = None
        assert not rem.is_zero()
        for c_h, c_r in zip(h.coeffs, (-rem).coeffs):
            if c_r:
                ratio = c_h / c_r
                break
        assert ratio is not None and ratio > 0
        assert h.scale(1 / ratio) == -rem


def test_serialization_round_trip():
    p = Poly([F(1, 3), F(-2, 7), 0, 5])
    assert Poly([F(s) for s in p.to_strings()]) == p
    assert p.to_strings()[0] == "1/3"


# -- the integer core ---------------------------------------------------------

def _fraction_horner(p, x):
    """Reference evaluation: Horner with one Fraction per step."""
    acc = F(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_coeffs_are_fractions(p, q):
    results = [p, p + q, p - q, p * q, -p, p.scale(F(3, 7)), p.scale(2), p.compose(q),
               p.derivative(), p**2]
    if q:
        results += list(p.divmod(q))
    for r in results:
        assert all(type(c) is F for c in r.coeffs)
    assert all(type(c) is F for c in Poly([1, 2, 0, 3]).coeffs)
    if p:
        assert type(p.leading()) is F


def test_canonical_form_equality_and_hash():
    a, b = Poly([F(2, 4), 1]), Poly([F(1, 2), 1])
    assert a == b and hash(a) == hash(b)
    assert a == Poly(["1/2", "1"])
    half = Poly([F(1, 2)])
    assert half + half == ONE and hash(half + half) == hash(ONE)
    assert Poly([0, 0]) == Poly.zero() and hash(Poly([0, 0])) == hash(Poly.zero())
    assert Poly([F(1, 3), F(-2, 3)]) - Poly([F(1, 3), F(1, 3)]) == Poly([0, -1])
    assert (EPS.scale(F(6, 4)) * EPS.scale(F(2, 3))).coeffs == (0, 0, 1)


def test_divmod_by_constant_is_exact():
    quot, rem = Poly([1]).divmod(Poly([3]))
    assert quot.coeffs == (F(1, 3),) and type(quot.coeffs[0]) is F
    assert rem.is_zero()
    quot, rem = Poly([2, 0, 1]).divmod(Poly([0, 3]))
    assert quot == Poly([0, F(1, 3)]) and rem == Poly([2])


def test_gcd_of_rational_multiples_is_exactly_monic():
    g = poly_gcd(Poly([F(-1, 3), 0, F(1, 3)]), Poly([3, 3]))  # (x^2 - 1)/3, 3(x + 1)
    assert g == Poly([1, 1]) and g.coeffs == (F(1), F(1))
    assert poly_gcd(Poly([F(1, 2)]), Poly([F(2, 3)])) == ONE
    assert poly_gcd(Poly([-1, -1]), Poly([-1, 0, 1])) == Poly([1, 1])  # negative lead


EVALUATION_POINTS = [0, 1, -1, 5, F(-7, 3), F(1, 2**80 + 1), F(-(3**50), 2**61 - 1),
                     F(2**200 - 1, 2**201)]


@settings(max_examples=60, deadline=None)
@given(small_polys)
def test_evaluate_matches_fraction_horner(p):
    for x in EVALUATION_POINTS:
        value = p.evaluate(x)
        assert type(value) is F
        assert value == _fraction_horner(p, x)


@settings(max_examples=40, deadline=None)
@given(small_polys, st.fractions(max_denominator=2**70))
def test_evaluate_matches_fraction_horner_anywhere(p, x):
    assert p.evaluate(x) == _fraction_horner(p, x)


# -- Budan's 0-1 test against Sturm ------------------------------------------------

integer_polys = st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=8).map(Poly)
nonzero_polys = st.one_of(integer_polys, small_polys).filter(bool)


def _variations(values):
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def test_budan_pins():
    assert budan_variations(Poly([-1, 2])) == 1  # root at 1/2
    assert budan_variations(Poly([1, 0, 1])) == 0
    assert budan_variations(Poly([0, -1, 2, -1])) == 0  # roots at 0 and 1 only
    assert budan_variations(Poly([F(1, 6), F(-5, 6), 1])) == 2  # roots 1/3, 1/2
    assert budan_variations(Poly([3])) == 0
    with pytest.raises(ValueError):
        budan_variations(Poly.zero())


@settings(max_examples=60, deadline=None)
@given(nonzero_polys)
def test_budan_is_the_shifted_sign_variation(p):
    # Independent construction: the sum of c_i (1 + x)**(n - i) in Poly arithmetic.
    n = p.degree
    shifted = Poly.zero()
    for i, c in enumerate(p.coeffs):
        shifted = shifted + (ONE + EPS) ** (n - i) * Poly.const(c)
    assert budan_variations(p) == _variations(shifted.coeffs)


@settings(max_examples=80, deadline=None)
@given(nonzero_polys)
def test_budan_bounds_sturm_with_equal_parity(p):
    roots = count_roots_in(p, 0, 1)
    assert budan_variations(p) >= roots
    if p.evaluate(0) * p.evaluate(1) != 0:
        # Descartes counts roots with multiplicity; the square-free part's
        # multiplicities are all one.
        assert budan_variations(square_free_part(p)) % 2 == roots % 2


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-40, max_value=160), min_size=1, max_size=5),
       st.integers(min_value=1, max_value=3))
def test_budan_bounds_sturm_with_known_roots(numerators, power):
    p = Poly([1, 0, 1])  # no real root
    for n in numerators:
        p = p * Poly([F(-n, 127), 1]) ** power
    roots = count_roots_in(p, 0, 1)
    assert roots == len({n for n in numerators if 0 < n < 127})
    assert budan_variations(p) >= roots
    assert budan_variations(square_free_part(p)) % 2 == roots % 2


def test_sturm_chain_of_repeated_roots_matches_square_free_part():
    p = Poly([F(-1, 3), 1]) ** 2 * Poly([F(-1, 2), 1]) * Poly([-2, 0, 1])
    direct = SturmSequence(square_free_part(p)).chain
    assert SturmSequence(p).chain == direct
    assert SturmSequence(-p).chain == SturmSequence(-square_free_part(p)).chain
    assert SturmSequence(Poly([F(-5, 2)])).chain == (ONE,)
