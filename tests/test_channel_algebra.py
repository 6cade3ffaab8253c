"""Erasure-channel transforms and the standard synthetic-channel reference."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarrep.channel_algebra import (
    bit_combine,
    check_combine,
    repeat_channel,
    standard_synthetic_channel,
)
from polarrep.poly import EPS, Poly

GRID = [F(i, 100) for i in range(101)]


def test_check_combine_pins():
    assert check_combine(EPS, EPS) == EPS.scale(2) - EPS**2
    assert check_combine(EPS, EPS**2) == Poly([0, 1, 1, -1])
    assert check_combine(Poly.zero(), EPS**3) == EPS**3


def test_bit_combine_pins():
    assert bit_combine(EPS, EPS) == EPS**2
    assert bit_combine(EPS**2, EPS) == EPS**3
    assert bit_combine(Poly.one(), EPS**2) == EPS**2


def test_repeat_channel():
    assert repeat_channel(EPS, 2) == EPS**2
    assert repeat_channel(EPS, 1) == EPS
    z = Poly([0, 1, 1, -1])
    assert repeat_channel(z, 2) == bit_combine(z, z)
    with pytest.raises(ValueError):
        repeat_channel(EPS, 0)


def test_standard_synthetic_pins():
    assert standard_synthetic_channel(1, 0) == EPS.scale(2) - EPS**2
    assert standard_synthetic_channel(1, 1) == EPS**2
    assert standard_synthetic_channel(2, 2) == (EPS**2).scale(2) - EPS**4
    with pytest.raises(ValueError):
        standard_synthetic_channel(2, 4)


small_z = st.integers(min_value=1, max_value=5).map(lambda d: EPS**d)


@settings(max_examples=20, deadline=None)
@given(small_z)
def test_conservation(z):
    # check + bit capacities conserve total capacity, as polynomials.
    assert check_combine(z, z) + bit_combine(z, z) == z.scale(2)


def test_ordering_on_grid():
    z = EPS
    for eps in GRID[1:-1]:
        low = bit_combine(z, z).evaluate(eps)
        mid = z.evaluate(eps)
        high = check_combine(z, z).evaluate(eps)
        assert low <= mid <= high


@pytest.mark.parametrize("m", [1, 2, 3])
def test_polarization_preserves_capacity(m):
    total = Poly.zero()
    for i in range(1 << m):
        total = total + (Poly.one() - standard_synthetic_channel(m, i))
    assert total == (Poly.one() - EPS).scale(1 << m)


@pytest.mark.parametrize(
    "expr",
    [
        bit_combine(check_combine(EPS, EPS**2), EPS),
        standard_synthetic_channel(3, 5),
        check_combine(EPS, EPS**2),
    ],
)
def test_range_preservation(expr):
    assert expr.evaluate(0) == 0
    assert expr.evaluate(1) == 1
    for eps in GRID:
        assert 0 <= expr.evaluate(eps) <= 1
