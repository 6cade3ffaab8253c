"""Exact univariate polynomials over the rationals, with Sturm root counting.

Every erasure probability and capacity in this package is a polynomial in the
channel erasure probability eps with rational coefficients.  Keeping the
arithmetic exact (``fractions.Fraction``, never floats) is what turns the
root-counting results into certificates rather than numerical estimates.

A polynomial is stored as a tuple of coefficients, lowest degree first, with
no trailing zeros.  The zero polynomial is the empty tuple.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from typing import Iterable, Sequence


def _strip(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class Poly:
    """Immutable univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int | str] = ()):
        self.coeffs: tuple[Fraction, ...] = _strip([Fraction(c) for c in coeffs])

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((1,))

    @staticmethod
    def const(c: Fraction | int | str) -> "Poly":
        return Poly((Fraction(c),))

    @staticmethod
    def monomial(degree: int, c: Fraction | int = 1) -> "Poly":
        return Poly([0] * degree + [Fraction(c)])

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Poly(out)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c: Fraction | int) -> "Poly":
        c = Fraction(c)
        return Poly([c * x for x in self.coeffs])

    def compose(self, inner: "Poly") -> "Poly":
        """Return self(inner(x)), evaluated by Horner over polynomials."""
        result = Poly.zero()
        for c in reversed(self.coeffs):
            result = result * inner + Poly.const(c)
        return result

    def evaluate(self, x: Fraction | int) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact polynomial division: self = q*other + r with deg r < deg other."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        d = other.degree
        if self.degree < d:
            return Poly.zero(), self
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        quot = [Fraction(0)] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i] / lead
            if c:
                quot[i - d] = c
                for j, oc in enumerate(other.coeffs):
                    rem[i - d + j] -= c * oc
        return Poly(quot), Poly(rem[:d])

    # -- formatting / serialization -------------------------------------

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*eps" if c != 1 else "eps")
            else:
                terms.append(f"{c}*eps^{i}" if c != 1 else f"eps^{i}")
        return "Poly(" + " + ".join(terms) + ")"

    def to_strings(self) -> list[str]:
        """Coefficients as 'num/den' strings, lowest degree first."""
        return [f"{c.numerator}/{c.denominator}" for c in self.coeffs]

    @staticmethod
    def from_strings(items: Sequence[str]) -> "Poly":
        return Poly([Fraction(s) for s in items])


#: The indeterminate: the raw channel erasure probability.
EPS = Poly((0, 1))
ONE = Poly.one()
ZERO = Poly.zero()


# -- Sturm machinery ------------------------------------------------------

def _primitive_int(p: Poly) -> Poly:
    """Scale p by a positive rational so coefficients are integers with gcd 1.

    Positive scaling preserves signs everywhere, which is all the Sturm
    sign-change counts depend on; stripping content keeps coefficient growth
    polynomial instead of exponential along the remainder chain.
    """
    if p.is_zero():
        return p
    den_lcm = 1
    for c in p.coeffs:
        den_lcm = den_lcm * c.denominator // _int_gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in p.coeffs]
    g = 0
    for v in ints:
        g = _int_gcd(g, abs(v))
    return Poly([v // g for v in ints])


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor, via Euclid with content stripping."""
    a, b = _primitive_int(p), _primitive_int(q)
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, _primitive_int(r)
    if a.is_zero():
        return a
    return a.scale(1 / a.leading())


def square_free_part(p: Poly) -> Poly:
    """p divided by gcd(p, p'): same roots, all simple."""
    if p.is_zero():
        raise ValueError("zero polynomial has no square-free part")
    if p.degree == 0:
        return Poly.one()
    g = poly_gcd(p, p.derivative())
    q, r = p.divmod(g)
    assert r.is_zero()
    return q


class SturmSequence:
    """Sign-change chain for a polynomial, built from its square-free part.

    chain[0] is the square-free part, chain[1] its derivative, and each later
    entry is the negated remainder of the two preceding ones, rescaled to a
    primitive integer polynomial (a positive multiple, so every sign count is
    unchanged).  The chain ends at a nonzero constant.
    """

    __slots__ = ("chain",)

    def __init__(self, p: Poly):
        if p.is_zero():
            raise ValueError("Sturm sequence of the zero polynomial is undefined")
        f = _primitive_int(square_free_part(p))
        chain = [f]
        if f.degree >= 1:
            chain.append(_primitive_int(f.derivative()))
            while chain[-1].degree >= 1:
                _, r = chain[-2].divmod(chain[-1])
                if r.is_zero():
                    break
                chain.append(_primitive_int(-r))
        self.chain = tuple(chain)

    def sign_changes(self, x: Fraction | int) -> int:
        signs = []
        for q in self.chain:
            v = q.evaluate(x)
            if v:
                signs.append(v > 0)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def roots_in(self, a: Fraction | int, b: Fraction | int) -> int:
        """Number of distinct real roots in the open interval (a, b).

        The sign-change difference counts roots in the half-open interval
        (a, b]; a root exactly at b is then removed so the interval is
        genuinely open, matching the use here (the interval ends are
        typically known roots of the polynomial under test).
        """
        a, b = Fraction(a), Fraction(b)
        if not a < b:
            raise ValueError(f"need a < b, got a={a}, b={b}")
        count = self.sign_changes(a) - self.sign_changes(b)
        if self.chain[0].evaluate(b) == 0:
            count -= 1
        return count


def count_roots_in(p: Poly, a: Fraction | int, b: Fraction | int) -> int:
    """Number of distinct real roots of p in the open interval (a, b)."""
    if p.is_zero():
        raise ValueError("root counting rejects the zero polynomial")
    return SturmSequence(p).roots_in(a, b)
