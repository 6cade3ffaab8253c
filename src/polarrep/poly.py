"""Exact univariate polynomials over the rationals, with Sturm root counting
and Budan's 0-1 test.

Every erasure probability and capacity in this package is a polynomial in the
channel erasure probability eps with rational coefficients.  Keeping the
arithmetic exact is what turns the root-counting results into certificates
rather than numerical estimates.

A polynomial is stored as integer numerators, lowest degree first, over one
positive denominator, in canonical form: no trailing zero numerator, and no
common factor shared by every numerator and the denominator.  The zero
polynomial has no numerators and denominator 1.  Every erasure polynomial is
an integer polynomial (denominator 1) and a capacity is one over r**2, so all
arithmetic runs on Python ints.  ``fractions.Fraction`` appears only at the
boundary: ``coeffs`` and ``leading`` are read as fractions, and ``evaluate``
builds one fraction after an integer Horner pass.  Floats never enter.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Iterable, Sequence


def _conv(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of the product of two integer polynomials."""
    if not a or not b:
        return []
    if len(a) < len(b):
        a, b = b, a
    n = len(a)
    out = [0] * (n + len(b) - 1)
    for i, cb in enumerate(b):
        if cb:
            out[i:i + n] = [o + cb * ca for o, ca in zip(out[i:i + n], a)]
    return out


def _poly(num: list[int], den: int = 1) -> "Poly":
    """The polynomial num/den in canonical form (``den`` must be positive)."""
    while num and not num[-1]:
        num.pop()
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    p = object.__new__(Poly)
    p.num = tuple(num)
    p.den = den
    return p


class Poly:
    """Immutable univariate polynomial with exact rational coefficients.

    ``num`` holds the integer numerators, lowest degree first, and ``den``
    the one positive denominator they share.
    """

    __slots__ = ("num", "den")

    num: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable[Fraction | int | str] = ()):
        values = [c if type(c) is int else Fraction(c) for c in coeffs]
        den = lcm(*(v.denominator for v in values))
        num = [v.numerator * (den // v.denominator) for v in values]
        while num and not num[-1]:
            num.pop()
        # den is the lcm of the reduced denominators, so it shares no factor
        # with every numerator: the form is already canonical.
        self.num = tuple(num)
        self.den = den

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _poly([])

    @staticmethod
    def one() -> "Poly":
        return _poly([1])

    @staticmethod
    def const(c: Fraction | int | str) -> "Poly":
        return Poly((c,))

    @staticmethod
    def monomial(degree: int, c: Fraction | int = 1) -> "Poly":
        return Poly([0] * degree + [c])

    # -- basic queries -------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Exact coefficients, lowest degree first, with no trailing zeros."""
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    def leading(self) -> Fraction:
        if not self.num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # -- arithmetic ----------------------------------------------------

    def _add(self, other: "Poly", sign: int) -> "Poly":
        a, b = self.num, other.num
        den = self.den
        if den != other.den:
            g = gcd(den, other.den)
            fa, fb = other.den // g, den // g
            a = [c * fa for c in a]
            b = [c * fb for c in b]
            den *= fa
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] += sign * c
        return _poly(out, den)

    def __add__(self, other: "Poly") -> "Poly":
        return self._add(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._add(other, -1)

    def __neg__(self) -> "Poly":
        return _poly([-c for c in self.num], self.den)

    def __mul__(self, other: "Poly") -> "Poly":
        return _poly(_conv(self.num, other.num), self.den * other.den)

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
        return _poly([c.numerator * x for x in self.num], self.den * c.denominator)

    def compose(self, inner: "Poly") -> "Poly":
        """Return self(inner(x)).

        With inner = M/e this is sum_i n_i M**i e**(n - i) over den * e**n,
        evaluated by Horner over integer polynomials.
        """
        if not self.num:
            return Poly.zero()
        m, e = inner.num, inner.den
        acc = [self.num[-1]]
        epow = 1
        for c in reversed(self.num[:-1]):
            epow *= e
            acc = _conv(acc, m) or [0]
            acc[0] += c * epow
        return _poly(acc, self.den * epow)

    def horner(self, p: int, q: int) -> int:
        """The integer sum of n_i p**i q**(n - i), n the degree, by one
        homogeneous Horner pass: the value at p/q times den * q**n."""
        if not self.num:
            return 0
        acc = self.num[-1]
        qpow = 1
        for c in reversed(self.num[:-1]):
            qpow *= q
            acc = acc * p + c * qpow
        return acc

    def evaluate(self, x: Fraction | int) -> Fraction:
        """Exact value at x = p/q: ``horner(p, q)`` over den * q**n."""
        x = Fraction(x)
        if not self.num:
            return Fraction(0)
        q = x.denominator
        return Fraction(self.horner(x.numerator, q), self.den * q ** self.degree)

    def derivative(self) -> "Poly":
        return _poly([i * c for i, c in enumerate(self.num)][1:], self.den)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact polynomial division: self = q*other + r with deg r < deg other."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Poly.zero(), self
        quot, rem, f = _pseudo_divmod(self.num, other.num)
        # f * A = Q * B + R, so A/da = (Q db / (f da)) (B/db) + R / (f da).
        den = f * self.den
        return _poly([c * other.den for c in quot], den), _poly(rem, den)

    # -- formatting / serialization -------------------------------------

    def __repr__(self) -> str:
        if not self.num:
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


#: The indeterminate: the raw channel erasure probability.
EPS = Poly((0, 1))
ONE = Poly.one()


# -- integer remainder sequences ----------------------------------------------

def _pseudo_divmod(
    a: Sequence[int], b: Sequence[int]
) -> tuple[list[int], list[int], int]:
    """Integer pseudo-division: (q, r, f) with f*a = q*b + r, deg r < deg b.

    f is a power of |lead(b)|, a positive multiple, so r has the signs of the
    exact rational remainder everywhere.  No trailing zeros are stripped.
    """
    d = len(b) - 1
    lead = b[-1]
    m, s = abs(lead), (1 if lead > 0 else -1)
    rem = list(a)
    f = 1
    steps = []
    while len(rem) > d:
        top = rem.pop()
        if not top:
            continue
        # Cancel the top term: rem <- m*rem - c * x**off * b.
        c, off = s * top, len(rem) - d
        low, high = rem[:off], rem[off:]
        if m != 1:
            low = [m * x for x in low]
            high = [m * x for x in high]
            f *= m
        rem = low + [x - c * y for x, y in zip(high, b)]
        steps.append((off, c, f))
    quot = [0] * max(len(a) - d, 0)
    for off, c, at in steps:
        quot[off] = c * (f // at)
    return quot, rem, f


def _primitive(num: Sequence[int]) -> tuple[int, ...]:
    """num divided by the gcd of its entries, trailing zeros stripped.

    Positive scaling preserves signs everywhere, which is all the Sturm
    sign-change counts depend on; stripping content keeps coefficient growth
    polynomial instead of exponential along the remainder chain.
    """
    num = list(num)
    while num and not num[-1]:
        num.pop()
    g = gcd(*num)
    return tuple(c // g for c in num) if g > 1 else tuple(num)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor, via Euclid on primitive integer
    pseudo-remainders."""
    a, b = _primitive(p.num), _primitive(q.num)
    while b:
        _, r, _ = _pseudo_divmod(a, b)
        a, b = b, _primitive(r)
    if not a:
        return Poly.zero()
    lead = a[-1]
    return _poly([c if lead > 0 else -c for c in a], abs(lead))


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


def _variations(values: Iterable[int]) -> int:
    """Sign variations of a sequence, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _sturm_chain(f: tuple[int, ...]) -> list[tuple[int, ...]]:
    """f, f' and the negated pseudo-remainders, each made primitive, until a
    constant or a zero remainder."""
    chain = [f]
    if len(f) > 1:
        chain.append(_primitive([i * c for i, c in enumerate(f)][1:]))
        while len(chain[-1]) > 1:
            _, r, _ = _pseudo_divmod(chain[-2], chain[-1])
            r = _primitive([-c for c in r])
            if not r:
                break
            chain.append(r)
    return chain


class SturmSequence:
    """Sign-change chain for a polynomial, built from its square-free part.

    chain[0] is the square-free part, chain[1] its derivative, and each later
    entry is the negated remainder of the two preceding ones, rescaled to a
    primitive integer polynomial (a positive multiple, so every sign count is
    unchanged).  The chain ends at a nonzero constant.

    The chain of p itself ends at gcd(p, p'); only when that is not a
    constant, so p has a repeated root, is the chain of
    ``square_free_part(p)`` built instead.
    """

    __slots__ = ("chain",)

    def __init__(self, p: Poly):
        if p.is_zero():
            raise ValueError("Sturm sequence of the zero polynomial is undefined")
        chain = _sturm_chain(_primitive(p.num) if p.degree else (1,))
        if len(chain[-1]) > 1:
            chain = _sturm_chain(_primitive(square_free_part(p).num))
        self.chain = tuple(_poly(list(c)) for c in chain)

    def sign_changes(self, x: Fraction | int) -> int:
        """Sign variations of the chain at x = p/q, read from each entry's
        ``horner(p, q)``: its value times den * q**n, a positive multiple."""
        x = Fraction(x)
        return _variations(f.horner(x.numerator, x.denominator) for f in self.chain)

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


def budan_variations(p: Poly) -> int:
    """Budan's 0-1 test: sign variations of (1 + x)**n p(1/(1 + x)), n = deg p.

    x -> 1/(1 + x) maps (0, oo) onto (0, 1), so by Descartes' rule of signs
    the count bounds the roots of p in the open interval (0, 1), counted with
    multiplicity, and has the same parity.  Zero variations prove that p has
    no root there.  The transform is one integer Taylor shift of the reversed
    numerators: each pass replaces a suffix by its suffix sums.
    """
    if p.is_zero():
        raise ValueError("Budan's test rejects the zero polynomial")
    a = list(reversed(p.num))
    for i in range(len(a) - 1):
        a[i:] = list(accumulate(reversed(a[i:])))[::-1]
    return _variations(a)
