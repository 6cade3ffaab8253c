"""Enumerate pattern assignments and select the capacity-maximizing one.

The number of candidate assignments is the number of multisets of size r
over the family indices: C(|family| + r - 1, r).  Capacities are evaluated
exactly on a grid of erasure probabilities, from one table of design factors
(``effective_channels._design_factor``): each factor is evaluated once per
grid point by an integer Horner pass, and every candidate's capacity there is
an integer numerator over the point's one denominator.  Maxima, grid wins and
the ranking's order are read from these integers; ``Fraction``s are built
only for the report.  The winner is the assignment that maximizes capacity
at every grid point simultaneously when such an assignment exists, and
otherwise the one winning the most grid points.  A dominance certificate
against every other candidate can be requested on top of the grid
comparison, by Budan's 0-1 test on each difference.  Its transform
(1 + x)**D H(1/(1 + x)) is the numerator's form at (1, 1 + x), so the same
table, evaluated once more at x = 2**bits, packs every candidate's
coefficients in signed slots; a difference with no sign variation has no
root in (0, 1).  Only where variations remain are the two capacity
polynomials built and ``proofcheck.certify_dominance`` run, whose Sturm count
decides.  Otherwise the winner's is the one capacity polynomial built.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, lcm, prod
from typing import NamedTuple

from . import DEFAULT_GRID, _check_grid  # defined by the package, which the command line reads
from .effective_channels import (
    EffectiveChannelSet,
    _design_factor,
    _kernel_groups,
    assignment_erasures,
)
from .patterns import Kernel, PatternAssignment, PatternFamily
from .poly import Poly, _variations

#: Largest candidate count a search enumerates: reg8 (6,435) fits, reg16
#: (300,540,195) would not fit in memory.
MAX_CANDIDATES = 100_000


class SearchReport(NamedTuple):
    family_kind: str
    r: int
    grid: tuple[Fraction, ...]
    candidates_evaluated: int
    ranking: tuple[tuple[PatternAssignment, tuple[Fraction, ...]], ...]
    best: PatternAssignment
    best_channels: EffectiveChannelSet
    dominance_certified: bool = False

    def to_json_dict(self) -> dict:
        return {
            "family": self.family_kind,
            "r": self.r,
            "grid": [str(g) for g in self.grid],
            "candidates_evaluated": self.candidates_evaluated,
            "best": list(self.best.indices),
            "dominance_certified": self.dominance_certified,
            "ranking": [
                {
                    "assignment": list(a.indices),
                    "capacities": [str(c) for c in caps],
                }
                for a, caps in self.ranking
            ],
        }


def enumerate_assignments(family: PatternFamily, r: int) -> list[PatternAssignment]:
    """All multisets of size r over the family indices, lexicographic.

    Refuses, before listing any, more than MAX_CANDIDATES multisets.
    """
    if r < 1:
        raise ValueError("need at least one block")
    count = comb(len(family) + r - 1, r)
    if count > MAX_CANDIDATES:
        raise ValueError(f"{count} candidate assignments exceed the limit of {MAX_CANDIDATES}")
    return [
        PatternAssignment(indices)
        for indices in combinations_with_replacement(range(len(family)), r)
    ]


def _factor_table(
    groups: list[tuple[tuple[Kernel, int], ...]], r: int
) -> tuple[list[list[Poly]], list[list[int]]]:
    """The design factors every candidate reads, and each candidate's rows.

    Row i holds the r factors of one distinct (kernel, multiplicity) key; a
    candidate's erasure at sub-codeword k is the product of column k over
    its rows.
    """
    position: dict[tuple[Kernel, int], int] = {}
    members = [[position.setdefault(key, len(position)) for key in g] for g in groups]
    table = [[_design_factor(*key, k) for k in range(r)] for key in position]
    return table, members


def _grid_capacities(
    table: list[list[Poly]], members: list[list[int]], r: int, points: list[tuple[int, int]]
) -> tuple[list[list[int]], int]:
    """Every candidate's capacity numerator at every point (p, q), as integers.

    Returns one column per point, one integer per candidate, and the degree
    D they share.  Each design factor is an integer polynomial, evaluated
    once per point by a homogeneous Horner pass and written as a form of
    degree w, the largest degree among its row's factors.  A candidate's
    erasure at sub-codeword k is then the product of its rows' values, M_k,
    a form of degree d, the sum of their w, and its capacity numerator is
    the degree-D form r q**D - q**(D - d) sum M_k.  At p/q in (0, 1) the
    capacity is that integer over r**2 q**D.
    """
    widths = [max(f.degree for f in factors) for factors in table]
    degrees = [sum(widths[i] for i in ids) for ids in members]
    top = max(degrees)
    columns = []
    for p, q in points:
        values = [
            [f.horner(p, q) * q ** (w - f.degree) for f in factors]
            for factors, w in zip(table, widths)
        ]
        qpow = [q**i for i in range(top + 1)]
        columns.append([
            r * qpow[top] - qpow[top - d] * sum(map(prod, zip(*[values[i] for i in ids])))
            for ids, d in zip(members, degrees)
        ])
    return columns, top


def _slot_bits(table: list[list[Poly]], members: list[list[int]], r: int, top: int) -> int:
    """A slot width, in whole bytes, that holds every Budan coefficient of a
    capacity difference.

    At (1, 1 + x) a factor of l1 norm n contributes at most n 2**w to the
    l1 norm of its form, so each coefficient of a numerator is at most
    2**D (r + sum_k prod ||f||_1), and a difference's at most twice that.
    """
    norms = [[sum(map(abs, f.num)) for f in factors] for factors in table]
    bound = max(sum(map(prod, zip(*[norms[i] for i in ids]))) for ids in members)
    bits = (2 * (r + bound) << top).bit_length() + 1
    return -(-bits // 8) * 8


def _slots(value: int, bits: int, count: int) -> list[int]:
    """The ``count`` signed ``bits``-wide digits c_j of value, highest first,
    where value = sum c_j 2**(bits j) and every |c_j| < 2**(bits - 1).

    Each digit is read biased by 2**(bits - 1), from whole bytes, so
    ``bits`` must be a multiple of 8.
    """
    half = 1 << bits - 1
    width = bits // 8
    raw = (value + half * (((1 << bits * count) - 1) // ((1 << bits) - 1))).to_bytes(
        width * count, "big"
    )
    return [int.from_bytes(raw[i:i + width], "big") - half for i in range(0, len(raw), width)]


def _dominates(
    difference: int, bits: int, count: int, best_channels: EffectiveChannelSet,
    other: PatternAssignment, family: PatternFamily,
) -> bool:
    """Whether the winner's capacity certifiably exceeds ``other``'s on (0, 1).

    ``difference`` packs the Budan coefficients of their capacity difference
    times (1 + x)**(D - n), n its degree; those extra factors never add sign
    variations.  Zero is the same polynomial.  Zero variations prove there
    is no root in (0, 1), and the winner, best at every grid point, is then
    above everywhere.  Otherwise ``proofcheck.certify_dominance`` decides.
    """
    if not difference:
        return False
    if not _variations(_slots(difference, bits, count)):
        return True
    from .proofcheck import certify_dominance

    return certify_dominance(
        best_channels.capacity_poly, assignment_erasures(other, family).capacity_poly
    ) == "certified"


def best_assignment(
    family: PatternFamily,
    grid: tuple[Fraction, ...] = DEFAULT_GRID,
    certify: bool = True,
) -> SearchReport:
    """Exhaustive capacity search over all assignments of r = ``family.size`` blocks.

    Ties on grid wins break toward the lexicographically smallest canonical
    multiset, so reports are reproducible.  ``certify`` asks for the
    dominance certificate against every other candidate.  It is attempted
    only when the winner maximizes capacity at every grid point: otherwise
    some difference is negative at a grid point, so it is negative at the
    sample or has a root in (0, 1), and the certificate is refuted anyway.
    """
    r = family.size
    if not grid:
        raise ValueError("grid must be nonempty")
    _check_grid(grid)

    candidates = enumerate_assignments(family, r)
    assert len(candidates) == comb(len(family) + r - 1, r)
    table, members = _factor_table([_kernel_groups(a, family) for a in candidates], r)
    points = [(x.numerator, x.denominator) for x in map(Fraction, grid)]
    columns, top = _grid_capacities(table, members, r, points)
    numerators = list(zip(*columns))
    denominators = [r * r * q**top for _, q in points]

    per_point_max = [max(column) for column in columns]
    wins = [sum(c == m for c, m in zip(caps, per_point_max)) for caps in numerators]
    # A dominant candidate wins every point, so it is preferred when one exists.
    best_i = min(range(len(candidates)), key=lambda i: (-wins[i], candidates[i].indices))
    best = candidates[best_i]
    best_channels = assignment_erasures(best, family)

    certified = False
    if certify and wins[best_i] == len(grid):
        # At (1, 1 + x) each numerator is its Budan transform (1 + x)**D C(1/(1 + x)):
        # with x = 2**bits, one more column packs every candidate's coefficients.
        bits = _slot_bits(table, members, r, top)
        [packed], _ = _grid_capacities(table, members, r, [(1, 1 + (1 << bits))])
        certified = all(
            _dominates(packed[best_i] - packed[i], bits, top + 1, best_channels, a, family)
            for i, a in enumerate(candidates)
            if i != best_i
        )

    # The sum of a candidate's capacities times r**2 * Q**D, Q the lcm of
    # the grid denominators: an integer, so the ranking needs no Fraction.
    q_lcm = lcm(*denominators)
    weights = [q_lcm // d for d in denominators]
    order = sorted(
        range(len(candidates)),
        key=lambda i: (-sum(c * w for c, w in zip(numerators[i], weights)), candidates[i].indices),
    )
    ranking = tuple(
        (candidates[i], tuple(Fraction(c, d) for c, d in zip(numerators[i], denominators)))
        for i in order
    )
    return SearchReport(family.kind, r, tuple(grid), len(candidates), ranking, best,
                        best_channels, certified)
