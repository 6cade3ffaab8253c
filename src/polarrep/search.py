"""Enumerate pattern assignments and select the capacity-maximizing one.

The number of candidate assignments is the number of multisets of size r
over the family indices: C(|family| + r - 1, r).  Capacities are evaluated
exactly on a grid of erasure probabilities: the design factor walk
``patterns._factor`` runs on integers once per (kernel, multiplicity,
sub-codeword) and grid point, and every candidate's capacity there is an
integer numerator over the point's one denominator.  Maxima, grid wins and
the ranking's order are read from these integers; ``Fraction``s are built
only for the report.  The winner is the assignment that maximizes capacity
at every grid point simultaneously when such an assignment exists, and
otherwise the one winning the most grid points.  A dominance certificate
against every other candidate can be requested on top, by Budan's 0-1 test
on each difference.  Its transform (1 + x)**D H(1/(1 + x)) is the
numerator's form at (1, 1 + x), so the same walk at x = 2**bits packs every
candidate's coefficients in signed slots, and a difference whose slots do
not hold both signs has no root in (0, 1).  Only otherwise are polynomials
built (``proofcheck.certify_dominance`` decides by a Sturm count), so a
search loads no polynomial module unless a certificate falls back.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, lcm, prod
from operator import itemgetter, mul
from typing import NamedTuple

from . import DEFAULT_GRID, _check_grid  # defined by the package, which the command line reads
from .patterns import Kernel, PatternAssignment, PatternFamily, _factor, _kernel_groups

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
    dominance_certified: bool = False

    def to_json_dict(self) -> dict:
        # Candidates with equal capacities share one tuple, and one string list.
        strings: dict[int, list[str]] = {}
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
                    "capacities": strings.get(id(caps)) or strings.setdefault(
                        id(caps), [str(c) for c in caps]),
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


def _factor_table(groups: list[tuple[tuple[Kernel, int], ...]], r: int) -> tuple:
    """The distinct (kernel, multiplicity) keys, the degrees of each key's r
    design factors (the walk at (0, 2**mult) ends over 2**degree), and each
    candidate's rows: its erasure at sub-codeword k is the product of column
    k over them."""
    position: dict[tuple[Kernel, int], int] = {}
    members = [[position.setdefault(key, len(position)) for key in g] for g in groups]
    keys = list(position)
    degrees = [
        [_factor(kern, 0, 1 << mult, k, mult == 1)[1].bit_length() - 1 for k in range(r)]
        for kern, mult in keys
    ]
    return keys, degrees, members


def _grid_capacities(
    keys: list[tuple[Kernel, int]], degrees: list[list[int]], members: list[list[int]],
    r: int, points: list[tuple[int, int]],
) -> tuple[list[list[int]], int]:
    """Every candidate's capacity numerator at every point (p, q), as integers.

    Returns one column per point, one integer per candidate, and the degree
    D they share.  Each factor's form at (p, q) is written at degree w, the
    largest in its row; a candidate's erasure at sub-codeword k is the
    product M_k of its rows' values, of degree d the sum of their w, and its
    capacity is r q**D - q**(D - d) sum M_k over r**2 q**D.
    """
    widths = [max(row) for row in degrees]
    sizes = [sum(widths[i] for i in ids) for ids in members]
    top = max(sizes)
    walks = [(kern, mult, mult == 1, [(k, w - deg) for k, deg in enumerate(row)])
             for (kern, mult), row, w in zip(keys, degrees, widths)]
    # A lone row comes with a row of ones, so every fetch returns a tuple of rows.
    unit = len(keys)
    fetch = [itemgetter(*ids, unit) if len(ids) == 1 else itemgetter(*ids) for ids in members]
    ones = [1] * r
    columns = []
    for p, q in points:
        qpow = [q**i for i in range(top + 1)]
        values = []
        for kern, mult, lone, shifts in walks:
            n, d = p**mult, q**mult
            values.append([_factor(kern, n, d, k, lone)[0] * qpow[s] for k, s in shifts])
        values.append(ones)
        columns.append([
            r * qpow[top] - qpow[top - d] * sum(map(prod, zip(*get(values))))
            for get, d in zip(fetch, sizes)
        ])
    return columns, top


def _slot_bits(r: int, top: int) -> int:
    """A slot width that holds every Budan coefficient of a capacity
    difference of degree D = ``top``.  A design factor f has l1 norm at most
    2**(2 deg f - 1), by induction over z + z**2 - z**3, 2z - z**2 and z**2
    from eps**mult; so has a product of total degree at most D with 2D in
    its place.  At (1, 1 + x) a degree-D form of norm a has norm at most
    a 2**D, so a numerator's coefficients are at most r 2**D (1 + 2**(2D - 1))
    and a difference's twice that."""
    return (r * (1 + (1 << 2 * top - 1)) << top + 1).bit_length() + 1


def _mixed_signs(value: int, tops: int, bits: int) -> bool:
    """Whether value = sum c_j 2**(bits j), every |c_j| < 2**(bits - 1),
    has a negative and a positive slot c_j, which a sign variation needs.
    Adding ``tops``, the top bit of every slot, biases each slot to
    c_j + 2**(bits - 1): its top bit is set exactly when c_j >= 0, and then
    c_j > 0 when a lower bit is set too."""
    biased = value + tops
    signs = biased & tops
    return signs != tops and bool(biased & (signs - (signs >> bits - 1)))


def _dominates(difference: int, tops: int, bits: int, best: PatternAssignment,
               other: PatternAssignment, family: PatternFamily) -> bool:
    """Whether the winner's capacity certifiably exceeds ``other``'s on (0, 1).

    ``difference`` packs the Budan coefficients of their capacity difference
    times (1 + x)**(D - n), n its degree, which adds no sign variation.  Zero
    is the same polynomial.  Slots of one sign prove there is no root in
    (0, 1), so the winner, best at every grid point, is above everywhere.
    Otherwise ``proofcheck.certify_dominance`` decides on the two capacity
    polynomials, built only here."""
    if not difference:
        return False
    if not _mixed_signs(difference, tops, bits):
        return True
    from .effective_channels import assignment_erasures
    from .proofcheck import certify_dominance

    pair = [assignment_erasures(a, family).capacity_poly for a in (best, other)]
    return certify_dominance(*pair) == "certified"


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
    keys, degrees, members = _factor_table([_kernel_groups(a, family) for a in candidates], r)
    points = [(x.numerator, x.denominator) for x in map(Fraction, grid)]
    columns, top = _grid_capacities(keys, degrees, members, r, points)
    numerators = list(zip(*columns))
    denominators = [r * r * q**top for _, q in points]

    per_point_max = [max(column) for column in columns]
    wins = [sum(c == m for c, m in zip(caps, per_point_max)) for caps in numerators]
    # A dominant candidate wins every point, so it is preferred when one exists.
    best_i = min(range(len(candidates)), key=lambda i: (-wins[i], candidates[i].indices))
    best = candidates[best_i]

    certified = False
    if certify and wins[best_i] == len(grid):
        # At (1, 1 + x) each numerator is its Budan transform (1 + x)**D C(1/(1 + x)):
        # with x = 2**bits, one more column packs every candidate's coefficients.
        bits = _slot_bits(r, top)
        tops = ((1 << bits * (top + 1)) - 1) // ((1 << bits) - 1) << bits - 1
        [packed], _ = _grid_capacities(keys, degrees, members, r, [(1, 1 + (1 << bits))])
        certified = all(
            _dominates(packed[best_i] - packed[i], tops, bits, best, a, family)
            for i, a in enumerate(candidates)
            if i != best_i
        )

    # The sum of a candidate's capacities times r**2 * Q**D, Q the lcm of
    # the grid denominators: an integer, so the ranking needs no Fraction.
    q_lcm = lcm(*denominators)
    weights = [q_lcm // d for d in denominators]
    order = sorted(
        range(len(candidates)),
        key=lambda i: (-sum(map(mul, numerators[i], weights)), candidates[i].indices),
    )
    # Candidates with equal numerators share one tuple of capacities.
    capacities = {row: tuple(map(Fraction, row, denominators)) for row in set(numerators)}
    ranking = tuple((candidates[i], capacities[numerators[i]]) for i in order)
    return SearchReport(family.kind, r, tuple(grid), len(candidates), ranking, best, certified)
