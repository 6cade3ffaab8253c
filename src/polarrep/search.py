"""Enumerate pattern assignments and select the capacity-maximizing one.

The number of candidate assignments is the number of multisets of size r
over the family indices: C(|family| + r - 1, r).  Capacities are evaluated
exactly on a grid of erasure probabilities: the design factor walk
``patterns._factor`` runs on integers once per (kernel, multiplicity) and
grid point, giving every sub-codeword's factor over one denominator, and
every candidate's capacity there is an integer numerator over the point's
one denominator.  Maxima, grid wins and the ranking's order are read from
these integers, and the report keeps them: a document reduces each cell by
one gcd, and ``Fraction``s are built only when a caller asks for them.  The
winner is the assignment that maximizes capacity at every grid point
simultaneously when such an assignment exists, and otherwise the one
winning the most grid points.  A dominance certificate against every other
candidate can be requested on top, by Budan's 0-1 test on each difference.
Its transform (1 + x)**D H(1/(1 + x)) is the numerator's form at (1, 1 + x),
so the same walk at x = 2**bits packs every candidate's coefficients in
signed slots, and a difference whose slots do not hold both signs has no
root in (0, 1).  Only otherwise are polynomials built
(``proofcheck.certify_dominance`` decides by a Sturm count), so a search
loads no polynomial module unless a certificate falls back.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, groupby
from math import comb, gcd, lcm, prod
from operator import eq, itemgetter, mul
from typing import Callable, NamedTuple

from . import DEFAULT_GRID, _check_grid, _exact  # defined by the package, read by the command line
from .patterns import Kernel, PatternAssignment, PatternFamily, _factor

#: Largest candidate count a search enumerates: reg8 (6,435) fits, reg16
#: (300,540,195) would not fit in memory.
MAX_CANDIDATES = 100_000


class SearchReport(NamedTuple):
    """A search's outcome.  Each ranking entry pairs an assignment with its
    capacity numerators, one per grid point, over that point's one
    denominator r**2 q**D in ``denominators``, so capacities at one point
    compare as integers; ``exact_ranking()`` gives them as ``Fraction``s."""

    family_kind: str
    r: int
    grid: tuple[Fraction, ...]
    denominators: tuple[int, ...]
    candidates_evaluated: int
    ranking: tuple[tuple[PatternAssignment, tuple[int, ...]], ...]
    best: PatternAssignment
    dominance_certified: bool = False

    def _cells(self, cell: Callable[[int, int], object]) -> list:
        """``cell(numerator, denominator)`` of every capacity, one list per
        ranking entry; candidates with equal capacities share one row, and
        one list."""
        dens = self.denominators
        done: dict[int, list] = {}
        return [
            done.get(id(row)) or done.setdefault(id(row), list(map(cell, row, dens)))
            for _, row in self.ranking
        ]

    def exact_ranking(self) -> tuple[tuple[PatternAssignment, tuple[Fraction, ...]], ...]:
        """The ranking with every capacity an exact ``Fraction``, built on
        each call."""
        return tuple((a, tuple(map(Fraction, row, self.denominators))) for a, row in self.ranking)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family_kind,
            "r": self.r,
            "grid": [_exact(g) for g in self.grid],
            "candidates_evaluated": self.candidates_evaluated,
            "best": list(self.best.indices),
            "dominance_certified": self.dominance_certified,
            "ranking": [
                {"assignment": list(a.indices), "capacities": caps}
                for (a, _), caps in zip(self.ranking, self._cells(_reduced))
            ],
        }


def _reduced(n: int, d: int) -> str:
    """Fraction(n, d) as ``polarrep._exact`` prints it, reduced by one gcd."""
    g = gcd(n, d)
    return _exact(n // g, d // g)


def _index_tuples(family: PatternFamily, r: int) -> list[tuple[int, ...]]:
    """All multisets of size r over the family indices, as sorted index
    tuples in lexicographic order.

    Refuses, before listing any, more than MAX_CANDIDATES multisets.
    """
    if r < 1:
        raise ValueError("need at least one block")
    count = comb(len(family) + r - 1, r)
    if count > MAX_CANDIDATES:
        raise ValueError(f"{count} candidate assignments exceed the limit of {MAX_CANDIDATES}")
    return list(combinations_with_replacement(range(len(family)), r))


def enumerate_assignments(family: PatternFamily, r: int) -> list[PatternAssignment]:
    """All multisets of size r over the family indices, lexicographic.

    Refuses, before listing any, more than MAX_CANDIDATES multisets.
    """
    return [PatternAssignment(t) for t in _index_tuples(family, r)]


def _index_groups(
    family: PatternFamily, tuples: list[tuple[int, ...]]
) -> list[tuple[tuple[int, int], ...]]:
    """Each candidate's kernel groups as (member index, blocks) pairs, read
    off its sorted index tuple.  An index names the first member equal to
    its kernel, so equal members make one group, as in
    ``patterns._kernel_groups``."""
    first: dict[Kernel, int] = {}
    canonical = [first.setdefault(kern, i) for i, kern in enumerate(family.members)]
    if len(first) < len(family):
        tuples = [sorted(map(canonical.__getitem__, t)) for t in tuples]
    return [tuple((i, len(list(run))) for i, run in groupby(t)) for t in tuples]


def _factor_table(groups: list[tuple], kernels: tuple[Kernel, ...] | None = None) -> tuple:
    """The distinct (kernel, multiplicity) keys, each key's degree (its walk
    at (0, 2**mult) ends over 2**degree), and each candidate's rows: its
    erasure at sub-codeword k is the product of entry k over them.  A group
    names its kernel, or, when ``kernels`` are given, its index there, which
    hashes faster than a kernel tree."""
    position: dict[tuple, int] = {}
    members = [[position.setdefault(key, len(position)) for key in g] for g in groups]
    keys = list(position) if kernels is None else [(kernels[i], mult) for i, mult in position]
    degrees = [_factor(kern, 0, 1 << mult, mult == 1)[1].bit_length() - 1 for kern, mult in keys]
    return keys, degrees, members


def _grid_capacities(
    keys: list[tuple[Kernel, int]], degrees: list[int], members: list[list[int]],
    r: int, points: list[tuple[int, int]],
) -> tuple[list[list[int]], int]:
    """Every candidate's capacity numerator at every point (p, q), as integers.

    Returns one column per point, one integer per candidate, and the degree
    D they share.  Each key's walk gives its r factors' forms at (p, q) over
    q**w, w its degree; a candidate's erasure at sub-codeword k is the
    product M_k of its rows' entries, over q**d with d the sum of their w,
    and its capacity is r q**D - q**(D - d) sum M_k over r**2 q**D.
    """
    sizes = [sum(degrees[i] for i in ids) for ids in members]
    top = max(sizes)
    # A lone row comes with a row of ones, so every fetch returns a tuple of rows.
    unit = len(keys)
    fetch = [itemgetter(*ids, unit) if len(ids) == 1 else itemgetter(*ids) for ids in members]
    ones = [1] * r
    columns = []
    for p, q in points:
        qpow = [q**i for i in range(top + 1)]
        values = [_factor(kern, p**mult, q**mult, mult == 1)[0] for kern, mult in keys]
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
    from eps**mult.  The walk writes it at its key's degree w >= deg f, and
    the factor q**(w - deg f) leaves the l1 norm unchanged, so the bound
    holds with w; so does it for a product of total degree at most D, with
    2D in its place.  At (1, 1 + x) a degree-D form of norm a has norm at most
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

    Each grid point is read once as an exact ``Fraction``, a float by its
    decimal text, as ``codec.erasure_probability`` reads it.  Ties on grid
    wins break toward the lexicographically smallest canonical multiset, so
    reports are reproducible.  ``certify`` asks for the dominance
    certificate against every other candidate.  It is attempted only when
    the winner maximizes capacity at every grid point: otherwise some
    difference is negative at a grid point, so it is negative at the sample
    or has a root in (0, 1), and the certificate is refuted anyway.
    """
    r = family.size
    grid = tuple(Fraction(str(g)) if isinstance(g, float) else Fraction(g) for g in grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    _check_grid(grid)

    tuples = _index_tuples(family, r)
    keys, degrees, members = _factor_table(_index_groups(family, tuples), family.members)
    points = [(g.numerator, g.denominator) for g in grid]
    columns, top = _grid_capacities(keys, degrees, members, r, points)
    denominators = tuple(r * r * q**top for _, q in points)

    # Candidates with equal numerators share one row, whose wins and rank
    # key are read once.  The rank key is the sum of the row's capacities
    # times r**2 * Q**D, Q the lcm of the grid denominators: an integer.
    rows: dict[tuple[int, ...], tuple[int, ...]] = {}
    numerators = [rows.setdefault(row, row) for row in zip(*columns)]
    per_point_max = [max(column) for column in columns]
    q_lcm = lcm(*denominators)
    weights = [q_lcm // d for d in denominators]
    wins = {row: sum(map(eq, row, per_point_max)) for row in rows}
    total = {row: sum(map(mul, row, weights)) for row in rows}
    # Candidates are listed in lexicographic order, and the first maximum
    # and a stable sort keep it among ties.  A dominant candidate wins every
    # point, so it is preferred when one exists.
    best_i = max(range(len(tuples)), key=lambda i: wins[numerators[i]])
    order = sorted(range(len(tuples)), key=lambda i: -total[numerators[i]])
    candidates = [PatternAssignment(t) for t in tuples]
    best = candidates[best_i]

    certified = False
    if certify and wins[numerators[best_i]] == len(grid):
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

    ranking = tuple((candidates[i], numerators[i]) for i in order)
    return SearchReport(family.kind, r, grid, denominators, len(tuples), ranking, best, certified)
