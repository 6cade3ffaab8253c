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
comparison: each difference is settled by Budan's 0-1 test, with a Sturm
root count only where sign variations remain
(``proofcheck.certify_dominance``).  Capacity polynomials are built only for
the winner and for the candidates such a certificate checks.
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
from .proofcheck import certify_dominance

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

    def to_csv_rows(self) -> list[list[str]]:
        header = ["assignment"] + [f"eps={g}" for g in self.grid]
        rows = [header]
        for a, caps in self.ranking:
            rows.append([a.label()] + [f"{float(c):.12g}" for c in caps])
        return rows


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


def _grid_capacities(
    groups: list[tuple[tuple[Kernel, int], ...]], r: int, grid: tuple[Fraction, ...]
) -> tuple[list[tuple[int, ...]], list[int]]:
    """Every candidate's capacity at every grid point, as integers.

    Returns one tuple of numerators per candidate and one denominator per
    point.  Each design factor is an integer polynomial, evaluated once per
    point p/q by a homogeneous Horner pass and written over q**w, w the
    largest degree among its kernel group's factors.  A candidate's erasure
    at sub-codeword k is then the product of its groups' values, M_k, over
    q**d with d the sum of their w, and with D the largest d over all
    candidates its capacity (r - sum M_k / q**d) / r**2 is the integer
    r q**D - q**(D - d) sum M_k over the point's r**2 q**D.
    """
    position: dict[tuple[Kernel, int], int] = {}
    members = [[position.setdefault(key, len(position)) for key in g] for g in groups]
    table = [[_design_factor(*key, k) for k in range(r)] for key in position]
    widths = [max(f.degree for f in factors) for factors in table]
    degrees = [sum(widths[i] for i in ids) for ids in members]
    top = max(degrees)
    columns = []
    denominators = []
    for x in grid:
        x = Fraction(x)
        p, q = x.numerator, x.denominator
        values = [
            [f.horner(p, q) * q ** (w - f.degree) for f in factors]
            for factors, w in zip(table, widths)
        ]
        qpow = [q**i for i in range(top + 1)]
        columns.append([
            r * qpow[top] - qpow[top - d] * sum(map(prod, zip(*[values[i] for i in ids])))
            for ids, d in zip(members, degrees)
        ])
        denominators.append(r * r * qpow[top])
    return list(zip(*columns)), denominators


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
    groups = [_kernel_groups(a, family) for a in candidates]
    numerators, denominators = _grid_capacities(groups, r, grid)

    per_point_max = [max(column) for column in zip(*numerators)]
    wins = [sum(c == m for c, m in zip(caps, per_point_max)) for caps in numerators]
    # A dominant candidate wins every point, so it is preferred when one exists.
    best_i = min(range(len(candidates)), key=lambda i: (-wins[i], candidates[i].indices))
    best = candidates[best_i]
    best_channels = assignment_erasures(best, family)

    certified = False
    if certify and wins[best_i] == len(grid):
        certified = all(
            certify_dominance(
                best_channels.capacity_poly, assignment_erasures(a, family).capacity_poly
            )
            == "certified"
            for a in candidates
            if a is not best
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
