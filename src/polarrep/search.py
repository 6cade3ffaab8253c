"""Enumerate pattern assignments and select the capacity-maximizing one.

The number of candidate assignments is the number of multisets of size r
over the family indices: C(|family| + r - 1, r).  Capacities are evaluated
exactly on a grid of erasure probabilities (one integer Horner pass per
point, over the capacity's one denominator); the winner
is the assignment that maximizes capacity at every grid point simultaneously
when such an assignment exists, and otherwise the one winning the most grid
points.  A dominance certificate against every other candidate can be
requested on top of the grid comparison: each difference is settled by
Budan's 0-1 test, with a Sturm root count only where sign variations remain
(``proofcheck.certify_dominance``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

from .effective_channels import EffectiveChannelSet, assignment_erasures
from .patterns import PatternAssignment, PatternFamily

#: Largest candidate count a search enumerates: reg8 (6,435) fits, reg16
#: (300,540,195) would not fit in memory.
MAX_CANDIDATES = 100_000

#: Uniform rational grid 1/20 .. 19/20 used when the caller does not choose.
DEFAULT_GRID: tuple[Fraction, ...] = tuple(Fraction(i, 20) for i in range(1, 20))


@dataclass(frozen=True)
class SearchReport:
    family_kind: str
    r: int
    grid: tuple[Fraction, ...]
    candidates_evaluated: int
    ranking: tuple[tuple[PatternAssignment, tuple[Fraction, ...]], ...]
    best: PatternAssignment
    best_channels: EffectiveChannelSet
    dominance_certified: bool = field(default=False)

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


def best_assignment(
    family: PatternFamily,
    r: int | None = None,
    grid: tuple[Fraction, ...] = DEFAULT_GRID,
    certify: bool = True,
) -> SearchReport:
    """Exhaustive capacity search over all assignments of size r.

    Ties on grid wins break toward the lexicographically smallest canonical
    multiset, so reports are reproducible.  ``certify`` asks for the
    dominance certificate against every other candidate.  It is attempted
    only when the winner maximizes capacity at every grid point: otherwise
    some difference is negative at a grid point, so it is negative at the
    sample or has a root in (0, 1), and the certificate is refuted anyway.
    """
    if r is None:
        r = family.size
    if r != family.size:
        raise ValueError(f"r={r} differs from the kernel size {family.size}")
    if not grid:
        raise ValueError("grid must be nonempty")
    for g in grid:
        if not 0 < g < 1:
            raise ValueError(f"grid point {g} outside (0, 1)")

    candidates = enumerate_assignments(family, r)
    assert len(candidates) == comb(len(family) + r - 1, r)

    evaluated: list[tuple[PatternAssignment, EffectiveChannelSet, tuple[Fraction, ...]]] = []
    for a in candidates:
        channels = assignment_erasures(a, family)
        caps = tuple(channels.capacity_poly.evaluate(g) for g in grid)
        evaluated.append((a, channels, caps))

    per_point_max = [max(caps[i] for _, _, caps in evaluated) for i in range(len(grid))]
    dominant = [
        (a, ch, caps)
        for a, ch, caps in evaluated
        if all(c == m for c, m in zip(caps, per_point_max))
    ]
    if dominant:
        best, best_channels, _ = min(dominant, key=lambda item: item[0].indices)
    else:
        wins = {
            a.indices: sum(c == m for c, m in zip(caps, per_point_max))
            for a, _, caps in evaluated
        }
        best, best_channels, _ = min(
            evaluated, key=lambda item: (-wins[item[0].indices], item[0].indices)
        )

    certified = False
    if certify and dominant:
        from .proofcheck import certify_dominance

        certified = all(
            certify_dominance(best_channels.capacity_poly, ch.capacity_poly)
            == "certified"
            for a, ch, _ in evaluated
            if a.indices != best.indices
        )

    ranking = tuple(
        (a, caps)
        for a, _, caps in sorted(
            evaluated, key=lambda item: (-sum(item[2]), item[0].indices)
        )
    )
    return SearchReport(
        family_kind=family.kind,
        r=r,
        grid=tuple(grid),
        candidates_evaluated=len(candidates),
        ranking=ranking,
        best=best,
        best_channels=best_channels,
        dominance_certified=certified,
    )
