"""Exhaustive assignment search."""

from fractions import Fraction as F
from math import comb

import pytest

from polarrep.effective_channels import assignment_erasures
from polarrep.patterns import PatternAssignment, family_by_name
from polarrep import poly, search
from polarrep.proofcheck import certify_gain
from polarrep.search import (
    DEFAULT_GRID,
    best_assignment,
    enumerate_assignments,
)


@pytest.mark.parametrize(
    "family,r,expected",
    [("reg4", 4, 35), ("irr4", 4, 330), ("reg2", 2, 3), ("reg8", 8, 6435)],
)
def test_enumeration_counts(family, r, expected):
    fam = family_by_name(family)
    assignments = enumerate_assignments(fam, r)
    assert len(assignments) == expected
    assert len(assignments) == comb(len(fam) + r - 1, r)
    assert assignments == sorted(assignments, key=lambda a: a.indices)


def test_size_checked_before_enumeration(monkeypatch):
    def enumerated(*args):
        raise AssertionError("candidates enumerated before the size check")

    monkeypatch.setattr(search, "combinations_with_replacement", enumerated)
    with pytest.raises(ValueError, match="differs from the kernel size 4"):
        best_assignment(family_by_name("irr4"), r=1000)
    with pytest.raises(ValueError, match="differs from the kernel size 2"):
        best_assignment(family_by_name("reg2"), r=3)
    reg16 = family_by_name("reg16")
    with pytest.raises(ValueError, match="300540195 candidate assignments exceed"):
        best_assignment(reg16)
    with pytest.raises(ValueError, match="exceed"):
        enumerate_assignments(reg16, 16)


def test_two_block_winner():
    report = best_assignment(family_by_name("reg2"))
    assert report.best.indices == (0, 1)
    assert report.candidates_evaluated == 3
    assert report.dominance_certified


def test_four_block_regular_winner():
    report = best_assignment(family_by_name("reg4"))
    assert report.best.indices == (0, 3, 3, 3)
    assert report.candidates_evaluated == 35


def test_four_block_irregular_winner_dominates():
    report = best_assignment(family_by_name("irr4"))
    assert report.best.indices == (2, 5, 7, 7)
    assert report.candidates_evaluated == 330
    caps = dict((a.indices, c) for a, c in report.ranking)
    best = caps[(2, 5, 7, 7)]
    for i in range(len(report.grid)):
        assert best[i] == max(c[i] for c in caps.values())
    assert report.dominance_certified


def test_irregular_dominance_builds_no_sturm_chain(monkeypatch):
    built = []
    init = poly.SturmSequence.__init__

    def counted(self, p):
        built.append(p.degree)
        init(self, p)

    monkeypatch.setattr(poly.SturmSequence, "__init__", counted)
    report = best_assignment(family_by_name("irr4"))
    assert report.dominance_certified
    assert built == []  # Budan's 0-1 test settled all 329 differences
    certify_gain(1)  # the counter does see a chain when one is built
    assert built == [3]


def test_best_beats_pure_repetition_everywhere():
    for name in ("reg2", "reg4"):
        fam = family_by_name(name)
        report = best_assignment(fam, certify=False)
        baseline = assignment_erasures(
            PatternAssignment([0] * fam.size), fam
        ).capacity_poly
        best = assignment_erasures(report.best, fam).capacity_poly
        for g in report.grid:
            assert best.evaluate(g) > baseline.evaluate(g)


def test_deterministic():
    a = best_assignment(family_by_name("reg4"), certify=False)
    b = best_assignment(family_by_name("reg4"), certify=False)
    assert a.best == b.best
    assert [(x.indices, caps) for x, caps in a.ranking] == [
        (x.indices, caps) for x, caps in b.ranking
    ]


def test_grid_validation():
    fam = family_by_name("reg2")
    with pytest.raises(ValueError):
        best_assignment(fam, grid=())
    with pytest.raises(ValueError):
        best_assignment(fam, grid=(F(0), F(1, 2)))


def test_report_serialization():
    report = best_assignment(family_by_name("reg2"))
    d = report.to_json_dict()
    assert d["best"] == [0, 1]
    assert d["candidates_evaluated"] == 3
    assert len(d["ranking"]) == 3
    rows = report.to_csv_rows()
    assert rows[0][0] == "assignment"
    assert len(rows) == 4


def test_default_grid():
    assert DEFAULT_GRID == tuple(F(i, 20) for i in range(1, 20))
