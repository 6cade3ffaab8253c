"""Exhaustive assignment search."""

from fractions import Fraction as F
from math import comb

import pytest

from polarrep import effective_channels, patterns, poly, proofcheck, search
from polarrep.effective_channels import _design_factor, _kernel_groups, assignment_erasures
from polarrep.patterns import G2, I2, PatternAssignment, PatternFamily, family_by_name
from polarrep.proofcheck import certify_difference, certify_dominance
from polarrep.search import (
    DEFAULT_GRID,
    SearchReport,
    best_assignment,
    enumerate_assignments,
)

MIXED_GRID = (F(1, 3), F(2, 7), F(1, 2), F(9, 10))


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
    # The counter does see a chain when one is built: Budan's test leaves two
    # variations on -eps (1 - eps) ((eps - 1/2)**2 + 1/10).
    certify_difference(poly.Poly([0, F(-7, 20), F(27, 20), -2, 1]))
    assert built == [4]


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


@pytest.mark.parametrize("grid", [(F(1, 20),) * 4 + (F(19, 20),), (F(1, 2), F(1, 3), 0.5)])
def test_repeated_grid_point_refused(grid):
    """A repeated point would count its wins twice: reg4 over 1/20 four
    times and 19/20 would pick {1,2,3,3}, which over the two points alone
    loses to {0,3,3,3}."""
    with pytest.raises(ValueError, match="repeated"):
        best_assignment(family_by_name("reg4"), grid=grid, certify=False)
    assert best_assignment(family_by_name("reg4"), grid=(F(1, 20), F(19, 20)),
                           certify=False).best == PatternAssignment([0, 3, 3, 3])


def test_float_grid_point_read_by_its_decimal_text():
    """A float point is the rational its decimal text names, in the grid and
    in every capacity, so 0.1 repeats 1/10."""
    reg2 = family_by_name("reg2")
    report = best_assignment(reg2, grid=(0.1,))
    assert report == best_assignment(reg2, grid=(F(1, 10),))
    assert report.grid == (F(1, 10),)
    assert report.exact_ranking()[0][1] == (F(19881, 40000),)
    with pytest.raises(ValueError, match="repeated"):
        best_assignment(reg2, grid=(F(1, 10), 0.1))


def test_report_serialization():
    report = best_assignment(family_by_name("reg2"))
    d = report.to_json_dict()
    assert d["best"] == [0, 1]
    assert d["candidates_evaluated"] == 3
    assert len(d["ranking"]) == 3


def test_default_grid():
    assert DEFAULT_GRID == tuple(F(i, 20) for i in range(1, 20))


def reference_ranking(family, grid, certify):
    """The search from every candidate's capacity polynomial, evaluated as
    Fractions: an independent check of the integer grid ranking.  Returns
    the report's fields but its denominators, each ranking entry with its
    capacities as Fractions."""
    evaluated = []
    for a in enumerate_assignments(family, family.size):
        channels = assignment_erasures(a, family)
        evaluated.append((a, channels, tuple(channels.capacity_poly.evaluate(g) for g in grid)))
    top = [max(caps[i] for _, _, caps in evaluated) for i in range(len(grid))]
    wins = {a: sum(c == m for c, m in zip(caps, top)) for a, _, caps in evaluated}
    best, best_channels, _ = min(evaluated, key=lambda e: (-wins[e[0]], e[0].indices))
    certified = certify and wins[best] == len(grid) and all(
        certify_dominance(best_channels.capacity_poly, ch.capacity_poly) == "certified"
        for a, ch, _ in evaluated
        if a != best
    )
    ranking = tuple(
        (a, caps) for a, _, caps in sorted(evaluated, key=lambda e: (-sum(e[2]), e[0].indices))
    )
    return dict(
        family_kind=family.kind,
        r=family.size,
        grid=grid,
        candidates_evaluated=len(evaluated),
        ranking=ranking,
        best=best,
        dominance_certified=certified,
    )


def reference_search(family, grid, certify):
    """``reference_ranking`` as a report: each capacity written over its
    point's denominator r**2 q**D, D the degree the search's factor walks
    share, where it must be an integer."""
    fields = reference_ranking(family, grid, certify)
    r = family.size
    candidates = enumerate_assignments(family, r)
    keys, degrees, members = search._factor_table([_kernel_groups(a, family) for a in candidates])
    _, top = search._grid_capacities(keys, degrees, members, r, [])
    denominators = tuple(r * r * g.denominator**top for g in grid)
    ranking = []
    for a, caps in fields["ranking"]:
        scaled = [c * d for c, d in zip(caps, denominators)]
        assert all(x.denominator == 1 for x in scaled)
        ranking.append((a, tuple(map(int, scaled))))
    return SearchReport(**{**fields, "ranking": tuple(ranking)}, denominators=denominators)


@pytest.mark.parametrize("name", ["reg2", "reg4", "irr4"])
@pytest.mark.parametrize("grid", [DEFAULT_GRID, MIXED_GRID], ids=["default", "mixed"])
@pytest.mark.parametrize("certify", [True, False])
def test_matches_fraction_reference(name, grid, certify):
    fam = family_by_name(name)
    report = best_assignment(fam, grid=grid, certify=certify)
    # Every field but the denominators, with the accessor's exact Fractions
    # compared with the polynomials' values, value for value.
    exact = report._replace(ranking=report.exact_ranking())._asdict()
    del exact["denominators"]
    assert exact == reference_ranking(fam, grid, certify)
    # reg4 has no dominant winner on the default grid, irr4 has one.
    if grid == DEFAULT_GRID and certify:
        assert report.dominance_certified == (name != "reg4")


def test_reg8_ranking_pin():
    report = best_assignment(family_by_name("reg8"), certify=False)
    assert report.candidates_evaluated == 6435
    assert report.best.indices == (0, 7, 7, 7, 7, 7, 7, 7)
    assert not report.dominance_certified
    assert [a.indices for a, _ in report.ranking[:3]] == [
        (0, 7, 7, 7, 7, 7, 7, 7),
        (0, 6, 7, 7, 7, 7, 7, 7),
        (2, 4, 7, 7, 7, 7, 7, 7),
    ]
    top = [max(caps[i] for _, caps in report.ranking) for i in range(len(report.grid))]
    best = report.ranking[0][1]
    assert sum(c == m for c, m in zip(best, top)) == 10  # of 19: no candidate dominates


def test_only_winner_polynomials_built_without_dominance(monkeypatch):
    """No capacity polynomial and no design factor polynomial is built: reg4
    attempts no certificate, and on irr4 the packed column settles all 329
    differences."""
    built = []

    def counted(name):
        original = getattr(effective_channels, name)

        def build(*args):
            built.append((name, args))
            return original(*args)

        monkeypatch.setattr(effective_channels, name, build)

    counted("assignment_erasures")
    counted("_design_factor")
    report = best_assignment(family_by_name("reg4"))
    assert report.best.indices == (0, 3, 3, 3)
    report = best_assignment(family_by_name("irr4"))
    assert report.dominance_certified
    assert built == []


@pytest.mark.parametrize("name", ["reg2", "irr4", "reg8"])
def test_design_factor_table(name):
    fam = family_by_name(name)
    for kern in (fam[0], fam[len(fam) // 2], fam[len(fam) - 1]):
        for mult in (1, 2, fam.size):
            assert _design_factor(kern, mult) == _design_factor.__wrapped__(kern, mult)


@pytest.mark.parametrize("name", ["reg2", "reg4", "irr4", "reg8"])
def test_factor_walk_is_the_design_factor_form(name):
    """Each key's degree w, at least the largest of its design factors'
    degrees, is its walk's: at every default grid point and at the packed
    Budan point, the walk on (p**mult, q**mult) gives every factor's
    homogeneous Horner value there, written at degree w: the form times
    q**(w - deg) over q**w."""
    fam = family_by_name(name)
    candidates = enumerate_assignments(fam, fam.size)
    keys, degrees, _ = search._factor_table([_kernel_groups(a, fam) for a in candidates])
    _, bits, _, _ = packed_column(fam)
    points = [(g.numerator, g.denominator) for g in DEFAULT_GRID] + [(1, 1 + (1 << bits))]
    for (kern, mult), w in zip(keys, degrees):
        factors = _design_factor(kern, mult)
        assert w >= max(f.degree for f in factors)
        for p, q in points:
            nums, d = patterns._factor(kern, p**mult, q**mult, mult == 1)
            assert d == q**w
            assert nums == [f.horner(p, q) * q ** (w - f.degree) for f in factors]


def packed_column(family, extra_bits=0):
    """The search's packed Budan column: candidates, slot width, slot count
    and every candidate's packed integer."""
    r = family.size
    candidates = enumerate_assignments(family, r)
    keys, degrees, members = search._factor_table([_kernel_groups(a, family) for a in candidates])
    _, top = search._grid_capacities(keys, degrees, members, r, [])
    bits = search._slot_bits(r, top) + extra_bits
    [packed], _ = search._grid_capacities(keys, degrees, members, r, [(1, 1 + (1 << bits))])
    return candidates, bits, top + 1, packed


def _slots(value, bits, count):
    """The ``count`` signed ``bits``-wide digits c_j of value, highest first,
    where value = sum c_j 2**(bits j) and every |c_j| < 2**(bits - 1): each
    digit read biased by 2**(bits - 1)."""
    half = 1 << bits - 1
    biased = value + half * (((1 << bits * count) - 1) // ((1 << bits) - 1))
    mask = (1 << bits) - 1
    return [(biased >> bits * j & mask) - half for j in reversed(range(count))]


def _tops(bits, count):
    """The top bit of every one of ``count`` slots of ``bits`` bits."""
    return sum(1 << bits * j + bits - 1 for j in range(count))


@pytest.mark.parametrize("name", ["reg2", "reg4", "irr4", "reg8"])
def test_packed_slots_independent_of_width(name):
    """Slots 64 bits wider read the same coefficients: the computed width
    leaves no carry between slots."""
    fam = family_by_name(name)
    candidates, bits, count, packed = packed_column(fam)
    _, _, _, wide = packed_column(fam, 64)
    mid = len(candidates) // 2
    for value, wider in zip(packed, wide):
        assert _slots(value, bits, count) == _slots(wider, bits + 64, count)
        # A difference fits as well: the width bounds twice every coefficient.
        assert (_slots(packed[mid] - value, bits, count)
                == _slots(wide[mid] - wider, bits + 64, count))


@pytest.mark.parametrize("name", ["reg2", "reg4", "irr4"])
def test_packed_slots_are_budan_coefficients(name):
    """Each candidate's slots are (1 + x)**D H(1/(1 + x)), H = r**2 times
    its capacity polynomial, computed from the polynomial."""
    fam = family_by_name(name)
    candidates, bits, count, packed = packed_column(fam)
    shift = poly.Poly([1, 1])
    for a, value in zip(candidates, packed):
        h = assignment_erasures(a, fam).capacity_poly.scale(fam.size**2)
        transform = poly.Poly.zero()
        for i, c in enumerate(h.coeffs):
            transform = transform + (shift ** (count - 1 - i)).scale(c)
        coeffs = [int(c) for c in transform.coeffs]
        assert _slots(value, bits, count)[::-1] == coeffs + [0] * (count - len(coeffs))


def test_packed_variations_settle_dominance():
    """Zero packed variations on a nonzero difference imply the Sturm-backed
    verdict: certified for the side the slots favour.  Checked on every
    reg4 pair and on irr4's winner against the 329 others."""
    fam = family_by_name("reg4")
    candidates, bits, count, packed = packed_column(fam)
    caps = [assignment_erasures(a, fam).capacity_poly for a in candidates]
    settled = 0
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            slots = _slots(packed[i] - packed[j], bits, count)
            if not any(slots):  # 17 of the 35 share one of two capacities
                assert caps[i] == caps[j]
                assert certify_dominance(caps[i], caps[j]) == "refuted"
            elif poly._variations(slots) == 0:
                settled += 1
                hi, lo = (i, j) if max(slots) > 0 else (j, i)
                assert certify_dominance(caps[hi], caps[lo]) == "certified"
                assert certify_dominance(caps[lo], caps[hi]) == "refuted"
    assert settled > 0

    irr4 = family_by_name("irr4")
    candidates, bits, count, packed = packed_column(irr4)
    best = [a.indices for a in candidates].index((2, 5, 7, 7))
    winner = assignment_erasures(candidates[best], irr4).capacity_poly
    for i, a in enumerate(candidates):
        if i != best:
            slots = _slots(packed[best] - packed[i], bits, count)
            assert poly._variations(slots) == 0 and max(slots) > 0
            assert certify_dominance(
                winner, assignment_erasures(a, irr4).capacity_poly) == "certified"


def test_mask_test_matches_variations():
    """The packed sign test finds both signs exactly when the decoded slots
    have a sign variation: on every reg4 pair, on irr4's winner against the
    329 others, and on every 97th reg8 candidate against every 89th."""
    checked = []

    def agree(name, pairs):
        candidates, bits, count, packed = packed_column(family_by_name(name))
        tops = _tops(bits, count)
        for i, j in pairs(candidates):
            difference = packed[i] - packed[j]
            mixed = search._mixed_signs(difference, tops, bits)
            assert mixed == (poly._variations(_slots(difference, bits, count)) > 0)
            checked.append(mixed)

    agree("reg4", lambda c: [(i, j) for i in range(len(c)) for j in range(len(c))])
    assert any(checked) and not all(checked)
    agree("irr4", lambda c: [([a.indices for a in c].index((2, 5, 7, 7)), i)
                             for i in range(len(c))])
    agree("reg8", lambda c: [(i, j) for i in range(0, len(c), 97) for j in range(0, len(c), 89)])
    assert len(checked) == 35 * 35 + 330 + 67 * 73


def test_variations_fall_back_to_dominance(monkeypatch):
    """With sign variations forced on every difference, each one goes to
    ``proofcheck.certify_dominance`` and the report is unchanged."""
    calls = []
    certify = proofcheck.certify_dominance

    def counted(pa, pb):
        calls.append(pb)
        return certify(pa, pb)

    monkeypatch.setattr(search, "_mixed_signs", lambda value, tops, bits: True)
    monkeypatch.setattr(proofcheck, "certify_dominance", counted)
    fam = family_by_name("irr4")
    report = best_assignment(fam)
    assert len(calls) == 329
    assert report == reference_search(fam, DEFAULT_GRID, True)
    assert report.dominance_certified


def test_identical_capacity_refutes_certificate():
    """A candidate with the winner's own capacity polynomial packs a zero
    difference, which refutes the certificate.  With two identity kernels,
    (0, 1) and (0, 2) are the same code, so the winner (0, 1) wins every
    grid point, the certificate is attempted, and it must fail."""
    report = best_assignment(PatternFamily("twin", (G2, I2, I2)))
    caps = {a.indices: c for a, c in report.ranking}
    assert report.best.indices == (0, 1)
    assert caps[(0, 1)] == caps[(0, 2)]
    assert report.dominance_certified is False
