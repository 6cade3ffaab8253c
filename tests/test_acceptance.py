"""Acceptance suite: one test per criterion, each printing a PASS line.

Every criterion is checked at its stated tolerance (exact rational equality
unless noted) and against its stated runtime bound.  Run with ``pytest -v``
or ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import json
import math
import random
import time
from fractions import Fraction as F

import pytest

from polarrep.codec import (
    compare_oracle_with_analysis,
    design_code,
    encode,
    monte_carlo,
    sc_decode,
    synthetic_erasure_values,
    synthetic_polynomials,
)
from polarrep.channel_algebra import standard_synthetic_channel
from polarrep.effective_channels import (
    assignment_erasures,
    coded_repetition_scheme,
    reference_expression_set,
    regular_block_erasures,
)
from polarrep.patterns import PatternAssignment, family_by_name
from polarrep.poly import EPS, Poly
from polarrep.proofcheck import certify_dominance, certify_gain
from polarrep.search import DEFAULT_GRID, best_assignment


class _Timer:
    def __init__(self, label: str, budget: float):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{self.label}] {status} ({elapsed:.2f}s, budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"{self.label} exceeded {self.budget}s"


def test_criterion_1_example_polynomials():
    with _Timer("criterion 1: two-block polynomial reproduction", 1.0):
        fam = family_by_name("reg2")
        expected = {
            (0, 0): Poly([F(1, 2), 0, F(-1, 2)]),
            (0, 1): Poly([F(1, 2), 0, F(-1, 4), F(-1, 2), F(1, 4)]),
            (1, 1): Poly([F(1, 2), 0, F(-1, 2)]),
        }
        for indices, capacity in expected.items():
            channels = assignment_erasures(PatternAssignment(indices), fam)
            assert channels.capacity_poly == capacity, indices
        mixed = assignment_erasures(PatternAssignment([0, 1]), fam)
        assert mixed.capacity_at(F(1, 2)) == F(25, 64)
        assert F(25, 64) == F("0.390625") > F("0.375")


def test_criterion_2_dominance_certificates():
    with _Timer("criterion 2: dominance certificates", 2.0):
        start = time.perf_counter()
        scheme2 = coded_repetition_scheme(1).capacity_poly
        plain2 = Poly([F(1, 2), 0, F(-1, 2)])
        assert certify_dominance(scheme2, plain2) == "certified"
        assert time.perf_counter() - start < 1.0
        start = time.perf_counter()
        c4r = assignment_erasures(
            PatternAssignment([0, 3, 3, 3]), family_by_name("reg4")
        ).capacity_poly
        c4i = assignment_erasures(
            PatternAssignment([2, 5, 7, 7]), family_by_name("irr4")
        ).capacity_poly
        assert certify_dominance(c4i, c4r) == "certified"
        assert time.perf_counter() - start < 1.0


def test_criterion_3_search_reproduction():
    with _Timer("criterion 3: search reproduction", 10.0):
        regular = best_assignment(family_by_name("reg4"), certify=False)
        assert regular.candidates_evaluated == 35
        assert regular.best.indices == (0, 3, 3, 3)
        irregular = best_assignment(family_by_name("irr4"), certify=False)
        assert irregular.candidates_evaluated == 330
        assert irregular.best.indices == (2, 5, 7, 7)
        # The irregular winner maximizes capacity at every default grid point.
        caps = dict((a.indices, c) for a, c in irregular.ranking)
        best = caps[(2, 5, 7, 7)]
        for i in range(len(irregular.grid)):
            assert best[i] == max(c[i] for c in caps.values())


def test_criterion_3_regular_winner_pointwise():
    """Faithful check of the 'winning at every default grid point' clause
    for the regular family.

    Known not to hold: under the design analysis pinned by the published
    two-block polynomials and best-pattern channel expressions, the
    assignment {1,2,3,3} exceeds {0,3,3,3} by capacity margins between
    4e-11 and 5e-7 at the six grid points eps <= 3/10 (difference polynomial
    (eps^7 - 5 eps^8 + 6 eps^9 - 3 eps^11 + eps^12)/16
    = eps^7 (eps - 1)^2 (eps^3 - eps^2 - 3 eps + 1)/16, whose sign changes
    only at the root of eps^3 - eps^2 - 3 eps + 1 in (0, 1), eps = 0.311108).
    Both assignments use four distinct kernels, so their channels are
    fully determined by the single-block factor rules the other
    reproduction requirements pin; no consistent analysis avoids the
    crossover.  {0,3,3,3} wins the remaining 13 points and is returned as
    best by the most-points rule, which the search criterion asserts
    separately (and which passes).
    """
    with _Timer("criterion 3b: regular winner pointwise clause", 10.0):
        regular = best_assignment(family_by_name("reg4"), certify=False)
        caps = dict((a.indices, c) for a, c in regular.ranking)
        best = caps[(0, 3, 3, 3)]
        losing_points = [
            str(regular.grid[i])
            for i in range(len(regular.grid))
            if best[i] != max(c[i] for c in caps.values())
        ]
        assert not losing_points, (
            "{0,3,3,3} is not the capacity maximizer at grid points "
            f"{losing_points}; {{1,2,3,3}} exceeds it there by < 5e-7 "
            "(see this test's docstring for the analysis)."
        )


def test_criterion_4_gain_certification():
    with _Timer("criterion 4: capacity-gain certificates", 30.0):
        for t in (1, 2, 3, 4):
            cert = certify_gain(t)
            assert cert.certified, t
            assert cert.endpoint_values == (0, 0)
            assert cert.roots_in_open_unit == 0
        # t = 2 curve data: total erasure strictly below r*eps on the grid.
        total = Poly.zero()
        for z in regular_block_erasures(0, 2):
            total = total + z
        for g in DEFAULT_GRID:
            assert total.evaluate(g) < 4 * g


def test_criterion_5_oracle_equivalence(tmp_path):
    with _Timer("criterion 5: oracle equivalence", 120.0):
        fam2 = family_by_name("reg2")
        for m in (1, 2, 3):
            for indices in ([0, 0], [0, 1], [1, 1]):
                cmp = compare_oracle_with_analysis(
                    fam2, PatternAssignment(indices), m, 1
                )
                assert cmp.equal, (m, indices, cmp.mismatched_bits)
        # Four blocks, N = 16: comparison executed for both best patterns,
        # against both the design analysis and the golden reference
        # expressions; every coefficient mismatch is surfaced in the report.
        report = {}
        for label, fam_name, indices in (
            ("regular_best", "reg4", [0, 3, 3, 3]),
            ("irregular_best", "irr4", [2, 5, 7, 7]),
        ):
            fam = family_by_name(fam_name)
            assignment = PatternAssignment(indices)
            vs_analysis = compare_oracle_with_analysis(fam, assignment, 2, 2)
            reference = reference_expression_set(
                "regular_best_r4" if label == "regular_best" else "irregular_best_r4"
            ).per_subword
            vs_reference = compare_oracle_with_analysis(
                fam, assignment, 2, 2, analysis=reference, label=f"{label} vs reference"
            )
            assert vs_analysis.total_len == 16
            # The design analysis reproduces the reference expressions, so
            # the two comparisons surface identical coefficient differences.
            assert vs_analysis.mismatched_bits == vs_reference.mismatched_bits
            report[label] = {
                "vs_analysis": vs_analysis.to_json_dict(),
                "vs_reference": vs_reference.to_json_dict(),
            }
            if not vs_analysis.equal:
                print(
                    f"  surfaced: {label} oracle != analysis at bits "
                    f"{list(vs_analysis.mismatched_bits)} (design convention vs "
                    "operational decoder; logged per the open question)"
                )
        out = tmp_path / "oracle_comparison.json"
        out.write_text(json.dumps(report, indent=2))
        assert out.exists() and json.loads(out.read_text())


def test_criterion_6_monte_carlo_consistency():
    with _Timer("criterion 6: Monte Carlo consistency", 60.0):
        fam = family_by_name("reg2")
        assignment = PatternAssignment([0, 1])
        spec = design_code(6, 1, assignment, F(1, 2), 32, fam)
        trials = 100_000
        report = monte_carlo(spec, F(1, 2), trials, seed=7)
        per = assignment_erasures(assignment, fam).per_subword
        design = synthetic_erasure_values([z.evaluate(F(1, 2)) for z in per], 5)
        violations = 0
        for i in range(spec.n):
            p = float(design[i])
            sigma = math.sqrt(p * (1 - p) / trials)
            if abs(report.per_bit_rates[i] - p) > 3 * sigma:
                violations += 1
        assert violations / spec.n <= 0.02, f"{violations} of {spec.n} bits outside 3 sigma"


def test_criterion_7_curve_orderings():
    with _Timer("criterion 7: capacity curve orderings", 5.0):
        interior = [g for g in DEFAULT_GRID]
        schemes = {r: coded_repetition_scheme(r.bit_length() - 1) for r in (2, 4, 8)}
        for r, scheme in schemes.items():
            for g in interior:
                proposed = scheme.capacity_poly.evaluate(g)
                repetition = F(1 - g**r, r)
                assert proposed >= repetition
                assert proposed > repetition  # strict away from the endpoints
        irr = reference_expression_set("irregular_best_r4").capacity_poly
        for g in interior:
            assert irr.evaluate(g) >= schemes[4].capacity_poly.evaluate(g)
        for g in interior:
            gaps = [
                (1 - g) - schemes[r].capacity_poly.evaluate(g) for r in (2, 4, 8)
            ]
            assert gaps[0] <= gaps[1] <= gaps[2]


def test_criterion_8_round_trip_and_degeneracy():
    with _Timer("criterion 8: codec round trip and degeneracy", 10.0):
        rng = random.Random(2026)
        fam2 = family_by_name("reg2")
        fam4 = family_by_name("irr4")
        specs = [
            design_code(4, 1, PatternAssignment([0, 1]), F(1, 2), 9, fam2),
            design_code(3, 2, PatternAssignment([2, 5, 7, 7]), F(1, 2), 5, fam4),
        ]
        for trial in range(1000):
            spec = specs[trial % len(specs)]
            info = [rng.randint(0, 1) for _ in range(spec.k)]
            word = [b for blk in encode(spec, info) for b in blk]
            assert sc_decode(spec, word) == info
        # All-identity assignment: a standard polar code over the r-fold
        # repetition channel.
        ident = design_code(4, 1, PatternAssignment([1, 1]), F(1, 2), 8, fam2)
        polys = synthetic_polynomials(ident)
        base = EPS**2
        for j in range(2):
            for i in range(8):
                assert polys[j * 8 + i] == standard_synthetic_channel(3, i, base=base)
        inner_vals = [
            standard_synthetic_channel(3, i, base=base).evaluate(F(1, 2))
            for i in range(8)
        ]
        worst = sorted(range(8), key=lambda i: (inner_vals[i], i), reverse=True)[:4]
        expected_frozen = sorted(j * 8 + i for j in range(2) for i in worst)
        assert list(ident.frozen) == expected_frozen
