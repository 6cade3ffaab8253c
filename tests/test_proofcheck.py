"""Certificates: capacity gain, endpoint values, the root-exclusion witness,
and dominance."""

from fractions import Fraction as F

import pytest

from polarrep import poly, proofcheck
from polarrep.effective_channels import (
    assignment_erasures,
    coded_repetition_scheme,
    regular_block_erasures,
)
from polarrep.patterns import PatternAssignment, family_by_name
from polarrep.poly import EPS, Poly, budan_variations, count_roots_in
from polarrep.proofcheck import (
    MAX_GAIN_T,
    certify_difference,
    certify_dominance,
    certify_gain,
)
from polarrep.search import enumerate_assignments

#: -eps (1 - eps) ((eps - 1/2)**2 + 1/10): negative on (0, 1), yet Budan's
#: test counts two sign variations there (a complex pair near 1/2).
NEEDS_STURM = Poly([0, F(-7, 20), F(27, 20), -2, 1])


@pytest.mark.parametrize("t", range(1, MAX_GAIN_T + 1))
def test_gain_certified(t):
    cert = certify_gain(t)
    assert cert.certified
    assert cert.r == 1 << t
    assert cert.difference_poly.degree == 3**t
    assert cert.endpoint_values == (0, 0)
    assert cert.roots_in_open_unit == 0
    assert cert.interior_sample[1] < 0
    assert (cert.method, cert.budan_variations, cert.sturm_chain) == ("budan", 0, ())


def test_gain_two_blocks_values():
    cert = certify_gain(1)
    # difference is eps^2 + (eps + eps^2 - eps^3) - 2 eps = -eps (1-eps)^2
    assert cert.difference_poly == Poly([0, -1, 2, -1])
    assert cert.interior_sample == (F(1, 2), F(-1, 8))


@pytest.mark.parametrize("sample", [F(1, 7), F(1, 2), F(4, 5), F(99, 100)])
def test_gain_verdict_sample_independent(sample):
    assert certify_gain(2, sample=sample).certified


def test_degenerate_zero_difference_refuted():
    # All-identity in place of the polarized block: no strict gain anywhere.
    cert = certify_difference(Poly.zero())
    assert cert.verdict == "refuted"
    # Refuted before any root test runs, so there is no witness.
    d = cert.to_json_dict()
    assert (d["method"], d["budan_variations"]) == ("none", None)
    assert "sturm_chain" not in d


def test_positive_difference_refuted():
    cert = certify_difference(EPS.scale(3) - EPS)  # +2 eps, wrong sign
    assert cert.verdict == "refuted"


def test_certificate_serialization():
    d = certify_gain(1).to_json_dict()
    assert d["verdict"] == "certified"
    assert d["roots_in_open_unit"] == 0
    assert (d["method"], d["budan_variations"]) == ("budan", 0)
    assert "sturm_chain" not in d
    assert d["interior_sample"] == {"eps": "1/2", "value": "-1/8"}


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_budan_verdict_agrees_with_sturm(t):
    d = certify_gain(t).difference_poly
    assert count_roots_in(d, 0, 1) == budan_variations(d) == 0


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_composed_sum_equals_leaf_sum(t):
    leaves = Poly.zero()
    for z in regular_block_erasures(0, t):
        leaves = leaves + z
    assert certify_gain(t).difference_poly == leaves - EPS.scale(1 << t)


def test_sturm_fallback_certifies():
    assert budan_variations(NEEDS_STURM) == 2
    cert = certify_difference(NEEDS_STURM)
    assert cert.certified
    assert (cert.method, cert.budan_variations, cert.roots_in_open_unit) == ("sturm", 2, 0)
    assert cert.interior_sample == (F(1, 2), F(-1, 40))
    d = cert.to_json_dict()
    assert d["sturm_chain"] == [p.to_strings() for p in cert.sturm_chain]
    assert len(d["sturm_chain"]) > 1


def test_interior_roots_refuted():
    # -eps (1 - eps) (eps - 1/5) (eps - 2/5): negative at 1/2, roots at 1/5, 2/5.
    d = -(EPS * (Poly.one() - EPS) * (EPS - Poly.const(F(1, 5))) * (EPS - Poly.const(F(2, 5))))
    cert = certify_difference(d)
    assert cert.interior_sample[1] < 0
    assert cert.verdict == "refuted"
    assert (cert.method, cert.roots_in_open_unit) == ("sturm", 2)
    assert cert.budan_variations >= 2


def test_level_count_checked_before_building(monkeypatch):
    def built(*args):
        raise AssertionError("gain polynomial built before the level check")

    monkeypatch.setattr(proofcheck, "regular_block_erasures", built, raising=False)
    monkeypatch.setattr(poly.Poly, "compose", built)
    with pytest.raises(ValueError, match="MAX_GAIN_T=7"):
        certify_gain(MAX_GAIN_T + 1)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_level_maps_compose_to_recursion(t):
    """Sub-codeword k of the fully polarized pattern composes the level maps
    f0 = z + z**2 - z**3 and f1 = z**2 along the bits of k, most significant
    first, and degenerates to 0 at eps = 0 and 1 at eps = 1."""
    f0 = EPS + EPS**2 - EPS**3
    f1 = EPS**2
    per = regular_block_erasures(0, t)
    assert len(per) == 1 << t
    for k, z in enumerate(per):
        acc = EPS
        for level in range(t - 1, -1, -1):
            acc = (f1 if (k >> level) & 1 else f0).compose(acc)
        assert acc == z
        assert (z.evaluate(0), z.evaluate(1)) == (0, 1)


class TestDominance:
    def test_scheme_beats_plain_repetition(self):
        plain = Poly([F(1, 2), 0, F(-1, 2)])
        assert certify_dominance(coded_repetition_scheme(1).capacity_poly, plain) == "certified"

    def test_irregular_beats_regular(self):
        c4r = assignment_erasures(
            PatternAssignment([0, 3, 3, 3]), family_by_name("reg4")
        ).capacity_poly
        c4i = assignment_erasures(
            PatternAssignment([2, 5, 7, 7]), family_by_name("irr4")
        ).capacity_poly
        assert certify_dominance(c4i, c4r) == "certified"
        assert certify_dominance(c4r, c4i) == "refuted"

    def test_identical_refuted(self):
        p = coded_repetition_scheme(1).capacity_poly
        assert certify_dominance(p, p) == "refuted"

    def test_sign_cases(self):
        q = EPS.scale(2) - EPS**2 - Poly.const(1)  # -(1-eps)^2: negative inside
        assert certify_dominance(q, Poly.zero()) == "refuted"
        r = Poly([F(-1, 10), 1])  # eps - 1/10: root inside (0, 1)
        assert certify_dominance(r, Poly.zero()) == "refuted"
        s = Poly([F(1, 10), 1, -1])  # 1/10 + eps - eps^2: positive on [0, 1]
        assert certify_dominance(s, Poly.zero()) == "certified"
        # Endpoint equality is allowed.
        assert certify_dominance(EPS - EPS**2, Poly.zero()) == "certified"

    def test_negative_endpoint_forces_interior_root(self):
        # A polynomial positive somewhere inside but negative at an endpoint
        # must cross zero inside, so it is refuted by the root count; no
        # verdict beyond certified/refuted is needed for endpoint signs.
        d = Poly([0, F(5, 2), -3])  # 5/2 eps - 3 eps^2: negative at 1
        assert certify_dominance(d, Poly.zero()) == "refuted"


def _sturm_only_dominance(pa, pb, sample=F(1, 2)):
    """Reference verdict from the Sturm root count alone."""
    d = pa - pb
    if d.is_zero() or count_roots_in(d, 0, 1) != 0 or d.evaluate(sample) <= 0:
        return "refuted"
    return "certified"


def _capacities(name):
    fam = family_by_name(name)
    return {
        a.indices: assignment_erasures(a, fam).capacity_poly
        for a in enumerate_assignments(fam, fam.size)
    }


def test_dominance_matches_sturm_on_irr4_against_winner():
    caps = _capacities("irr4")
    best = caps[(2, 5, 7, 7)]
    verdicts = []
    for c in caps.values():
        for pa, pb in ((best, c), (c, best)):
            verdict = certify_dominance(pa, pb)
            assert verdict == _sturm_only_dominance(pa, pb)
            verdicts.append(verdict)
    assert verdicts.count("certified") == len(caps) - 1


def test_dominance_matches_sturm_on_reg4_pairs():
    caps = list(_capacities("reg4").values())
    certified = 0
    for pa in caps:
        for pb in caps:
            if pa is not pb:
                verdict = certify_dominance(pa, pb)
                assert verdict == _sturm_only_dominance(pa, pb)
                certified += verdict == "certified"
    assert 0 < certified < len(caps) * (len(caps) - 1)
