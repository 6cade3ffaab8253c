"""The package's records: immutable, compared and hashed by value, and
reachable from the package namespace."""

import pickle
from fractions import Fraction as F

import pytest

import polarrep
from polarrep.codec import CodeSpec, compare_oracle_with_analysis, design_code, monte_carlo
from polarrep.effective_channels import assignment_erasures
from polarrep.patterns import PatternAssignment, PatternFamily, family_by_name
from polarrep.proofcheck import certify_gain
from polarrep.search import best_assignment

REG2 = family_by_name("reg2")
PAIR = PatternAssignment([1, 0])


def _spec():
    return design_code(3, 1, PAIR, F(1, 2), 4, REG2)


#: One builder per record type, whose two calls build equal, distinct
#: records, and the record's fields in order.
RECORDS = {
    "PatternFamily": (lambda: family_by_name("irr4"), "kind members"),
    "PatternAssignment": (lambda: PatternAssignment([3, 1, 2, 1]), "indices"),
    "EffectiveChannelSet": (lambda: assignment_erasures(PAIR, REG2),
                            "r per_subword capacity_poly"),
    "GainCertificate": (lambda: certify_gain(2),
                        "r difference_poly endpoint_values interior_sample roots_in_open_unit "
                        "verdict method budan_variations sturm_chain"),
    "SearchReport": (lambda: best_assignment(REG2),
                     "family_kind r grid denominators candidates_evaluated ranking best "
                     "dominance_certified"),
    "CodeSpec": (_spec, "m t family assignment design_eps k frozen design_floats"),
    "SimReport": (lambda: monte_carlo(_spec(), F(1, 2), 64, seed=3),
                  "spec eps trials seed per_bit_rates block_error_rate operations "
                  "operations_per_decode"),
    "OracleComparison": (lambda: compare_oracle_with_analysis(REG2, PAIR, 3, 1),
                         "label m total_len oracle_polys analysis_polys mismatched_bits"),
}


def _compared(record) -> tuple:
    """The values a frozen dataclass of these fields compares and hashes."""
    names = RECORDS[type(record).__name__][1].split()
    return tuple(getattr(record, n) for n in names if n != "design_floats")


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_immutable(name):
    build, fields = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    for field in fields.split():
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", RECORDS)
def test_record_equality_and_hash_by_value(name):
    a, b = RECORDS[name][0](), RECORDS[name][0]()
    assert a is not b
    assert a == b and not a != b
    # A frozen dataclass hashes the tuple of its compared fields.
    assert hash(a) == hash(b) == hash(_compared(a))
    assert pickle.loads(pickle.dumps(a)) == a


def test_code_spec_equality_ignores_design_floats():
    spec = _spec()
    assert spec.design_floats
    bare = CodeSpec(*_compared(spec))
    assert bare.design_floats == ()
    assert bare == spec and hash(bare) == hash(spec)
    assert "design_floats" not in repr(spec)
    assert spec != CodeSpec(*_compared(spec)[:-1], frozen=spec.frozen[1:])
    assert pickle.loads(pickle.dumps(spec)).design_floats == spec.design_floats


def test_pattern_assignment_stays_canonical():
    a = PatternAssignment([3, 1, 2, 1])
    assert a.indices == (1, 1, 2, 3)
    assert a == PatternAssignment((1, 1, 2, 3)) == PatternAssignment(iter([2, 1, 3, 1]))
    assert a != PatternAssignment([1, 2, 3])
    assert pickle.loads(pickle.dumps(a)).indices == (1, 1, 2, 3)
    assert repr(a) == "PatternAssignment(indices=(1, 1, 2, 3))"


def test_pattern_family_indexes_its_members():
    family = family_by_name("irr4")
    assert len(family) == 8
    assert family[7] is family.members[7]
    assert family[1:3] == family.members[1:3]
    assert list(family) == list(family.members)
    with pytest.raises(IndexError):
        family[8]
    assert PatternFamily(kind="irr4", members=family.members) == family
    assert family != family_by_name("reg4")


def test_package_exports():
    namespace: dict = {}
    exec("from polarrep import *", namespace)
    assert set(polarrep.__all__) <= set(namespace)
    assert set(polarrep.__all__) <= set(dir(polarrep))
    assert namespace["DEFAULT_GRID"] is polarrep.search.DEFAULT_GRID
    assert namespace["CodeSpec"] is CodeSpec
    assert namespace["best_assignment"] is best_assignment
    with pytest.raises(AttributeError, match="no_such_name"):
        polarrep.no_such_name
