"""Kernel trees and families against dense references, and per-block encoding."""

import random

import pytest

from polarrep.patterns import (
    G2,
    I2,
    LEAF,
    PatternAssignment,
    apply_kernel,
    family_by_name,
    irregular_family_r4,
    regular_family,
)

G2_ROWS = ((1, 0), (1, 1))
I2_ROWS = ((1, 0), (0, 1))


def kron(a, b):
    """Dense Kronecker product of two 0/1 matrices given as row tuples."""
    return tuple(tuple(va * vb for va in ra for vb in rb) for ra in a for rb in b)


def block(e, a, b):
    """Dense [[a, 0], [e*b, b]] of two equal-size 0/1 matrices."""
    pad = (0,) * len(a)
    return tuple(row + pad for row in a) + tuple(tuple(e * v for v in row) + row for row in b)


def test_two_block_family():
    fam = regular_family(1)
    assert fam.members == (G2, I2)
    assert (G2.rows, I2.rows, LEAF.rows) == (G2_ROWS, I2_ROWS, ((1,),))


def test_four_block_regular_family_order():
    fam = regular_family(2)
    assert fam[0].rows == kron(G2_ROWS, G2_ROWS)
    assert fam[1].rows == kron(G2_ROWS, I2_ROWS)
    assert fam[2].rows == kron(I2_ROWS, G2_ROWS)
    assert fam[3].rows == kron(I2_ROWS, I2_ROWS)
    assert len(fam) == 4


@pytest.mark.parametrize("t", range(5))
def test_regular_family_matches_dense_kron(t):
    fam = regular_family(t)
    assert len(fam) == 1 << t
    for i, member in enumerate(fam.members):
        dense = ((1,),)
        for level in range(t - 1, -1, -1):
            dense = kron(dense, I2_ROWS if (i >> level) & 1 else G2_ROWS)
        assert member.rows == dense
        assert member.size == 1 << t


def test_large_regular_family_shares_halves():
    fam = regular_family(10)
    assert len(fam) == 1024
    for member in fam.members:
        assert member.size == 1024
        assert member.a is member.b


def test_regular_family_counts_and_identity():
    for t in (1, 2, 3):
        fam = regular_family(t)
        assert len(fam) == 1 << t
        identity = tuple(
            tuple(1 if i == j else 0 for j in range(1 << t)) for i in range(1 << t)
        )
        assert fam[(1 << t) - 1].rows == identity


def test_kron_block_diagonal():
    assert regular_family(2)[2].rows == (
        (1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1)
    )


def _symbolic(k):
    rows = k.rows
    return [
        tuple(j + 1 for j, row in enumerate(rows) if row[p])
        for p in range(k.size)
    ]


def test_irregular_family_pinned_outputs():
    fam = irregular_family_r4()
    assert len(fam) == 8
    # identity blocks transmit the sub-codewords unchanged
    assert _symbolic(fam[7]) == [(1,), (2,), (3,), (4,)]
    # coupled identity-over-polarized block
    assert _symbolic(fam[2]) == [(1, 3, 4), (2, 4), (3, 4), (4,)]
    # uncoupled polarized top half
    assert _symbolic(fam[5]) == [(1, 2), (2,), (3,), (4,)]


def test_irregular_family_matches_dense_blocks():
    fam = irregular_family_r4()
    dense = [
        block(e, a, b) for e in (1, 0) for a in (G2_ROWS, I2_ROWS) for b in (G2_ROWS, I2_ROWS)
    ]
    assert [member.rows for member in fam.members] == dense


def test_irregular_family_contains_regular():
    irr = irregular_family_r4()
    reg = regular_family(2)
    assert irr[0] == reg[0]
    assert irr[3] == reg[1]
    assert irr[4] == reg[2]
    assert irr[7] == reg[3]


def test_all_members_valid():
    """Every member is a binary lower unitriangular matrix."""
    for name in ("reg2", "reg4", "reg8", "reg16", "irr4"):
        for member in family_by_name(name).members:
            rows = member.rows
            n = len(rows)
            assert n == member.size and n & (n - 1) == 0
            for i, row in enumerate(rows):
                assert len(row) == n
                assert row[i] == 1
                assert all(v == 0 for v in row[i + 1 :])
                assert set(row) <= {0, 1}


def test_apply_kernel_pins():
    assert apply_kernel(G2, [(1,), (0,)]) == (1, 0)
    assert apply_kernel(G2, [(0, 1), (1, 1)]) == (1, 0, 1, 1)
    assert apply_kernel(I2, [(1, 0), (0, 1)]) == (1, 0, 0, 1)
    four = regular_family(2)
    assert apply_kernel(four[0], [(1,), (0,), (1,), (1,)]) == (1, 1, 0, 1)


def test_apply_kernel_linearity():
    rng = random.Random(3)
    fam = irregular_family_r4()
    for _ in range(25):
        k = fam[rng.randrange(8)]
        u = [tuple(rng.randint(0, 1) for _ in range(4)) for _ in range(4)]
        v = [tuple(rng.randint(0, 1) for _ in range(4)) for _ in range(4)]
        s = [tuple(a ^ b for a, b in zip(uw, vw)) for uw, vw in zip(u, v)]
        left = apply_kernel(k, s)
        right = tuple(
            a ^ b for a, b in zip(apply_kernel(k, u), apply_kernel(k, v))
        )
        assert left == right


def test_apply_kernel_errors():
    with pytest.raises(ValueError):
        apply_kernel(G2, [(1,)])
    with pytest.raises(ValueError):
        apply_kernel(G2, [(1,), (0, 1)])


def test_assignment_canonical_order():
    a = PatternAssignment([3, 0, 3, 3])
    assert a.indices == (0, 3, 3, 3)
    assert a.r == 4
    assert a.label() == "{0,3,3,3}"
    with pytest.raises(ValueError):
        PatternAssignment([9, 0]).kernels(regular_family(1))


def test_kernel_text_form():
    assert str(G2) == "1 0\n1 1"


def test_family_lookup():
    assert family_by_name("IRR4").kind == "irr4"
    with pytest.raises(ValueError):
        family_by_name("reg3")


def test_kernel_ref():
    from polarrep.patterns import kernel_ref

    family, index, k = kernel_ref("reg4:0")
    assert family.kind == "reg4" and index == 0 and k.rows == kron(G2_ROWS, G2_ROWS)
    assert kernel_ref("irr4:7")[2].rows == tuple(
        tuple(1 if i == j else 0 for j in range(4)) for i in range(4)
    )
    with pytest.raises(ValueError):
        kernel_ref("reg4")
    with pytest.raises(ValueError):
        kernel_ref("reg4:9")
    with pytest.raises(ValueError):
        kernel_ref("nosuch:0")
