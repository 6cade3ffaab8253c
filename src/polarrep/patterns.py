"""Kernel and pattern-family construction, plus per-block encoding.

A kernel is a binary lower-triangular matrix with unit diagonal, applied at
the outer recursion levels of one repetition block.  Codewords are row
vectors, so encoding is ``out = c @ K`` over GF(2): output position p is the
XOR of the sub-codewords selected by column p.

Two families are provided:

* the regular family for r = 2**t: all Kronecker products of the 2x2
  polarizing kernel and the 2x2 identity, indexed by the t-bit expansion of
  the member index (most significant bit = outermost factor);
* the irregular family for r = 4: eight 4x4 kernels K(e, A, B) with
  independent top/bottom 2x2 inner kernels A, B and a coupling bit e, laid
  out in blocks as [[A, 0], [e*B, B]].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

Row = tuple[int, ...]
Matrix = tuple[Row, ...]


@dataclass(frozen=True)
class Kernel:
    """Immutable binary matrix used as a per-block outer transform."""

    rows: Matrix

    @property
    def size(self) -> int:
        return len(self.rows)

    def column(self, p: int) -> tuple[int, ...]:
        return tuple(row[p] for row in self.rows)

    def __str__(self) -> str:
        return "\n".join(" ".join(str(v) for v in row) for row in self.rows)


def kernel(rows: Iterable[Iterable[int]]) -> Kernel:
    return Kernel(tuple(tuple(int(v) for v in row) for row in rows))


#: 2x2 polarizing kernel and 2x2 identity: the two one-level patterns.
G2 = kernel([[1, 0], [1, 1]])
I2 = kernel([[1, 0], [0, 1]])


def validate_kernel(k: Kernel) -> str | None:
    """Return None if k is a valid kernel, else a human-readable reason.

    Valid means: square, power-of-two size, binary entries, lower-triangular
    with unit diagonal (hence nonsingular).
    """
    n = k.size
    if n == 0:
        return "empty matrix"
    if n & (n - 1):
        return f"size {n} is not a power of two"
    for i, row in enumerate(k.rows):
        if len(row) != n:
            return f"row {i} has length {len(row)}, expected {n}"
        for j, v in enumerate(row):
            if v not in (0, 1):
                return f"entry ({i},{j}) = {v} is not binary"
            if j == i and v != 1:
                return f"diagonal entry ({i},{i}) is zero (singular)"
            if j > i and v != 0:
                return f"entry ({i},{j}) above the diagonal is nonzero"
    return None


def kron(a: Kernel, b: Kernel) -> Kernel:
    """Kronecker product of two kernels; preserves lower-triangularity."""
    rows = []
    for ra in a.rows:
        for rb in b.rows:
            rows.append(tuple(va * vb for va in ra for vb in rb))
    return Kernel(tuple(rows))


@dataclass(frozen=True)
class PatternFamily:
    """An indexed set of same-size kernels that blocks can be assigned from."""

    kind: str
    members: tuple[Kernel, ...]

    @property
    def size(self) -> int:
        return self.members[0].size

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, i: int) -> Kernel:
        return self.members[i]


def regular_family(t: int) -> PatternFamily:
    """The 2**t Kronecker-product kernels of size 2**t.

    Member i is the product over the t bits of i (most significant first) of
    the polarizing kernel (bit 0) or the identity (bit 1); member 0 is the
    full polarizing transform and member 2**t - 1 the identity.  t = 0 is
    allowed and yields the single trivial 1x1 kernel, which lets the rest of
    the toolkit treat an unrepeated code as the degenerate one-block case.
    """
    if t < 0:
        raise ValueError("level count must be >= 0")
    members = []
    for i in range(1 << t):
        k = kernel([[1]])
        for level in range(t - 1, -1, -1):
            k = kron(k, I2 if (i >> level) & 1 else G2)
        members.append(k)
    return PatternFamily(kind=f"reg{1 << t}", members=tuple(members))


def coupled_block_kernel(e: int, a: Kernel, b: Kernel) -> Kernel:
    """Block matrix [[a, 0], [e*b, b]] of size 2*size(a)."""
    if a.size != b.size:
        raise ValueError("inner kernels must have equal size")
    h = a.size
    rows = [row + (0,) * h for row in a.rows]
    for i in range(h):
        top = tuple(e * v for v in b.rows[i])
        rows.append(top + b.rows[i])
    return Kernel(tuple(rows))


def split_kernel(rows: Matrix) -> tuple[int, Matrix, Matrix]:
    """Inverse of :func:`coupled_block_kernel` on raw rows: (e, A, B).

    This is the one place that reads the block format [[A, 0], [e*B, B]];
    every kernel-tree walk descends through it, one level per call.
    """
    h = len(rows) // 2
    a = tuple(row[:h] for row in rows[:h])
    b = tuple(row[h:] for row in rows[h:])
    c = tuple(row[:h] for row in rows[h:])
    if c == tuple((0,) * h for _ in range(h)):
        return 0, a, b
    if c == b:
        return 1, a, b
    raise ValueError("kernel is not block-structured as [[A,0],[e*B,B]]")


def irregular_family_r4() -> PatternFamily:
    """The eight irregular 4x4 kernels K(e, A, B).

    Enumeration order is lexicographic in (e, A, B) with e running over
    (1, 0) and each inner kernel over (polarizing, identity).  This pins the
    indices so that member 0 is the full 4x4 polarizing transform, member 2
    couples an identity top onto a polarizing bottom, member 5 polarizes the
    top half only, and member 7 is the identity.
    """
    members = []
    for e in (1, 0):
        for a in (G2, I2):
            for b in (G2, I2):
                members.append(coupled_block_kernel(e, a, b))
    return PatternFamily(kind="irr4", members=tuple(members))


_FAMILY_BUILDERS = {
    "reg2": lambda: regular_family(1),
    "reg4": lambda: regular_family(2),
    "reg8": lambda: regular_family(3),
    "reg16": lambda: regular_family(4),
    "irr4": irregular_family_r4,
}


def family_by_name(name: str) -> PatternFamily:
    """Look up a family by its CLI name (reg2, reg4, reg8, reg16, irr4)."""
    try:
        return _FAMILY_BUILDERS[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; expected one of {sorted(_FAMILY_BUILDERS)}"
        ) from None


def kernel_ref(ref: str) -> tuple[PatternFamily, int, Kernel]:
    """Resolve a ``family:index`` string such as ``reg4:0`` or ``irr4:7``."""
    family_name, sep, index_text = ref.partition(":")
    if not sep or not index_text.isdigit():
        raise ValueError(f"kernel reference must look like 'reg4:0', got {ref!r}")
    family = family_by_name(family_name)
    index = int(index_text)
    if not 0 <= index < len(family):
        raise ValueError(f"index {index} out of range for family {family.kind}")
    return family, index, family[index]


@dataclass(frozen=True)
class PatternAssignment:
    """A multiset of family indices, one kernel per repetition block.

    Block order over an i.i.d. channel cannot matter, so assignments are
    stored canonically sorted.
    """

    indices: tuple[int, ...]

    def __init__(self, indices: Iterable[int]):
        object.__setattr__(self, "indices", tuple(sorted(int(i) for i in indices)))

    @property
    def r(self) -> int:
        """The number of repetition blocks."""
        return len(self.indices)

    def kernels(self, family: PatternFamily) -> tuple[Kernel, ...]:
        for i in self.indices:
            if not 0 <= i < len(family):
                raise ValueError(f"index {i} out of range for family {family.kind}")
        return tuple(family[i] for i in self.indices)

    def label(self) -> str:
        return "{" + ",".join(str(i) for i in self.indices) + "}"


def apply_kernel(k: Kernel, subwords: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Encode one block: XOR-combine equal-length subwords per kernel column.

    With the 2x2 polarizing kernel this maps (c1, c2) to (c1^c2, c2); with
    the identity it concatenates the subwords unchanged.
    """
    if len(subwords) != k.size:
        raise ValueError(f"expected {k.size} subwords, got {len(subwords)}")
    lengths = {len(w) for w in subwords}
    if len(lengths) != 1:
        raise ValueError(f"subwords must have equal length, got {sorted(lengths)}")
    (width,) = lengths
    out: list[int] = []
    for p in range(k.size):
        col = k.column(p)
        for pos in range(width):
            acc = 0
            for j, bit in enumerate(col):
                if bit:
                    acc ^= subwords[j][pos]
            out.append(acc)
    return tuple(out)
