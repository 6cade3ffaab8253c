"""Kernel and pattern-family construction, per-block encoding, the design
factor walk down a kernel tree (``_factor``), which gives every
sub-codeword's factor over one denominator in one pass, and the one
evaluator of an assignment's design erasures at a rational point
(``design_erasures``).

A kernel is applied at the outer recursion levels of one repetition block.
Every kernel is a recursion tree K(e, A, B): the block matrix
[[A, 0], [e*B, B]] over two half-size kernels A and B, down to the 1x1
``LEAF``, so it is binary lower-triangular with unit diagonal by
construction.  Codewords are row vectors, so encoding is ``out = c @ K`` over
GF(2), computed down the tree as [c, d] K = [c A + e d B, d B].

Two families are provided:

* the regular family for r = 2**t: all Kronecker products of the 2x2
  polarizing kernel G2 = K(1, LEAF, LEAF) and the 2x2 identity
  I2 = K(0, LEAF, LEAF), indexed by the t-bit expansion of the member index
  (most significant bit = outermost factor), where G2 x R = K(1, R, R) and
  I2 x R = K(0, R, R);
* the irregular family for r = 4: eight 4x4 kernels K(e, A, B) with
  independent top/bottom 2x2 inner kernels A, B and a coupling bit e.
"""

from __future__ import annotations

import operator
from collections import Counter
from math import prod
from typing import Iterable, NamedTuple, Sequence


class Kernel(NamedTuple):
    """Immutable kernel tree K(e, a, b) = [[a, 0], [e*b, b]].

    The halves are kernels of equal size; ``a`` and ``b`` are None only for
    the 1x1 ``LEAF``.  Equality and hashing are structural (tuple ones), so
    ``len()`` of a kernel is the field count, never its size.
    """

    e: int
    a: Kernel | None
    b: Kernel | None

    @property
    def size(self) -> int:
        return 1 if self.a is None else 2 * self.a.size

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The dense 0/1 matrix, for printing."""
        if self.a is None:
            return ((1,),)
        pad = (0,) * self.a.size
        return tuple(row + pad for row in self.a.rows) + tuple(
            tuple(self.e * v for v in row) + row for row in self.b.rows
        )

    def __str__(self) -> str:
        return "\n".join(" ".join(str(v) for v in row) for row in self.rows)


#: The 1x1 kernel, and the 2x2 polarizing kernel and identity: the two
#: one-level patterns.
LEAF = Kernel(0, None, None)
G2 = Kernel(1, LEAF, LEAF)
I2 = Kernel(0, LEAF, LEAF)


class _Record:
    """An immutable record that tuple ``len``, indexing or equality would
    change, so not a NamedTuple.  Its fields are its ``__slots__``, set once
    in order; equality, hashing and repr read ``_key()``, all the fields
    unless a subclass leaves some out."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._key()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self.__slots__))


class PatternFamily(_Record):
    """An indexed set of same-size kernels that blocks can be assigned from.
    ``len()`` and indexing run over the members."""

    __slots__ = ("kind", "members")

    def __init__(self, kind: str, members: tuple[Kernel, ...]) -> None:
        super().__init__(kind, members)

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

    Each level adds the outermost factor, which takes the top bit: member i
    is K(1, R, R) or K(0, R, R) with R member i mod 2**(t-1) of the family
    one level down, so both halves are one shared object.
    """
    if t < 0:
        raise ValueError("level count must be >= 0")
    members = (LEAF,)
    for _ in range(t):
        members = tuple(Kernel(1, r, r) for r in members) + tuple(
            Kernel(0, r, r) for r in members
        )
    return PatternFamily(kind=f"reg{1 << t}", members=members)


def irregular_family_r4() -> PatternFamily:
    """The eight irregular 4x4 kernels K(e, A, B).

    Enumeration order is lexicographic in (e, A, B) with e running over
    (1, 0) and each inner kernel over (polarizing, identity).  This pins the
    indices so that member 0 is the full 4x4 polarizing transform, member 2
    couples an identity top onto a polarizing bottom, member 5 polarizes the
    top half only, and member 7 is the identity.
    """
    members = tuple(Kernel(e, a, b) for e in (1, 0) for a in (G2, I2) for b in (G2, I2))
    return PatternFamily(kind="irr4", members=members)


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
    if not sep or not index_text.isdecimal():
        raise ValueError(f"kernel reference must look like 'reg4:0', got {ref!r}")
    family = family_by_name(family_name)
    index = int(index_text)
    if not 0 <= index < len(family):
        raise ValueError(f"index {index} out of range for family {family.kind}")
    return family, index, family[index]


class PatternAssignment(_Record):
    """A multiset of family indices, one kernel per repetition block.

    Block order over an i.i.d. channel cannot matter, so assignments are
    stored canonically sorted.
    """

    __slots__ = ("indices",)

    def __init__(self, indices: Iterable[int]) -> None:
        super().__init__(tuple(sorted(int(i) for i in indices)))

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


def _kernel_groups(
    assignment: PatternAssignment, family: PatternFamily
) -> tuple[tuple[Kernel, int], ...]:
    """The assignment's distinct kernels, each with its number of blocks."""
    kernels = assignment.kernels(family)
    if assignment.r != family.size:
        raise ValueError(
            f"assignment has {assignment.r} blocks but kernels have size {family.size}"
        )
    return tuple(Counter(kernels).items())


def _factor(kern: Kernel, n, d, lone: bool) -> tuple[list, object]:
    """Design factor of every sub-codeword through one kernel's tree, in one
    walk, as numerators over one shared denominator: on an erasure
    polynomial over the unit ``Poly`` (``effective_channels``) or on the
    integers (p**mult, q**mult) for eps = p/q, where each ends as its
    factor's form at (p, q), written at the walk's degree, over q**degree
    (``search``, ``design_erasures``).  A polarizing level sends the earlier
    half to a check combine z + w - z*w with the partner's channel w and the
    later half to z**2; other levels pass z through.  A lone block takes
    w = z**2, budgeting the partner two uses of the channel (its own leg and
    one repetition leg), so one polarized block plus plain repetitions is
    the single-pattern recursion.  A group of identical blocks, seeded with
    z = eps**mult, repeats its codeword, so the aligned legs fuse into one
    channel and w = z: exact, matching the decoder and the length-one
    repetition scheme.  Level by level, like ``polarize._polarize``, the
    nodes of one depth share the denominator: with z = n/d a lone block's
    level gives n(d**2 + nd - n**2), n**2 d and, under a plain node, n d**2
    over d**3, a merged group's n(2d - n), n**2 and n d over d**2; a level
    with no polarizing node changes nothing, so a kernel with none returns
    its seed at every sub-codeword without a walk."""
    if _plain(kern):
        return [n] * kern.size, d
    nodes, nums = [kern], [n]
    while nodes[0].a is not None:
        polar = [node.e for node in nodes]
        if 1 in polar:
            square = d * d
            plain = square if lone else d
            nxt = []
            for e, n in zip(polar, nums):
                if not e:
                    nxt += n * plain, n * plain
                elif lone:
                    nxt += n * (square + n * d - n * n), n * n * d
                else:
                    nxt += n * (d + d - n), n * n
            nums, d = nxt, square * d if lone else square
        else:
            nums = [x for n in nums for x in (n, n)]
        nodes = [half for node in nodes for half in (node.a, node.b)]
    return nums, d


def _plain(kern: Kernel) -> bool:
    """Whether no node of the tree polarizes; a half that is one object on
    both sides, as in every regular member, is read once."""
    return kern.a is None or not kern.e and _plain(kern.a) and (
        kern.b is kern.a or _plain(kern.b))


def design_erasures(groups: tuple[tuple[Kernel, int], ...], eps) -> tuple[list[int], int]:
    """Design erasure of every sub-codeword at eps = p/q of an assignment,
    given as its kernel groups, exactly: numerators over one denominator,
    the products of each group's walk (``_factor``) on (p**mult, q**mult)."""
    p, q = eps.numerator, eps.denominator
    walks = [_factor(kern, p**mult, q**mult, mult == 1) for kern, mult in groups]
    return list(map(prod, zip(*(factors for factors, _ in walks)))), prod(d for _, d in walks)


def apply_kernel(k: Kernel, subwords: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Encode one block: the concatenated codeword [c, d] K of equal-length
    subwords, c the first half and d the second.

    With the 2x2 polarizing kernel this maps (c1, c2) to (c1^c2, c2); with
    the identity it concatenates the subwords unchanged.
    """
    if len(subwords) != k.size:
        raise ValueError(f"expected {k.size} subwords, got {len(subwords)}")
    lengths = {len(w) for w in subwords}
    if len(lengths) != 1:
        raise ValueError(f"subwords must have equal length, got {sorted(lengths)}")
    return _encode(k, subwords)


def _encode(k: Kernel, subwords: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """[c, d] K(e, A, B) = [c A + e d B, d B] over GF(2)."""
    if k.a is None:
        return tuple(subwords[0])
    h = len(subwords) // 2
    low = _encode(k.b, subwords[h:])
    top = _encode(k.a, subwords[:h])
    if k.e:
        top = tuple(map(operator.xor, top, low))
    return top + low
