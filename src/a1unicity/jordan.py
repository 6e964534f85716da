"""Jordan types of order-p unipotent elements and their tensor calculus.

A Jordan type is a multiset of block sizes, all bounded by the ambient
prime p.  Tensor products of single blocks J(m) x J(n) are computed two
independent ways: a closed-form fast path (Clebsch-Gordan below the
p-threshold, plus a reflection step that splits off full projective
blocks J(p) above it) and the matrix oracle from ffmatrix.  The test
suite cross-checks the two exhaustively.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from . import ffmatrix
from .errors import (
    EmptyMatrixError,
    Frozen,
    OrderExceedsPError,
    PrimeMismatchError,
    ShapeError,
)
from .ffmatrix import PrimeField


class JordanType(Frozen):
    """Multiset of Jordan block sizes over a fixed prime p.

    Blocks are stored descending; equality is plain tuple equality, so
    the representation is canonical.
    """

    blocks: tuple[int, ...]
    p: int

    def __init__(self, blocks, p: int):
        PrimeField(p)  # validates primality
        blocks = tuple(sorted((int(b) for b in blocks), reverse=True))
        for b in blocks:
            if b < 1:
                raise ShapeError(f"nonpositive block size {b}")
            if b > p:
                raise OrderExceedsPError(
                    f"block size {b} > p = {p} means order above p"
                )
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "p", p)

    @property
    def dimension(self) -> int:
        return sum(self.blocks)

    def __str__(self) -> str:
        return jnotation(self.blocks)


def jnotation(blocks) -> str:
    """Render a partition in J-notation, e.g. (3, 3, 1, 1) -> 'J3^2+J1^2'."""
    out = [
        f"J{size}" + (f"^{mult}" if mult > 1 else "")
        for size, mult in sorted(Counter(blocks).items(), reverse=True)
    ]
    return "+".join(out) if out else "0"


def jordan_type_of_unipotent(m, field: PrimeField) -> JordanType:
    """Jordan type of a unipotent matrix of order dividing p (oracle)."""
    return JordanType(ffmatrix.jordan_block_sizes(m, field), field.p)


# bounded: a full selfcheck keeps 377 pairs and an enumeration-sweep phase at most 47
@lru_cache(maxsize=1024)
def _tensor_pair_blocks(m: int, n: int, p: int) -> tuple[int, ...]:
    if m > n:
        m, n = n, m
    if m + n - 1 <= p:
        # Clebsch-Gordan range: blocks n-m+1, n-m+3, ..., n+m-1
        return tuple(n + m - 1 - 2 * i for i in range(m))
    # above the threshold, m+n-p full blocks J(p) split off and the
    # remainder is the reflected product J(p-n) x J(p-m)
    head = (p,) * (m + n - p)
    tail = _tensor_pair_blocks(p - n, p - m, p) if p - n >= 1 else ()
    return tuple(sorted(head + tail, reverse=True))


def tensor_pair(m: int, n: int, p: int) -> JordanType:
    """Jordan type of J(m) x J(n) over GF(p), closed form."""
    PrimeField(p)
    for size in (m, n):
        if not 1 <= size <= p:
            raise OrderExceedsPError(f"block size {size} outside 1..{p}")
    return JordanType(_tensor_pair_blocks(m, n, p), p)


def tensor_pair_oracle(m: int, n: int, p: int) -> JordanType:
    """Jordan type of J(m) x J(n) via the explicit Kronecker matrix."""
    field = PrimeField(p)
    a = ffmatrix.unipotent_jordan_block(field, m)
    b = ffmatrix.unipotent_jordan_block(field, n)
    return jordan_type_of_unipotent(ffmatrix.kronecker(a, b, field), field)


def tensor(a: JordanType, b: JordanType) -> JordanType:
    """Bilinear extension of tensor_pair over direct sums."""
    if a.p != b.p:
        raise PrimeMismatchError(f"p = {a.p} vs p = {b.p}")
    blocks: list[int] = []
    for i in a.blocks:
        for j in b.blocks:
            blocks.extend(_tensor_pair_blocks(i, j, a.p))
    return JordanType(tuple(blocks), a.p)


def tensor_multi(sizes, p: int) -> JordanType:
    """Left fold of tensor over a list of block sizes.

    The result is independent of the fold order; the test suite asserts
    associativity.
    """
    sizes = list(sizes)
    if not sizes:
        raise EmptyMatrixError("tensor_multi needs at least one block size")
    acc = tensor_pair(sizes[0], 1, p)
    for s in sizes[1:]:
        acc = tensor(acc, tensor_pair(s, 1, p))
    return acc


def summand_profile(t: JordanType) -> tuple[int, frozenset[int]]:
    """(number of nontrivial blocks, set of distinct nontrivial sizes).

    Nontrivial means block size >= 2; this is the vocabulary in which the
    two- and three-fold tensor statements are phrased.
    """
    nontrivial = [b for b in t.blocks if b >= 2]
    return len(nontrivial), frozenset(nontrivial)
