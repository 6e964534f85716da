"""Exact dense linear algebra over the prime field GF(p).

This module is the ground truth for every Jordan-type claim in the
package: matrices are numpy integer arrays with entries reduced to
canonical representatives 0..p-1, and rank is computed by Gaussian
elimination in exact modular arithmetic.

Elimination runs in int64, or in int32 in the oracle's float32 tier
(below): a product of two reduced entries is at most (p-1)^2, which
int64 holds while (p-1)^2 < 2^63 and int32 while (p-1)^2 < 2^24.  It
visits only the columns that are nonzero in some row (a row operation never fills a column that is zero
in every row), scales each pivot row to a leading 1 and clears its
column with the multiplier m[i, c]: its rows have strictly increasing
leading columns with entry 1 and span the row space, which is all that
rank reads and all that _reduced_echelon starts from.

The Jordan-type oracle refuses in two stages.  First the trace: a
nilpotent N = m - I has trace 0, so an m whose N has nonzero trace mod p
is refused as not unipotent after one O(n) sum of the diagonal, before
any elimination.  Every trace-0 input then walks the kernel chain
ker N < ker N^2 < ... of N (see jordan_block_sizes), which answers or
refuses the rest: one elimination of the n x 2n matrix
[N | I], then matrix products only, for the back-substitution to reduced
echelon form and for every step of the chain.  Each product has inner
dimension at most n, so each entry is a sum of at most n products below
(p-1)^2.  The oracle stores its matrices, and multiplies them, in the
narrowest width that is exact for that sum:

    n*(p-1)^2 < 2^24    int32 matrices, float32 (BLAS) products
    n*(p-1)^2 < 2^53    int64 matrices, float64 (BLAS) products
    n*(p-1)^2 < 2^63    int64 matrices, int64 products

In a float tier every partial sum is a nonnegative integer below the
tier's bound, in whatever order BLAS adds the terms and with or without
fused multiply-adds, so the float holds it exactly.  Each storage width
has the itemsize of its product width, so a block of rows is
reinterpreted in place, never copied to a second width.  The storage
width holds every intermediate: within +-(p-1)^2 in the elimination (a
reduced entry minus the product of two), within +-n*(p-1)^2 where a
product is subtracted.  The first tier covers every prime up to 61 at
any admitted size.  From p = 67 on, inputs of MAX_DIMENSION rows
stay in the float64 tier and keep its cost: Sym^4095 at p = 4099
(n = 4096) takes about 16-19 s and peaks at 549 MB RSS.  The oracle's
peak working set is [N | I] in the storage width plus step_map, at most
n x n in the product width: the input is reduced straight into [N | I]
and step_map is filled without a temporary.  tracemalloc reads 11.5 MB
for J(31) x J(31) at p = 31 (n = 961) and 33.1 MB for J(40) x J(41) at
p = 41 (n = 1640), both in the int32 tier, or about 12.4 n^2 bytes; an
int64 copy of the input beside [N | I] made it 16 n^2 (14.8 and
43.0 MB), and int64 storage of the same matrices takes 22.9 and
66.1 MB.  rank keeps int64 throughout.

rank and jordan_block_sizes raise ShapeError unless n*(p-1)^2 < 2^63,
above MAX_DIMENSION rows or columns and for ragged rows; kronecker and
sym_power need (p-1)^2 < 2^63.  The builders (identity,
unipotent_jordan_block, sym_power, kronecker, block_diagonal) raise
ShapeError before they allocate a result above MAX_DIMENSION rows.

Only the prime subfield is ever needed: all matrices built here (Jordan
blocks, Kronecker products, and symmetric powers of the standard
unipotent, which are Pascal matrices of binomial coefficients mod p)
have entries in GF(p), and the Frobenius endomorphism fixes them.

numpy is imported by each function that builds or reduces a matrix, on
its first call, not with the module: the closed-form queries (tensor,
module, classify, witnesses, enumerate) build no matrix and never load
it.  The module itself runs for every one of those queries, because
is_prime or PrimeField serves each of them (through atlas or jordan).
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import (
    DomainError,
    EmptyMatrixError,
    Frozen,
    NotOrderPError,
    NotPrimeError,
    OrderExceedsPError,
    ShapeError,
)

if TYPE_CHECKING:
    import numpy as np

# Dense matrices only; desk-scale checks stay far below this.
MAX_DIMENSION = 4096

# Integers below these bounds are exact in float32, float64 and int64.
_FLOAT32_EXACT = 2**24
_FLOAT64_EXACT = 2**53
_INT64_EXACT = 2**63

# Rows per slab of the back-substitution in _reduced_echelon.  A slab
# costs one product with the finished rows below it and a few products of
# its own size, so the number of products falls as slabs grow, while the
# slab products grow as the cube of its size.
_SLAB = 32


# Strong-probable-prime tests to the first 13 primes decide primality
# exactly below _MILLER_RABIN_EXACT, the least strong pseudoprime to all
# of them (Sorenson and Webster, Math. Comp. 86, 2017).  The first 12 do
# not suffice: 318665857834031151167461 passes every base up to 37.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_EXACT = 3317044064679887385961981


@lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    """Exact primality for n < 3317044064679887385961981.

    Trial division by the primes up to 41, then a deterministic
    Miller-Rabin test to those bases.  Larger n with no factor up to 41
    raise DomainError: primality there is not decided.
    """
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    if n >= _MILLER_RABIN_EXACT:
        raise DomainError(
            f"primality is decided only below {_MILLER_RABIN_EXACT}, not for {n}"
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(Frozen):
    """The field GF(p) for a prime p >= 2."""

    p: int

    def __init__(self, p: int):
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not a prime")
        object.__setattr__(self, "p", p)

    def reduce(self, a, out: np.ndarray | None = None) -> np.ndarray:
        """Return a as an int64 array with entries in 0..p-1, or write
        those entries into out (an integer array of a's shape that holds
        0..p-1) and return it.

        Integer entries of any size are reduced exactly.  Any other entry
        (a float, a complex number, a string, ...) raises ShapeError: a
        cast to int64 would truncate, drop or parse it.  Bool, signed and
        unsigned arrays of at most 32 bits are reduced into out directly,
        through numpy's small casting buffer, so no full-size int64 copy is
        made.
        """
        import numpy as np

        a = np.asarray(a)
        if a.dtype.kind in "bi" or (a.dtype.kind == "u" and a.dtype.itemsize <= 4):
            if out is None:
                return a.astype(np.int64, copy=False) % self.p
            return np.remainder(a, np.int64(self.p), out=out, casting="unsafe")
        # any other array is checked entry by entry; uint64 and Python
        # integers may exceed int64, so they are reduced as Python integers
        for x in a.flat:
            if not isinstance(x, (int, np.integer, np.bool_)):
                raise ShapeError(
                    f"matrix entries must be integers, not {type(x).__name__}"
                )
        reduced = (a.astype(object) % self.p).astype(np.int64)
        if out is None:
            return reduced
        out[...] = reduced
        return out

    def inverse(self, a: int) -> int:
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(p)")
        return pow(a, self.p - 2, self.p)


def identity(n: int) -> np.ndarray:
    import numpy as np

    if n == 0:
        raise EmptyMatrixError("identity of size 0 requested")
    if n < 0:
        raise ShapeError(f"negative identity size {n}")
    _check_dimension("identity", n)
    return np.eye(n, dtype=np.int64)


def unipotent_jordan_block(field: PrimeField, m: int) -> np.ndarray:
    """Full m x m unipotent Jordan block over GF(p).

    The block has 1 on the diagonal and the superdiagonal.  Such a block
    has multiplicative order p exactly when 2 <= m <= p, so sizes above p
    are rejected.
    """
    if m == 0:
        raise EmptyMatrixError("Jordan block of size 0 requested")
    if m < 0:
        raise ShapeError(f"negative block size {m}")
    if m > field.p:
        raise OrderExceedsPError(
            f"block size {m} > p = {field.p} forces order p^2 or higher"
        )
    _check_dimension("Jordan block", m)
    import numpy as np

    return identity(m) + np.eye(m, k=1, dtype=np.int64)


def kronecker(a: np.ndarray, b: np.ndarray, field: PrimeField) -> np.ndarray:
    """Kronecker product reduced mod p.

    Each entry is one product of reduced entries, so p needs
    (p-1)^2 < 2^63; larger p raise ShapeError.
    """
    import numpy as np

    _check_int64_exact(1, field.p)
    a = field.reduce(a)
    b = field.reduce(b)
    _check_dimension("kronecker result", a.shape[0] * b.shape[0])
    return np.kron(a, b) % field.p


def block_diagonal(blocks: list[np.ndarray]) -> np.ndarray:
    """Assemble square int64 blocks, already reduced mod p as every matrix
    built here is, into one block-diagonal matrix."""
    import numpy as np

    if not blocks:
        raise EmptyMatrixError("no blocks given")
    n = sum(b.shape[0] for b in blocks)
    _check_dimension("block-diagonal", n)
    out = np.zeros((n, n), dtype=np.int64)
    at = 0
    for b in blocks:
        k = b.shape[0]
        out[at : at + k, at : at + k] = b
        at += k
    return out


def _shape(m) -> tuple[int, ...]:
    """np.shape(m); a ragged nested list raises ShapeError, not numpy's
    ValueError."""
    import numpy as np

    try:
        return np.shape(m)
    except ValueError:
        raise ShapeError("matrix rows must all have the same length") from None


def _check_dimension(what: str, n: int) -> None:
    """Reject matrices larger than MAX_DIMENSION with a one-line ShapeError."""
    if n > MAX_DIMENSION:
        raise ShapeError(
            f"{what} dimension {n} exceeds the configured bound {MAX_DIMENSION}"
        )


def _check_int64_exact(n: int, p: int) -> None:
    """Reject inputs whose sums of n products mod p could overflow int64."""
    if n * (p - 1) ** 2 >= _INT64_EXACT:
        raise ShapeError(
            f"n = {n} over GF({p}) needs n*(p-1)^2 < 2^63 for exact int64 arithmetic"
        )


def _echelon(m: np.ndarray, field: PrimeField, width: int | None = None) -> np.ndarray:
    """Row-echelon basis of the row space of m over GF(p).

    m must be int64 (or int32 while (p-1)^2 < 2^24, as in the oracle's
    float32 tier) with entries in 0..p-1; it is overwritten.  Pivots
    are sought in the first `width` columns only (all of them by default)
    and the columns beyond are carried along.  Returns the first r rows
    of m, one per pivot, with leading entry 1 and strictly increasing
    leading columns; the rows below them are zero in the first `width` columns.
    """
    import numpy as np

    p = field.p
    rows = m.shape[0]
    r = 0
    # a column that is zero in every row stays zero under row operations
    for c in m[:, :width].any(axis=0).nonzero()[0].tolist():
        if r == rows:
            break
        pivots = m[r:, c].nonzero()[0]
        if pivots.size == 0:
            continue
        i = r + int(pivots[0])
        if i != r:
            row = m[i].copy()
            m[i] = m[r]
            m[r] = row
        # after the swap, row i is zero in column c, so the rows still to
        # clear are the other pivots; entries left of c vanish in rows r..
        below = pivots[1:] + r
        if m[r, c] != 1:
            m[r, c:] *= field.inverse(m[r, c])
            m[r, c:] %= p
        if below.size:
            block = m[below, c:]
            block -= m[below, c, None] * m[r, c:]
            block %= p
            m[below, c:] = block
        r += 1
    return m[:r]


def _product_dtype(n: int, p: int):
    """float32 while n*(p-1)^2 < 2^24, float64 while n*(p-1)^2 < 2^53,
    else int64.

    Each holds every partial sum of at most n products of entries in
    0..p-1 exactly, given the n*(p-1)^2 < 2^63 of _check_int64_exact: a
    nonnegative integer below 2^24 (2^53) is a float32 (float64), in any
    order of summation and with or without fused multiply-adds.
    """
    import numpy as np

    bound = n * (p - 1) ** 2
    if bound < _FLOAT32_EXACT:
        return np.float32
    return np.float64 if bound < _FLOAT64_EXACT else np.int64


def _storage_dtype(dtype):
    """The integer width that stores the matrices multiplied in dtype:
    int32 for float32, else int64.

    Equal itemsize, so _reduced_echelon reinterprets rows in place.  A
    product in float32 is below 2^24, and every value the oracle stores
    (entries, products, their differences) lies within +-2^24 there.
    """
    import numpy as np

    return np.int32 if dtype == np.float32 else np.int64


def _product(a: np.ndarray, b: np.ndarray, dtype) -> np.ndarray:
    """The exact product a @ b, for a and b with entries in 0..p-1, in the
    storage width _storage_dtype(dtype).

    Computed in dtype, which must be _product_dtype(k, p) for a k at
    least the inner dimension, so every partial sum is exact.  Callers
    reduce it mod p once, in the integer width, whose remainder is
    several times faster than a float remainder.
    """
    out = a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)
    return out.astype(_storage_dtype(dtype), copy=False)


def _reduced_echelon(
    m: np.ndarray, field: PrimeField, width: int, dtype
) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row-echelon basis of the row space of m over GF(p).

    Runs _echelon(m, field, width), whose pivots are 1, then
    back-substitutes bottom-up in slabs of _SLAB rows, by products only:
    one clears a slab's entries in the pivot columns of the finished rows
    below it, which leaves its triangle of pivot columns I + S with S
    strictly upper triangular; and the slab is multiplied by
    (I + S)^-1 = (I - S)(I + S^2)(I + S^4)..., which ends because S is
    nilpotent.  dtype must be _product_dtype(k, p) for a k at least the
    row count of m, which bounds the inner dimension of every product,
    and m must be in its storage width _storage_dtype(dtype): int32 for
    float32 products, int64 for float64 and int64 ones.  The elimination
    then stays within +-(p-1)^2 and each slab update within
    +-k*(p-1)^2, below the tier's bound (see _product_dtype).

    Returns the r pivot rows, with every pivot 1 and the only nonzero of
    its column, and their leading columns.  The rows are m[:r] in place,
    reinterpreted as dtype, whose itemsize the storage width shares and
    which holds them exactly; the rows below are as _echelon leaves them.
    """
    import numpy as np

    p = field.p
    rows = _echelon(m, field, width)
    r = rows.shape[0]
    lead = (rows[:, :width] != 0).argmax(axis=1)  # first nonzero of each row
    out = rows.view(dtype)
    for lo in range((r - 1) // _SLAB * _SLAB, -1, -_SLAB):
        slab = rows[lo : lo + _SLAB]
        hi = lo + slab.shape[0]
        # each step is skipped where it would not change the slab, as is
        # common for sparse inputs such as permuted Jordan blocks
        if hi < r:
            below = slab[:, lead[hi:]]
            if below.any():
                slab -= _product(below, out[hi:], dtype)
                slab %= p
        diagonal = np.arange(hi - lo)
        power = slab[:, lead[lo:hi]]  # I + S
        power[diagonal, diagonal] = 0
        if power.any():
            power = (p - power) % p  # -S
            inverse = power.copy()
            inverse[diagonal, diagonal] = 1
            while True:
                power = _product(power, power, dtype) % p
                if not power.any():
                    break
                # both are triangular, so the sum stays below n*(p-1)^2
                inverse += _product(inverse, power, dtype)
                inverse %= p
            np.remainder(_product(inverse, slab, dtype), p, out=slab)
        out[lo:hi] = slab  # converts the slab's memory to dtype
    return out, lead


def rank(a: np.ndarray, field: PrimeField) -> int:
    """Rank over GF(p) by Gaussian elimination.

    Row operations are vectorised with numpy but all arithmetic is exact
    int64 mod p.  Raises ShapeError above MAX_DIMENSION rows or columns
    and for ragged rows.
    """
    shape = _shape(a)
    if len(shape) != 2:
        raise ShapeError("rank expects a 2-d matrix")
    _check_dimension("rank input", max(shape))
    _check_int64_exact(shape[1], field.p)
    return int(_echelon(field.reduce(a), field).shape[0])


def sym_power(c: int, field: PrimeField) -> np.ndarray:
    """Action of the standard unipotent u = [[1,1],[0,1]] on the degree-c
    part of the symmetric algebra on two generators, in the monomial
    basis x^c, x^(c-1)y, ..., y^c.

    u sends x^(c-j) y^j to x^(c-j) (x+y)^j, so entry (i, j) is
    C(j, i) mod p: the matrix is built one column at a time by Pascal's
    rule.  It realizes the irreducible module of highest weight c when
    c <= p-1, and for p <= c <= 2p-2 its Jordan type matches the Weyl
    module of highest weight c (blocks of sizes p and c-p+1).

    Each step adds two reduced entries, which cannot overflow, but p
    must satisfy the (p-1)^2 < 2^63 of kronecker, which the tensor
    products of these matrices need, so that a module with one factor
    and one with several are refused alike; larger p raise ShapeError.
    """
    import numpy as np

    _check_int64_exact(1, field.p)
    if c < 0:
        raise ShapeError(f"negative exponent {c}")
    n = c + 1
    _check_dimension("symmetric power", n)
    out = np.zeros((n, n), dtype=np.int64)
    out[0] = 1  # C(j, 0)
    for j in range(1, n):
        # C(j, i) = C(j-1, i) + C(j-1, i-1); both vanish below the diagonal
        out[1:, j] = (out[1:, j - 1] + out[:-1, j - 1]) % field.p
    return out


def jordan_block_sizes(m: np.ndarray, field: PrimeField) -> tuple[int, ...]:
    """Partition of Jordan block sizes of a unipotent matrix of order <= p.

    Computed from the rank sequence of N = m - I: the number of blocks of
    size >= s is rank(N^(s-1)) - rank(N^s) = dim ker N^s - dim ker
    N^(s-1).  Raises ShapeError for ragged rows, above MAX_DIMENSION or
    unless n*(p-1)^2 < 2^63, the bound of the exact products (see the
    module docstring), and NotOrderPError unless N^p = 0 (equivalently,
    m is unipotent with all blocks <= p).  NotOrderPError is decided in
    this order: "matrix is not unipotent" when tr N != 0 mod p, by one
    sum of the reduced diagonal before any elimination (a nilpotent N
    has trace 0); then, for trace 0, by the walk below: "matrix is not
    unipotent" when the ranks of N^s stop falling above 0, and
    "(m - 1)^{p} != 0: element order exceeds p = {p}" when N^p != 0 is
    reached first.

    Every matrix is held in the narrowest exact width for n and p:
    int32 with float32 products while n*(p-1)^2 < 2^24, int64 with
    float64 products while n*(p-1)^2 < 2^53, int64 throughout beyond
    (_product_dtype, _storage_dtype).  Each product has inner dimension
    at most n, so its partial sums are integers below n*(p-1)^2.  The
    peak working set is [N | I] plus step_map: 11.5 MB for J(31) x J(31)
    at p = 31, about 12.4 n^2 bytes in the int32 tier (see the module
    docstring).

    N^s is never formed; the kernel chain is walked instead.  One
    elimination of [N | I], reduced by _reduced_echelon, gives the kernel
    K of N, the left kernel L (the right halves of the kappa = dim K rows
    whose left half vanished, one per Jordan block; im N is the set of w
    with L w = 0) and a preimage map on im N.  Since ker N^(s+1) is
    K + N^-1(ker N^s and im N), each step takes the L-images (kappa
    entries each) of the vectors new in ker N^s and reduces them against
    the at most kappa images kept so far.  Each combination with image 0
    lies in im N, and its preimage is a new vector of ker N^(s+1); so
    dim ker N^(s+1) - dim ker N^s is the number of them.  That is n pivot
    steps in all, rank N for [N | I] and kappa for the images, where the
    powers of N took the sum of their ranks, about n*p/2.
    """
    import numpy as np

    shape = _shape(m)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ShapeError("jordan type needs a square matrix")
    n = shape[0]
    p = field.p
    _check_dimension("jordan type input", n)
    _check_int64_exact(n, p)
    if n == 0:
        raise EmptyMatrixError("jordan type of a 0 x 0 matrix requested")
    dtype = _product_dtype(n, p)
    storage = _storage_dtype(dtype)
    # [N | I] with N = m - I
    aug = np.zeros((n, 2 * n), dtype=storage)
    field.reduce(m, out=aug[:, :n])
    diagonal = np.arange(n)
    shifted = (aug[diagonal, diagonal] - 1) % p
    # a nilpotent N has trace 0: refuse a nonzero trace before eliminating
    if int(shifted.sum()) % p:
        raise NotOrderPError("matrix is not unipotent")
    aug[diagonal, diagonal] = shifted
    aug[diagonal, n + diagonal] = 1
    reduced, pivot = _reduced_echelon(aug, field, n, dtype)
    r = reduced.shape[0]
    kappa = n - r
    left = aug[r:, n:]  # kappa x n: w is in im N iff left @ w = 0
    free = np.ones(n, dtype=bool)
    free[pivot] = False
    free = free.nonzero()[0]
    # A vector x is carried as z(x) = [left @ x | right @ x], where right
    # is the right half of the reduced rows: for x in im N, the y with
    # y[pivot] = right @ x and y[free] = 0 solves N y = x, and
    # z(y) = (right @ x) @ step_map.
    # built as its transpose, so that take copies the pivot columns of
    # the reduced rows straight into it: every index is in range, and
    # mode="clip", unlike the default "raise", needs no temporary copy
    step_t = np.empty((kappa + r, r), dtype=dtype)
    step_t[:kappa] = left[:, pivot]
    np.take(reduced, n + pivot, axis=1, out=step_t[kappa:], mode="clip")
    step_map = step_t.T
    # the kernel of N: for each free column f, e_f minus the reduced rows'
    # entries of column f at the pivot columns
    z = np.empty((kappa, kappa + r), dtype=storage)
    z[:, :kappa] = left[:, free].T
    z[:, kappa:] = reduced[:, n + free].T
    z -= _product(reduced[:, free].T, step_map, dtype)
    z %= p
    del aug, reduced, left
    kept = np.zeros((0, kappa + r), dtype=storage)  # [image | preimage] rows
    kept_pivot = np.zeros(0, dtype=np.intp)
    ranks = [n]
    rank_s = r
    s = 1
    while True:
        if rank_s >= ranks[-1] and rank_s > 0:
            # rank sequence stabilised above zero: not nilpotent
            raise NotOrderPError("matrix is not unipotent")
        ranks.append(rank_s)
        if rank_s == 0:
            break
        if s == p:
            raise NotOrderPError(
                f"(m - 1)^{p} != 0: element order exceeds p = {p}"
            )
        # z holds the vectors of ker N^s that are new since ker N^(s-1):
        # reduce their images against the kept ones (kept is reduced on
        # the image columns), then keep the independent rest
        killed = z[:, kappa:]
        if z[:, :kappa].any():
            z -= _product(z[:, kept_pivot], kept, dtype)
            z %= p
            found, lead = _reduced_echelon(z, field, kappa, dtype)
            kept -= _product(kept[:, lead], found, dtype)
            kept %= p
            kept = np.concatenate((kept, found.astype(storage)))
            kept_pivot = np.concatenate((kept_pivot, lead))
            killed = z[found.shape[0] :, kappa:]
        # the rest have image 0, so they lie in im N, and their preimages
        # are the new vectors of ker N^(s+1)
        z = _product(killed, step_map, dtype) % p
        rank_s -= killed.shape[0]
        s += 1
    at_least = [ranks[i - 1] - ranks[i] for i in range(1, len(ranks))]
    at_least.append(0)
    blocks: list[int] = []
    for size in range(len(at_least) - 1, 0, -1):
        blocks.extend([size] * (at_least[size - 1] - at_least[size]))
    return tuple(sorted(blocks, reverse=True))
