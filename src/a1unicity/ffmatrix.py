"""Exact dense linear algebra over the prime field GF(p).

This module is the ground truth for every Jordan-type claim in the
package: matrices are numpy int64 arrays with entries reduced to
canonical representatives 0..p-1, and rank is computed by Gaussian
elimination in exact modular arithmetic.

Elimination runs in int64, whose products of two reduced entries stay
below 2^63 while (p-1)^2 < 2^63.  The Jordan-type oracle also multiplies
an r x n matrix by an n x n one; each entry of such a product is a sum
of n terms below (p-1)^2, so it runs in float64 BLAS while
n*(p-1)^2 < 2^53 (every partial sum is then an integer that float64
holds exactly) and in int64 while n*(p-1)^2 < 2^63.  rank and
jordan_block_sizes raise ShapeError beyond the int64 bound instead of
overflowing; so do kronecker and sym_power, which need (p-1)^2 < 2^63.

Only the prime subfield is ever needed: all matrices built here (Jordan
blocks, Kronecker products, symmetric powers of the standard unipotent)
have entries in GF(p), and the Frobenius endomorphism fixes them.

numpy is imported by each function that builds or reduces a matrix, on
its first call, not with the module: the closed-form queries (tensor,
module, classify, witnesses, enumerate) build no matrix and never load
it.  The module itself still loads with the package, because is_prime
and PrimeField serve every query, selfcheck imports the matrix
functions, and the benchmark tracer wraps them by module name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import (
    DomainError,
    EmptyMatrixError,
    NotOrderPError,
    NotPrimeError,
    OrderExceedsPError,
    ShapeError,
)

if TYPE_CHECKING:
    import numpy as np

# Dense matrices only; desk-scale checks stay far below this.
MAX_DIMENSION = 4096

# Integers up to these bounds are exact in float64 and in int64.
_FLOAT64_EXACT = 2**53
_INT64_EXACT = 2**63


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


@dataclass(frozen=True)
class PrimeField:
    """The field GF(p) for a prime p >= 2."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise NotPrimeError(f"{self.p} is not a prime")

    def reduce(self, a) -> np.ndarray:
        """Return a as an int64 array with entries in 0..p-1."""
        import numpy as np

        return np.asarray(a, dtype=np.int64) % self.p

    def inverse(self, a: int) -> int:
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(p)")
        return pow(a, self.p - 2, self.p)


def identity(n: int) -> np.ndarray:
    import numpy as np

    if n <= 0:
        raise EmptyMatrixError("identity of size 0 requested")
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
    a = identity(m)
    for i in range(m - 1):
        a[i, i + 1] = 1
    return a


def kronecker(a: np.ndarray, b: np.ndarray, field: PrimeField) -> np.ndarray:
    """Kronecker product reduced mod p.

    Each entry is one product of reduced entries, so p needs
    (p-1)^2 < 2^63; larger p raise ShapeError.
    """
    import numpy as np

    _check_int64_exact(1, field.p)
    a = field.reduce(a)
    b = field.reduce(b)
    if a.shape[0] * b.shape[0] > MAX_DIMENSION:
        raise ShapeError(
            f"kronecker result dimension {a.shape[0] * b.shape[0]} exceeds "
            f"the configured bound {MAX_DIMENSION}"
        )
    return np.kron(a, b) % field.p


def block_diagonal(blocks, field: PrimeField) -> np.ndarray:
    """Assemble square blocks into one block-diagonal matrix mod p."""
    import numpy as np

    blocks = [field.reduce(b) for b in blocks]
    if not blocks:
        raise EmptyMatrixError("no blocks given")
    n = sum(b.shape[0] for b in blocks)
    if n > MAX_DIMENSION:
        raise ShapeError(
            f"block-diagonal dimension {n} exceeds the configured bound "
            f"{MAX_DIMENSION}"
        )
    out = np.zeros((n, n), dtype=np.int64)
    at = 0
    for b in blocks:
        k = b.shape[0]
        out[at : at + k, at : at + k] = b
        at += k
    return out


def _check_int64_exact(n: int, p: int) -> None:
    """Reject inputs whose sums of n products mod p could overflow int64."""
    if n * (p - 1) ** 2 >= _INT64_EXACT:
        raise ShapeError(
            f"n = {n} over GF({p}) needs n*(p-1)^2 < 2^63 for exact int64 arithmetic"
        )


def _echelon(m: np.ndarray, field: PrimeField) -> np.ndarray:
    """Row-echelon basis of the row space of m over GF(p).

    m must be int64 with entries in 0..p-1; it is overwritten.  Returns
    the nonzero rows, one per pivot.
    """
    import numpy as np

    p = field.p
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivots = m[r:, c].nonzero()[0]
        if pivots.size == 0:
            continue
        i = r + int(pivots[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        # entries left of c vanish in rows r.. , so work on columns c.. only
        m[r, c:] = (m[r, c:] * field.inverse(m[r, c])) % p
        # after the swap, row i is zero in column c, so the rows still to
        # clear are the other pivots
        below = pivots[1:] + r
        if below.size:
            block = m[below, c:]
            block -= np.outer(block[:, 0], m[r, c:])
            block %= p
            m[below, c:] = block
        r += 1
    return m[:r]


def rank(a: np.ndarray, field: PrimeField) -> int:
    """Rank over GF(p) by Gaussian elimination.

    Row operations are vectorised with numpy but all arithmetic is exact
    int64 mod p.
    """
    m = field.reduce(a)
    if m.ndim != 2:
        raise ShapeError("rank expects a 2-d matrix")
    _check_int64_exact(m.shape[1], field.p)
    return int(_echelon(m, field).shape[0])


def _multiply_linear_power(
    coeffs: np.ndarray, alpha: int, beta: int, k: int, p: int
) -> np.ndarray:
    """Multiply a binary-form coefficient vector by (alpha*x + beta*y)^k.

    Coefficients are indexed by y-degree.
    """
    import numpy as np

    for _ in range(k):
        new = np.zeros(coeffs.size + 1, dtype=np.int64)
        new[: coeffs.size] = (alpha * coeffs) % p
        new[1:] = (new[1:] + beta * coeffs) % p
        coeffs = new
    return coeffs


def sym_power(a: np.ndarray, c: int, field: PrimeField) -> np.ndarray:
    """Action induced on the degree-c part of the symmetric algebra on two
    generators, in the monomial basis x^c, x^(c-1)y, ..., y^c.

    For the standard unipotent u = [[1,1],[0,1]] this realizes the
    irreducible module of highest weight c when c <= p-1, and for
    p <= c <= 2p-2 its Jordan type matches the Weyl module of highest
    weight c (blocks of sizes p and c-p+1).

    Each step adds one product of reduced entries to a reduced entry,
    which stays below 2^63 whenever (p-1)^2 < 2^63; larger p raise
    ShapeError.
    """
    import numpy as np

    _check_int64_exact(1, field.p)
    a = field.reduce(a)
    if a.shape != (2, 2):
        raise ShapeError(f"sym_power expects a 2x2 matrix, got {a.shape}")
    if c < 0:
        raise ShapeError(f"negative exponent {c}")
    p = field.p
    n = c + 1
    out = np.zeros((n, n), dtype=np.int64)
    for j in range(n):
        # image of x^(c-j) y^j under x -> a00 x + a10 y, y -> a01 x + a11 y
        poly = np.ones(1, dtype=np.int64)
        poly = _multiply_linear_power(poly, int(a[0, 0]), int(a[1, 0]), c - j, p)
        poly = _multiply_linear_power(poly, int(a[0, 1]), int(a[1, 1]), j, p)
        out[: poly.size, j] = poly
    return out


def jordan_block_sizes(m: np.ndarray, field: PrimeField) -> tuple[int, ...]:
    """Partition of Jordan block sizes of a unipotent matrix of order <= p.

    Computed from the rank sequence of N = m - I: the number of blocks of
    size >= s equals rank(N^(s-1)) - rank(N^s).  Raises NotOrderPError
    unless N^p = 0 (equivalently, m is unipotent with all blocks <= p).

    N^s is never formed: row(N^s) = row(N^(s-1)) N, so an echelon basis of
    row(N^(s-1)) is pushed through N and reduced again, and it shrinks at
    every step.
    """
    import numpy as np

    nil = field.reduce(m)
    if nil.ndim != 2 or nil.shape[0] != nil.shape[1]:
        raise ShapeError("jordan type needs a square matrix")
    n = nil.shape[0]
    p = field.p
    _check_int64_exact(n, p)
    nil -= identity(n)
    nil %= p
    # every entry of basis @ nil is a sum of n products below (p-1)^2
    exact_dtype = np.float64 if n * (p - 1) ** 2 < _FLOAT64_EXACT else np.int64
    right = nil.astype(exact_dtype)
    ranks = [n]
    basis = _echelon(nil, field)
    s = 1
    while True:
        r = basis.shape[0]
        if r >= ranks[-1] and r > 0:
            # rank sequence stabilised above zero: not nilpotent
            raise NotOrderPError("matrix is not unipotent")
        ranks.append(r)
        if r == 0:
            break
        if s == p:
            raise NotOrderPError(
                f"(m - 1)^{p} != 0: element order exceeds p = {p}"
            )
        basis = basis.astype(exact_dtype, copy=False) @ right
        basis %= p
        basis = _echelon(basis.astype(np.int64, copy=False), field)
        s += 1
    at_least = [ranks[i - 1] - ranks[i] for i in range(1, len(ranks))]
    at_least.append(0)
    blocks: list[int] = []
    for size in range(len(at_least) - 1, 0, -1):
        blocks.extend([size] * (at_least[size - 1] - at_least[size]))
    return tuple(sorted(blocks, reverse=True))
