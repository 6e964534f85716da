import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from a1unicity import ffmatrix, sl2modules
from a1unicity.errors import (
    DomainError,
    EmptyMatrixError,
    NotOrderPError,
    NotPrimeError,
    OrderExceedsPError,
    ShapeError,
)
from a1unicity.ffmatrix import (
    MAX_DIMENSION,
    PrimeField,
    block_diagonal,
    identity,
    is_prime,
    jordan_block_sizes,
    kronecker,
    rank,
    sym_power,
    unipotent_jordan_block,
)
from a1unicity.jordan import tensor_pair, tensor_pair_oracle


def test_prime_field_rejects_composites():
    for bad in (0, 1, 4, 6, 9, 15):
        with pytest.raises(NotPrimeError):
            PrimeField(bad)
    for good in (2, 3, 5, 7, 11, 13):
        assert PrimeField(good).p == good


def test_jordan_block_examples():
    f5 = PrimeField(5)
    assert np.array_equal(
        unipotent_jordan_block(f5, 3), [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    )
    assert np.array_equal(unipotent_jordan_block(f5, 1), [[1]])
    with pytest.raises(OrderExceedsPError):
        unipotent_jordan_block(PrimeField(3), 4)
    with pytest.raises(EmptyMatrixError):
        unipotent_jordan_block(f5, 0)


def test_kronecker_identities():
    f5 = PrimeField(5)
    assert np.array_equal(
        kronecker(ffmatrix.identity(2), ffmatrix.identity(3), f5), ffmatrix.identity(6)
    )
    j2 = unipotent_jordan_block(f5, 2)
    assert jordan_block_sizes(kronecker(j2, j2, f5), f5) == (3, 1)
    j5 = unipotent_jordan_block(f5, 5)
    assert jordan_block_sizes(kronecker(j2, j5, f5), f5) == (5, 5)


def test_sym_power_degree_two_matrix():
    f5 = PrimeField(5)
    assert np.array_equal(sym_power(2, f5), [[1, 1, 1], [0, 1, 2], [0, 0, 1]])


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31])
def test_sym_power_is_pascal_mod_p(p):
    """Entry (i, j) is C(j, i) mod p: u sends x^(c-j) y^j to
    x^(c-j) (x+y)^j."""
    field = PrimeField(p)
    for c in range(2 * p - 1):
        got = sym_power(c, field)
        assert got.dtype == np.int64
        assert got.tolist() == [
            [math.comb(j, i) % p for j in range(c + 1)] for i in range(c + 1)
        ]


def test_sym_power_jordan_types():
    f5 = PrimeField(5)
    assert jordan_block_sizes(sym_power(4, f5), f5) == (5,)
    assert jordan_block_sizes(sym_power(8, f5), f5) == (5, 4)
    f7 = PrimeField(7)
    assert jordan_block_sizes(sym_power(3, f7), f7) == (4,)


def test_sym_power_rejects_negative_degree():
    f5 = PrimeField(5)
    with pytest.raises(ShapeError):
        sym_power(-1, f5)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_sym_power_block_structure_all_degrees(p):
    field = PrimeField(p)
    for c in range(p):
        assert jordan_block_sizes(sym_power(c, field), field) == (c + 1,)
    for c in range(p, 2 * p - 1):
        expected = tuple(sorted((p, c - p + 1), reverse=True))
        assert jordan_block_sizes(sym_power(c, field), field) == expected


def test_jordan_type_identity_and_products():
    f7 = PrimeField(7)
    assert jordan_block_sizes(ffmatrix.identity(4), f7) == (1, 1, 1, 1)
    f5 = PrimeField(5)
    prod = kronecker(
        unipotent_jordan_block(f5, 2), unipotent_jordan_block(f5, 3), f5
    )
    assert jordan_block_sizes(prod, f5) == (4, 2)


def test_jordan_type_rejects_order_above_p():
    f3 = PrimeField(3)
    big = np.eye(4, dtype=np.int64)
    for i in range(3):
        big[i, i + 1] = 1  # one block of size 4 > 3
    with pytest.raises(NotOrderPError):
        jordan_block_sizes(big, f3)


def test_jordan_type_rejects_non_unipotent():
    f5 = PrimeField(5)
    with pytest.raises(NotOrderPError):
        jordan_block_sizes(2 * ffmatrix.identity(3), f5)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_single_block_round_trip(p):
    field = PrimeField(p)
    for m in range(1, p + 1):
        assert jordan_block_sizes(unipotent_jordan_block(field, m), field) == (m,)


def test_kronecker_of_order_p_matrices_stays_order_p():
    for p in (3, 5):
        field = PrimeField(p)
        for m in range(1, p + 1):
            for n in range(1, p + 1):
                prod = kronecker(
                    unipotent_jordan_block(field, m),
                    unipotent_jordan_block(field, n),
                    field,
                )
                blocks = jordan_block_sizes(prod, field)  # must not raise
                assert sum(blocks) == m * n
                assert all(b <= p for b in blocks)


def test_rank_examples():
    f5 = PrimeField(5)
    assert rank(ffmatrix.identity(4), f5) == 4
    assert rank(np.zeros((3, 3), dtype=np.int64), f5) == 0
    a = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]])  # row 2 = 2 * row 1 mod 5
    assert rank(a, f5) == 2


@pytest.mark.parametrize("m, n, p", [(20, 23, 23), (17, 26, 29), (31, 31, 31)])
def test_oracle_matches_closed_form_on_large_pairs(m, n, p):
    assert tensor_pair_oracle(m, n, p) == tensor_pair(m, n, p)


def test_oracle_int64_path_matches_closed_form():
    p = 100000007
    assert (p - 1) ** 2 >= 2**53  # so the products run in int64
    for m in range(1, 6):
        for n in range(m, 7):
            assert tensor_pair_oracle(m, n, p) == tensor_pair(m, n, p)


_PERMUTATION = np.random.default_rng(12).permutation(12)


def _conjugate(a):
    """P a P^-1 for the permutation matrix P of _PERMUTATION."""
    return a[np.ix_(_PERMUTATION, _PERMUTATION)]


def test_rejections_survive_conjugation():
    f5 = PrimeField(5)
    long_block = np.eye(12, dtype=np.int64)
    for i in range(6):
        long_block[i, i + 1] = 1  # J(7) + 5 * J(1): order 25 > 5
    with pytest.raises(NotOrderPError) as err:
        jordan_block_sizes(_conjugate(long_block), f5)
    assert str(err.value) == "(m - 1)^5 != 0: element order exceeds p = 5"

    mixed = np.eye(12, dtype=np.int64)
    for i in range(2):
        mixed[i, i + 1] = 1
    mixed[11, 11] = 2  # eigenvalue 2: ranks of N^s stabilise at 1
    with pytest.raises(NotOrderPError) as err:
        jordan_block_sizes(_conjugate(mixed), f5)
    assert str(err.value) == "matrix is not unipotent"
    # the same conjugate is a legal element once p admits the block
    assert jordan_block_sizes(_conjugate(long_block), PrimeField(7)) == (7,) + (1,) * 5


def _rank_one(p):
    """2 x 2 matrix of rank 1 over GF(p): row 2 is (p - 3) * row 1."""
    return np.array([[1, p - 2], [p - 3, (p - 2) * (p - 3) % p]])


def _square_zero_unipotent(p):
    """I + v w^T with w.v = p, so (m - 1)^2 = 0 and the type is (2, 1)."""
    v = np.array([1, p - 2, 3])
    w = np.array([2, 1, 0])
    return (np.eye(3, dtype=np.int64) + np.outer(v, w)) % p


def test_int64_overflow_is_rejected():
    field = PrimeField(4294967311)  # (p - 1)^2 > 2^63
    with pytest.raises(ShapeError):
        rank(_rank_one(field.p), field)
    with pytest.raises(ShapeError) as err:
        jordan_block_sizes(_square_zero_unipotent(field.p), field)
    assert "\n" not in str(err.value)


def test_large_primes_below_int64_bound():
    p = 2147483647  # 2 * (p - 1)^2 < 2^63
    assert rank(_rank_one(p), PrimeField(p)) == 1
    p = 1000000007  # 3 * (p - 1)^2 < 2^63
    assert jordan_block_sizes(_square_zero_unipotent(p), PrimeField(p)) == (2, 1)


def test_kronecker_and_sym_power_reject_int64_overflow():
    field = PrimeField(4294967311)  # (p - 1)^2 > 2^63
    with pytest.raises(ShapeError):
        kronecker([[field.p - 1]], [[field.p - 1]], field)
    with pytest.raises(ShapeError):
        sym_power(2, field)
    field = PrimeField(2147483647)  # (p - 1)^2 < 2^63: exact
    assert kronecker([[field.p - 1]], [[field.p - 1]], field).tolist() == [[1]]
    assert sym_power(2, field).tolist() == [[1, 1, 1], [0, 1, 2], [0, 0, 1]]


def test_is_prime_agrees_with_trial_division_below_200000():
    limit = 200000
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for d in range(2, int(limit**0.5) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, limit, d)))
    assert [n for n in range(limit) if is_prime(n)] == [
        n for n in range(limit) if sieve[n]
    ]


def test_is_prime_rejects_strong_pseudoprimes():
    assert not is_prime(3215031751)  # to bases 2, 3, 5, 7
    assert not is_prime(3825123056546413051)  # to every base up to 23
    assert not is_prime(318665857834031151167461)  # to every base up to 37
    assert is_prime(2147483647) and is_prime(4294967311)


def test_is_prime_is_fast_on_large_primes():
    start = time.perf_counter()
    assert is_prime.__wrapped__(100000000000031)
    assert time.perf_counter() - start < 0.05


def test_is_prime_refuses_beyond_its_exact_range():
    with pytest.raises(DomainError) as err:
        is_prime(10**25 + 7)  # no factor up to 41
    assert "\n" not in str(err.value)
    assert not is_prime(10**25 + 1)  # 11 divides it
    with pytest.raises(DomainError):
        PrimeField(10**25 + 7)


def test_reduce_refuses_float_entries():
    # a cast would truncate 1.5 to 1 and answer (2,)
    with pytest.raises(ShapeError) as err:
        jordan_block_sizes(np.array([[1.5, 1.0], [0.0, 1.0]]), PrimeField(5))
    assert str(err.value) == "matrix entries must be integers, not float64"


def test_reduce_refuses_complex_entries_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a cast would warn and drop the imaginary part
        with pytest.raises(ShapeError) as err:
            jordan_block_sizes(np.array([[1 + 1j, 1], [0, 1]]), PrimeField(5))
    assert "\n" not in str(err.value)


def test_reduce_is_exact_on_integers_beyond_int64():
    field = PrimeField(5)
    assert jordan_block_sizes([[1, 10**30], [0, 1]], field) == (1, 1)
    assert jordan_block_sizes([[1, 10**30 + 1], [0, 1]], field) == (2,)
    assert rank([[10**30 + 2, 2**64 + 3]], field) == 1
    big = np.array([[1, 2**64 - 6], [0, 1]], dtype=np.uint64)  # 2^64 - 6 = 0 mod 5
    assert jordan_block_sizes(big, field) == (1, 1)


def test_reduce_refuses_string_entries():
    with pytest.raises(ShapeError) as err:
        jordan_block_sizes([["1", "1"], ["0", "1"]], PrimeField(5))
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("a", [
    np.array([[True, False], [False, True]]),
    np.array([[-1, 12], [-13, 0]], dtype=np.int8),
    np.array([[-1, 12], [-13, 0]], dtype=np.int32),
    np.array([[-1, 12], [-13, 0]], dtype=np.int64),
    np.array([[255, 12], [13, 0]], dtype=np.uint8),
    np.array([[-1, 10**30], [-13, 0]], dtype=object),
], ids=["bool", "int8", "int32", "int64", "uint8", "object"])
@pytest.mark.parametrize("p", [5, 100000007])
def test_reduce_into_out_matches_reduce(a, p):
    field = PrimeField(p)
    for out_dtype in (np.int32, np.int64):
        out = np.full(a.shape, 7, dtype=out_dtype)
        assert field.reduce(a, out=out) is out
        assert out.tolist() == field.reduce(a).tolist() == (a.astype(object) % p).tolist()


def test_oracle_peak_is_its_working_set():
    """J(31) x J(31) at p = 31 runs in the int32 tier: [N | I] takes 8 n^2
    bytes and step_map at most 4 n^2.  The input is reduced straight into
    [N | I], so no int64 copy of it (8 n^2 more) is made."""
    field = PrimeField(31)
    block = unipotent_jordan_block(field, 31)
    m = kronecker(block, block, field)
    n = m.shape[0]
    tracemalloc.start()
    try:
        assert jordan_block_sizes(m, field) == (31,) * 31
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * n * n < peak < 13 * n * n


# product width -> storage width of each tier, and a prime whose products
# at inner dimension <= 40 run in that tier
_TIERS = {13: (np.float32, np.int32), 4099: (np.float64, np.int64),
          100000007: (np.int64, np.int64)}


@pytest.mark.parametrize("p", [13, 4099, 100000007])
def test_product_is_the_exact_integer_product(p):
    rng = np.random.default_rng(p)
    for k in (1, 7, 40):
        a = rng.integers(0, p, (5, k))
        b = rng.integers(0, p, (k, 6))
        want = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b.tolist())]
                for row in a.tolist()]
        assert ffmatrix._product_dtype(k, p) == _TIERS[p][0]
        # the tier's float path where it is exact, and the int64 path, each
        # returning its storage width
        for dtype, storage in {_TIERS[p], (np.int64, np.int64)}:
            got = ffmatrix._product(a, b, dtype)
            assert got.dtype == storage
            assert got.tolist() == want


def test_float32_product_is_exact_up_to_its_bound():
    # every entry p - 1 and the sum k * (p - 1)^2 just below 2^24
    p, k = 13, 116508
    assert k * (p - 1) ** 2 < 2**24 <= (k + 1) * (p - 1) ** 2
    assert ffmatrix._product_dtype(k, p) == np.float32
    assert ffmatrix._product_dtype(k + 1, p) == np.float64
    a = np.full((1, k), p - 1, dtype=np.int32)
    got = ffmatrix._product(a, a.T, np.float32)
    assert got.dtype == np.int32
    assert got.tolist() == [[k * (p - 1) ** 2]]


def test_block_diagonal_rejects_oversized_result():
    assert block_diagonal([identity(2), identity(1)]).shape == (3, 3)
    with pytest.raises(ShapeError):
        block_diagonal([identity(MAX_DIMENSION), identity(1)])


def _reference_echelon(rows, p):
    """Row-echelon rows, with unit pivots, of a list-of-lists matrix over GF(p).

    Plain Python integers throughout, so it shares no code with _echelon.
    """
    rows = [list(row) for row in rows]
    out = []
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((row for row in rows if row[c] % p), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = pow(pivot[c], p - 2, p)
        pivot = [x * inv % p for x in pivot]
        rows = [[(x - row[c] * y) % p for x, y in zip(row, pivot)] for row in rows]
        out.append(pivot)
    return out


_ECHELON_PRIMES = (2, 3, 5, 13, 4099, 100000007, 2147483647)


@st.composite
def _echelon_inputs(draw):
    """A matrix over GF(p), at most 30 x 30, with zero columns and repeated rows."""
    p = draw(st.sampled_from(_ECHELON_PRIMES))
    rows = draw(st.integers(1, 30))
    cols = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((0.1, 0.3, 1.0)))
    m = rng.integers(0, p, (rows, cols)) * (rng.random((rows, cols)) < density)
    m[:, rng.random(cols) < draw(st.sampled_from((0.0, 0.3)))] = 0
    for _ in range(draw(st.integers(0, rows - 1))):
        i, j = rng.integers(0, rows, 2)
        m[i] = m[j] * int(rng.integers(0, p)) % p  # a repeated or scaled row
    return m.astype(np.int64), p


@settings(max_examples=150, deadline=None)
@given(_echelon_inputs())
def test_echelon_matches_reference_elimination(case):
    m, p = case
    want = _reference_echelon(m.tolist(), p)
    got = ffmatrix._echelon(m.copy(), PrimeField(p)).tolist()
    assert len(got) == len(want)
    assert all(0 <= x < p for row in got for x in row)
    leads = [next(c for c, x in enumerate(row) if x) for row in got]
    assert leads == sorted(set(leads))  # strictly increasing, so rows are nonzero
    assert [row[c] for row, c in zip(got, leads)] == [1] * len(got)
    # equal rank and no growth when stacked: the two row spaces coincide
    assert len(_reference_echelon(got + want, p)) == len(want)


@settings(max_examples=150, deadline=None)
@given(_echelon_inputs(), st.sampled_from((1, 3, ffmatrix._SLAB)))
def test_reduced_echelon_matches_reference_elimination(case, slab):
    m, p = case
    rows, cols = m.shape
    assume(rows * (p - 1) ** 2 < 2**63)  # the products' exactness bound
    want = _reference_echelon(m.tolist(), p)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ffmatrix, "_SLAB", slab)  # 1 and 3 split m into slabs
        dtype = ffmatrix._product_dtype(rows, p)
        stored = m.astype(ffmatrix._storage_dtype(dtype))  # the tier's storage width
        got, lead = ffmatrix._reduced_echelon(stored, PrimeField(p), cols, dtype)
    got = got.astype(np.int64).tolist()
    assert len(got) == len(want)
    # the pivot columns are those of every echelon basis of the row space
    assert lead.tolist() == [next(c for c, x in enumerate(row) if x) for row in want]
    # each pivot is 1 and the only nonzero of its column
    assert [[row[c] for c in lead] for row in got] == np.eye(len(got), dtype=int).tolist()
    assert len(_reference_echelon(got + want, p)) == len(want)


def _reference_jordan_type(m, p):
    """Jordan type of m from the ranks of the explicit powers of N = m - 1.

    Plain Python integers and _reference_echelon; it stops and raises as
    jordan_block_sizes is specified to.
    """
    n = len(m)
    nil = [[(x - (i == j)) % p for j, x in enumerate(row)] for i, row in enumerate(m)]
    columns = list(zip(*nil))
    power, ranks = nil, [n]
    while True:
        r = len(_reference_echelon(power, p))
        if r >= ranks[-1] and r > 0:
            raise NotOrderPError("matrix is not unipotent")
        ranks.append(r)
        if r == 0:
            break
        if len(ranks) - 1 == p:
            raise NotOrderPError(f"(m - 1)^{p} != 0: element order exceeds p = {p}")
        power = [[sum(x * y for x, y in zip(row, col)) % p for col in columns] for row in power]
    # ranks[s - 1] - ranks[s] blocks have size >= s
    at_least = [ranks[s - 1] - ranks[s] for s in range(1, len(ranks))] + [0]
    return tuple(
        size
        for size in range(len(at_least) - 1, 0, -1)
        for _ in range(at_least[size - 1] - at_least[size])
    )


def _jordan_matrix(blocks):
    """Unipotent matrix in Jordan form with the given block sizes."""
    a = np.eye(sum(blocks), dtype=np.int64)
    at = 0
    for b in blocks:
        for i in range(at, at + b - 1):
            a[i, i + 1] = 1
        at += b
    return a


def _conjugate_randomly(a, p, rng):
    """g a g^-1 for g a random permutation times 2n elementary matrices."""
    n = a.shape[0]
    perm = rng.permutation(n)
    a = a[np.ix_(perm, perm)] % p
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.choice(n, 2, replace=False)
        c = int(rng.integers(1, p))
        a[i] = (a[i] + c * a[j]) % p  # E a, with E = 1 + c e_ij
        a[:, j] = (a[:, j] - c * a[:, i]) % p  # (E a) E^-1
    return a


# at n <= 20, 13 and below run float32 products, 4099 float64 ((p-1)^2
# >= 2^24) and the last int64
_ORACLE_PRIMES = (2, 3, 5, 7, 13, 4099, 100000007)


@st.composite
def _oracle_inputs(draw):
    """An n x n matrix over GF(p), n <= 20: a conjugated unipotent with blocks
    up to p + 2, an upper unitriangular, a random, or a conjugated unipotent
    with one eigenvalue changed."""
    p = draw(st.sampled_from(_ORACLE_PRIMES))
    kind = draw(st.sampled_from(("unipotent", "unitriangular", "random", "perturbed")))
    n = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "unitriangular":
        upper = rng.integers(0, p, (n, n)) * (rng.random((n, n)) < rng.random())
        return np.eye(n, dtype=np.int64) + np.triu(upper, 1), p
    if kind == "random":
        return rng.integers(0, p, (n, n)), p
    blocks = []
    while sum(blocks) < n:
        blocks.append(int(rng.integers(1, min(p + 2, n - sum(blocks)) + 1)))
    a = _jordan_matrix(blocks)
    if kind == "perturbed":
        i = int(rng.integers(0, n))
        a[i, i] = int(rng.integers(0, p))
    return _conjugate_randomly(a, p, rng), p


def _outcome(fn, m, p):
    try:
        return fn(m, p)
    except NotOrderPError as err:
        return str(err)


@settings(max_examples=250, deadline=None)
@given(_oracle_inputs(), st.sampled_from((1, 3, ffmatrix._SLAB)))
def test_oracle_matches_reference_ranks_of_powers(case, slab):
    m, p = case
    want = _outcome(_reference_jordan_type, m.tolist(), p)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ffmatrix, "_SLAB", slab)  # 1 and 3 split [N | I] into slabs
        got = _outcome(lambda a, q: jordan_block_sizes(a, PrimeField(q)), m, p)
    assert got == want


@pytest.mark.parametrize("m, n, dtype", [(4, 4, np.float32), (1, 17, np.float64)])
def test_oracle_width_tier_boundary(m, n, dtype):
    """At p = 1021, 16 * 1020^2 < 2^24 <= 17 * 1020^2: a 16 x 16 input runs
    float32 products and a 17 x 17 one float64, and both are exact on
    dense conjugates of J(m) x J(n)."""
    p = 1021
    field = PrimeField(p)
    a = kronecker(unipotent_jordan_block(field, m), unipotent_jordan_block(field, n), field)
    a = _conjugate_randomly(a, p, np.random.default_rng(m * n))
    seen = set()
    product = ffmatrix._product

    def spy(x, y, width):
        seen.add(width)
        return product(x, y, width)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ffmatrix, "_product", spy)
        got = jordan_block_sizes(a, field)
    assert seen == {dtype}
    assert got == tensor_pair(m, n, p).blocks


_F5 = PrimeField(5)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: _F5.inverse(0), ZeroDivisionError, "0 has no inverse in GF(p)"),
        (lambda: identity(0), EmptyMatrixError, "identity of size 0 requested"),
        (lambda: unipotent_jordan_block(_F5, -1), ShapeError, "negative block size -1"),
        (lambda: block_diagonal([]), EmptyMatrixError, "no blocks given"),
        (lambda: rank([1, 2], _F5), ShapeError, "rank expects a 2-d matrix"),
        (
            lambda: jordan_block_sizes(np.zeros((2, 3), dtype=np.int64), _F5),
            ShapeError,
            "jordan type needs a square matrix",
        ),
        (
            lambda: jordan_block_sizes(np.zeros((0, 0), dtype=np.int64), _F5),
            EmptyMatrixError,
            "jordan type of a 0 x 0 matrix requested",
        ),
    ],
    ids=["inverse-0", "identity-0", "negative-block", "no-blocks", "rank-1d",
         "jordan-2x3", "jordan-0x0"],
)
def test_refusals_name_their_cause(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


def test_oracle_and_rank_refuse_oversized_matrices():
    # a broadcast view: the refusal must come before any copy is made
    big = np.broadcast_to(np.int64(1), (MAX_DIMENSION + 1, MAX_DIMENSION + 1))
    field = PrimeField(5)
    want = f"dimension {MAX_DIMENSION + 1} exceeds the configured bound {MAX_DIMENSION}"
    for fn in (jordan_block_sizes, rank):
        with pytest.raises(ShapeError) as err:
            fn(big, field)
        assert want in str(err.value) and "\n" not in str(err.value)
    with pytest.raises(ShapeError):
        rank(big[:2], field)  # a wide matrix is refused as well
    assert rank(big[:2, :MAX_DIMENSION], field) == 1


@pytest.mark.parametrize("ragged", [[[1, 2], [3]], [[1, [2]], [0, 1]]])
def test_oracle_and_rank_refuse_ragged_rows(ragged):
    for fn in (jordan_block_sizes, rank):
        with pytest.raises(ShapeError) as err:
            fn(ragged, PrimeField(5))
        assert str(err.value) == "matrix rows must all have the same length"


@pytest.mark.parametrize(
    "m, n, p, seed", [(2, 5, 5, 1), (4, 7, 7, 2), (6, 6, 7, 3), (5, 9, 11, 4), (8, 11, 13, 5)]
)
def test_oracle_on_permuted_kronecker_products(m, n, p, seed):
    field = PrimeField(p)
    a = kronecker(
        unipotent_jordan_block(field, m), unipotent_jordan_block(field, n), field
    )
    perm = np.random.default_rng(seed).permutation(m * n)
    conj = a[np.ix_(perm, perm)]  # P a P^-1 for a permutation matrix P
    assert jordan_block_sizes(conj, field) == tensor_pair(m, n, p).blocks


@pytest.mark.parametrize(
    "p, descriptor",
    [(5, "L(2)*L(3)@1*L(4)@2"), (7, "L(3)*L(2)@1*L(5)@2"), (11, "L(4)*L(5)@1*L(3)@2")],
)
def test_oracle_on_realized_three_factor_modules(p, descriptor):
    d = sl2modules.parse_descriptor(descriptor, p)
    a = sl2modules.realize(d)
    assert jordan_block_sizes(a, PrimeField(p)) == sl2modules.jordan_type(d).blocks
