import time

import numpy as np
import pytest

from a1unicity import ffmatrix
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
    u = unipotent_jordan_block(f5, 2)
    assert np.array_equal(sym_power(u, 2, f5), [[1, 1, 1], [0, 1, 2], [0, 0, 1]])


def test_sym_power_jordan_types():
    f5 = PrimeField(5)
    u = unipotent_jordan_block(f5, 2)
    assert jordan_block_sizes(sym_power(u, 4, f5), f5) == (5,)
    assert jordan_block_sizes(sym_power(u, 8, f5), f5) == (5, 4)
    f7 = PrimeField(7)
    u7 = unipotent_jordan_block(f7, 2)
    assert jordan_block_sizes(sym_power(u7, 3, f7), f7) == (4,)


def test_sym_power_rejects_bad_shape():
    f5 = PrimeField(5)
    with pytest.raises(ShapeError):
        sym_power(ffmatrix.identity(3), 2, f5)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_sym_power_block_structure_all_degrees(p):
    field = PrimeField(p)
    u = unipotent_jordan_block(field, 2)
    for c in range(p):
        assert jordan_block_sizes(sym_power(u, c, field), field) == (c + 1,)
    for c in range(p, 2 * p - 1):
        expected = tuple(sorted((p, c - p + 1), reverse=True))
        assert jordan_block_sizes(sym_power(u, c, field), field) == expected


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


@pytest.mark.parametrize("m, n, p", [(20, 23, 23), (17, 26, 29)])
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
        sym_power(np.array([[field.p - 1, 1], [2, field.p - 1]]), 2, field)
    field = PrimeField(2147483647)  # (p - 1)^2 < 2^63: exact
    assert kronecker([[field.p - 1]], [[field.p - 1]], field).tolist() == [[1]]
    (a00, a01), (a10, a11) = a = [[field.p - 1, 1], [2, field.p - 1]]
    # x^2 -> (a00 x + a10 y)^2, in the basis x^2, xy, y^2
    want = [a00 * a00 % field.p, 2 * a00 * a10 % field.p, a10 * a10 % field.p]
    assert sym_power(np.array(a), 2, field)[:, 0].tolist() == want


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


def test_block_diagonal_rejects_oversized_result():
    field = PrimeField(5)
    assert block_diagonal([identity(2), identity(1)], field).shape == (3, 3)
    with pytest.raises(ShapeError):
        block_diagonal([identity(MAX_DIMENSION), identity(1)], field)
