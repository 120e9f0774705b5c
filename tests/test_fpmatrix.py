"""Exact F_p linear algebra: the packed F_2 elimination and the column
loop against the row-by-row reference, the float64 products against exact
integer products, and the defining properties of nullspace and solve.
`inv`, which only tests need, is defined here on top of solve."""

import itertools

import numpy as np
import pytest

from torsionlab import fpmatrix as fp

PRIMES = (2, 3, 5, 7)


def inv(a, p):
    """The inverse of a square matrix over F_p, or None if it is singular."""
    return fp.solve(a, fp.identity(a.shape[0]), p)


def reference_rref(a, p):
    """Gauss-Jordan elimination one row at a time: the first nonzero entry
    at or below the current row is the pivot, and every other row with a
    nonzero entry in the pivot column is cleared separately."""
    m = (np.array(a, dtype=np.int64) % p).copy()
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = None
        for i in range(r, rows):
            if m[i, c]:
                piv = i
                break
        if piv is None:
            continue
        m[[r, piv]] = m[[piv, r]]
        m[r] = (m[r] * fp.mod_inv(m[r, c], p)) % p
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, pivots


def reference_rank(a, p):
    return len(reference_rref(a, p)[1])


def random_matrix(rng, p, rows, cols, rank=None):
    """A random matrix, of the given rank at most when rank is set, so that
    rank-deficient shapes with free columns between pivots occur."""
    if rank is None:
        return rng.integers(0, p, size=(rows, cols), dtype=np.int64)
    left = rng.integers(0, p, size=(rows, rank), dtype=np.int64)
    right = rng.integers(0, p, size=(rank, cols), dtype=np.int64)
    return left @ right % p


SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 7), (7, 1), (4, 4), (5, 9),
          (9, 5), (12, 12), (34, 46), (49, 46)]


def matrices(p, seed):
    """Random, rank-deficient, all-zero and identity matrices of every
    shape in SHAPES."""
    rng = np.random.default_rng(seed)
    out = []
    for rows, cols in SHAPES:
        out.append(fp.zeros(rows, cols))
        out.append(random_matrix(rng, p, rows, cols))
        if rows and cols:
            out.append(random_matrix(rng, p, rows, cols, rank=min(rows, cols) // 2))
            out.append(np.eye(rows, cols, dtype=np.int64) * rng.integers(1, p + 1))
        # Entries outside 0..p-1, negatives included, are reduced first.
        out.append(rng.integers(-3 * p, 3 * p, size=(rows, cols), dtype=np.int64))
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_rref_matches_row_loop_reference(p):
    for seed in range(4):
        for a in matrices(p, seed):
            got, got_pivots = fp.rref(a, p)
            want, want_pivots = reference_rref(a, p)
            assert got_pivots == want_pivots
            assert fp.rank(a, p) == len(want_pivots)
            assert got.dtype == np.int64
            assert np.array_equal(got, want), (a.shape, p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_column_loop_matches_the_reference_on_sparse_matrices(p):
    # Sparse columns make the pivot search skip rows and swap, and leave
    # entries above the pivot row to be cleared.
    rng = np.random.default_rng(p)
    for rows, cols in SHAPES:
        for density in (0.1, 0.3):
            a = random_matrix(rng, p, rows, cols) * (rng.random((rows, cols)) < density)
            got, got_pivots = fp._rref_columns(a, p)
            want, want_pivots = reference_rref(a, p)
            assert got_pivots == want_pivots
            assert np.array_equal(got, want), (a.shape, p, density)


def corank_one_square(rng, n):
    """A random n x n matrix over F_2 of rank n - 1: an invertible matrix
    (unit lower times unit upper triangular) with one pivot dropped, times
    another invertible one."""
    left = np.tril(rng.integers(0, 2, size=(n, n)), -1) + fp.identity(n)
    right = np.triu(rng.integers(0, 2, size=(n, n)), 1) + fp.identity(n)
    drop = fp.identity(n)
    drop[n // 2, n // 2] = 0
    return fp.matmul(fp.matmul(left, drop, 2), right, 2)


def test_packed_f2_kernel_matches_the_column_loop_and_the_reference():
    # The column loop is the odd-p kernel; at p = 2 it is the packed
    # kernel's reference, as is the row loop.
    for seed in range(4):
        for a in matrices(2, seed):
            got = fp.rref(a, 2)
            for want in (fp._rref_columns(a, 2), reference_rref(a, 2)):
                assert got[1] == want[1]
                assert got[0].dtype == np.int64
                assert np.array_equal(got[0], want[0]), a.shape


@pytest.mark.parametrize("n", [256, 1024])
def test_packed_f2_kernel_on_corank_one_squares(n):
    a = corank_one_square(np.random.default_rng(n), n)
    got = fp.rref(a, 2)
    assert len(got[1]) == n - 1
    references = [fp._rref_columns(a, 2)]
    if n <= 256:
        references.append(reference_rref(a, 2))
    for want in references:
        assert got[1] == want[1]
        assert np.array_equal(got[0], want[0])
    assert not fp.matmul(a, fp.nullspace_of_rref(*got, 2), 2).any()


@pytest.mark.parametrize("p", PRIMES + (1_000_003,))
def test_matmul_equals_the_exact_integer_product(p):
    rng = np.random.default_rng(p % 1000)
    for sa, sb in [((0, 3), (3, 4)), ((3, 0), (0, 2)), ((1, 1), (1, 1)), ((5, 7), (7, 3)),
                   ((34, 34), (34, 34)), ((4, 1, 3, 3), (1, 5, 3, 3))]:
        a = rng.integers(-(p - 1), p, size=sa, dtype=np.int64)
        b = rng.integers(-(p - 1), p, size=sb, dtype=np.int64)
        got = fp.matmul(a, b, p)
        # Inside the bound, and far from int64 overflow.
        assert got.dtype == np.int64
        assert np.array_equal(got, a @ b % p)


def test_matmul_is_exact_at_its_bound_and_refuses_just_above_it():
    # At p = 1 000 003, inner (p - 1)^2 < 2^53 allows inner dimension 9007.
    # With every entry p - 1 (or 1 - p) every partial sum is largest.
    p = 1_000_003
    inner = (fp.EXACT_LIMIT - 1) // (p - 1) ** 2
    assert inner == 9007
    a = np.full((2, inner), p - 1, dtype=np.int64)
    a[1] = 1 - p
    assert np.array_equal(fp.matmul(a, a.T, p), a.astype(object) @ a.T.astype(object) % p)
    for wide in (np.ones((1, inner + 1), dtype=np.int64),
                 np.ones((3, 1, inner + 1), dtype=np.int64)):
        with pytest.raises(ValueError, match="of inner dimension 9008 is not exact"):
            fp.matmul(wide, wide.swapaxes(-1, -2), p)


def test_matmul_refuses_a_prime_too_large_for_any_product():
    p = 2_147_483_647
    one = np.ones((1, 1), dtype=np.int64)
    with pytest.raises(ValueError, match=f"mod {p} of inner dimension 1"):
        fp.matmul(one, one, p)


@pytest.mark.parametrize("p", PRIMES)
def test_power_is_the_repeated_product(p):
    rng = np.random.default_rng(20 + p)
    a = rng.integers(0, p, size=(3, 4, 4), dtype=np.int64)
    want = a
    for e in range(1, 12):
        assert np.array_equal(fp.power(a, e, p), want)
        want = fp.matmul(want, a, p)


@pytest.mark.parametrize("p", PRIMES)
def test_rref_does_not_modify_its_argument(p):
    a = np.random.default_rng(1).integers(0, p, size=(6, 8), dtype=np.int64)
    before = a.copy()
    fp.rref(a, p)
    assert np.array_equal(a, before)


@pytest.mark.parametrize("p", PRIMES)
def test_nullspace_is_a_kernel_basis(p):
    for seed in range(4):
        for a in matrices(p, seed):
            basis = fp.nullspace(a, p)
            cols = a.shape[1]
            assert basis.shape == (cols, cols - reference_rank(a, p))
            assert not fp.matmul(a, basis, p).any()
            # Its columns are independent.
            assert reference_rank(basis, p) == basis.shape[1]


@pytest.mark.parametrize("p", PRIMES)
def test_nullspace_of_rref_reads_the_kernel_from_a_held_rref(p):
    for a in matrices(p, 5):
        assert np.array_equal(fp.nullspace_of_rref(*fp.rref(a, p), p),
                              fp.nullspace(a, p))


def is_consistent_by_rank(a, b, p):
    return reference_rank(a, p) == reference_rank(np.hstack([a, b]), p)


@pytest.mark.parametrize("p", PRIMES)
def test_solve_returns_none_exactly_when_inconsistent(p):
    rng = np.random.default_rng(p)
    seen = set()
    for rows, cols, k in itertools.product((1, 3, 6), (1, 3, 6), (1, 2)):
        for rank in range(min(rows, cols) + 1):
            a = random_matrix(rng, p, rows, cols, rank=rank)
            # A right-hand side in the image of a, and a random one.
            for b in (a @ rng.integers(0, p, size=(cols, k)) % p,
                      rng.integers(0, p, size=(rows, k))):
                x = fp.solve(a, b, p)
                consistent = is_consistent_by_rank(a, b, p)
                seen.add(consistent)
                assert (x is None) == (not consistent)
                if x is not None:
                    assert x.shape == (cols, k)
                    assert np.array_equal(fp.matmul(a, x, p), b % p)
                vx = fp.solve(a, b[:, 0], p)
                assert (vx is None) == (not is_consistent_by_rank(a, b[:, :1], p))
                if vx is not None:
                    assert vx.shape == (cols,)
                    assert np.array_equal(a @ vx % p, b[:, 0] % p)
    assert seen == {True, False}


@pytest.mark.parametrize("p", PRIMES)
def test_inv_returns_none_exactly_when_singular(p):
    rng = np.random.default_rng(10 + p)
    seen = set()
    for n in (1, 2, 3, 5, 8):
        # Unit lower times unit upper triangular is invertible.
        lower = np.tril(rng.integers(0, p, size=(n, n)), -1) + fp.identity(n)
        upper = np.triu(rng.integers(0, p, size=(n, n)), 1) + fp.identity(n)
        cases = [lower @ upper % p]
        cases += [random_matrix(rng, p, n, n, rank=r) for r in (n, n - 1, n // 2)]
        for a in cases:
            x = inv(a, p)
            singular = reference_rank(a, p) < n
            seen.add(singular)
            assert (x is None) == singular
            if x is not None:
                assert np.array_equal(fp.matmul(a, x, p), fp.identity(n))
                assert np.array_equal(fp.matmul(x, a, p), fp.identity(n))
    assert seen == {True, False}


def test_inv_of_every_2x2_matrix_over_f3():
    p = 3
    for entries in itertools.product(range(p), repeat=4):
        a = np.array(entries, dtype=np.int64).reshape(2, 2)
        singular = (entries[0] * entries[3] - entries[1] * entries[2]) % p == 0
        assert (inv(a, p) is None) == singular
