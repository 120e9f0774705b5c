"""Exact linear algebra over the prime field F_p, on numpy int64 arrays.

Everything rests on `rref`, a Gauss-Jordan elimination whose only Python
loop runs over the columns: each pivot clears its column with one
outer-product update of the rows that have a nonzero entry in it.  A
caller that holds an rref reads the rank, a column basis and the kernel
from it (`nullspace_of_rref`) without eliminating again, and `solve`
reads one solution off the rref of the augmented matrix."""

from __future__ import annotations

import numpy as np


def mod_inv(a: int, p: int) -> int:
    return pow(int(a) % p, -1, p)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return (a @ b) % p


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column indices.

    The pivot of column c is its first nonzero entry at or below row r,
    the number of pivots found so far.  Rows r and beyond are zero left of
    c, so the update touches only columns c onward.  The column is read
    into a Python list once: on the small matrices that dominate, a list
    scan costs less than a numpy call."""
    m = np.array(a, dtype=np.int64) % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = m[:, c].tolist()
        piv = next((i for i in range(r, rows) if col[i]), None)
        if piv is None:
            continue
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
            col[r], col[piv] = col[piv], col[r]
        row = m[r, c:]
        if col[r] != 1:
            row = row * mod_inv(col[r], p) % p
            m[r, c:] = row
        hit = [i for i, v in enumerate(col) if v and i != r]
        if hit:
            factors = np.array([col[i] for i in hit], dtype=np.int64)
            m[hit, c:] = (m[hit, c:] - factors[:, None] * row) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a: np.ndarray, p: int) -> int:
    return len(rref(a, p)[1])


def nullspace_of_rref(r: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Basis of the right nullspace of a matrix whose rref is (r, pivots),
    one column per free column: 1 in that free column and -r[:rank, free]
    in the pivot rows."""
    cols = r.shape[1]
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = zeros(cols, free.size)
    basis[free, np.arange(free.size)] = 1
    basis[pivots] = -r[:len(pivots), free] % p
    return basis


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right nullspace, one column per basis vector."""
    return nullspace_of_rref(*rref(a, p), p)


def solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution x of a x = b over F_p, or None if inconsistent.

    b may be a vector or a matrix of stacked right-hand sides."""
    a = np.asarray(a)
    b = np.asarray(b)
    vector = b.ndim == 1
    if vector:
        b = b[:, None]
    r, pivots = rref(np.hstack([a, b]), p)
    ncols = a.shape[1]
    if pivots and pivots[-1] >= ncols:
        return None
    x = zeros(ncols, b.shape[1])
    x[pivots] = r[:len(pivots), ncols:]
    return x[:, 0] if vector else x
