"""Exact linear algebra over the prime field F_p, on numpy int64 arrays.

Everything rests on `rref`, a Gauss-Jordan elimination.  At p = 2 each
row is packed into one Python int, one bit per column, and a row is
reduced by XOR against a basis keyed by leading bit; the rows are packed
and unpacked by one numpy call each.  At odd p the only Python loop runs
over the columns: each pivot clears its column with one outer-product
update of the rows that have a nonzero entry in it.  RREF is unique, so
both give the same matrix.  A caller that holds an rref reads the rank,
a column basis and the kernel from it (`nullspace_of_rref`) without
eliminating again, and `solve` reads one solution off the rref of the
augmented matrix.

Products (`matmul`, `power`) are taken in float64, which numpy hands to
BLAS.  With entries of absolute value below p, every partial sum of a
product of inner dimension n is an integer of absolute value at most
n (p - 1)^2, so the product is exact while n (p - 1)^2 < 2^53; a larger
product is refused with a ValueError."""

from __future__ import annotations

import numpy as np

# float64 holds every integer of absolute value up to 2^53.
EXACT_LIMIT = 1 << 53


def mod_inv(a: int, p: int) -> int:
    return pow(int(a) % p, -1, p)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p, for matrices or stacks of them with entries of absolute
    value below p, where p is any modulus.  The product is taken in
    float64 and exact while inner (p - 1)^2 < 2^53, inner = a.shape[-1];
    it is cast to int64 before the remainder, which costs less on
    integers."""
    inner = a.shape[-1]
    if inner * (p - 1) ** 2 >= EXACT_LIMIT:
        raise ValueError(f"a product mod {p} of inner dimension {inner} is not exact "
                         f"in float64: inner * (p - 1)^2 must stay below 2^53")
    out = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    out %= p
    return out


def power(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """a^e mod p for e >= 1, a square matrix or a stack of them reduced
    mod p, by repeated squaring: at most 2 log2 e products, and a itself
    at e = 1."""
    out = None
    while True:
        if e & 1:
            out = a if out is None else matmul(out, a, p)
        e >>= 1
        if not e:
            return out
        a = matmul(a, a, p)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column indices: the packed XOR
    kernel at p = 2, the column loop at odd p."""
    return _rref_packed(a) if p == 2 else _rref_columns(a, p)


def _rref_packed(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """`rref` over F_2 on rows packed into Python ints.

    Column c is bit top - c of its row, so the leading bit of a row is its
    first nonzero column.  Each row is reduced by the basis row of its
    leading bit until that bit is new, and then joins the basis.  One pass
    in increasing order of leading bit then clears every basis row at the
    leading bits below its own, using rows that are already reduced."""
    bits = np.asarray(a, dtype=np.int64) & 1
    rows, cols = bits.shape
    packed = np.packbits(bits, axis=1)
    width = packed.shape[1]
    raw = packed.tobytes()
    basis: dict[int, int] = {}
    for start in range(0, rows * width, max(width, 1)):
        x = int.from_bytes(raw[start:start + width], "big")
        while x:
            lead = x.bit_length() - 1
            row = basis.get(lead)
            if row is None:
                basis[lead] = x
                break
            x ^= row
    leads = sorted(basis)
    below = 0
    for lead in leads:
        row = basis[lead]
        hit = row & below
        while hit:
            bit = hit.bit_length() - 1
            row ^= basis[bit]
            hit ^= 1 << bit
        basis[lead] = row
        below |= 1 << lead
    leads.reverse()
    m = zeros(rows, cols)
    if leads:
        out = b"".join(basis[lead].to_bytes(width, "big") for lead in leads)
        m[:len(leads)] = np.unpackbits(
            np.frombuffer(out, dtype=np.uint8).reshape(len(leads), width), axis=1, count=cols)
    top = 8 * width - 1
    return m, [top - lead for lead in leads]


def _rref_columns(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """`rref` over F_p by a loop over the columns.

    The pivot of column c is its first nonzero entry at or below row r,
    the number of pivots found so far.  Rows r and beyond are zero left of
    c, so the update touches only columns c onward.  The column is read
    into a Python list and scanned once, rows r onward first: on the small
    matrices that dominate, a list scan costs less than a numpy call."""
    m = np.array(a, dtype=np.int64) % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = m[:, c].tolist()
        below = [i for i in range(r, rows) if col[i]]
        if not below:
            continue
        # Every other nonzero row; none is r or piv, so the swap moves none.
        piv, hit = below[0], [i for i in range(r) if col[i]] + below[1:]
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        row = m[r, c:]
        if col[piv] != 1:
            row = row * mod_inv(col[piv], p) % p
            m[r, c:] = row
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
