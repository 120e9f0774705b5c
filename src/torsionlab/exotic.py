"""Checker for the triangulated structure on finitely generated free
Z/4-modules with identity shift.

The category F(Z/4) of finitely generated free Z/4-modules carries a
triangulation whose shift functor is the identity and whose basic
distinguished triangle is

    Z/4 --2--> Z/4 --2--> Z/4 --2--> Z/4.

This module enumerates the candidate distinguished class (direct sums of
elementary triangles up to isomorphism), verifies the triangle axioms on
it up to a rank bound, and certifies that multiplication by 2 on the
rank-one object is nonzero even though its cone is again the rank-one
object — the behavior that separates this category from algebraic ones.

The axioms are decided on the four elementary triangles, by one join at
rank 1 planned once per process (_elementary_join), and read off onto
every representative through the incidence of its summands, which the
enumeration records (lemmas at _verdicts).  So `exotic verify
--max-rank 3` takes 0.2-0.3 s and 31 MB, as rank 2 does (2-vCPU VM).

TR1 is decided at any rank with no search: the cone of f is read off
its Smith form over Z/4 (smith_z4, check_TR1_cone).

GL searches remain only behind membership and isomorphism of whole
triangles (in_distinguished_class, is_isomorphic, and the rotations of
the rank-1 join).  They search GL_r(Z/4), the matrices of odd
determinant, up to rank 3, in batched joins on integer keys (_join,
_decide).  A matrix X is met only through the keys of X m and m X for
the triangles' morphisms m, which are sums of product-table entries
indexed by the codes of X's row or column blocks (_product_tables), so
the joins multiply no stack and loop over no matrices in Python.
Batches are cut by stack size, so rank 3 runs in memory."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Z4Morphism:
    """A morphism of free Z/4-modules: a (target x source) matrix mod 4."""

    source: int
    target: int
    entries: tuple[int, ...]  # row-major

    @classmethod
    def from_matrix(cls, matrix, source: int | None = None, target: int | None = None):
        m = np.array(matrix, dtype=np.int64)
        if m.ndim != 2:
            m = m.reshape(-1, 1) if m.size else m.reshape(0, 0)
        t, s = m.shape
        if source is not None:
            s = source
        if target is not None:
            t = target
        m = m.reshape(t, s) % 4
        return cls(s, t, tuple(m.ravel().tolist()))

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The matrix, built on first access and read-only."""
        m = np.array(self.entries, dtype=np.int64).reshape(self.target, self.source)
        return _readonly(m % 4)

    def compose(self, other: "Z4Morphism") -> "Z4Morphism":
        """self ∘ other."""
        if other.target != self.source:
            raise ValueError("rank mismatch in composition")
        return Z4Morphism.from_matrix(
            (self.matrix @ other.matrix) % 4, other.source, self.target
        )

    def __neg__(self) -> "Z4Morphism":
        return Z4Morphism(self.source, self.target, tuple(-e % 4 for e in self.entries))

    @property
    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def direct_sum(self, other: "Z4Morphism") -> "Z4Morphism":
        s1, s2 = self.source, other.source
        entries = [e for r in range(self.target)
                   for e in self.entries[r * s1:(r + 1) * s1] + (0,) * s2]
        entries += [e for r in range(other.target)
                    for e in (0,) * s1 + other.entries[r * s2:(r + 1) * s2]]
        return Z4Morphism(s1 + s2, self.target + other.target, tuple(entries))

    def __str__(self) -> str:
        return str(self.matrix.tolist())


def identity_morphism(rank: int) -> Z4Morphism:
    return Z4Morphism.from_matrix(np.eye(rank, dtype=np.int64), rank, rank)


def two_times_identity(rank: int) -> Z4Morphism:
    """Multiplication by 2 on the free module of the given rank."""
    return Z4Morphism.from_matrix(2 * np.eye(rank, dtype=np.int64), rank, rank)


def zero_morphism(source: int, target: int) -> Z4Morphism:
    return Z4Morphism.from_matrix(np.zeros((target, source), dtype=np.int64), source, target)


@dataclass(frozen=True)
class Z4Triangle:
    """A triangle X --f--> Y --g--> Z --h--> X (shift is the identity)."""

    f: Z4Morphism
    g: Z4Morphism
    h: Z4Morphism

    def __post_init__(self) -> None:
        if (
            self.g.source != self.f.target
            or self.h.source != self.g.target
            or self.h.target != self.f.source
        ):
            raise ValueError("triangle ranks do not close up cyclically")

    @property
    def ranks(self) -> tuple[int, int, int]:
        return (self.f.source, self.f.target, self.g.target)

    @property
    def is_candidate(self) -> bool:
        """Consecutive composites vanish (with identity shift, h is
        followed by f itself)."""
        return bool(_composites_vanish([self])[0])

    def rotate(self) -> "Z4Triangle":
        """The rotated triangle (g, h, -f); the shift is the identity, so
        f[1] = f and only the sign changes."""
        return Z4Triangle(self.g, self.h, -self.f)

    def direct_sum(self, other: "Z4Triangle") -> "Z4Triangle":
        return Z4Triangle(
            self.f.direct_sum(other.f),
            self.g.direct_sum(other.g),
            self.h.direct_sum(other.h),
        )

    def __str__(self) -> str:
        return f"[{self.f} -> {self.g} -> {self.h}]"


def two_triangle() -> Z4Triangle:
    """The elementary triangle Z/4 --2--> Z/4 --2--> Z/4 --2--> Z/4."""
    two = two_times_identity(1)
    return Z4Triangle(two, two, two)


def contractible_triangle() -> Z4Triangle:
    """The contractible triangle X --id--> X --> 0 --> X at rank 1."""
    return Z4Triangle(identity_morphism(1), zero_morphism(1, 0), zero_morphism(0, 1))


def zero_triangle() -> Z4Triangle:
    z = zero_morphism(0, 0)
    return Z4Triangle(z, z, z)


@functools.cache
def _elementary() -> tuple[Z4Triangle, ...]:
    c0 = contractible_triangle()
    return two_triangle(), c0, c0.rotate(), c0.rotate().rotate()


def elementary_triangles() -> list[Z4Triangle]:
    """The 2-triangle, the rank-1 contractible triangle, and its two
    rotations, built once per process; each call returns a new list."""
    return list(_elementary())


@functools.cache
def _all_matrices(target: int, source: int) -> np.ndarray:
    """All (target x source) matrices over Z/4, stacked along axis 0 and
    read-only; built once per shape."""
    n = target * source
    grids = np.indices((4,) * n, dtype=np.int64).reshape(n, 4**n).T
    return _readonly(grids.reshape(4**n, target, source))


def _odd_determinant(mats: np.ndarray) -> np.ndarray:
    """Per matrix of a square stack of rank <= 3, whether its determinant
    (an integer of absolute value <= 162, so rounding is exact) is odd."""
    return np.rint(np.linalg.det(mats)).astype(np.int64) % 2 == 1


@functools.cache
def general_linear(rank: int) -> np.ndarray:
    """All invertible (rank x rank) matrices over Z/4, those of odd
    determinant, read-only and built once per rank."""
    mats = _all_matrices(rank, rank)
    return _readonly(mats[_odd_determinant(mats)])


@functools.cache
def _powers(n: int) -> np.ndarray:
    return _readonly(4 ** np.arange(n, dtype=np.int64))


# Rows (or columns) per product-table lookup: a table entry covers a block
# of this many rows of X in X m, or columns of X in m X.
_BLOCK = 2


def _layout(rank: int) -> tuple[int, int]:
    """The blocks of a padded (rank x rank) matrix, and the codes of one
    block: a product table holds blocks * codes entries per morphism."""
    return -(-rank // _BLOCK), 4 ** (_BLOCK * rank)


class _Codes(NamedTuple):
    """The block codes of every matrix of the stacks of shape (t, s) with
    t, s <= rank, concatenated: shape (t, s) holds the elements from
    start[t * (rank + 1) + s] on, size[t * (rank + 1) + s] of them; a
    square shape lists GL_t first, units[t * (rank + 1) + t] of them.

    Block k of rows is rows k * _BLOCK on; its code has entry (r, c) of
    the block at base-4 digit rank * r + c.  Block k of columns has entry
    (r, c) at digit r + rank * c.  Rows and columns past the shape are
    zero.  rows[k][e] is element e's code of row block k plus k times the
    number of codes, so that it indexes block k of a product table
    directly; cols likewise."""

    start: np.ndarray
    size: np.ndarray
    units: np.ndarray
    rows: tuple[np.ndarray, ...]
    cols: tuple[np.ndarray, ...]


@functools.cache
def _stack_codes(rank: int) -> _Codes:
    """The codes of all matrices of every shape within the rank bound,
    with GL first in each square shape, built once per process."""
    n = rank + 1
    blocks, count = _layout(rank)
    digits = _powers(_BLOCK * rank).reshape(_BLOCK, rank)

    def codes(stack: np.ndarray) -> list[np.ndarray]:
        # The code of each row block of each matrix of the stack.
        out = []
        for k in range(blocks):
            block = stack[:, k * _BLOCK:(k + 1) * _BLOCK]
            out.append(k * count + np.einsum(
                "erc,rc->e", block, digits[:block.shape[1], :block.shape[2]]))
        return out

    start, size, units = (np.zeros(n * n, dtype=np.int64) for _ in range(3))
    rows, cols = [], []
    for t, s in itertools.product(range(n), repeat=2):
        stack = _all_matrices(t, s)
        if t == s:
            odd = _odd_determinant(stack)
            stack, units[t * n + s] = stack[np.argsort(~odd, kind="stable")], odd.sum()
        start[t * n + s], size[t * n + s] = size.sum(), len(stack)
        rows.append(codes(stack))
        cols.append(codes(stack.transpose(0, 2, 1)))
    return _Codes(_readonly(start), _readonly(size), _readonly(units),
                  *(tuple(_readonly(np.concatenate(block)) for block in zip(*per_shape))
                    for per_shape in (rows, cols)))


def _padded(morphisms: list[Z4Morphism], rank: int) -> np.ndarray:
    """The matrices of morphisms of ranks <= rank, each in the top left
    corner of a (rank x rank) zero matrix."""
    mats = np.zeros((len(morphisms), rank, rank), dtype=np.int64)
    for k, m in enumerate(morphisms):
        mats[k, :m.target, :m.source] = m.matrix
    return mats


def _composites_vanish(triangles: list[Z4Triangle]) -> np.ndarray:
    """Per triangle, whether g f, h g and f h vanish: one batched product
    of the padded matrices, whose products are the padded products."""
    mats = _padded([m for t in triangles for m in (t.f, t.g, t.h)],
                   max((max(t.ranks) for t in triangles), default=0))
    mats = mats.reshape(len(triangles), 3, *mats.shape[1:])
    return ~(np.roll(mats, -1, axis=1) @ mats % 4).any(axis=(1, 2, 3))


def _product_tables(mats: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """The row and column tables of a stack of padded matrices m, flat in
    the layout (m, block, code).

    A product of padded matrices is keyed by its entries as base-4 digits
    in the padded layout, entry (r, c) at digit rank * r + c.  Row table
    entry (m, k, v) is the key of the product whose row block k is the
    block of code v times m and whose other rows are zero; column table
    entry (m, k, w) is the key of the product whose column block k is m
    times the block of code w.  So the key of X m is the sum over the row
    blocks k of X of row[m, k, code of block k], and that of m X the sum
    over its column blocks of col[m, k, code].

    The tables of single rows and columns come from one batched product
    for all morphisms; a block's table is the outer sum of its lines'."""
    blocks, _ = _layout(rank)
    vectors = np.arange(4**rank)[:, None] // _powers(rank) % 4
    # The key of v m for a row vector v, and of m w for a column w; then
    # placed as row or column `line` of the product.  A line past the
    # matrix only ever has code 0, which keys 0.
    line = np.arange(blocks * _BLOCK)[:, None]
    rows = (vectors @ mats) % 4 @ _powers(rank)
    cols = 4 ** (rank * np.arange(rank)) @ ((mats @ vectors.T) % 4)
    tables = []
    for lines in (rows[:, None] * 4 ** (rank * line), cols[:, None] * 4**line):
        lines = lines.reshape(len(mats), blocks, _BLOCK, 4**rank)
        table = lines[:, :, 0]
        for b in range(1, _BLOCK):
            table = (lines[:, :, b, :, None] + table[:, :, None, :]).reshape(
                len(mats), blocks, 4 ** (rank * (b + 1)))
        tables.append(table.ravel())
    return tables[0], tables[1]


def _product_keys(codes: tuple[np.ndarray, ...], table: np.ndarray,
                  offset, elements) -> np.ndarray:
    """The key of X m (row codes, row table) or of m X (column codes,
    column table) for each of the elements X, where m's table starts at
    the element's offset: one gather per block."""
    keys = table[offset + codes[0][elements]]
    for block in codes[1:]:
        keys += table[offset + block[elements]]
    return keys


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, sorted."""
    keys = np.sort(keys)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def _match(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (i, j) with left[i] == right[j], for sorted right:
    a merge join on integer keys."""
    lo = np.searchsorted(right, left, side="left")
    counts = np.searchsorted(right, left, side="right") - lo
    i = np.repeat(np.arange(len(left)), counts)
    # Output slot k falls in left[i]'s run, which starts at slot
    # cumsum(counts)[i] - counts[i]; it pairs with right[lo[i] + its offset].
    shift = np.repeat(lo - np.cumsum(counts) + counts, counts)
    return i, np.arange(len(i)) + shift


def _decide_batch(b: np.ndarray, a: np.ndarray, c: np.ndarray, n_pairs: int,
                  width: int, every: np.ndarray) -> np.ndarray:
    """The verdicts of one batch of n_pairs pairs from its packed keys
    (pair * width + k1) * width + k2: (pair, b f1, g2 b) for b, (pair,
    f2 a, a h1) for a and (pair, c g1, h2 c) for c, each key below width.
    The distinct b and a keys are joined on (pair, commutation key); each
    joined (pair, g2 b, a h1) is looked up among the c keys.  A pair holds
    if every[pair] and all of its lookups succeed, or if not every[pair]
    and one does."""
    wide = width * width
    b, a, c = _distinct(b), _distinct(a), np.sort(c)
    i, j = _match(b // width, a // width)
    pair = b[i] // wide
    needed = pair * wide + b[i] % width * width + a[j] % width
    found = c[np.minimum(np.searchsorted(c, needed), len(c) - 1)] == needed
    return np.where(every, np.bincount(pair[~found], minlength=n_pairs) == 0,
                    np.bincount(pair[found], minlength=n_pairs) > 0)


# A batch of pairs is cut once it holds this many matrices of the a, b and
# c stacks together, which bounds memory at rank 3; at rank <= 2 every
# call is one batch.
_BATCH_MATRICES = 1 << 18


def _key_width(rank: int, n_pairs: int) -> int:
    """A bound on the matrix keys of a join at the rank (a product of two
    morphisms has at most rank**2 entries), refused if a packed key
    (pair * width + k1) * width + k2 could overflow int64."""
    width = 4 ** (rank * rank)
    if n_pairs * width * width > 2**63:
        raise ValueError(f"rank {rank} is too large to pack pair keys in int64")
    return width


# The three variables of a join, as (the morphism of t1 that multiplies
# them on the right, the morphism of t2 that multiplies them on the left,
# the object whose ranks give their shape, whether the right product is
# the join key k1): b with (f1, g2) on Y, a with (h1, f2) on X, c with
# (g1, h2) on Z.  Columns of a triangle row: f, g, h, X, Y, Z.
_VARIABLES = ((0, 1, 4, True), (2, 0, 3, False), (1, 2, 5, True))


class _Join(NamedTuple):
    """A planned join, all read-only: TR3 for the k x k pairs of
    representatives (k = 0 without TR3), then membership for the pairs
    whose rows in iso are (query, representative) of equal ranks, among
    `queries` queries.  It holds
    - codes, the stack codes of its rank bound (_stack_codes), and width,
      the key layout (_key_width);
    - row_table and col_table, the distinct morphisms' product tables;
    - variables: per variable of _VARIABLES, the per-pair stack sizes and
      starts, the per-pair offsets of its right and left morphisms'
      tables, and whether the right product is k1;
    - held, the running count of stack matrices over the pairs."""

    codes: _Codes
    width: int
    row_table: np.ndarray
    col_table: np.ndarray
    variables: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool], ...]
    held: np.ndarray
    k: int
    iso: np.ndarray
    queries: int


def _join(reps: list[Z4Triangle], queries: list[Z4Triangle], tr3: bool) -> _Join:
    """The plan of one join over the pairs (t1, t2): if tr3, all pairs of
    reps for TR3, then (query, rep) of equal ranks for membership.  Only
    the triangles that some pair uses set the rank bound and get product
    tables, from one batched product (_product_tables).  Each variable
    draws, per pair, the stack of its shape (GL first, only GL for
    membership) and the offsets of the tables of the morphisms that
    multiply it."""
    k = len(reps) if tr3 else 0
    by_ranks: dict[tuple[int, int, int], list[int]] = {}
    for j, rep in enumerate(reps):
        by_ranks.setdefault(rep.ranks, []).append(j)
    iso = np.array([(i, j) for i, q in enumerate(queries)
                    for j in by_ranks.get(q.ranks, ())], dtype=np.int64).reshape(-1, 2)
    first, second = np.concatenate(
        [np.indices((k, k)).reshape(2, -1).T, iso + (len(reps), 0)]).T
    used = set(np.concatenate([first, second]).tolist())
    index: dict[Z4Morphism, int] = {}
    rows = np.array([[index.setdefault(m, len(index)) for m in (t.f, t.g, t.h)]
                     + [*t.ranks] if n in used else [0] * 6
                     for n, t in enumerate([*reps, *queries])], dtype=np.int64).reshape(-1, 6)
    rank = int(rows[:, 3:].max(initial=0))
    width = _key_width(rank, len(first))
    rank = max(rank, 1)
    codes = _stack_codes(rank)
    row_table, col_table = map(_readonly, _product_tables(_padded(list(index), rank), rank))
    t1, t2 = rows[first], rows[second]
    invertible = np.arange(len(first)) >= k * k
    stride = math.prod(_layout(rank))
    variables = []
    for right, left, obj, right_high in _VARIABLES:
        shape = t2[:, obj] * (rank + 1) + t1[:, obj]
        variables.append((
            _readonly(np.where(invertible, codes.units[shape], codes.size[shape])),
            _readonly(codes.start[shape]),
            _readonly(t1[:, right] * stride), _readonly(t2[:, left] * stride), right_high))
    held = _readonly(np.cumsum(sum(size for size, *_ in variables)))
    return _Join(codes, width, row_table, col_table, tuple(variables), held,
                 k, _readonly(iso), len(queries))


def _decide(join: _Join) -> tuple[np.ndarray, np.ndarray]:
    """The verdicts of a planned join, decided afresh on every call: TR3
    for the pairs of representatives as a matrix, and per query whether
    it is isomorphic to a representative.  A pair holds if a and b drawn
    from the stacks of their shapes with b f1 = f2 a have a c with c g1 =
    g2 b and h2 c = a h1, for every such (a, b) over all matrices (TR3),
    or for some (a, b) over GL (an isomorphism).

    A variable's keys for a batch of pairs come from one ragged gather
    over the concatenated stacks of its shapes: the key of X m is a sum
    of row table entries and that of m X a sum of column table entries
    (see _product_tables).  The keys are packed under the pair index and
    decided by _decide_batch."""
    codes, width, held, k = join.codes, join.width, join.held, join.k

    def packed(size, start, right, left, right_high) -> np.ndarray:
        # One variable's packed keys for a batch of pairs; the gathers'
        # temporaries are freed on return, before the batch is decided.
        ends = np.cumsum(size)
        elements = np.arange(ends[-1]) + np.repeat(start - ends + size, size)
        xm = _product_keys(codes.rows, join.row_table, np.repeat(right, size), elements)
        mx = _product_keys(codes.cols, join.col_table, np.repeat(left, size), elements)
        keys = np.repeat(np.arange(len(size)) * width, size)
        keys += xm if right_high else mx
        keys *= width
        keys += mx if right_high else xm
        return keys

    verdicts = np.zeros(len(held), dtype=bool)
    lo = 0
    while lo < len(held):
        base = held[lo - 1] if lo else 0
        hi = min(int(np.searchsorted(held, base + _BATCH_MATRICES)) + 1, len(held))
        keys = [packed(size[lo:hi], start[lo:hi], right[lo:hi], left[lo:hi], right_high)
                for size, start, right, left, right_high in join.variables]
        verdicts[lo:hi] = _decide_batch(*keys, hi - lo, width, np.arange(lo, hi) < k * k)
        lo = hi
    members = np.bincount(join.iso[verdicts[k * k:], 0], minlength=join.queries) > 0
    return verdicts[:k * k].reshape(k, k), members


def _gl_searchable(rank: int) -> None:
    """Refuse a search of GL_4 (of 4**16 matrices) or above up front."""
    if rank > 3:
        raise ValueError("rank bound above 3 is too large for a GL search")


def _members(queries: list[Z4Triangle], reps: list[Z4Triangle]) -> np.ndarray:
    """Per query, whether it is isomorphic to one of reps."""
    return _decide(_join(reps, queries, False))[1]


def is_isomorphic(t1: Z4Triangle, t2: Z4Triangle) -> bool:
    """Whether invertible (u, v, w) carry t1 to t2: v f1 = f2 u,
    w g1 = g2 v, u h1 = h2 w; the batched join on one pair, to rank 3."""
    return t1.ranks == t2.ranks and bool(_members([t1], [t2])[0])


@functools.cache
def _incidence(max_rank: int) -> np.ndarray:
    """Per direct sum of elementary triangles within the rank bound, in
    lexicographic order, how many times each of elementary_triangles() is
    a summand of it: the zero triangle first."""
    if max_rank < 0:
        raise ValueError(f"rank bound {max_rank} is negative")
    ranks = np.array([t.ranks for t in elementary_triangles()])
    counts = np.indices((max_rank + 1,) * len(ranks)).reshape(len(ranks), -1).T
    return _readonly(counts[(counts @ ranks).max(axis=1) <= max_rank])


def _direct_sum(counts) -> Z4Triangle:
    """The direct sum of elementary_triangles() taken counts[i] times
    each, in their order: the representative of that incidence."""
    return functools.reduce(
        Z4Triangle.direct_sum, [t for t, c in zip(_elementary(), counts) for _ in range(c)],
        zero_triangle())


@functools.cache
def _representatives(max_rank: int) -> tuple[tuple[Z4Triangle, ...], np.ndarray]:
    """The direct sums of elementary triangles within the rank bound, and
    the incidence of their summands (_incidence)."""
    incidence = _incidence(max_rank)
    return tuple(_direct_sum(counts) for counts in incidence.tolist()), incidence


@functools.cache
def _elementary_join() -> _Join:
    """TR3 for the 16 pairs of elementary triangles and the membership of
    their four rotations, planned at rank 1 on the first call.  Each
    rotation has the ranks of one elementary triangle, and no other sum of
    elementary triangles has them, so it is compared with that one."""
    elems = elementary_triangles()
    return _join(elems, [t.rotate() for t in elems], True)


def _verdicts(max_rank: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per representative within the rank bound, whether its composites
    vanish and whether its rotation is in the class; per pair i <= j, in
    row-major order, whose sum is within the bound, whether the sum is;
    and TR3 per pair.  Decided afresh on every call on the elementary
    triangles (verdicts C, R, E), and read off the incidence N.

    Lemmas, for representatives T = (+)_i S_i and T' = (+)_j S'_j, whose
    maps are block diagonal:
    - Composites: g f, h g and f h are block diagonal with blocks g_i f_i,
      h_i g_i and f_i h_i, so T passes iff N (not C) is 0 in its row.
    - Sums: T (+) T' is a reordering of the summands of the representative
      of incidence n + n', and the permutation matrices that reorder the
      blocks of X, Y and Z alike are an isomorphism of triangles.  So the
      sum is in the class if n + n' is a row of N.
    - Rotation: rotate(T) = (g, h, -f) is (+)_i rotate(S_i).  If each
      rotate(S_i) is isomorphic to an elementary triangle, the block sum
      of these isomorphisms and a permutation carry rotate(T) to the
      representative of those elementary triangles, whose ranks are T's
      rotated and so within the bound.  So T passes if N (not R) is 0 in
      its row, and at a bound >= 1, where the elementary triangles are
      representatives, all pass iff R does.
    - TR3 holds for (T, T') iff it holds for every (S_i, S'_j), so its
      verdicts are N (not E) N^T == 0.  A morphism T -> T' on X (or Y,
      Z) is a matrix of blocks S_i -> S'_j, and block (j, i) of b f - f' a
      is b_ji f_i - f'_j a_ji, and likewise for the other squares.  So
      (a, b) commutes, and c fills it, iff every block does: fills of the
      blocks fill a commuting pair, and a commuting pair of (S_i, S'_j)
      set in block (j, i), zero elsewhere, has a fill whose block (j, i)
      fills it.

    Rows of N are looked up by their digits in base max_rank + 1: every
    elementary triangle has rank 1 on some object, so a count in a sum
    within the bound is at most the bound, and n + n' carries nothing."""
    elems, incidence = elementary_triangles(), _incidence(max_rank)
    tr3, rotations = _decide(_elementary_join())
    ranks = incidence @ np.array([t.ranks for t in elems])
    keys = incidence @ (max_rank + 1) ** np.arange(len(elems))
    i, j = np.nonzero(np.triu((ranks[:, None] + ranks).max(axis=2) <= max_rank))
    is_row = np.zeros((max_rank + 1) ** len(elems), dtype=bool)
    is_row[keys] = True
    return (incidence @ ~_composites_vanish(elems) == 0,
            incidence @ ~rotations == 0,
            is_row[keys[i] + keys[j]],
            incidence @ ~tr3 @ incidence.T == 0)


def distinguished_representatives(max_rank: int = 2) -> list[Z4Triangle]:
    """One representative per isomorphism class of direct sums of
    elementary triangles with all three ranks bounded by max_rank.  The
    enumeration is built once per bound; each call returns a new list."""
    return list(_representatives(max_rank)[0])


def in_distinguished_class(t: Z4Triangle, max_rank: int = 2) -> bool:
    """Whether t is isomorphic to a direct sum of elementary triangles."""
    _gl_searchable(max_rank)
    if max(t.ranks) > max_rank:
        raise ValueError(f"ranks {t.ranks} exceed the bound {max_rank}")
    return bool(_members([t], distinguished_representatives(max_rank))[0])


def smith_z4(f) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, d, v) for a (t x s) matrix f over Z/4: u and v invertible, of
    odd determinant, with u f v = d = diag(1, ..., 1, 2, ..., 2, 0, ...).

    Z/4 is local with ideals Z/4 > (2) > 0, so an entry of the smallest
    ideal left, a unit while the rest has one and else a 2, divides every
    other entry of the rest.  It is moved to the next diagonal place,
    scaled to 1 or 2 (3 is its own inverse), and its row and column are
    cleared; clearing by a 2 leaves every entry even, so the 1s come
    first.  Each row operation is applied to u and each column operation
    to v as well, and the result is checked by the product.  The matrices
    are small, so the elimination runs on lists."""
    f = np.asarray(f, dtype=np.int64) % 4
    t, s = f.shape
    a = f.tolist()
    u = [[int(i == j) for j in range(t)] for i in range(t)]
    v = [[int(i == j) for j in range(s)] for i in range(s)]
    for k in range(min(t, s)):
        places = [(i, j) for i in range(k, t) for j in range(k, s) if a[i][j]]
        if not places:
            break
        i, j = next((ij for ij in places if a[ij[0]][ij[1]] % 2), places[0])
        a[k], a[i], u[k], u[i] = a[i], a[k], u[i], u[k]
        for row in a + v:
            row[k], row[j] = row[j], row[k]
        if a[k][k] == 3:
            a[k], u[k] = [3 * x % 4 for x in a[k]], [3 * x % 4 for x in u[k]]
        pivot = a[k][k]
        for r in range(t):
            m = a[r][k] // pivot
            if m and r != k:
                a[r] = [(x - m * y) % 4 for x, y in zip(a[r], a[k])]
                u[r] = [(x - m * y) % 4 for x, y in zip(u[r], u[k])]
        for c in range(k + 1, s):
            m, a[k][c] = a[k][c] // pivot, 0
            for row in v:
                row[c] = (row[c] - m * row[k]) % 4
    u, d, v = (np.array(x, dtype=np.int64).reshape(shape)
               for x, shape in ((u, (t, t)), (a, (t, s)), (v, (s, s))))
    if not np.array_equal(u @ f @ v % 4, d):
        raise ArithmeticError("the Smith form over Z/4 failed its check u f v = d")
    return u, d, v


def check_TR1_cone(f: Z4Morphism, max_rank: int = 2) -> Z4Triangle | None:
    """A distinguished triangle whose first map is isomorphic to f, or
    None if its cone has a rank above max_rank.  A rank of f above
    max_rank is refused.

    With u f v = d in Smith form (smith_z4), holding a 1s and b 2s, f is
    isomorphic (by v^-1 on X and u on Y) to the first map of the sum of b
    2-triangles, a contractible triangles, s - a - b copies of the first
    rotation and t - a - b of the second, f being (t x s): that sum's
    first map is d with its rows and columns permuted.  So the sum, the
    representative of that incidence, is built directly, at any rank and
    with no search."""
    if max(f.source, f.target) > max_rank:
        raise ValueError(f"ranks {(f.source, f.target)} exceed the bound {max_rank}")
    d = np.diagonal(smith_z4(f.matrix)[1]).tolist()
    ones, twos = d.count(1), d.count(2)
    counts = (twos, ones, f.source - ones - twos, f.target - ones - twos)
    # The cone has rank 1 in every summand but the contractible triangles.
    if sum(counts) - ones > max_rank:
        return None
    return _direct_sum(counts)


@dataclass
class VerificationReport:
    """Outcome of the axiom checks up to a rank bound."""

    max_rank: int
    steps: list[tuple[str, bool]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.steps)

    def add(self, description: str, ok: bool) -> None:
        self.steps.append((description, ok))


def verify_axioms(max_rank: int = 2) -> VerificationReport:
    """Verification, on all class representatives with ranks bounded by
    max_rank, of: vanishing consecutive composites, closure under
    rotation, closure under direct sums, and existence of TR3 fill-ins
    for every commuting pair.  The verdicts rest on the lemmas at
    _verdicts and on checks of the four elementary triangles."""
    # The sums and TR3 steps compare all pairs of representatives: at bound
    # 8 (625) `exotic verify` takes 0.2-0.4 s and 43 MB, at 12 (2 401) 207 MB.
    if max_rank > 8:
        raise ValueError("rank bound above 8 is too large to verify")
    composites, rotations, sums, tr3 = _verdicts(max_rank)
    report = VerificationReport(max_rank=max_rank)
    report.add(f"enumerated {len(composites)} class representatives", len(composites) > 0)
    report.add("consecutive composites vanish on every representative",
               bool(composites.all()))
    report.add("rotation of every representative stays in the class",
               bool(rotations.all()))
    report.add("direct sums of representatives stay in the class", bool(sums.all()))
    report.add("TR3 fill-in exists for every commuting pair", bool(tr3.all()))
    return report


@dataclass
class TwoOrderCertificate:
    """Certificate that the rank-one object has 2-order zero."""

    two_id_nonzero: bool
    cone_rank: int
    cone_is_rank_one: bool
    two_cone_nonzero: bool
    lines: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.two_id_nonzero and self.cone_is_rank_one and self.two_cone_nonzero


def two_order_zero_certificate() -> TwoOrderCertificate:
    """Certify that 2·Id on the rank-one module is nonzero, while its
    cone is again the rank-one module; therefore the cone of
    multiplication by 2 is not killed by 2 and the rank-one object has
    2-order zero.  In an algebraic triangulated category the cone of
    multiplication by n is always killed by n, so this category cannot
    be algebraic."""
    nonzero = not two_times_identity(1).is_zero
    cone_triangle = check_TR1_cone(two_times_identity(1), max_rank=2)
    cone_rank = cone_triangle.g.target if cone_triangle is not None else -1
    cone_is_rank_one = cone_rank == 1
    two_cone_nonzero = cone_rank >= 0 and not two_times_identity(cone_rank).is_zero
    lines = [
        f"2*Id on Z/4 is the matrix [[2]] != [[0]]: {nonzero}",
        f"cone(2*Id) found in the distinguished class with rank {cone_rank}",
        f"cone(2*Id) is the rank-one module Z/4 itself: {cone_is_rank_one}",
        f"2*Id on the cone is therefore also nonzero: {two_cone_nonzero}",
        "conclusion: the rank-one object has 2-order 0, so the triangulation is not algebraic",
    ]
    return TwoOrderCertificate(
        two_id_nonzero=nonzero,
        cone_rank=cone_rank,
        cone_is_rank_one=cone_is_rank_one,
        two_cone_nonzero=two_cone_nonzero,
        lines=lines,
    )
