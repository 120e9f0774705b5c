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

The axioms are decided on the four elementary triangles, once per
process (_elementary_verdicts), and each step at every rank bound is
read off those verdicts by a lemma (verify_axioms), with no
representative built.  So `exotic verify` takes 0.2-0.3 s and 31 MB at
any bound, 1000 included (2-vCPU VM).

Nothing is searched to decide a triangle: TR1 reads the cone of f off
its Smith form over Z/4 (smith_z4, check_TR1_cone), and membership in
the class splits off contractible summands at unit entries until an
all-even triangle (2A, 2B, 2C) is left, which is in the class iff C B A
= I mod 2 (in_distinguished_class), both at any rank.

A key join remains behind isomorphism of triangles whose composites
need not vanish (is_isomorphic, over GL_r(Z/4), the matrices of odd
determinant) and TR3 on the 16 pairs of elementary triangles (over all
matrices of rank 1): the pairs (b, a) meet on the keys of b f1 and f2 a,
and each pair's keys of g2 b and a h1 are looked up among the keys of c
g1 and h2 c (_pair_join)."""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field

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

    def __post_init__(self) -> None:
        """Refuse entries that the matrix would not read back: a negative
        rank, a wrong count, or an entry that is not a Python int in 0..3."""
        if self.source < 0 or self.target < 0:
            raise ValueError(f"a rank is negative: {self.target} x {self.source}")
        if len(self.entries) != self.source * self.target:
            raise ValueError(f"{len(self.entries)} entries for a "
                             f"{self.target} x {self.source} matrix")
        if not all(type(e) is int and 0 <= e <= 3 for e in self.entries):
            raise ValueError(f"entries must be ints in 0..3, not {self.entries}")

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
        """Consecutive composites g f, h g and f h vanish mod 4 (with
        identity shift, h is followed by f itself)."""
        f, g, h = self.f.matrix, self.g.matrix, self.h.matrix
        return not any((x @ y % 4).any() for x, y in ((g, f), (h, g), (f, h)))

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


def _keys(stack: np.ndarray) -> np.ndarray:
    """One integer key per matrix of a stack: its entries mod 4 as base-4
    digits, the first entry lowest."""
    flat = stack.reshape(len(stack), -1) % 4
    return flat @ 4 ** np.arange(flat.shape[1], dtype=np.int64)


def _key_pairs(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct key pairs (_keys(first[i]), _keys(second[i])), as two
    aligned arrays sorted by the first key.  Sorted and deduplicated by
    hand: np.unique imports numpy.ma on its first call, about 15 ms."""
    width = 4 ** second[0].size
    keys = np.sort(_keys(first) * width + _keys(second))
    return np.divmod(keys[np.concatenate(([True], keys[1:] != keys[:-1]))], width)


# A key join of more pairs is refused.  A join costs about 70 bytes per
# pair: is_isomorphic(t, t) for t = (0, diag(1, 0, 0), id) at rank 3
# joins 4 816 896 pairs in 0.7 s and 340 MB (2-vCPU VM), so this bound
# is about 0.6 GB.  The largest join of a rank-3 representative with
# itself has 86 016 pairs.
_JOIN_PAIRS = 1 << 23


def _match(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (i, j) with left[i] == right[j], for sorted right:
    a merge join on integer keys, refused above _JOIN_PAIRS pairs before
    any of them is allocated."""
    lo = np.searchsorted(right, left, side="left")
    counts = np.searchsorted(right, left, side="right") - lo
    total = int(counts.sum())
    if total > _JOIN_PAIRS:
        raise ValueError(f"a key join of {total} pairs exceeds the bound of {_JOIN_PAIRS}")
    i = np.repeat(np.arange(len(left)), counts)
    # Output slot k falls in left[i]'s run, which starts at slot
    # cumsum(counts)[i] - counts[i]; it pairs with right[lo[i] + its offset].
    shift = np.repeat(lo - np.cumsum(counts) + counts, counts)
    return i, np.arange(len(i)) + shift


def _pair_join(t1: Z4Triangle, t2: Z4Triangle, invertible: bool) -> bool:
    """Whether maps (a, b) from t1 to t2 on X and Y with b f1 = f2 a extend
    by a c on Z with c g1 = g2 b and h2 c = a h1: over GL, whether some
    invertible (a, b) does so with an invertible c (an isomorphism); over
    all matrices, whether every (a, b) does (TR3).

    The distinct key pairs (b f1, g2 b) and (f2 a, a h1) are joined on b f1
    = f2 a, and each joined (g2 b, a h1) is looked up among the keys (c g1,
    h2 c).  Stacks are drawn up to rank 3, of at most 4**9 matrices,
    where a key pair packs two keys of 9 base-4 digits into one int64; a
    higher rank is refused before any stack is drawn."""
    (x1, y1, z1), (x2, y2, z2) = t1.ranks, t2.ranks
    if max(*t1.ranks, *t2.ranks) > 3:
        raise ValueError(f"ranks {t1.ranks} and {t2.ranks} are too large for a key join")
    f1, g1, h1 = t1.f.matrix, t1.g.matrix, t1.h.matrix
    f2, g2, h2 = t2.f.matrix, t2.g.matrix, t2.h.matrix
    a, b, c = ((general_linear(target) if invertible else _all_matrices(target, source))
               for target, source in ((x2, x1), (y2, y1), (z2, z1)))
    b_keys = _key_pairs(b @ f1, g2 @ b)
    a_keys = _key_pairs(f2 @ a, a @ h1)
    i, j = _match(b_keys[0], a_keys[0])
    width = 4 ** (x2 * z1)
    found = np.isin(b_keys[1][i] * width + a_keys[1][j], _keys(c @ g1) * width + _keys(h2 @ c))
    return bool(found.any() if invertible else found.all())


def is_isomorphic(t1: Z4Triangle, t2: Z4Triangle) -> bool:
    """Whether invertible (u, v, w) carry t1 to t2: v f1 = f2 u,
    w g1 = g2 v, u h1 = h2 w; the key join over GL (_pair_join), for
    triangles whose composites need not vanish."""
    return t1.ranks == t2.ranks and _pair_join(t1, t2, True)


def _rank_bound(value) -> int:
    """value as a plain int rank bound: a bool, a float, a string or a
    negative bound is refused with one line, not truncated.  Integer
    numpy scalars are integers; numpy bools are not."""
    try:
        bound = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        bound = None
    if bound is None:
        raise ValueError(f"rank bound {value!r} is not an integer")
    if bound < 0:
        raise ValueError(f"rank bound {bound} is negative")
    return bound


def _class_count(max_rank: int) -> int:
    """How many direct sums of elementary triangles lie within the rank
    bound b, len(_incidence(b)), in closed form.

    With a copies of the 2-triangle and x, y and z of the contractible
    triangles of ranks (1, 1, 0), (1, 0, 1) and (0, 1, 1), a sum has
    ranks (a+x+y, a+x+z, a+y+z).  So with c = b - a, K(b) = T(0) + ... +
    T(b), where T(c) counts the (x, y, z) >= 0 whose pairwise sums are at
    most c.
    - T: for x = c - m, y and z run over 0..m with y + z <= c.  Of the
      (m+1)**2 pairs, those with y + z > c are, in y' = m - y and z' = m
      - z, the pairs with y' + z' < t for t = 2m - c, t(t+1)/2 of them when
      t > 0.  Summed over m = 0..c, the (m+1)**2 give (c+1)(c+2)(2c+3)/6,
      and the t run over 2, 4, ..., 2j at c = 2j and 1, 3, ..., 2j+1 at c
      = 2j+1, where their t(t+1)/2 sum to j(j+1)(4j+5)/6 and
      (j+1)(j+2)(4j+3)/6.  So T(2j) = (j+1)(4j**2+5j+2)/2 and T(2j+1) =
      (j+1)(4j**2+11j+8)/2.
    - K: at b = 2k + r with r in {0, 1}, K(b) = (k+1)**2 (k+1+r)**2 +
      r(k+1)(k+2)/2.  It is 1 at b = 0, and its steps are T's:
      K(2k) - K(2k-1) = (k+1)**2 (2k+1) - k(k+1)/2 = T(2k), and
      K(2k+1) - K(2k) = (k+1)**2 (2k+3) + (k+1)(k+2)/2 = T(2k+1)."""
    k, r = divmod(max_rank, 2)
    return (k + 1) ** 2 * (k + 1 + r) ** 2 + r * (k + 1) * (k + 2) // 2


@functools.cache
def _incidence(max_rank: int) -> np.ndarray:
    """Per direct sum of elementary triangles within the rank bound, in
    lexicographic order, how many times each of elementary_triangles() is
    a summand of it: the zero triangle first."""
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
def _elementary_verdicts() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The verdicts C, R, S and E on the elementary triangles s_i that
    verify_axioms reads its steps off: C_i, whether the composites of s_i
    vanish; R_i, whether rotate(s_i) is in the class; S_ij, whether s_i
    (+) s_j is, decided for the 10 pairs i <= j, as the block swap carries
    s_j (+) s_i to s_i (+) s_j (the permutation lemma at verify_axioms);
    and E_ij, TR3 for (s_i, s_j), by the key join over all matrices at
    rank 1.  Decided on the first call only: they depend on nothing but
    the four triangles."""
    elems = elementary_triangles()
    rotations = np.array([in_distinguished_class(t.rotate(), 1) for t in elems])
    sums = np.zeros((len(elems),) * 2, dtype=bool)
    for i, j in itertools.combinations_with_replacement(range(len(elems)), 2):
        sums[i, j] = sums[j, i] = in_distinguished_class(elems[i].direct_sum(elems[j]), 2)
    return (_readonly(np.array([t.is_candidate for t in elems])),
            _readonly(rotations),
            _readonly(sums),
            _readonly(np.array([[_pair_join(s, t, False) for t in elems] for s in elems])))


# distinguished_representatives builds every representative: at bound 16
# (6 561 of them) that takes 2.8-3.2 s and 52 MB, at 18 (10 000) 5.1 s
# and 70 MB, and the cost grows about as the bound to the 5th (2-vCPU VM).
_REPRESENTATIVES_BOUND = 16


def distinguished_representatives(max_rank: int = 2) -> list[Z4Triangle]:
    """One representative per isomorphism class of direct sums of
    elementary triangles with all three ranks bounded by max_rank.  The
    enumeration is built once per bound; each call returns a new list.
    A bound above _REPRESENTATIVES_BOUND is refused before anything is
    built."""
    max_rank = _rank_bound(max_rank)
    if max_rank > _REPRESENTATIVES_BOUND:
        raise ValueError(f"rank bound {max_rank} has {_class_count(max_rank)} representatives, "
                         f"too many to build above the bound of {_REPRESENTATIVES_BOUND}")
    return list(_representatives(max_rank)[0])


def in_distinguished_class(t: Z4Triangle, max_rank: int = 2) -> bool:
    """Whether t is isomorphic to a direct sum of elementary triangles,
    decided with no search at any rank bound; ranks of t above the bound
    are refused.

    - Composites: a triangle in the class has vanishing composites, as
      the elementary triangles do and isomorphisms and sums keep them.  So
      t is refused unless its composites vanish.
    - Splitting: let a map m of t, say f, have a unit entry f_ij, its own
      inverse mod 4.  Row operations on Y clear the rest of column j, and
      column operations on X the rest of row i.  They change g only in
      column i and h only in row j, as g u^-1 and v^-1 h, and they leave
      the Schur complement f' = f - f_:j f_ij f_i: on the other rows and
      columns.  Now (g f)_:j = g_:i f_ij and (f h)_i: = f_ij h_j: vanish,
      so g's column i and h's row j are 0: t is the rank-1 contractible
      triangle (f_ij, 0, 0) on (X_j, Y_i, 0), isomorphic to an elementary
      one, plus the triangle (f', g without column i, h without row j).
      A unit of g or h splits off a rotation in the same way.
    - Cancellation: triangles are modules of finite length over the path
      ring of the 3-cycle over Z/4, whose indecomposables have local
      endomorphism rings, so Krull-Schmidt cancellation holds: t is in the
      class iff what is left after a split is.
    - All-even core: once no entry is a unit, t = (2A, 2B, 2C), and no
      isomorphism makes an entry a unit.  So t is in the class iff it is
      isomorphic to k 2-triangles: iff its ranks are (k, k, k) and
      invertible (u, v, w) have v f = 2u, w g = 2v and u h = 2w.  Mod 2
      that is A = v^-1 u, B = w^-1 v and C = u^-1 w, which (u, v, w) =
      (1, A^-1, A^-1 B^-1), lifted to Z/4, solve iff C B A = I mod 2."""
    max_rank = _rank_bound(max_rank)
    if max(t.ranks) > max_rank:
        raise ValueError(f"ranks {t.ranks} exceed the bound {max_rank}")
    if not t.is_candidate:
        return False
    maps = [t.f.matrix, t.g.matrix, t.h.matrix]
    while unit := next(((k, *np.argwhere(m % 2)[0]) for k, m in enumerate(maps)
                        if (m % 2).any()), None):
        k, i, j = unit
        m = maps[k]
        schur = (m - m[i, j] * np.outer(m[:, j], m[i])) % 4
        maps[k] = np.delete(np.delete(schur, i, axis=0), j, axis=1)
        maps[(k + 1) % 3] = np.delete(maps[(k + 1) % 3], i, axis=1)
        maps[(k + 2) % 3] = np.delete(maps[(k + 2) % 3], j, axis=0)
    f, g, h = (m // 2 for m in maps)
    return f.shape == g.shape == h.shape and np.array_equal(h @ g @ f % 2, np.eye(len(f)))


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
    max_rank = _rank_bound(max_rank)
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
    """Verification, on the K class representatives with ranks bounded by
    max_rank, of: vanishing consecutive composites, closure under
    rotation, closure under direct sums, and existence of TR3 fill-ins
    for every commuting pair.  K is counted in closed form (_class_count)
    and each step is read off the verdicts C, R, S and E on the four
    elementary triangles s_i (_elementary_verdicts), so no representative
    is built and every bound costs the same.

    At bound 0 the only representative is the zero triangle, and every
    step holds.  At a bound >= 1 each s_i, of ranks at most 1, is a
    representative, and the steps are C.all(), R.all(), S.all() and
    E.all(), by these lemmas on representatives T = (+)_i s_i and T' =
    (+)_j s'_j, whose maps are block diagonal:
    - Composites: g f, h g and f h are block diagonal with blocks g_i f_i,
      h_i g_i and f_i h_i, so T passes iff each s_i does.
    - Rotation: rotate(T) = (g, h, -f) is (+)_i rotate(s_i).  If each
      rotate(s_i) is in the class, it is isomorphic to one elementary
      triangle, as its ranks sum to 2 or 3 and those of a sum of two
      elementary triangles to 4 or more.  Then the block sum of these
      isomorphisms and a permutation carry rotate(T) to the
      representative of those elementary triangles, whose ranks are T's
      rotated and so within the bound.  So T passes if each rotate(s_i)
      is in the class, and all pass iff R.all(), the s_i being
      representatives.
    - Sums (permutation lemma): T (+) T' is a reordering of the summands
      of the representative of incidence n + n', and the permutation
      matrices that reorder the blocks of X, Y and Z alike are an
      isomorphism of triangles.  So a sum of sums of elementary triangles
      is one, and is in the class by its definition.  S checks where that
      induction starts, that s_i (+) s_j is decided a member; it serves
      every bound >= 1, and fails if direct_sum or the membership
      reduction is wrong.
    - TR3 holds for (T, T') iff it holds for every (s_i, s'_j), so all
      pairs pass iff E.all().  A morphism T -> T' on X (or Y, Z) is a
      matrix of blocks s_i -> s'_j, and block (j, i) of b f - f' a is
      b_ji f_i - f'_j a_ji, and likewise for the other squares.  So (a,
      b) commutes, and c fills it, iff every block does: fills of the
      blocks fill a commuting pair, and a commuting pair of (s_i, s'_j)
      set in block (j, i), zero elsewhere, has a fill whose block (j, i)
      fills it."""
    max_rank = _rank_bound(max_rank)
    count = _class_count(max_rank)
    report = VerificationReport(max_rank=max_rank)
    report.add(f"enumerated {count} class representatives", count > 0)
    claims = ("consecutive composites vanish on every representative",
              "rotation of every representative stays in the class",
              "direct sums of representatives stay in the class",
              "TR3 fill-in exists for every commuting pair")
    for claim, verdicts in zip(claims, _elementary_verdicts()):
        report.add(claim, max_rank == 0 or bool(verdicts.all()))
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
