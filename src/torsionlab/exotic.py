"""Exhaustive checker for the triangulated structure on finitely generated
free Z/4-modules with identity shift.

The category F(Z/4) of finitely generated free Z/4-modules carries a
triangulation whose shift functor is the identity and whose basic
distinguished triangle is

    Z/4 --2--> Z/4 --2--> Z/4 --2--> Z/4.

This module enumerates the candidate distinguished class (direct sums of
elementary triangles up to isomorphism), verifies the triangle axioms
exhaustively in low rank, and certifies that multiplication by 2 on the
rank-one object is nonzero even though its cone is again the rank-one
object — the behavior that separates this category from algebraic ones.

Everything that does not depend on a verdict is built once per process:
the class representatives for each rank bound, the stacks of all
matrices of each shape, and GL_r(Z/4), found as the matrices of odd
determinant.  Verdicts are recomputed on every call.  Searches never
loop over matrices in Python: each matrix product is taken over a whole
stack at once and encoded as one integer key per matrix, isomorphisms
are found by joining the distinct keys of the GL stacks, and TR3 is
decided by joining the distinct keys of the candidate a and b on the
commutation condition and looking the result up among the keys of all
fill-ins c, so rank 3 runs in memory."""

from __future__ import annotations

import functools
import itertools
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
        return Z4Morphism.from_matrix((-self.matrix) % 4, self.source, self.target)

    @property
    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def direct_sum(self, other: "Z4Morphism") -> "Z4Morphism":
        m = np.zeros((self.target + other.target, self.source + other.source), dtype=np.int64)
        m[: self.target, : self.source] = self.matrix
        m[self.target :, self.source :] = other.matrix
        return Z4Morphism.from_matrix(m, self.source + other.source, self.target + other.target)

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
        return (
            self.g.compose(self.f).is_zero
            and self.h.compose(self.g).is_zero
            and self.f.compose(self.h).is_zero
        )

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


def elementary_triangles() -> list[Z4Triangle]:
    """The 2-triangle, the rank-1 contractible triangle, and its two
    rotations."""
    c0 = contractible_triangle()
    c1 = c0.rotate()
    c2 = c1.rotate()
    return [two_triangle(), c0, c1, c2]


@functools.cache
def _all_matrices(target: int, source: int) -> np.ndarray:
    """All (target x source) matrices over Z/4, stacked along axis 0 and
    read-only; built once per shape."""
    n = target * source
    grids = np.indices((4,) * n, dtype=np.int64).reshape(n, 4**n).T
    return _readonly(grids.reshape(4**n, target, source))


@functools.cache
def general_linear(rank: int) -> np.ndarray:
    """All invertible (rank x rank) matrices over Z/4, read-only and built
    once per rank.  A matrix is invertible mod 4 iff its determinant is
    odd.  For rank <= 3 the determinant of a matrix with entries in 0..3
    is an integer of absolute value at most 162, so rounding the
    floating-point determinant of the whole stack gives it exactly."""
    mats = _all_matrices(rank, rank)
    det = np.rint(np.linalg.det(mats)).astype(np.int64)
    return _readonly(mats[det % 2 == 1])


def _encode(*stacks: np.ndarray) -> np.ndarray:
    """One integer key per index i of equal-length matrix stacks: the
    entries mod 4 of stacks[0][i], stacks[1][i], ... as base-4 digits,
    the last stack's entries lowest, so
    _encode(s, t) == _encode(s) * 4**t[0].size + _encode(t)."""
    flat = np.concatenate(
        [s.reshape(len(s), -1) for s in reversed(stacks)], axis=1
    ) % 4
    return flat @ 4 ** np.arange(flat.shape[1], dtype=np.int64)


def _distinct_pairs(first: np.ndarray, second: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The distinct key pairs (_encode(first[i]), _encode(second[i])), as
    two aligned arrays sorted by the first key."""
    return np.divmod(np.unique(_encode(first, second)), 4 ** second[0].size)


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


def _joined_keys(left: tuple[np.ndarray, np.ndarray],
                 right: tuple[np.ndarray, np.ndarray], width: int) -> np.ndarray:
    """For key pairs left = (k, l) and right = (k, r), right sorted by k:
    the key l * width + r of every left and right row that agree on k."""
    i, j = _match(left[0], right[0])
    return left[1][i] * width + right[1][j]


def is_isomorphic(t1: Z4Triangle, t2: Z4Triangle) -> bool:
    """Whether invertible (u, v, w) carry t1 to t2: v f1 = f2 u,
    w g1 = g2 v, u h1 = h2 w.

    Each of u, v, w enters two of the three equations, so each GL stack
    is reduced to the distinct key pairs of its two products, computed by
    one batched matmul each.  The u and v pairs are joined on the key of
    the first equation; an isomorphism exists iff some joined pair of
    keys for the other two equations is a key pair of some w."""
    if t1.ranks != t2.ranks:
        return False
    rx, _, rz = t1.ranks
    f1, g1, h1 = t1.f.matrix, t1.g.matrix, t1.h.matrix
    f2, g2, h2 = t2.f.matrix, t2.g.matrix, t2.h.matrix
    gl_x, gl_y, gl_z = (general_linear(r) for r in t1.ranks)
    v_keys = _distinct_pairs(gl_y @ f1, g2 @ gl_y)
    u_keys = _distinct_pairs(f2 @ gl_x, gl_x @ h1)
    width = 4 ** (rx * rz)
    w_keys = _encode(gl_z @ g1, h2 @ gl_z)
    joined = _joined_keys(v_keys, u_keys, width)
    return len(_match(joined, np.unique(w_keys))[0]) > 0


@functools.cache
def _representatives(max_rank: int) -> tuple[Z4Triangle, ...]:
    if max_rank > 3:
        raise ValueError("rank bound above 3 makes exhaustive checks infeasible")
    elems = elementary_triangles()
    rank_vectors = [t.ranks for t in elems]
    reps = [zero_triangle()]
    for counts in itertools.product(range(max_rank + 1), repeat=len(elems)):
        if sum(counts) == 0:
            continue
        ranks = tuple(
            sum(c * rv[i] for c, rv in zip(counts, rank_vectors)) for i in range(3)
        )
        if max(ranks) > max_rank:
            continue
        tri = None
        for t, c in zip(elems, counts):
            for _ in range(c):
                tri = t if tri is None else tri.direct_sum(t)
        reps.append(tri)
    return tuple(reps)


def distinguished_representatives(max_rank: int = 2) -> list[Z4Triangle]:
    """One representative per isomorphism class of direct sums of
    elementary triangles with all three ranks bounded by max_rank.  The
    enumeration is built once per bound; each call returns a new list."""
    return list(_representatives(max_rank))


def in_distinguished_class(t: Z4Triangle, max_rank: int = 2) -> bool:
    """Whether t is isomorphic to a direct sum of elementary triangles."""
    if max(t.ranks) > max_rank:
        raise ValueError(f"ranks {t.ranks} exceed the bound {max_rank}")
    return any(is_isomorphic(t, rep) for rep in distinguished_representatives(max_rank))


def check_TR1_cone(f: Z4Morphism, max_rank: int = 2) -> Z4Triangle | None:
    """A distinguished triangle whose first map is isomorphic to f, or
    None if no class member within the rank bound extends f.  The first
    maps are isomorphic iff v f = r u for invertible u, v: the distinct
    keys of v f and of r u share a value."""
    v_keys = np.unique(_encode(general_linear(f.target) @ f.matrix))
    for rep in distinguished_representatives(max_rank):
        if rep.f.source != f.source or rep.f.target != f.target:
            continue
        u_keys = np.unique(_encode(rep.f.matrix @ general_linear(f.source)))
        if len(_match(v_keys, u_keys)[0]):
            return rep
    return None


def check_TR3_fill(
    t1: Z4Triangle, t2: Z4Triangle, a: Z4Morphism, b: Z4Morphism
) -> Z4Morphism | None:
    """A fill-in c for a commuting pair (a, b) between two triangles:
    requires b f1 = f2 a, finds c with c g1 = g2 b and h2 c = a h1, or
    returns None after exhausting all candidates.  This is the
    brute-force reference for _tr3_holds_for_pair."""
    if not np.array_equal(
        (b.matrix @ t1.f.matrix) % 4, (t2.f.matrix @ a.matrix) % 4
    ):
        raise ValueError("(a, b) does not commute with the first maps")
    g1, g2 = t1.g.matrix, t2.g.matrix
    h1, h2 = t1.h.matrix, t2.h.matrix
    want_left = (g2 @ b.matrix) % 4
    want_right = (a.matrix @ h1) % 4
    for c in _all_matrices(t2.g.target, t1.g.target):
        if np.array_equal((c @ g1) % 4, want_left) and np.array_equal(
            (h2 @ c) % 4, want_right
        ):
            return Z4Morphism.from_matrix(c, t1.g.target, t2.g.target)
    return None


def _tr3_holds_for_pair(t1: Z4Triangle, t2: Z4Triangle) -> bool:
    """Exhaustively: every commuting (a, b) between t1 and t2 admits a
    fill-in, decided by a join on integer keys.

    Only the keys (b f1, g2 b) of b and (f2 a, a h1) of a matter, so each
    stack is reduced to its distinct key pairs.  Joining them on the
    commutation key b f1 = f2 a yields the (g2 b, a h1) that some fill-in
    c must meet, and each must be the key (c g1, h2 c) of some c."""
    f1, g1, h1 = t1.f.matrix, t1.g.matrix, t1.h.matrix
    f2, g2, h2 = t2.f.matrix, t2.g.matrix, t2.h.matrix
    a_stack = _all_matrices(t2.f.source, t1.f.source)
    b_stack = _all_matrices(t2.f.target, t1.f.target)
    c_stack = _all_matrices(t2.g.target, t1.g.target)
    b_keys = _distinct_pairs(b_stack @ f1, g2 @ b_stack)
    a_keys = _distinct_pairs(f2 @ a_stack, a_stack @ h1)
    width = 4 ** (t2.f.source * t1.g.target)
    fills = _encode(c_stack @ g1, h2 @ c_stack)
    needed = _joined_keys(b_keys, a_keys, width)
    return len(_match(needed, np.unique(fills))[0]) == len(needed)


@dataclass
class VerificationReport:
    """Outcome of the exhaustive low-rank axiom checks."""

    max_rank: int
    passed: bool
    steps: list[tuple[str, bool]] = field(default_factory=list)

    def add(self, description: str, ok: bool) -> None:
        self.steps.append((description, ok))
        self.passed = self.passed and ok


def verify_axioms(max_rank: int = 2) -> VerificationReport:
    """Exhaustive verification, on all class representatives with ranks
    bounded by max_rank, of: vanishing consecutive composites, closure
    under rotation, closure under direct sums, and existence of TR3
    fill-ins for every commuting pair."""
    report = VerificationReport(max_rank=max_rank, passed=True)
    reps = distinguished_representatives(max_rank)
    report.add(f"enumerated {len(reps)} class representatives", len(reps) > 0)
    report.add(
        "consecutive composites vanish on every representative",
        all(t.is_candidate for t in reps),
    )
    report.add(
        "rotation of every representative stays in the class",
        all(in_distinguished_class(t.rotate(), max_rank) for t in reps),
    )
    sums_ok = True
    for t1, t2 in itertools.combinations_with_replacement(reps, 2):
        s = t1.direct_sum(t2)
        if max(s.ranks) > max_rank:
            continue
        if not in_distinguished_class(s, max_rank):
            sums_ok = False
            break
    report.add("direct sums of representatives stay in the class", sums_ok)
    tr3_ok = all(
        _tr3_holds_for_pair(t1, t2) for t1 in reps for t2 in reps
    )
    report.add("TR3 fill-in exists for every commuting pair", tr3_ok)
    return report


@dataclass
class TwoOrderCertificate:
    """Certificate that the rank-one object has 2-order zero."""

    two_id_nonzero: bool
    cone_rank: int
    cone_is_rank_one: bool
    two_cone_nonzero: bool
    passed: bool
    lines: list[str] = field(default_factory=list)


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
    passed = nonzero and cone_is_rank_one and two_cone_nonzero
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
        passed=passed,
        lines=lines,
    )
