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
determinant, each only up to the rank a call needs.  Verdicts are
recomputed on every call.  Searches never loop over matrices in Python:
each matrix product is taken over a whole stack at once and encoded as
one integer key per matrix.  TR3 for all pairs of representatives, and
class membership for all rotations or all direct sums, are each one
batched join (_pair_verdicts): every pair's key arrays are concatenated
under the pair index, the distinct keys of the candidate a and b are
joined on the commutation condition, and the result is looked up among
the keys of all fill-ins c (for TR3) or of all invertible w (for
isomorphism).  Batches are cut by stack size, so rank 3 runs in memory."""

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


@functools.cache
def _powers(n: int) -> np.ndarray:
    return _readonly(4 ** np.arange(n, dtype=np.int64))


def _encode(stack: np.ndarray) -> np.ndarray:
    """One integer key per matrix of a stack: its entries mod 4 as base-4
    digits, the first entry lowest."""
    flat = stack.reshape(len(stack), -1) % 4
    return flat @ _powers(flat.shape[1])


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
                  width: int, every: bool) -> np.ndarray:
    """The verdicts of one batch of n_pairs pairs from its packed keys
    (pair * width + k1) * width + k2: (pair, b f1, g2 b) for b, (pair,
    f2 a, a h1) for a and (pair, c g1, h2 c) for c, each key below width.
    The distinct b and a keys are joined on (pair, commutation key); every
    joined (pair, g2 b, a h1) is looked up among the c keys."""
    wide = width * width
    b, a, c = _distinct(b), _distinct(a), np.sort(c)
    i, j = _match(b // width, a // width)
    pair = b[i] // wide
    needed = pair * wide + b[i] % width * width + a[j] % width
    found = c[np.minimum(np.searchsorted(c, needed), len(c) - 1)] == needed
    if every:
        return np.bincount(pair[~found], minlength=n_pairs) == 0
    return np.bincount(pair[found], minlength=n_pairs) > 0


# A batch of pairs is cut once it holds this many matrices of the a, b and
# c stacks together, which bounds memory at rank 3; at rank <= 2 every
# call is one batch.
_BATCH_MATRICES = 1 << 18


def _key_width(triangles: list[Z4Triangle], n_pairs: int) -> int:
    """A bound on the matrix keys of a join between triangles: a product
    of two of their morphisms has at most rank**2 entries.  A packed key
    (pair * width + k1) * width + k2 must fit in int64."""
    rank = max((max(t.ranks) for t in triangles), default=0)
    width = 4 ** (rank * rank)
    if n_pairs * width * width > 2**63:
        raise ValueError(f"rank {rank} is too large to pack pair keys in int64")
    return width


def _pair_verdicts(sources: list[Z4Triangle], targets: list[Z4Triangle],
                   pairs: list[tuple[int, int]], stack, every: bool) -> np.ndarray:
    """For each (i, j) in pairs, with t1 = sources[i] and t2 = targets[j],
    whether for every (every=True) or for some (every=False) a and b drawn
    from stack(rows, cols) with b f1 = f2 a there is a c from the stack
    with c g1 = g2 b and h2 c = a h1.  With stack = _all_matrices and
    every=True this is TR3 for the pair; with invertible stacks and
    every=False it is an isomorphism t1 -> t2.  Pairs must come grouped by
    source.

    A morphism m of a triangle is met only through the keys of X m (m in
    t1) and of m X (m in t2) for X over a stack, so each such key array is
    computed once per call, and kept as int32 (keys are below 4**9) while
    its triangle can still be met.  The arrays of a batch of pairs are
    concatenated under the pair index in the high digits and decided by
    _decide_batch."""
    width = _key_width([*sources, *targets], len(pairs))
    verdicts = np.zeros(len(pairs), dtype=bool)
    before: dict[tuple[int, int, int], np.ndarray] = {}
    after: dict[tuple[int, int], np.ndarray] = {}  # of the current source
    source = None
    high, low, counts = ([[], [], []] for _ in range(3))
    start, held = 0, 0
    for n, (i, j) in enumerate(pairs):
        if i != source:
            after.clear()
            source = i
        t1, t2 = sources[i], targets[j]
        # The three variables pair a morphism m1 of t1 with one m2 of t2
        # and run over stack(m2.source, m1.target): b with (f1, g2), a
        # with (h1, f2), c with (g1, h2).
        for var, m1, m2 in ((0, t1.f, t2.g), (1, t1.h, t2.f), (2, t1.g, t2.h)):
            x = after.get((var, m2.source))
            if x is None:
                x = after[var, m2.source] = _encode(
                    stack(m2.source, m1.target) @ m1.matrix).astype(np.int32)
            y = before.get((j, var, m1.target))
            if y is None:
                y = before[j, var, m1.target] = _encode(
                    m2.matrix @ stack(m2.source, m1.target)).astype(np.int32)
            # Key order: b (b f1, g2 b), a (f2 a, a h1), c (c g1, h2 c).
            k1, k2 = (y, x) if var == 1 else (x, y)
            high[var].append(k1)
            low[var].append(k2)
            counts[var].append(len(x))
            held += len(x)
        if held < _BATCH_MATRICES and n + 1 < len(pairs):
            continue
        keys = [
            (np.repeat(np.arange(n + 1 - start) * width, counts[var])
             + np.concatenate(high[var], dtype=np.int64)) * width
            + np.concatenate(low[var], dtype=np.int64)
            for var in range(3)
        ]
        verdicts[start:n + 1] = _decide_batch(*keys, n + 1 - start, width, every)
        high, low, counts = ([[], [], []] for _ in range(3))
        start, held = n + 1, 0
    return verdicts


def _invertible(rows: int, cols: int) -> np.ndarray:
    """The stack of an isomorphism join: GL of the (equal) rank."""
    return general_linear(rows)


def _members(queries: list[Z4Triangle], reps: list[Z4Triangle]) -> np.ndarray:
    """Per query, whether it is isomorphic to one of reps: one batched
    join over every (query, representative) pair of equal ranks."""
    by_ranks: dict[tuple[int, int, int], list[int]] = {}
    for j, rep in enumerate(reps):
        by_ranks.setdefault(rep.ranks, []).append(j)
    pairs = [(i, j) for i, q in enumerate(queries) for j in by_ranks.get(q.ranks, ())]
    iso = _pair_verdicts(queries, reps, pairs, _invertible, every=False)
    hits = [i for (i, _), ok in zip(pairs, iso) if ok]
    return np.bincount(hits, minlength=len(queries)) > 0


def is_isomorphic(t1: Z4Triangle, t2: Z4Triangle) -> bool:
    """Whether invertible (u, v, w) carry t1 to t2: v f1 = f2 u,
    w g1 = g2 v, u h1 = h2 w; the batched join on one pair."""
    return t1.ranks == t2.ranks and bool(
        _pair_verdicts([t1], [t2], [(0, 0)], _invertible, every=False)[0])


@functools.cache
def _representatives(max_rank: int) -> tuple[Z4Triangle, ...]:
    if max_rank < 0:
        raise ValueError(f"rank bound {max_rank} is negative")
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
    return bool(_members([t], distinguished_representatives(max_rank))[0])


def check_TR1_cone(f: Z4Morphism, max_rank: int = 2) -> Z4Triangle | None:
    """A distinguished triangle whose first map is isomorphic to f, or
    None if no class member within the rank bound extends f.  The first
    maps are isomorphic iff v f = r u for invertible u, v: the distinct
    keys of v f and of r u share a value."""
    v_keys = _distinct(_encode(general_linear(f.target) @ f.matrix))
    for rep in distinguished_representatives(max_rank):
        if rep.f.source != f.source or rep.f.target != f.target:
            continue
        u_keys = _distinct(_encode(rep.f.matrix @ general_linear(f.source)))
        if len(_match(v_keys, u_keys)[0]):
            return rep
    return None


def _tr3_verdicts(triangles: list[Z4Triangle]) -> np.ndarray:
    """TR3 for every ordered pair: entry (i, j) says whether every
    commuting (a, b) from triangles[i] to triangles[j] has a fill-in."""
    n = len(triangles)
    pairs = list(itertools.product(range(n), repeat=2))
    return _pair_verdicts(triangles, triangles, pairs, _all_matrices,
                          every=True).reshape(n, n)


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
        bool(_members([t.rotate() for t in reps], reps).all()),
    )
    sums = [
        t1.direct_sum(t2)
        for t1, t2 in itertools.combinations_with_replacement(reps, 2)
        if max(r1 + r2 for r1, r2 in zip(t1.ranks, t2.ranks)) <= max_rank
    ]
    report.add(
        "direct sums of representatives stay in the class",
        bool(_members(sums, reps).all()),
    )
    report.add(
        "TR3 fill-in exists for every commuting pair",
        bool(_tr3_verdicts(reps).all()),
    )
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
