"""Finite graded modules over the mod-p Steenrod algebra.

A module is a finite collection of F_p-vector spaces indexed by degree,
with an action of each generator; degrees not listed are genuinely zero.
Includes Moore/sphere/cell constructions, tensor products via the Cartan
formula, Adem-consistency checking, and an exact decomposability decision
through the radical of the endomorphism algebra.

A module is stored in one layout, its whole-module form: the basis of
every degree in increasing degree order, and one total_dim x total_dim
matrix per acting generator whose only nonzero blocks map degree d to
d + deg(g).  Products of these matrices compose the actions degree by
degree with no index bookkeeping; the per-degree blocks (`action`,
`actions`) are views into them.  Because each generator's blocks sit at
their own degree difference, the generators of one kind add up to one
total operation I + sum_k Sq^k, and the Cartan formula makes that
multiplicative, so `tensor` reads every generator of A (x) B off entrywise
products of the factors' total operations, one target degree at a time.
Endomorphisms are block-diagonal matrices in the same layout
(`_offsets`), so both Fitting summands of one are read off one rref of
its stable power (`_fitting_split`), and their products and traces are
taken degree block by degree block (`_degree_blocks`).
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import fpmatrix as fp
from .steenrod import (
    BOCKSTEIN,
    Generator,
    Monomial,
    P,
    PrimeMismatchError,
    Sq,
    SteenrodElement,
    adem_normalize,
    check_prime,
    degree as element_degree,
)


class ModuleError(Exception):
    pass


class FiniteModule:
    """A finite graded module in its whole-module form: `dims` in
    increasing degree order, and `matrices`, one total_dim x total_dim
    matrix per acting generator, reduced mod p and never zero.

    The constructor checks the action of each generator degree by degree
    and lays the blocks out whole once; the constructions below build whole
    matrices and pass them to `_whole`, which checks nothing.  `word`
    multiplies the matrices out, keeping the products of two generators,
    which the words of a relation and its normal form share."""

    def __init__(self, prime: int, dims: dict[int, int],
                 actions: dict[tuple[Generator, int], np.ndarray],
                 labels: dict[int, list[str]] | None = None):
        p = check_prime(prime)
        dims = dict(sorted((int(d), int(n)) for d, n in dims.items()))
        negative = {d: n for d, n in dims.items() if n < 0}
        if negative:
            raise ModuleError(f"negative dimensions {negative}")
        dims = {d: n for d, n in dims.items() if n}
        if labels is not None:
            if sorted(labels) != list(dims):
                raise ModuleError(f"labels are given for degrees {sorted(labels)}, "
                                  f"expected one list per occupied degree {list(dims)}")
            for d, n in dims.items():
                if len(labels[d]) != n:
                    raise ModuleError(f"degree {d} has {n} dimensions but "
                                      f"{len(labels[d])} labels")
        self._init(p, dims, {}, labels)
        for (g, d), mat in actions.items():
            if not g.valid_at(p):
                raise PrimeMismatchError(f"generator {g} invalid at p={p}")
            mat = np.array(mat, dtype=np.int64) % p
            target = d + g.degree_at(p)
            src, tgt = self.dim(d), self.dim(target)
            if mat.shape != (tgt, src):
                raise ModuleError(
                    f"action of {g} at degree {d} has shape {mat.shape}, "
                    f"expected {(tgt, src)}")
            if src and tgt and mat.any():
                if g not in self.matrices:
                    self.matrices[g] = fp.zeros(self.total_dim, self.total_dim)
                self.block(self.matrices[g], target, d)[:] = mat
        self._freeze()

    @classmethod
    def _whole(cls, prime: int, dims: dict[int, int],
               matrices: dict[Generator, np.ndarray],
               labels: dict[int, list[str]] | None = None) -> FiniteModule:
        """The module with these whole-module matrices, unchecked: dims in
        increasing degree order, positive, and matrices reduced mod p in
        that layout, none of them zero."""
        M = cls.__new__(cls)
        M._init(prime, dims, matrices, labels)
        M._freeze()
        return M

    def _init(self, prime, dims, matrices, labels) -> None:
        self.prime, self.dims, self.matrices, self.labels = prime, dims, matrices, labels
        self.offsets = _offsets(dims)
        self.total_dim = sum(dims.values())
        self._pairs: dict[tuple[Generator, Generator], np.ndarray | None] = {}

    def _freeze(self) -> None:
        # Modules share matrices (`shift`), and `action` and `actions` are
        # views into them, so no caller may write to them.
        for mat in self.matrices.values():
            mat.flags.writeable = False

    def dim(self, d: int) -> int:
        return self.dims.get(d, 0)

    @property
    def degrees(self) -> list[int]:
        return list(self.dims)

    def block(self, mat: np.ndarray, target: int, source: int) -> np.ndarray:
        """The block of a whole-module matrix from degree source to target."""
        row, col = self.offsets[target], self.offsets[source]
        return mat[row:row + self.dims[target], col:col + self.dims[source]]

    def basis_degrees(self) -> np.ndarray:
        """The degree of each basis vector."""
        return np.repeat(self.degrees, list(self.dims.values()))

    def action(self, g: Generator, d: int) -> np.ndarray:
        """Matrix of g from degree d, zero where unstored."""
        target = d + g.degree_at(self.prime)
        mat = self.matrices.get(g)
        if mat is None or d not in self.dims or target not in self.dims:
            return fp.zeros(self.dim(target), self.dim(d))
        return self.block(mat, target, d)

    @property
    def actions(self) -> dict[tuple[Generator, int], np.ndarray]:
        """The nonzero blocks of the generators, keyed (generator, source
        degree) in sorted order."""
        return {(g, d): block for g in sorted(self.matrices) for d in self.dims
                if (block := self.action(g, d)).any()}

    def word(self, word: tuple[Generator, ...]) -> np.ndarray | None:
        """Matrix of a word of generators, None when it acts as zero."""
        if not word:
            return fp.identity(self.total_dim)
        first = self.matrices.get(word[0])
        if first is None or len(word) == 1:
            return first
        if len(word) == 2:
            if word not in self._pairs:
                self._pairs[word] = self._times(first, self.matrices.get(word[1]))
            return self._pairs[word]
        return self._times(first, self.word(word[1:]))

    def _times(self, left: np.ndarray | None, right: np.ndarray | None) -> np.ndarray | None:
        if left is None or right is None:
            return None
        out = fp.matmul(left, right, self.prime)
        return out if out.any() else None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteModule):
            return NotImplemented
        return (self.prime == other.prime and self.dims == other.dims
                and self.matrices.keys() == other.matrices.keys()
                and all(np.array_equal(m, other.matrices[g])
                        for g, m in self.matrices.items()))

    def __repr__(self) -> str:
        return (f"FiniteModule(prime={self.prime!r}, dims={self.dims!r}, "
                f"actions={self.actions!r}, labels={self.labels!r})")


def _offsets(sizes: dict[int, int]) -> dict[int, int]:
    """Where each degree's block starts when the blocks of `sizes` are laid
    out in increasing degree order."""
    out: dict[int, int] = {}
    n = 0
    for d in sorted(sizes):
        out[d] = n
        n += sizes[d]
    return out


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def sphere_module(p: int, d: int = 0) -> FiniteModule:
    """One cell in degree d, all actions zero."""
    return FiniteModule._whole(check_prime(p), {d: 1}, {}, labels={d: [f"s{d}"]})


def moore_module(p: int) -> FiniteModule:
    """Two cells in degrees 0, 1 joined by a nonzero Bockstein."""
    p = check_prime(p)
    bock = Sq(1) if p == 2 else BOCKSTEIN
    bottom_to_top = np.array([[0, 0], [1, 0]], dtype=np.int64)
    return FiniteModule._whole(p, {0: 1, 1: 1}, {bock: bottom_to_top},
                               labels={0: ["e0"], 1: ["e1"]})


def shift(M: FiniteModule, k: int) -> FiniteModule:
    """M with every degree raised by k; the whole matrices are M's."""
    labels = ({d + k: list(v) for d, v in M.labels.items()}
              if M.labels else None)
    return FiniteModule._whole(M.prime, {d + k: n for d, n in M.dims.items()},
                               M.matrices, labels)


def direct_sum(A: FiniteModule, B: FiniteModule) -> FiniteModule:
    """A + B, with the basis of each degree A's then B's: the block-diagonal
    matrix of each generator, rows and columns stably sorted by degree.
    Both bases are sorted by degree already, so the sorted positions a of
    A's basis and b of B's merge two runs: degree d's block of the sum
    holds A's vectors of degree d, then B's.  Each factor's matrix is
    written once, straight into place."""
    if A.prime != B.prime:
        raise PrimeMismatchError("direct sum over different primes")
    dims = {d: A.dim(d) + B.dim(d) for d in sorted({*A.dims, *B.dims})}
    offsets = _offsets(dims)
    a = np.array([i for d, k in A.dims.items() for i in range(offsets[d], offsets[d] + k)],
                 dtype=np.int64)
    b = np.array([i for d, k in B.dims.items()
                  for i in range(offsets[d] + A.dim(d), offsets[d] + dims[d])], dtype=np.int64)
    n = A.total_dim + B.total_dim
    matrices = {}
    for g in sorted({*A.matrices, *B.matrices}):
        mat = matrices[g] = fp.zeros(n, n)
        if g in A.matrices:
            mat[a[:, None], a] = A.matrices[g]
        if g in B.matrices:
            mat[b[:, None], b] = B.matrices[g]
    return FiniteModule._whole(A.prime, dims, matrices)


def _total_operation(M: FiniteModule, kind: str) -> np.ndarray:
    """I + the sum of M's whole matrices of the generators of this kind (Sq
    or P): each sits at its own degree difference, so no two overlap."""
    out = fp.identity(M.total_dim)
    for g, mat in M.matrices.items():
        if g.kind == kind:
            out += mat
    return out


def tensor(A: FiniteModule, B: FiniteModule) -> FiniteModule:
    """Graded tensor product with the Cartan-formula action:
    Sq^k or P^k act by the sum of split actions, beta as a graded
    derivation with the Koszul sign (-1)^deg on the right factor.

    The basis of degree n is a_(i, a) (x) b_(n-i, b), ordered by i, a, b:
    the Kronecker basis of the factors, stably sorted by total degree.
    The Cartan formula says the total operation T = I + sum_k Sq^k (I +
    sum_k P^k at odd p) is multiplicative: entry ((a, b), (a', b')) of T
    on A (x) B is T_A[a, a'] T_B[b, b'], and Sq^k (P^k) is the part of T
    at degree difference k (k q, q = 2(p - 1)).  Beta is the part at
    degree difference 1 of (beta_A + diag((-1)^deg)) (x) (I + beta_B).  So
    each target degree's rows are one band, gathered from the factors'
    matrices over the columns of the source degrees that some generator
    reaches, multiplied entry by entry and cut into the generators'
    blocks; no Kronecker product of whole matrices is formed."""
    if A.prime != B.prime:
        raise PrimeMismatchError("tensor over different primes")
    p = A.prime
    deg_a, deg_b = A.basis_degrees(), B.basis_degrees()
    perm = np.argsort(np.add.outer(deg_a, deg_b).ravel(), kind="stable")
    # The (A index, B index) of each basis vector, in the output's order.
    index_a, index_b = np.divmod(perm, len(deg_b))
    sizes: dict[int, int] = {}
    for i in A.degrees:
        for j in B.degrees:
            sizes[i + j] = sizes.get(i + j, 0) + A.dims[i] * B.dims[j]
    dims = dict(sorted(sizes.items()))
    offsets = _offsets(dims)
    size, span = len(perm), max(dims) - min(dims) if dims else 0

    # (generator at degree difference k, left factor, right factor, step,
    # top): the part of left (x) right at every difference k <= top that
    # step divides.
    if p == 2:
        parts = [(Sq, _total_operation(A, "Sq"), _total_operation(B, "Sq"), 1, span)]
    else:
        q = 2 * (p - 1)
        beta_a = fp.identity(A.total_dim) * np.where(deg_a % 2, p - 1, 1)
        beta_b = fp.identity(B.total_dim)
        beta_a += A.matrices.get(BOCKSTEIN, 0)
        beta_b += B.matrices.get(BOCKSTEIN, 0)
        parts = [(lambda k: P(k // q), _total_operation(A, "P"), _total_operation(B, "P"),
                  q, span),
                 (lambda k: BOCKSTEIN, beta_a, beta_b, 1, 1)]

    matrices: dict[Generator, np.ndarray] = {}
    for generator, left, right, step, top in parts:
        for residue in range(step):
            # The degrees step apart: the sources of degree m are the run of
            # this chain from m - top up to m, so their columns, laid out
            # chain by chain, are one slice.
            chain = {n: dims[n] for n in dims if n % step == residue}
            if len(chain) < 2:
                continue
            cols = np.concatenate([np.arange(offsets[n], offsets[n] + dims[n]) for n in chain])
            chain_a, chain_b, at = index_a[cols], index_b[cols], _offsets(chain)
            degrees = list(chain)
            for i, m in enumerate(degrees):
                sources = [n for n in degrees[:i] if m - n <= top]
                if not sources:
                    continue
                rows, start = slice(offsets[m], offsets[m] + dims[m]), at[sources[0]]
                band = (left[index_a[rows, None], chain_a[start:at[m]]]
                        * right[index_b[rows, None], chain_b[start:at[m]]] % p)
                nonzero = band.any(axis=0).tolist()
                for n in sources:
                    lo = at[n] - start
                    if any(nonzero[lo:lo + dims[n]]):
                        g = generator(m - n)
                        if g not in matrices:
                            matrices[g] = fp.zeros(size, size)
                        matrices[g][rows, offsets[n]:offsets[n] + dims[n]] = band[:, lo:lo + dims[n]]
    labels = None
    if A.labels and B.labels:
        names_a = [A.labels[i][a] for i in A.degrees for a in range(A.dims[i])]
        names_b = [B.labels[j][b] for j in B.degrees for b in range(B.dims[j])]
        labels = {n: [f"{names_a[a]}*{names_b[b]}" for a, b in zip(
            index_a[row:row + dims[n]].tolist(), index_b[row:row + dims[n]].tolist())]
                  for n, row in offsets.items()}
    return FiniteModule._whole(p, dims, dict(sorted(matrices.items())), labels)


# ---------------------------------------------------------------------------
# Acting by algebra elements
# ---------------------------------------------------------------------------

def act_element(M: FiniteModule, e: SteenrodElement,
                d: int | None = None) -> np.ndarray:
    """Matrix of a homogeneous element from degree d to d + deg(e), or a
    zero matrix of that shape when either degree is empty.  Only degree d's
    columns are computed: each word's last letter is read there off its
    matrix, and the other letters' matrices are applied right to left.

    With d None, the whole-module matrix itself.  The products of pairs of
    generators are kept on M across calls (`FiniteModule.word`)."""
    if e.prime != M.prime:
        raise PrimeMismatchError("element and module over different primes")
    cols = slice(None)
    if d is not None:
        deg = element_degree(e)
        if deg == "non-homogeneous":
            raise ModuleError("act_element requires a homogeneous element")
        target = d + (0 if deg == "any" else deg)
        if d not in M.dims or target not in M.dims:
            return fp.zeros(M.dim(target), M.dim(d))
        cols = slice(M.offsets[d], M.offsets[d] + M.dims[d])
    out = fp.zeros(M.total_dim, M.total_dim if d is None else M.dims[d])
    for mono, coef in e.terms.items():
        split = 0 if d is None else len(mono.word) - 1
        mat = M.word(mono.word[split:])
        if mat is not None:
            mat = mat[:, cols]
        for g in reversed(mono.word[:split]):
            mat = M._times(M.matrices.get(g), mat)
        if mat is not None:
            out += coef * mat
    out %= M.prime
    return out if d is None else out[M.offsets[target]:M.offsets[target] + M.dims[target]]


# ---------------------------------------------------------------------------
# Adem-consistency checking
# ---------------------------------------------------------------------------

@dataclass
class RelationViolation:
    """A pair of algebra-equal elements acting differently on the module."""

    lhs: SteenrodElement
    rhs: SteenrodElement
    source_degree: int
    operation_degree: int
    witness: tuple[int, ...]

    @property
    def target_degree(self) -> int:
        return self.source_degree + self.operation_degree

    def __str__(self) -> str:
        return (f"({self.lhs}) != ({self.rhs}) from degree "
                f"{self.source_degree} (target {self.target_degree})")


@functools.cache
def _relation_words(p: int, max_degree: int) -> tuple[tuple[int, tuple[Generator, ...]], ...]:
    """(operation degree, word) for every inadmissible word of two or three
    generators of degree <= max_degree, shorter words first and each length
    in lexicographic order."""
    if p == 2:
        letters = [Sq(i) for i in range(1, max_degree)]
    else:
        letters = [BOCKSTEIN] + [P(i)
                                 for i in range(1, max_degree // (2 * (p - 1)) + 1)]
    degs = [g.degree_at(p) for g in letters]

    def words(length: int, budget: int):
        # Letters ascend in degree, so the first letter over budget ends
        # its position.
        if length == 0:
            yield 0, ()
            return
        for g, d in zip(letters, degs):
            if d > budget:
                break
            for rest_degree, rest in words(length - 1, budget - d):
                yield d + rest_degree, (g, *rest)

    return tuple((degree, word)
                 for length in (2, 3) for degree, word in words(length, max_degree)
                 if not Monomial(p, word).is_admissible)


def adem_relations(M: FiniteModule, max_relation_degree: int
                   ) -> tuple[int, list[tuple[int, SteenrodElement, SteenrodElement]]]:
    """The relations `consistency_check` compares on M: the degree bound it
    uses and (operation degree, lhs, rhs) per relation.

    A relation of degree above M's degree span acts as zero on M, so the
    bound is max_relation_degree clamped to the span, and relations that
    map no occupied degree to another are dropped.  A bound below 2, the
    degree of the smallest inadmissible words, would check nothing and is
    refused."""
    if max_relation_degree < 2:
        raise ModuleError(
            f"relation degree bound {max_relation_degree} is below 2, the "
            f"degree of the smallest inadmissible words")
    p = M.prime
    occupied = M.degrees
    bound = min(max_relation_degree,
                occupied[-1] - occupied[0] if occupied else 0)
    # A relation whose degree is no gap between occupied degrees maps no
    # occupied degree to another.
    gaps = {t - s for s in occupied for t in occupied}
    relations = []
    for op_degree, word in _relation_words(p, bound):
        if op_degree in gaps:
            lhs = SteenrodElement._reduced(p, {Monomial(p, word): 1})
            relations.append((op_degree, lhs, adem_normalize(lhs)))
    return bound, relations


def _check_relations(
        M: FiniteModule,
        relations: list[tuple[int, SteenrodElement, SteenrodElement]]
) -> list[RelationViolation]:
    """The violations of the relations of `adem_relations` on M.

    The word lhs and its normal form rhs act as whole-module matrices; a
    relation fails at every source degree whose block of their difference
    has a nonzero column, and the first such column is the witness."""
    violations: list[RelationViolation] = []
    for op_degree, lhs, rhs in relations:
        (mono,) = lhs.terms
        left = M.word(mono.word)
        delta = act_element(M, rhs)
        if left is not None:
            delta = (left - delta) % M.prime
        if not delta.any():
            continue
        for d in M.degrees:
            if d + op_degree not in M.dims:
                continue
            cols = np.flatnonzero(M.block(delta, d + op_degree, d).any(axis=0))
            if cols.size:
                witness = tuple(int(c == cols[0]) for c in range(M.dims[d]))
                violations.append(RelationViolation(lhs, rhs, d, op_degree, witness))
    return violations


def consistency_check(M: FiniteModule,
                      max_relation_degree: int) -> list[RelationViolation]:
    """Compare every inadmissible word of length 2 or 3 (degree <=
    max_relation_degree) with its admissible normal form on every occupied
    source degree; see `adem_relations` and `_check_relations`.  At p = 3
    and degree 36 this includes (P^3)^3 against 2 P^8 P^1 + 2 P^7 P^2."""
    return _check_relations(M, adem_relations(M, max_relation_degree)[1])


def violation_classes(
        violations: list[RelationViolation]
) -> dict[tuple[int, int], list[RelationViolation]]:
    """Group violations by the failing matrix slot
    (source degree, operation degree)."""
    out: dict[tuple[int, int], list[RelationViolation]] = {}
    for v in violations:
        out.setdefault((v.source_degree, v.operation_degree), []).append(v)
    return out


def hypothetical_Cb_module() -> FiniteModule:
    """The would-be mod-3 cohomology of a 3-torsion cone over the iterated
    Moore-spectrum construction: one-dimensional in degrees 0, 1, 12, 13,
    24, 25 and 36, Bockstein linking each cell pair, P^3 stepping up by 12,
    and the P^6 action forced by P^3 P^3 = 2 P^6.  The module cannot be
    consistent: (P^3)^3 maps the bottom cell to the top one, while its
    admissible normal form 2 P^8 P^1 + 2 P^7 P^2 acts as zero there,
    since P^1 and P^2 land in the empty degrees 4 and 8."""
    p = 3
    one = np.array([[1]], dtype=np.int64)
    two = np.array([[2]], dtype=np.int64)
    dims = {d: 1 for d in (0, 1, 12, 13, 24, 25, 36)}
    actions = {
        (BOCKSTEIN, 0): one,
        (BOCKSTEIN, 12): one,
        (BOCKSTEIN, 24): one,
        (P(3), 0): one,
        (P(3), 12): one,
        (P(3), 24): one,
        (P(3), 1): one,
        (P(3), 13): one,
        (P(6), 0): two,
        (P(6), 12): two,
        (P(6), 1): two,
    }
    return FiniteModule(p, dims, actions,
                        labels={d: [f"c{d}"] for d in dims})


# ---------------------------------------------------------------------------
# Decomposability
# ---------------------------------------------------------------------------

# The largest total dimension `is_decomposable` accepts.
DECOMPOSE_BOUND = 32


@dataclass
class DecompositionResult:
    decomposable: bool
    summands: tuple[FiniteModule, FiniteModule] | None = None

    @property
    def certified(self) -> bool:
        """Always True, since the decision is exact; kept for callers that
        still read it."""
        return True

    def __bool__(self) -> bool:
        return self.decomposable


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, without its overhead on small ones."""
    (r1, c1), (r2, c2) = x.shape, y.shape
    return np.einsum("ij,kl->ikjl", x, y).reshape(r1 * r2, c1 * c2)


def _endomorphism_basis(M: FiniteModule) -> np.ndarray:
    """Basis of the degreewise endomorphisms commuting with all generator
    actions, as a stack of block-diagonal total_dim x total_dim matrices.

    The unknowns are the entries of each degree block E_d, row by row;
    the action A from degree d to d2 contributes the equations
    E_d2 A - A E_d = 0, whose coefficient blocks are kron(I, A^T) and
    -kron(A, I)."""
    p = M.prime
    offsets = _offsets({d: n * n for d, n in M.dims.items()})
    total = sum(n * n for n in M.dims.values())

    rows: list[np.ndarray] = []
    for (g, d), A in M.actions.items():
        d2 = d + g.degree_at(p)
        tdim, sdim = A.shape
        block = fp.zeros(tdim * sdim, total)
        block[:, offsets[d2]:offsets[d2] + tdim * tdim] += _kron(
            fp.identity(tdim), A.T)
        block[:, offsets[d]:offsets[d] + sdim * sdim] -= _kron(
            A, fp.identity(sdim))
        rows.append(block % p)
    if rows:
        basis_vecs = fp.nullspace(np.vstack(rows), p)
    else:
        basis_vecs = fp.identity(total)
    k = basis_vecs.shape[1]
    out = np.zeros((k, M.total_dim, M.total_dim), dtype=np.int64)
    for d, pos in _offsets(M.dims).items():
        n = M.dims[d]
        out[:, pos:pos + n, pos:pos + n] = basis_vecs[
            offsets[d]:offsets[d] + n * n].T.reshape(k, n, n)
    return out


def _restrict(M: FiniteModule, basis: np.ndarray, left: np.ndarray) -> FiniteModule:
    """The submodule of M spanned by the columns of basis, homogeneous and
    in increasing degree order, given a left inverse of basis on them.

    Each generator W of M restricts to the whole matrix X = left W basis,
    which holds exactly when basis X = W basis; that is checked."""
    p = M.prime
    dims: dict[int, int] = {}
    # A column's degree is that of its first nonzero entry.
    for d in M.basis_degrees()[(basis != 0).argmax(axis=0)].tolist():
        dims[d] = dims.get(d, 0) + 1
    matrices: dict[Generator, np.ndarray] = {}
    for g, W in M.matrices.items():
        image = fp.matmul(W, basis, p)
        X = fp.matmul(left, image, p)
        if not np.array_equal(fp.matmul(basis, X, p), image):
            raise ModuleError("Fitting summand is not a submodule")
        if X.any():
            matrices[g] = X
    return FiniteModule._whole(p, dims, matrices)


def _fitting_split(M: FiniteModule, psi: np.ndarray
                   ) -> tuple[FiniteModule, FiniteModule] | None:
    """M as the stable image of the endomorphism psi plus its stable kernel
    (Fitting's lemma), or None when one of the two is zero.

    Both are reached at w = psi^m for every m >= n, so w squares psi
    ceil(log2 n) times, and one rref R of w gives both summands.  The
    image has the basis C = w[:, pivots]; R[:rank] C is invertible, since
    the image meets the kernel only in 0, so (R[:rank] C)^-1 R[:rank] is a
    left inverse of C.  The kernel has the basis `nullspace_of_rref`, one
    column per free column of R, and its free rows are the identity, so
    reading them is a left inverse."""
    p, n = M.prime, M.total_dim
    w, power = psi, 1
    while power < n:
        w, power = fp.matmul(w, w, p), 2 * power
    r, pivots = fp.rref(w, p)
    rank = len(pivots)
    if not 0 < rank < n:
        return None
    image, left = w[:, pivots], r[:rank]
    free = np.ones(n, dtype=bool)
    free[pivots] = False
    return (_restrict(M, image, fp.solve(fp.matmul(left, image, p), left, p)),
            _restrict(M, fp.nullspace_of_rref(r, pivots, p), fp.identity(n)[free]))


def _degree_blocks(basis: np.ndarray, dims: dict[int, int]) -> list[np.ndarray]:
    """The diagonal degree blocks of a stack of endomorphisms, one
    (k, n_d, n_d) stack per degree d; every product, power and trace of
    endomorphisms is taken block by block."""
    return [basis[:, pos:pos + dims[d], pos:pos + dims[d]]
            for d, pos in _offsets(dims).items()]


def _radical(blocks: list[np.ndarray], p: int) -> np.ndarray:
    """The Jacobson radical J of the algebra A spanned by k endomorphisms
    (given by `_degree_blocks`), as coefficient rows over them.

    This is the trace-lift filtration of Cohen, Ivanyos and Wales, "Finding
    the radical of an algebra of linear transformations" (JPAA 1997).  With
    g_i(z) = Tr(lift(z)^(p^i)) / p^i mod p, I_-1 = A and I_i is the set of
    x in I_(i-1) with g_i(x b) = 0 for every basis element b; J = I_l for
    p^l <= n < p^(l+1), n = dim M.  g_i is linear on the ideal I_(i-1), so
    each level is one nullspace.  The trace of the p^i-th power of an
    integer matrix is fixed mod p^(i+1) by the matrix mod p, so powers are
    taken mod p^(i+1) from any lift; a trace that p^i does not divide
    means x b left I_(i-1) and is refused."""
    k = len(blocks[0])
    n = sum(b.shape[1] for b in blocks)
    # x b for every x and b, chunked so that no stack passes 2^21 entries.
    step = max(1, (1 << 21) // (k * sum(b.shape[1] ** 2 for b in blocks)))
    rows = fp.identity(k)
    level, power = 0, 1
    while power <= n and len(rows):
        q = power * p
        traces = fp.zeros(len(rows), k)
        for start in range(0, len(rows), step):
            chunk = rows[start:start + step]
            for block in blocks:
                x = np.tensordot(chunk, block, axes=1) % p
                z = x[:, None] @ block[None] % q
                for _ in range(level):
                    w = z
                    for _ in range(p - 1):
                        w = w @ z % q
                    z = w
                traces[start:start + step] += np.trace(z, axis1=2, axis2=3)
        traces %= q
        if (traces % power).any():
            raise ModuleError(f"trace of a p^{level}-th power is not divisible by "
                              f"p^{level}: the filtration left an ideal")
        rows = fp.matmul(fp.nullspace(traces.T // power, p).T, rows, p)
        level, power = level + 1, q
    return rows


def _is_local(basis: np.ndarray, dims: dict[int, int], p: int) -> bool:
    """Whether the algebra A spanned by `basis`, endomorphisms of a module
    with graded dimensions `dims`, is local, i.e. A/J(A) is a field.

    A/J is spanned by the basis elements c outside the pivots of J.  It is
    a field iff it is commutative, so every commutator of two c lies in J,
    and x -> x^p - x, which is then F_p-linear on A/J, has a kernel of
    dimension 1 (Berlekamp, 1967), so the c^p - c span a space of
    dimension dim A/J - 1 modulo J."""
    blocks = _degree_blocks(basis, dims)
    radical = _radical(blocks, p)
    pivots = fp.rref(radical, p)[1]
    others = [j for j in range(len(basis)) if j not in pivots]

    def flat(stacks: list[np.ndarray]) -> np.ndarray:
        return np.hstack([s.reshape(-1, s.shape[-1] ** 2) for s in stacks]) % p

    ideal = flat([np.tensordot(radical, b, axes=1) for b in blocks])
    tops = [b[others] for b in blocks]
    commutators = flat([t[:, None] @ t[None] - t[None] @ t[:, None] for t in tops])
    if fp.rank(np.vstack([ideal, commutators]), p) > len(ideal):
        return False
    frobenius = []
    for t in tops:
        w = t
        for _ in range(p - 1):
            w = w @ t % p
        frobenius.append(w - t)
    return fp.rank(np.vstack([ideal, flat(frobenius)]), p) == len(basis) - 1


def _combinations(basis: np.ndarray, p: int):
    """Every element of span(basis) of support at least 2, up to a scalar
    (its first coefficient is 1), in order of increasing support."""
    k = len(basis)
    for size in range(2, k + 1):
        for support in itertools.combinations(range(k), size):
            head, tail = basis[support[0]], basis[list(support[1:])]
            for coeffs in itertools.product(range(1, p), repeat=size - 1):
                yield (head + np.tensordot(coeffs, tail, axes=1)) % p


def is_decomposable(M: FiniteModule) -> DecompositionResult:
    """Decide whether M splits as a direct sum of two nonzero submodules.

    M is indecomposable exactly when A = End(M) is local (`_is_local`).  A
    splitting is the Fitting decomposition of a candidate in A that is
    neither nilpotent nor invertible: the basis of A first, and, when A is
    not local, then every other element of A up to a scalar, in order of
    increasing support.  A lift of a nontrivial idempotent of A/J(A) is such
    an element, so for a non-local A this loop finds a splitting.  The
    summands are the candidate's stable image and stable kernel, both read
    off one rref of its stable power and each checked to be a submodule
    (`_fitting_split`).  M may have at most DECOMPOSE_BOUND dimensions."""
    if M.total_dim > DECOMPOSE_BOUND:
        raise ModuleError(
            f"total dimension {M.total_dim} exceeds bound {DECOMPOSE_BOUND}")
    if M.total_dim <= 1:
        return DecompositionResult(False)
    p = M.prime
    basis = _endomorphism_basis(M)

    def splitting(candidates) -> DecompositionResult | None:
        for phi in candidates:
            summands = _fitting_split(M, phi)
            if summands is not None:
                return DecompositionResult(True, summands)
        return None

    found = splitting(basis)
    if found is not None:
        return found
    if _is_local(basis, M.dims, p):
        return DecompositionResult(False)
    found = splitting(_combinations(basis, p))
    if found is None:
        raise ModuleError("End(M) is not local, yet no element of it splits M")
    return found


# ---------------------------------------------------------------------------
# JSON module files
# ---------------------------------------------------------------------------

def _generator_to_str(g: Generator) -> str:
    return str(g).replace("^", "")


def _generator_from_str(s: str, p: int) -> Generator:
    s = s.strip().replace("^", "")
    if s == "b":
        return BOCKSTEIN
    if s.startswith("Sq"):
        return Sq(int(s[2:]))
    if s.startswith("P"):
        return P(int(s[1:]))
    raise ModuleError(f"unknown generator {s!r}")


def module_to_dict(M: FiniteModule) -> dict:
    out = {
        "prime": M.prime,
        "dims": {str(d): n for d, n in sorted(M.dims.items())},
        "actions": [
            {
                "generator": _generator_to_str(g),
                "source_degree": d,
                "matrix": M.actions[(g, d)].tolist(),
            }
            for (g, d) in sorted(M.actions,
                                 key=lambda k: (k[1], str(k[0])))
        ],
    }
    if M.labels:
        out["labels"] = {str(d): v for d, v in sorted(M.labels.items())}
    return out


def _field(data: dict, key: str, where: str):
    if not isinstance(data, dict):
        raise ModuleError(f"{where} is not a JSON object")
    if key not in data:
        raise ModuleError(f"{where} has no {key!r}")
    return data[key]


def module_from_dict(data: dict) -> FiniteModule:
    p = int(_field(data, "prime", "module"))
    dims = {int(d): int(n) for d, n in _field(data, "dims", "module").items()}
    actions = {}
    for i, entry in enumerate(data.get("actions", [])):
        where = f"action {i}"
        g = _generator_from_str(_field(entry, "generator", where), p)
        actions[(g, int(_field(entry, "source_degree", where)))] = np.array(
            _field(entry, "matrix", where), dtype=np.int64)
    labels = None
    if "labels" in data:
        labels = {int(d): list(v) for d, v in data["labels"].items()}
    return FiniteModule(p, dims, actions, labels=labels)


def save_module(M: FiniteModule, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(module_to_dict(M), fh, indent=2, sort_keys=True)


def load_module(path: str) -> FiniteModule:
    with open(path) as fh:
        return module_from_dict(json.load(fh))
