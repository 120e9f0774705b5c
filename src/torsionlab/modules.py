"""Finite graded modules over the mod-p Steenrod algebra.

A module is a finite collection of F_p-vector spaces indexed by degree,
with an action of each generator; degrees not listed are genuinely zero.
Includes Moore/sphere/cell constructions, tensor products via the Cartan
formula, Adem-consistency checking, and an exact decomposability decision
through the radical of the endomorphism algebra.

The Adem relations are compiled into a table per set of operation
degrees (`_relation_table`): every inadmissible word of length 2 or 3 of
those degrees, its normal form, and lhs - rhs as sparse (relation, word,
coefficient) entries.  A module's table holds only its gap degrees, each
k with an occupied s such that s + k is occupied (`_module_table`): at
any other degree every word maps each occupied degree to an empty one, so
no relation there can fail.  The normal forms are computed once per
(prime, degree) per process and shared by every table (`_normal_forms`).
A module is checked by one contraction over its table
(`_check_relations`): the words that act on the module are multiplied
out into whole-module matrices, and their entries summed into one delta
per relation.

A module is stored as one matrix: the basis of every degree in increasing
degree order, and the total_dim x total_dim sum T of the whole-module
matrices of its generators, whose only nonzero blocks map degree d to
d + deg(g).  No two generators share a degree difference, so T loses
nothing: the per-degree blocks (`action`, `actions`) are views into T,
and the generator matrices (`matrices`) are cut out of it, once and only
when a word of generators is multiplied out over the whole module; at one
degree, `act_element` reads the blocks alone.  End(M) solves E T = T E,
and `tensor` forms the T of A (x) B from the factors' total operations
I + T, which the Cartan formula makes multiplicative.  Endomorphisms are
block-diagonal matrices in the same layout (`_offsets`), so one rref of
an endomorphism's stable power gives homogeneous bases C of its stable
image and K of its stable kernel, and both Fitting summands' T are the
diagonal blocks of T in the basis B = [C | K], one product and one solve
(`_fitting_split`).  Products and traces of endomorphisms are taken
degree block by degree block (`_degree_blocks`).
Locality is decided on the shortest run of those blocks, widest first,
on which the basis of End(M) stays linearly independent (`_is_local`).
Keeping a set of blocks is a unital algebra map, and on that run it is
injective, so End(M) and its radical are represented faithfully on a
space of smaller dimension, where the radical takes fewer levels.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import operator
from dataclasses import dataclass

import numpy as np

from . import fpmatrix as fp
from ._jsonfile import _by_int_key, _field, _list_of, _of_kind, _read
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
    parse_generator,
)


class ModuleError(Exception):
    pass


def _integer(value, what: str) -> int:
    """value as a plain int: a float, a bool or a string is refused with
    one line, not truncated.  Integer numpy scalars are integers."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    if isinstance(value, np.generic):
        value = value.item()
    raise ModuleError(f"{what} is {value!r}, not an integer")


class FiniteModule:
    """A finite graded module: `dims` in increasing degree order, and
    `total`, the sum T of its generators' whole-module matrices, reduced
    mod p.  Modules share T (`shift`), and `action` and `actions` are
    views into it, so it is read-only.

    The constructor checks the action of each generator degree by degree,
    refusing a degree, dimension or matrix entry that is not an integer
    rather than truncating it, and labels that are not lists of strings,
    as the module file reader does.  It lays the blocks out in T once; the
    constructions below build T
    and pass it to `_whole`, which checks nothing.  `word` multiplies the
    generator matrices out, keeping the products of two generators, which
    the words of a relation and its normal form share."""

    def __init__(self, prime: int, dims: dict[int, int],
                 actions: dict[tuple[Generator, int], np.ndarray],
                 labels: dict[int, list[str]] | None = None):
        p = check_prime(prime)
        dims = dict(sorted((_integer(d, "a degree"),
                            _integer(n, f"the dimension of degree {d}"))
                           for d, n in dims.items()))
        negative = {d: n for d, n in dims.items() if n < 0}
        if negative:
            raise ModuleError(f"negative dimensions {negative}")
        dims = {d: n for d, n in dims.items() if n}
        if labels is not None:
            labels = {d: _list_of(v, str, f"the labels of degree {d}", ModuleError)
                      for d, v in labels.items()}
            if sorted(labels) != list(dims):
                raise ModuleError(f"labels are given for degrees {sorted(labels)}, "
                                  f"expected one list per occupied degree {list(dims)}")
            for d, n in dims.items():
                if len(labels[d]) != n:
                    raise ModuleError(f"degree {d} has {n} dimensions but "
                                      f"{len(labels[d])} labels")
        total_dim = sum(dims.values())
        self._init(p, dims, fp.zeros(total_dim, total_dim), labels)
        for (g, d), mat in actions.items():
            if not g.valid_at(p):
                raise PrimeMismatchError(f"generator {g} invalid at p={p}")
            d = _integer(d, f"the source degree of {g}")
            mat = np.asarray(mat)
            if mat.dtype.kind not in "iu":
                for x in mat.ravel().tolist():
                    _integer(x, f"an entry of the action of {g} at degree {d}")
            mat = (mat % p).astype(np.int64, copy=False)
            target = d + g.degree_at(p)
            src, tgt = self.dim(d), self.dim(target)
            if mat.shape != (tgt, src):
                raise ModuleError(
                    f"action of {g} at degree {d} has shape {mat.shape}, "
                    f"expected {(tgt, src)}")
            if src and tgt:
                self.block(self.total, target, d)[:] = mat
        self.total.flags.writeable = False

    @classmethod
    def _whole(cls, prime: int, dims: dict[int, int], total: np.ndarray,
               labels: dict[int, list[str]] | None = None) -> FiniteModule:
        """The module with this sum of generator matrices, unchecked: dims
        in increasing degree order and positive, and total reduced mod p in
        that layout."""
        M = cls.__new__(cls)
        M._init(prime, dims, total, labels)
        total.flags.writeable = False
        return M

    def _init(self, prime, dims, total, labels) -> None:
        self.prime, self.dims, self.total, self.labels = prime, dims, total, labels
        self.offsets = _offsets(dims)
        self.total_dim = sum(dims.values())
        self._pairs: dict[tuple[Generator, Generator], np.ndarray | None] = {}

    def dim(self, d: int) -> int:
        return self.dims.get(d, 0)

    @property
    def degrees(self) -> list[int]:
        return list(self.dims)

    def block(self, mat: np.ndarray, target: int, source: int) -> np.ndarray:
        """The block of a whole-module matrix from degree source to target."""
        row, col = self.offsets[target], self.offsets[source]
        return mat[row:row + self.dims[target], col:col + self.dims[source]]

    @functools.cached_property
    def basis_degrees(self) -> np.ndarray:
        """The degree of each basis vector, built once and read-only."""
        out = np.repeat(np.array(self.degrees, dtype=np.int64), list(self.dims.values()))
        out.flags.writeable = False
        return out

    @functools.cached_property
    def matrices(self) -> dict[Generator, np.ndarray]:
        """The whole-module matrix of each generator that acts, in sorted
        order: the part of T at the generator's degree difference
        (`_generator`).  This is the only place generators are cut out of
        T, once per module and only when a word of them is multiplied out;
        an entry of T at a difference no generator has is a ModuleError."""
        difference = np.subtract.outer(self.basis_degrees, self.basis_degrees)
        out = {}
        for k in sorted(set(difference[self.total != 0].tolist())):
            out[_generator(self.prime, k)] = mat = np.where(difference == k, self.total, 0)
            mat.flags.writeable = False
        return {g: out[g] for g in sorted(out)}

    def action(self, g: Generator, d: int) -> np.ndarray:
        """Matrix of g from degree d, zero where unstored."""
        target = d + g.degree_at(self.prime)
        if not g.valid_at(self.prime) or d not in self.dims or target not in self.dims:
            return fp.zeros(self.dim(target), self.dim(d))
        return self.block(self.total, target, d)

    @property
    def actions(self) -> dict[tuple[Generator, int], np.ndarray]:
        """The nonzero blocks of the generators, keyed (generator, source
        degree) in sorted order."""
        blocks = {(_generator(self.prime, t - d), d): block
                  for d in self.dims for t in self.dims
                  if t > d and (block := self.block(self.total, t, d)).any()}
        return {key: blocks[key] for key in sorted(blocks)}

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

    def _times(self, left: np.ndarray, right: np.ndarray | None) -> np.ndarray | None:
        if right is None:
            return None
        out = fp.matmul(left, right, self.prime)
        return out if out.any() else None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteModule):
            return NotImplemented
        return (self.prime == other.prime and self.dims == other.dims
                and np.array_equal(self.total, other.total))

    def __repr__(self) -> str:
        return (f"FiniteModule(prime={self.prime!r}, dims={self.dims!r}, "
                f"actions={self.actions!r}, labels={self.labels!r})")


def _generator(p: int, k: int) -> Generator:
    """The generator at degree difference k: Sq^k at p = 2, and at odd p
    beta at 1 and P^(k/q) at multiples of q = 2(p - 1).  No other
    difference has one."""
    q = 2 * (p - 1)
    if k < 1 or p > 2 and k != 1 and k % q:
        raise ModuleError(f"an entry at degree difference {k}, "
                          f"which no generator has at p={p}")
    return Sq(k) if p == 2 else BOCKSTEIN if k == 1 else P(k // q)


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
    """One cell in degree d, all actions zero.  A degree that is not an
    integer is refused, as the constructor refuses it."""
    d = _integer(d, "the degree")
    return FiniteModule._whole(check_prime(p), {d: 1}, fp.zeros(1, 1), labels={d: [f"s{d}"]})


def moore_module(p: int) -> FiniteModule:
    """Two cells in degrees 0, 1 joined by a nonzero Bockstein."""
    p = check_prime(p)
    bottom_to_top = np.array([[0, 0], [1, 0]], dtype=np.int64)
    return FiniteModule._whole(p, {0: 1, 1: 1}, bottom_to_top, labels={0: ["e0"], 1: ["e1"]})


def shift(M: FiniteModule, k: int) -> FiniteModule:
    """M with every degree raised by k; T is M's.  A shift that is not an
    integer is refused, as the constructor refuses such a degree."""
    k = _integer(k, "the shift")
    labels = ({d + k: list(v) for d, v in M.labels.items()}
              if M.labels else None)
    return FiniteModule._whole(M.prime, {d + k: n for d, n in M.dims.items()},
                               M.total, labels)


def direct_sum(A: FiniteModule, B: FiniteModule) -> FiniteModule:
    """A + B, with the basis of each degree A's then B's: the block-diagonal
    T, rows and columns stably sorted by degree.  Both bases are sorted by
    degree already, so the sorted positions a of A's basis and b of B's
    merge two runs: degree d's block of the sum holds A's vectors of
    degree d, then B's.  Each factor's T is written once, straight into
    place."""
    if A.prime != B.prime:
        raise PrimeMismatchError("direct sum over different primes")
    dims = {d: A.dim(d) + B.dim(d) for d in sorted({*A.dims, *B.dims})}
    offsets = _offsets(dims)
    a = np.array([i for d, k in A.dims.items() for i in range(offsets[d], offsets[d] + k)],
                 dtype=np.int64)
    b = np.array([i for d, k in B.dims.items()
                  for i in range(offsets[d] + A.dim(d), offsets[d] + dims[d])], dtype=np.int64)
    total = fp.zeros(A.total_dim + B.total_dim, A.total_dim + B.total_dim)
    total[a[:, None], a] = A.total
    total[b[:, None], b] = B.total
    return FiniteModule._whole(A.prime, dims, total)


def tensor(A: FiniteModule, B: FiniteModule) -> FiniteModule:
    """Graded tensor product with the Cartan-formula action:
    Sq^k or P^k act by the sum of split actions, beta as a graded
    derivation with the Koszul sign (-1)^deg on the right factor.

    The basis of degree n is a_(i, a) (x) b_(n-i, b), ordered by i, a, b:
    the Kronecker basis of the factors, stably sorted by total degree.
    The Cartan formula says the total operation I + T (at odd p, I + T_P,
    T_P the part of T off degree difference 1) is multiplicative: entry
    ((a, b), (a', b')) of it on A (x) B is the product of the factors'
    entries (a, a') and (b, b'), and Sq^k (P^k) is its part at degree
    difference k (k q, q = 2(p - 1)).  Beta is the part at degree
    difference 1 of (beta_A + diag((-1)^deg)) (x) (I + beta_B), beta the
    part of T at difference 1.  So each part is the Kronecker product of
    its factors' nonzero entries alone, each pair's product placed at its
    position in the output's basis; the products at positive differences
    (1 for beta) are the entries of the output's T.  No whole Kronecker
    matrix is formed.  The products are taken in int64, so a prime with
    (p - 1)^2 >= 2^63 is refused with a ValueError."""
    if A.prime != B.prime:
        raise PrimeMismatchError("tensor over different primes")
    p = A.prime
    if (p - 1) ** 2 >= 1 << 63:
        raise ValueError(f"a product of two entries mod {p} is not exact in int64: "
                         f"(p - 1)^2 must stay below 2^63")
    deg_a, deg_b = A.basis_degrees, B.basis_degrees
    degrees = np.add.outer(deg_a, deg_b).ravel()
    perm = np.argsort(degrees, kind="stable")
    degrees = degrees[perm]
    dims = dict(collections.Counter(degrees.tolist()))
    size = len(perm)
    span = int(degrees[-1] - degrees[0]) if size else 0

    # The parts, stacked: left factors, right factors, and the largest
    # degree difference each is kept at.
    one_a, one_b = fp.identity(A.total_dim), fp.identity(B.total_dim)
    if p == 2:
        lefts, rights, tops = [one_a + A.total], [one_b + B.total], [span]
    else:
        beta_a = A.total * (np.subtract.outer(deg_a, deg_a) == 1)
        beta_b = B.total * (np.subtract.outer(deg_b, deg_b) == 1)
        lefts = [one_a + A.total - beta_a, one_a * np.where(deg_a % 2, p - 1, 1) + beta_a]
        rights = [one_b + B.total - beta_b, one_b + beta_b]
        tops = [span, 1]
    lefts, rights, tops = np.array(lefts), np.array(rights), np.array(tops)

    # Every pair of a nonzero entry of a left factor and one of the right
    # factor of the same part, kept at the part's positive differences.
    (pa, ra, ca), (pb, rb, cb) = np.nonzero(lefts), np.nonzero(rights)
    difference = np.add.outer(deg_a[ra] - deg_a[ca], deg_b[rb] - deg_b[cb])
    a, b = np.nonzero((pa[:, None] == pb) & (difference > 0) & (difference <= tops[pa, None]))
    # The output position of each (A index, B index); no two pairs share
    # one, and a product of two nonzero residues is nonzero mod p.
    position = np.empty(size, dtype=np.int64)
    position[perm] = np.arange(size)
    total = fp.zeros(size, size)
    total[position[ra[a] * len(deg_b) + rb[b]], position[ca[a] * len(deg_b) + cb[b]]] = (
        lefts[pa, ra, ca][a] * rights[pb, rb, cb][b] % p)
    labels = None
    if A.labels and B.labels:
        names_a = [name for i in A.degrees for name in A.labels[i]]
        names_b = [name for j in B.degrees for name in B.labels[j]]
        # The (A index, B index) of each basis vector, in the output's order.
        index_a, index_b = np.divmod(perm, len(deg_b))
        names = [f"{names_a[i]}*{names_b[j]}" for i, j in zip(index_a.tolist(), index_b.tolist())]
        labels = {n: names[row:row + dims[n]] for n, row in _offsets(dims).items()}
    return FiniteModule._whole(p, dims, total, labels)


# ---------------------------------------------------------------------------
# Acting by algebra elements
# ---------------------------------------------------------------------------

def act_element(M: FiniteModule, e: SteenrodElement,
                d: int | None = None) -> np.ndarray:
    """Matrix of a homogeneous element from degree d to d + deg(e), or a
    zero matrix of that shape when either degree is empty.  Each word is
    applied right to left, one letter at a time, through the blocks of T
    between the degrees it passes, so no generator is cut out of T.

    With d None, the whole-module matrix itself.  The products of pairs of
    generators are kept on M across calls (`FiniteModule.word`)."""
    if e.prime != M.prime:
        raise PrimeMismatchError("element and module over different primes")
    if d is None:
        terms = e.terms
        out = fp.zeros(M.total_dim, M.total_dim)
        for mono, coef in terms.items():
            mat = M.word(mono.word)
            if mat is not None:
                out += coef * mat
        # Matrices of words are reduced mod p, so a lone word needs no
        # reduction.
        return out if list(terms.values()) == [1] else out % M.prime
    deg = element_degree(e)
    if deg == "non-homogeneous":
        raise ModuleError("act_element requires a homogeneous element")
    target = d + (0 if deg == "any" else deg)
    out = fp.zeros(M.dim(target), M.dim(d))
    if d not in M.dims or target not in M.dims:
        return out
    for mono, coef in e.terms.items():
        source, mat = d, None
        for g in reversed(mono.word):
            block = M.action(g, source)
            mat = block if mat is None else fp.matmul(block, mat, M.prime)
            source += g.degree_at(M.prime)
        out += coef * (fp.identity(M.dims[d]) if mat is None else mat)
    return out % M.prime


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
def _inadmissible_words(p: int, degree: int) -> tuple[tuple[Generator, ...], ...]:
    """Every inadmissible word of two or three generators of exactly this
    degree, shorter words first and each length in lexicographic order;
    enumerated once per (p, degree) per process."""
    if p == 2:
        letters = [Sq(i) for i in range(1, degree)]
    else:
        letters = [BOCKSTEIN] + [P(i) for i in range(1, degree // (2 * (p - 1)) + 1)]
    last = {g.degree_at(p): g for g in letters}

    def words(length: int, budget: int):
        # Letters ascend in degree, so the first letter that leaves no
        # degree for the rest ends its position; the last letter is the
        # one of the degree left, if there is one.
        if length == 1:
            if budget in last:
                yield (last[budget],)
            return
        for g in letters:
            d = g.degree_at(p)
            if d >= budget:
                break
            for rest in words(length - 1, budget - d):
                yield (g, *rest)

    return tuple(word for length in (2, 3) for word in words(length, degree)
                 if not Monomial(p, word).is_admissible)


def _relation_words(p: int, degrees) -> tuple[tuple[int, tuple[Generator, ...]], ...]:
    """(operation degree, word) for every inadmissible word of two or three
    generators whose degree is one of `degrees`, shorter words first and
    each length in lexicographic order, letters ordered by degree."""
    return tuple(sorted(((k, word) for k in set(degrees) for word in _inadmissible_words(p, k)),
                        key=lambda entry: (len(entry[1]), [g.degree_at(p) for g in entry[1]])))


@functools.cache
def _word_element(p: int, word: tuple[Generator, ...]) -> SteenrodElement:
    """The element of one word, built once per process and shared by every
    table that holds the word."""
    return SteenrodElement._reduced(p, {Monomial(p, word): 1})


@functools.cache
def _normal_forms(p: int, degree: int, normalize
                  ) -> dict[tuple[Generator, ...], tuple[int, SteenrodElement, SteenrodElement]]:
    """The relation (degree, lhs, its normal form under `normalize`) per
    inadmissible word of this degree, normalized once per (p, degree) per
    process and shared by every table that holds the degree."""
    out = {}
    for word in _inadmissible_words(p, degree):
        lhs = _word_element(p, word)
        out[word] = degree, lhs, normalize(lhs)
    return out


@dataclass(frozen=True)
class _RelationTable:
    """The relations of `_relation_words(p, degrees)`, compiled once.

    `relations` holds (operation degree, lhs, rhs) per relation.  `words`
    are the distinct generator words of every lhs and rhs, each as an
    element, and `spelling` their letters as indices into `letters`,
    padded with len(letters) after a word's end.  The entries of lhs - rhs
    mod p are sparse: `relation`, `word` and `coefficient` per entry, in
    increasing relation order.  The arrays are read-only."""

    relations: tuple[tuple[int, SteenrodElement, SteenrodElement], ...]
    words: tuple[SteenrodElement, ...]
    letters: tuple[Generator, ...]
    spelling: np.ndarray
    relation: np.ndarray
    word: np.ndarray
    coefficient: np.ndarray


def _read_only(values, shape: tuple[int, ...] = (-1,)) -> np.ndarray:
    out = np.array(values, dtype=np.int64).reshape(shape)
    out.flags.writeable = False
    return out


@functools.cache
def _relation_table(p: int, degrees: tuple[int, ...], normalize) -> _RelationTable:
    """The table of the relations at p whose operation degrees are
    `degrees`: each inadmissible word and its normal form under
    `normalize` (`_normal_forms`), compiled once per key.  Callers pass
    the `adem_normalize` bound in this module, so a replaced one (a test's
    stub, a tracing wrapper) builds tables of its own and never reads
    another's normal forms."""
    relations, entries = [], []
    words: dict[tuple[Generator, ...], int] = {}
    for op_degree, word in _relation_words(p, degrees):
        rel = _normal_forms(p, op_degree, normalize)[word]
        r = len(relations)
        relations.append(rel)
        entries.append((r, words.setdefault(word, len(words)), 1))
        entries.extend((r, words.setdefault(mono.word, len(words)), -c % p)
                       for mono, c in rel[2].terms.items())
    letters = sorted({g for word in words for g in word})
    index = {g: i for i, g in enumerate(letters)}
    spelling = [[index[g] for g in word] + [len(letters)] * (3 - len(word)) for word in words]
    relation, word, coefficient = _read_only(entries, (-1, 3)).T
    return _RelationTable(
        relations=tuple(relations),
        words=tuple(_word_element(p, word) for word in words),
        letters=tuple(letters),
        spelling=_read_only(spelling, (-1, 3)),
        relation=relation, word=word, coefficient=coefficient)


def _relation_bound(M: FiniteModule, max_relation_degree: int) -> int:
    """max_relation_degree clamped to M's degree span, above which every
    relation acts as zero on M.  A bound below 2, the degree of the
    smallest inadmissible words, would check nothing and is refused."""
    if max_relation_degree < 2:
        raise ModuleError(
            f"relation degree bound {max_relation_degree} is below 2, the "
            f"degree of the smallest inadmissible words")
    occupied = M.degrees
    return min(max_relation_degree, occupied[-1] - occupied[0] if occupied else 0)


def _module_table(M: FiniteModule, bound: int) -> _RelationTable:
    """The table of M's gap degrees up to bound: each k with an occupied s
    such that s + k is occupied, and some relation of degree k.  At any
    other degree every word maps each occupied degree to an empty one, so
    no relation there can fail on M."""
    p, occupied = M.prime, M.degrees
    gaps = {t - s for i, s in enumerate(occupied) for t in occupied[i + 1:]}
    return _relation_table(p, tuple(k for k in sorted(gaps)
                                    if 2 <= k <= bound and _inadmissible_words(p, k)),
                           adem_normalize)


def adem_relations(M: FiniteModule, max_relation_degree: int
                   ) -> tuple[int, list[tuple[int, SteenrodElement, SteenrodElement]]]:
    """The relations `consistency_check` compares on M: the degree bound it
    uses (`_relation_bound`) and (operation degree, lhs, rhs) per relation
    of its table, whose degrees are M's gaps (`_module_table`)."""
    bound = _relation_bound(M, max_relation_degree)
    return bound, list(_module_table(M, bound).relations)


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """Where a run of equal key tuples starts, in sorted keys."""
    out = np.zeros(len(keys[0]), dtype=bool)
    out[:1] = True
    for key in keys:
        out[1:] |= key[1:] != key[:-1]
    return out


def _check_relations(M: FiniteModule, bound: int) -> list[RelationViolation]:
    """The violations on M of the relations of its table up to bound
    (`_module_table`), in table order and then by source degree.

    Only the words whose letters all act on M are multiplied out, each
    into its whole-module matrix (`act_element`), and those that act as
    zero are dropped.  The live entries of lhs - rhs are summed into one
    whole-module delta per relation that has one and reduced mod p.  A
    relation fails at every source degree with a nonzero column of its
    delta, and the first such column is the witness."""
    p, table = M.prime, _module_table(M, bound)
    acts = np.array([g in M.matrices for g in table.letters] + [True])
    products = {}
    for w in np.flatnonzero(acts[table.spelling].all(axis=1)).tolist():
        mat = act_element(M, table.words[w])
        if mat.any():
            products[w] = mat
    if not products:
        return []
    position = np.full(len(table.words), -1)
    position[list(products)] = np.arange(len(products))
    live = position[table.word] >= 0
    relation = table.relation[live]
    starts = np.flatnonzero(_run_starts(relation))
    terms = np.array(list(products.values()))[position[table.word[live]]]
    terms *= table.coefficient[live, None, None]
    row, column = np.nonzero((np.add.reduceat(terms, starts) % p).any(axis=1))
    degree = M.basis_degrees[column]
    first = _run_starts(row, degree)
    violations = []
    for r, c, d in zip(relation[starts[row[first]]].tolist(), column[first].tolist(),
                       degree[first].tolist()):
        op_degree, lhs, rhs = table.relations[r]
        witness = tuple(int(i == c - M.offsets[d]) for i in range(M.dims[d]))
        violations.append(RelationViolation(lhs, rhs, d, op_degree, witness))
    return violations


def consistency_check(M: FiniteModule,
                      max_relation_degree: int) -> list[RelationViolation]:
    """Compare every inadmissible word of length 2 or 3 (degree <=
    max_relation_degree) with its admissible normal form on every occupied
    source degree; see `_module_table` and `_check_relations`.  Only the
    words of M's gap degrees are compared, since a word of any other
    degree maps each occupied degree to an empty one.  At p = 3 and degree
    36 this includes (P^3)^3 against 2 P^8 P^1 + 2 P^7 P^2."""
    return _check_relations(M, _relation_bound(M, max_relation_degree))


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
    Moore-spectrum construction: one cell c_d in each of the degrees 0, 1,
    12, 13, 24, 25 and 36, with Bockstein 1 from 0, 12 and 24 linking each
    cell pair, P^3 = 1 from 0, 1, 12, 13 and 24 stepping up by 12, and
    P^6 = 2 from 0, 1 and 12, forced by P^3 P^3 = 2 P^6.  The module
    cannot be consistent: (P^3)^3 maps the bottom cell to the top one,
    while its admissible normal form 2 P^8 P^1 + 2 P^7 P^2 acts as zero
    there, since P^1 and P^2 land in the empty degrees 4 and 8.

    T is laid out directly: one basis vector per degree, and each action
    an entry (target, source) of it."""
    dims = {d: 1 for d in (0, 1, 12, 13, 24, 25, 36)}
    cell = {d: i for i, d in enumerate(dims)}
    total = fp.zeros(len(dims), len(dims))
    for source, step, entry in ((0, 1, 1), (12, 1, 1), (24, 1, 1),
                                (0, 12, 1), (1, 12, 1), (12, 12, 1), (13, 12, 1), (24, 12, 1),
                                (0, 24, 2), (1, 24, 2), (12, 24, 2)):
        total[cell[source + step], cell[source]] = entry
    return FiniteModule._whole(3, dims, total, labels={d: [f"c{d}"] for d in dims})


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


def _endomorphism_basis(M: FiniteModule) -> np.ndarray:
    """Basis of the degreewise endomorphisms commuting with all generator
    actions, as a stack of block-diagonal total_dim x total_dim matrices.

    The unknowns are the entries (i, j) of E with deg i = deg j, block by
    block and row by row.  E commutes with every generator iff it commutes
    with M's T, the sum of their matrices, since the part of E T - T E at
    each degree difference is that generator's.  Unknown (i, j) adds
    T[j, c] to entry (i, c) of E T - T E and -T[r, i] to entry (r, j), so
    the equations are assembled in one scatter."""
    p, n = M.prime, M.total_dim
    degrees = M.basis_degrees
    i, j = np.nonzero(degrees[:, None] == degrees)
    total, unknown = M.total, np.arange(len(i))
    equations = np.zeros((n, n, len(i)), dtype=np.int64)
    equations[i, :, unknown] = total[j]
    equations[:, j, unknown] -= total[:, i]
    equations = equations.reshape(n * n, len(i)) % p
    equations = equations[equations.any(axis=1)]
    basis_vecs = fp.nullspace(equations, p)
    out = np.zeros((basis_vecs.shape[1], n, n), dtype=np.int64)
    out[:, i, j] = basis_vecs.T
    return out


def _fitting_split(M: FiniteModule, psi: np.ndarray
                   ) -> tuple[FiniteModule, FiniteModule] | None:
    """M as the stable image of the endomorphism psi plus its stable kernel
    (Fitting's lemma), or None when one of the two is zero.

    Both are reached at w = psi^m for every m >= n, so w squares psi
    ceil(log2 n) times, and one rref R of w gives both bases: C = w[:, pivots]
    spans the image and K = `nullspace_of_rref` the kernel, each column
    homogeneous and in increasing degree order.  The image meets the kernel
    only in 0, so B = [C | K] is invertible, and X = B^-1 T B is T in that
    basis.  X is block-diagonal exactly when both spans are submodules,
    which is checked; its diagonal blocks are the summands' T.  The span of
    a summand is graded, so it is closed under T iff it is closed under
    each generator."""
    p, n = M.prime, M.total_dim
    w = fp.power(psi, 1 << (n - 1).bit_length(), p)
    r, pivots = fp.rref(w, p)
    rank = len(pivots)
    if not 0 < rank < n:
        return None
    basis = np.hstack([w[:, pivots], fp.nullspace_of_rref(r, pivots, p)])
    X = fp.solve(basis, fp.matmul(M.total, basis, p), p)
    if X[:rank, rank:].any() or X[rank:, :rank].any():
        raise ModuleError("Fitting summand is not a submodule")
    # A column's degree is that of its first nonzero entry.
    degrees = M.basis_degrees[(basis != 0).argmax(axis=0)].tolist()
    return tuple(FiniteModule._whole(p, dict(collections.Counter(degrees[part])), X[part, part])
                 for part in (slice(rank), slice(rank, n)))


def _degree_blocks(basis: np.ndarray, dims: dict[int, int]) -> list[np.ndarray]:
    """The diagonal degree blocks of a stack of endomorphisms, one
    (k, n_d, n_d) stack per degree d; every product, power and trace of
    endomorphisms is taken block by block."""
    return [basis[:, pos:pos + dims[d], pos:pos + dims[d]]
            for d, pos in _offsets(dims).items()]


def _radical(blocks: list[np.ndarray], p: int) -> np.ndarray:
    """The Jacobson radical J of the algebra A spanned by k endomorphisms,
    given by degree blocks (`_degree_blocks`) on which they stay linearly
    independent, as coefficient rows over them.

    This is the trace-lift filtration of Cohen, Ivanyos and Wales, "Finding
    the radical of an algebra of linear transformations" (JPAA 1997).  With
    g_i(z) = Tr(lift(z)^(p^i)) / p^i mod p, I_-1 = A and I_i is the set of
    x in I_(i-1) with g_i(x b) = 0 for every basis element b; J = I_l for
    p^l <= n < p^(l+1).  It holds for any faithful representation of A, so
    n is the dimension the blocks act on, their widths summed: dim M when
    every block is given, less when `_is_local` keeps fewer.  g_i is linear
    on the ideal I_(i-1), so each level is one nullspace.  The trace of the
    p^i-th power of an integer matrix is fixed mod p^(i+1) by the matrix
    mod p, so powers are taken mod p^(i+1) from any lift, by repeated
    squaring; a trace that p^i does not divide means x b left I_(i-1) and
    is refused.  Every product goes through `fp.matmul`, whose bound on
    p is checked there."""
    k = len(blocks[0])
    n = sum(b.shape[1] for b in blocks)
    # Level 0 takes no power: Tr(b_i b_j), summed over the blocks, pairs
    # b_i with b_j transposed entry by entry, a symmetric form.
    flat = np.hstack([b.reshape(k, -1) for b in blocks])
    transposed = np.hstack([b.transpose(0, 2, 1).reshape(k, -1) for b in blocks])
    rows = fp.nullspace(fp.matmul(flat, transposed.T, p), p).T
    # x b for every x and b, chunked so that no stack passes 2^21 entries.
    step = max(1, (1 << 21) // (k * flat.shape[1]))
    level, power = 1, p
    while power <= n and len(rows):
        q = power * p
        traces = fp.zeros(len(rows), k)
        for start in range(0, len(rows), step):
            chunk = rows[start:start + step]
            for block in blocks:
                x = fp.matmul(chunk, block.reshape(k, -1), p).reshape(len(chunk),
                                                                      *block.shape[1:])
                z = fp.power(fp.matmul(x[:, None], block[None], q), power, q)
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

    A is represented on the shortest run of its degree blocks, widest
    first, on which the basis stays linearly independent: one rref of the
    flattened blocks puts the k-th pivot, k = dim A, in the last block of
    the run.  Keeping those blocks is a unital algebra map, and it is
    injective on A, so it is an isomorphism onto its image; J(A) and the
    verdict are the same on the run as on all of M, and `_radical` needs
    only floor(log_p n') + 1 levels, n' the dimension the run acts on.

    A/J is spanned by the basis elements c outside the pivots of J.  It is
    a field iff it is commutative, so every commutator of two c lies in J,
    and x -> x^p - x, which is then F_p-linear on A/J, has a kernel of
    dimension 1 (Berlekamp, 1967), so the c^p - c span a space of
    dimension dim A/J - 1 modulo J; c^p takes about log2 p products
    (`fp.power`)."""
    blocks = sorted(_degree_blocks(basis, dims), key=lambda b: -b.shape[1])
    ends = np.cumsum([b.shape[1] ** 2 for b in blocks])
    entries = np.hstack([b.reshape(len(b), -1) for b in blocks])
    run = np.searchsorted(ends, fp.rref(entries, p)[1][-1], side="right") + 1
    blocks = blocks[:run]
    radical = _radical(blocks, p)
    pivots = fp.rref(radical, p)[1]
    others = [j for j in range(len(basis)) if j not in pivots]

    def flat(stacks: list[np.ndarray]) -> np.ndarray:
        return np.hstack([s.reshape(-1, s.shape[-1] ** 2) for s in stacks]) % p

    ideal = fp.matmul(radical, entries[:, :ends[run - 1]], p)
    tops = [b[others] for b in blocks]
    # c_j c_i is entry (j, i) of the stack of products c_i c_j.
    products = [fp.matmul(t[:, None], t[None], p) for t in tops]
    commutators = flat([c - c.swapaxes(0, 1) for c in products])
    if fp.rank(np.vstack([ideal, commutators]), p) > len(ideal):
        return False
    frobenius = flat([fp.power(t, p, p) - t for t in tops])
    return fp.rank(np.vstack([ideal, frobenius]), p) == len(basis) - 1


def _combinations(basis: np.ndarray, p: int):
    """Every element of span(basis) of support at least 2, up to a scalar
    (its first coefficient is 1), in order of increasing support."""
    k = len(basis)
    for size in range(2, k + 1):
        for support in itertools.combinations(range(k), size):
            head, tail = basis[support[0]], basis[list(support[1:])].reshape(size - 1, -1)
            for coeffs in itertools.product(range(1, p), repeat=size - 1):
                yield (head + (coeffs @ tail).reshape(head.shape)) % p


def is_decomposable(M: FiniteModule) -> DecompositionResult:
    """Decide whether M splits as a direct sum of two nonzero submodules.

    M is indecomposable exactly when A = End(M) is local (`_is_local`).  A
    splitting is the Fitting decomposition of a candidate in A that is
    neither nilpotent nor invertible: the basis of A first, and, when A is
    not local, then every other element of A up to a scalar, in order of
    increasing support.  A lift of a nontrivial idempotent of A/J(A) is such
    an element, so for a non-local A this loop finds a splitting.  The
    summands are the candidate's stable image and stable kernel, with
    bases C and K from one rref of its stable power; their T are the
    diagonal blocks of B^-1 T B for B = [C | K], which must be
    block-diagonal (`_fitting_split`).  M may have at most DECOMPOSE_BOUND
    dimensions."""
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

def module_to_dict(M: FiniteModule) -> dict:
    actions = M.actions
    out = {
        "prime": M.prime,
        "dims": {str(d): n for d, n in sorted(M.dims.items())},
        "actions": [
            {
                "generator": str(g).replace("^", ""),
                "source_degree": d,
                "matrix": actions[(g, d)].tolist(),
            }
            for (g, d) in sorted(actions, key=lambda k: (k[1], str(k[0])))
        ],
    }
    if M.labels:
        out["labels"] = {str(d): v for d, v in sorted(M.labels.items())}
    return out


def module_from_dict(data: dict) -> FiniteModule:
    """The module a module file's JSON value describes: an object with an
    integer "prime", "dims" (a dimension by degree), optionally "actions"
    (objects with a "generator" spelled as `parse_expression` spells one,
    such as "Sq1", "Sq^3", "P2" or "b", an integer "source_degree" and a
    "matrix" of integer rows) and "labels" (a list of strings by degree).
    Anything else is a ModuleError of one line (`_jsonfile`), and so is an
    action or a degree given twice."""
    p = _field(data, "prime", "module", int, ModuleError)
    dims = {d: _of_kind(n, int, f"the dimension of degree {d}", ModuleError)
            for d, n in _by_int_key(data, "dims", "module", "degree", ModuleError).items()}
    actions = {}
    for i, entry in enumerate(_of_kind(data.get("actions", []), list, "module's 'actions'",
                                       ModuleError)):
        where = f"action {i}"
        name = _field(entry, "generator", where, str, ModuleError)
        g = parse_generator(name, p)
        if g is None:
            raise ModuleError(f"{where}'s 'generator' is {json.dumps(name)}, "
                              f"not a generator at p={p}")
        matrix = [_list_of(row, int, f"{where}'s matrix row", ModuleError)
                  for row in _field(entry, "matrix", where, list, ModuleError)]
        d = _field(entry, "source_degree", where, int, ModuleError)
        if (g, d) in actions:
            raise ModuleError(f"{where} gives {g} from degree {d} a second time")
        actions[(g, d)] = np.array(matrix, dtype=np.int64)
    labels = None
    if "labels" in data:
        labels = _by_int_key(data, "labels", "module", "degree", ModuleError)
    return FiniteModule(p, dims, actions, labels=labels)


def save_module(M: FiniteModule, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(module_to_dict(M), fh, indent=2, sort_keys=True)


def load_module(path: str) -> FiniteModule:
    return module_from_dict(_read(path, "the module file", ModuleError))
