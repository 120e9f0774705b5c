"""Finite graded modules: constructors, Cartan tensor products,
Adem-consistency checking, and decomposability."""

import collections
import itertools
import math
import os
import random
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from torsionlab import (
    BOCKSTEIN,
    FiniteModule,
    Generator,
    P,
    Sq,
    act_element,
    consistency_check,
    direct_sum,
    hypothetical_Cb_module,
    is_decomposable,
    load_module,
    moore_module,
    parse_expression,
    shift,
    sphere_module,
    tensor,
    violation_classes,
)
from torsionlab import fpmatrix as fp
from torsionlab import modules
from torsionlab.modules import ModuleError, _relation_words, adem_relations
from torsionlab.steenrod import Monomial, PrimeMismatchError, SteenrodElement, adem_normalize
from torsionlab.steenrod import degree as element_degree

from test_fpmatrix import inv


def el(text, p):
    return parse_expression(text, p)


def random_module(p, rng, max_total=4):
    """A random graded module with random actions of the degree-raising
    generators (not necessarily Adem-consistent; fine for structural
    tests like tensor associativity)."""
    degrees = sorted(rng.sample(range(5), rng.randint(1, 3)))
    dims = {}
    total = 0
    for d in degrees:
        n = rng.randint(1, 2)
        if total + n > max_total:
            break
        dims[d] = n
        total += n
    gens = [Sq(1), Sq(2)] if p == 2 else [BOCKSTEIN, P(1)]
    actions = {}
    for g in gens:
        gdeg = g.degree_at(p)
        for d in dims:
            if d + gdeg in dims:
                mat = np.array(
                    [[rng.randrange(p) for _ in range(dims[d])]
                     for _ in range(dims[d + gdeg])],
                    dtype=np.int64,
                )
                actions[(g, d)] = mat
    return FiniteModule(p, dims, actions)


def tensor_basis(A, B, n):
    """Ordered basis (i, a, j, b) of (A (x) B)_n with i + j = n."""
    out = []
    for i in sorted(A.dims):
        j = n - i
        if B.dim(j) == 0:
            continue
        for a in range(A.dim(i)):
            for b in range(B.dim(j)):
                out.append((i, a, j, b))
    return out


def tensor_by_loops(A, B):
    """Reference tensor product: the Cartan formula entry by entry over the
    (i, a, j, b) bases of `tensor_basis`."""
    p = A.prime
    dims, bases = {}, {}
    degs = sorted({i + j for i in A.dims for j in B.dims})
    for n in degs:
        basis = tensor_basis(A, B, n)
        if basis:
            dims[n] = len(basis)
            bases[n] = basis
    index = {n: {t: i for i, t in enumerate(basis)}
             for n, basis in bases.items()}

    def power_action(M, kind, t, d):
        if t == 0:
            return fp.identity(M.dim(d))
        return M.action(Generator(kind, t), d)

    span = (max(degs) - min(degs)) if degs else 0
    if p == 2:
        gens = [Sq(k) for k in range(1, span + 1)]
    else:
        gens = [BOCKSTEIN] + [P(k) for k in range(1, span // (2 * (p - 1)) + 1)]
    actions = {}
    for g in gens:
        for n in degs:
            n2 = n + g.degree_at(p)
            if n2 not in dims:
                continue
            mat = fp.zeros(dims[n2], dims[n])
            for col, (i, a, j, b) in enumerate(bases[n]):
                if g.kind == "b":
                    left = A.action(BOCKSTEIN, i)
                    for a2 in range(left.shape[0]):
                        if left[a2, a]:
                            row = index[n2][(i + 1, a2, j, b)]
                            mat[row, col] = (mat[row, col] + left[a2, a]) % p
                    right = B.action(BOCKSTEIN, j)
                    sign = -1 if i % 2 else 1
                    for b2 in range(right.shape[0]):
                        if right[b2, b]:
                            row = index[n2][(i, a, j + 1, b2)]
                            mat[row, col] = (mat[row, col]
                                             + sign * right[b2, b]) % p
                    continue
                for t in range(g.index + 1):
                    la = power_action(A, g.kind, t, i)
                    lb = power_action(B, g.kind, g.index - t, j)
                    if not (la.any() and lb.any()):
                        continue
                    i2 = i + (t if p == 2 else 2 * t * (p - 1))
                    j2 = n2 - i2
                    for a2 in range(la.shape[0]):
                        if not la[a2, a]:
                            continue
                        for b2 in range(lb.shape[0]):
                            if lb[b2, b]:
                                row = index[n2][(i2, a2, j2, b2)]
                                mat[row, col] = (mat[row, col]
                                                 + la[a2, a] * lb[b2, b]) % p
            if mat.any():
                actions[(g, n)] = mat
    labels = None
    if A.labels and B.labels:
        labels = {n: [f"{A.labels[i][a]}*{B.labels[j][b]}"
                      for (i, a, j, b) in basis]
                  for n, basis in bases.items()}
    return FiniteModule(p, dims, actions, labels=labels)


def act_by_degrees(M, e, d):
    """Reference action from degree d: each word of e applied letter by
    letter to the identity of degree d, one degree block at a time."""
    p = M.prime
    deg = element_degree(e)
    out = fp.zeros(M.dim(d + (0 if deg == "any" else deg)), M.dim(d))
    for mono, coef in e.terms.items():
        mat = fp.identity(M.dim(d))
        cur = d
        for g in reversed(mono.word):
            mat = fp.matmul(M.action(g, cur), mat, p)
            cur += g.degree_at(p)
            if not mat.any():
                break
        if mat.shape == out.shape:
            out = (out + coef * mat) % p
    return out


def consistency_by_degrees(M, max_relation_degree):
    """Reference consistency check: each inadmissible word minus its normal
    form acts through `act_by_degrees`, one source degree at a time.
    Returns (lhs, rhs, source_degree, witness) per violation."""
    out = []
    for word in reference_inadmissible_words(M.prime, max_relation_degree):
        lhs = SteenrodElement.from_word(M.prime, word)
        rhs = adem_normalize(lhs)
        for d in M.degrees:
            delta = act_by_degrees(M, lhs - rhs, d)
            if delta.any():
                col = int(np.flatnonzero(delta.any(axis=0))[0])
                witness = tuple(int(c == col) for c in range(M.dim(d)))
                out.append((lhs, rhs, d, witness))
    return out


def reference_consistency_check(M, max_relation_degree):
    """The relation loop that `_check_relations` replaced: a relation is kept
    when some occupied degree reaches another, and lhs - rhs acts as one
    whole-module matrix through `act_element`.  Returns (lhs, rhs,
    source_degree, operation_degree, witness) per violation."""
    p, occupied = M.prime, M.degrees
    bound = min(max_relation_degree, occupied[-1] - occupied[0] if occupied else 0)
    out = []
    for op_degree, word in _relation_words(p, range(2, bound + 1)):
        if not any(d + op_degree in M.dims for d in occupied):
            continue
        lhs = SteenrodElement.from_word(p, word)
        rhs = adem_normalize(lhs)
        delta = act_element(M, lhs - rhs)
        for d in occupied:
            if d + op_degree not in M.dims:
                continue
            cols = np.flatnonzero(M.block(delta, d + op_degree, d).any(axis=0))
            if cols.size:
                witness = tuple(int(c == cols[0]) for c in range(M.dims[d]))
                out.append((lhs, rhs, d, op_degree, witness))
    return out


def column_space(a, p):
    """The pivot columns of a, a basis of its column space."""
    return a[:, fp.rref(a, p)[1]] % p


def reference_submodule(M, e):
    """The image of the idempotent e of M degree by degree: a column basis
    of each diagonal block of e, and each action restricted by solving
    basis[d2] X = A basis[d]."""
    p = M.prime
    bases = {d: column_space(M.block(e, d, d), p) for d in M.dims}
    dims = {d: b.shape[1] for d, b in bases.items() if b.shape[1]}
    actions = {}
    for (g, d), A in M.actions.items():
        d2 = d + g.degree_at(p)
        if d in dims and d2 in dims:
            X = fp.solve(bases[d2], fp.matmul(A, bases[d], p), p)
            assert X is not None, "idempotent image is not a submodule"
            actions[(g, d)] = X
    return FiniteModule(p, dims, actions)


def reference_fitting_idempotent(psi, p):
    """The Fitting projection from psi^n, formed with n products: a basis B
    of image then kernel, and B diag(1, ..., 1, 0, ..., 0) B^-1."""
    n = psi.shape[0]
    w = fp.identity(n)
    for _ in range(n):
        w = fp.matmul(w, psi, p)
    r = fp.rank(w, p)
    if not 0 < r < n:
        return None
    B = np.hstack([column_space(w, p), fp.nullspace(w, p)])
    diag = fp.zeros(n, n)
    diag[:r, :r] = fp.identity(r)
    return fp.matmul(fp.matmul(B, diag, p), inv(B, p), p)


def fitting_bases(M, psi):
    """The bases of psi's stable image and stable kernel that
    `_fitting_split` reads off the rref R of w = psi^m, each with a left
    inverse of its own: (R[:rank] C)^-1 R[:rank] for the image
    C = w[:, pivots], and the free rows of the identity for the kernel.
    The reference for the summands read off one change of basis; None when
    one of them is zero."""
    p, n = M.prime, M.total_dim
    w = fp.power(psi, 1 << (n - 1).bit_length(), p)
    r, pivots = fp.rref(w, p)
    rank = len(pivots)
    if not 0 < rank < n:
        return None
    image, top = w[:, pivots], r[:rank]
    free = np.ones(n, dtype=bool)
    free[pivots] = False
    return ((image, fp.solve(fp.matmul(top, image, p), top, p)),
            (fp.nullspace_of_rref(r, pivots, p), fp.identity(n)[free]))


def reference_inadmissible_words(p, max_degree):
    """Every product of two or three letters, filtered by degree and then
    by admissibility."""
    if p == 2:
        letters = [Sq(i) for i in range(1, max_degree)]
    else:
        letters = [BOCKSTEIN] + [P(i)
                                 for i in range(1, max_degree // (2 * (p - 1)) + 1)]
    degs = {g: g.degree_at(p) for g in letters}
    for length in (2, 3):
        for word in itertools.product(letters, repeat=length):
            if sum(degs[g] for g in word) > max_degree:
                continue
            if not Monomial(p, word).is_admissible:
                yield word


def reference_is_decomposable(M, bound=12, exhaustive_limit=1 << 16, rng_seed=0):
    """The idempotent search that decided decomposability before the radical
    of End(M) did, as (decomposable, certified).

    Exhaustive, hence certified, while p^dim End(M) <= exhaustive_limit;
    otherwise a Fitting search over shifted and quadratic evaluations of the
    basis of End(M) and 60 random combinations of it, which certifies a
    splitting but not indecomposability."""
    if M.total_dim > bound:
        raise ModuleError(f"total dimension {M.total_dim} exceeds bound {bound}")
    if M.total_dim <= 1:
        return False, True
    p = M.prime
    basis = modules._endomorphism_basis(M)
    ident = fp.identity(M.total_dim)

    def combine(coeffs):
        return np.tensordot(coeffs, basis, axes=1) % p

    if p ** len(basis) <= exhaustive_limit:
        for coeffs in itertools.product(range(p), repeat=len(basis)):
            e = combine(coeffs)
            if not e.any() or np.array_equal(e, ident):
                continue
            if np.array_equal(fp.matmul(e, e, p), e):
                return True, True
        return False, True

    rng = random.Random(rng_seed)

    def candidates():
        yield from basis
        for _ in range(60):
            yield combine([rng.randrange(p) for _ in basis])

    quads = [(b, c) for b in range(p) for c in range(p)
             # x^2 + b x + c irreducible over F_p
             if all((x * x + b * x + c) % p for x in range(p))]
    for phi in candidates():
        tests = [(phi - lam * ident) % p for lam in range(p)]
        tests += [(fp.matmul(phi, phi, p) + b * phi + c * ident) % p
                  for b, c in quads]
        for psi in tests:
            if reference_fitting_idempotent(psi, p) is not None:
                return True, True
    return False, False


def brute_force_radical(basis, p):
    """J(A) for A = span(basis) as the set of coefficient tuples of the a
    with a b nilpotent for every b in A, over all p^(2 dim A) pairs.

    Products are taken in coordinates: b_i b_j = sum_l c_ijl b_l, and a
    table says which of the p^dim A elements are nilpotent."""
    k, n = len(basis), basis.shape[1]
    flat = basis.reshape(k, -1)
    products = (basis[:, None] @ basis[None]) % p
    consts = fp.solve(flat.T, products.reshape(k * k, -1).T, p).T.reshape(k, k, k)
    coeffs = np.array(list(itertools.product(range(p), repeat=k)),
                      dtype=np.int64).reshape(-1, k)
    z = np.tensordot(coeffs, basis, axes=1) % p
    for _ in range((n - 1).bit_length()):
        z = z @ z % p
    nilpotent = ~z.any(axis=(1, 2))
    index = p ** np.arange(k - 1, -1, -1)
    step = max(1, (1 << 20) // (len(coeffs) * k))
    inside = []
    for start in range(0, len(coeffs), step):
        left = np.tensordot(coeffs[start:start + step], consts, axes=1)
        ab = (coeffs[None] @ left) % p
        inside.extend(nilpotent[ab @ index].all(axis=1).tolist())
    return {c for c, ok in zip(map(tuple, coeffs.tolist()), inside) if ok}


def reference_combinations(basis, p):
    """`_combinations` with `np.tensordot` in place of `@` on the
    flattened basis: its reference."""
    k = len(basis)
    for size in range(2, k + 1):
        for support in itertools.combinations(range(k), size):
            head, tail = basis[support[0]], basis[list(support[1:])]
            for coeffs in itertools.product(range(1, p), repeat=size - 1):
                yield (head + np.tensordot(coeffs, tail, axes=1)) % p


def span_of(rows, p):
    """Every F_p-combination of rows, as tuples."""
    return {tuple((np.array(c, dtype=np.int64) @ rows % p).tolist())
            for c in itertools.product(range(p), repeat=len(rows))}


def random_graded_module(p, rng):
    """Random action matrices between 2 to 4 degrees of dimension 1 to 3,
    for Sq^1, Sq^2 and Sq^3 or for b and P^1; not Adem-consistent in
    general, which End(M) does not need."""
    count = rng.randint(2, 4)
    degrees = sorted(rng.sample(range(count + (2 if p == 2 else 1)), count))
    dims = {d: rng.randint(1, 3) for d in degrees}
    gens = [Sq(1), Sq(2), Sq(3)] if p == 2 else [BOCKSTEIN, P(1)]
    actions = {}
    for g in gens:
        for d in dims:
            if d + g.degree_at(p) in dims:
                actions[(g, d)] = np.array(
                    [[rng.randrange(p) for _ in range(dims[d])]
                     for _ in range(dims[d + g.degree_at(p)])], dtype=np.int64)
    return FiniteModule(p, dims, actions)


def f4_entry(a, b):
    """Multiplication by a + b w on F_4 = F_2(w), w^2 = w + 1, in the
    F_2-basis (1, w)."""
    return np.array([[a, b], [b, a ^ b]], dtype=np.int64)


def restricted_f4_module(rng):
    """A random module over F_4 (x) A(2 degrees or 3, F_4-dimension 1 or 2
    each), seen over F_2: every F_4 entry becomes a 2 x 2 block.  End(M)
    contains F_4, so its residue field can be F_4 rather than F_2."""
    degrees = sorted(rng.sample(range(4), rng.randint(2, 3)))
    dims = {d: rng.randint(1, 2) for d in degrees}
    actions = {}
    for g in (Sq(1), Sq(2), Sq(3)):
        for d in dims:
            if d + g.degree_at(2) in dims:
                actions[(g, d)] = np.block(
                    [[f4_entry(rng.randrange(2), rng.randrange(2))
                      for _ in range(dims[d])]
                     for _ in range(dims[d + g.degree_at(2)])])
    return FiniteModule(2, {d: 2 * n for d, n in dims.items()}, actions)


def seeded_modules(build, seed, count, max_end=1 << 14):
    """The first count modules from build(rng) with p^dim End(M) <= max_end."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        M = build(rng)
        if M.prime ** len(modules._endomorphism_basis(M)) <= max_end:
            out.append(M)
    return out


def as_tuples(violations):
    return [(v.lhs, v.rhs, v.source_degree, v.witness) for v in violations]


def smash_power(M, k):
    out = M
    for _ in range(k - 1):
        out = tensor(out, M)
    return out


def sum_of(*modules):
    out = modules[0]
    for M in modules[1:]:
        out = direct_sum(out, M)
    return out


def reference_direct_sum(A, B):
    """direct_sum's earlier construction: each generator's block-diagonal
    matrix, then rows and columns permuted by the stable argsort of the
    basis degrees of A then B."""
    n, split = A.total_dim + B.total_dim, A.total_dim
    perm = np.argsort(np.concatenate([A.basis_degrees, B.basis_degrees]),
                      kind="stable")
    dims = {d: A.dim(d) + B.dim(d) for d in sorted({*A.dims, *B.dims})}
    matrices = {}
    for g in sorted({*A.matrices, *B.matrices}):
        mat = fp.zeros(n, n)
        if g in A.matrices:
            mat[:split, :split] = A.matrices[g]
        if g in B.matrices:
            mat[split:, split:] = B.matrices[g]
        matrices[g] = mat[np.ix_(perm, perm)]
    return dims, matrices


def fabricated_violation_module():
    # Sq^1 Sq^1 = 0, so a rank-1 chain x ->Sq1 y ->Sq1 z is inconsistent.
    return FiniteModule(
        2,
        {0: 1, 1: 1, 2: 1},
        {
            (Sq(1), 0): np.array([[1]], dtype=np.int64),
            (Sq(1), 1): np.array([[1]], dtype=np.int64),
        },
    )


def stunted_projective_module(lo, hi):
    """H*(RP^hi_lo; F_2): x^k in each degree lo..hi and Sq^i x^k =
    C(k, i) x^(k+i).  Its span hi - lo brings in every relation up to that
    degree."""
    actions = {(Sq(i), k): np.array([[math.comb(k, i) % 2]], dtype=np.int64)
               for k in range(lo, hi + 1) for i in range(1, hi - k + 1)}
    return FiniteModule(2, {k: 1 for k in range(lo, hi + 1)}, actions)


def as_reference_tuples(violations):
    return [(v.lhs, v.rhs, v.source_degree, v.operation_degree, v.witness)
            for v in violations]


def dense_random_module(p, rng, top):
    """One or two cells in every degree 0..top and a random matrix for every
    generator that fits; such modules are rarely Adem-consistent."""
    dims = {d: rng.randint(1, 2) for d in range(top + 1)}
    if p == 2:
        gens = [Sq(k) for k in range(1, top + 1)]
    else:
        gens = [BOCKSTEIN] + [P(k) for k in range(1, top // (2 * (p - 1)) + 1)]
    actions = {}
    for g in gens:
        for d in dims:
            if d + g.degree_at(p) in dims:
                actions[(g, d)] = np.array(
                    [[rng.randrange(p) for _ in range(dims[d])]
                     for _ in range(dims[d + g.degree_at(p)])],
                    dtype=np.int64,
                )
    return FiniteModule(p, dims, actions)


def reference_endomorphism_basis(M):
    """The Kronecker End builder that `_endomorphism_basis` replaced: the
    unknowns are the entries of each degree block E_d, row by row, and the
    action A from degree d to d2 contributes the equations
    E_d2 A - A E_d = 0, whose coefficient blocks are kron(I, A^T) and
    -kron(A, I)."""
    p = M.prime
    offsets = modules._offsets({d: n * n for d, n in M.dims.items()})
    total = sum(n * n for n in M.dims.values())

    def kron(x, y):
        (r1, c1), (r2, c2) = x.shape, y.shape
        return np.einsum("ij,kl->ikjl", x, y).reshape(r1 * r2, c1 * c2)

    rows = []
    for (g, d), A in M.actions.items():
        d2 = d + g.degree_at(p)
        tdim, sdim = A.shape
        block = fp.zeros(tdim * sdim, total)
        block[:, offsets[d2]:offsets[d2] + tdim * tdim] += kron(fp.identity(tdim), A.T)
        block[:, offsets[d]:offsets[d] + sdim * sdim] -= kron(A, fp.identity(sdim))
        rows.append(block % p)
    basis_vecs = fp.nullspace(np.vstack(rows), p) if rows else fp.identity(total)
    k = basis_vecs.shape[1]
    out = np.zeros((k, M.total_dim, M.total_dim), dtype=np.int64)
    for d, pos in modules._offsets(M.dims).items():
        n = M.dims[d]
        out[:, pos:pos + n, pos:pos + n] = basis_vecs[
            offsets[d]:offsets[d] + n * n].T.reshape(k, n, n)
    return out


def reference_restrict(M, basis, left):
    """The submodule of M spanned by the columns of basis, one generator at
    a time: each generator W restricts to X = left W basis, checked by
    basis X = W basis, and the submodule's T is the sum of these X."""
    p = M.prime
    dims = {}
    for d in M.basis_degrees[(basis != 0).argmax(axis=0)].tolist():
        dims[d] = dims.get(d, 0) + 1
    total = fp.zeros(basis.shape[1], basis.shape[1])
    for W in M.matrices.values():
        image = fp.matmul(W, basis, p)
        X = fp.matmul(left, image, p)
        if not np.array_equal(fp.matmul(basis, X, p), image):
            raise ModuleError("Fitting summand is not a submodule")
        total += X
    return FiniteModule._whole(p, dims, total % p)


@pytest.mark.parametrize("call", [
    lambda: FiniteModule(2, {0: 1, 4: 1}, {(P(1), 0): [[1]]}),
    lambda: direct_sum(moore_module(2), moore_module(3)),
    lambda: tensor(moore_module(3), moore_module(5)),
    lambda: act_element(moore_module(2), el("P^1", 3)),
    lambda: act_element(moore_module(2), el("P^1", 3), 0),
], ids=["constructor", "direct-sum", "tensor", "act-whole", "act-at-degree"])
def test_mixed_primes_are_refused(call):
    with pytest.raises(PrimeMismatchError):
        call()


class TestConstructors:
    def test_sphere(self):
        s = sphere_module(2, 3)
        assert s.dims == {3: 1}
        assert s.total_dim == 1

    def test_moore_p2(self):
        m = moore_module(2)
        assert m.dims == {0: 1, 1: 1}
        assert m.action(Sq(1), 0).tolist() == [[1]]

    def test_moore_odd(self):
        m = moore_module(5)
        assert m.dims == {0: 1, 1: 1}
        assert m.action(BOCKSTEIN, 0).tolist() == [[1]]
        # Sq^1 has beta's degree but does not act at an odd prime.
        assert m.action(Sq(1), 0).tolist() == [[0]]
        assert moore_module(2).action(BOCKSTEIN, 0).tolist() == [[0]]

    def test_shift(self):
        m = shift(moore_module(2), 3)
        assert m.dims == {3: 1, 4: 1}
        assert m.action(Sq(1), 3).tolist() == [[1]]

    def test_direct_sum_dims(self):
        s = direct_sum(moore_module(2), sphere_module(2, 1))
        assert s.dims == {0: 1, 1: 2}

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_direct_sum_matches_the_block_diagonal_reference(self, p):
        # Interleaved degrees, generators only one summand has, the zero
        # module on either side, and sums of sums.
        rng = random.Random(60 + p)
        zero = FiniteModule(p, {}, {})
        pieces = [zero, moore_module(p), hypothetical_Cb_module() if p == 3 else zero]
        for _ in range(25):
            pieces += [shift(random_module(p, rng), rng.randint(-2, 3)),
                       shift(random_graded_module(p, rng), rng.randint(-2, 3))]
        pairs = [(rng.choice(pieces), rng.choice(pieces)) for _ in range(80)]
        pairs += [(direct_sum(a, b), c) for (a, b), c in zip(pairs, pieces)]
        for A, B in pairs:
            M = direct_sum(A, B)
            dims, matrices = reference_direct_sum(A, B)
            assert M.dims == dims and list(M.matrices) == list(matrices)
            for g, mat in matrices.items():
                assert M.matrices[g].dtype == mat.dtype
                assert np.array_equal(M.matrices[g], mat), (A, B, g)

    def test_rejects_bad_shapes(self):
        with pytest.raises(Exception):
            FiniteModule(2, {0: 1, 1: 1}, {(Sq(1), 0): np.zeros((2, 2), dtype=np.int64)})

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_constants_equal_the_checked_constructor(self, p):
        # moore_module and sphere_module skip the constructor's checks.
        bock = Sq(1) if p == 2 else BOCKSTEIN
        moore = FiniteModule(p, {0: 1, 1: 1}, {(bock, 0): np.array([[1]])},
                             labels={0: ["e0"], 1: ["e1"]})
        assert moore_module(p) == moore and moore_module(p).labels == moore.labels
        for d in (-2, 0, 3):
            sphere = FiniteModule(p, {d: 1}, {}, labels={d: [f"s{d}"]})
            assert sphere_module(p, d) == sphere
            assert sphere_module(p, d).labels == sphere.labels
            assert not sphere_module(p, d).matrices

    def test_rejects_negative_dimensions(self):
        with pytest.raises(ModuleError, match=r"negative dimensions \{1: -1\}"):
            FiniteModule(2, {0: 1, 1: -1}, {})
        # A zero dimension is an empty degree.
        assert FiniteModule(2, {0: 1, 1: 0}, {}).dims == {0: 1}

    @pytest.mark.parametrize("dims,actions,message", [
        ({0: 1.7, 1.2: 1}, {}, "the dimension of degree 0 is 1.7, not an integer"),
        ({0: 1, 1.2: 1}, {}, "a degree is 1.2, not an integer"),
        ({"0": 1}, {}, "a degree is '0', not an integer"),
        ({0: True}, {}, "the dimension of degree 0 is True, not an integer"),
        ({0: np.float64(1)}, {}, "the dimension of degree 0 is 1.0, not an integer"),
        ({0: 1, 1: 1}, {(Sq(1), 0.0): [[1]]}, "the source degree of Sq^1 is 0.0, not an integer"),
        ({0: 1, 1: 1}, {(Sq(1), 0): [[1.5]]},
         "an entry of the action of Sq^1 at degree 0 is 1.5, not an integer"),
        ({0: 1, 1: 1}, {(Sq(1), 0): np.array([[True]])},
         "an entry of the action of Sq^1 at degree 0 is True, not an integer"),
        ({0: 1, 1: 1}, {(Sq(1), 0): [["1"]]},
         "an entry of the action of Sq^1 at degree 0 is '1', not an integer"),
    ], ids=["float-dim", "float-degree", "string-degree", "bool-dim", "numpy-float-dim",
            "float-source-degree", "float-entry", "bool-entry", "string-entry"])
    def test_refuses_what_is_not_an_integer(self, dims, actions, message):
        # Nothing is truncated: int() made 1.7 a dimension of 1, and an
        # int64 array made the entry 1.5 a 1.
        with pytest.raises(ModuleError, match=f"^{re.escape(message)}$"):
            FiniteModule(2, dims, actions)

    def test_accepts_integer_numpy_scalars_and_arrays(self):
        M = FiniteModule(2, {np.int64(0): np.int32(1), 1: np.uint8(1)},
                         {(Sq(1), np.int16(0)): np.array([[3]], dtype=np.uint8)})
        assert M == moore_module(2)
        assert all(type(k) is int and type(n) is int for k, n in M.dims.items())
        # Integers beyond int64 are reduced mod p exactly.
        assert FiniteModule(2, {0: 1, 1: 1}, {(Sq(1), 0): [[2**70 + 1]]}) == moore_module(2)

    @pytest.mark.parametrize("value", [0.5, True, "1"], ids=["float", "bool", "string"])
    def test_shift_and_sphere_refuse_what_is_not_an_integer(self, value):
        # shift(M, 0.5) had the degrees 0.5 and 1.5, which a module file
        # cannot hold, so save_module wrote what load_module refused.
        for build, what in ((lambda: shift(moore_module(2), value), "the shift"),
                            (lambda: sphere_module(2, value), "the degree")):
            message = f"{what} is {value!r}, not an integer"
            with pytest.raises(ModuleError, match=f"^{re.escape(message)}$"):
                build()

    def test_shift_and_sphere_accept_integer_numpy_scalars(self, tmp_path):
        moved = shift(moore_module(2), np.int64(2))
        assert moved == shift(moore_module(2), 2)
        assert sphere_module(2, np.int64(2)).dims == {2: 1}
        assert all(type(d) is int for d in [*moved.dims, *sphere_module(2, np.int32(1)).dims])
        modules.save_module(moved, str(tmp_path / "moved.json"))
        assert load_module(str(tmp_path / "moved.json")) == moved

    @pytest.mark.parametrize("labels,message", [
        ({0: ["a"]}, r"labels are given for degrees \[0\], expected one list per "
                     r"occupied degree \[0, 2\]"),
        ({0: ["a"], 2: ["b", "c"], 5: ["d"]}, "labels are given for degrees"),
        ({0: ["a"], 2: ["b"]}, "degree 2 has 2 dimensions but 1 labels"),
        ({0: [], 2: ["b", "c"]}, "degree 0 has 1 dimensions but 0 labels"),
    ], ids=["missing-degree", "extra-degree", "too-short", "empty"])
    def test_rejects_labels_that_do_not_fit(self, labels, message):
        with pytest.raises(ModuleError, match=message):
            FiniteModule(2, {0: 1, 1: 0, 2: 2}, {}, labels=labels)
        assert FiniteModule(2, {0: 1, 1: 0, 2: 2}, {},
                            labels={0: ["a"], 2: ["b", "c"]}).labels[2] == ["b", "c"]

    @pytest.mark.parametrize("dims,labels,message", [
        ({0: 2}, {0: "ab"}, 'the labels of degree 0 is "ab", not a list'),
        ({0: 1}, {0: [5]}, "an item of the labels of degree 0 is 5, not a string"),
    ], ids=["string", "int-label"])
    def test_rejects_labels_a_module_file_cannot_hold(self, dims, labels, message):
        # The module file reader's refusal, so that a module saves only
        # what loads again.
        with pytest.raises(ModuleError, match=f"^{re.escape(message)}$"):
            FiniteModule(2, dims, {}, labels=labels)


class TestLayout:
    def test_every_construction_round_trips_through_its_blocks(self):
        # Rebuilding from the per-degree blocks, through every check of the
        # constructor, gives the module back: the whole matrices built by
        # the constructions hold nothing outside their generators' blocks.
        rng = random.Random(47)
        built = [sphere_module(3, 2), moore_module(5), hypothetical_Cb_module(),
                 smash_power(moore_module(2), 4), smash_power(moore_module(3), 3)]
        for p in (2, 3, 5):
            for _ in range(10):
                a, b = random_module(p, rng), random_graded_module(p, rng)
                built += [shift(a, rng.randint(-3, 3)), direct_sum(a, shift(b, rng.randint(0, 3))),
                          tensor(a, b), tensor(direct_sum(moore_module(p), a), moore_module(p))]
        for M in list(built):
            if M.total_dim <= modules.DECOMPOSE_BOUND:
                built.extend(is_decomposable(M).summands or ())
        assert len(built) > 150
        for M in built:
            # The actions in reverse order build the same module.
            again = FiniteModule(M.prime, M.dims, dict(reversed(M.actions.items())), M.labels)
            assert again == M and again.labels == M.labels
            assert not again.total.flags.writeable and not M.total.flags.writeable
            assert list(M.actions) == sorted(M.actions)
            assert list(M.dims) == sorted(M.dims)
            assert all(mat.any() for mat in M.matrices.values())

    def test_shift_keeps_the_matrices(self):
        M = smash_power(moore_module(2), 3)
        moved = shift(M, 4)
        assert moved.total is M.total
        assert moved.action(Sq(2), 4).tolist() == M.action(Sq(2), 0).tolist()
        with pytest.raises(ValueError, match="read-only"):
            moved.action(Sq(1), 4)[0, 0] = 0

    def test_tensor_and_file_output_cut_no_generators(self):
        # Only a word of generators needs their matrices cut out of T.
        M = tensor(smash_power(moore_module(2), 3), smash_power(moore_module(2), 3))
        modules.module_to_dict(M)
        assert "matrices" not in M.__dict__
        assert Sq(3) in M.matrices and "matrices" in M.__dict__


class TestTensor:
    def test_kunneth_dimensions(self):
        t = tensor(moore_module(2), moore_module(2))
        assert {d: t.dim(d) for d in t.degrees} == {0: 1, 1: 2, 2: 1}

    def test_unit_laws(self):
        m = moore_module(3)
        one = sphere_module(3, 0)
        assert tensor(m, one) == m
        assert tensor(one, m) == m

    def test_cartan_sq2_on_smash_square(self):
        t = tensor(moore_module(2), moore_module(2))
        # Sq^2 = Sq^1 (x) Sq^1 is the only contribution from degree 0.
        assert act_element(t, el("Sq^2", 2), 0).tolist() == [[1]]

    def test_cartan_bockstein_sign(self):
        # On u (x) v with |u| odd the right-hand term of the derivation
        # rule picks up a minus sign: b(u (x) v) = b(u) (x) v - u (x) b(v).
        m = moore_module(3)
        t = tensor(shift(m, 1), m)
        mat = act_element(t, el("b", 3), 1)
        # Degree 1 is spanned by u (x) v; degree 2 by u (x) b(v) then
        # b(u) (x) v, so the columns read (-1, +1) mod 3.
        assert mat.tolist() == [[2], [1]]

    def test_associativity_random(self):
        # (A (x) B) (x) C and A (x) (B (x) C) agree on the nose after the
        # canonical relabeling of basis triples; the permutation must
        # intertwine every action matrix exactly.
        def left_triples(a, b, c, ab, n):
            out = []
            for m in sorted(ab.dims):
                k = n - m
                if c.dim(k) == 0:
                    continue
                for (i, ai, j, bi) in tensor_basis(a, b, m):
                    for ci in range(c.dim(k)):
                        out.append((i, ai, j, bi, k, ci))
            return out

        def right_triples(a, b, c, bc, n):
            out = []
            for i in sorted(a.dims):
                m = n - i
                if bc.dim(m) == 0:
                    continue
                for ai in range(a.dim(i)):
                    for (j, bi, k, ci) in tensor_basis(b, c, m):
                        out.append((i, ai, j, bi, k, ci))
            return out

        rng = random.Random(7)
        for _ in range(12):
            p = rng.choice([2, 3])
            a, b, c = (random_module(p, rng) for _ in range(3))
            ab, bc = tensor(a, b), tensor(b, c)
            left, right = tensor(ab, c), tensor(a, bc)
            assert left.dims == right.dims
            perm = {}
            for n in left.dims:
                lt = left_triples(a, b, c, ab, n)
                rt = right_triples(a, b, c, bc, n)
                assert sorted(lt) == sorted(rt)
                pos = {t: i for i, t in enumerate(rt)}
                perm[n] = [pos[t] for t in lt]
            for key in set(left.actions) | set(right.actions):
                g, n = key
                n2 = n + g.degree_at(p)
                lmat = left.action(g, n)
                rmat = right.action(g, n)
                # Row r of the permuted left action is entry perm[n2][r]
                # of the right action in right-basis coordinates.
                permuted = np.zeros_like(rmat)
                for r_left, r_right in enumerate(perm[n2]):
                    for c_left, c_right in enumerate(perm[n]):
                        permuted[r_right, c_right] = lmat[r_left, c_left]
                assert permuted.tolist() == rmat.tolist()

    def test_matches_loop_reference(self):
        m2, m3, m5 = (moore_module(p) for p in (2, 3, 5))
        by_prime = {
            2: [m2, sphere_module(2, 0), sphere_module(2, 3), shift(m2, 3),
                direct_sum(m2, sphere_module(2, 1)), tensor_by_loops(m2, m2),
                direct_sum(m2, shift(m2, 1)), fabricated_violation_module()],
            3: [m3, sphere_module(3, 0), shift(m3, 1), tensor_by_loops(m3, m3),
                direct_sum(m3, shift(m3, 4)), hypothetical_Cb_module()],
            5: [m5, sphere_module(5, 0), shift(m5, 3)],
        }
        pairs = [(a, b) for mods in by_prime.values() for a in mods for b in mods]
        pairs.append((hypothetical_Cb_module(), m3))
        rng = random.Random(23)
        for p in (2, 3, 5):
            for _ in range(30):
                a, b, c = (random_module(p, rng) for _ in range(3))
                pairs.append((direct_sum(shift(a, rng.randint(-2, 3)), b), c))
        for a, b in pairs:
            got, want = tensor(a, b), tensor_by_loops(a, b)
            assert got == want
            assert got.labels == want.labels

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_seeded_sweep_matches_loop_reference(self, p):
        # Random factors with degree gaps, every generator that fits (beta
        # and P^1, P^2 at odd p), labels on and off, and factors with no
        # generators: n cells in one degree, and the zero module.
        rng = random.Random(53 + p)
        top = {2: 5, 3: 9, 5: 17}[p]

        def labelled(M):
            return FiniteModule(p, M.dims, M.actions, labels={
                d: [f"x{d}.{i}" for i in range(n)] for d, n in M.dims.items()})

        def gappy(M):
            # Every other degree dropped, the actions that remain kept.
            kept = {d: n for d, n in M.dims.items() if d % 3 != 1}
            return FiniteModule(p, kept, {(g, d): a for (g, d), a in M.actions.items()
                                          if d in kept and d + g.degree_at(p) in kept})

        factors = [FiniteModule(p, {}, {}), FiniteModule(p, {2: 3}, {}),
                   sphere_module(p, 1), moore_module(p)]
        for _ in range(6):
            factors += [random_module(p, rng), gappy(dense_random_module(p, rng, top)),
                        labelled(dense_random_module(p, rng, top // 2))]
        factors += [labelled(M) for M in factors[1:4]]
        pairs = [(a, b) for a in factors for b in factors if rng.random() < 0.25]
        pairs += [(factors[0], factors[3]), (factors[3], factors[1])]
        kinds = set()
        for a, b in pairs:
            a = shift(a, rng.randint(-3, 3))
            got, want = tensor(a, b), tensor_by_loops(a, b)
            assert got == want
            assert got.labels == want.labels
            kinds |= {g.kind if g.kind != "P" else g for g in got.matrices}
        if p == 2:
            assert kinds == {"Sq"}
        else:
            assert {"b", P(1), P(2)} <= kinds
        assert len(pairs) > 60

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_random_shifted_factors_match_the_loop_reference(self, p):
        rng = random.Random(59 + p)
        top = {2: 4, 3: 5, 5: 9}[p]
        kinds = set()
        for i in range(16):
            a = dense_random_module(p, rng, top)
            b = random_module(p, rng) if i % 2 else dense_random_module(p, rng, top // 2)
            if i % 3:
                a = FiniteModule(p, a.dims, a.actions, labels={
                    d: [f"a{d}.{j}" for j in range(n)] for d, n in a.dims.items()})
                b = FiniteModule(p, b.dims, b.actions, labels={
                    d: [f"b{d}.{j}" for j in range(n)] for d, n in b.dims.items()})
            a, b = shift(a, rng.randint(-3, 3)), shift(b, rng.randint(-3, 3))
            got, want = tensor(a, b), tensor_by_loops(a, b)
            assert got == want
            assert got.labels == want.labels
            assert list(got.matrices) == sorted(want.matrices)
            kinds |= set(got.matrices)
        assert ({Sq(1), Sq(2), Sq(3)} if p == 2 else {BOCKSTEIN, P(1)}) <= kinds

    @pytest.mark.parametrize("p,k", [(2, 5), (3, 4)])
    def test_smash_powers_match_loop_reference(self, p, k):
        m = moore_module(p)
        got, want = m, m
        for _ in range(k - 1):
            got, want = tensor(got, m), tensor_by_loops(want, m)
        assert got.total_dim == 2 ** k
        assert got == want
        assert got.labels == want.labels

    def test_tensor_consistency_preserved(self):
        # The smash square of a consistent module stays consistent.
        t = tensor(moore_module(2), moore_module(2))
        assert consistency_check(t, 20) == []
        t3 = tensor(moore_module(3), moore_module(3))
        assert consistency_check(t3, 20) == []

    @staticmethod
    def bockstein_cells(p):
        """S/p with beta = -1: the smash square's top row holds (p - 1)^2."""
        return FiniteModule(p, {0: 1, 1: 1}, {(BOCKSTEIN, 0): [[p - 1]]})

    def test_products_are_exact_at_a_large_prime(self):
        p = 1000003
        square = tensor(self.bockstein_cells(p), self.bockstein_cells(p))
        # beta(x1 (x) y0) = -x1 (x) beta y0: the Koszul sign p - 1 times
        # beta's entry p - 1, so the product (p - 1)^2, which is 1 mod p.
        assert square.total[3].tolist() == [0, p - 1, 1, 0]

    def test_a_prime_whose_products_overflow_int64_is_refused(self):
        p = 4294967311
        with pytest.raises(ValueError, match=r"mod 4294967311 .* \(p - 1\)\^2 must stay below 2\^63$"):
            tensor(self.bockstein_cells(p), self.bockstein_cells(p))


class TestActElement:
    def test_zero_on_empty_target(self):
        m = moore_module(3)
        out = act_element(m, el("P^1", 3), 0)
        assert out.shape == (0, 1)

    def test_non_homogeneous_element_is_refused(self):
        with pytest.raises(ModuleError, match="requires a homogeneous element"):
            act_element(moore_module(2), el("Sq^1 + Sq^2", 2), 0)

    def test_sum_of_words(self):
        m = tensor(moore_module(2), moore_module(2))
        s = el("Sq^2 + Sq^1 Sq^1", 2)
        direct = (act_element(m, el("Sq^2", 2), 0)
                  + act_element(m, el("Sq^1 Sq^1", 2), 0)) % 2
        assert act_element(m, s, 0).tolist() == direct.tolist()

    def test_dead_branch_does_not_corrupt_sum(self):
        # One word lands in an empty degree while another does not; the
        # nonzero contribution must survive.
        cb = hypothetical_Cb_module()
        s = el("P^3 P^3 + P^6", 3)
        out = act_element(cb, s, 0)
        assert out.shape == (1, 1)
        expected = (act_element(cb, el("P^3 P^3", 3), 0)
                    + act_element(cb, el("P^6", 3), 0)) % 3
        assert out.tolist() == expected.tolist()

    def test_degree_blocks_match_the_reference(self):
        # Top degrees, degrees outside the module on either side, and zero
        # elements, whose matrices have shapes such as (0, n) and (n, 0).
        rng = random.Random(43)
        # The 256-dim (S/2)^4 smash (S/2)^4 has long words acting nonzero.
        fourth = smash_power(moore_module(2), 4)
        mods = [hypothetical_Cb_module(), moore_module(3), sphere_module(5, 2),
                fabricated_violation_module(), tensor(moore_module(2), moore_module(2)),
                tensor(fourth, fourth)]
        mods += [dense_random_module(p, rng, top) for p, top in ((2, 4), (3, 9))]
        words = {2: ["Sq^1", "Sq^2", "Sq^1 Sq^1", "Sq^2 Sq^1 + Sq^3", "Sq^1 - Sq^1",
                     "Sq^4", "Sq^2 Sq^1", "Sq^1 Sq^2 Sq^1 + Sq^3 Sq^1", "1"],
                 3: ["b", "P^1", "P^3", "b P^1 b", "P^3 P^3 + P^6", "P^3 P^3 P^3",
                     "b - b", "P^12", "2"],
                 5: ["b", "P^1", "b - b"]}
        assert act_element(mods[5], el("Sq^2 Sq^1", 2), 3).any()
        shapes = set()
        for M in mods:
            for text in words[M.prime]:
                e = el(text, M.prime)
                for d in range(min(M.degrees) - 3, max(M.degrees) + 3):
                    got, want = act_element(M, e, d), act_by_degrees(M, e, d)
                    assert got.shape == want.shape
                    assert np.array_equal(got, want)
                    shapes.add((got.shape[0] == 0, got.shape[1] == 0))
        assert shapes == {(False, False), (True, False), (False, True), (True, True)}

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_degree_blocks_cut_no_generators(self, p):
        # At one degree, a word is applied through blocks of T alone; its
        # matrix is the block of the whole-module matrix at that degree.
        rng = random.Random(47 + p)
        words = {2: ["Sq^1", "Sq^2", "Sq^2 + Sq^1 Sq^1", "Sq^1 Sq^2", "1"],
                 3: ["b", "P^1", "2 b", "b P^1 + P^1 b", "1"],
                 5: ["b", "P^1", "3 b", "b b", "1"]}[p]
        for _ in range(20):
            M = random_module(p, rng)
            blocks = {}
            for text in words:
                e = el(text, p)
                target = element_degree(e)
                for d in range(-1, 7):
                    blocks[text, d] = act_element(M, e, d)
                    assert blocks[text, d].shape == (M.dim(d + target), M.dim(d))
            assert "matrices" not in M.__dict__
            for text in words:
                e = el(text, p)
                whole, target = act_element(M, e), element_degree(e)
                for d in M.degrees:
                    if d + target in M.dims:
                        assert np.array_equal(blocks[text, d], M.block(whole, d + target, d))
                    else:
                        assert not blocks[text, d].size

    def test_whole_module_matrix_has_the_degree_blocks(self):
        rng = random.Random(41)
        cases = [(hypothetical_Cb_module(), el("P^3 P^3 P^3 - P^7 P^1 P^1", 3)),
                 (hypothetical_Cb_module(), el("P^3 P^3 + P^6", 3)),
                 (fabricated_violation_module(), el("Sq^1 Sq^1", 2))]
        for p, top, words in ((2, 5, ["Sq^2 Sq^2", "Sq^1 Sq^2 Sq^1 + Sq^3 Sq^1",
                                      "Sq^1 Sq^1 Sq^1 Sq^2"]),
                              (3, 9, ["P^1 b P^1", "b P^2 + P^2 b", "P^1 b P^1 b"])):
            for _ in range(5):
                M = dense_random_module(p, rng, top)
                cases += [(M, el(w, p)) for w in words]
        for M, e in cases:
            mat = act_element(M, e)
            # Again, with M's pair products kept, and on a fresh copy.
            assert np.array_equal(mat, act_element(M, e))
            assert np.array_equal(mat, act_element(FiniteModule(M.prime, M.dims, M.actions), e))
            op_degree = element_degree(e)
            for d in M.degrees:
                for t in M.degrees:
                    block = M.block(mat, t, d)
                    if t == d + op_degree:
                        assert np.array_equal(block, act_by_degrees(M, e, d))
                    else:
                        assert not block.any()


class TestConsistencyCheck:
    def test_clean_modules(self):
        assert consistency_check(moore_module(2), 30) == []
        assert consistency_check(moore_module(3), 30) == []
        assert consistency_check(sphere_module(5, 0), 30) == []

    def test_detects_fabricated_violation(self):
        violations = consistency_check(fabricated_violation_module(), 10)
        assert violations
        assert (0, 2) in violation_classes(violations)

    def test_cb_module_single_class(self):
        cb = hypothetical_Cb_module()
        violations = consistency_check(cb, 40)
        classes = sorted(violation_classes(violations))
        assert classes == [(0, 36)]
        lhs_words = {str(v.lhs) for v in violations}
        assert "P^3 P^3 P^3" in lhs_words

    def test_matches_per_degree_reference(self):
        cases = [(hypothetical_Cb_module(), 40), (fabricated_violation_module(), 10)]
        rng = random.Random(31)
        for p, top in ((2, 5), (3, 9), (5, 9)):
            for _ in range(10):
                a, b = random_module(p, rng), random_module(p, rng)
                cases.append((direct_sum(a, shift(b, rng.randint(0, 3))), 12))
                cases.append((dense_random_module(p, rng, top), 12))
        found = 0
        for M, bound in cases:
            want = consistency_by_degrees(M, bound)
            assert as_tuples(consistency_check(M, bound)) == want
            found += len(want)
        assert found > 100

    def test_matches_the_lhs_minus_rhs_reference(self):
        cases = [(hypothetical_Cb_module(), bound) for bound in (24, 36, 40)]
        cases.append((fabricated_violation_module(), 10))
        # The modules of the benchmark's build ops: smash powers of S/p,
        # alone or beside a shifted S/p.
        for p, top in ((2, 5), (3, 4)):
            for k in range(2, top + 1):
                power = smash_power(moore_module(p), k)
                cases.append((power, 40))
                cases.extend((direct_sum(power, shift(moore_module(p), s)), 40)
                             for s in range(0, 7, 3))
        rng = random.Random(37)
        for p, top in ((2, 6), (3, 9), (5, 9)):
            for _ in range(8):
                a, b = random_module(p, rng), random_graded_module(p, rng)
                cases.append((direct_sum(a, shift(b, rng.randint(0, 3))), 12))
                cases.append((dense_random_module(p, rng, top), 12))
        found = 0
        for M, bound in cases:
            want = reference_consistency_check(M, bound)
            assert as_reference_tuples(consistency_check(M, bound)) == want
            found += len(want)
        assert found > 100

    def test_wide_span_at_p2_matches_the_reference(self):
        # RP^24_1 spans 23 degrees, and every Sq^i with i < 24 acts on it.
        M = stunted_projective_module(1, 24)
        assert reference_consistency_check(M, 40) == []
        assert consistency_check(M, 40) == []
        total = np.array(M.total)
        # Sq^2 x^3 = x^5 (C(3, 2) = 3 is odd); flipped, Sq^1 Sq^2 = Sq^3
        # and others fail on x^3.
        total[M.offsets[5], M.offsets[3]] ^= 1
        flipped = FiniteModule._whole(2, M.dims, total)
        want = reference_consistency_check(flipped, 40)
        assert want
        assert as_reference_tuples(consistency_check(flipped, 40)) == want

    def test_dense_modules_at_p5_match_the_reference(self):
        rng = random.Random(41)
        found = 0
        for top in (80, 84):
            M = dense_random_module(5, rng, top)
            want = reference_consistency_check(M, top)
            assert as_reference_tuples(consistency_check(M, top)) == want
            found += len(want)
        assert found > 100

    def test_relation_table_is_built_once_per_prime_and_bound(self, monkeypatch):
        calls = []
        normalize = modules.adem_normalize

        def counted(e):
            calls.append(str(e))
            return normalize(e)

        # The tables are keyed on the normalizer in force, so a fresh one
        # builds its own.  Of Cb's gaps 11, 12, 13, 23, 24, 25, 35 and 36,
        # 12, 13, 24, 25 and 36 hold relations, so its first check
        # normalizes those 69 (of 198 up to degree 36).
        monkeypatch.setattr(modules, "adem_normalize", counted)
        cb = hypothetical_Cb_module()
        first = consistency_check(cb, 40)
        _, relations = adem_relations(cb, 40)
        assert len(calls) == len(relations) == 69
        assert len(_relation_words(3, range(2, 37))) == 198
        assert sorted(calls) == sorted(str(lhs) for _, lhs, _ in relations)
        calls.clear()
        assert as_tuples(consistency_check(cb, 40)) == as_tuples(first)
        assert calls == []
        # S/3 beside a shifted smash square of S/3 has the gaps 2, 11, 12,
        # 13 and 14; only the relations of degrees 2 and 14 are new.
        m3 = moore_module(3)
        other = direct_sum(m3, shift(tensor(m3, m3), 12))
        consistency_check(other, 40)
        _, more = adem_relations(other, 40)
        cb_degrees = {k for k, _, _ in relations}
        assert {k for k, _, _ in more} - cb_degrees == {2, 14}
        assert sorted(calls) == sorted(str(lhs) for k, lhs, _ in more if k not in cb_degrees)
        assert len(calls) == len(set(calls)) > 0

    def test_gaps_without_relations_share_a_table(self):
        # No word of two or three letters has degree 11 at p = 3, so S/3 +
        # S^12/3, with gaps 11, 12 and 13, shares the table of the sum of
        # spheres in degrees 0, 12 and 13, with gaps 12 and 13.
        m3 = moore_module(3)
        moore_pair = direct_sum(m3, shift(m3, 12))
        spheres = direct_sum(sphere_module(3, 0), direct_sum(sphere_module(3, 12),
                                                             sphere_module(3, 13)))
        assert modules._module_table(moore_pair, 13) is modules._module_table(spheres, 13)
        assert {k for k, _, _ in adem_relations(moore_pair, 40)[1]} == {12, 13}

    def test_inadmissible_words_match_reference(self):
        for p in (2, 3, 5):
            for bound in range(41):
                got = _relation_words(p, range(2, bound + 1))
                assert ([word for _, word in got]
                        == list(reference_inadmissible_words(p, bound)))
                assert all(degree == sum(g.degree_at(p) for g in word)
                           for degree, word in got)
            # A set of degrees keeps the reference's order, cut to them.
            degrees = {2, 5, 8, 9, 24, 36}
            assert [word for _, word in _relation_words(p, degrees)] == [
                word for word in reference_inadmissible_words(p, 36)
                if sum(g.degree_at(p) for g in word) in degrees]

    def test_relation_lhs_equal_checked_words(self):
        # adem_relations builds each lhs unchecked from _relation_words.
        for p, M in ((2, smash_power(moore_module(2), 4)), (3, hypothetical_Cb_module()),
                     (5, dense_random_module(5, random.Random(5), 17))):
            _, relations = adem_relations(M, 40)
            assert relations
            for _, lhs, rhs in relations:
                (mono,) = lhs.terms
                assert lhs == SteenrodElement.from_word(p, mono.word)
                assert rhs == adem_normalize(lhs)

    def test_p3_cubed_relation_parses_to_equal_normal_forms(self):
        # The identity of the paper: (P^3)^3 = (P^7 P^1 - P^8) P^1 at p = 3.
        lhs = el("P^3 P^3 P^3", 3)
        rhs = el("P^7 P^1 P^1 - P^8 P^1", 3)
        assert adem_normalize(lhs) == adem_normalize(rhs)

    def test_cb_module_violates_three_relations_at_degree_zero(self):
        violations = consistency_check(hypothetical_Cb_module(), 40)
        assert [(str(v.lhs), v.source_degree, v.operation_degree)
                for v in violations] == [("P^3 P^6", 0, 36), ("P^6 P^3", 0, 36),
                                         ("P^3 P^3 P^3", 0, 36)]
        for v in violations:
            assert v.rhs == adem_normalize(v.lhs)
        assert str(violations[-1].rhs) == "2 P^8 P^1 + 2 P^7 P^2"


class TestCbModule:
    def test_shape(self):
        cb = hypothetical_Cb_module()
        assert cb.prime == 3
        assert cb.total_dim == 7
        assert sorted(cb.degrees) == [0, 1, 12, 13, 24, 25, 36]

    def test_bocksteins_link_cells(self):
        cb = hypothetical_Cb_module()
        for d in (0, 12, 24):
            assert cb.action(BOCKSTEIN, d).tolist() == [[1]]

    def test_p3_steps(self):
        cb = hypothetical_Cb_module()
        for d in (0, 12, 24):
            assert cb.action(P(3), d).tolist() == [[1]]

    def test_equals_the_validating_constructor(self):
        # The actions of the docstring, through the checking constructor.
        one, two = np.array([[1]]), np.array([[2]])
        dims = {d: 1 for d in (0, 1, 12, 13, 24, 25, 36)}
        actions = {(BOCKSTEIN, d): one for d in (0, 12, 24)}
        actions.update({(P(3), d): one for d in (0, 1, 12, 13, 24)})
        actions.update({(P(6), d): two for d in (0, 1, 12)})
        want = FiniteModule(3, dims, actions, labels={d: [f"c{d}"] for d in dims})
        cb = hypothetical_Cb_module()
        assert cb == want
        assert cb.labels == want.labels
        assert cb.actions.keys() == want.actions.keys()
        assert not cb.total.flags.writeable

    def test_p1_acts_as_zero(self):
        cb = hypothetical_Cb_module()
        for d in cb.degrees:
            assert not np.any(act_element(cb, el("P^1", 3), d))


class TestDecomposability:
    @pytest.fixture(autouse=True)
    def cross_check(self, monkeypatch):
        """Every verdict of is_decomposable in these tests must equal the
        reference search's certified verdict, and every Fitting split it
        makes must agree with the n-product projection e and the per-degree
        summands: the image summand equals the reference's image of e, and
        the kernel summand's basis spans the image of 1 - e, with its
        restriction conjugate to the reference's by that change of basis."""
        calls = {"split": 0, "summands": 0, "other_kernel_basis": 0}
        decide, split = is_decomposable, modules._fitting_split

        def checked_decision(M):
            got = decide(M)
            assert reference_is_decomposable(M) == (bool(got), True)
            return got

        def checked_split(M, psi):
            p, n = M.prime, M.total_dim
            got, e = split(M, psi), reference_fitting_idempotent(psi, p)
            assert (got is None) == (e is None)
            if got is None:
                return got
            calls["split"] += 1
            calls["summands"] += len(got)
            image, kernel = got
            assert image == reference_submodule(M, e)
            complement = (fp.identity(n) - e) % p
            want = reference_submodule(M, complement)
            assert kernel.dims == want.dims
            calls["other_kernel_basis"] += kernel != want
            # The reference's basis of the image of 1 - e, degree by degree.
            reference = fp.zeros(n, 0)
            for d, row in M.offsets.items():
                block = column_space(M.block(complement, d, d), p)
                columns = fp.zeros(n, block.shape[1])
                columns[row:row + M.dims[d]] = block
                reference = np.hstack([reference, columns])
            _, (kernel_basis, _) = fitting_bases(M, psi)
            change = fp.solve(reference, kernel_basis, p)
            assert change is not None and fp.rank(change, p) == kernel.total_dim
            for g in {*kernel.matrices, *want.matrices}:
                ours = kernel.matrices.get(g, fp.zeros(kernel.total_dim, kernel.total_dim))
                theirs = want.matrices.get(g, fp.zeros(want.total_dim, want.total_dim))
                assert np.array_equal(fp.matmul(theirs, change, p), fp.matmul(change, ours, p))
            return got

        monkeypatch.setitem(globals(), "is_decomposable", checked_decision)
        monkeypatch.setattr(modules, "_fitting_split", checked_split)
        return calls

    def test_sphere_indecomposable(self):
        r = is_decomposable(sphere_module(2, 0))
        assert not r and r.certified

    def test_moore_indecomposable(self):
        r = is_decomposable(moore_module(2))
        assert not r and r.certified

    def test_smash_square_indecomposable(self):
        r = is_decomposable(tensor(moore_module(2), moore_module(2)))
        assert not r and r.certified

    def test_direct_sum_decomposable(self, cross_check):
        r = is_decomposable(direct_sum(moore_module(2), shift(moore_module(2), 1)))
        assert r
        assert cross_check["summands"] == 2
        assert len(r.summands) == 2
        assert sum(s.total_dim for s in r.summands) == 4

    def test_random_sums_decomposable(self):
        rng = random.Random(11)
        pieces = [
            moore_module(2),
            sphere_module(2, 0),
            shift(moore_module(2), 2),
            tensor(moore_module(2), moore_module(2)),
        ]
        for _ in range(8):
            a, b = rng.choice(pieces), rng.choice(pieces)
            assert is_decomposable(direct_sum(a, shift(b, 5)))

    def test_odd_prime_sum(self):
        assert is_decomposable(direct_sum(moore_module(3), shift(moore_module(3), 4)))

    def test_fitting_projection_waits_for_the_stable_image(self, cross_check):
        # A nilpotent Jordan block of size n - 1 beside a 1 x 1 identity:
        # the image of psi^m shrinks until m = n - 1.
        for p in (2, 3):
            for n in range(2, 9):
                psi = fp.identity(n)
                psi[:n - 1, :n - 1] = np.eye(n - 1, n - 1, -1, dtype=np.int64)
                image, kernel = modules._fitting_split(FiniteModule(p, {0: n}, {}), psi)
                assert image.dims == {0: 1} and kernel.dims == {0: n - 1}
        assert cross_check["split"] == 14

    @pytest.mark.parametrize("name,build,dims", [
        ("6 S/2", lambda: sum_of(*[moore_module(2)] * 6), (2, 10)),
        ("6 S/3", lambda: sum_of(*[moore_module(3)] * 6), (2, 10)),
        ("cube + square of S/3", lambda: direct_sum(
            smash_power(moore_module(3), 3), smash_power(moore_module(3), 2)),
         (2, 10)),
        ("4 S/3", lambda: sum_of(*[moore_module(3)] * 4), (2, 6)),
    ])
    def test_fitting_path_summands(self, name, build, dims, cross_check):
        from torsionlab.modules import _endomorphism_basis

        M = build()
        # End(M) is too large for the reference's exhaustive search.
        assert M.prime ** len(_endomorphism_basis(M)) > 1 << 16
        r = is_decomposable(M)
        assert r and r.certified
        assert tuple(s.total_dim for s in r.summands) == dims
        assert direct_sum(*r.summands).dims == M.dims
        assert cross_check["split"] == 1 and cross_check["summands"] == 2

    @pytest.mark.parametrize("p,dims,actions", [
        (3, {0: 2, 1: 1, 3: 1, 4: 2},
         {(P(1), 0): [[0, 2], [2, 1]], (BOCKSTEIN, 0): [[2, 0]],
          (BOCKSTEIN, 3): [[1], [1]]}),
        # Restricted from F_4, and Galois-stable: two copies of one module.
        (2, {1: 2, 2: 2, 3: 4},
         {(Sq(1), 1): [[1, 1], [1, 0]], (Sq(2), 1): [[0, 1], [1, 1], [0, 1], [1, 1]],
          (Sq(1), 2): [[0, 1], [1, 1], [1, 0], [0, 1]]}),
    ])
    def test_splitting_beyond_the_basis(self, p, dims, actions):
        M = FiniteModule(p, dims, {k: np.array(v) for k, v in actions.items()})
        basis = modules._endomorphism_basis(M)
        # Every basis element of End(M) is nilpotent or invertible.
        assert all(modules._fitting_split(M, b) is None for b in basis)
        assert not modules._is_local(basis, M.dims, p)
        r = is_decomposable(M)
        assert r and direct_sum(*r.summands).dims == M.dims

    def test_combinations_cover_the_algebra_up_to_a_scalar(self):
        for p, k in ((2, 4), (3, 3), (5, 2)):
            basis = np.eye(k, dtype=np.int64).reshape(k, k, 1)
            seen = [tuple(c.ravel()) for c in modules._combinations(basis, p)]
            supports = [sum(map(bool, c)) for c in seen]
            assert supports == sorted(supports)
            assert all(c[next(i for i, x in enumerate(c) if x)] == 1 for c in seen)
            assert len(set(seen)) == len(seen)
            # With the basis: one representative of every line of F_p^k.
            assert len(seen) + k == (p ** k - 1) // (p - 1)

    def test_combinations_match_the_tensordot_reference(self):
        # The End bases of the modules decided in this class.
        cases = [
            FiniteModule(3, {0: 2, 1: 1, 3: 1, 4: 2},
                         {(P(1), 0): np.array([[0, 2], [2, 1]]),
                          (BOCKSTEIN, 0): np.array([[2, 0]]),
                          (BOCKSTEIN, 3): np.array([[1], [1]])}),
            smash_power(moore_module(2), 3),
        ]
        for p in (2, 3, 5):
            m = moore_module(p)
            cases += [tensor(m, m), direct_sum(m, shift(m, 1)), direct_sum(m, shift(m, 4))]
        for M in cases:
            basis = modules._endomorphism_basis(M)
            got = list(modules._combinations(basis, M.prime))
            want = list(reference_combinations(basis, M.prime))
            # One representative of every line of span(basis) off the basis.
            lines = (M.prime ** len(basis) - 1) // (M.prime - 1)
            assert len(got) == len(want) == lines - len(basis)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)

    def test_fitting_split_matches_reference_on_random_matrices(self, cross_check):
        # Any matrix is an endomorphism of n cells in one degree.
        rng = np.random.default_rng(19)
        for p in (2, 3, 5):
            for n in range(1, 13):
                M = FiniteModule(p, {0: n}, {})
                for _ in range(4):
                    psi = rng.integers(0, p, size=(n, n), dtype=np.int64)
                    # Half of them singular, so that both parts are nonzero.
                    if n > 1 and rng.integers(2):
                        psi[:, -1] = psi[:, :-1] @ rng.integers(0, p, size=n - 1) % p
                    modules._fitting_split(M, psi)
        assert cross_check["split"] > 20

    def test_fitting_by_squaring_matches_the_n_fold_power_on_endomorphisms(self, cross_check):
        # psi^(2^k), 2^k >= n, against psi^n by n products, on End(M) of
        # seeded modules: its basis and random combinations of it.
        rng = random.Random(41)
        for M in seeded_modules(lambda r: random_graded_module(r.choice((2, 3)), r),
                                43, 40, max_end=1 << 20):
            p = M.prime
            basis = modules._endomorphism_basis(M)
            combos = [np.tensordot([rng.randrange(p) for _ in basis], basis, axes=1) % p
                      for _ in range(4)]
            for psi in [*basis, *combos]:
                modules._fitting_split(M, psi)
        assert cross_check["split"] > 20
        # The kernel summand keeps the nullspace basis of psi^n, not the
        # reference's, so the conjugacy check is what holds it.
        assert cross_check["other_kernel_basis"] > 0

    def test_submodule_refuses_an_image_that_is_not_a_submodule(self):
        # The bottom cell of S/2 is not closed under Sq^1.
        e = np.array([[1, 0], [0, 0]], dtype=np.int64)
        with pytest.raises(ModuleError, match="not a submodule"):
            modules._fitting_split(moore_module(2), e)


def by_eigenvalues(basis, p):
    """A wrong locality test: every basis element is a scalar plus a
    nilpotent.  It misses residue fields larger than F_p."""
    n = basis.shape[1]
    ident = fp.identity(n)
    for b in basis:
        for lam in range(p):
            z = (b - lam * ident) % p
            for _ in range((n - 1).bit_length()):
                z = fp.matmul(z, z, p)
            if not z.any():
                break
        else:
            return False
    return True


def by_commutativity(basis, dims, p):
    """A wrong locality test: A/J(A) is commutative.  It misses products
    of fields."""
    radical = modules._radical(modules._degree_blocks(basis, dims), p)
    flat = basis.reshape(len(basis), -1)
    commutators = (basis[:, None] @ basis[None] - basis[None] @ basis[:, None]) % p
    ideal = fp.matmul(radical, flat, p)
    return (fp.rank(np.vstack([ideal, commutators.reshape(-1, flat.shape[1])]), p)
            == fp.rank(ideal, p))


def reference_is_local(basis, dims, p):
    """`_is_local` on every degree block of M, with dim M in the radical's
    level count: the all-block reference of the faithful-run decision."""
    blocks = modules._degree_blocks(basis, dims)
    radical = modules._radical(blocks, p)
    pivots = fp.rref(radical, p)[1]
    others = [j for j in range(len(basis)) if j not in pivots]

    def flat(stacks):
        return np.hstack([s.reshape(-1, s.shape[-1] ** 2) for s in stacks]) % p

    ideal = np.hstack([radical @ b.reshape(len(b), -1) for b in blocks]) % p
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


class TestExactDecision:
    """is_decomposable against the reference search, the radical against
    brute force, and the cost of both on the largest smash powers."""

    def test_refuses_modules_above_the_bound(self):
        M = FiniteModule(2, {d: 1 for d in range(modules.DECOMPOSE_BOUND + 1)}, {})
        with pytest.raises(ModuleError, match="total dimension 33 exceeds bound 32"):
            is_decomposable(M)

    @pytest.mark.parametrize("p,seed", [(2, 101), (3, 103)])
    def test_matches_reference_on_random_graded_modules(self, p, seed):
        verdicts = []
        for M in seeded_modules(lambda rng: random_graded_module(p, rng), seed, 150):
            want, certified = reference_is_decomposable(M, bound=32)
            assert certified
            assert bool(is_decomposable(M)) == want
            verdicts.append(want)
        assert verdicts.count(False) >= 3 and verdicts.count(True) >= 100

    def test_matches_reference_on_restricted_f4_modules(self):
        randoms = seeded_modules(restricted_f4_module, 107, 150)
        local = [M for M in randoms if not reference_is_decomposable(M, bound=32)[0]]
        # Apart in degree, so that A/J(A) is the product of the two fields.
        sums = [direct_sum(a, shift(b, 4)) for a, b in zip(local, local[1:])]
        verdicts, eigen_wrong, commutative_wrong, residue_f4 = [], 0, 0, 0
        for M in randoms + sums:
            want, certified = reference_is_decomposable(M, bound=32)
            assert certified
            assert bool(is_decomposable(M)) == want
            verdicts.append(want)
            basis = modules._endomorphism_basis(M)
            radical = modules._radical(modules._degree_blocks(basis, M.dims), 2)
            residue_f4 += (not want) and len(basis) - len(radical) == 2
            eigen_wrong += by_eigenvalues(basis, 2) == want
            commutative_wrong += by_commutativity(basis, M.dims, 2) == want
        assert verdicts.count(False) >= 3 and verdicts.count(True) >= 100
        # Local with residue field F_4, which F_2 eigenvalues alone call
        # split; and split with A/J commutative, which commutativity alone
        # calls local.
        assert residue_f4 >= 3 and eigen_wrong >= 3 and commutative_wrong >= 3

    def test_radical_matches_brute_force(self):
        cases = (seeded_modules(lambda rng: random_graded_module(2, rng), 109, 25, 1 << 10)
                 + seeded_modules(lambda rng: random_graded_module(3, rng), 113, 15, 1 << 10)
                 + seeded_modules(restricted_f4_module, 127, 20, 1 << 10))
        sizes = set()
        for M in cases:
            basis = modules._endomorphism_basis(M)
            radical = modules._radical(modules._degree_blocks(basis, M.dims), M.prime)
            assert span_of(radical, M.prime) == brute_force_radical(basis, M.prime)
            sizes.add((len(basis), len(radical)))
        assert max(k for k, _ in sizes) == 10 and len(sizes) > 15

    @pytest.mark.parametrize("p,k", [(2, 4), (2, 5), (3, 4), (3, 5)])
    def test_smash_powers_decided_at_the_default_bound(self, p, k):
        M = smash_power(moore_module(p), k)
        start = time.perf_counter()
        r = is_decomposable(M)
        assert time.perf_counter() - start < 1
        assert r and direct_sum(*r.summands).dims == M.dims

    @pytest.mark.parametrize("p,dim_end", [(2, 42), (3, 126)])
    def test_locality_of_the_fifth_smash_power(self, p, dim_end):
        M = smash_power(moore_module(p), 5)
        basis = modules._endomorphism_basis(M)
        assert len(basis) == dim_end
        start = time.perf_counter()
        assert not modules._is_local(basis, M.dims, p)
        assert time.perf_counter() - start < 2

    def test_endomorphisms_of_the_sixth_smash_power(self):
        # dim End((S/2)^k) is the Catalan number C_k: 132 at k = 6.
        M = smash_power(moore_module(2), 6)
        basis = modules._endomorphism_basis(M)
        assert len(basis) == 132
        assert np.array_equal(fp.matmul(basis, M.total, 2), fp.matmul(M.total, basis, 2))


def beta_squared_module(p):
    """Cells 1, 4, 1 in degrees 0, 1, 2 with every entry of the Bockstein
    p - 1, so that b b acts on the bottom cell by 4 (p - 1)^2 = 4 mod p."""
    return FiniteModule(p, {0: 1, 1: 4, 2: 1}, {(BOCKSTEIN, 0): [[p - 1]] * 4,
                                                 (BOCKSTEIN, 1): [[p - 1] * 4]})


class TestLargePrimes:
    """A product is exact in float64 while inner (p - 1)^2 < 2^53, and is
    refused above that, where int64 would wrap silently."""

    def test_beta_squared_is_seen_below_the_bound(self):
        violations = consistency_check(beta_squared_module(1_000_003), 2)
        assert [(str(v.lhs), str(v.rhs), v.source_degree) for v in violations] == [
            ("b b", "0", 0)]

    def test_beta_squared_is_refused_above_the_bound(self):
        with pytest.raises(ValueError, match="mod 2147483647 .* not exact in float64"):
            consistency_check(beta_squared_module(2_147_483_647), 2)

    def test_moore_module_at_a_large_prime_takes_log_p_products(self):
        # The Frobenius step raises to the p-th power by repeated squaring.
        start = time.perf_counter()
        assert not is_decomposable(moore_module(1_000_003))
        assert time.perf_counter() - start < 0.2


class TestFaithfulBlocks:
    """`_is_local` decides on the shortest run of degree blocks, widest
    first, on which End(M)'s basis stays independent; the radical and the
    verdict must equal those on every block."""

    @pytest.fixture
    def received(self, monkeypatch):
        """The blocks each `_radical` call of `_is_local` receives, and the
        radical it returns."""
        calls = []
        radical = modules._radical

        def recorded(blocks, p):
            calls.append((blocks, radical(blocks, p)))
            return calls[-1][1]

        monkeypatch.setattr(modules, "_radical", recorded)
        return calls

    @staticmethod
    def decide(M, received):
        """_is_local on M, checked against the all-block reference; returns
        the verdict, the basis, the blocks `_radical` received, the radical
        it returned, and the radical on every block."""
        p = M.prime
        basis = modules._endomorphism_basis(M)
        del received[:]
        local = modules._is_local(basis, M.dims, p)
        (blocks, got), = received
        want = modules._radical(modules._degree_blocks(basis, M.dims), p)
        assert local == reference_is_local(basis, M.dims, p)
        return local, basis, blocks, got, want

    @pytest.mark.parametrize("p,k", [(2, k) for k in range(1, 6)]
                             + [(3, k) for k in range(1, 5)]
                             + [(5, k) for k in range(1, 4)])
    def test_smash_powers_match_all_blocks(self, p, k, received):
        M = smash_power(moore_module(p), k)
        local, _, blocks, got, want = self.decide(M, received)
        assert local == (k == 1 or (p, k) == (2, 2))
        # Equal reduced row echelon forms: the same span, too large to list.
        assert np.array_equal(fp.rref(got, p)[0], fp.rref(want, p)[0])
        assert sum(b.shape[1] for b in blocks) < M.total_dim

    @pytest.mark.parametrize("lo,hi", [(5, 8), (1, 24), (1, 32)])
    def test_stunted_projective_spaces_match_all_blocks(self, lo, hi, received):
        M = stunted_projective_module(lo, hi)
        local, _, blocks, got, want = self.decide(M, received)
        assert local and not is_decomposable(M)
        assert span_of(got, 2) == span_of(want, 2)
        assert len(blocks) < len(M.dims)

    @pytest.mark.parametrize("build,seed", [
        (lambda rng: random_graded_module(2, rng), 101),
        (lambda rng: random_graded_module(3, rng), 103),
        (restricted_f4_module, 107),
    ], ids=["p2", "p3", "f4"])
    def test_random_modules_match_all_blocks(self, build, seed, received):
        verdicts = []
        for M in seeded_modules(build, seed, 150):
            p = M.prime
            local, basis, blocks, got, want = self.decide(M, received)
            assert span_of(got, p) == span_of(want, p)
            verdicts.append(local)
            # The run keeps the basis at rank k, and is the shortest run
            # of blocks, widest first, that does.
            k = len(basis)
            widths = [b.shape[1] for b in blocks]
            assert widths == sorted(M.dims.values(), reverse=True)[:len(blocks)]
            assert fp.rank(np.hstack([b.reshape(k, -1) for b in blocks]), p) == k
            assert fp.rank(np.hstack([b.reshape(k, -1) for b in blocks[:-1]]
                                     + [fp.zeros(k, 0)]), p) < k
        assert verdicts.count(True) >= 3 and verdicts.count(False) >= 30

    def test_smash_square_of_s2_is_decided_on_one_2x2_block(self, received):
        M = tensor(moore_module(2), moore_module(2))
        local, basis, blocks, _, _ = self.decide(M, received)
        assert local
        assert [b.shape for b in blocks] == [(len(basis), 2, 2)]


def run_python(code, **env_vars):
    """Run code in a fresh interpreter that imports torsionlab from src/;
    return its stdout."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestSummedGenerators:
    """End(M), the Fitting summands and the generator cut, all read off the
    sum of a module's generator matrices, against their per-generator
    references."""

    @staticmethod
    def modules_to_check():
        rng = random.Random(71)
        out = [hypothetical_Cb_module(),
               FiniteModule(3, {0: 3}, {}), smash_power(moore_module(2), 4),
               direct_sum(smash_power(moore_module(3), 2), shift(moore_module(3), 4))]
        for p in (2, 3, 5):
            for _ in range(12):
                out += [random_module(p, rng), random_graded_module(p, rng),
                        dense_random_module(p, rng, {2: 4, 3: 5, 5: 9}[p])]
        return out

    def test_endomorphism_basis_matches_the_kronecker_reference(self):
        # Random actions rarely satisfy the Adem relations; End(M) does not
        # need them.
        checked = {2: 0, 3: 0, 5: 0}
        for M in self.modules_to_check():
            got, want = modules._endomorphism_basis(M), reference_endomorphism_basis(M)
            assert got.shape == want.shape and np.array_equal(got, want)
            checked[M.prime] += 1
        assert min(checked.values()) >= 36

    def test_fitting_summands_match_the_per_generator_reference(self, monkeypatch):
        split, compared = modules._fitting_split, []

        def checked_split(M, psi):
            got = split(M, psi)
            if got is not None:
                for summand, (basis, left) in zip(got, fitting_bases(M, psi)):
                    want = reference_restrict(M, basis, left)
                    assert list(summand.dims.items()) == list(want.dims.items())
                    assert list(summand.matrices) == list(want.matrices)
                    assert all(np.array_equal(summand.matrices[g], want.matrices[g])
                               for g in summand.matrices)
                    compared.append(summand)
            return got

        monkeypatch.setattr(modules, "_fitting_split", checked_split)
        rng = random.Random(73)
        for M in self.modules_to_check():
            if M.total_dim > modules.DECOMPOSE_BOUND:
                continue
            p, basis = M.prime, modules._endomorphism_basis(M)
            combos = [np.tensordot([rng.randrange(p) for _ in basis], basis, axes=1) % p
                      for _ in range(3)]
            for psi in [*basis, *combos]:
                modules._fitting_split(M, psi)
            is_decomposable(M)
        assert len(compared) > 200

    def test_restrict_refuses_what_the_reference_refuses(self):
        # The bottom cell of S/2, and of Cb, is not closed under the Bockstein.
        for M in (moore_module(2), hypothetical_Cb_module()):
            e = fp.zeros(M.total_dim, M.total_dim)
            e[0, 0] = 1
            with pytest.raises(ModuleError, match="not a submodule"):
                modules._fitting_split(M, e)
            with pytest.raises(ModuleError, match="not a submodule"):
                reference_restrict(M, e[:, :1], e[:1])

    def test_split_refuses_a_kernel_that_is_not_a_submodule(self):
        # Projecting S/2 onto its top cell: the image is a submodule, but
        # the kernel, the bottom cell, is not closed under Sq^1.
        M = moore_module(2)
        e = np.array([[0, 0], [0, 1]], dtype=np.int64)
        with pytest.raises(ModuleError, match="not a submodule"):
            modules._fitting_split(M, e)
        (image, image_left), (kernel, kernel_left) = fitting_bases(M, e)
        assert reference_restrict(M, image, image_left).dims == {1: 1}
        with pytest.raises(ModuleError, match="not a submodule"):
            reference_restrict(M, kernel, kernel_left)

    def test_a_split_takes_one_product_and_one_solve(self, monkeypatch):
        # Both summands are read off one change of basis: T B, then
        # B^-1 (T B).  Calls inside fp.power are not counted.
        M = sum_of(*[moore_module(2)] * 6)
        psi = next(b for b in modules._endomorphism_basis(M)
                   if modules._fitting_split(M, b) is not None)
        calls = collections.Counter()

        class Counting:
            def __getattr__(self, name):
                real = getattr(fp, name)
                if name not in ("matmul", "solve"):
                    return real

                def counted(*args):
                    calls[name] += 1
                    return real(*args)
                return counted

        monkeypatch.setattr(modules, "fp", Counting())
        assert modules._fitting_split(M, psi) is not None
        assert calls == {"matmul": 1, "solve": 1}

    def test_cut_reads_each_generator_off_its_difference(self):
        # Cb's cells are one-dimensional, so its (target, source) pairs of
        # degrees name the entries of each generator's matrix.
        M = hypothetical_Cb_module()
        got = FiniteModule._whole(3, M.dims, M.total).matrices
        index = {d: i for i, d in enumerate(M.degrees)}
        pairs = {P(3): [(12, 0), (24, 12), (36, 24), (13, 1), (25, 13)],
                 P(6): [(24, 0), (36, 12), (25, 1)],
                 BOCKSTEIN: [(1, 0), (13, 12), (25, 24)]}
        assert list(got) == [P(3), P(6), BOCKSTEIN]
        for g, value in ((P(3), 1), (P(6), 2), (BOCKSTEIN, 1)):
            want = fp.zeros(7, 7)
            for t, s in pairs[g]:
                want[index[t], index[s]] = value
            assert np.array_equal(got[g], want), g

    @pytest.mark.parametrize("p,degrees,message", [
        (3, [0, 2], "degree difference 2, which no generator has at p=3"),
        (5, [0, 4], "degree difference 4, which no generator has at p=5"),
        (2, [1, 1], "degree difference 0, which no generator has at p=2"),
        (2, [3, 1], "degree difference -2, which no generator has at p=2"),
    ])
    def test_cut_refuses_an_entry_at_a_difference_of_no_generator(self, p, degrees, message):
        # One entry, from a basis vector of degree source to one of target.
        source, target = degrees
        total = fp.zeros(2, 2)
        total[int(target >= source), int(target < source)] = 1
        M = FiniteModule._whole(p, dict(collections.Counter(sorted(degrees))), total)
        with pytest.raises(ModuleError, match=message):
            M.matrices


def test_cold_start_does_not_import_numpy_ma():
    # numpy.ma costs about 8 ms to import; np.unique, for one, pulls it in.
    run_python(
        "import sys\n"
        "import torsionlab as tl\n"
        "m = tl.moore_module(2)\n"
        "square = tl.tensor(m, m)\n"
        "tl.consistency_check(square, 10)\n"
        "tl.is_decomposable(square)\n"
        "six = m\n"
        "for _ in range(5):\n"
        "    six = tl.direct_sum(six, m)\n"
        "tl.is_decomposable(six)\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
    )


def test_direct_sum_order_does_not_depend_on_hash_seed():
    # Generator kinds are strings, whose hashes change with PYTHONHASHSEED.
    code = (
        "import torsionlab as tl\n"
        "M = tl.direct_sum(tl.hypothetical_Cb_module(), tl.moore_module(3))\n"
        "print(list(M.actions))\n"
    )
    orders = {run_python(code, PYTHONHASHSEED=seed) for seed in ("1", "2", "3")}
    assert len(orders) == 1


class TestSerialization:
    @pytest.mark.parametrize("data,message", [
        ({"dims": {"0": 1}}, "module has no 'prime'"),
        ({"prime": 3}, "module has no 'dims'"),
        ("P^1", 'module is "P^1", not a JSON object'),
        ({"prime": 3, "dims": {"0": 1, "1": 1}, "actions": [
            {"generator": "b", "source_degree": 0, "matrix": [[1]]},
            {"generator": "b", "matrix": [[1]]}]}, "action 1 has no 'source_degree'"),
        ({"prime": 3, "dims": {"0": 1}, "actions": ["b"]}, 'action 0 is "b", not a JSON object'),
    ], ids=["no-prime", "no-dims", "not-an-object", "no-source-degree", "action-not-an-object"])
    def test_missing_keys_are_module_errors(self, data, message):
        with pytest.raises(ModuleError, match=f"^{re.escape(message)}$"):
            modules.module_from_dict(data)

    def test_roundtrip(self, tmp_path):
        from torsionlab import save_module

        for m in (moore_module(2), hypothetical_Cb_module(),
                  tensor(moore_module(3), moore_module(3))):
            path = tmp_path / "m.json"
            save_module(m, str(path))
            assert load_module(str(path)) == m

    def test_labelled_tensor_round_trips(self, tmp_path):
        from torsionlab import save_module

        square = tensor(moore_module(2), moore_module(2))
        path = tmp_path / "square.json"
        save_module(square, str(path))
        again = load_module(str(path))
        assert again == square
        assert again.labels == square.labels == {
            0: ["e0*e0"], 1: ["e0*e1", "e1*e0"], 2: ["e1*e1"]}
