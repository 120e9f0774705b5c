"""The Z/4 exotic triangulated category: elementary triangles, the
enumerated distinguished class, axiom checks, and the 2-order certificate."""

import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from torsionlab import fpmatrix as fp
from torsionlab import exotic
from torsionlab import (
    Z4Morphism,
    Z4Triangle,
    check_TR1_cone,
    distinguished_representatives,
    elementary_triangles,
    in_distinguished_class,
    two_order_zero_certificate,
    two_triangle,
    verify_axioms,
)
from torsionlab.exotic import (
    _BATCH_MATRICES,
    _all_matrices,
    _composites_vanish,
    _decide,
    _decide_batch,
    _join,
    _key_width,
    _layout,
    _match,
    _members,
    _padded,
    _product_keys,
    _product_tables,
    _stack_codes,
    contractible_triangle,
    general_linear,
    identity_morphism,
    is_isomorphic,
    zero_morphism,
    zero_triangle,
)


def tr3_verdicts(triangles):
    """TR3 for every ordered pair of triangles, from the batched join."""
    return _decide(_join(triangles, [], True))[0]


def _encode(stack):
    """One integer key per matrix of a stack: its entries mod 4 as base-4
    digits, the first entry lowest."""
    flat = stack.reshape(len(stack), -1) % 4
    return flat @ 4 ** np.arange(flat.shape[1], dtype=np.int64)


def check_TR3_fill(t1, t2, a, b):
    """A fill-in c for a commuting pair (a, b) between two triangles:
    requires b f1 = f2 a, finds c with c g1 = g2 b and h2 c = a h1, or
    returns None after exhausting all candidates."""
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


def tr3_by_brute_force(t1, t2):
    """Reference for the TR3 joins: check_TR3_fill on every commuting
    (a, b), one matrix at a time."""
    for a_mat in _all_matrices(t2.f.source, t1.f.source):
        a = Z4Morphism.from_matrix(a_mat, t1.f.source, t2.f.source)
        f2a = (t2.f.matrix @ a.matrix) % 4
        for b_mat in _all_matrices(t2.f.target, t1.f.target):
            if np.array_equal((b_mat @ t1.f.matrix) % 4, f2a):
                b = Z4Morphism.from_matrix(b_mat, t1.f.target, t2.f.target)
                if check_TR3_fill(t1, t2, a, b) is None:
                    return False
    return True


def isomorphic_by_brute_force(t1, t2):
    """Reference for is_isomorphic: tries every invertible (u, v, w)."""
    if t1.ranks != t2.ranks:
        return False
    f1, g1, h1 = t1.f.matrix, t1.g.matrix, t1.h.matrix
    f2, g2, h2 = t2.f.matrix, t2.g.matrix, t2.h.matrix
    return any(
        np.array_equal((v @ f1) % 4, (f2 @ u) % 4)
        and np.array_equal((w @ g1) % 4, (g2 @ v) % 4)
        and np.array_equal((u @ h1) % 4, (h2 @ w) % 4)
        for u, v, w in itertools.product(*(general_linear(r) for r in t1.ranks))
    )


def distinct_pairs(first, second):
    """The distinct key pairs (_encode(first[i]), _encode(second[i])), as
    two aligned arrays sorted by the first key."""
    width = 4 ** second[0].size
    return np.divmod(np.unique(_encode(first) * width + _encode(second)), width)


def joined_keys(left, right, width):
    """For key pairs left = (k, l) and right = (k, r), right sorted by k:
    the key l * width + r of every left and right row that agree on k."""
    i, j = _match(left[0], right[0])
    return left[1][i] * width + right[1][j]


def tr3_by_pair_join(t1, t2):
    """Reference for the batched TR3 join: the same join on one pair.  The
    distinct (b f1, g2 b) and (f2 a, a h1) are joined on b f1 = f2 a, and
    each joined (g2 b, a h1) must be the key (c g1, h2 c) of some c."""
    f1, g1, h1 = t1.f.matrix, t1.g.matrix, t1.h.matrix
    f2, g2, h2 = t2.f.matrix, t2.g.matrix, t2.h.matrix
    a_stack = _all_matrices(t2.f.source, t1.f.source)
    b_stack = _all_matrices(t2.f.target, t1.f.target)
    c_stack = _all_matrices(t2.g.target, t1.g.target)
    b_keys = distinct_pairs(b_stack @ f1, g2 @ b_stack)
    a_keys = distinct_pairs(f2 @ a_stack, a_stack @ h1)
    width = 4 ** (t2.f.source * t1.g.target)
    fills = _encode(c_stack @ g1) * width + _encode(h2 @ c_stack)
    needed = joined_keys(b_keys, a_keys, width)
    return len(_match(needed, np.unique(fills))[0]) == len(needed)


def isomorphic_by_pair_join(t1, t2):
    """Reference for the batched isomorphism join: the same join on one
    pair, over GL stacks of u, v and w."""
    if t1.ranks != t2.ranks:
        return False
    rx, _, rz = t1.ranks
    f1, g1, h1 = t1.f.matrix, t1.g.matrix, t1.h.matrix
    f2, g2, h2 = t2.f.matrix, t2.g.matrix, t2.h.matrix
    gl_x, gl_y, gl_z = (general_linear(r) for r in t1.ranks)
    v_keys = distinct_pairs(gl_y @ f1, g2 @ gl_y)
    u_keys = distinct_pairs(f2 @ gl_x, gl_x @ h1)
    width = 4 ** (rx * rz)
    w_keys = _encode(gl_z @ g1) * width + _encode(h2 @ gl_z)
    joined = joined_keys(v_keys, u_keys, width)
    return len(_match(joined, np.unique(w_keys))[0]) > 0


def padded_encode(stack, rank):
    """_encode of each matrix of a stack set in the top left corner of a
    (rank x rank) zero matrix: the key layout of the joins."""
    out = np.zeros((len(stack), rank, rank), dtype=np.int64)
    out[:, :stack.shape[1], :stack.shape[2]] = stack
    return _encode(out)


def invertible_stack(rows, cols):
    return general_linear(rows)


def pair_verdicts_by_stacks(sources, targets, pairs, stack, every):
    """Reference for exotic._decide: the per-pair join it replaced.
    Each variable's keys are taken from whole-stack products, stack(rows,
    cols) @ m and m @ stack(rows, cols), encoded by _encode and cached per
    source triangle (pairs come grouped by source) and per target; the
    batches are decided by the same _decide_batch."""
    width, _ = _key_width(max(max(t.ranks) for t in [*sources, *targets]), len(pairs))
    verdicts = np.zeros(len(pairs), dtype=bool)
    before, after = {}, {}
    source = None
    high, low, counts = ([[], [], []] for _ in range(3))
    start, held = 0, 0
    for n, (i, j) in enumerate(pairs):
        if i != source:
            after.clear()
            source = i
        t1, t2 = sources[i], targets[j]
        # b with (f1, g2), a with (h1, f2), c with (g1, h2), each over
        # stack(m2.source, m1.target).
        for var, m1, m2 in ((0, t1.f, t2.g), (1, t1.h, t2.f), (2, t1.g, t2.h)):
            x = after.get((var, m2.source))
            if x is None:
                x = after[var, m2.source] = _encode(
                    stack(m2.source, m1.target) @ m1.matrix)
            y = before.get((j, var, m1.target))
            if y is None:
                y = before[j, var, m1.target] = _encode(
                    m2.matrix @ stack(m2.source, m1.target))
            k1, k2 = (y, x) if var == 1 else (x, y)
            high[var].append(k1)
            low[var].append(k2)
            counts[var].append(len(x))
            held += len(x)
        if held < _BATCH_MATRICES and n + 1 < len(pairs):
            continue
        keys = [
            (np.repeat(np.arange(n + 1 - start) * width, counts[var])
             + np.concatenate(high[var])) * width + np.concatenate(low[var])
            for var in range(3)
        ]
        verdicts[start:n + 1] = _decide_batch(*keys, n + 1 - start, width, every)
        high, low, counts = ([[], [], []] for _ in range(3))
        start, held = n + 1, 0
    return verdicts


def tr3_by_stacks(triangles):
    n = len(triangles)
    pairs = list(itertools.product(range(n), repeat=2))
    return pair_verdicts_by_stacks(triangles, triangles, pairs, _all_matrices,
                                   every=True).reshape(n, n)


def members_by_stacks(queries, reps):
    pairs = [(i, j) for i, q in enumerate(queries)
             for j, rep in enumerate(reps) if q.ranks == rep.ranks]
    iso = pair_verdicts_by_stacks(queries, reps, pairs, invertible_stack, every=False)
    return np.bincount([i for (i, _), ok in zip(pairs, iso) if ok],
                       minlength=len(queries)) > 0


def composites_vanish_by_loop(t):
    """Reference for the batched composite check: g f, h g and f h, one
    matrix product at a time."""
    f, g, h = t.f.matrix, t.g.matrix, t.h.matrix
    return not any(((x @ y) % 4).any() for x, y in ((g, f), (h, g), (f, h)))


def rank_one_candidates():
    """All 14 triangles Z/4 -> Z/4 -> Z/4 -> Z/4 whose consecutive
    composites vanish."""
    m = [Z4Morphism.from_matrix([[x]]) for x in range(4)]
    triangles = (Z4Triangle(f, g, h) for f, g, h in itertools.product(m, repeat=3))
    return [t for t in triangles if t.is_candidate]


class TestMorphisms:
    def test_composition_mod_four(self):
        two = Z4Morphism.from_matrix([[2]])
        assert two.compose(two).is_zero

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            Z4Morphism.from_matrix([[1, 0]]).compose(Z4Morphism.from_matrix([[1, 0]]))

    def test_direct_sum_block_structure(self):
        a = Z4Morphism.from_matrix([[2]])
        b = identity_morphism(1)
        assert a.direct_sum(b).matrix.tolist() == [[2, 0], [0, 1]]

    def test_negation_and_direct_sum_match_matrix_construction(self):
        # Reference: build the result as a numpy matrix through from_matrix.
        rng = random.Random(7)
        shapes = list(itertools.product(range(3), repeat=2))
        for (t1, s1), (t2, s2) in itertools.product(shapes, repeat=2):
            a = Z4Morphism.from_matrix(
                np.array([rng.randrange(4) for _ in range(t1 * s1)]), s1, t1)
            b = Z4Morphism.from_matrix(
                np.array([rng.randrange(4) for _ in range(t2 * s2)]), s2, t2)
            block = np.zeros((t1 + t2, s1 + s2), dtype=np.int64)
            block[:t1, :s1], block[t1:, s1:] = a.matrix, b.matrix
            assert a.direct_sum(b) == Z4Morphism.from_matrix(block, s1 + s2, t1 + t2)
            assert -a == Z4Morphism.from_matrix(-a.matrix % 4, s1, t1)

    def test_zero_rank_morphisms(self):
        z = zero_morphism(1, 0)
        assert z.matrix.shape == (0, 1)
        assert z.is_zero


class TestElementaryTriangles:
    def test_all_are_candidates(self):
        for t in elementary_triangles():
            assert t.is_candidate

    def test_ranks_must_close_up(self):
        # h must map Z back to the source of f.
        with pytest.raises(ValueError, match="do not close up"):
            Z4Triangle(identity_morphism(1), identity_morphism(1), zero_morphism(1, 2))

    def test_two_triangle_compositions_vanish(self):
        t = two_triangle()
        assert t.g.compose(t.f).is_zero  # 2 * 2 = 4 = 0 mod 4

    def test_two_triangle_rotation_fixed(self):
        t = two_triangle()
        assert t.rotate() == t  # -2 = 2 mod 4

    def test_isomorphism_matches_brute_force_on_rank_one_candidates(self):
        cands = rank_one_candidates()
        for t1, t2 in itertools.product(cands, repeat=2):
            assert is_isomorphic(t1, t2) == isomorphic_by_brute_force(t1, t2)

    def test_batched_composites_match_loop(self):
        m = [Z4Morphism.from_matrix([[x]]) for x in range(4)]
        triples = [Z4Triangle(f, g, h) for f, g, h in itertools.product(m, repeat=3)]
        vanish = _composites_vanish(triples)
        assert vanish.tolist() == [composites_vanish_by_loop(t) for t in triples]
        assert vanish.tolist() == [t.is_candidate for t in triples]
        assert vanish.sum() == 14
        # Mixed ranks, padded to the largest: representatives and random
        # triangles, which mostly fail.
        rng = np.random.default_rng(9)
        mixed = distinguished_representatives(2)
        for x, y, z in itertools.product(range(3), repeat=3):
            mixed.append(Z4Triangle(*(Z4Morphism.from_matrix(rng.integers(0, 4, (t, s)), s, t)
                                      for s, t in ((x, y), (y, z), (z, x)))))
        vanish = _composites_vanish(mixed)
        assert vanish.tolist() == [composites_vanish_by_loop(t) for t in mixed]
        assert 16 <= vanish.sum() < len(mixed)

    def test_contractible_rotations_cycle(self):
        c0 = elementary_triangles()[1]
        c3 = c0.rotate().rotate().rotate()
        # Three rotations return a triangle isomorphic to the original.
        assert is_isomorphic(c3, c0)


class TestGeneralLinear:
    def test_sizes(self):
        assert len(general_linear(0)) == 1
        assert len(general_linear(1)) == 2  # units 1 and 3
        assert len(general_linear(2)) == 96

    def test_members_invertible(self):
        for m in general_linear(2)[:10]:
            # Invertible mod 4 iff invertible mod 2.
            assert round(np.linalg.det(m % 2)) % 2 == 1

    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_matches_rank_filter(self, rank):
        mats = _all_matrices(rank, rank)
        expected = mats[[fp.rank(m, 2) == rank for m in mats]]
        assert np.array_equal(general_linear(rank), expected)

    def test_rank_three_size(self):
        assert len(general_linear(3)) == 86016

    def test_enumerations_read_only(self):
        for arr in (general_linear(2), _all_matrices(1, 2), two_triangle().f.matrix):
            with pytest.raises(ValueError):
                arr[0, 0] = 1


class TestDistinguishedClass:
    def test_rank_one_members(self):
        reps = distinguished_representatives(1)
        # Zero triangle, 2-triangle, contractible and its two rotations.
        assert len(reps) == 5

    def test_returned_list_is_a_copy(self):
        first = distinguished_representatives(2)
        expected = list(first)
        first.clear()
        assert distinguished_representatives(2) == expected

    def test_zero_triangle_in_class(self):
        assert in_distinguished_class(zero_triangle())

    def test_sum_of_two_triangles_in_class(self):
        assert in_distinguished_class(two_triangle().direct_sum(two_triangle()))

    def test_isomorphism_invariance(self):
        # Conjugating the 2-triangle by units keeps it in the class.
        u = Z4Morphism.from_matrix([[3]])
        t = two_triangle()
        conj = Z4Triangle(
            u.compose(t.f).compose(u), u.compose(t.g).compose(u),
            u.compose(t.h).compose(u),
        )
        assert in_distinguished_class(conj)

    def test_non_candidate_not_in_class(self):
        t = Z4Triangle(
            identity_morphism(1), identity_morphism(1), identity_morphism(1)
        )
        assert not in_distinguished_class(t)

    def test_negative_rank_bound_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            verify_axioms(-1)

    def test_rank_bound_enforced(self):
        big = zero_triangle()
        for _ in range(3):
            big = big.direct_sum(two_triangle())
        with pytest.raises(ValueError):
            in_distinguished_class(big, 2)


class TestCones:
    def test_cone_of_two_is_rank_one(self):
        cone = check_TR1_cone(Z4Morphism.from_matrix([[2]]))
        assert cone is not None
        assert cone.ranks == (1, 1, 1)

    def test_cone_of_identity_is_zero(self):
        cone = check_TR1_cone(identity_morphism(1))
        assert cone.ranks[2] == 0

    def test_cone_of_zero_is_sum_of_shifts(self):
        cone = check_TR1_cone(zero_morphism(1, 1))
        assert cone.ranks == (1, 1, 2)

    def test_every_small_morphism_matches_the_batched_join(self):
        # All 297 morphisms with source and target rank <= 2.  The reference
        # is the first representative whose first map is isomorphic to f,
        # asked of the batched join on the triangles (m, 0, 0).
        def first_map(m):
            return Z4Triangle(m, zero_morphism(m.target, 0), zero_morphism(0, m.source))

        reps = distinguished_representatives(2)
        morphisms = [Z4Morphism(s, t, entries) for s in range(3) for t in range(3)
                     for entries in itertools.product(range(4), repeat=s * t)]
        assert len(morphisms) == 297
        for f in morphisms:
            want = next((r for r in reps if is_isomorphic(first_map(r.f), first_map(f))), None)
            assert check_TR1_cone(f, 2) == want, f

    def test_no_cone_within_the_rank_bound(self):
        # The cone of the zero map of rank 2 has rank 4.
        assert check_TR1_cone(zero_morphism(2, 2), max_rank=2) is None

    @pytest.mark.parametrize("rank", [3, 4])
    def test_ranks_above_the_bound_are_refused_before_gl(self, monkeypatch, rank):
        # GL_4(Z/4) would take 4**16 matrices; GL_3 is built for nothing.
        monkeypatch.setattr(exotic, "general_linear", lambda n: pytest.fail("GL built"))
        f = Z4Morphism.from_matrix(2 * np.eye(rank, dtype=np.int64))
        with pytest.raises(ValueError, match=rf"^ranks \({rank}, {rank}\) exceed the bound 2$"):
            check_TR1_cone(f, max_rank=2)

    def test_bound_is_checked_before_gl(self, monkeypatch):
        monkeypatch.setattr(exotic, "general_linear", lambda n: pytest.fail("GL built"))
        with pytest.raises(ValueError, match="^rank bound above 3"):
            check_TR1_cone(Z4Morphism.from_matrix([[2]]), max_rank=4)


class TestProductTables:
    # A rank-2 matrix is one row block and one column block; at rank 3
    # the second blocks' keys are gathered too.
    @pytest.mark.parametrize("invertible,rank", [(False, 2), (True, 2), (False, 3), (True, 3)],
                             ids=["False", "True", "False-rank3", "True-rank3"])
    def test_keys_match_encoded_products(self, invertible, rank):
        codes = _stack_codes(rank)
        rng = np.random.default_rng(5)
        # GL of every square shape, or every shape of at most 4**6 matrices.
        shapes = ([(t, t) for t in range(1, rank + 1)] if invertible
                  else [(t, s) for t, s in itertools.product(range(rank + 1), repeat=2)
                        if t * s <= 6])
        stride = math.prod(_layout(rank))
        for t, s in shapes:
            stack = _all_matrices(t, s)
            k = t * (rank + 1) + s
            assert codes.size[k] == len(stack)
            if t == s:
                # GL_t first, then the other matrices, each in enumeration order.
                unit = np.isin(_encode(stack), _encode(general_linear(t)))
                stack = np.concatenate([stack[unit], stack[~unit]])
                assert codes.units[k] == unit.sum()
            if invertible:
                stack = stack[:codes.units[k]]
                assert np.array_equal(stack, general_linear(t))
            elements = slice(codes.start[k], codes.start[k] + len(stack))
            for inner in range(rank + 1):
                # X m for m of shape (s, inner), and m X for m of shape (inner, t).
                right = [rng.integers(0, 4, (s, inner)) for _ in range(3)]
                left = [rng.integers(0, 4, (inner, t)) for _ in range(3)]
                morphisms = [Z4Morphism(m.shape[1], m.shape[0], tuple(m.ravel().tolist()))
                             for m in right + left]
                row_table, col_table = _product_tables(_padded(morphisms, rank), rank)
                for n, m in enumerate(right):
                    keys = _product_keys(codes.rows, row_table, n * stride, elements)
                    assert np.array_equal(keys, padded_encode(stack @ m, rank))
                for n, m in enumerate(left, len(right)):
                    keys = _product_keys(codes.cols, col_table, n * stride, elements)
                    assert np.array_equal(keys, padded_encode(m @ stack, rank))


class TestTR3:
    def test_identity_pair_fills_with_identity(self):
        t = two_triangle()
        fill = check_TR3_fill(t, t, identity_morphism(1), identity_morphism(1))
        assert fill is not None
        assert fill.matrix.tolist() == [[1]]

    def test_two_two_pair_fills(self):
        t = two_triangle()
        two = Z4Morphism.from_matrix([[2]])
        assert check_TR3_fill(t, t, two, two) is not None

    def test_noncommuting_pair_rejected(self):
        t = two_triangle()
        c0 = elementary_triangles()[1]
        with pytest.raises(ValueError):
            check_TR3_fill(t, c0, identity_morphism(1), Z4Morphism.from_matrix([[2]]))

    def test_random_commuting_pairs_fill(self):
        rng = random.Random(3)
        reps = distinguished_representatives(2)
        for _ in range(40):
            t1, t2 = rng.choice(reps), rng.choice(reps)
            a_stack = _all_matrices(t2.f.source, t1.f.source)
            b_stack = _all_matrices(t2.f.target, t1.f.target)
            a = Z4Morphism.from_matrix(
                a_stack[rng.randrange(len(a_stack))], t1.f.source, t2.f.source
            )
            for b_mat in b_stack:
                b = Z4Morphism.from_matrix(b_mat, t1.f.target, t2.f.target)
                if np.array_equal(
                    (b.matrix @ t1.f.matrix) % 4, (t2.f.matrix @ a.matrix) % 4
                ):
                    assert check_TR3_fill(t1, t2, a, b) is not None
                    break

    def test_join_matches_brute_force_on_rank_one_candidates(self):
        cands = rank_one_candidates()
        assert len(cands) == 14
        verdicts = tr3_verdicts(cands)
        for (i, t1), (j, t2) in itertools.product(enumerate(cands), repeat=2):
            assert verdicts[i, j] == tr3_by_brute_force(t1, t2)
        assert (~verdicts).sum() == 63

    def test_join_matches_brute_force_on_representatives(self):
        rng = random.Random(11)
        reps = distinguished_representatives(2)
        verdicts = tr3_verdicts(reps)
        for _ in range(8):
            i, j = rng.randrange(len(reps)), rng.randrange(len(reps))
            want = tr3_by_brute_force(reps[i], reps[j])
            assert verdicts[i, j] == want
            assert tr3_by_pair_join(reps[i], reps[j]) == want

    def test_join_matches_pair_join_on_rank_two_representatives(self):
        reps = distinguished_representatives(2)
        assert len(reps) == 16
        want = [[tr3_by_pair_join(t1, t2) for t2 in reps] for t1 in reps]
        assert tr3_verdicts(reps).tolist() == want

    def test_pair_join_matches_brute_force_on_rank_one_candidates(self):
        cands = rank_one_candidates()
        for t1, t2 in itertools.product(cands, repeat=2):
            assert tr3_by_pair_join(t1, t2) == tr3_by_brute_force(t1, t2)


def membership_queries():
    """Rank-one candidates, their pairwise sums, and a candidate of ranks
    (0, 1, 0), which no representative has: members and non-members."""
    cands = rank_one_candidates()
    sums = [t1.direct_sum(t2)
            for t1, t2 in itertools.combinations_with_replacement(cands, 2)]
    lone = Z4Triangle(zero_morphism(0, 1), zero_morphism(1, 0), zero_morphism(0, 0))
    return cands + sums + [lone]


class TestBatchedJoins:
    def test_members_match_brute_force_on_rank_one_candidates(self):
        cands = rank_one_candidates()
        reps = distinguished_representatives(1)
        want = [any(isomorphic_by_brute_force(t, r) for r in reps) for t in cands]
        assert _members(cands, reps).tolist() == want
        assert 0 < sum(want) < len(want)

    def test_members_match_pair_join_at_rank_two(self):
        queries = membership_queries()
        reps = distinguished_representatives(2)
        want = [any(isomorphic_by_pair_join(t, r) for r in reps) for t in queries]
        assert _members(queries, reps).tolist() == want
        assert 0 < sum(want) < len(want)
        assert not want[-1]

    def test_single_queries_match_members(self):
        queries = membership_queries()[::7]
        reps = distinguished_representatives(2)
        assert [in_distinguished_class(t) for t in queries] == \
            _members(queries, reps).tolist()

    def test_small_batches_give_the_same_verdicts(self, monkeypatch):
        reps = distinguished_representatives(2)
        queries = membership_queries()
        tr3, members = tr3_verdicts(reps), _members(queries, reps)
        # One rank-two pair alone holds up to 3 * 256 matrices.
        monkeypatch.setattr(exotic, "_BATCH_MATRICES", 50)
        assert np.array_equal(tr3_verdicts(reps), tr3)
        assert np.array_equal(_members(queries, reps), members)
        cands = rank_one_candidates()
        assert (~tr3_verdicts(cands)).sum() == 63

    def test_single_call_matches_separate_calls(self):
        reps = distinguished_representatives(2)
        queries = membership_queries()
        tr3, members = _decide(_join(reps, queries, True))
        assert np.array_equal(tr3, tr3_verdicts(reps))
        assert np.array_equal(members, _members(queries, reps))
        assert 0 < members.sum() < len(queries)
        # With candidates among the triangles, some TR3 verdicts fail.
        triangles = reps + rank_one_candidates()
        tr3, members = _decide(_join(triangles, queries, True))
        assert np.array_equal(tr3, tr3_verdicts(triangles))
        assert tr3[:16, :16].all() and not tr3.all()
        assert np.array_equal(members, _members(queries, triangles))
        assert np.array_equal(members, members_by_stacks(queries, triangles))

    def test_one_batch_may_mix_tr3_and_membership_pairs(self, monkeypatch):
        reps = distinguished_representatives(2)
        queries = membership_queries()
        tr3, members = tr3_verdicts(reps), _members(queries, reps)
        decide, quantifiers = exotic._decide_batch, []

        def recorded(b, a, c, n_pairs, width, every):
            quantifiers.append(set(every.tolist()))
            return decide(b, a, c, n_pairs, width, every)

        monkeypatch.setattr(exotic, "_decide_batch", recorded)
        monkeypatch.setattr(exotic, "_BATCH_MATRICES", 2000)
        got_tr3, got_members = _decide(_join(reps, queries, True))
        assert {True, False} in quantifiers and len(quantifiers) > 2
        assert np.array_equal(got_tr3, tr3)
        assert np.array_equal(got_members, members)

    def test_packed_keys_fit_int64_at_rank_three(self):
        reps = distinguished_representatives(3)
        width, dtype = _key_width(3, len(reps) ** 2)
        assert width == 4 ** 9 and dtype == np.int64
        assert len(reps) ** 2 * width * width < 2**63
        # At rank 2 the keys of a whole verification fit int32.
        reps = distinguished_representatives(2)
        pairs = len(reps) ** 2 + sum(map(len, exotic._closure_queries(2))) * len(reps)
        assert _key_width(2, pairs) == (4 ** 4, np.int32)
        assert _key_width(2, 2**15 + 1)[1] == np.int64

    def test_int64_keys_give_the_same_verdicts(self, monkeypatch):
        reps = distinguished_representatives(2)
        triangles, queries = reps + rank_one_candidates(), membership_queries()
        tr3, members = _decide(_join(triangles, queries, True))
        key_width = exotic._key_width
        monkeypatch.setattr(exotic, "_key_width",
                            lambda rank, n_pairs: (key_width(rank, n_pairs)[0], np.int64))
        got_tr3, got_members = _decide(_join(triangles, queries, True))
        assert np.array_equal(got_tr3, tr3) and not tr3.all()
        assert np.array_equal(got_members, members) and 0 < members.sum() < len(queries)

    def test_rank_four_is_refused_before_any_stack(self):
        big = zero_triangle()
        for _ in range(4):
            big = big.direct_sum(two_triangle())
        with pytest.raises(ValueError, match="too large"):
            is_isomorphic(big, big)

    def test_rank_two_builds_no_rank_three_stack(self, monkeypatch):
        # Every stack a join reads comes through _stack_codes, which builds
        # the stacks of all shapes within its rank bound.
        ranks = []

        def recorded(rank):
            ranks.append(rank)
            return _stack_codes(rank)

        monkeypatch.setattr(exotic, "_stack_codes", recorded)
        exotic._verification_join.cache_clear()
        assert verify_axioms(2).passed
        assert ranks and max(ranks) == 2

    def test_join_matches_per_pair_reference(self):
        reps = distinguished_representatives(2)
        assert np.array_equal(tr3_verdicts(reps), tr3_by_stacks(reps))
        cands = rank_one_candidates()
        verdicts = tr3_verdicts(cands)
        assert np.array_equal(verdicts, tr3_by_stacks(cands))
        assert (~verdicts).sum() == 63

    def test_members_match_per_pair_reference(self):
        queries = membership_queries()
        reps = distinguished_representatives(2)
        members = _members(queries, reps)
        assert np.array_equal(members, members_by_stacks(queries, reps))
        assert 0 < members.sum() < len(queries) and not members[-1]

    def test_verdicts_are_recomputed_on_every_call(self, monkeypatch):
        assert verify_axioms(1).passed
        monkeypatch.setattr(exotic, "_decide_batch",
                            lambda b, a, c, n_pairs, width, every:
                            np.zeros(n_pairs, dtype=bool))
        report = verify_axioms(1)
        assert not report.passed
        assert [ok for _, ok in report.steps] == [True, True, False, False, False]

    def test_verification_is_planned_once_per_bound(self, monkeypatch):
        tables, decide = exotic._product_tables, exotic._decide
        planned, decided = [], []

        def counted(mats, rank):
            planned.append(rank)
            return tables(mats, rank)

        def recorded(join):
            decided.append(decide(join))
            return decided[-1]

        monkeypatch.setattr(exotic, "_product_tables", counted)
        monkeypatch.setattr(exotic, "_decide", recorded)
        exotic._verification_join.cache_clear()
        assert verify_axioms(2).passed and verify_axioms(2).passed
        assert planned == [2] and len(decided) == 2
        # The second call decides the cached plan afresh.
        reps = distinguished_representatives(2)
        rotations, sums = exotic._closure_queries(2)
        tr3, members = decided[1]
        assert np.array_equal(tr3, tr3_by_stacks(reps)) and tr3.all()
        assert np.array_equal(members, members_by_stacks([*rotations, *sums], reps))
        assert members.all() and len(members) == len(rotations) + len(sums)


class TestVerification:
    def test_axioms_pass_rank_two(self):
        report = verify_axioms(2)
        assert report.passed
        assert len(report.steps) == 5

    def test_one_failed_step_fails_the_report(self, monkeypatch):
        # passed is read off the steps, so it cannot disagree with them.
        monkeypatch.setattr(exotic, "_composites_vanish",
                            lambda triangles: np.zeros(len(triangles), dtype=bool))
        report = verify_axioms(2)
        assert [ok for _, ok in report.steps] == [True, False, True, True, True]
        assert report.passed is False
        report.steps[1] = (report.steps[1][0], True)
        assert report.passed is True

    def test_two_order_certificate(self):
        cert = two_order_zero_certificate()
        assert cert.passed
        assert cert.two_id_nonzero
        assert cert.cone_rank == 1
        assert cert.two_cone_nonzero

    @pytest.mark.parametrize("cone,two_cone_nonzero", [
        (contractible_triangle(), False),  # cone of rank 0
        (None, False),
        (elementary_triangles()[2].direct_sum(elementary_triangles()[3]), True),
    ])
    def test_certificate_fails_without_rank_one_cone(
        self, monkeypatch, cone, two_cone_nonzero
    ):
        # 2*Id is evaluated on whatever cone check_TR1_cone returns.
        monkeypatch.setattr(exotic, "check_TR1_cone", lambda f, max_rank=2: cone)
        cert = two_order_zero_certificate()
        assert cert.two_cone_nonzero == two_cone_nonzero
        assert not cert.passed

    @pytest.mark.parametrize("flag", ["two_id_nonzero", "cone_is_rank_one", "two_cone_nonzero"])
    def test_certificate_passes_only_with_every_flag(self, flag):
        cert = two_order_zero_certificate()
        assert cert.passed is True
        assert dataclasses.replace(cert, **{flag: False}).passed is False
