"""The Z/4 exotic triangulated category: elementary triangles, the
enumerated distinguished class, axiom checks, and the 2-order certificate."""

import dataclasses
import functools
import itertools
import random
import tracemalloc

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
    _all_matrices,
    _key_pairs,
    _keys,
    _match,
    contractible_triangle,
    general_linear,
    identity_morphism,
    is_isomorphic,
    smith_z4,
    two_times_identity,
    zero_morphism,
    zero_triangle,
)


def tr3_verdicts(triangles):
    """TR3 for every ordered pair of triangles, from the key join of
    exotic._pair_join over all matrices."""
    return np.array([[exotic._pair_join(t1, t2, False) for t2 in triangles]
                     for t1 in triangles], dtype=bool).reshape(len(triangles), -1)


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
    """Reference for the TR3 key join, written apart from it.  The
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
    """Reference for is_isomorphic and for membership, written apart from
    them: the key join over GL stacks of u, v and w."""
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


def composites_vanish_by_loop(t):
    """Reference for the composite check: g f, h g and f h, one matrix
    product at a time."""
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

    # Entries that .matrix would read back as another matrix, or could
    # not reshape, are refused when the morphism is built.
    @pytest.mark.parametrize("source,target", [(-1, 0), (0, -1), (-1, -1)])
    def test_a_negative_rank_is_refused(self, source, target):
        with pytest.raises(ValueError, match="^a rank is negative"):
            Z4Morphism(source, target, ())

    @pytest.mark.parametrize("source,target,entries", [
        (2, 2, (1, 2, 3)), (1, 1, ()), (0, 3, (0,)), (2, 1, (0, 1, 2))])
    def test_a_wrong_entry_count_is_refused(self, source, target, entries):
        with pytest.raises(ValueError, match="entries for a"):
            Z4Morphism(source, target, entries)

    @pytest.mark.parametrize("entry", [2.5, 2.0, True, np.int64(2), np.int8(1)],
                             ids=["float", "integral-float", "bool", "int64", "int8"])
    def test_an_entry_that_is_not_an_int_is_refused(self, entry):
        with pytest.raises(ValueError, match=r"^entries must be ints in 0\.\.3"):
            Z4Morphism(1, 1, (entry,))

    @pytest.mark.parametrize("entry", [4, -1, 7, -4])
    def test_an_entry_outside_zero_to_three_is_refused(self, entry):
        with pytest.raises(ValueError, match=r"^entries must be ints in 0\.\.3"):
            Z4Morphism(1, 1, (entry,))


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
        vanish = [t.is_candidate for t in triples]
        assert vanish == [composites_vanish_by_loop(t) for t in triples]
        assert sum(vanish) == 14
        # Mixed ranks: representatives and random triangles, which mostly
        # fail.
        rng = np.random.default_rng(9)
        mixed = distinguished_representatives(2)
        for x, y, z in itertools.product(range(3), repeat=3):
            mixed.append(Z4Triangle(*(Z4Morphism.from_matrix(rng.integers(0, 4, (t, s)), s, t)
                                      for s, t in ((x, y), (y, z), (z, x)))))
        vanish = [t.is_candidate for t in mixed]
        assert vanish == [composites_vanish_by_loop(t) for t in mixed]
        assert 16 <= sum(vanish) < len(mixed)

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

    def test_the_rank_caps_sit_on_the_searches(self):
        # The enumeration and membership take any bound; the key join of
        # is_isomorphic stops at rank 3 (TestBatchedJoins), and the
        # verification at 8.
        assert len(distinguished_representatives(4)) == 81
        assert in_distinguished_class(two_triangle(), 4)
        with pytest.raises(ValueError, match="^rank bound above 8"):
            verify_axioms(9)

    def test_rank_bound_enforced(self):
        big = zero_triangle()
        for _ in range(3):
            big = big.direct_sum(two_triangle())
        with pytest.raises(ValueError):
            in_distinguished_class(big, 2)


def first_map(m):
    """The triangle (m, 0, 0), whose isomorphisms are those of m alone."""
    return Z4Triangle(m, zero_morphism(m.target, 0), zero_morphism(0, m.source))


def no_gl(monkeypatch):
    monkeypatch.setattr(exotic, "general_linear", lambda n: pytest.fail("GL built"))
    monkeypatch.setattr(exotic, "_all_matrices", lambda t, s: pytest.fail("stack built"))


@pytest.fixture
def fresh_verdicts():
    """The elementary verdicts decided afresh in the test, and again after
    it, so that no patched verdict outlives the test."""
    exotic._elementary_verdicts.cache_clear()
    yield
    exotic._elementary_verdicts.cache_clear()


class TestSmithForm:
    @staticmethod
    def check(f):
        """smith_z4 against its contract, and d's counts of 1s and 2s
        against invariants of f computed without it: the rank of f mod 2,
        and the size 4^a 2^b of f's image."""
        t, s = f.shape
        u, d, v = smith_z4(f)
        assert u.shape == (t, t) and d.shape == (t, s) and v.shape == (s, s)
        assert np.array_equal(u @ f @ v % 4, d)
        for m in (u, v):
            assert m.size == 0 or round(np.linalg.det(m)) % 2 == 1
        diagonal = np.diagonal(d).tolist()
        assert np.array_equal(d[:len(diagonal), :len(diagonal)], np.diag(diagonal))
        assert not d[len(diagonal):].any() and not d[:, len(diagonal):].any()
        ones, twos = diagonal.count(1), diagonal.count(2)
        assert diagonal == [1] * ones + [2] * twos + [0] * (len(diagonal) - ones - twos)
        assert ones == (fp.rank(f % 2, 2) if f.size else 0)
        vectors = np.indices((4,) * s).reshape(s, 4**s)
        image = {tuple(column) for column in (f @ vectors % 4).T.tolist()}
        assert len(image) == 4**ones * 2**twos

    def test_every_matrix_up_to_two_by_two(self):
        count = 0
        for t, s in itertools.product(range(3), repeat=2):
            for entries in itertools.product(range(4), repeat=t * s):
                self.check(np.array(entries, dtype=np.int64).reshape(t, s))
                count += 1
        assert count == 297

    def test_seeded_samples_up_to_four_by_four(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            t, s = rng.integers(0, 5, 2)
            # Half the samples are all even, so that only 2s are pivots.
            scale = rng.choice([1, 2])
            self.check(scale * rng.integers(0, 4, (t, s)) % 4)


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
        # asked of the key join of is_isomorphic on the triangles (m, 0, 0).
        def first_map(m):
            return Z4Triangle(m, zero_morphism(m.target, 0), zero_morphism(0, m.source))

        reps = distinguished_representatives(2)
        morphisms = [Z4Morphism(s, t, entries) for s in range(3) for t in range(3)
                     for entries in itertools.product(range(4), repeat=s * t)]
        assert len(morphisms) == 297
        for f in morphisms:
            want = next((r for r in reps if is_isomorphic(first_map(r.f), first_map(f))), None)
            assert check_TR1_cone(f, 2) == want, f

    def test_seeded_rank_three_morphisms_match_the_batched_join(self):
        reps = distinguished_representatives(3)
        rng = np.random.default_rng(3)
        shapes = [(3, 3)] * 12 + [tuple(rng.integers(0, 4, 2)) for _ in range(20)]
        found = 0
        for t, s in shapes:
            f = Z4Morphism.from_matrix(rng.integers(0, 4, (t, s)), s, t)
            want = next((r for r in reps if is_isomorphic(first_map(r.f), first_map(f))), None)
            assert check_TR1_cone(f, 3) == want, f
            found += want is not None
        assert found > 20

    def test_no_cone_within_the_rank_bound(self):
        # The cone of the zero map of rank 2 has rank 4.
        assert check_TR1_cone(zero_morphism(2, 2), max_rank=2) is None

    def test_cones_at_rank_five_build_no_gl(self, monkeypatch):
        no_gl(monkeypatch)
        assert check_TR1_cone(two_times_identity(5), max_rank=5).ranks == (5, 5, 5)
        cone = check_TR1_cone(zero_morphism(3, 3), max_rank=6)
        assert cone.ranks == (3, 3, 6)
        assert cone == functools.reduce(
            Z4Triangle.direct_sum, [elementary_triangles()[2]] * 3 + [elementary_triangles()[3]] * 3)
        assert check_TR1_cone(zero_morphism(3, 3), max_rank=5) is None
        # f has Smith form diag(1, 2, 0): one of each of the 2-triangle,
        # the contractible triangle and its two rotations.
        f = Z4Morphism.from_matrix([[3, 2, 1], [2, 2, 2], [0, 0, 0]])
        cone = check_TR1_cone(f, max_rank=3)
        assert cone.ranks == (3, 3, 3)
        assert cone == functools.reduce(Z4Triangle.direct_sum, elementary_triangles())

    @pytest.mark.parametrize("rank", [3, 4])
    def test_ranks_above_the_bound_are_refused_before_gl(self, monkeypatch, rank):
        no_gl(monkeypatch)
        f = Z4Morphism.from_matrix(2 * np.eye(rank, dtype=np.int64))
        with pytest.raises(ValueError, match=rf"^ranks \({rank}, {rank}\) exceed the bound 2$"):
            check_TR1_cone(f, max_rank=2)

    def test_bound_is_checked_before_gl(self, monkeypatch):
        # No GL is built at any bound: a bound above 3, which a GL search
        # refuses, decides f by its Smith form.
        no_gl(monkeypatch)
        assert check_TR1_cone(Z4Morphism.from_matrix([[2]]), max_rank=4) == two_triangle()
        with pytest.raises(ValueError, match=r"^ranks \(5, 5\) exceed the bound 4$"):
            check_TR1_cone(two_times_identity(5), max_rank=4)


def key_by_loop(matrix):
    """Reference for exotic._keys: a matrix's entries mod 4 as base-4
    digits, the first entry lowest, one entry at a time."""
    return sum(int(e) % 4 * 4**k for k, e in enumerate(matrix.ravel()))


class TestProductTables:
    # The keys by which the key join meets products X m and m X, for X
    # drawn from GL or from all matrices of a shape.
    @pytest.mark.parametrize("invertible,rank", [(False, 2), (True, 2), (False, 3), (True, 3)],
                             ids=["False", "True", "False-rank3", "True-rank3"])
    def test_keys_match_encoded_products(self, invertible, rank):
        rng = np.random.default_rng(5)
        # GL of every square shape, or every shape of at most 4**6 matrices.
        shapes = ([(t, t) for t in range(1, rank + 1)] if invertible
                  else [(t, s) for t, s in itertools.product(range(rank + 1), repeat=2)
                        if t * s <= 6])
        for t, s in shapes:
            stack = general_linear(t) if invertible else _all_matrices(t, s)
            sample = rng.choice(len(stack), min(len(stack), 300), replace=False)
            for inner in range(rank + 1):
                # X m for m of shape (s, inner), and m X for m of shape (inner, t).
                right = rng.integers(0, 4, (s, inner))
                left = rng.integers(0, 4, (inner, t))
                for products in (stack @ right, left @ stack):
                    keys = _keys(products)
                    assert keys[sample].tolist() == [key_by_loop(m) for m in products[sample]]
                if len(stack) <= 4096:
                    # The distinct pairs, sorted by the first key.
                    want = sorted({(key_by_loop(x), key_by_loop(y))
                                   for x, y in zip(stack @ right, left @ stack)})
                    first, second = _key_pairs(stack @ right, left @ stack)
                    assert list(zip(first.tolist(), second.tolist())) == want


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


def blockwise_tr3(summands, incidence):
    """TR3 of sums read off their summands' verdicts by _verdicts' lemma:
    a pair fails iff some pair of their summands does."""
    return incidence @ ~tr3_verdicts(summands) @ incidence.T == 0


def sums_of_candidates(rng, count, terms):
    """count direct sums of `terms` rank-one candidates drawn by rng, and
    the incidence of the candidates among their summands."""
    cands = rank_one_candidates()
    sums, incidence = [], np.zeros((count, len(cands)), dtype=np.int64)
    for k in range(count):
        picks = [rng.randrange(len(cands)) for _ in range(terms)]
        sums.append(functools.reduce(Z4Triangle.direct_sum, [cands[i] for i in picks]))
        np.add.at(incidence[k], picks, 1)
    return cands, sums, incidence


class TestBlockwiseTR3:
    """TR3 of direct sums read off the pairs of their summands (_verdicts'
    lemma), against the key join on every pair of sums and the per-pair
    reference."""

    def test_representatives_are_the_sums_their_incidence_names(self):
        elems = elementary_triangles()
        for max_rank in range(4):
            reps, incidence = exotic._representatives(max_rank)
            assert incidence.shape == (len(reps), len(elems))
            for rep, counts in zip(reps, incidence):
                summands = [t for t, c in zip(elems, counts) for _ in range(c)]
                assert rep == functools.reduce(Z4Triangle.direct_sum, summands, zero_triangle())

    @pytest.mark.parametrize("max_rank", [1, 2])
    def test_verification_matches_the_full_join_on_representatives(self, max_rank):
        tr3 = exotic._verdicts(max_rank)[3]
        assert np.array_equal(tr3, tr3_verdicts(distinguished_representatives(max_rank)))
        assert tr3.all()

    def test_verification_decides_tr3_on_the_elementary_pairs(self, monkeypatch,
                                                               fresh_verdicts):
        # Fail the pair (2-triangle, 2-triangle), the first pair decided:
        # exactly the pairs of representatives that both hold a 2-triangle
        # fail.
        join, pairs = exotic._pair_join, []

        def failing_first(t1, t2, invertible):
            pairs.append((t1, t2))
            return join(t1, t2, invertible) and len(pairs) > 1

        monkeypatch.setattr(exotic, "_pair_join", failing_first)
        composites, rotations, sums, tr3 = exotic._verdicts(2)
        # The 16 elementary pairs, each decided once.
        assert pairs == list(itertools.product(elementary_triangles(), repeat=2))
        # Only a 2-triangle summand puts a 2 into f.
        has_two = np.array([2 in rep.f.entries for rep in distinguished_representatives(2)])
        assert 0 < has_two.sum() < len(has_two)
        assert np.array_equal(tr3, ~np.outer(has_two, has_two))
        assert composites.all() and rotations.all() and sums.all()

    def test_blockwise_matches_the_full_join_on_sums_of_candidates(self):
        # The candidates are not all distinguished: 63 of their 196 pairs
        # fail TR3, so sums fail wherever one pair of summands does.
        cands, sums, incidence = sums_of_candidates(random.Random(7), 40, 2)
        got = blockwise_tr3(cands, incidence)
        want = tr3_verdicts(sums)
        assert np.array_equal(got, want)
        assert 0 < (~want).sum() < want.size

    def test_blockwise_matches_the_pair_join_at_rank_three(self):
        rng = random.Random(13)
        reps = distinguished_representatives(3)
        tr3 = exotic._verdicts(3)[3]
        assert tr3.shape == (39, 39)
        for _ in range(6):
            i, j = rng.randrange(len(reps)), rng.randrange(len(reps))
            assert tr3[i, j] == tr3_by_pair_join(reps[i], reps[j])
        cands, sums, incidence = sums_of_candidates(rng, 2, 3)
        tr3 = blockwise_tr3(cands, incidence)
        assert tr3.tolist() == [[tr3_by_pair_join(t1, t2) for t2 in sums] for t1 in sums]
        assert 0 < tr3.sum() < tr3.size


def closure_queries(max_rank):
    """The rotations of the representatives, one per representative, and
    their pairwise direct sums within the rank bound, in the order of
    exotic._verdicts."""
    reps = distinguished_representatives(max_rank)
    sums = [
        t1.direct_sum(t2)
        for t1, t2 in itertools.combinations_with_replacement(reps, 2)
        if max(r1 + r2 for r1, r2 in zip(t1.ranks, t2.ranks)) <= max_rank
    ]
    return [t.rotate() for t in reps], sums


def summand_order(counts):
    """The elementary summands of an incidence row, in order."""
    return [k for k, c in enumerate(counts) for _ in range(c)]


def block_permutation(before, after, obj):
    """The permutation matrix on object obj (0, 1, 2 for X, Y, Z) that
    moves the block of each summand listed in `before` to the place of the
    same summand in `after`, a reordering of it (equal summands in order)."""
    sizes = [[elementary_triangles()[k].ranks[obj] for k in order]
             for order in (before, after)]
    starts = [np.cumsum([0, *size])[:-1] for size in sizes]
    places = {}
    for n, k in enumerate(after):
        places.setdefault(k, []).append(n)
    p = np.zeros((sum(sizes[0]), sum(sizes[0])), dtype=np.int64)
    for n, k in enumerate(before):
        to = places[k].pop(0)
        for r in range(sizes[0][n]):
            p[starts[1][to] + r, starts[0][n] + r] = 1
    return p


class TestReadOff:
    """Composites, rotation and sums of the representatives read off the
    elementary triangles and the incidence (_verdicts' lemmas), against
    membership decided on every representative's rotation and sums."""

    @pytest.mark.parametrize("max_rank", [0, 1, 2, 3])
    def test_read_off_matches_the_full_join(self, max_rank):
        reps = distinguished_representatives(max_rank)
        rotations, sums = closure_queries(max_rank)
        members = np.array([in_distinguished_class(t, max_rank) for t in [*rotations, *sums]])
        composites, rotated, summed, _ = exotic._verdicts(max_rank)
        assert composites.tolist() == [t.is_candidate for t in reps]
        assert np.array_equal(rotated, members[:len(reps)])
        assert np.array_equal(summed, members[len(reps):])
        assert members.all() and len(summed) == len(sums)

    @pytest.mark.parametrize("failing", range(4))
    def test_a_failing_elementary_rotation_fails_its_representatives(self, monkeypatch,
                                                                      failing):
        composites, rotations, tr3 = exotic._elementary_verdicts()
        rotations = rotations.copy()
        rotations[failing] = False
        monkeypatch.setattr(exotic, "_elementary_verdicts",
                            lambda: (composites, rotations, tr3))
        reps, incidence = exotic._representatives(2)
        rotated = exotic._verdicts(2)[1]
        # Exactly the representatives with that summand fail.
        assert np.array_equal(rotated, incidence[:, failing] == 0)
        report = verify_axioms(2)
        assert [ok for _, ok in report.steps] == [True, True, False, True, True]

    def test_a_dropped_incidence_row_fails_the_sums(self, monkeypatch):
        # A row is the sum of two others iff it has two summands or more.
        incidence = exotic._incidence(2)
        for row in range(len(incidence)):
            dropped = np.delete(incidence, row, axis=0)
            monkeypatch.setattr(exotic, "_incidence", lambda max_rank: dropped)
            report = verify_axioms(2)
            assert report.steps[3][1] == (incidence[row].sum() < 2)
            assert [ok for n, (_, ok) in enumerate(report.steps) if n != 3] == [True] * 4

    def test_a_permutation_carries_a_sum_to_its_representative(self):
        rng = random.Random(17)
        reps, incidence = exotic._representatives(3)
        rows = {tuple(counts): n for n, counts in enumerate(incidence.tolist())}
        checked, moved = 0, 0
        while checked < 40:
            i, j = rng.randrange(len(reps)), rng.randrange(len(reps))
            total = incidence[i] + incidence[j]
            if tuple(total) not in rows:
                continue
            t, rep = reps[i].direct_sum(reps[j]), reps[rows[tuple(total)]]
            before = summand_order(incidence[i]) + summand_order(incidence[j])
            u, v, w = (block_permutation(before, summand_order(total), obj)
                       for obj in range(3))
            for m1, m2, left, right in ((t.f, rep.f, v, u), (t.g, rep.g, w, v),
                                        (t.h, rep.h, u, w)):
                assert np.array_equal(left @ m1.matrix % 4, m2.matrix @ right % 4)
            checked, moved = checked + 1, moved + (t != rep)
        assert moved > 0


def membership_queries():
    """Rank-one candidates, their pairwise sums, and a candidate of ranks
    (0, 1, 0), which no representative has: members and non-members."""
    cands = rank_one_candidates()
    sums = [t1.direct_sum(t2)
            for t1, t2 in itertools.combinations_with_replacement(cands, 2)]
    lone = Z4Triangle(zero_morphism(0, 1), zero_morphism(1, 0), zero_morphism(0, 0))
    return cands + sums + [lone]


def exact_triangles(max_rank, max_entries):
    """Every triangle with ranks <= max_rank and at most max_entries
    entries whose composites vanish.  Per ranks, the composites are taken
    on the stacks of all f, g and h at once, and only the triangles that
    pass are built."""
    out = []
    for x, y, z in itertools.product(range(max_rank + 1), repeat=3):
        if x * y + y * z + z * x > max_entries:
            continue
        f, g, h = _all_matrices(y, x), _all_matrices(z, y), _all_matrices(x, z)
        i, j, k = (n.ravel() for n in np.indices((len(f), len(g), len(h))))
        vanish = np.ones(len(i), dtype=bool)
        for later, earlier in ((g[j], f[i]), (h[k], g[j]), (f[i], h[k])):
            vanish &= ~(later @ earlier % 4).reshape(len(i), -1).any(axis=1)
        out += [Z4Triangle(*(Z4Morphism.from_matrix(m, s, t)
                             for m, s, t in ((f[a], x, y), (g[b], y, z), (h[c], z, x))))
                for a, b, c in zip(i[vanish], j[vanish], k[vanish])]
    return out


def members_by_pair_join(triangles, max_rank):
    """Reference for in_distinguished_class: isomorphism, by the test's
    pair join, with some representative within the bound."""
    reps = distinguished_representatives(max_rank)
    return [any(isomorphic_by_pair_join(t, r) for r in reps) for t in triangles]


def gl_inverse(m):
    """The inverse mod 4 of a matrix of odd determinant d: its adjugate
    times d, as d * d = 1 mod 4."""
    d = round(np.linalg.det(m)) if m.size else 1
    inverse = np.rint(np.linalg.inv(m) * d).astype(np.int64) * d % 4 if m.size else m
    assert np.array_equal(m @ inverse % 4, np.eye(len(m)))
    return inverse


def random_gl(rng, n):
    while True:
        m = rng.integers(0, 4, (n, n))
        if n == 0 or round(np.linalg.det(m)) % 2:
            return m


def conjugate(t, u, v, w):
    """The triangle that (u, v, w) on (X, Y, Z) carry t to."""
    return Z4Triangle(*(Z4Morphism.from_matrix(left @ m.matrix @ gl_inverse(right) % 4,
                                               m.source, m.target)
                        for m, left, right in ((t.f, v, u), (t.g, w, v), (t.h, u, w))))


def swap_triangle():
    """f = g = h = 2 [[0, 1], [1, 0]]: exact, all even, with C B A = the
    swap != I mod 2, so not in the class."""
    s = Z4Morphism.from_matrix(2 * np.array([[0, 1], [1, 0]]))
    return Z4Triangle(s, s, s)


class TestBatchedJoins:
    """Membership by the reduction, isomorphism and TR3 by the key join of
    one pair, and the rank-1 verdicts decided once, against the
    brute-force and pair-join references."""

    def test_members_match_brute_force_on_rank_one_candidates(self):
        cands = rank_one_candidates()
        reps = distinguished_representatives(1)
        want = [any(isomorphic_by_brute_force(t, r) for r in reps) for t in cands]
        assert [in_distinguished_class(t, 1) for t in cands] == want
        assert 0 < sum(want) < len(want)

    def test_members_match_pair_join_at_rank_two(self):
        queries = membership_queries()
        want = members_by_pair_join(queries, 2)
        assert [in_distinguished_class(t) for t in queries] == want
        assert 0 < sum(want) < len(want)
        assert not want[-1]

    def test_single_queries_match_members(self):
        queries = membership_queries()[::7]
        reps = distinguished_representatives(2)
        assert [in_distinguished_class(t) for t in queries] == \
            [any(is_isomorphic(t, r) for r in reps) for t in queries]

    def test_single_call_matches_separate_calls(self):
        # The elementary verdicts, decided in one cached call, against one
        # reference call per triangle or pair.
        elems = elementary_triangles()
        composites, rotations, tr3 = exotic._elementary_verdicts()
        assert composites.tolist() == [composites_vanish_by_loop(t) for t in elems]
        assert rotations.tolist() == members_by_pair_join([t.rotate() for t in elems], 1)
        assert tr3.tolist() == [[tr3_by_pair_join(t1, t2) for t2 in elems] for t1 in elems]
        assert composites.all() and rotations.all() and tr3.all()

    def test_packed_keys_fit_int64_at_rank_three(self, monkeypatch):
        # A key pair of two 3 x 3 products packs 2 * 9 base-4 digits.
        key_pairs, widths = exotic._key_pairs, []

        def recorded(first, second):
            pairs = key_pairs(first, second)
            widths.append(max(first[0].size, second[0].size))
            assert pairs[0].max() < 4 ** first[0].size and pairs[1].max() < 4 ** second[0].size
            return pairs

        monkeypatch.setattr(exotic, "_key_pairs", recorded)
        big = distinguished_representatives(3)[-1]
        assert max(big.ranks) == 3 and is_isomorphic(big, big)
        assert max(widths) == 9 and 4 ** (2 * 9) < 2**63
        # At rank 4, GL_4 alone has 4**16 candidates: refused before a stack.
        no_gl(monkeypatch)
        t = Z4Triangle(zero_morphism(4, 1), zero_morphism(1, 1), zero_morphism(1, 4))
        with pytest.raises(ValueError, match="too large"):
            is_isomorphic(t, t)

    def test_rank_four_is_refused_before_any_stack(self):
        big = zero_triangle()
        for _ in range(4):
            big = big.direct_sum(two_triangle())
        with pytest.raises(ValueError, match="too large"):
            is_isomorphic(big, big)

    def test_an_oversized_join_is_refused_before_it_is_allocated(self):
        # (0, id, id) at rank 3: (v f, g v) = (0, v) and (f u, u h) = (0, u),
        # so all 86 016**2 pairs of GL_3 meet on the key 0, 59 GB of
        # indices.
        t = Z4Triangle(zero_morphism(3, 3), identity_morphism(3), identity_morphism(3))
        general_linear(3)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^a key join of 7398752256 pairs "
                                                 r"exceeds the bound of 8388608$"):
                is_isomorphic(t, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Less than one index array of a join at the bound.
        assert peak < 8 * exotic._JOIN_PAIRS

    def test_a_join_at_the_bound_runs(self, monkeypatch):
        # (0, id, id) at rank 2 joins 96**2 pairs, all of GL_2 squared.
        t = Z4Triangle(zero_morphism(2, 2), identity_morphism(2), identity_morphism(2))
        monkeypatch.setattr(exotic, "_JOIN_PAIRS", 96**2)
        assert is_isomorphic(t, t)
        monkeypatch.setattr(exotic, "_JOIN_PAIRS", 96**2 - 1)
        with pytest.raises(ValueError, match="^a key join of 9216 pairs exceeds the bound of 9215$"):
            is_isomorphic(t, t)

    def test_rank_two_builds_no_rank_three_stack(self, monkeypatch, fresh_verdicts):
        # Every stack a key join draws comes from _all_matrices or
        # general_linear; membership draws none.
        shapes = []

        def recorded(target, source):
            shapes.append((target, source))
            return _all_matrices(target, source)

        monkeypatch.setattr(exotic, "_all_matrices", recorded)
        monkeypatch.setattr(exotic, "general_linear", lambda rank: pytest.fail("GL built"))
        assert verify_axioms(2).passed and verify_axioms(3).passed
        assert len(shapes) == 16 * 3 and max(max(shape) for shape in shapes) == 1

    def test_a_join_plans_at_the_rank_its_pairs_use(self, monkeypatch):
        # A join of two rank-1 triangles draws GL_1 alone, and membership
        # at bound 3 draws nothing.
        gl, ranks = general_linear, []
        monkeypatch.setattr(exotic, "general_linear", lambda rank: ranks.append(rank) or gl(rank))
        monkeypatch.setattr(exotic, "_all_matrices", lambda t, s: pytest.fail("stack built"))
        assert is_isomorphic(two_triangle(), two_triangle())
        assert ranks == [1, 1, 1]
        assert in_distinguished_class(two_triangle(), 3)
        assert not in_distinguished_class(rank_one_candidates()[0], 3)
        assert ranks == [1, 1, 1]

    def test_join_matches_per_pair_reference(self):
        # Isomorphism of every membership query with every representative
        # of its ranks, and TR3 of the rank-one candidates.
        reps = distinguished_representatives(2)
        for t in membership_queries()[::3]:
            for r in reps:
                assert is_isomorphic(t, r) == isomorphic_by_pair_join(t, r)
        cands = rank_one_candidates()
        verdicts = tr3_verdicts(cands)
        assert verdicts.tolist() == [[tr3_by_pair_join(t1, t2) for t2 in cands] for t1 in cands]
        assert (~verdicts).sum() == 63

    def test_members_match_per_pair_reference(self):
        # Every exact triangle of ranks <= 2 with at most 8 entries.
        triangles = exact_triangles(2, 8)
        members = [in_distinguished_class(t) for t in triangles]
        assert members == members_by_pair_join(triangles, 2)
        assert (len(triangles), sum(members)) == (5151, 584)

    def test_failing_rank_one_pairs_fail_rotation_and_tr3(self, monkeypatch, fresh_verdicts):
        assert verify_axioms(1).passed
        monkeypatch.setattr(exotic, "_pair_join", lambda t1, t2, invertible: False)
        monkeypatch.setattr(exotic, "in_distinguished_class", lambda t, max_rank=2: False)
        # The verdicts of the first call stand until the cache is cleared.
        assert verify_axioms(1).passed
        exotic._elementary_verdicts.cache_clear()
        report = verify_axioms(1)
        assert not report.passed
        # The sums step reads the incidence alone and searches nothing.
        assert [ok for _, ok in report.steps] == [True, True, False, True, False]

    def test_verification_is_planned_once_per_bound(self, monkeypatch, fresh_verdicts):
        # The 16 elementary TR3 pairs and the 4 rotations are decided on
        # the first call of a process and serve every bound.
        join, member, pairs, queries = exotic._pair_join, in_distinguished_class, [], []
        monkeypatch.setattr(exotic, "_pair_join", lambda t1, t2, invertible:
                            pairs.append((t1, t2)) or join(t1, t2, invertible))
        monkeypatch.setattr(exotic, "in_distinguished_class", lambda t, max_rank=2:
                            queries.append(t) or member(t, max_rank))
        assert verify_axioms(2).passed and verify_axioms(2).passed and verify_axioms(3).passed
        elems = elementary_triangles()
        assert pairs == list(itertools.product(elems, repeat=2))
        assert queries == [t.rotate() for t in elems]
        _, rotations, tr3 = exotic._elementary_verdicts()
        assert tr3.tolist() == [[tr3_by_brute_force(t1, t2) for t2 in elems] for t1 in elems]
        assert rotations.tolist() == [any(isomorphic_by_brute_force(t.rotate(), r) for r in elems)
                                      for t in elems]
        assert tr3.all() and rotations.all()


class TestMembershipLemma:
    """in_distinguished_class's reduction (the lemma in its docstring)
    against isomorphism with a representative by the test's pair join."""

    def test_all_even_triangles_at_rank_two(self):
        # (2A, 2B, 2C) is in the class iff C B A = I mod 2: one member per
        # A and B in GL_2(F_2).
        triangles = [Z4Triangle(*(Z4Morphism.from_matrix(2 * np.array(bits[n:n + 4]).reshape(2, 2))
                                  for n in (0, 4, 8)))
                     for bits in itertools.product((0, 1), repeat=12)]
        members = [in_distinguished_class(t) for t in triangles]
        assert members == members_by_pair_join(triangles, 2)
        gl_f2 = {tuple((m % 2).ravel()) for m in general_linear(2)}
        assert sum(members) == len(gl_f2) ** 2 == 36

    def test_seeded_rank_three_conjugates_and_perturbations(self):
        rng = np.random.default_rng(44)
        reps = distinguished_representatives(3)
        perturbed = []
        for n in rng.choice(len(reps), 12, replace=False):
            t = conjugate(reps[n], *(random_gl(rng, r) for r in reps[n].ranks))
            # In the class by construction.
            assert in_distinguished_class(t, 3), t
            maps = [m.matrix.copy() for m in (t.f, t.g, t.h)]
            k = rng.choice([k for k, m in enumerate(maps) if m.size])
            maps[k].flat[rng.integers(maps[k].size)] += rng.integers(1, 4)
            perturbed.append(Z4Triangle(*(Z4Morphism.from_matrix(m, s, r) for m, s, r in
                                          zip(maps, t.ranks, t.ranks[1:] + t.ranks[:1]))))
        members = [in_distinguished_class(t, 3) for t in perturbed]
        assert members == members_by_pair_join(perturbed, 3)
        assert 0 < sum(members) < len(members)

    def test_the_swap_triangle_is_exact_and_not_a_member(self):
        t = swap_triangle()
        assert t.is_candidate
        assert not in_distinguished_class(t)
        assert members_by_pair_join([t], 2) == [False]

    def test_rank_five_is_decided_without_gl(self, monkeypatch):
        rng = np.random.default_rng(5)
        five = functools.reduce(Z4Triangle.direct_sum, [two_triangle()] * 5)
        member = conjugate(five, *(random_gl(rng, 5) for _ in range(3)))
        # The swap triangle plus three 2-triangles has C B A = swap (+) I.
        other = functools.reduce(Z4Triangle.direct_sum, [two_triangle()] * 3, swap_triangle())
        non_member = conjugate(other, *(random_gl(rng, 5) for _ in range(3)))
        no_gl(monkeypatch)
        assert in_distinguished_class(member, max_rank=5)
        assert not in_distinguished_class(non_member, max_rank=5)
        assert non_member.is_candidate


class TestVerification:
    def test_axioms_pass_rank_two(self):
        report = verify_axioms(2)
        assert report.passed
        assert len(report.steps) == 5

    def test_one_failed_step_fails_the_report(self, monkeypatch):
        # passed is read off the steps, so it cannot disagree with them.
        composites, rotations, tr3 = exotic._elementary_verdicts()
        monkeypatch.setattr(exotic, "_elementary_verdicts",
                            lambda: (np.zeros_like(composites), rotations, tr3))
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
