"""Polynomial-action oracle: unstable axioms, Cartan behavior, and the
equality test it supports.  Everything here is independent of the Adem
rewriting engine, which is exactly what makes it a useful cross-check."""

import collections
import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from torsionlab import (
    BOCKSTEIN,
    OracleAlgebra,
    P,
    PrimeMismatchError,
    Sq,
    SteenrodElement,
    act,
    adem_normalize,
    admissible_basis,
    multiply,
    oracle_equal,
    parse_expression,
)
from torsionlab.oracle import _orbit_action, _step

from test_acceptance import criterion_2_words


def el(text, p):
    return parse_expression(text, p)


class TestUnstableAction:
    def test_sq_on_single_variable(self):
        A = OracleAlgebra(2, 1)
        x = A.x(0)
        # Sq^0 = 1, Sq^1 x = x^2, Sq^i x = 0 for i > 1 on a degree-1 class.
        assert act(el("Sq^1", 2), x) == x * x
        assert act(el("Sq^2", 2), x).is_zero()

    def test_sq_total_squaring(self):
        A = OracleAlgebra(2, 2)
        x, y = A.x(0), A.x(1)
        v = x * y
        # Cartan: Sq^2(xy) = Sq^1x Sq^1y = x^2 y^2.
        assert act(el("Sq^2", 2), v) == (x * x) * (y * y)
        assert act(el("Sq^1", 2), v) == (x * x) * y + x * (y * y)

    def test_p_on_polynomial_generator(self):
        p = 3
        A = OracleAlgebra(p, 1)
        x = A.x(0)
        # P^1 x = x^p on a degree-2 class at odd p.
        cube = x * x * x
        assert act(el("P^1", p), x) == cube
        assert act(el("P^2", p), x).is_zero()

    def test_bockstein_is_derivation(self):
        p = 3
        A = OracleAlgebra(p, 2)
        y0, y1 = A.y(0), A.y(1)
        x0, x1 = A.x(0), A.x(1)
        # b(y_i) = x_i, b(x_i) = 0, with the sign rule on products.
        assert act(el("b", p), y0) == x0
        assert act(el("b", p), x0).is_zero()
        assert act(el("b", p), y0 * y1) == x0 * y1 - y0 * x1

    def test_bockstein_squares_to_zero_on_products(self):
        p = 5
        A = OracleAlgebra(p, 3)
        v = A.product_class(3, 0)
        assert act(el("b", p), act(el("b", p), v)).is_zero()

    def test_exterior_generators_square_to_zero(self):
        A = OracleAlgebra(3, 1)
        y = A.y(0)
        assert (y * y).is_zero()

    def test_anticommutativity(self):
        A = OracleAlgebra(3, 2)
        y0, y1 = A.y(0), A.y(1)
        assert y1 * y0 == -(y0 * y1)


class TestActionIsModuleStructure:
    def test_composition_matches_multiplication(self):
        # Acting by a product equals acting twice, letter by letter.
        p = 3
        A = OracleAlgebra(p, 4)
        v = A.product_class(1, 3)
        ab = multiply(el("P^1", p), el("b", p))
        assert act(ab, v) == act(el("P^1", p), act(el("b", p), v))

    def test_linearity(self):
        A = OracleAlgebra(2, 3)
        v = A.product_class(0, 3)
        s = el("Sq^2 + Sq^1 Sq^1", 2)
        assert act(s, v) == act(el("Sq^2", 2), v) + act(el("Sq^1 Sq^1", 2), v)


def _orbits_of(v, q, r):
    """Rebuild orbit states from an explicit element of E(y) (x) F_p[x] on
    q y-carrying and r plain generators: the y block is explicit, and each
    multiset of plain x-exponents is one orbit, all of whose monomials must
    be present with one coefficient."""
    p, n = v.algebra.prime, q + r
    rebuilt, sizes = {}, {}
    for exps, c in v.terms.items():
        ys, xs = ((), exps) if p == 2 else (exps[:n], exps[n:])
        assert not any(ys[q:])
        key = (tuple(zip(ys[:q], xs[:q])),
               tuple(sorted(collections.Counter(xs[q:]).items(), reverse=True)))
        assert rebuilt.get(key, c) == c
        rebuilt[key] = c
        sizes[key] = sizes.get(key, 0) + 1
    for (_, part), size in sizes.items():
        orbit_size = math.factorial(r)
        for _, cnt in part:
            orbit_size //= math.factorial(cnt)
        assert size == orbit_size
    return rebuilt


def _random_letter(rng, p, top):
    if p > 2 and rng.random() < 0.4:
        return BOCKSTEIN
    return Sq(rng.randint(1, top)) if p == 2 else P(rng.randint(1, top))


def _check_against_direct_action(rng, p, q, r):
    A = OracleAlgebra(p, q + r)
    for _ in range(10):
        word = tuple(_random_letter(rng, p, 4 if p == 2 else 3)
                     for _ in range(rng.randint(1, 3)))
        e = SteenrodElement.from_word(p, word)
        direct = act(e, A.product_class(q, r))
        assert _orbits_of(direct, q, r) == _orbit_action(e, q, r)


class TestSymmetricAction:
    """The orbit engine on y_1..y_q x_{q+1}..x_{q+r} must agree with the
    direct polynomial computation at every prime."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_direct_action(self, k):
        _check_against_direct_action(random.Random(k), 2, 0, k)

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_matches_direct_action_odd_prime(self, p, q):
        r = 3 if q == 0 else 2
        _check_against_direct_action(random.Random(100 * p + q), p, q, r)

    @pytest.mark.parametrize("p,q", [(2, 0), (3, 0), (3, 2), (5, 1)])
    def test_step_on_any_orbit(self, p, q):
        # The test classes only ever reach p-power exponents, where every
        # C(a, v) mod p is 0 or 1.  Arbitrary orbits also exercise the
        # binomial weights of the Cartan formula.
        rng = random.Random(10 * p + q)
        r = 3
        A = OracleAlgebra(p, q + r)
        for _ in range(30):
            ys = tuple((rng.randint(0, 1), rng.randint(0, 4)) for _ in range(q))
            xs = [rng.randint(1, 5) for _ in range(r)]
            part = tuple(sorted(collections.Counter(xs).items(), reverse=True))
            y_bits = tuple(bit for bit, _ in ys) + (0,) * r
            y_exps = tuple(e for _, e in ys)
            orbit_sum = A.element({
                (perm if p == 2 else y_bits + y_exps + perm): 1
                for perm in set(itertools.permutations(xs))})
            g = _random_letter(rng, p, 5 if p == 2 else 3)
            direct = act(SteenrodElement.from_word(p, (g,)), orbit_sum)
            stepped = {}
            for orbit, c in _step(p, (ys, part), g):
                stepped[orbit] = (stepped.get(orbit, 0) + c) % p
            assert _orbits_of(direct, q, r) == {
                orbit: c for orbit, c in stepped.items() if c}


class TestOracleEqual:
    def test_confirms_adem_rewrites(self):
        pairs = [
            ("Sq^1 Sq^2", "Sq^3", 2),
            ("Sq^2 Sq^2", "Sq^3 Sq^1", 2),
            ("P^1 P^1", "2 P^2", 3),
            ("P^1 b P^1", "P^2 b + b P^2", 3),
            ("P^3 P^3 P^3", "(P^7 P^1 - P^8) P^1", 3),
        ]
        for lhs, rhs, p in pairs:
            assert oracle_equal(el(lhs, p), el(rhs, p), 40)

    def test_distinguishes_unequal(self):
        assert not oracle_equal(el("Sq^2", 2), el("Sq^1 Sq^1", 2), 10)
        assert not oracle_equal(el("P^2", 3), el("2 P^2", 3), 20)
        assert not oracle_equal(el("P^1 b", 3), el("b P^1", 3), 20)

    def test_zero_cases(self):
        z = SteenrodElement.zero(2)
        assert oracle_equal(z, z, 5)
        assert oracle_equal(el("Sq^1 Sq^1", 2), z, 5)

    def test_difference_above_degree_bound_is_not_equal(self):
        # The bound is raised to the degree of a - b, so an element of
        # higher degree than max_degree is still told apart from zero.
        assert oracle_equal(el("Sq^41", 2), SteenrodElement.zero(2), 40) is False
        assert oracle_equal(el("P^12", 3), SteenrodElement.zero(3), 40) is False

    def test_odd_prime_degree_60_under_one_second(self):
        e = el("P^6 P^9", 3)
        normal = adem_normalize(e)
        assert not normal.is_zero()
        control = normal + el("P^15", 3)
        start = time.perf_counter()
        assert oracle_equal(e, normal, 60) is True
        assert oracle_equal(e, control, 60) is False
        assert time.perf_counter() - start < 1.0

    def test_prime_mismatch(self):
        with pytest.raises(PrimeMismatchError):
            oracle_equal(el("Sq^1", 2), el("b", 3), 5)

    def test_faithful_on_admissible_basis(self):
        # Admissible monomials act linearly independently on the test
        # classes: no nonzero combination is declared equal to zero.
        from torsionlab import admissible_basis

        for p, deg in [(2, 8), (3, 12)]:
            basis = admissible_basis(p, deg)
            for m in basis:
                e = SteenrodElement.from_word(p, m.word)
                assert not oracle_equal(e, SteenrodElement.zero(p), deg)


@settings(max_examples=40, deadline=None)
@given(
    p=hs.sampled_from([2, 3, 5]),
    data=hs.data(),
)
def test_random_word_agrees_with_normal_form(p, data):
    length = data.draw(hs.integers(min_value=1, max_value=4))
    word = []
    for _ in range(length):
        if p > 2 and data.draw(hs.booleans()):
            word.append(BOCKSTEIN)
        else:
            word.append(Sq(data.draw(hs.integers(1, 5))) if p == 2
                        else P(data.draw(hs.integers(1, 4))))
    e = SteenrodElement.from_word(p, tuple(word))
    from torsionlab import degree

    d = degree(e)
    bound = d if isinstance(d, int) else 10
    assert oracle_equal(e, adem_normalize(e), min(bound, 30))


def _plain_oracle_equal(a, b, max_degree, images):
    """oracle_equal's test on the same classes, computed with plain `act`.
    images caches act(monomial, class) across calls; act is linear."""
    diff = a - b
    if diff.is_zero():
        return True
    p = a.prime
    d = max(max_degree, max(m.degree for m in diff.terms))
    r = max(1, d) if p == 2 else d // (2 * (p - 1)) + 1
    bocksteins = max(sum(g.kind == "b" for g in m.word) for m in diff.terms)
    for q in range(bocksteins + 1):
        A = OracleAlgebra(p, q + r)
        total = A.element({})
        for mono, c in diff.terms.items():
            key = (mono, q, r)
            if key not in images:
                images[key] = act(SteenrodElement(p, {mono: 1}),
                                  A.product_class(q, r))
            total = total + A.element(
                {exps: c * v for exps, v in images[key].terms.items()})
        if not total.is_zero():
            return False
    return True


# Plain act on x_1..x_d at p = 2 holds up to C(d, d/2) monomials, so the
# p = 2 words are cross-checked only up to this degree.
PLAIN_P2_MAX_DEGREE = 10


@pytest.mark.parametrize("p", [2, 3, 5])
def test_orbit_oracle_agrees_with_plain_act_on_criterion_2_words(p):
    rng = random.Random(1000 + p)
    images = {}
    for e, d in criterion_2_words(p):
        if p == 2 and d > PLAIN_P2_MAX_DEGREE:
            continue
        normal = adem_normalize(e)
        against = [normal, SteenrodElement.zero(p)]
        basis = admissible_basis(p, d)
        if basis:
            control = normal + SteenrodElement.from_word(p, rng.choice(basis).word)
            assert not oracle_equal(e, control, d)
            against.append(control)
        for rhs in against:
            assert oracle_equal(e, rhs, d) is _plain_oracle_equal(
                e, rhs, d, images), (e, rhs)
