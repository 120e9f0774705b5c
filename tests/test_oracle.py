"""Polynomial-action oracle: unstable axioms, Cartan behavior, and the
equality test it supports.  Everything here is independent of the Adem
rewriting engine, which is exactly what makes it a useful cross-check.
The slow reference `act`, which acts letter by letter on explicit
monomials of `OracleAlgebra`, is defined here and checks the orbit engine."""

import collections
import importlib
import itertools
import math
import pathlib
import random
import time
from dataclasses import dataclass, field
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import torsionlab
from torsionlab import (
    BOCKSTEIN,
    Generator,
    P,
    Prime,
    PrimeMismatchError,
    Sq,
    SteenrodElement,
    adem_normalize,
    admissible_basis,
    degree,
    multiply,
    oracle_equal,
    parse_expression,
)
from torsionlab import oracle
from torsionlab.oracle import _orbit_action, _step, _y_splits, checked_degree
from torsionlab.steenrod import lucas

from test_acceptance import criterion_2_words


def el(text, p):
    return parse_expression(text, p)


# ---------------------------------------------------------------------------
# Plain action, letter by letter on explicit monomials: the slow reference
# ---------------------------------------------------------------------------

Exps = tuple[int, ...]


@dataclass(frozen=True)
class OracleAlgebra:
    """F_2[x_1..x_k], or E(y_1..y_k) (x) F_p[x_1..x_k] at odd p."""

    prime: int
    gens: int

    def __post_init__(self):
        Prime(self.prime)
        if self.gens < 0:
            raise ValueError("generator count must be non-negative")

    @property
    def width(self) -> int:
        # Length of an exponent tuple.
        return self.gens if self.prime == 2 else 2 * self.gens

    def element(self, terms: dict[Exps, int]) -> "OracleElement":
        return OracleElement(self, dict(terms))

    def one(self) -> "OracleElement":
        return self.element({(0,) * self.width: 1})

    def x(self, i: int) -> "OracleElement":
        exps = [0] * self.width
        exps[i if self.prime == 2 else self.gens + i] = 1
        return self.element({tuple(exps): 1})

    def y(self, i: int) -> "OracleElement":
        if self.prime == 2:
            raise ValueError("exterior generators only exist at odd p")
        exps = [0] * self.width
        exps[i] = 1
        return self.element({tuple(exps): 1})

    def product_class(self, y_count: int, x_count: int) -> "OracleElement":
        """Square-free product y_1..y_q x_{q+1}..x_{q+r} (all x at p = 2)."""
        if self.prime == 2:
            if y_count:
                raise ValueError("no exterior generators at p=2")
            exps = tuple(1 if i < x_count else 0 for i in range(self.gens))
            return self.element({exps: 1})
        if y_count + x_count > self.gens:
            raise ValueError("not enough generators")
        ys = tuple(1 if i < y_count else 0 for i in range(self.gens))
        xs = tuple(1 if y_count <= i < y_count + x_count else 0
                   for i in range(self.gens))
        return self.element({ys + xs: 1})


@dataclass
class OracleElement:
    algebra: OracleAlgebra
    terms: dict[Exps, int] = field(default_factory=dict)

    def __post_init__(self):
        p = self.algebra.prime
        clean = {}
        for exps, c in self.terms.items():
            if len(exps) != self.algebra.width:
                raise ValueError("exponent tuple has wrong length")
            if p != 2 and any(e > 1 for e in exps[:self.algebra.gens]):
                raise ValueError("exterior exponents must be 0 or 1")
            c %= p
            if c:
                clean[exps] = c
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OracleElement):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    def __add__(self, other: "OracleElement") -> "OracleElement":
        if self.algebra != other.algebra:
            raise ValueError("mismatched oracle algebras")
        p = self.algebra.prime
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = (terms.get(exps, 0) + c) % p
        return OracleElement(self.algebra, terms)

    def __neg__(self) -> "OracleElement":
        return OracleElement(self.algebra, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "OracleElement") -> "OracleElement":
        return self + (-other)

    def __mul__(self, other: "OracleElement") -> "OracleElement":
        if self.algebra != other.algebra:
            raise ValueError("mismatched oracle algebras")
        p, k = self.algebra.prime, self.algebra.gens
        out: dict[Exps, int] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                if p == 2:
                    exps = tuple(a + b for a, b in zip(ea, eb))
                    sign = 1
                else:
                    ya, yb = ea[:k], eb[:k]
                    if any(a and b for a, b in zip(ya, yb)):
                        continue  # y_i^2 = 0
                    # Koszul sign from moving each y of b past the later
                    # y's of a (variable-major canonical order).
                    swaps = sum(yb[i] * sum(ya[i + 1:]) for i in range(k))
                    sign = -1 if swaps % 2 else 1
                    exps = (tuple(a + b for a, b in zip(ya, yb))
                            + tuple(a + b for a, b in zip(ea[k:], eb[k:])))
                c = (out.get(exps, 0) + sign * ca * cb) % p
                if c:
                    out[exps] = c
                else:
                    out.pop(exps, None)
        return OracleElement(self.algebra, out)


def _distributions(exps: Exps, budget: int, p: int) -> Iterator[tuple[Exps, int]]:
    """All (increment vector, prod of C(e_j, v_j) mod p) with sum = budget."""
    n = len(exps)

    def rec(j: int, remaining: int, acc: list[int], weight: int):
        if j == n:
            if remaining == 0:
                yield tuple(acc), weight
            return
        e = exps[j]
        for v in range(min(e, remaining) + 1):
            c = lucas(e, v, p)
            if c:
                acc.append(v)
                yield from rec(j + 1, remaining - v, acc, (weight * c) % p)
                acc.pop()

    yield from rec(0, budget, [], 1)


def _apply_p(i: int, terms: dict[Exps, int], k: int, p: int) -> dict[Exps, int]:
    """P^i on terms whose first k exponents are exterior (k = 0 for Sq^i)."""
    out: dict[Exps, int] = {}
    for exps, c in terms.items():
        ys, xs = exps[:k], exps[k:]
        for v, w in _distributions(xs, i, p):
            ne = ys + tuple(e + d * (p - 1) for e, d in zip(xs, v))
            val = (out.get(ne, 0) + c * w) % p
            if val:
                out[ne] = val
            else:
                out.pop(ne, None)
    return out


def _apply_bockstein(terms: dict[Exps, int], k: int, p: int) -> dict[Exps, int]:
    out: dict[Exps, int] = {}
    for exps, c in terms.items():
        ys, xs = list(exps[:k]), list(exps[k:])
        seen_odd = 0
        for j in range(k):
            if ys[j]:
                sign = -1 if seen_odd % 2 else 1
                ny, nx = list(ys), list(xs)
                ny[j] = 0
                nx[j] += 1
                ne = tuple(ny) + tuple(nx)
                val = (out.get(ne, 0) + sign * c) % p
                if val:
                    out[ne] = val
                else:
                    out.pop(ne, None)
                seen_odd += 1
    return out


def _apply_generator(g: Generator, terms: dict[Exps, int],
                     algebra: OracleAlgebra) -> dict[Exps, int]:
    p, k = algebra.prime, algebra.gens
    if g.kind == "Sq":
        return _apply_p(g.index, terms, 0, 2)
    if g.kind == "P":
        return _apply_p(g.index, terms, k, p)
    return _apply_bockstein(terms, k, p)


def act(op: SteenrodElement, v: OracleElement) -> OracleElement:
    """Action of op (possibly a raw inadmissible word) on v, letters applied
    right to left, products by the Cartan formula, sums linearly."""
    algebra = v.algebra
    if op.prime != algebra.prime:
        raise PrimeMismatchError(
            f"operation over p={op.prime}, oracle over p={algebra.prime}")
    p = algebra.prime
    total: dict[Exps, int] = {}
    for mono, coef in op.terms.items():
        terms = dict(v.terms)
        for g in reversed(mono.word):
            if not terms:
                break
            terms = _apply_generator(g, terms, algebra)
        for exps, c in terms.items():
            val = (total.get(exps, 0) + coef * c) % p
            if val:
                total[exps] = val
            else:
                total.pop(exps, None)
    return OracleElement(algebra, total)


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


def _level(e, p):
    """The k with e == p^k; every plain exponent the test classes reach is
    a power of p, which is what lets an orbit be a count vector."""
    k = 0
    while e > 1 and e % p == 0:
        e //= p
        k += 1
    assert e == 1, "plain exponent is not a power of p"
    return k


def _orbits_of(v, q, r):
    """Rebuild orbit states from an explicit element of E(y) (x) F_p[x] on
    q y-carrying and r plain generators: the y block is explicit, and the
    plain x's are counted per level p^k.  All monomials of an orbit must be
    present, with one coefficient."""
    p, n = v.algebra.prime, q + r
    rebuilt, sizes = {}, {}
    for exps, c in v.terms.items():
        ys, xs = ((), exps) if p == 2 else (exps[:n], exps[n:])
        assert not any(ys[q:])
        levels = collections.Counter(_level(e, p) for e in xs[q:])
        counts = tuple(levels[k] for k in range(max(levels, default=-1) + 1))
        key = (tuple(zip(ys[:q], xs[:q])), counts)
        assert rebuilt.get(key, c) == c
        rebuilt[key] = c
        sizes[key] = sizes.get(key, 0) + 1
    for (_, counts), size in sizes.items():
        orbit_size = math.factorial(r)
        for cnt in counts:
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
        # The test classes only ever reach p-power plain exponents.  Random
        # count vectors, with gaps and several x's per level, and arbitrary
        # y exponents also exercise the binomial weights C(c'_{k+1}, t_k).
        rng = random.Random(10 * p + q)
        for _ in range(40):
            counts = [rng.randint(0, 2) for _ in range(rng.randint(1, 3))]
            counts[-1] = max(counts[-1], 1)
            counts = tuple(counts)
            r = sum(counts)
            A = OracleAlgebra(p, q + r)
            ys = tuple((rng.randint(0, 1), rng.randint(0, 4)) for _ in range(q))
            xs = [p ** k for k, c in enumerate(counts) for _ in range(c)]
            y_bits = tuple(bit for bit, _ in ys) + (0,) * r
            y_exps = tuple(e for _, e in ys)
            orbit_sum = A.element({
                (perm if p == 2 else y_bits + y_exps + perm): 1
                for perm in set(itertools.permutations(xs))})
            if p > 2 and rng.random() < 0.3:
                g = BOCKSTEIN
            else:
                # Half the indices raise a random choice t of the x's.
                i = sum(rng.randint(0, c) * p ** k for k, c in enumerate(counts))
                if i == 0 or rng.random() < 0.5:
                    i = rng.randint(1, sum(xs) + 2)
                g = Sq(i) if p == 2 else P(i)
            direct = act(SteenrodElement.from_word(p, (g,)), orbit_sum)
            # One letter reaches each orbit once, with a nonzero coefficient.
            stepped = list(_step(p, (ys, counts), g))
            assert all(c % p for _, c in stepped)
            assert len({orbit for orbit, _ in stepped}) == len(stepped)
            assert _orbits_of(direct, q, r) == {
                orbit: c % p for orbit, c in stepped}


# ---------------------------------------------------------------------------
# The x step against its plain recursion
# ---------------------------------------------------------------------------

def reference_x_step(p, counts, i):
    """_x_step as a recursion through every level, level 0 included, with
    every binomial from `lucas`: the form the memoized step replaced."""
    room = [0]
    for k, c in enumerate(counts):
        room.append(room[k] + c * p ** k)
    out = []
    new = [0] * (len(counts) + 1)

    def rec(k, left, stay, weight):
        if k < 0:
            new[0] = stay
            top = len(new)
            while top and not new[top - 1]:
                top -= 1
            out.append((tuple(new[:top]), weight))
            return
        unit = p ** k
        for t in range(max(0, -((room[k] - left) // unit)),
                       min(counts[k], left // unit) + 1):
            c = lucas(stay + t, t, p)
            if c:
                new[k + 1] = stay + t
                rec(k - 1, left - t * unit, counts[k] - t, weight * c % p)

    if i <= room[-1]:
        rec(len(counts) - 1, i, 0, 1)
    return tuple(out)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_x_step_matches_reference_on_random_keys(p):
    # Count vectors with gaps and up to 5 levels; budgets of 0, of a random
    # choice of x's per level, anywhere up to the most the counts can
    # spend, and just past it.
    rng = random.Random(70 + p)
    keys = [(p, (), 0), (p, (), 1)]
    for _ in range(400):
        counts = [rng.randint(0, 4) for _ in range(rng.randint(1, 5))]
        counts[-1] = max(counts[-1], 1)
        room = sum(c * p ** k for k, c in enumerate(counts))
        chosen = sum(rng.randint(0, c) * p ** k for k, c in enumerate(counts))
        for i in (0, chosen, rng.randint(1, room), room, room + rng.randint(1, p)):
            keys.append((p, tuple(counts), i))
    for key in keys:
        assert oracle._x_step.__wrapped__(*key) == reference_x_step(*key), key
        assert oracle._x_step(*key) == reference_x_step(*key), key


def test_x_step_matches_reference_on_a_referee_stream(monkeypatch):
    # Every key that the first 934 ops of the benchmark's referee stream
    # (seed 9001) step, from an empty memo of word states.
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    referee = workloads.Referee(9001)
    ops = list(itertools.islice(referee.ops(), 934))
    step, keys = oracle._x_step, set()

    def recorded(*key):
        keys.add(key)
        return step(*key)

    monkeypatch.setattr(oracle, "_x_step", recorded)
    monkeypatch.setattr(oracle, "_STATES", {})
    verdicts = [referee.run(torsionlab, op) for op in ops]
    assert verdicts == [op[3] is None for op in ops]
    assert len(keys) > 1000 and {key[0] for key in keys} == {2, 3, 5}
    for key in keys:
        assert step.__wrapped__(*key) == reference_x_step(*key), key


def test_step_binomials_equal_lucas():
    # The bounded memo behind the x step and the y splits, on the grid of
    # the binomial tests, and again on a part of it that the memo holds.
    grid = [(n, k, p) for p in (2, 3, 5, 7, 10007)
            for n in range(-40, 201) for k in range(-3, 211)]
    for key in grid:
        assert oracle._binomial(*key) == lucas(*key), key
    small = [(n, k, p) for n, k, p in grid if 0 <= n < 20 and k < 20]
    for key in small:
        oracle._binomial(*key)
    hits = oracle._binomial.cache_info().hits
    for key in small:
        assert oracle._binomial(*key) == lucas(*key), key
    info = oracle._binomial.cache_info()
    assert info.maxsize == 4096 and info.hits - hits == len(small)


# ---------------------------------------------------------------------------
# The partition engine, kept as the slow reference for the level engine.
# Its x block is a sorted (value, count) partition of arbitrary plain
# exponents, raised by the Cartan formula group by group and merged with
# multinomial counts.
# ---------------------------------------------------------------------------

def _splits(p, a, m, budget):
    """Ways to raise m exponents a by increments v with C(a, v) != 0 mod p,
    spending at most budget: (pieces, spent, weight) per way, where pieces
    holds (a + v(p-1), count) and weight is prod C(a, v)^count mod p."""
    steps = [(v, c) for v in range(1, min(a, budget) + 1)
             if (c := lucas(a, v, p))]
    out = []

    def rec(j, left, room, pieces, weight):
        if j == len(steps):
            rest = ((a, left),) if left else ()
            out.append((pieces + rest, budget - room, weight))
            return
        v, c = steps[j]
        for cnt in range(min(left, room // v) + 1):
            rec(j + 1, left - cnt, room - v * cnt,
                pieces + (((a + v * (p - 1), cnt),) if cnt else ()),
                weight * pow(c, cnt, p) % p)

    rec(0, m, budget, (), 1)
    return out


def _partition_x_step(p, part, i):
    """P^i on the orbit sum of a partition, all of i spent in the x block.

    A target orbit collects the pieces of every group's split; its
    coefficient is the multinomial count of ways the pieces of one target
    value came from different sources, times the splits' weights, mod p."""
    room = [0] * (len(part) + 1)  # most that the groups from g on can spend
    for g in range(len(part) - 1, -1, -1):
        room[g] = room[g + 1] + part[g][0] * part[g][1]
    out = {}

    def rec(g, left, pieces, weight):
        if g == len(part):
            merged = {}
            for val, cnt in pieces:
                merged.setdefault(val, []).append(cnt)
            coef = weight
            for cnts in merged.values():
                total = sum(cnts)
                for cnt in cnts[:-1]:
                    coef = coef * math.comb(total, cnt) % p
                    total -= cnt
            if coef:
                key = tuple(sorted(((val, sum(cnts)) for val, cnts in merged.items()),
                                   reverse=True))
                out[key] = (out.get(key, 0) + coef) % p
            return
        a, m = part[g]
        for group, spent, w in _splits(p, a, m, min(left, a * m)):
            if left - spent <= room[g + 1]:
                rec(g + 1, left - spent, pieces + group, weight * w % p)

    if i <= room[0]:
        rec(0, i, (), 1)
    return [(key, c) for key, c in out.items() if c]


def _partition_step(p, orbit, g):
    ys, part = orbit
    if g.kind == "b":
        sign = 1
        for j, (bit, e) in enumerate(ys):
            if bit:
                yield (ys[:j] + ((0, e + 1),) + ys[j + 1:], part), sign
                sign = -sign
        return
    for new_ys, spent, w in _y_splits(p, ys, g.index):
        for new_part, c in _partition_x_step(p, part, g.index - spent):
            yield (new_ys, new_part), w * c


def reference_orbit_action(op, q, r):
    """_orbit_action on partition orbits: (y block, partition) keys."""
    p = op.prime
    start = (((1, 0),) * q, ((1, r),) if r else ())
    total = {}
    for mono, coef in op.terms.items():
        state = {start: coef}
        for g in reversed(mono.word):
            nxt = {}
            for orbit, c in state.items():
                for new, w in _partition_step(p, orbit, g):
                    nxt[new] = (nxt.get(new, 0) + c * w) % p
            state = {orbit: c for orbit, c in nxt.items() if c}
        for orbit, c in state.items():
            total[orbit] = (total.get(orbit, 0) + c) % p
    return {orbit: c for orbit, c in total.items() if c}


def as_partitions(state, p):
    """Level-count orbits rewritten as the reference's partition orbits."""
    return {(ys, tuple((p ** k, c) for k, c in reversed(list(enumerate(counts)))
                       if c)): coef
            for (ys, counts), coef in state.items()}


def _random_word(rng, p, letters, top):
    return SteenrodElement.from_word(p, tuple(
        _random_letter(rng, p, top) for _ in range(letters)))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_level_engine_matches_partition_reference(p):
    # Random words and their (multi-term) normal forms; at p = 2 up to 48
    # plain x's, at odd p with Bocksteins on up to two y-carrying classes.
    rng = random.Random(7 * p)
    for _ in range(60):
        if p == 2:
            e = _random_word(rng, p, rng.randint(1, 4), 16)
            cases = [(0, rng.randint(max(1, degree(e) // 2), 48))]
        else:
            e = _random_word(rng, p, rng.randint(1, 5), 2 * p)
            cases = [(q, degree(e) // (2 * (p - 1)) + 1) for q in range(3)]
        for x in (e, adem_normalize(e)):
            for q, r in cases:
                assert as_partitions(_orbit_action(x, q, r), p) \
                    == reference_orbit_action(x, q, r), (x, q, r)



# ---------------------------------------------------------------------------
# The memo of word states
# ---------------------------------------------------------------------------

def _memo_cases():
    """Seeded words and their normal forms, each on classes with q up to 2
    and two values of r.  The odd-prime words are the same letters at
    p = 3 and p = 5, so a memo that mixed up p, q or r answers wrong."""
    rng = random.Random(18)
    cases = []
    for _ in range(12):
        words = {2: tuple(Sq(rng.randint(1, 8)) for _ in range(rng.randint(1, 4)))}
        words[3] = words[5] = tuple(
            BOCKSTEIN if rng.random() < 0.4 else P(rng.randint(1, 3))
            for _ in range(rng.randint(1, 4)))
        for p, word in words.items():
            e = SteenrodElement.from_word(p, word)
            r = degree(e) // (1 if p == 2 else 2 * (p - 1)) + 1
            for x in (e, adem_normalize(e)):
                cases += [(x, q, r + extra) for q in range(3) for extra in (0, 2)]
    return cases


def test_cold_and_warm_memo_agree_with_reference(monkeypatch):
    cases = _memo_cases()
    expected = [reference_orbit_action(x, q, r) for x, q, r in cases]
    cold = []
    for x, q, r in cases:
        oracle._STATES.clear()
        cold.append(_orbit_action(x, q, r))
    warm = [_orbit_action(x, q, r) for x, q, r in cases]
    # A memo far below the sample's size is emptied again and again.
    monkeypatch.setattr(oracle, "_STATES_MAXSIZE", 5)
    oracle._STATES.clear()
    tight = [_orbit_action(x, q, r) for x, q, r in cases]
    assert len(oracle._STATES) <= 5
    for (x, q, r), want, *got in zip(cases, expected, cold, warm, tight):
        for state in got:
            assert as_partitions(state, x.prime) == want, (x, q, r)


def test_returned_action_is_not_the_memo():
    for p, text, q, r in [(2, "Sq^2 Sq^1", 0, 4), (3, "P^1 b", 1, 2),
                          (5, "P^1 + b P^1", 2, 2)]:
        e = el(text, p)
        first = _orbit_action(e, q, r)
        want = dict(first)
        assert want
        for orbit in first:
            first[orbit] += 1
        first[((), (9,))] = 1
        assert _orbit_action(e, q, r) == want


def test_long_word_ends_at_its_first_empty_state():
    # Sq^1 Sq^1 = 0: the walk stops two letters in, with no recursion per
    # letter.
    oracle._STATES.clear()
    word = SteenrodElement.from_word(2, (Sq(1),) * 3000)
    start = time.perf_counter()
    assert oracle_equal(word, SteenrodElement.zero(2), 0) is True
    assert time.perf_counter() - start < 1.0
    assert len(oracle._STATES) == 2  # Sq^1 and Sq^1 Sq^1

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

    @pytest.mark.parametrize("p", [3, 5])
    def test_equal_operands_with_bocksteins(self, p):
        # The difference has no terms, so no test class tells them apart.
        x = el("b P^1 b + 2 P^2 b P^1 + b", p)
        for bound in (0, 1, 40):
            assert oracle_equal(x, x, bound)
        with pytest.raises(ValueError, match="^the degree bound must be non-negative, not -1$"):
            oracle_equal(x, x, -1)

    def test_negative_bound_is_refused_first(self):
        z = SteenrodElement.zero(2)
        for call in (lambda: oracle_equal(z, z, -1), lambda: checked_degree(z, -1)):
            with pytest.raises(ValueError, match="^the degree bound must be non-negative, not -1$"):
                call()

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

    def test_degree_180_word(self):
        # Too slow to run on partition orbits; on level counts it is fast.
        e = el("Sq^10 Sq^20 Sq^30 Sq^40 Sq^80", 2)
        normal = adem_normalize(e)
        assert oracle_equal(e, normal, 180) is True
        extra = random.Random(180).choice(admissible_basis(2, 180))
        control = normal + SteenrodElement.from_word(2, extra.word)
        assert oracle_equal(e, control, 180) is False

    def test_prime_mismatch(self):
        with pytest.raises(PrimeMismatchError):
            oracle_equal(el("Sq^1", 2), el("b", 3), 5)

    @pytest.mark.parametrize("lhs,rhs,max_degree,verdict,budget", [
        # Steps try each binomial they need, never a whole row of them.
        ("Sq^3000 Sq^2000", "Sq^5000", 0, False, 0.1),
        # 100 000 plain x's are one count.
        ("Sq^2 Sq^2", "Sq^3 Sq^1", 100000, True, 1.0),
    ])
    def test_large_indices_and_classes_stay_fast(self, lhs, rhs, max_degree,
                                                 verdict, budget):
        a, b = el(lhs, 2), el(rhs, 2)
        oracle._STATES.clear()
        oracle._x_step.cache_clear()
        oracle._binomial.cache_clear()
        start = time.perf_counter()
        assert oracle_equal(a, b, max_degree) is verdict
        assert time.perf_counter() - start < budget

    def test_classes_reach_the_most_bocksteins_of_any_term(self):
        # P^1 P^1 = 2 P^2 and b P^1 b != 0, which only y_1 y_2 x_3.. sees.
        lhs = el("P^1 P^1 + b P^1 b", 3)
        assert oracle_equal(lhs, el("2 P^2", 3), 10) is False
        assert oracle_equal(lhs, el("2 P^2 + b P^1 b", 3), 10) is True

    def test_large_prime(self):
        assert oracle_equal(el("P^1 P^2", 10007), el("3 P^3", 10007), 0)
        assert not oracle_equal(el("P^1 P^2", 10007), el("P^3", 10007), 0)

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
