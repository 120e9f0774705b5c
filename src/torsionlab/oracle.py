"""Steenrod action on polynomial-type algebras, used as an independent
cross-check of the Adem rewriting engine.

For p = 2 the algebra is F_2[x_1..x_k] with |x_i| = 1 and the total square
Sq(x) = x + x^2, so Sq^v(x^e) = C(e,v) x^{e+v}.  For odd p it is
E(y_1..y_k) (x) F_p[x_1..x_k] with |y_i| = 1, |x_i| = 2, beta(y_i) = x_i,
P^v(x^e) = C(e,v) x^{e+v(p-1)}, and beta acting as a graded derivation.
Raw (inadmissible) words act letter by letter, products via the Cartan
formula, so normalized and unnormalized elements can be compared without
trusting the rewriting engine.

`act` computes the action on explicit monomials; it is the slow reference.
`oracle_equal` runs one orbit engine at every prime on the test classes
y_1..y_q x_{q+1}..x_{q+r} (q = 0 at p = 2).  Its state has two blocks: the
q generators that carry a y are kept explicit, as exterior bits plus
x-exponents, and the r symmetric x's are kept as a sorted (value, count)
partition that stands for its whole orbit under permutations of them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterator

from .steenrod import (
    Generator,
    Prime,
    PrimeMismatchError,
    SteenrodElement,
    lucas,
)

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

    def monomial_degree(self, exps: Exps) -> int:
        if self.prime == 2:
            return sum(exps)
        k = self.gens
        return sum(exps[:k]) + 2 * sum(exps[k:])

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


# ---------------------------------------------------------------------------
# Plain action, letter by letter on explicit monomials: the slow reference
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Orbit engine, one for every prime
#
# Every operation commutes with permuting the r plain x's, and the test
# class is symmetric in them, so all that a word makes of it is a sum of
# Sigma_r-orbit sums.  An Orbit is (y block, x block) as described in the
# module docstring, with the coefficient of every monomial in the orbit.
# P^i (Sq^i at p = 2) splits its index between the blocks by the Cartan
# formula.  beta acts on the y block alone; since beta x = 0, no Koszul
# sign crosses the blocks.
# ---------------------------------------------------------------------------

YBlock = tuple[tuple[int, int], ...]
Partition = tuple[tuple[int, int], ...]
Orbit = tuple[YBlock, Partition]
OrbitState = dict[Orbit, int]


@functools.lru_cache(maxsize=256)
def _splits(p: int, a: int, m: int, budget: int
            ) -> tuple[tuple[Partition, int, int], ...]:
    """Ways to raise m exponents a by increments v with C(a, v) != 0 mod p,
    spending at most budget: (pieces, spent, weight) per way, where pieces
    holds (a + v(p-1), count) and weight is prod C(a, v)^count mod p."""
    steps = [(v, c) for v in range(1, min(a, budget) + 1)
             if (c := lucas(a, v, p))]
    out = []

    def rec(j: int, left: int, room: int, pieces: Partition, weight: int):
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
    return tuple(out)


@functools.lru_cache(maxsize=256)
def _x_step(p: int, part: Partition, i: int) -> tuple[tuple[Partition, int], ...]:
    """P^i on the orbit sum of a partition, all of i spent in the x block.

    A target orbit collects the pieces of every group's split; its
    coefficient is the multinomial count of ways the pieces of one target
    value came from different sources, times the splits' weights, mod p."""
    room = [0] * (len(part) + 1)  # most that the groups from g on can spend
    for g in range(len(part) - 1, -1, -1):
        room[g] = room[g + 1] + part[g][0] * part[g][1]
    out: dict[Partition, int] = {}

    def rec(g: int, left: int, pieces: Partition, weight: int):
        if g == len(part):
            merged: dict[int, list[int]] = {}
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
        # The groups after g can spend at most room[g + 1] of what is left;
        # at the last group this makes the split spend all of it.
        for group, spent, w in _splits(p, a, m, min(left, a * m)):
            if left - spent <= room[g + 1]:
                rec(g + 1, left - spent, pieces + group, weight * w % p)

    if i <= room[0]:
        rec(0, i, (), 1)
    return tuple((key, c) for key, c in out.items() if c)


def _y_splits(p: int, ys: YBlock, budget: int) -> Iterator[tuple[YBlock, int, int]]:
    """P^j on the explicit y block for every j <= budget: (block, j, weight)."""
    if not ys:
        yield ys, 0, 1
        return
    (bit, e), rest = ys[0], ys[1:]
    for v in range(min(e, budget) + 1):
        c = lucas(e, v, p)
        if c:
            for tail, spent, w in _y_splits(p, rest, budget - v):
                yield ((bit, e + v * (p - 1)),) + tail, v + spent, c * w % p


def _step(p: int, orbit: Orbit, g: Generator) -> Iterator[tuple[Orbit, int]]:
    """One letter on one orbit: (orbit, coefficient) pairs, not merged."""
    ys, part = orbit
    if g.kind == "b":
        sign = 1
        for j, (bit, e) in enumerate(ys):
            if bit:
                yield (ys[:j] + ((0, e + 1),) + ys[j + 1:], part), sign
                sign = -sign
        return
    for new_ys, spent, w in _y_splits(p, ys, g.index):
        for new_part, c in _x_step(p, part, g.index - spent):
            yield (new_ys, new_part), w * c


def _orbit_action(op: SteenrodElement, q: int, r: int) -> OrbitState:
    """Action of op on y_1..y_q x_{q+1}..x_{q+r}, as orbit coefficients."""
    p = op.prime
    start: Orbit = (((1, 0),) * q, ((1, r),) if r else ())
    total: OrbitState = {}
    for mono, coef in op.terms.items():
        state: OrbitState = {start: coef}
        for g in reversed(mono.word):
            nxt: OrbitState = {}
            for orbit, c in state.items():
                for new, w in _step(p, orbit, g):
                    nxt[new] = (nxt.get(new, 0) + c * w) % p
            state = {orbit: c for orbit, c in nxt.items() if c}
            if not state:
                break
        for orbit, c in state.items():
            total[orbit] = (total.get(orbit, 0) + c) % p
    return {orbit: c for orbit, c in total.items() if c}


# ---------------------------------------------------------------------------
# Equality checking
# ---------------------------------------------------------------------------

def _max_bockstein_count(e: SteenrodElement) -> int:
    counts = [sum(1 for g in m.word if g.kind == "b") for m in e.terms]
    return max(counts, default=0)


def checked_degree(diff: SteenrodElement, max_degree: int) -> int:
    """The degree through which oracle_equal(a, b, max_degree) checks, for
    diff = a - b: max_degree, raised to the highest monomial degree of
    diff."""
    return max([max_degree] + [m.degree for m in diff.terms])


def oracle_equal(a: SteenrodElement, b: SteenrodElement,
                 max_degree: int) -> bool:
    """True iff a and b act identically on the oracle test classes, a
    genuine equality test for elements of degree <= max_degree.

    The classes are y_1..y_q x_{q+1}..x_{q+r} for every q up to the most
    Bocksteins in a word of a - b, with r = d at p = 2 and
    r = d // (2(p-1)) + 1 at odd p, where d = checked_degree(a - b,
    max_degree): a difference above the given bound is never reported
    equal."""
    if a.prime != b.prime:
        raise PrimeMismatchError("cannot compare elements over different primes")
    diff = a - b
    if diff.is_zero():
        return True
    p = a.prime
    d = checked_degree(diff, max_degree)
    r = max(1, d) if p == 2 else d // (2 * (p - 1)) + 1
    return not any(_orbit_action(diff, q, r)
                   for q in range(_max_bockstein_count(diff) + 1))
