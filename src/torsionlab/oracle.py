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
x-exponents, and the r symmetric x's are kept as counts per level, counts[k]
of them at exponent p^k, which stands for the whole orbit under permutations
of them.  Plain exponents never leave the powers of p, since C(p^k, v) is
nonzero mod p only for v in {0, p^k}; these level counts are the exponent
sequences of Milnor's dual description of the Steenrod algebra.
"""

from __future__ import annotations

import functools
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
# Sigma_r-orbit sums.  A plain x only ever sits at an exponent p^k: P^v
# (Sq^v at p = 2) acts on x^{p^k} as C(p^k, v), which is nonzero mod p only
# for v in {0, p^k}, and then gives x^{p^{k+1}}.  So an orbit's x block is a
# count vector, counts[k] plain x's at exponent p^k, with trailing zeros
# trimmed.  An Orbit is (y block, counts), with the coefficient of every
# monomial in the orbit.  P^i splits its index between the blocks by the
# Cartan formula.  beta acts on the y block alone; since beta x = 0, no
# Koszul sign crosses the blocks.
# ---------------------------------------------------------------------------

YBlock = tuple[tuple[int, int], ...]
Counts = tuple[int, ...]
Orbit = tuple[YBlock, Counts]
OrbitState = dict[Orbit, int]


# 6000 ops of the perfbench referee workload meet about 3 100 distinct
# keys; at 256 entries the cache missed about 15 700 times on them.
@functools.lru_cache(maxsize=4096)
def _x_step(p: int, counts: Counts, i: int) -> tuple[tuple[Counts, int], ...]:
    """P^i on the orbit sum of counts, all of i spent in the x block.

    P^i raises t_k of the level-k x's to level k + 1, for every t with
    sum t_k p^k = i, so the new counts are c'_{k+1} = c_{k+1} - t_{k+1} + t_k.
    A target monomial is reached once for each way to choose which of its
    c'_{k+1} x's came from below, so its coefficient is
    prod C(c'_{k+1}, t_k) mod p.  t is chosen from the top level down; a
    binomial that vanishes mod p (a base-p carry, by Kummer) ends its
    branch, and so does a budget the lower levels cannot spend."""
    room = [0]  # room[k]: the most that the levels below k can spend
    for k, c in enumerate(counts):
        room.append(room[k] + c * p ** k)
    out = []
    new = [0] * (len(counts) + 1)

    def rec(k: int, left: int, stay: int, weight: int):
        # stay: the level-(k + 1) x's that were not raised
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
    ys, counts = orbit
    if g.kind == "b":
        sign = 1
        for j, (bit, e) in enumerate(ys):
            if bit:
                yield (ys[:j] + ((0, e + 1),) + ys[j + 1:], counts), sign
                sign = -sign
        return
    for new_ys, spent, w in _y_splits(p, ys, g.index):
        for new_counts, c in _x_step(p, counts, g.index - spent):
            yield (new_ys, new_counts), w * c


def _orbit_action(op: SteenrodElement, q: int, r: int) -> OrbitState:
    """Action of op on y_1..y_q x_{q+1}..x_{q+r}, as orbit coefficients."""
    p = op.prime
    start: Orbit = (((1, 0),) * q, (r,) if r else ())
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
