"""Steenrod action on polynomial-type algebras, used as an independent
cross-check of the Adem rewriting engine.

For p = 2 the algebra is F_2[x_1..x_k] with |x_i| = 1 and the total square
Sq(x) = x + x^2, so Sq^v(x^e) = C(e,v) x^{e+v}.  For odd p it is
E(y_1..y_k) (x) F_p[x_1..x_k] with |y_i| = 1, |x_i| = 2, beta(y_i) = x_i,
P^v(x^e) = C(e,v) x^{e+v(p-1)}, and beta acting as a graded derivation.
Raw (inadmissible) words act letter by letter, products via the Cartan
formula, so normalized and unnormalized elements can be compared without
trusting the rewriting engine.

The slow reference, which acts on explicit monomials, lives in the tests.
`oracle_equal` runs one orbit engine at every prime on the test classes
y_1..y_q x_{q+1}..x_{q+r} (q = 0 at p = 2).  Its state has two blocks: the
q generators that carry a y are kept explicit, as exterior bits plus
x-exponents, and the r symmetric x's are kept as counts per level, counts[k]
of them at exponent p^k, which stands for the whole orbit under permutations
of them.  Plain exponents never leave the powers of p, since C(p^k, v) is
nonzero mod p only for v in {0, p^k}; these level counts are the exponent
sequences of Milnor's dual description of the Steenrod algebra.

What a word makes of a test class is memoized for the process, and so is
what each of its tails makes of it, so a monomial or a tail met before is
not stepped again; an element acts as the sum of its coefficients times
these states.  A step not met before reads its binomials mod p from a
bounded memo of scalar C(n, k) (`_binomial`): the same few small binomials
recur from step to step.
"""

from __future__ import annotations

import functools
from typing import Iterator

from .steenrod import (
    BOCKSTEIN,
    Generator,
    PrimeMismatchError,
    SteenrodElement,
    lucas,
)


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
State = tuple[tuple[Orbit, int], ...]


# Scalar binomials C(n, k) mod p for the x steps and the y splits, in an LRU
# memo of at most 4096 entries: the 934 ops of one perfbench referee process
# (seed 9001) ask for about 17 000 of them, only 994 distinct, and 6 000 ops
# for 1 153 distinct.  Only the binomials a step tries are kept, never a row
# or a table per prime, so large indices and primes cost no more than the
# step.  `lucas` itself stays unmemoized for the Adem engine, whose
# binomials do not recur.
_binomial = functools.lru_cache(maxsize=4096)(lucas)


# Only words new to the memo of word states below reach this cache: the 934
# ops of one perfbench referee process (seed 9001) call it 1 770 times with
# 1 260 misses, and 6 000 ops 6 192 times with 3 126 misses; at 256 entries
# it missed about 5 300 times.
@functools.lru_cache(maxsize=4096)
def _x_step(p: int, counts: Counts, i: int) -> tuple[tuple[Counts, int], ...]:
    """P^i on the orbit sum of counts, all of i spent in the x block.

    P^i raises t_k of the level-k x's to level k + 1, for every t with
    sum t_k p^k = i, so the new counts are c'_{k+1} = c_{k+1} - t_{k+1} + t_k.
    A target monomial is reached once for each way to choose which of its
    c'_{k+1} x's came from below, so its coefficient is
    prod C(c'_{k+1}, t_k) mod p, each factor read from the `_binomial`
    memo.  t is chosen from the top level down; a binomial that vanishes
    mod p (a base-p carry, by Kummer) ends its branch, and so does a budget
    the lower levels cannot spend.  What is left for level 0 must all be
    spent there, so that choice is made in the loop of level 1."""
    room = [0]  # room[k]: the most that the levels below k can spend
    for k, c in enumerate(counts):
        room.append(room[k] + c * p ** k)
    if i > room[-1]:
        return ()
    if len(counts) < 2:  # level 0 alone spends all of i, with C(i, i) = 1
        return ((counts if not i else (counts[0] - i, i), 1),)
    out = []
    new = [0] * (len(counts) + 1)

    def rec(k: int, left: int, stay: int, weight: int):
        # stay: the level-(k + 1) x's that were not raised
        unit = p ** k
        for t in range(max(0, -((room[k] - left) // unit)),
                       min(counts[k], left // unit) + 1):
            c = _binomial(stay + t, t, p)
            if not c:
                continue
            new[k + 1] = stay + t
            if k > 1:
                rec(k - 1, left - t * unit, counts[k] - t, weight * c % p)
                continue
            # Level 0 raises the rest, t0 = left - t p <= c_0 by room[1].
            t0, stay0 = left - t * p, counts[1] - t
            c0 = _binomial(stay0 + t0, t0, p)
            if c0:
                new[0], new[1] = counts[0] - t0, stay0 + t0
                top = len(new)
                while top and not new[top - 1]:
                    top -= 1
                out.append((tuple(new[:top]), weight * c * c0 % p))

    rec(len(counts) - 1, i, 0, 1)
    return tuple(out)


def _y_splits(p: int, ys: YBlock, budget: int) -> Iterator[tuple[YBlock, int, int]]:
    """P^j on the explicit y block for every j <= budget: (block, j, weight),
    with each C(e, v) read from the `_binomial` memo."""
    if not ys:
        yield ys, 0, 1
        return
    (bit, e), rest = ys[0], ys[1:]
    for v in range(min(e, budget) + 1):
        c = _binomial(e, v, p)
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


# The state of every word seen, and of each of its tails, on the start class
# y_1..y_q x_{q+1}..x_{q+r}, keyed by (p, q, r, word).  The oracle meets the
# same words again: a normal form is a sum of admissible monomials of one
# degree, and a word's tail is a word too.  States are shared, so they are
# immutable tuples of (orbit, coefficient).  A memo that holds
# _STATES_MAXSIZE states is emptied before the next one goes in.
_STATES: dict[tuple[int, int, int, tuple[Generator, ...]], State] = {}
_STATES_MAXSIZE = 4096


def _word_state(p: int, q: int, r: int, word: tuple[Generator, ...]) -> State:
    """The state that word makes of the start class, from the memo.  A new
    word's suffixes are visited shortest first, the order in which its
    letters act, so each is stepped once, from the state of the one before,
    and the walk ends at the first empty state however long the word is."""
    state = _STATES.get((p, q, r, word))
    if state is not None:
        return state
    state = (((((1, 0),) * q, (r,) if r else ()), 1),)
    for k in range(len(word) - 1, -1, -1):
        key = (p, q, r, word[k:])
        known = _STATES.get(key)
        if known is None:
            stepped: OrbitState = {}
            for orbit, c in state:
                for new, w in _step(p, orbit, word[k]):
                    stepped[new] = (stepped.get(new, 0) + c * w) % p
            known = tuple((orbit, c) for orbit, c in stepped.items() if c)
            if len(_STATES) >= _STATES_MAXSIZE:
                _STATES.clear()
            _STATES[key] = known
        state = known
        if not state:
            break
    return state


def _orbit_action(op: SteenrodElement, q: int, r: int) -> OrbitState:
    """Action of op on y_1..y_q x_{q+1}..x_{q+r}, as orbit coefficients:
    the sum of coefficient times memoized state over op's terms, in a new
    dict."""
    p = op.prime
    total: OrbitState = {}
    for mono, coef in op._terms.items():
        for orbit, c in _word_state(p, q, r, mono.word):
            total[orbit] = (total.get(orbit, 0) + coef * c) % p
    return {orbit: c for orbit, c in total.items() if c}


# ---------------------------------------------------------------------------
# Equality checking
# ---------------------------------------------------------------------------

def _max_bockstein_count(e: SteenrodElement) -> int:
    return max([m.word.count(BOCKSTEIN) for m in e._terms], default=0)


def checked_degree(diff: SteenrodElement, max_degree: int) -> int:
    """The degree through which oracle_equal(a, b, max_degree) checks, for
    diff = a - b: max_degree, raised to the highest monomial degree of
    diff.  A negative max_degree is a ValueError."""
    if max_degree < 0:
        raise ValueError(f"the degree bound must be non-negative, not {max_degree}")
    return max([max_degree] + [m.degree for m in diff._terms])


def oracle_equal(a: SteenrodElement, b: SteenrodElement,
                 max_degree: int) -> bool:
    """True iff a and b act identically on the oracle test classes, a
    genuine equality test for elements of degree <= max_degree.

    The classes are y_1..y_q x_{q+1}..x_{q+r} for every q up to the most
    Bocksteins in a word of a - b, with r = d at p = 2 and
    r = d // (2(p-1)) + 1 at odd p, where d = checked_degree(a - b,
    max_degree): a difference above the given bound is never reported
    equal, and a negative bound is a ValueError, also for equal operands."""
    if a.prime != b.prime:
        raise PrimeMismatchError("cannot compare elements over different primes")
    diff = a - b
    d = checked_degree(diff, max_degree)
    p = a.prime
    r = max(1, d) if p == 2 else d // (2 * (p - 1)) + 1
    return not any(_orbit_action(diff, q, r)
                   for q in range(_max_bockstein_count(diff) + 1))
