"""Mod-p Steenrod algebra elements and Adem normalization.

Elements are F_p-linear combinations of words in the generators Sq^i
(p = 2) or beta, P^i (p odd).  Products are free word concatenation;
`adem_normalize` rewrites any element into the admissible basis using the
closed-form Adem relations:

  p = 2, a < 2b:
    Sq^a Sq^b = sum_c  C(b-c-1, a-2c) Sq^{a+b-c} Sq^c

  p odd, a < pb:
    P^a P^b = sum_t (-1)^{a+t} C((p-1)(b-t)-1, a-pt) P^{a+b-t} P^t

  p odd, a <= pb:
    P^a b P^b = sum_t (-1)^{a+t}   C((p-1)(b-t),   a-pt)   b P^{a+b-t} P^t
              - sum_t (-1)^{a+t}   C((p-1)(b-t)-1, a-pt-1)   P^{a+b-t} b P^t

with all binomials taken mod p, b^2 = 0, and Sq^0 = P^0 = 1.

Normalization rewrites the leftmost inadmissible pattern of a word, over
a worklist of int-encoded words (`_rewrite`): each intermediate word is
rewritten at most once, after all its coefficients are summed, and a word
whose coefficient cancels mod p is never rewritten.

Each check is made once: `SteenrodElement(p, terms)` checks every monomial;
arithmetic, normalization and the parser (whose scanner checks a generator
as one token) build results with the unchecked `SteenrodElement._reduced`.
Parsed, normalized and enumerated words share one generator per letter.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
import re
from typing import Literal, NamedTuple, Union


class SteenrodError(Exception):
    """Base class for errors raised by the algebra layer."""


class PrimeMismatchError(SteenrodError):
    """Operands or generators do not live over the same prime."""


class ParseError(SteenrodError):
    """Expression text does not conform to the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@functools.lru_cache(maxsize=64)
def _is_prime(value: int) -> bool:
    return value >= 2 and all(value % d for d in range(2, math.isqrt(value) + 1))


def check_prime(p: int) -> int:
    """p as a plain int, or ValueError if it is not an integer prime: a
    float or a string is refused, not truncated or parsed.  The trial
    division is memoized, so public entry points validate on every call
    while inner loops work on plain ints."""
    try:
        p = operator.index(p)
    except TypeError:
        raise ValueError(f"prime must be an integer, not {p!r}") from None
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


class Prime(int):
    """A positive prime integer, primality-tested on construction."""

    def __new__(cls, value: int) -> "Prime":
        return super().__new__(cls, check_prime(value))


class Generator(NamedTuple):
    """A single algebra generator: Sq^i, P^i or the Bockstein (kind 'b')."""

    kind: str  # 'Sq', 'P' or 'b'
    index: int = 0

    def degree_at(self, p: int) -> int:
        if self.kind == "Sq":
            return self.index
        if self.kind == "P":
            return 2 * self.index * (p - 1)
        return 1

    def valid_at(self, p: int) -> bool:
        return (self.kind == "Sq") == (p == 2)

    def __str__(self) -> str:
        if self.kind == "b":
            return "b"
        return f"{self.kind}^{self.index}"


def Sq(i: int) -> Generator:
    if i < 1:
        raise ValueError("Sq index must be positive")
    return Generator("Sq", i)


def P(i: int) -> Generator:
    if i < 1:
        raise ValueError("P index must be positive")
    return Generator("P", i)


BOCKSTEIN = Generator("b", 0)


# Internal word encoding used by the rewriting engine: a word is a tuple of
# ints, where at p = 2 an entry i means Sq^i, and at odd p an entry 0 means
# beta and i >= 1 means P^i.
IntWord = tuple[int, ...]


def _check_word(word: tuple[Generator, ...], p: int) -> None:
    for g in word:
        if not g.valid_at(p):
            raise PrimeMismatchError(f"generator {g} is not defined at p={p}")


def _encode(word: tuple[Generator, ...]) -> IntWord:
    """The int word of a word whose generators are known valid at its prime."""
    return tuple([0 if g.kind == "b" else g.index for g in word])


class _Letters(dict):
    """Integer letter -> Generator at one prime, each built on first use.
    Generators are immutable, so all words built here share them."""

    def __init__(self, p: int):
        super().__init__({} if p == 2 else {0: BOCKSTEIN})
        self.kind = "Sq" if p == 2 else "P"

    def __missing__(self, i: int) -> Generator:
        g = self[i] = Generator(self.kind, i)
        return g


_letters = functools.cache(_Letters)


class _Degrees(dict):
    """Generator -> its degree at one prime, each filled on first use, so
    that a word's degrees are one C-level `map` over this table."""

    def __init__(self, p: int):
        super().__init__()
        self.prime = p

    def __missing__(self, g: Generator) -> int:
        d = self[g] = g.degree_at(self.prime)
        return d


_degrees = functools.cache(_Degrees)


class _Text(dict):
    """Generator -> its text, each filled on first use; the text of a
    generator does not depend on the prime."""

    def __missing__(self, g: Generator) -> str:
        text = self[g] = str(g)
        return text


_TEXT = _Text()


class Monomial(NamedTuple):
    """A word of generators over a fixed prime."""

    prime: int
    word: tuple[Generator, ...]

    @property
    def degree(self) -> int:
        return sum(map(_degrees(self.prime).__getitem__, self.word))

    @property
    def is_admissible(self) -> bool:
        _check_word(self.word, self.prime)  # a Monomial is unchecked
        return _first_rewrite(_encode(self.word), self.prime) is None

    def sort_key(self) -> tuple[int, ...]:
        # Degree sequence of the letters; used for the canonical descending
        # lexicographic term order.
        return tuple(map(_degrees(self.prime).__getitem__, self.word))

    def __str__(self) -> str:
        if not self.word:
            return "1"
        return " ".join(map(_TEXT.__getitem__, self.word))


class SteenrodElement:
    """F_p-linear combination of monomial words, not necessarily admissible."""

    __slots__ = ("prime", "_terms")

    def __init__(self, p: int, terms: dict[Monomial, int] | None = None):
        p = check_prime(p)
        for mono in terms or ():
            if mono.prime != p:
                raise PrimeMismatchError("monomial prime differs from element prime")
            _check_word(mono.word, p)
        self.prime = p
        self._terms = {m: r for m, c in (terms or {}).items() if (r := c % p)}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "SteenrodElement":
        return cls(p, {})

    @classmethod
    def unit(cls, p: int) -> "SteenrodElement":
        return cls.from_word(p, ())

    @classmethod
    def from_word(cls, p: int, word: tuple[Generator, ...] | list[Generator],
                  coeff: int = 1) -> "SteenrodElement":
        return cls(p, {Monomial(check_prime(p), tuple(word)): coeff})

    @classmethod
    def _reduced(cls, p: int, terms: dict[Monomial, int]) -> "SteenrodElement":
        """The element with these terms reduced mod p, unchecked: p is
        prime and every monomial is over p, with generators defined at p."""
        e = cls.__new__(cls)
        e.prime = p
        e._terms = {m: r for m, c in terms.items() if (r := c % p)}
        return e

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, mono: Monomial) -> int:
        return self._terms.get(mono, 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SteenrodElement):
            return NotImplemented
        return self.prime == other.prime and self._terms == other._terms

    def __hash__(self):
        return hash((self.prime, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"SteenrodElement({self.prime}, {str(self)!r})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono in sorted(self._terms, key=Monomial.sort_key, reverse=True):
            c = self._terms[mono]
            if not mono.word:
                parts.append(str(c))
            elif c == 1:
                parts.append(str(mono))
            else:
                parts.append(f"{c} {mono}")
        return " + ".join(parts)

    # -- arithmetic --------------------------------------------------------

    def _check_same_prime(self, other: "SteenrodElement") -> None:
        if self.prime != other.prime:
            raise PrimeMismatchError(
                f"cannot combine elements over p={self.prime} and p={other.prime}")

    def _plus(self, other: "SteenrodElement", sign: int) -> "SteenrodElement":
        """self + sign * other, in one pass over other's terms."""
        self._check_same_prime(other)
        terms = dict(self._terms)
        for mono, c in other._terms.items():
            terms[mono] = terms.get(mono, 0) + sign * c
        return SteenrodElement._reduced(self.prime, terms)

    def __add__(self, other: "SteenrodElement") -> "SteenrodElement":
        return self._plus(other, 1)

    def __sub__(self, other: "SteenrodElement") -> "SteenrodElement":
        return self._plus(other, -1)

    def __rmul__(self, scalar: int) -> "SteenrodElement":
        return SteenrodElement._reduced(
            self.prime, {m: scalar * c for m, c in self._terms.items()})

    def __mul__(self, other: "SteenrodElement") -> "SteenrodElement":
        return multiply(self, other)

    def __neg__(self) -> "SteenrodElement":
        return (-1) * self


def multiply(a: SteenrodElement, b: SteenrodElement) -> SteenrodElement:
    """Bilinear concatenation of words; no normalization is performed."""
    a._check_same_prime(b)
    p = a.prime
    terms: dict[Monomial, int] = {}
    for ma, ca in a._terms.items():
        for mb, cb in b._terms.items():
            mono = Monomial(p, ma.word + mb.word)
            terms[mono] = terms.get(mono, 0) + ca * cb
    return SteenrodElement._reduced(p, terms)


def degree(e: SteenrodElement) -> Union[int, Literal["any", "non-homogeneous"]]:
    """Common degree of all terms, 'any' for 0, 'non-homogeneous' otherwise."""
    degs = {m.degree for m in e._terms}
    if not degs:
        return "any"
    if len(degs) > 1:
        return "non-homogeneous"
    return degs.pop()


# ---------------------------------------------------------------------------
# Binomial coefficients mod p
# ---------------------------------------------------------------------------

def binomial_mod_p(n: int, k: int, p: int) -> int:
    """Binomial coefficient mod p, by Lucas for n >= 0; C(n,k) = 0 for k < 0,
    and C(n,k) = (-1)^k C(k-n-1, k) for negative n (polynomial convention)."""
    return lucas(n, k, check_prime(p))


def lucas(n: int, k: int, p: int) -> int:
    """binomial_mod_p for a p already known to be prime (not re-checked)."""
    if k < 0:
        return 0
    if n < 0:
        sign = -1 if k % 2 else 1
        return (sign * lucas(k - n - 1, k, p)) % p
    if k > n:
        return 0
    result = 1
    while n or k:
        ni, ki = n % p, k % p
        if ki > ni:
            return 0
        result = (result * math.comb(ni, ki)) % p
        n //= p
        k //= p
    return result


# ---------------------------------------------------------------------------
# Adem rewriting on int-encoded words
# ---------------------------------------------------------------------------

def _first_rewrite(word: IntWord, p: int) -> tuple[int, str] | None:
    """Position and kind of the leftmost inadmissible pattern, or None; a
    word at p = 2 holds no b (letter 0), so only `pp`, a < 2b, fires there."""
    n = len(word)
    for j in range(n - 1):
        a, b = word[j], word[j + 1]
        if a == 0:
            if b == 0:
                return j, "bb"
        elif b:
            if a < p * b:
                return j, "pp"
        elif j + 2 < n and word[j + 2] and a <= p * word[j + 2]:
            return j, "pbp"
    return None


@functools.cache
def _adem_pattern(kind: str, a: int, b: int, p: int) -> tuple[tuple[int, IntWord], ...]:
    """(coefficient, replacement) pairs of the Adem relation for P^a P^b
    (kind 'pp'; Sq^a Sq^b at p = 2, where the signs vanish mod 2) or for
    P^a b P^b (kind 'pbp').  Memoized per letter pair."""
    out = []
    for t in range(a // p + 1):
        sign = -1 if (a + t) % 2 else 1
        rest = (a + b - t,) if t == 0 else (a + b - t, t)
        if kind == "pp":
            coef = lucas((p - 1) * (b - t) - 1, a - p * t, p)
            if coef:
                out.append(((sign * coef) % p, rest))
            continue
        c1 = lucas((p - 1) * (b - t), a - p * t, p)
        if c1:
            out.append(((sign * c1) % p, (0,) + rest))
        c2 = lucas((p - 1) * (b - t) - 1, a - p * t - 1, p)
        if c2:
            out.append(((-sign * c2) % p, rest[:1] + (0,) + rest[1:]))
    return tuple(out)


def _adem_expand(word: IntWord, j: int, kind: str, p: int) -> list[tuple[int, IntWord]]:
    """Replace the inadmissible pattern at position j, keeping the rest.
    The replacement comes from the memoized table `_adem_pattern`, so each
    letter pair's binomials are computed once per process."""
    if kind == "bb":
        return []
    width = 2 if kind == "pp" else 3
    head, tail = word[:j], word[j + width:]
    return [(coef, head + mid + tail)
            for coef, mid in _adem_pattern(kind, word[j], word[j + width - 1], p)]


def _heap_key(word: IntWord) -> tuple[float, ...]:
    """The rank of a word in the worklist of `_rewrite`: lexicographic on
    the letters, with beta ranked above every P^i.  Only a word that holds
    a beta needs a new tuple."""
    return tuple([i or math.inf for i in word]) if 0 in word else word


def _rewrite(word: IntWord, p: int) -> dict[IntWord, int]:
    """Admissible expansion of an int word by leftmost rewriting.

    A worklist: each inadmissible word met waits in a heap once, with the
    coefficients it receives summed in `pending`, while admissible words go
    straight to the result.  Words leave the heap smallest first by
    `_heap_key`.  A leftmost rewrite keeps the letters before its pattern
    and turns the pattern's first letter into a larger P^i or into beta, so
    every word it yields ranks strictly above the word rewritten.  Hence a
    word's coefficient is final when it leaves the heap: a word whose
    coefficient cancelled mod p is dropped unexpanded, and no word is
    rewritten twice."""
    hit = _first_rewrite(word, p)
    if hit is None:
        return {word: 1}
    result: dict[IntWord, int] = {}
    pending: dict[IntWord, int] = {}
    heap: list[tuple] = []  # (_heap_key(w), w, _first_rewrite(w, p))
    coef = 1
    while True:
        for c, w in _adem_expand(word, *hit, p):
            if w in pending:
                pending[w] = (pending[w] + coef * c) % p
            elif w in result or (hit := _first_rewrite(w, p)) is None:
                c = (result.get(w, 0) + coef * c) % p
                if c:
                    result[w] = c
                else:
                    del result[w]
            else:
                pending[w] = coef * c % p
                heapq.heappush(heap, (_heap_key(w), w, hit))
        while heap:
            _, word, hit = heapq.heappop(heap)
            if coef := pending.pop(word):
                break
        else:
            return result


@functools.cache
def _normalize_word(word: IntWord, p: int) -> dict[IntWord, int]:
    """Admissible expansion of an int word, as a word -> coefficient map.
    Memoized per (word, p) for the words `adem_normalize` is asked about
    only: the intermediate words of one rewrite live in the worklist of
    `_rewrite` and are dropped with it, so the process-wide memo grows with
    the distinct words asked for, not with every word a rewrite passes
    through.  Callers must not mutate the result."""
    return _rewrite(word, p)


def adem_normalize(e: SteenrodElement) -> SteenrodElement:
    """Unique representative of e in the admissible basis.  The normal form
    of each term's word is memoized for the process (`_normalize_word`)."""
    p = e.prime
    acc: dict[IntWord, int] = {}
    for mono, coef in e._terms.items():
        for w, c in _normalize_word(_encode(mono.word), p).items():
            acc[w] = acc.get(w, 0) + coef * c
    letters = _letters(p)
    return SteenrodElement._reduced(
        p, {Monomial(p, tuple(map(letters.__getitem__, w))): c for w, c in acc.items()})


# ---------------------------------------------------------------------------
# Admissible basis enumeration
# ---------------------------------------------------------------------------

# One depth-first search serves every prime.  A word is a chain of moves:
# the move of power s is Sq^s at p = 2, and P^s or P^s b at odd p, where a
# single b may also lead the word.  Admissibility caps the power after a
# move, and `_reach` tells whether the degree left after a move can be made.
# Powers are tried in descending order, P^s before P^s b, and no two words
# of one degree are prefixes of each other, so the search emits the
# canonical order with no sort.  Words are built from the shared letters.

@functools.cache
def _moves(p: int, s: int) -> tuple[tuple[tuple[Generator, ...], int, int, int], ...]:
    """The moves of power s at p, as (letters, degree, cap, reach): the
    letters a move appends and their degree, the cap (s - len(letters) + 1)
    // p on the next power, and `_reach(p, cap)`."""
    power = _letters(p)[s]
    moves = []
    for letters in [(power,)] if p == 2 else [(power,), (power, BOCKSTEIN)]:
        cap = (s - len(letters) + 1) // p
        degree = sum(map(_degrees(p).__getitem__, letters))
        moves.append((letters, degree, cap, _reach(p, cap)))
    return tuple(moves)


@functools.cache
def _reach(p: int, cap: int) -> int:
    """Bit mask of the degrees of the chains of moves whose first power is
    at most cap, the empty chain (degree 0) included."""
    mask = 1
    for s in range(1, cap + 1):
        for _, degree, _, reach in _moves(p, s):
            mask |= reach << degree
    return mask


# The most monomials a basis is built with: at p = 2, degree 499 has
# 999 982, which take about 3 s and 200 MB, and degree 500 is refused.
MAX_BASIS_SIZE = 10 ** 6


def _basis_size(p: int, deg: int) -> int:
    """The number of admissible monomials of degree deg at p, read from
    Milnor's Poincaré series ("The Steenrod algebra and its dual", 1958):
    prod 1/(1 - t^(2^i - 1)) at p = 2, and
    prod (1 + t^(2p^i - 1)) * prod 1/(1 - t^(2(p^i - 1))) at odd p."""
    series = [1] + [0] * deg
    for i in range(deg.bit_length() + 1):  # a part above deg does nothing
        if i:  # times 1/(1 - t^k)
            k = 2 ** i - 1 if p == 2 else 2 * (p ** i - 1)
            for n in range(k, deg + 1):
                series[n] += series[n - k]
        if p != 2:  # times (1 + t^k)
            k = 2 * p ** i - 1
            for n in range(deg, k - 1, -1):
                series[n] += series[n - k]
    return series[deg]


@functools.cache
def _basis(p: int, deg: int) -> tuple[Monomial, ...]:
    """The admissible monomials of degree deg at the prime p, built once
    per (p, deg) for the process, so that calls share its monomials; p and
    deg are checked by the caller.  A basis of more than MAX_BASIS_SIZE
    monomials, counted before any is built, is a ValueError."""
    size = _basis_size(p, deg)
    if size > MAX_BASIS_SIZE:
        raise ValueError(f"the admissible basis in degree {deg} at p = {p} has "
                         f"{size} monomials, above the bound of {MAX_BASIS_SIZE}")
    step = _degrees(p)[_letters(p)[1]]  # the degree of the power 1
    moves = {s: _moves(p, s) for s in range(1, deg // step + 1)}
    out: list[Monomial] = []

    def search(prefix: tuple[Generator, ...], left: int, cap: int) -> None:
        # The words prefix + chain, for the chains of degree left > 0 whose
        # first power is at most cap.
        for s in range(min(cap, left // step), 0, -1):
            alive = False
            for letters, degree, next_cap, reach in moves[s]:
                rest = left - degree
                if rest >= 0 and (after := reach >> rest):
                    alive = True
                    if not rest:
                        out.append(Monomial(p, prefix + letters))
                    elif after & 1:
                        search(prefix + letters, rest, next_cap)
            if not alive:
                break  # smaller powers leave more degree and reach less

    for prefix in ((), (BOCKSTEIN,)) if BOCKSTEIN.valid_at(p) else ((),):
        left = deg - len(prefix)
        if left > 0:
            search(prefix, left, deg)
        elif left == 0:
            out.append(Monomial(p, prefix))
    return tuple(out)


def admissible_basis(p: int, deg: int) -> list[Monomial]:
    """All admissible monomials of the given degree, in the canonical
    descending lexicographic order on exponent sequences.  The enumeration
    is output-sensitive: a letter is tried only when the degree left after
    it can still be reached, so the work grows with the size of the basis.
    Each basis is built once per (p, degree) and kept for the process, so
    calls share its immutable monomials; every call returns a new list,
    which the caller may change.  p and deg are checked on every call, and
    a basis of more than MAX_BASIS_SIZE monomials is refused."""
    p = check_prime(p)
    deg = operator.index(deg)
    if deg < 0:
        raise ValueError("degree must be non-negative")
    return list(_basis(p, deg))


# ---------------------------------------------------------------------------
# Expression parsing
# ---------------------------------------------------------------------------

# One token per match: a generator with its optional caret and index
# (groups 1-3), the Bockstein (4), a number or an operator (5), or else the
# first character that cannot start a token (6).
_TOKEN = re.compile(r"\s*(?:(Sq|P)(?:\s*(\^))?(?:\s*(\d+))?|(b)|(\d+|[-^+()])|(\S))")


def _start(text: str, k: int, group: int) -> int:
    """Where the given group of the k-th token of the text starts, or the
    end of the text past its last token.  Only errors need positions."""
    m = next(itertools.islice(_TOKEN.finditer(text), k, None), None)
    return len(text) if m is None else m.start(group)


def _tokens(text: str, p: int) -> list[object]:
    """The tokens of the text at the prime p: a generator's token is its
    shared object, or the ParseError to raise if the parser reaches it;
    any other token is its text.  A character that cannot start a token
    is a ParseError here."""
    letters, name = _letters(p), "Sq" if p == 2 else "P"
    tokens: list[object] = []
    for k, (kind, caret, digits, bockstein, other, bad) in enumerate(_TOKEN.findall(text)):
        if kind:
            if kind != name:
                tok = ParseError(f"{kind!r} is not available at p={p}", _start(text, k, 1))
            elif not digits:
                tok = ParseError(f"expected index after {kind!r}",
                                 _start(text, k, 2 if caret else 1))
            elif index := int(digits):
                tok = letters[index]
            else:
                tok = ParseError("generator index must be positive", _start(text, k, 3))
        elif bockstein:
            tok = letters[0] if p != 2 else ParseError(
                "'b' is not available at p=2 (use Sq^1)", _start(text, k, 4))
        elif other:
            tok = other
        else:
            raise ParseError(f"unexpected character {bad!r}", _start(text, k, 0))
        tokens.append(tok)
    return tokens


def parse_generator(text: str, p: int) -> Generator | None:
    """The generator at p that the text spells as one token of
    `parse_expression` ('Sq^3', 'Sq3', 'P2', 'b'), or None if it spells
    anything else.  A p that is not prime is a ValueError."""
    try:
        tokens = _tokens(text, check_prime(p))
    except ParseError:
        return None
    return tokens[0] if len(tokens) == 1 and type(tokens[0]) is Generator else None


def parse_expression(text: str, p: int) -> SteenrodElement:
    """Parse 'term ((+|-) term)*' where a term is an optional integer
    coefficient followed by factors: runs of generators like 'Sq^3', 'P2'
    or 'b', and parenthesized subexpressions, multiplied left to right.
    A generator is one token, checked against p as it is scanned, and a
    run of generators is one word."""
    p = check_prime(p)
    tokens = _tokens(text, p)
    if not tokens:
        raise ParseError("empty expression", 0)
    tokens.append("")  # the end of the text
    i = 0

    def expression() -> SteenrodElement:
        nonlocal i
        result = term()
        while (op := tokens[i]) in ("+", "-"):
            i += 1
            result = result + term() if op == "+" else result - term()
        return result

    def term() -> SteenrodElement:
        # Word -> coefficient; each run of generators extends every word.
        nonlocal i
        words = {(): 1}
        if type(tokens[i]) is str:
            if tokens[i].isdigit():
                words = {(): int(tokens[i])}
                i += 1
            elif tokens[i] != "(":
                raise ParseError("expected a term", _start(text, i, 5))
        while True:
            run = ()
            while type(tok := tokens[i]) is not str:
                if type(tok) is ParseError:
                    raise tok
                run += (tok,)
                i += 1
            result = SteenrodElement._reduced(
                p, {Monomial(p, w + run): c for w, c in words.items()})
            if tok != "(":
                return result
            opened, i = i, i + 1
            inner = expression()
            if tokens[i] != ")":
                raise ParseError("expected ')'", _start(text, opened, 5))
            i += 1
            words = {m.word: c for m, c in multiply(result, inner)._terms.items()}

    result = expression()
    if tokens[i]:
        raise ParseError(f"unexpected token {tokens[i]!r}", _start(text, i, 5))
    return result
