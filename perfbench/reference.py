"""Answers for the correctness gate, computed without torsionlab.

Words are tuples of ints: at p = 2 an entry i is Sq^i; at odd p an entry 0
is the Bockstein b and i >= 1 is P^i.  The normalizer evaluates a word from
the right, multiplying one generator at a time onto an admissible word and
applying the closed-form Adem relations at the front, so it shares neither
code nor rewriting order with the program's leftmost-rewrite engine.
"""

from __future__ import annotations

import math
import re


def binomial_mod_p(n: int, k: int, p: int) -> int:
    if k < 0 or k > n:
        return 0
    out = 1
    while k:
        ni, ki = n % p, k % p
        if ki > ni:
            return 0
        out = out * math.comb(ni, ki) % p
        n //= p
        k //= p
    return out


def letter_degree(i: int, p: int) -> int:
    if p == 2:
        return i
    return 1 if i == 0 else 2 * (p - 1) * i


def word_degree(word: tuple[int, ...], p: int) -> int:
    return sum(letter_degree(i, p) for i in word)


def is_admissible(word: tuple[int, ...], p: int) -> bool:
    if p == 2:
        return all(a >= 2 * b for a, b in zip(word, word[1:]))
    for j, a in enumerate(word):
        nxt = word[j + 1] if j + 1 < len(word) else None
        if a == 0:
            if nxt == 0:
                return False
        elif nxt is not None:
            if nxt >= 1 and a < p * nxt:
                return False
            if nxt == 0 and j + 2 < len(word) and a < p * word[j + 2] + 1:
                return False
    return True


def admissible_words(p: int, d: int) -> set[tuple[int, ...]]:
    """Every admissible word of degree d, built right to left."""
    out: set[tuple[int, ...]] = set()
    if p == 2:
        def grow(word: tuple[int, ...], left: int) -> None:
            if left == 0:
                out.add(word)
            low = 2 * word[0] if word else 1
            for i in range(low, left + 1):
                grow((i,) + word, left - i)
        grow((), d)
        return out
    q = 2 * (p - 1)

    def grow_odd(word: tuple[int, ...], left: int) -> None:
        # word is admissible and starts with P (or is empty); prepend an
        # optional b, then either stop or prepend another P^s.
        for eps in (0, 1):
            if eps > left:
                break
            body = (0,) * eps + word
            if left == eps:
                out.add(body)
            nxt = word[0] if word else 0
            low = max(1, p * nxt + eps) if word else 1
            for s in range(low, (left - eps) // q + 1):
                grow_odd((s,) + body, left - eps - q * s)

    grow_odd((), d)
    return out


class Normalizer:
    """Admissible expansion of words at one prime, memoized per instance."""

    def __init__(self, p: int):
        self.p = p
        self._words: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}

    def normalize(self, word: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        found = self._words.get(word)
        if found is not None:
            return found
        if len(word) <= 1:
            result = {word: 1}
        else:
            result: dict[tuple[int, ...], int] = {}
            for tail, c in self.normalize(word[1:]).items():
                for w, c2 in self._left_multiply(word[0], tail).items():
                    _add(result, w, c * c2, self.p)
        self._words[word] = result
        return result

    def _left_multiply(self, g: int, tail: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        """g times an admissible word, as an admissible expansion."""
        word = (g,) + tail
        if is_admissible(word, self.p):
            return {word: 1}
        result: dict[tuple[int, ...], int] = {}
        for c, w in self._adem_front(word):
            for w2, c2 in self.normalize(w).items():
                _add(result, w2, c * c2, self.p)
        return result

    def _adem_front(self, word: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
        """Apply the Adem relation to the inadmissible front of a word
        whose tail after the first letter is admissible."""
        p = self.p
        a = word[0]
        if p == 2:
            b, rest = word[1], word[2:]
            out = []
            for c in range(a // 2 + 1):
                if binomial_mod_p(b - c - 1, a - 2 * c, 2):
                    out.append((1, _drop_zero_powers((a + b - c, c)) + rest))
            return out
        if a == 0:  # b b = 0
            return []
        if word[1] >= 1:
            b, rest = word[1], word[2:]
            out = []
            for t in range(a // p + 1):
                coef = binomial_mod_p((p - 1) * (b - t) - 1, a - p * t, p)
                sign = -1 if (a + t) % 2 else 1
                out.append((sign * coef, _drop_zero_powers((a + b - t, t)) + rest))
            return [(c % p, w) for c, w in out if c % p]
        b, rest = word[2], word[3:]
        out = []
        for t in range(a // p + 1):
            sign = -1 if (a + t) % 2 else 1
            c1 = binomial_mod_p((p - 1) * (b - t), a - p * t, p)
            out.append((sign * c1, (0,) + _drop_zero_powers((a + b - t, t)) + rest))
            c2 = binomial_mod_p((p - 1) * (b - t) - 1, a - p * t - 1, p)
            out.append((-sign * c2, (a + b - t, 0) + _drop_zero_powers((t,)) + rest))
        return [(c % p, w) for c, w in out if c % p]


def _drop_zero_powers(letters: tuple[int, ...]) -> tuple[int, ...]:
    # Sq^0 = P^0 = 1.  Only used on P/Sq positions, never on a Bockstein.
    return tuple(i for i in letters if i)


def _add(acc: dict, key, value: int, p: int) -> None:
    v = (acc.get(key, 0) + value) % p
    if v:
        acc[key] = v
    else:
        acc.pop(key, None)


_LETTER = re.compile(r"^(Sq|P)\^?(\d+)$")


def parse_normal_form(text: str, p: int) -> dict[tuple[int, ...], int]:
    """Read the printed form 'c w + c w + ...' of a linear combination of
    words; raise ValueError on anything else."""
    if text.strip() == "0":
        return {}
    out: dict[tuple[int, ...], int] = {}
    for term in text.split(" + "):
        tokens = term.split()
        if not tokens:
            raise ValueError(f"empty term in {text!r}")
        coef = 1
        if tokens[0].isdigit():
            coef = int(tokens.pop(0))
        word = []
        for tok in tokens:
            if tok == "b" and p != 2:
                word.append(0)
                continue
            m = _LETTER.match(tok)
            if m is None or (m.group(1) == "Sq") != (p == 2) or int(m.group(2)) < 1:
                raise ValueError(f"bad letter {tok!r} in {text!r}")
            word.append(int(m.group(2)))
        key = tuple(word)
        if key in out:
            raise ValueError(f"repeated word in {text!r}")
        out[key] = coef % p
    return out


def render_word(word: tuple[int, ...], p: int) -> str:
    if p == 2:
        return " ".join(f"Sq^{i}" for i in word)
    return " ".join("b" if i == 0 else f"P^{i}" for i in word)


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over F_p by Gaussian elimination on a copy of the rows."""
    m = [[x % p for x in row] for row in rows]
    rank, cols = 0, len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank
