"""Parser, degree bookkeeping, and Adem normalization."""

import collections
import functools
import itertools
import math
import random
import re
import time

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from torsionlab import steenrod
from torsionlab import (
    BOCKSTEIN,
    Generator,
    Monomial,
    P,
    ParseError,
    Prime,
    PrimeMismatchError,
    Sq,
    SteenrodElement,
    adem_normalize,
    admissible_basis,
    binomial_mod_p,
    degree,
    multiply,
    parse_expression,
)


def el(text, p):
    return parse_expression(text, p)


class TestPrime:
    def test_accepts_primes(self):
        for p in (2, 3, 5, 7, 11):
            assert Prime(p) == p

    def test_rejects_composites(self):
        for n in (0, 1, 4, 6, 9, 15):
            with pytest.raises(ValueError):
                Prime(n)

    def test_rejects_non_integers_instead_of_truncating(self):
        # int() would read 2.9 as 2 and 3.5 or 3.2 as 3.
        with pytest.raises(ValueError, match="integer"):
            admissible_basis(2.9, 3)
        with pytest.raises(ValueError, match="integer"):
            Prime(3.5)
        with pytest.raises(ValueError, match="integer"):
            parse_expression("P^1", 3.2)

    def test_accepts_integer_types(self):
        p = Prime(numpy.int64(3))
        assert p == 3 and type(steenrod.check_prime(numpy.int64(3))) is int
        assert admissible_basis(numpy.int64(3), 4) == admissible_basis(3, 4)


def reference_lucas(n, k, p):
    """`steenrod.lucas` with an early return of 0 for k > n."""
    if k < 0:
        return 0
    if n < 0:
        sign = -1 if k % 2 else 1
        return (sign * reference_lucas(k - n - 1, k, p)) % p
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


class TestBinomial:
    def test_lucas_small(self):
        assert binomial_mod_p(4, 2, 2) == 0
        assert binomial_mod_p(5, 2, 2) == 0
        assert binomial_mod_p(5, 1, 2) == 1
        assert binomial_mod_p(6, 3, 3) == 2

    def test_negative_upper_index(self):
        # C(-1, k) = (-1)^k
        assert binomial_mod_p(-1, 0, 3) == 1
        assert binomial_mod_p(-1, 1, 3) == 2
        assert binomial_mod_p(-1, 2, 3) == 1

    def test_out_of_range(self):
        assert binomial_mod_p(3, 5, 2) == 0
        assert binomial_mod_p(3, -1, 2) == 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_math_comb(self, p):
        for n, k in itertools.product(range(80), repeat=2):
            assert binomial_mod_p(n, k, p) == math.comb(n, k) % p

    def test_matches_math_comb_with_the_negative_reflection(self):
        # C(n, k) = (-1)^k C(k - n - 1, k) for n < 0, and 0 for k < 0.
        exact = {(n, k): math.comb(n, k) if n >= 0 else (-1) ** k * math.comb(k - n - 1, k)
                 for n in range(-40, 201) for k in range(211)}
        for p in (2, 3, 5, 7, 10007):
            for n in range(-40, 201):
                for k in range(-3, 211):
                    want = exact[n, k] % p if k >= 0 else 0
                    assert steenrod.lucas(n, k, p) == want, (n, k, p)
                    assert binomial_mod_p(n, k, p) == want, (n, k, p)

    def test_lucas_matches_the_early_return_form(self):
        # The digit loop gives 0 for k > n without a test of its own.
        for p in (2, 3, 5, 7, 11):
            for n in range(-40, 201):
                for k in range(-3, 221):
                    assert steenrod.lucas(n, k, p) == reference_lucas(n, k, p), (n, k, p)

    def test_large_prime_and_large_indices(self):
        # Lucas works digit by digit: no table of digit binomials per prime.
        assert binomial_mod_p(10**12 + 39, 10**6, 10007) == 2481
        for cache in (steenrod._adem_pattern, steenrod._normalize_word):
            cache.cache_clear()
        start = time.perf_counter()
        assert str(adem_normalize(el("P^1 P^2", 10007))) == "3 P^3"
        assert time.perf_counter() - start < 0.1


class TestParser:
    def test_single_generator(self):
        e = el("Sq^2", 2)
        assert str(e) == "Sq^2"
        assert degree(e) == 2

    def test_non_homogeneous_degree(self):
        assert degree(el("Sq^1 + Sq^2", 2)) == "non-homogeneous"

    @pytest.mark.parametrize("make", [Sq, P])
    def test_generator_index_must_be_positive(self, make):
        with pytest.raises(ValueError, match="index must be positive"):
            make(0)

    # Module files spell generators this way; their refusals are named in
    # test_cli's test_malformed_module_file.
    @pytest.mark.parametrize("text, p, expected", [
        ("Sq^3", 2, Sq(3)), ("Sq3", 2, Sq(3)), (" Sq ^ 3 ", 2, Sq(3)), ("P2", 5, P(2)),
        ("b", 3, BOCKSTEIN), ("b", 2, None), ("Sq^1 Sq^1", 2, None), ("1 Sq^1", 2, None),
        ("(Sq^1)", 2, None), ("", 2, None),
    ])
    def test_parse_generator_reads_one_generator_token(self, text, p, expected):
        assert steenrod.parse_generator(text, p) == expected

    def test_caret_optional(self):
        assert el("Sq2 Sq1", 2) == el("Sq^2 Sq^1", 2)

    def test_odd_prime_generators(self):
        e = el("P^2 b P^1", 3)
        assert degree(e) == 8 + 1 + 4  # |P^i| = 2i(p-1), |b| = 1

    def test_sums_and_coefficients(self):
        e = el("2 P^2 + P^1 P^1", 3)
        assert adem_normalize(e) == adem_normalize(el("4 P^2", 3))

    def test_subtraction(self):
        assert el("Sq^3 - Sq^3", 2) == SteenrodElement.zero(2)

    def test_parentheses(self):
        lhs = el("(P^7 P^1 - P^8) P^1", 3)
        rhs = el("P^7 P^1 P^1 - P^8 P^1", 3)
        assert lhs == rhs

    def test_bare_scalar(self):
        assert el("3", 5) == 3 * SteenrodElement.unit(5)

    def test_rejects_sq_at_odd_prime(self):
        with pytest.raises(ParseError):
            el("Sq^2", 3)

    def test_rejects_p_at_two(self):
        with pytest.raises(ParseError):
            el("P^2", 2)

    def test_rejects_bockstein_at_two(self):
        with pytest.raises(ParseError):
            el("b", 2)

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            el("Sq^2 @ Sq^1", 2)

    def test_rejects_unbalanced_paren(self):
        with pytest.raises(ParseError):
            el("(Sq^2", 2)

    def test_reports_position(self):
        with pytest.raises(ParseError) as err:
            el("Sq^2 !", 2)
        assert err.value.position == 4  # offset of the whitespace run before the bad character

    @pytest.mark.parametrize("text, p, message, position", [
        # after a run of generators
        ("Sq^2 Sq^3 Sq", 2, "expected index after 'Sq'", 10),
        ("Sq^2 Sq^3 Sq^0", 2, "generator index must be positive", 13),
        ("Sq^2 Sq^3 P^1", 2, "'P' is not available at p=2", 10),
        ("b b b P", 5, "expected index after 'P'", 6),
        ("Sq^1 Sq^2 )", 2, "unexpected token ')'", 10),
        ("2 P^1 b P^3 +", 5, "expected a term", 13),
        # inside parentheses
        ("Sq^1 (Sq^2 P^1)", 2, "'P' is not available at p=2", 11),
        ("(Sq^2 Sq^1 + )", 2, "expected a term", 13),
        ("P^1 (b P^1 - P^2 b b 2)", 3, "expected ')'", 4),
        ("(P^1 (P^2 b", 3, "expected ')'", 5),
        ("P^1 P^2 (b) (", 3, "expected a term", 13),
        # digits after a run, and a caret with no index
        ("Sq^1 3", 2, "unexpected token '3'", 5),
        ("b2", 3, "unexpected token '2'", 1),
        ("2 3", 3, "unexpected token '3'", 2),
        ("Sq ^ b", 2, "expected index after 'Sq'", 3),
        # no token at all
        ("", 2, "empty expression", 0),
        ("  ", 3, "empty expression", 0),
    ])
    def test_error_messages_and_positions(self, text, p, message, position):
        with pytest.raises(ParseError) as err:
            el(text, p)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    def test_leading_unary_minus_rejected(self):
        # Not grammar: str never writes one, since coefficients are reduced
        # to 1..p-1, so parse(str(e)) == e does not need it.
        for text, position in (("-P^1", 0), ("P^1 + -P^1", 6)):
            with pytest.raises(ParseError) as err:
                el(text, 3)
            assert str(err.value) == f"expected a term (at position {position})"

    def test_runs_and_parentheses_multiply_left_to_right(self):
        got = el("2 Sq^1 Sq^2 (Sq^1 + Sq^2) Sq^3 Sq^1 (Sq^4) Sq^2", 2)
        factors = [SteenrodElement.from_word(2, (Sq(1), Sq(2))), el("Sq^1 + Sq^2", 2),
                   SteenrodElement.from_word(2, (Sq(3), Sq(1))), el("Sq^4", 2),
                   SteenrodElement.from_word(2, (Sq(2),))]
        expected = 2 * SteenrodElement.unit(2)
        for f in factors:
            expected = multiply(expected, f)
        assert got == expected


def _letters(p):
    if p == 2:
        return hs.builds(Sq, hs.integers(1, 12))
    return hs.one_of(hs.just(BOCKSTEIN), hs.builds(P, hs.integers(1, 12)))


@hs.composite
def _elements(draw, p=None):
    # Arbitrary (not normalized) elements: several terms, any coefficients,
    # and the empty word for unit terms.
    if p is None:
        p = draw(hs.sampled_from([2, 3, 5]))
    words = draw(hs.lists(hs.lists(_letters(p), max_size=5).map(tuple), max_size=5))
    terms = {}
    for word in words:
        mono = Monomial(p, word)
        terms[mono] = terms.get(mono, 0) + draw(hs.integers(0, 2 * p))
    return SteenrodElement(p, terms)


@settings(max_examples=200, deadline=None)
@given(e=_elements())
def test_parse_inverts_str(e):
    assert parse_expression(str(e), e.prime) == e


def assert_reduced(e, p):
    """e is over p, with coefficients in 1..p-1 and valid monomials over p,
    as the checked constructor would build it from e's terms."""
    assert e.prime == p
    for mono, c in e.terms.items():
        assert 1 <= c < p
        assert mono.prime == p and all(g.valid_at(p) for g in mono.word)
    assert e == SteenrodElement(p, e.terms)


class TestInternalElements:
    """Arithmetic, normalization and the parser build elements without the
    public constructor's checks; their results must be what it builds."""

    @settings(max_examples=150, deadline=None)
    @given(data=hs.data(), p=hs.sampled_from([2, 3, 5]), k=hs.integers(-20, 20))
    def test_results_are_reduced_over_their_prime(self, data, p, k):
        a, b = data.draw(_elements(p)), data.draw(_elements(p))
        sums, products = dict(a.terms), {}
        for mono, c in b.terms.items():
            sums[mono] = sums.get(mono, 0) + c
        for (ma, ca), (mb, cb) in itertools.product(a.terms.items(), b.terms.items()):
            mono = Monomial(p, ma.word + mb.word)
            products[mono] = products.get(mono, 0) + ca * cb
        differences = {m: a.coefficient(m) - b.coefficient(m) for m in {*a.terms, *b.terms}}
        expected = [(a + b, sums), (a - b, differences), (multiply(a, b), products)]
        for scalar in (k, p, -1):
            expected.append((scalar * a, {m: scalar * c for m, c in a.terms.items()}))
        expected.append((-a, {m: -c for m, c in a.terms.items()}))
        for got, terms in expected:
            assert_reduced(got, p)
            assert got == SteenrodElement(p, terms)
        for got in (adem_normalize(a), parse_expression(str(a), p)):
            assert_reduced(got, p)
        assert (p * a).is_zero()

    @settings(max_examples=100, deadline=None)
    @given(data=hs.data(), p=hs.sampled_from([2, 3, 5]))
    def test_difference_is_the_sum_with_the_negated_element(self, data, p):
        a, b = data.draw(_elements(p)), data.draw(_elements(p))
        for x, y in ((a, b), (b, a), (a, a), (a, SteenrodElement.zero(p))):
            got, want = x - y, x + (-1) * y
            assert list(got._terms.items()) == list(want._terms.items())
            assert str(got) == str(want)
        other = el("b", 3) if p == 2 else el("Sq^1", 2)
        with pytest.raises(PrimeMismatchError):
            a - other

    def test_public_constructor_checks_every_monomial(self):
        # Sq at odd p, P and b at p = 2, and monomials over another prime.
        for p, mono in ((3, Monomial(3, (Sq(2),))), (5, Monomial(5, (P(1), Sq(1)))),
                        (2, Monomial(2, (BOCKSTEIN,))), (2, Monomial(2, (P(1),))),
                        (3, Monomial(5, (P(1),))), (2, Monomial(3, ()))):
            with pytest.raises(PrimeMismatchError):
                SteenrodElement(p, {Monomial(p, ()): 1, mono: 1})
            if mono.prime == p:
                with pytest.raises(PrimeMismatchError):
                    SteenrodElement.from_word(p, mono.word)


class TestLetterTables:
    """Monomial.degree, sort_key and str read each letter's degree at the
    prime and its text from tables; they must be what the letters say."""

    def test_monomials_match_their_letters(self):
        # New generator objects, letters of every kind at every prime (a
        # Monomial is unchecked), large indices, and the same words at
        # several primes, one of them given as a Prime.
        rng = random.Random(90)
        for _ in range(400):
            word = tuple(rng.choice([Generator("Sq", rng.randint(1, 10**6)),
                                     Generator("P", rng.randint(1, 300)),
                                     Generator("b"), BOCKSTEIN])
                         for _ in range(rng.randint(0, 6)))
            for p in (2, 3, 5, 10007, Prime(3)):
                m = Monomial(p, word)
                assert m.degree == sum(g.degree_at(p) for g in word)
                assert m.sort_key() == tuple(g.degree_at(p) for g in word)
                assert str(m) == (" ".join(str(g) for g in word) if word else "1")


class TestParserReference:
    """parse_expression against the recursive-descent parser it replaced,
    on seeded texts: equal elements for valid texts, and an equal ParseError
    message and position for invalid ones."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_valid_texts_give_equal_elements(self, p):
        rng = random.Random(71 + p)
        texts = [random_text(rng, p) for _ in range(400)]
        for text in texts:
            assert parse_expression(text, p) == reference_parse_expression(text, p), text
        # Coefficients, + and -, nested parentheses, and the spellings
        # 'Sq 3', 'P ^ 2', 'Sq2Sq1' and 'Sq^01'.
        name = "Sq" if p == 2 else "P"
        for pattern in (r"^\d+ ", r"\+", "-", r"\(\(", rf"{name} \d", rf"{name} \^ \d",
                        rf"{name}\d+{name}", rf"{name}\^0\d"):
            assert any(re.search(pattern, text) for text in texts), pattern

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("mutation", ["truncate", "wrong letter", "stray caret",
                                          "digits after a run"])
    def test_invalid_texts_give_equal_errors(self, p, mutation):
        rng = random.Random(f"{mutation}/{p}")
        raised = 0
        for _ in range(300):
            text = random_text(rng, p)
            while not _GENERATOR.search(text):
                text = random_text(rng, p)
            text = mutate(rng, text, p, mutation)
            want = outcome(reference_parse_expression, text, p)
            assert outcome(parse_expression, text, p) == want, text
            raised += isinstance(want, str)
        assert raised > 200


def outcome(parse, text, p):
    """The element parsed, or the ParseError's message and position."""
    try:
        return parse(text, p)
    except ParseError as err:
        return f"{err} @ {err.position}"


def random_text(rng, p, depth=0):
    """A valid expression: terms with optional coefficients, joined by + and
    -, of runs of generators spelled every way the grammar allows (caret or
    none, spaces around it, leading zeros, no space between generators) and
    parenthesized subexpressions up to three deep."""
    name = "Sq" if p == 2 else "P"
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = [str(rng.randint(0, 3 * p))] if rng.random() < 0.3 else []
        for _ in range(rng.randint(0 if factors else 1, 4)):
            r = rng.random()
            if r < 0.2 and depth < 3:
                factors.append(f"({random_text(rng, p, depth + 1)})")
            elif r < 0.35 and p != 2:
                factors.append("b")
            else:
                factors.append(name + rng.choice(["^", "", " ^ ", " ", "^ "])
                               + rng.choice(["", "", "0"]) + str(rng.randint(1, 20)))
        text = factors[0]
        for factor in factors[1:]:
            # With no space a coefficient or an index would run into a digit.
            glued = text[-1].isdigit() and factor[0].isdigit()
            text += rng.choice([" ", "  "] if glued else [" ", "", "\t"]) + factor
        terms.append(text)
    text = terms[0]
    for term in terms[1:]:
        text += rng.choice([" + ", " - ", "+", "-"]) + term
    return text


_GENERATOR = re.compile(r"(Sq|P)(\s*\^?\s*\d+)|b")


def mutate(rng, text, p, mutation):
    """text broken in one way, at a random generator or place."""
    m = rng.choice(list(_GENERATOR.finditer(text)))
    if mutation == "truncate":
        # Drop a generator's index, or everything from its index on.
        if not m.group(1):
            return text[:m.start()] + "P" + text[m.end():]
        rest = text[m.end():] if rng.random() < 0.5 else ""
        return text[:m.start(2)] + m.group(2).rstrip("0123456789") + rest
    if mutation == "wrong letter":
        if p == 2:
            new = rng.choice(["P" + m.group(2), "b"])
        else:
            new = "Sq" + (m.group(2) or "^2")
        return text[:m.start()] + new + text[m.end():]
    if mutation == "stray caret":
        k = rng.randrange(len(text) + 1)
        return text[:k] + rng.choice(["^", " ^", "^ "]) + text[k:]
    # Digits after a run: a space keeps them off an index.
    spaces = [" ", "  "] if m.group(1) else ["", " "]
    return text[:m.end()] + rng.choice(spaces) + str(rng.randint(0, 12)) + text[m.end():]


class TestAdmissibility:
    def test_two_primary(self):
        assert Monomial(2, (Sq(4), Sq(2), Sq(1))).is_admissible
        assert not Monomial(2, (Sq(1), Sq(2))).is_admissible

    def test_odd_primary(self):
        # P^i P^j admissible iff i >= p*j; a Bockstein raises the bound.
        assert Monomial(3, (P(3), P(1))).is_admissible
        assert not Monomial(3, (P(2), P(1))).is_admissible
        assert Monomial(3, (P(4), BOCKSTEIN, P(1))).is_admissible
        assert not Monomial(3, (P(3), BOCKSTEIN, P(1))).is_admissible

    def test_no_double_bockstein(self):
        assert not Monomial(3, (BOCKSTEIN, BOCKSTEIN)).is_admissible

    def test_generator_of_another_prime_raises(self):
        # A Monomial is unchecked; is_admissible checks its generators.
        with pytest.raises(PrimeMismatchError):
            Monomial(3, (Sq(2),)).is_admissible
        with pytest.raises(PrimeMismatchError):
            Monomial(2, (P(1),)).is_admissible


class TestAdemNormalization:
    def test_sq1_squared_is_zero(self):
        assert adem_normalize(el("Sq^1 Sq^1", 2)) == SteenrodElement.zero(2)

    def test_sq1_sq2(self):
        assert adem_normalize(el("Sq^1 Sq^2", 2)) == el("Sq^3", 2)

    def test_sq2_sq2(self):
        assert adem_normalize(el("Sq^2 Sq^2", 2)) == el("Sq^3 Sq^1", 2)

    def test_sq2_sq3(self):
        assert adem_normalize(el("Sq^2 Sq^3", 2)) == el("Sq^5 + Sq^4 Sq^1", 2)

    def test_p1_squared(self):
        assert adem_normalize(el("P^1 P^1", 3)) == el("2 P^2", 3)

    def test_p1_b_p1(self):
        got = adem_normalize(el("P^1 b P^1", 3))
        assert got == el("P^2 b + b P^2", 3)

    def test_bockstein_squared_is_zero(self):
        assert adem_normalize(el("b b", 3)) == SteenrodElement.zero(3)

    def test_result_is_admissible(self):
        for text, p in [("Sq^2 Sq^2 Sq^2", 2), ("P^1 P^2 P^1", 3), ("P^1 P^1", 5)]:
            normal = adem_normalize(el(text, p))
            assert all(m.is_admissible for m in normal.terms)

    def test_idempotent(self):
        e = adem_normalize(el("Sq^3 Sq^3 Sq^2", 2))
        assert adem_normalize(e) == e

    def test_degree_preserved(self):
        e = el("P^3 P^3 P^3", 3)
        assert degree(adem_normalize(e)) == degree(e) == 36

    def test_vanishing_coefficient_word(self):
        # P^2 P^1 rewrites with binomial coefficient C(1,2) = 0, so the
        # whole product is zero in the algebra.
        assert adem_normalize(el("P^2 P^1", 3)) == SteenrodElement.zero(3)

    def test_linearity(self):
        a, b = el("Sq^1 Sq^2", 2), el("Sq^2 Sq^2", 2)
        assert adem_normalize(a + b) == adem_normalize(a) + adem_normalize(b)

    def test_p3_cubed_identity(self):
        lhs = adem_normalize(el("P^3 P^3 P^3", 3))
        rhs = adem_normalize(el("(P^7 P^1 - P^8) P^1", 3))
        assert lhs == rhs == el("2 P^8 P^1 + 2 P^7 P^2", 3)


class TestNormalFormMemo:
    """`_normalize_word` against the process-wide recursion it replaced, and
    the size of its memo."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_the_process_wide_recursion(self, p):
        rng = random.Random(53 + p)
        low = 0 if p > 2 else 1  # 0 is the Bockstein at odd p
        words = {tuple(rng.randint(low, 12) for _ in range(rng.randint(1, 7)))
                 for _ in range(400)}
        assert p == 2 or sum(0 in w for w in words) > 50
        for word in sorted(words):
            assert steenrod._normalize_word(word, p) == reference_normalize_word(word, p)

    def test_matches_the_process_wide_recursion_on_ascending_words(self):
        for word in ascending_words(random.Random(59), 150):
            assert steenrod._normalize_word(word, 2) == reference_normalize_word(word, 2)

    def test_memo_holds_only_the_words_asked_for(self):
        # A memory guard: every intermediate word of a rewrite must stay in
        # its call, so the memo grows with the distinct words asked for.
        words = ascending_words(random.Random(61), 60)
        words += words[::3]
        steenrod._normalize_word.cache_clear()
        reference_normalize_word.cache_clear()
        try:
            for word in words:
                e = SteenrodElement.from_word(2, tuple(map(Sq, word)))
                adem_normalize(e)
                reference_normalize_word(word, 2)
            assert steenrod._normalize_word.cache_info().currsize == len(set(words))
            # The recursion that kept every intermediate word would fail.
            assert reference_normalize_word.cache_info().currsize > 5 * len(set(words))
        finally:
            reference_normalize_word.cache_clear()


class TestWorklist:
    """The invariant the worklist of `_rewrite` rests on, and what it buys:
    every rewrite yields words above the one rewritten, so each word is
    rewritten at most once and a cancelled word never."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_every_rewrite_yields_larger_words(self, p):
        key = steenrod._heap_key
        # A beta ranks above every P^i, and the order is lexicographic.
        assert key((0,)) > key((10 ** 9,)) and key((3, 0)) < key((4,))
        patterns = [((a, b), "pp") for a, b in itertools.product(range(1, 41), repeat=2)
                    if a < p * b]
        if p > 2:
            patterns += [((a, 0, b), "pbp") for a, b in itertools.product(range(1, 41), repeat=2)
                         if a <= p * b]
        contexts = [((), ())]
        contexts += [((50,), (3, 1)), ((1,), (40,))] if p == 2 else [
            ((7, 0), (0, 2)), ((0,), (5,)), ((1, 0, 1), (0,))]
        checked = 0
        for (mid, kind), (head, tail) in itertools.product(patterns, contexts):
            word = head + mid + tail
            for _, out in steenrod._adem_expand(word, len(head), kind, p):
                assert key(out) > key(word), (word, out)
                checked += 1
        assert checked > 2000

    @pytest.fixture
    def rewrites(self, monkeypatch):
        """Per word, how often `_adem_expand` rewrote it."""
        original = steenrod._adem_expand
        calls = collections.Counter()
        monkeypatch.setattr(steenrod, "_adem_expand",
                            lambda w, j, kind, p: calls.update([w]) or original(w, j, kind, p))
        return calls

    def test_no_word_is_rewritten_twice(self, rewrites):
        rng = random.Random(67)
        cases = [(word, 2) for word in ascending_words(random.Random(59), 150)]
        for _ in range(200):
            p = rng.choice((3, 5, 7))
            cases.append((tuple(rng.randint(0, 12) for _ in range(rng.randint(2, 7))), p))
        assert sum(0 in w for w, p in cases if p > 2) > 50
        try:
            expected = [reference_normalize_word(word, p) for word, p in cases]
        finally:
            reference_normalize_word.cache_clear()
        rewritten = 0
        for (word, p), normal in zip(cases, expected):
            rewrites.clear()
            assert steenrod._rewrite(word, p) == normal
            assert max(rewrites.values(), default=1) == 1, (word, p)
            rewritten += len(rewrites)
        assert rewritten > 5 * len(cases)

    @pytest.mark.parametrize("word, size", [
        ((12, 21, 23, 24, 24, 26, 27, 30), 0),
        ((4, 8, 12, 13, 16, 18, 28), 33),
    ])
    def test_cancelled_words_are_not_rewritten(self, rewrites, word, size):
        # The recursion expands every word it meets; the worklist drops the
        # words whose coefficients cancel before it reaches them.
        reference_normalize_word.cache_clear()
        try:
            expected = reference_normalize_word(word, 2)
            met = reference_normalize_word.cache_info().currsize
        finally:
            reference_normalize_word.cache_clear()
        assert len(expected) == size
        rewrites.clear()
        assert steenrod._rewrite(word, 2) == expected
        assert max(rewrites.values()) == 1
        if not size:
            assert 10 * len(rewrites) < met
            e = SteenrodElement.from_word(2, tuple(map(Sq, word)))
            assert adem_normalize(e).is_zero()


class TestMultiplication:
    def test_unit(self):
        e = el("Sq^2 Sq^1", 2)
        one = SteenrodElement.unit(2)
        assert multiply(e, one) == e
        assert multiply(one, e) == e

    def test_associative_on_normal_forms(self):
        a, b, c = el("Sq^2", 2), el("Sq^3", 2), el("Sq^1", 2)
        lhs = adem_normalize(multiply(multiply(a, b), c))
        rhs = adem_normalize(multiply(a, multiply(b, c)))
        assert lhs == rhs

    def test_prime_mismatch(self):
        from torsionlab import PrimeMismatchError

        with pytest.raises(PrimeMismatchError):
            multiply(el("Sq^1", 2), el("P^1", 3))


class TestAdmissibleBasis:
    def test_degree_zero_is_unit(self):
        assert [str(m) for m in admissible_basis(2, 0)] == ["1"]

    def test_low_degrees_p2(self):
        assert [str(m) for m in admissible_basis(2, 1)] == ["Sq^1"]
        assert [str(m) for m in admissible_basis(2, 3)] == ["Sq^3", "Sq^2 Sq^1"]

    def test_degree_one_odd(self):
        assert [str(m) for m in admissible_basis(3, 1)] == ["b"]

    def test_members_admissible_and_distinct(self):
        for p, d in [(2, 10), (3, 13), (5, 9)]:
            basis = admissible_basis(p, d)
            assert len(set(basis)) == len(basis)
            for m in basis:
                assert m.is_admissible
                assert m.degree == d

    def test_normal_form_lands_in_basis(self):
        basis = set(admissible_basis(2, 6))
        normal = adem_normalize(el("Sq^2 Sq^4 + Sq^1 Sq^2 Sq^3", 2))
        assert set(normal.terms) <= basis

    @pytest.mark.parametrize("p, top", [(2, 100), (3, 200), (5, 300), (7, 420)])
    def test_matches_recursive_enumerator(self, p, top):
        for d in range(top + 1):
            assert admissible_basis(p, d) == reference_basis(p, d), d

    @pytest.mark.parametrize("p, top", [(2, 100), (3, 160), (5, 200)])
    def test_sizes_match_poincare_series(self, p, top):
        series = poincare_series(p, top)
        assert [len(admissible_basis(p, d)) for d in range(top + 1)] == series


class TestReach:
    """`_reach(p, cap)`, the degrees of the chains under a cap, on which
    the search prunes."""

    def test_closed_form_at_two(self):
        # The largest degree is c + c//2 + c//4 + ... = 2c - popcount(c),
        # and every degree below it is made too.
        for c in range(301):
            assert steenrod._reach(2, c) == (1 << 2 * c - c.bit_count() + 1) - 1, c

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_brute_force_at_odd_primes(self, p):
        pairs = brute_chain_degrees(p, 30)
        for cap in range(31):
            degrees = {0} | {d for s, d in pairs if s <= cap}
            assert steenrod._reach(p, cap) == sum(1 << d for d in degrees), cap


def brute_chain_degrees(p, top):
    """(s_1, degree) of every chain P^{s_1} b^{e_1} ... P^{s_k} b^{e_k} with
    s_1 <= top, found by testing the admissibility condition
    s_j >= p s_{j+1} + e_j on every exponent sequence with s_j <= top // p^(j-1)."""
    q = 2 * (p - 1)
    pairs = set()
    for k in range(1, top.bit_length() + 1):
        for powers in itertools.product(*(range(1, top // p ** j + 1) for j in range(k))):
            for eps in itertools.product((0, 1), repeat=k):
                if all(powers[j] >= p * powers[j + 1] + eps[j] for j in range(k - 1)):
                    pairs.add((powers[0], q * sum(powers) + sum(eps)))
    return pairs


class TestBasisMemo:
    """`admissible_basis` builds each (p, degree) once and shares it."""

    @pytest.mark.parametrize("p, degrees", [
        (2, (0, 1, 17, 64)), (3, (0, 1, 13, 60)), (5, (9, 40, 81)), (7, (1, 12, 97))])
    def test_cold_and_warm_calls_match_reference(self, p, degrees):
        steenrod._basis.cache_clear()
        for d in degrees:
            cold = admissible_basis(p, d)
            assert cold == reference_basis(p, d), d
            assert admissible_basis(p, d) == cold, d
        assert steenrod._basis.cache_info().currsize == len(degrees)

    def test_returned_lists_are_the_callers(self):
        first = admissible_basis(2, 20)
        expected = list(first)
        first.clear()
        assert admissible_basis(2, 20) == expected
        second = admissible_basis(3, 13)
        expected = list(second)
        second.append(Monomial(3, ()))
        second.reverse()
        assert admissible_basis(3, 13) == expected

    def test_calls_share_monomials(self):
        first, second = admissible_basis(2, 30), admissible_basis(2, 30)
        assert first is not second
        assert all(a is b for a, b in zip(first, second, strict=True))

    @pytest.mark.parametrize("args, error", [
        ((4, 3), ValueError), ((2, -1), ValueError), ((2, 5.0), TypeError)])
    def test_bad_input_raises_cold_and_warm(self, args, error):
        steenrod._basis.cache_clear()
        with pytest.raises(error):
            admissible_basis(*args)
        admissible_basis(2, 5)  # 5.0 == 5 and hash(5.0) == hash(5)
        for _ in range(2):
            with pytest.raises(error):
                admissible_basis(*args)
        assert steenrod._basis.cache_info().currsize == 1


class TestBasisBound:
    """A basis above MAX_BASIS_SIZE monomials is refused, counted from
    Milnor's Poincare series before any monomial is built."""

    @pytest.mark.parametrize("p, top", [(2, 100), (3, 200), (5, 300), (7, 420)])
    def test_count_matches_series_and_enumeration(self, p, top):
        series = poincare_series(p, top)
        for d in range(top + 1):
            assert steenrod._basis_size(p, d) == series[d] == len(admissible_basis(p, d)), d

    def test_bound_sits_between_neighbouring_degrees(self):
        assert steenrod.MAX_BASIS_SIZE == 10 ** 6
        assert steenrod._basis_size(2, 499) == 999_982
        assert steenrod._basis_size(2, 500) == 1_010_134
        sizes = [steenrod._basis_size(3, d) for d in (2866, 2867)]
        assert sizes[0] <= steenrod.MAX_BASIS_SIZE < sizes[1]

    @pytest.mark.parametrize("p, d", [(2, 500), (2, 2000), (3, 2867)])
    def test_refused_within_a_second(self, p, d):
        steenrod._basis.cache_clear()
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            admissible_basis(p, d)
        assert time.perf_counter() - start < 1
        size = poincare_series(p, d)[d]
        assert str(info.value) == (f"the admissible basis in degree {d} at p = {p} has "
                                   f"{size} monomials, above the bound of 1000000")
        assert steenrod._basis.cache_info().currsize == 0


def poincare_series(p, top):
    """Coefficients of t^0..t^top in Milnor's Poincare series of the mod-p
    Steenrod algebra ("The Steenrod algebra and its dual", 1958):
    prod 1/(1 - t^(2^i - 1)) at p = 2, and
    prod (1 + t^(2p^i - 1)) * prod 1/(1 - t^(2p^i - 2)) at odd p."""
    series = [1] + [0] * top

    def polynomial(k):  # times 1/(1 - t^k)
        for n in range(k, top + 1):
            series[n] += series[n - k]

    def exterior(k):  # times (1 + t^k)
        for n in range(top, k - 1, -1):
            series[n] += series[n - k]

    for i in range(top.bit_length() + 1):  # factors of degree > top do nothing
        if p == 2:
            if i:
                polynomial(2 ** i - 1)
        else:
            exterior(2 * p ** i - 1)
            if i:
                polynomial(2 * p ** i - 2)
    return series


class TestAdemPattern:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_inline_formulas(self, p):
        for a, b in itertools.product(range(1, 41), repeat=2):
            assert (list(steenrod._adem_pattern("pp", a, b, p))
                    == reference_adem_expand((a, b), 0, "pp", p))
            if p != 2:
                assert (list(steenrod._adem_pattern("pbp", a, b, p))
                        == reference_adem_expand((a, 0, b), 0, "pbp", p))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_first_rewrite_matches_reference(self, p):
        rng = random.Random(f"first-rewrite/{p}")
        words = [steenrod._encode(m.word) for d in range(40) for m in admissible_basis(p, d)]
        words += [tuple(rng.randint(0 if p > 2 else 1, 12) for _ in range(rng.randint(0, 8)))
                  for _ in range(3000)]
        assert any(reference_first_rewrite(w, p) is None for w in words[-3000:])
        for word in words:
            assert steenrod._first_rewrite(word, p) == reference_first_rewrite(word, p), word

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_expand_keeps_head_and_tail(self, p):
        rng = random.Random(p)
        for _ in range(300):
            word = tuple(rng.randint(0 if p > 2 else 1, 9) for _ in range(rng.randint(2, 7)))
            hit = steenrod._first_rewrite(word, p)
            if hit is not None:
                assert (steenrod._adem_expand(word, *hit, p)
                        == reference_adem_expand(word, *hit, p))


# ---------------------------------------------------------------------------
# References: the recursive enumerators and the inline Adem formulas that
# the memoized, output-sensitive paths of torsionlab.steenrod replaced.
# ---------------------------------------------------------------------------

def reference_words_2(d):
    # Words Sq^{i_1}..Sq^{i_k} with i_j >= 2 i_{j+1}, total degree d.
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        top = remaining if cap is None else min(cap, remaining)
        for i in range(top, 0, -1):
            for rest in rec(remaining - i, i // 2):
                yield (i,) + rest
    yield from rec(d, None)


def reference_words_odd(d, p):
    # Chains P^{s_1} b^{e_1} ... P^{s_k} b^{e_k} with s_j >= p s_{j+1} + e_j,
    # optionally preceded by a single b.
    def chains(remaining, cap):
        q = 2 * (p - 1)
        top = remaining // q if cap is None else min(cap, remaining // q)
        for s in range(top, 0, -1):
            rest = remaining - q * s
            if rest == 0:
                yield (s,)
            if rest == 1:
                yield (s, 0)
            for eps in (0, 1):
                sub = rest - eps
                if sub <= 0:
                    continue
                for tail in chains(sub, (s - eps) // p):
                    yield (s,) + ((0,) if eps else ()) + tail
    if d == 0:
        yield ()
        return
    if d == 1:
        yield (0,)
    yield from chains(d, None)
    yield from ((0,) + w for w in chains(d - 1, None))


def reference_basis(p, d):
    words = reference_words_2(d) if p == 2 else reference_words_odd(d, p)
    letter = Sq if p == 2 else (lambda i: P(i) if i else BOCKSTEIN)
    monos = [Monomial(p, tuple(letter(i) for i in w)) for w in words]
    monos.sort(key=Monomial.sort_key, reverse=True)
    return monos


def reference_adem_expand(word, j, kind, p):
    lucas = steenrod.lucas
    head, out = word[:j], []
    if kind == "bb":
        return []
    if kind == "pp":
        a, b = word[j], word[j + 1]
        tail = word[j + 2:]
        if p == 2:
            for c in range(a // 2 + 1):
                if lucas(b - c - 1, a - 2 * c, 2):
                    mid = (a + b - c,) if c == 0 else (a + b - c, c)
                    out.append((1, head + mid + tail))
        else:
            for t in range(a // p + 1):
                coef = lucas((p - 1) * (b - t) - 1, a - p * t, p)
                if coef:
                    sign = -1 if (a + t) % 2 else 1
                    mid = (a + b - t,) if t == 0 else (a + b - t, t)
                    out.append(((sign * coef) % p, head + mid + tail))
        return out
    a, b = word[j], word[j + 2]
    tail = word[j + 3:]
    for t in range(a // p + 1):
        sign = -1 if (a + t) % 2 else 1
        c1 = lucas((p - 1) * (b - t), a - p * t, p)
        if c1:
            mid = (0, a + b - t) if t == 0 else (0, a + b - t, t)
            out.append(((sign * c1) % p, head + mid + tail))
        c2 = lucas((p - 1) * (b - t) - 1, a - p * t - 1, p)
        if c2:
            mid = (a + b - t, 0) if t == 0 else (a + b - t, 0, t)
            out.append(((-sign * c2) % p, head + mid + tail))
    return out


def reference_first_rewrite(word, p):
    """The leftmost inadmissible pattern of an int word, read off the
    admissibility conditions: b b is zero, and a power P^a (Sq^a at p = 2)
    followed by b^e and a power P^c, with e = 0 or 1, needs a >= p c + e.
    The pattern at a position is the one that starts there."""
    letters = [("b", 0) if x == 0 else ("P", x) for x in word]
    for j, (kind, a) in enumerate(letters):
        after = letters[j + 1:]
        if kind == "b":
            if after[:1] == [("b", 0)]:
                return j, "bb"
            continue
        e = 1 if after[:1] == [("b", 0)] else 0
        if len(after) > e and after[e][0] == "P" and a < p * after[e][1] + e:
            return j, ("pbp" if e else "pp")
    return None


@functools.cache
def reference_normalize_word(word, p):
    """The normal form by the recursion that memoized every word it met,
    intermediate ones included, for the whole process."""
    hit = steenrod._first_rewrite(word, p)
    if hit is None:
        return {word: 1}
    result = {}
    for coef, w in steenrod._adem_expand(word, hit[0], hit[1], p):
        for w2, c2 in reference_normalize_word(w, p).items():
            c = (result.get(w2, 0) + coef * c2) % p
            if c:
                result[w2] = c
            else:
                result.pop(w2, None)
    return result


def ascending_words(rng, count):
    """Words of the benchmark's long p = 2 stratum: 3 to 8 letters of total
    degree 64 to 96, in ascending order, which are far from admissible."""
    words = []
    for _ in range(count):
        length, d = rng.randint(3, 8), rng.randint(64, 96)
        cuts = [0, *sorted(rng.sample(range(1, d), length - 1)), d]
        words.append(tuple(sorted(b - a for a, b in zip(cuts, cuts[1:]))))
    return words


@settings(max_examples=60, deadline=None)
@given(
    p=hs.sampled_from([2, 3]),
    indices=hs.lists(hs.integers(min_value=1, max_value=6), min_size=1, max_size=4),
)
def test_normalization_idempotent_random(p, indices):
    gens = tuple(Sq(i) if p == 2 else P(i) for i in indices)
    e = SteenrodElement.from_word(p, gens)
    normal = adem_normalize(e)
    assert adem_normalize(normal) == normal
    assert all(m.is_admissible for m in normal.terms)
    if not normal == SteenrodElement.zero(p):
        assert degree(normal) == degree(e)


# ---------------------------------------------------------------------------
# Reference: the recursive-descent parser that the one-token scanner of
# torsionlab.steenrod replaced.  It tokenizes every letter, caret and index
# apart and builds elements through the public, checked constructors.
# ---------------------------------------------------------------------------

_REFERENCE_TOKEN = re.compile(r"\s*(?:(Sq|P|b|\d+|[-^+()])|(\S))")


def reference_tokenize(text):
    tokens = []
    for m in _REFERENCE_TOKEN.finditer(text):
        if m.lastindex == 2:
            raise ParseError(f"unexpected character {m.group(2)!r}", m.start())
        tokens.append((m.group(1), m.start(1)))
    return tokens


def reference_parse_expression(text, p):
    p = Prime(p)
    tokens = reference_tokenize(text)
    i = 0

    def peek():
        return tokens[i][0] if i < len(tokens) else None

    def parse_generator():
        nonlocal i
        tok, pos = tokens[i]
        if tok == "b":
            i += 1
            if p == 2:
                raise ParseError("'b' is not available at p=2 (use Sq^1)", pos)
            return BOCKSTEIN
        if tok in ("Sq", "P"):
            if (tok == "Sq") != (p == 2):
                raise ParseError(f"{tok!r} is not available at p={p}", pos)
            i += 1
            if peek() == "^":
                i += 1
            if peek() is None or not peek().isdigit():
                raise ParseError(f"expected index after {tok!r}", tokens[i - 1][1])
            idx = int(tokens[i][0])
            i += 1
            if idx == 0:
                raise ParseError("generator index must be positive", tokens[i - 1][1])
            return Generator(tok, idx)
        raise ParseError(f"expected generator, got {tok!r}", pos)

    def parse_parenthesized():
        nonlocal i
        open_pos = tokens[i][1]
        i += 1
        inner = parse_expr()
        if peek() != ")":
            raise ParseError("expected ')'", open_pos)
        i += 1
        return inner

    def parse_term():
        # Each run of generators becomes one word; only parenthesized
        # factors are multiplied in.
        nonlocal i
        coeff, has_coeff = 1, False
        if peek() is not None and peek().isdigit():
            coeff, has_coeff = int(tokens[i][0]), True
            i += 1
        result, run = None, []
        while True:
            tok = peek()
            if tok in ("Sq", "P", "b"):
                run.append(parse_generator())
                continue
            if result is None:
                if tok != "(" and not run and not has_coeff:
                    pos = tokens[i][1] if i < len(tokens) else len(text)
                    raise ParseError("expected a term", pos)
                result = SteenrodElement.from_word(p, run, coeff)
            elif run:
                result = result * SteenrodElement.from_word(p, run)
            if tok != "(":
                return result
            result, run = result * parse_parenthesized(), []

    def parse_expr():
        nonlocal i
        result = parse_term()
        while peek() in ("+", "-"):
            sign = 1 if tokens[i][0] == "+" else -1
            i += 1
            result = result + sign * parse_term()
        return result

    if not tokens:
        raise ParseError("empty expression", 0)
    result = parse_expr()
    if i < len(tokens):
        raise ParseError(f"unexpected token {tokens[i][0]!r}", tokens[i][1])
    return result
