"""Acceptance gate: the eight criteria the package must reproduce, each
with its runtime budget.  One line per criterion is written straight to
the terminal so the verdicts are visible even when output capture is on."""

import math
import random
import sys
import time

import numpy as np
import pytest

from torsionlab import (
    BOCKSTEIN,
    P,
    Sq,
    SteenrodElement,
    act_element,
    adem_normalize,
    admissible_basis,
    associator_obstruction,
    consistency_check,
    cyclic,
    degree,
    direct_sum,
    hypothetical_Cb_module,
    is_decomposable,
    moore_endomorphisms,
    moore_homotopy,
    moore_module,
    mult_by_n,
    oracle_equal,
    parse_expression,
    shift,
    sphere_module,
    tensor,
    two_order_zero_certificate,
    verify_axioms,
    violation_classes,
)
from torsionlab.stems import TRIVIAL, default_table


@pytest.fixture
def report(capfd):
    """One verdict line per criterion, written with capture suspended so
    it reaches the real terminal (or a tee'd log) regardless of -s."""

    def emit(number: int, label: str, passed: bool, elapsed: float) -> None:
        verdict = "PASS" if passed else "FAIL"
        with capfd.disabled():
            sys.stdout.write(
                f"\nACCEPTANCE {number} [{label}]: {verdict} ({elapsed:.2f}s)\n"
            )
            sys.stdout.flush()

    return emit


def timed(budget):
    """Record elapsed time and enforce the runtime budget in seconds."""

    class Timer:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.start
            if exc[0] is None:
                assert self.elapsed < budget, (
                    f"runtime {self.elapsed:.2f}s exceeds budget {budget}s"
                )
            return False

    return Timer()


def test_criterion_1_adem_identity(report):
    passed = False
    with timed(1.0) as t:
        lhs = adem_normalize(parse_expression("P^3 P^3 P^3", 3))
        rhs = adem_normalize(parse_expression("(P^7 P^1 - P^8) P^1", 3))
        passed = lhs == rhs
    report(1, "Adem identity at p=3", passed, t.elapsed)
    assert passed


def criterion_2_words(p):
    """The 500 random words of degree <= 30 that criterion 2 checks at p,
    with their degrees, drawn from random.Random(p)."""
    rng = random.Random(p)
    checked = 0
    while checked < 500:
        length = rng.randint(1, 5)
        word = []
        for _ in range(length):
            if p > 2 and rng.random() < 0.25:
                word.append(BOCKSTEIN)
            else:
                cap = 30 if p == 2 else 30 // (2 * (p - 1))
                idx = rng.randint(1, max(1, cap))
                word.append(Sq(idx) if p == 2 else P(idx))
        e = SteenrodElement.from_word(p, tuple(word))
        d = degree(e)
        if not isinstance(d, int) or d > 30:
            continue
        checked += 1
        yield e, d


def test_criterion_2_oracle_soundness(report):
    passed = True
    with timed(60.0) as t:
        for p in (2, 3, 5):
            for e, d in criterion_2_words(p):
                if not oracle_equal(e, adem_normalize(e), d):
                    passed = False
    report(2, "oracle soundness, 500 words per prime", passed, t.elapsed)
    assert passed


def test_criterion_3_smash_square(report):
    passed = False
    with timed(1.0) as t:
        square = tensor(moore_module(2), moore_module(2))
        sq2 = act_element(square, parse_expression("Sq^2", 2), 0)
        dec = is_decomposable(square)
        passed = (
            square.total_dim == 4
            and bool(np.any(sq2))
            and not dec
            and dec.certified
        )
    report(3, "smash square of S/2", passed, t.elapsed)
    assert passed


def test_criterion_4_moore_endomorphisms(report):
    passed = True
    with timed(1.0) as t:
        for n in (3, 5, 7, 9, 15):
            endos = moore_endomorphisms(n)
            passed = passed and endos.group == cyclic(n)
        two = moore_endomorphisms(2)
        passed = passed and two.order == 4 and two.group == cyclic(4)
        passed = passed and moore_homotopy(2, 1).group == cyclic(2)
        passed = passed and moore_homotopy(3, 1).group == TRIVIAL
    report(4, "Moore endomorphism groups", passed, t.elapsed)
    assert passed


def test_criterion_5_cb_module(report):
    passed = False
    with timed(5.0) as t:
        violations = consistency_check(hypothetical_Cb_module(), 40)
        classes = sorted(violation_classes(violations))
        p3_cubed_at_zero = any(
            v.source_degree == 0 and str(v.lhs) == "P^3 P^3 P^3"
            for v in violations
        )
        passed = classes == [(0, 36)] and p3_cubed_at_zero
    report(5, "single violated relation class", passed, t.elapsed)
    assert passed


def test_criterion_6_associator(report):
    passed = True
    with timed(1.0) as t:
        for n in (5, 7, 25, 35):
            passed = passed and associator_obstruction(n).is_trivial
        for n in (2, 3):
            passed = passed and not associator_obstruction(n).is_trivial
    report(6, "associator obstructions", passed, t.elapsed)
    assert passed


def test_criterion_7_exotic_category(report):
    passed = False
    with timed(30.0) as t:
        axioms = verify_axioms(2)
        cert = two_order_zero_certificate()
        passed = (
            axioms.passed
            and cert.two_id_nonzero
            and cert.cone_is_rank_one
            and cert.passed
        )
    report(7, "exotic Z/4 category", passed, t.elapsed)
    assert passed


def test_criterion_8_invariant_suites(report):
    passed = True
    with timed(60.0) as t:
        # Normalization: idempotence, linearity, degree preservation.
        rng = random.Random(0)
        for _ in range(50):
            p = rng.choice([2, 3])
            word = tuple(
                Sq(rng.randint(1, 6)) if p == 2 else P(rng.randint(1, 4))
                for _ in range(rng.randint(1, 4))
            )
            e = SteenrodElement.from_word(p, word)
            n1 = adem_normalize(e)
            passed = passed and adem_normalize(n1) == n1
            if not n1 == SteenrodElement.zero(p):
                passed = passed and degree(n1) == degree(e)
            f = SteenrodElement.from_word(p, word[::-1])
            passed = passed and (
                adem_normalize(e + f) == adem_normalize(e) + adem_normalize(f)
            )

        # Tensor of consistent small modules stays consistent (Cartan
        # compatibility with the Adem relations), total dimension <= 8.
        pieces2 = [moore_module(2), sphere_module(2, 0), shift(moore_module(2), 1)]
        pieces3 = [moore_module(3), sphere_module(3, 0), shift(moore_module(3), 2)]
        for _ in range(6):
            p = rng.choice([2, 3])
            pool = pieces2 if p == 2 else pieces3
            m = tensor(rng.choice(pool), tensor(rng.choice(pool), rng.choice(pool)))
            assert m.total_dim <= 8
            passed = passed and consistency_check(m, 16) == []

        # Direct sums are detected as decomposable.
        for _ in range(6):
            p = rng.choice([2, 3])
            pool = pieces2 if p == 2 else pieces3
            s = direct_sum(rng.choice(pool), shift(rng.choice(pool), 6))
            passed = passed and bool(is_decomposable(s))

        # Long-exact-sequence order bookkeeping across the populated table.
        table = default_table()
        for n in range(2, 13):
            for k in range(0, 4):
                result = moore_homotopy(n, k, table)
                _, coker = mult_by_n(table.group(k), n)
                ker, _ = mult_by_n(table.group(k - 1), n)
                passed = passed and result.order == coker.order * ker.order
    report(8, "invariant suites", passed, t.elapsed)
    assert passed
