"""The four benchmark workloads.

Each workload turns a seed into an endless, deterministic stream of ops
(plain data: expression text, module recipes), runs one op against the
program through `torsionlab`'s public functions, and afterwards checks the
recorded outputs against answers known by construction or computed by
`reference`, never by the code under test alone.

Every stream cycles through fixed strata and draws only the details inside
a stratum from the seed, so the cost mix of a run does not depend on luck.
A run replays the first ops of the stream several times, each replay in a
fresh process, so the same seed gives the same ops in every replay.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

import reference

# ---------------------------------------------------------------------------
# Word generation
# ---------------------------------------------------------------------------


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """A uniformly random ordered split of total into positive parts."""
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def random_word(rng: random.Random, p: int, lo: int, hi: int,
                min_len: int, max_len: int) -> tuple[int, ...]:
    """A word with min_len..max_len letters and degree in [lo, hi]; at odd
    p it holds up to two Bocksteins, never adjacent to each other."""
    while True:
        length = rng.randint(min_len, max_len)
        if p == 2:
            d = rng.randint(max(lo, length), hi)
            return tuple(_composition(rng, d, length))
        q = 2 * (p - 1)
        bocksteins = min(rng.choice((0, 0, 0, 1, 1, 2)), length - 1)
        powers = length - bocksteins
        s_lo = max(powers, -(-(lo - bocksteins) // q))
        s_hi = (hi - bocksteins) // q
        if s_lo > s_hi:
            continue
        letters = _composition(rng, rng.randint(s_lo, s_hi), powers)
        for _ in range(bocksteins):
            slots = [j for j in range(len(letters) + 1)
                     if (j == 0 or letters[j - 1] != 0)
                     and (j == len(letters) or letters[j] != 0)]
            letters.insert(rng.choice(slots), 0)
        return tuple(letters)


# ---------------------------------------------------------------------------
# Workload interface
# ---------------------------------------------------------------------------


@dataclass
class Record:
    op: tuple
    output: object
    raised: bool


class Workload:
    name = ""
    # Roughly the ops per second of one process on a 2-vCPU Intel Xeon VM at
    # the commit that defined the benchmark.  It only sizes a run
    # (run.op_count): each process of a run gets the same fixed count of
    # ops, never one set by the clock.
    rate = 0.0

    def __init__(self, seed: int):
        self.seed = seed

    def ops(self):
        """Endless deterministic stream of op specs for this seed."""
        raise NotImplementedError

    def run(self, tl, op):
        """Run one op through the program; the return value is checked later."""
        raise NotImplementedError

    def failures(self, tl, records: list[Record]) -> list[bool]:
        """Per record, whether its output is wrong (raised ops are wrong)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# referee: does a word equal its normal form?  The oracle does the work.
# ---------------------------------------------------------------------------

# (prime, degree, letters), visited in turn; the seed picks only how the
# degree is split among the letters.  At odd p the degree fixes the number
# of Bocksteins: 17, 21 and 49 hold one, 42 holds two.  The cost of an op
# depends mostly on its stratum, so fixed strata keep a run's cost mix the
# same from seed to seed.  (5, 40, 2) varies least in cost and sits near
# the median, so it appears three times to keep op_p50_ms from jumping
# between strata.  Eleven strata against a negative control every tenth op
# make the controls visit every stratum in turn.
REFEREE_STRATA = (
    (2, 24, 3), (3, 17, 3), (2, 40, 3), (5, 40, 2), (2, 48, 3), (3, 21, 3),
    (5, 40, 2), (2, 28, 4), (5, 49, 3), (5, 42, 3), (5, 40, 2),
)
NEGATIVE_EVERY = 10


class Referee(Workload):
    name = "referee"
    rate = 400.0

    def ops(self):
        rng = random.Random(f"referee/{self.seed}")
        for i in itertools.count():
            p, d, letters = REFEREE_STRATA[i % len(REFEREE_STRATA)]
            word = random_word(rng, p, d, d, letters, letters)
            extra = None
            if i % NEGATIVE_EVERY == NEGATIVE_EVERY - 1:
                extra = reference.render_word(rng.choice(sorted(_admissible(p, d))), p)
            yield (p, reference.render_word(word, p), d, extra)

    def run(self, tl, op):
        p, text, d, extra = op
        e = tl.parse_expression(text, p)
        rhs = tl.adem_normalize(e)
        if extra is not None:
            rhs = rhs + tl.parse_expression(extra, p)
        return tl.oracle_equal(e, rhs, d)

    def failures(self, tl, records):
        # A word equals its normal form; adding a basis monomial of the same
        # degree makes it differ.
        return [r.raised or r.output is not (r.op[3] is None) for r in records]


@functools.cache
def _admissible(p: int, d: int) -> frozenset:
    return frozenset(reference.admissible_words(p, d))


# ---------------------------------------------------------------------------
# rewrite: Adem normalization of long words.  steenrod does the work.
# ---------------------------------------------------------------------------

# Op kinds visited in turn: ("word", p, lo, hi, min_len, max_len, ascending)
# or ("basis", p, lo, hi).  The long p = 2 words have ascending letters, so
# every adjacent pair is inadmissible and each one costs real rewriting;
# words in random order cost anywhere from nothing to half a second at
# degree 200, and a handful of them would decide a whole run.  Above degree
# 96 the ascending words still vary too much: at 128 the work of a run
# (Adem cache entries) varied 10 % from seed to seed and its time 15 %, at
# 96 about 8 % and 3-8 %.  The first stratum is a short cold op, so set-up
# time does not hinge on one word.
REWRITE_STRATA = (
    ("word", 2, 16, 64, 3, 8, False), ("word", 2, 64, 96, 3, 8, True),
    ("word", 3, 8, 120, 3, 8, False), ("word", 2, 64, 96, 3, 8, True),
    ("word", 2, 64, 96, 3, 8, True), ("basis", 2, 20, 64),
    ("word", 2, 64, 96, 3, 8, True), ("word", 3, 8, 120, 3, 8, False),
    ("word", 2, 64, 96, 3, 8, True), ("basis", 3, 20, 160),
)
# Oracle cross-checks: how many outputs per prime, and the degree up to
# which the oracle stays affordable.
ORACLE_SAMPLE = {2: (20, 64), 3: (20, 28)}


class Rewrite(Workload):
    name = "rewrite"
    rate = 1700.0

    def ops(self):
        rng = random.Random(f"rewrite/{self.seed}")
        for i in itertools.count():
            kind, p, lo, hi, *shape = REWRITE_STRATA[i % len(REWRITE_STRATA)]
            if kind == "basis":
                yield ("basis", p, rng.randint(lo, hi))
                continue
            min_len, max_len, ascending = shape
            word = random_word(rng, p, lo, hi, min_len, max_len)
            if ascending:
                word = tuple(sorted(word))
            yield ("word", p, reference.render_word(word, p), word)

    def run(self, tl, op):
        if op[0] == "basis":
            return tl.admissible_basis(op[1], op[2])
        return str(tl.adem_normalize(tl.parse_expression(op[2], op[1])))

    def failures(self, tl, records):
        normalizers = {p: reference.Normalizer(p) for p in (2, 3)}
        bad = []
        for r in records:
            if r.raised:
                bad.append(True)
            elif r.op[0] == "basis":
                bad.append(not _basis_ok(r.op[1], r.op[2], r.output))
            else:
                p, word = r.op[1], r.op[3]
                try:
                    got = reference.parse_normal_form(r.output, p)
                except ValueError:
                    got = None
                bad.append(got != normalizers[p].normalize(word))
        rng = random.Random(f"rewrite-oracle/{self.seed}")
        for p, (count, max_degree) in ORACLE_SAMPLE.items():
            pool = [i for i, r in enumerate(records)
                    if r.op[0] == "word" and r.op[1] == p and not bad[i]
                    and reference.word_degree(r.op[3], p) <= max_degree]
            for i in rng.sample(pool, min(count, len(pool))):
                op = records[i].op
                lhs = tl.parse_expression(op[2], p)
                rhs = tl.parse_expression(records[i].output, p)
                if not tl.oracle_equal(lhs, rhs, reference.word_degree(op[3], p)):
                    bad[i] = True
        return bad


def _basis_ok(p: int, d: int, basis) -> bool:
    words = []
    for m in basis:
        try:
            terms = reference.parse_normal_form(str(m), p)
        except ValueError:
            return False
        if len(terms) != 1 or set(terms.values()) != {1}:
            return False
        words.extend(terms)
    return len(words) == len(set(words)) and set(words) == _admissible(p, d)


# ---------------------------------------------------------------------------
# module-jobs: build and decide finite Steenrod modules.  modules does the work.
# ---------------------------------------------------------------------------

# A piece is (tensor power of the Moore module, shift); power 0 is a sphere.
# Build ops: tensor powers, optionally plus a shifted Moore module, then an
# Adem consistency check.  Decide ops: a direct sum of pieces of total
# dimension <= 12, or one indecomposable piece, then is_decomposable and the
# Bockstein's matrix.
BUILD_POWERS = {2: (2, 3, 4, 5), 3: (2, 3, 4)}
DECIDE_RECIPES = (
    # exhaustive path: End has at most 2^16 elements
    lambda rng, p: [(1, rng.randint(0, 3)), (1, rng.randint(0, 3))],
    lambda rng, p: [(1, rng.randint(0, 2)), (0, rng.randint(0, 3)),
                    (1, rng.randint(0, 2))],
    lambda rng, p: [(2, rng.randint(0, 2)), (1, rng.randint(0, 4))],
    lambda rng, p: [(1, rng.randint(0, 1)) for _ in range(4)],
    # Fitting path: End has more than 2^16 elements
    lambda rng, p: [(1, rng.randint(0, 1)) for _ in range(6)],
    lambda rng, p: [(3, 0), (2, rng.randint(0, 1))],
    # one indecomposable piece: S/p, or S/2 smash S/2 (S/3 smash S/3 splits)
    lambda rng, p: [(rng.choice((1, 2)) if p == 2 else 1, rng.randint(0, 6))],
)


class ModuleJobs(Workload):
    name = "module-jobs"
    rate = 350.0

    def ops(self):
        rng = random.Random(f"module-jobs/{self.seed}")
        for i in itertools.count():
            p = (2, 3)[(i // 2) % 2]
            if i % 2 == 0:
                # Build ops cost mostly by tensor power, so powers and the
                # extra summand follow a fixed cycle; the seed picks shifts.
                powers, k = BUILD_POWERS[p], i // 4
                extra = rng.randint(2, 8) if (k // len(powers)) % 2 else None
                yield ("build", p, powers[k % len(powers)], extra)
                continue
            recipe = DECIDE_RECIPES[(i // 4) % len(DECIDE_RECIPES)](rng, p)
            degree = rng.choice(sorted({s + j for k, s in recipe for j in range(max(k, 1))}))
            yield ("decide", p, tuple(recipe), degree)

    @staticmethod
    def _piece(tl, p: int, power: int, shift: int):
        if power == 0:
            return tl.sphere_module(p, shift)
        m = tl.moore_module(p)
        out = m
        for _ in range(power - 1):
            out = tl.tensor(out, m)
        return tl.shift(out, shift) if shift else out

    def run(self, tl, op):
        if op[0] == "build":
            _, p, power, extra = op
            M = self._piece(tl, p, power, 0)
            if extra is not None:
                M = tl.direct_sum(M, self._piece(tl, p, 1, extra))
            violations = tl.consistency_check(M, max(M.degrees) - min(M.degrees))
            return dict(M.dims), len(violations)
        _, p, recipe, degree = op
        M = None
        for power, shift in recipe:
            piece = self._piece(tl, p, power, shift)
            M = piece if M is None else tl.direct_sum(M, piece)
        dec = tl.is_decomposable(M)
        bock = tl.parse_expression("Sq^1" if p == 2 else "b", p)
        beta = tl.act_element(M, bock, degree)
        summands = (None if dec.summands is None
                    else tuple(s.total_dim for s in dec.summands))
        return M.total_dim, bool(dec), dec.certified, summands, beta.tolist()

    def failures(self, tl, records):
        return [r.raised or not self._output_ok(r.op, r.output) for r in records]

    @staticmethod
    def _output_ok(op, output) -> bool:
        if op[0] == "build":
            _, p, power, extra = op
            # Graded dimensions of the k-fold smash of S/p are binomial.
            want = {d: math.comb(power, d) for d in range(power + 1)}
            if extra is not None:
                for d in (extra, extra + 1):
                    want[d] = want.get(d, 0) + 1
            dims, violations = output
            return dims == want and violations == 0
        _, p, recipe, degree = op
        total, decomposable, certified, summands, beta = output
        if total != sum(2 ** k for k, _ in recipe):
            return False
        if len(recipe) > 1:
            if not (decomposable and certified and summands is not None
                    and min(summands) > 0 and sum(summands) == total):
                return False
        elif decomposable or not certified:
            return False
        # The Bockstein on a k-fold smash of S/p is exact, so from degree d
        # of a copy shifted by s its rank is C(k-1, d-s); spheres add 0.
        want = sum(math.comb(k - 1, degree - s) for k, s in recipe
                   if k and 0 <= degree - s <= k - 1)
        got = reference.rank_mod_p(beta, p) if beta and beta[0] else 0
        return got == want


# ---------------------------------------------------------------------------
# proof-replay: the traffic of `torsionlab scenario all`.  exotic does the work.
# ---------------------------------------------------------------------------

# The calls run_all() makes, in its order; one op is one scenario report.
# The gate checks that one pass over them renders exactly as run_all() does.
SCENARIO_CALLS = (
    ("scenario_prop2",),
    *(("scenario_prop3", n) for n in (3, 5, 7, 9, 15, 2)),
    ("scenario_prop5",),
    *(("scenario_prop6", n) for n in (5, 7, 25, 35, 2, 3)),
    ("scenario_exotic",),
)


class ProofReplay(Workload):
    name = "proof-replay"
    rate = 130.0

    def ops(self):
        # The scenarios take no input; the seed changes nothing here.
        return itertools.cycle(SCENARIO_CALLS)

    def run(self, tl, op):
        report = getattr(tl, op[0])(*op[1:])
        return report.passed, report.render()

    def failures(self, tl, records):
        # Record i replays SCENARIO_CALLS[i % n]: it must pass and render as
        # run_all()'s report for that call does.
        n = len(SCENARIO_CALLS)
        expected = [r.render() for r in tl.run_all()]
        return [r.raised or len(expected) != n or not r.output[0]
                or r.output[1] != expected[i % n] for i, r in enumerate(records)]


WORKLOADS = {w.name: w for w in (Referee, Rewrite, ModuleJobs, ProofReplay)}
