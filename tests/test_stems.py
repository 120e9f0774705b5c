"""Stable stems table and exact-sequence calculators."""

import importlib
import itertools
import json
import math
import random

import pytest

from torsionlab import (
    AbelianGroup,
    ComputedGroup,
    GroupExtensionProblem,
    StemsTable,
    Unknown,
    associator_obstruction,
    cyclic,
    moore_endomorphisms,
    moore_homotopy,
    mult_by_n,
    positive_n_order,
    stems,
)
from torsionlab import scenarios
from torsionlab.scenarios import scenario_prop3, scenario_prop5, scenario_prop6
from torsionlab.stems import (
    TRIVIAL,
    StemEntry,
    Z,
    _invariant_factors,
    _resolve_extension,
    default_table,
    endomorphisms_from_sequence,
)


def reference_endomorphisms(n, table):
    """[S/n, S/n] straight from the table: π₁(S/n) and π₀(S/n) asked of
    it, then the exact sequence of `endomorphisms_from_sequence`."""
    pi1, pi0 = moore_homotopy(n, 1, table), moore_homotopy(n, 0, table)
    if isinstance(pi1, Unknown) or isinstance(pi0, Unknown):
        return Unknown("needs pi_1(S/n) and pi_0(S/n)")
    if pi1.group is None or pi0.group is None:
        return Unknown("extension-ambiguous Moore homotopy input")
    return _resolve_extension(mult_by_n(pi1.group, n)[1], mult_by_n(pi0.group, n)[0])


def reference_invariant_factors(factors):
    """The canonical form through primary decomposition: each order split
    into prime powers by trial division, the powers of each prime sorted
    descending, and the i-th invariant factor the product of the i-th
    powers."""
    infinite = sum(1 for f in factors if f == 0)
    primary = {}
    for f in factors:
        if f == 0 or f == 1:
            continue
        if f < 0:
            raise ValueError(f"invalid cyclic order {f}")
        for p in reference_prime_factors(f):
            e = 0
            while f % p == 0:
                f //= p
                e += 1
            primary.setdefault(p, []).append(p**e)
    for powers in primary.values():
        powers.sort(reverse=True)
    result = []
    while any(primary.values()):
        d = 1
        for p, powers in primary.items():
            if powers:
                d *= powers.pop(0)
        result.append(d)
    return (0,) * infinite + tuple(result)


def reference_chain_insertion(factors):
    """`_invariant_factors` with an early exit: insertion of an order stops
    once the carried order is 1."""
    infinite = 0
    chain = []
    for f in factors:
        if f == 0:
            infinite += 1
            continue
        if f < 0:
            raise ValueError(f"invalid cyclic order {f}")
        for i, d in enumerate(chain):
            if f == 1:
                break
            g = math.gcd(d, f)
            chain[i], f = d // g * f, g
        if f > 1:
            chain.append(f)
    return (0,) * infinite + tuple(chain)


def reference_mult_by_n(group, n):
    """Kernel and cokernel of n case by case: Z with n = 0, Z with n != 0,
    and a finite factor."""
    n = abs(n)
    kernel, cokernel = [], []
    for f in group.factors:
        if f == 0:
            if n == 0:
                kernel.append(0)
                cokernel.append(0)
            else:
                cokernel.append(n)
        else:
            g = math.gcd(n, f)
            kernel.append(g)
            cokernel.append(g)
    return AbelianGroup(tuple(kernel)), AbelianGroup(tuple(cokernel))


def reference_p_primary(group, p):
    """The p-primary part by dividing p out of each finite factor."""
    parts = []
    for f in group.factors:
        if f == 0:
            continue
        q = 1
        while f % p == 0:
            f //= p
            q *= p
        if q > 1:
            parts.append(q)
    return AbelianGroup(tuple(parts))


def reference_exponent(group):
    """The exponent of a finite group in invariant-factor form: its first
    factor, or 1 for the trivial group."""
    return group.factors[0] if group.factors else 1


def random_factor_tuples(count, seed, infinite=True):
    """count tuples of at most 5 cyclic orders in 1..500, with Z (order 0)
    drawn one time in five unless `infinite` is False."""
    rng = random.Random(seed)
    return [tuple(0 if infinite and rng.random() < 0.2 else rng.randint(1, 500)
                  for _ in range(rng.randint(0, 5)))
            for _ in range(count)]


def reference_prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class TestAbelianGroup:
    def test_canonical_invariant_factors(self):
        assert AbelianGroup((2, 4, 3)).factors == (12, 2)
        assert AbelianGroup((2, 3)).factors == (6,)
        assert AbelianGroup((1, 1)).factors == ()
        assert AbelianGroup((0, 2)).factors == (0, 2)

    def test_invariant_factors_match_the_primary_decomposition(self):
        orders = (0, 1, 2, 3, 4, 6, 8, 12)
        cases = list(itertools.product(orders, repeat=4))
        rng = random.Random(5)
        for _ in range(5000):
            cases.append(tuple(rng.choice((0, 1, rng.randint(2, 10 ** rng.randint(1, 4))))
                               for _ in range(rng.randint(0, 6))))
        for factors in cases:
            assert _invariant_factors(factors) == reference_invariant_factors(factors)

    def test_invariant_factors_match_the_early_exit_form(self):
        # An order carried down to 1 leaves the rest of the chain as it is.
        for factors in random_factor_tuples(40000, 36):
            assert _invariant_factors(factors) == reference_chain_insertion(factors)

    def test_negative_order_rejected(self):
        for factors in ((2, -3), (-1,), (0, -4, 6)):
            with pytest.raises(ValueError, match="invalid cyclic order"):
                AbelianGroup(factors)

    def test_equality_is_isomorphism(self):
        assert AbelianGroup((2, 3)) == AbelianGroup((6,))
        assert AbelianGroup((2, 2)) != AbelianGroup((4,))

    def test_order_and_exponent(self):
        g = AbelianGroup((4, 2))
        assert g.order == 8
        assert g.exponent == 4
        assert Z.order is None
        assert TRIVIAL.order == 1
        assert TRIVIAL.exponent == 1
        assert Z.exponent is None

    def test_exponent_matches_the_first_factor(self):
        for factors in random_factor_tuples(20000, 37, infinite=False):
            group = AbelianGroup(factors)
            assert group.exponent == reference_exponent(group)

    def test_p_primary(self):
        assert AbelianGroup((24,)).p_primary(3) == cyclic(3)
        assert AbelianGroup((24,)).p_primary(2) == cyclic(8)
        assert AbelianGroup((24,)).p_primary(5) == TRIVIAL
        assert AbelianGroup((2,)).p_primary(2) == cyclic(2)
        assert AbelianGroup((0, 12)).p_primary(2) == cyclic(4)
        assert Z.p_primary(3) == TRIVIAL

    def test_p_primary_refuses_a_non_prime(self):
        # Z/8 has no meaningful 4-primary part; gcd(8, 4^4) would call it Z/8.
        for p in (4, 1, 0, -2, 9):
            with pytest.raises(ValueError, match=f"p_primary needs a prime, not {p}"):
                AbelianGroup((8,)).p_primary(p)

    def test_p_primary_matches_division_by_p(self):
        for factors in random_factor_tuples(40000, 38):
            group = AbelianGroup(factors)
            for p in (2, 3, 5, 7, 11, 13):
                assert group.p_primary(p) == reference_p_primary(group, p)

    def test_str(self):
        assert str(TRIVIAL) == "0"
        assert str(Z) == "Z"
        assert str(AbelianGroup((4, 2))) == "Z/4 + Z/2"


class TestTable:
    def test_shipped_values(self):
        assert stems(0).group == Z
        assert stems(1).group == cyclic(2)
        assert stems(2).group == cyclic(2)
        assert stems(3).group == cyclic(24)
        assert stems(10).group == cyclic(6)

    def test_negative_dimensions_trivial(self):
        for n in (-1, -5):
            assert stems(n).group == TRIVIAL

    def test_out_of_range_is_unknown(self):
        entry = stems(100)
        assert isinstance(entry, Unknown)
        assert not entry

    def test_three_primary_facts(self):
        for dim in (21, 22, 33, 34):
            entry = stems(dim)
            assert entry.group is None
            assert entry.p_primary[3] == TRIVIAL

    def test_primary_part_reads_the_group_first(self):
        assert stems(3).primary_part(3) == cyclic(3)
        assert stems(21).primary_part(3) == TRIVIAL
        assert str(stems(21).primary_part(5)) == (
            "unknown (the 5-primary part of stable stem 21 is not in the table)")

    def test_merge_external_file(self, tmp_path):
        # An entry's provenance is its source's, whatever the file names,
        # and a record's "generators" are ignored as its "provenance" is.
        extra = tmp_path / "extra.json"
        extra.write_text(json.dumps([
            {"dimension": 7, "factors": [240]},
            {"dimension": 8, "factors": [2, 2], "provenance": "table"},
            {"dimension": 9, "factors": [2, 2, 2], "provenance": 7},
            {"dimension": 11, "factors": [504], "generators": [{"name": "zeta", "note": 5}]}]))
        table = StemsTable.load_default().with_file(str(extra))
        assert table.stems(7).group == cyclic(240)
        assert table.stems(11).group == cyclic(504)
        assert [table.stems(n).provenance for n in (7, 8, 9)] == ["external"] * 3
        # The default table is untouched.
        assert isinstance(stems(7), Unknown)

    def test_a_refused_file_changes_nothing(self, tmp_path):
        path = tmp_path / "stems.json"
        path.write_text(json.dumps([{"dimension": 3, "factors": [2]},
                                    {"dimension": 7, "factors": [240]}, 3]))
        table = StemsTable.load_default()
        with pytest.raises(ValueError, match="^stems record 2 is 3, not a JSON object$"):
            table.with_file(str(path))
        assert table.stems(3).group == cyclic(24) and table.stems(3).provenance == "table"
        assert isinstance(table.stems(7), Unknown)

    def test_files_may_replace_dimensions_of_the_table_and_of_each_other(self, tmp_path):
        # A dimension twice in one file is refused, but not once per file.
        table = StemsTable.load_default()
        for i, factors in enumerate(([2], [6])):
            path = tmp_path / f"stems{i}.json"
            path.write_text(json.dumps([{"dimension": 3, "factors": factors}]))
            table = table.with_file(str(path))
        assert table.stems(3).group == cyclic(6)
        assert table.stems(3).provenance == "external"
        assert stems(3).group == cyclic(24)

    def test_the_shared_table_is_never_changed(self):
        # Adding records makes a new table; the old call is gone, so it
        # fails loudly rather than merging nowhere.
        shared = default_table()
        table = shared.with_records([{"dimension": 3, "factors": [5]}], "external")
        assert table.stems(3).group == cyclic(5) and table.stems(3).provenance == "external"
        assert default_table() is shared
        assert stems(3).group == cyclic(24) and stems(3).provenance == "table"
        assert scenario_prop6(5).passed
        for old in ("merge_records", "merge_file"):
            assert not hasattr(shared, old)

    def test_entries_are_read_only(self):
        entry = stems(21)
        with pytest.raises(TypeError):
            entry.p_primary[3] = cyclic(3)
        assert entry.p_primary[3] == TRIVIAL
        assert scenario_prop5().passed
        # An entry keeps its own copy of the map it is given.
        given = {3: TRIVIAL}
        entry = StemEntry(21, p_primary=given)
        given[3] = cyclic(3)
        assert entry.p_primary == {3: TRIVIAL}

    def test_the_shipped_file_is_read_with_the_same_checks(self, monkeypatch):
        class Shipped:
            def files(self, package):
                return self

            def joinpath(self, name):
                return self

            def read_text(self):
                return '[{"dimension": 3, "factors": [24], "factors": [2]}]'

        # The package's attribute `stems` is the function, not the module.
        monkeypatch.setattr(importlib.import_module("torsionlab.stems"), "resources", Shipped())
        with pytest.raises(ValueError, match='^the stems file gives the key "factors" twice'):
            StemsTable.load_default()


class TestMultByN:
    def test_on_z(self):
        assert mult_by_n(Z, 5) == (TRIVIAL, cyclic(5))
        assert mult_by_n(Z, 0) == (Z, Z)
        assert mult_by_n(Z, -3) == (TRIVIAL, cyclic(3))

    def test_matches_the_case_by_case_form(self):
        # One gcd rule for every factor and every sign of n.
        rng = random.Random(39)
        for factors in random_factor_tuples(40000, 40):
            group, n = AbelianGroup(factors), rng.randint(-40, 60)
            assert mult_by_n(group, n) == reference_mult_by_n(group, n)

    def test_unit_acts_invertibly(self):
        assert mult_by_n(cyclic(2), 3) == (TRIVIAL, TRIVIAL)

    def test_gcd_arithmetic(self):
        assert mult_by_n(cyclic(24), 3) == (cyclic(3), cyclic(3))

    def test_multiplication_by_one(self):
        for g in (Z, cyclic(24), AbelianGroup((4, 2)), TRIVIAL):
            assert mult_by_n(g, 1) == (TRIVIAL, TRIVIAL)

    def test_tensor_with_cyclic(self):
        # G ⊗ Z/n is G/nG, the cokernel of multiplication by n.
        assert mult_by_n(Z, 5)[1] == cyclic(5)
        assert mult_by_n(cyclic(4), 6)[1] == cyclic(2)
        assert mult_by_n(TRIVIAL, 7)[1] == TRIVIAL


class TestMooreHomotopy:
    def test_pi0_cyclic(self):
        for n in (2, 3, 5, 9):
            assert moore_homotopy(n, 0).group == cyclic(n)

    def test_pi1_vanishes_for_odd(self):
        for n in (3, 5, 7, 15):
            assert moore_homotopy(n, 1).group == TRIVIAL

    def test_pi1_mod_two(self):
        assert moore_homotopy(2, 1).group == cyclic(2)

    def test_ambiguous_extension_reports_order(self):
        r = moore_homotopy(2, 3)
        assert r.group is None
        assert r.order == 4
        assert isinstance(r.extension, GroupExtensionProblem)

    def test_extension_order(self):
        assert GroupExtensionProblem(cyclic(2), cyclic(2)).order == 4
        assert GroupExtensionProblem(cyclic(6), TRIVIAL).order == 6

    def test_a_computed_group_needs_a_group_or_an_extension(self):
        with pytest.raises(ValueError, match="needs a group or an extension"):
            ComputedGroup(None)
        problem = GroupExtensionProblem(cyclic(2), cyclic(2))
        assert str(ComputedGroup(None, extension=problem)) == \
            "group of order 4 (unknown extension)"
        assert ComputedGroup(cyclic(3), extension=problem).order == 3

    def test_unknown_when_stems_missing(self):
        assert isinstance(moore_homotopy(2, 7), Unknown)

    def test_coprime_ends_split(self):
        # 0 -> coker(6, Z/2) -> pi_4(S/6) -> ker(6, Z/3) -> 0, orders 2 and 3.
        table = StemsTable.from_records(
            [{"dimension": 3, "factors": [3]}, {"dimension": 4, "factors": [2]}])
        result = moore_homotopy(6, 4, table)
        assert result.group == cyclic(6)
        assert result.extension is None

    def test_order_bookkeeping_across_table(self):
        # |pi_k(S/n)| = |coker(n on pi_k)| * |ker(n on pi_{k-1})| wherever
        # both stems are known and finite orders make sense.
        table = default_table()
        for n in range(2, 11):
            for k in range(0, 4):
                gk, gk1 = table.group(k), table.group(k - 1)
                result = moore_homotopy(n, k, table)
                _, coker = mult_by_n(gk, n)
                ker, _ = mult_by_n(gk1, n)
                assert result.order == coker.order * ker.order


class TestMooreEndomorphisms:
    @pytest.mark.parametrize("n", [3, 5, 7, 9, 15])
    def test_odd_is_cyclic_of_order_n(self, n):
        endos = moore_endomorphisms(n)
        assert endos.group == cyclic(n)

    def test_mod_two_is_z4(self):
        endos = moore_endomorphisms(2)
        assert endos.group == cyclic(4)
        assert endos.order == 4

    def test_mod_two_follows_its_sequence(self):
        # With pi_1 = 0 the sequence is 0 -> 0 -> E -> Z/2 -> 0: E is Z/2.
        table = StemsTable.from_records(
            [{"dimension": 0, "factors": [0]}, {"dimension": 1, "factors": []}])
        assert moore_endomorphisms(2, table).group == cyclic(2)

    def test_unknown_when_moore_homotopy_is_ambiguous(self):
        # With pi_0 = pi_1 = Z/2, pi_1(S/2) is an unresolved extension of
        # Z/2 by Z/2.
        table = StemsTable.from_records(
            [{"dimension": 0, "factors": [2]}, {"dimension": 1, "factors": [2]}])
        pi0, pi1 = moore_homotopy(2, 0, table), moore_homotopy(2, 1, table)
        assert pi1.group is None
        for result in (moore_endomorphisms(2, table),
                       endomorphisms_from_sequence(2, pi0, pi1),
                       endomorphisms_from_sequence(2, pi1, pi0)):
            assert isinstance(result, Unknown)
            assert result.reason == "extension-ambiguous Moore homotopy input"

    def test_order_invariant(self):
        # |[S/n, S/n]| = n * |pi_1(S/n) (x) Z/n|.
        for n in (2, 3, 5, 9):
            endos = moore_endomorphisms(n)
            pi1 = moore_homotopy(n, 1)
            assert endos.order == n * mult_by_n(pi1.group, n)[1].order


class TestEndomorphismsFromSequence:
    TABLES = {"shipped": default_table(),
              "pi_1 = 0": default_table().with_records(
                  [{"dimension": 1, "factors": []}], "external")}

    @pytest.mark.parametrize("name", TABLES)
    def test_matches_the_composition_from_the_table(self, name):
        table = self.TABLES[name]
        for n in range(1, 31):
            got = endomorphisms_from_sequence(
                n, moore_homotopy(n, 0, table), moore_homotopy(n, 1, table))
            want = reference_endomorphisms(n, table)
            assert got == want
            if n == 2 and want == _resolve_extension(cyclic(2), cyclic(2)):
                want = ComputedGroup(cyclic(4))
            assert moore_endomorphisms(n, table) == want
        # Z/4 at n = 2 from the shipped table; Z/2 when pi_1 = 0.
        assert moore_endomorphisms(2, table).group == cyclic(4 if name == "shipped" else 2)

    def test_unknown_input(self):
        # Without stem 1, pi_1(S/n) is unknown.
        table = StemsTable.from_records([{"dimension": 0, "factors": [0]}])
        pi0, pi1 = moore_homotopy(3, 0, table), moore_homotopy(3, 1, table)
        assert isinstance(pi1, Unknown) and not isinstance(pi0, Unknown)
        for result in (endomorphisms_from_sequence(3, pi0, pi1),
                       endomorphisms_from_sequence(3, pi1, pi0),
                       endomorphisms_from_sequence(3, Unknown("x"), Unknown("y")),
                       moore_endomorphisms(3, table)):
            assert isinstance(result, Unknown)
            assert result.reason == "needs pi_1(S/n) and pi_0(S/n)"

    @pytest.mark.parametrize("n", [3, 15, 2])
    def test_prop3_computes_each_moore_group_once(self, n, monkeypatch):
        # torsionlab.stems is the function stems; the module is looked up.
        stems_module = importlib.import_module("torsionlab.stems")
        calls = []
        compute = stems_module.moore_homotopy

        def counted(n, k, table=None):
            calls.append((n, k))
            return compute(n, k, table)

        monkeypatch.setattr(stems_module, "moore_homotopy", counted)
        monkeypatch.setattr(scenarios, "moore_homotopy", counted)
        assert scenario_prop3(n).passed
        assert sorted(calls) == [(n, 0), (n, 1)]


class TestPositiveNOrder:
    def test_odd_moore_spectra(self):
        for n in (3, 5, 7, 9, 15):
            assert positive_n_order(moore_endomorphisms(n), n)

    def test_mod_two_fails(self):
        assert not positive_n_order(moore_endomorphisms(2), 2)

    def test_n_equal_one(self):
        assert positive_n_order(cyclic(5), 1)

    def test_accepts_plain_group(self):
        assert positive_n_order(cyclic(3), 3)
        assert not positive_n_order(cyclic(4), 2)
        assert not positive_n_order(Z, 2)

    def test_unresolved_extension_is_refused(self):
        with pytest.raises(ValueError, match="^identity order undetermined"):
            positive_n_order(moore_homotopy(2, 3), 2)


class TestAssociatorObstruction:
    @pytest.mark.parametrize("n", [5, 7, 25, 35])
    def test_vanishes_prime_to_six(self, n):
        assert associator_obstruction(n).is_trivial

    def test_nonzero_at_three(self):
        r = associator_obstruction(3)
        assert r.group == cyclic(3)
        assert not r.is_trivial

    def test_nonzero_at_two(self):
        r = associator_obstruction(2)
        assert r.order == 4
        assert not r.is_trivial

    def test_matches_moore_homotopy(self):
        for n in (2, 3, 5, 6, 7):
            a = associator_obstruction(n)
            m = moore_homotopy(n, 3)
            assert a.order == m.order


class TestPositiveN:
    @pytest.mark.parametrize("call", [
        lambda: moore_homotopy(0, 3),
        lambda: moore_homotopy(-3, 1),
        lambda: moore_endomorphisms(-3),
        lambda: moore_endomorphisms(0),
        lambda: associator_obstruction(0),
    ])
    def test_nonpositive_n_rejected(self, call):
        with pytest.raises(ValueError):
            call()

    def test_n_equal_one_is_trivial(self):
        assert moore_homotopy(1, 3).is_trivial
        assert moore_endomorphisms(1).is_trivial
        assert associator_obstruction(1).is_trivial


class TestProvenance:
    def test_every_surfaced_value_is_tagged(self):
        assert stems(3).provenance == "table"
        assert stems(-2).provenance == "derived"
        assert moore_homotopy(3, 1).provenance == "derived"
        assert moore_endomorphisms(3).provenance == "derived"
