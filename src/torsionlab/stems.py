"""Stable stems table and long-exact-sequence calculators for Moore spectra.

The table of stable homotopy groups of spheres is shipped as data (these
groups are famously hard to compute and we make no attempt to do so); the
functions in this module only mechanize the exact-sequence bookkeeping that
turns stems into homotopy and endomorphism groups of mod-n Moore spectra
S/n, the cofiber of multiplication by n on the sphere.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from importlib import resources
from types import MappingProxyType

from ._jsonfile import _by_int_key, _field, _list_of, _load, _of_kind, _read
from .steenrod import _is_prime

# Provenance tags.  "table" marks values shipped with the package, "external"
# marks values merged in from a user-supplied stems file, "derived" marks
# values computed here by exact-sequence arithmetic.
TABLE = "table"
EXTERNAL = "external"
DERIVED = "derived"


def _invariant_factors(factors: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical form: infinite factors first, then invariant factors in
    descending divisibility order (each divides the one before it).

    Each finite order f is inserted into the chain d_0, d_1, ... by
    replacing d_i with lcm(d_i, f) and carrying gcd(d_i, f) on; a carry
    above 1 at the end is a new factor.  Prime by prime this inserts f's
    exponent into the descending list of exponents."""
    infinite = 0
    chain: list[int] = []
    for f in factors:
        if f == 0:
            infinite += 1
            continue
        if f < 0:
            raise ValueError(f"invalid cyclic order {f}")
        for i, d in enumerate(chain):
            g = math.gcd(d, f)
            chain[i], f = d // g * f, g
        if f > 1:
            chain.append(f)
    return (0,) * infinite + tuple(chain)


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group as a tuple of cyclic orders.

    The order 0 marks an infinite cyclic factor.  Instances are stored in
    canonical invariant-factor form, so equality is isomorphism."""

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", _invariant_factors(tuple(self.factors)))

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    @property
    def is_finite(self) -> bool:
        return 0 not in self.factors

    @property
    def order(self) -> int | None:
        """Number of elements, or None for an infinite group."""
        if not self.is_finite:
            return None
        return math.prod(self.factors)

    @property
    def exponent(self) -> int | None:
        """Least m > 0 with m·g = 0 for all g, or None if unbounded."""
        if not self.is_finite:
            return None
        return math.lcm(*self.factors)

    def __add__(self, other: "AbelianGroup") -> "AbelianGroup":
        return AbelianGroup(self.factors + other.factors)

    def p_primary(self, p: int) -> "AbelianGroup":
        """The p-primary part for a prime p: Z/gcd(f, p^b) per factor Z/f,
        b the bit length of f, as p^b > f; Z (f = 0) gives gcd(0, 1) = 1."""
        return AbelianGroup(tuple(math.gcd(f, p ** f.bit_length()) for f in self.factors))

    def __str__(self) -> str:
        if not self.factors:
            return "0"
        return " + ".join("Z" if f == 0 else f"Z/{f}" for f in self.factors)


TRIVIAL = AbelianGroup(())
Z = AbelianGroup((0,))


def cyclic(m: int) -> AbelianGroup:
    return AbelianGroup((m,))


def mult_by_n(group: AbelianGroup, n: int) -> tuple[AbelianGroup, AbelianGroup]:
    """Kernel and cokernel of multiplication by n, factorwise: on Z/f (Z
    for f = 0) both are Z/gcd(n, f) for either sign of n, except that
    n ≠ 0 has the trivial kernel on Z."""
    kernel: list[int] = []
    cokernel: list[int] = []
    for f in group.factors:
        g = math.gcd(n, f)
        kernel.append(g if f or not n else 1)
        cokernel.append(g)
    return AbelianGroup(tuple(kernel)), AbelianGroup(tuple(cokernel))


@dataclass(frozen=True)
class GroupExtensionProblem:
    """A short exact sequence 0 → sub → E → quotient → 0 whose middle term
    is pinned down only up to extension.  Both ends are finite: wherever
    the package builds one, they are a cokernel and a kernel of n ≥ 1."""

    sub: AbelianGroup
    quotient: AbelianGroup

    @property
    def order(self) -> int:
        return self.sub.order * self.quotient.order


@dataclass(frozen=True)
class ComputedGroup:
    """Result of an exact-sequence computation with provenance.

    When the group is determined it is stored in `group`; when only the
    order is pinned down, `group` is None and `extension` records the
    unresolved extension problem."""

    group: AbelianGroup | None
    provenance: str = DERIVED
    extension: GroupExtensionProblem | None = None

    @property
    def order(self) -> int | None:
        if self.group is not None:
            return self.group.order
        return self.extension.order if self.extension else None

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def __str__(self) -> str:
        if self.group is not None:
            return str(self.group)
        if self.extension is not None:
            return f"group of order {self.extension.order} (unknown extension)"
        return "unknown"


@dataclass(frozen=True)
class Unknown:
    """Explicit marker for a value the stems table cannot determine."""

    reason: str = ""

    def __bool__(self) -> bool:
        return False

    def __str__(self) -> str:
        return f"unknown ({self.reason})" if self.reason else "unknown"


@dataclass(frozen=True)
class StemEntry:
    """One stored stable stem: either the full group or partial p-primary
    facts (a read-only map prime → p-primary part)."""

    dimension: int
    group: AbelianGroup | None = None
    p_primary: Mapping[int, AbelianGroup] = field(default_factory=dict)
    provenance: str = TABLE

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_primary", MappingProxyType(dict(self.p_primary)))

    def primary_part(self, p: int) -> AbelianGroup | Unknown:
        """The p-primary part of the stem, read off the group when the
        group is known, else the stored p-primary part, else Unknown."""
        if self.group is not None:
            return self.group.p_primary(p)
        if p in self.p_primary:
            return self.p_primary[p]
        return Unknown(f"the {p}-primary part of stable stem {self.dimension} "
                       "is not in the table")


def _entries(records: list[dict], provenance: str) -> dict[int, StemEntry]:
    """One entry per record, each labelled with the provenance of its
    source, whatever the record says: TABLE for the shipped file, EXTERNAL
    for a user's.  A record is an object with a non-negative integer
    "dimension" and optionally "factors" (a list of integer orders) and
    "p_primary" (an object of lists of powers of p by prime p, which must
    agree with "factors" when both are given); its other keys are ignored.
    A field of the wrong kind, or a dimension or a prime of a record named
    twice, is a ValueError of one line (`_jsonfile`), and so is a value
    outside those bounds."""
    entries: dict[int, StemEntry] = {}
    for i, rec in enumerate(_of_kind(records, list, "the stems file", ValueError)):
        where = f"stems record {i}"
        dim = _field(rec, "dimension", where, int, ValueError)
        if dim < 0:
            raise ValueError(f"{where}'s 'dimension' is {dim}, not a non-negative integer")
        if dim in entries:
            raise ValueError(f"{where} gives dimension {dim} a second time")
        group = None
        if rec.get("factors") is not None:
            group = AbelianGroup(_list_of(rec["factors"], int, f"{where}'s 'factors'",
                                          ValueError, "an order in"))
        p_primary = {}
        if "p_primary" in rec:
            for p, fs in _by_int_key(rec, "p_primary", where, "prime", ValueError).items():
                if not _is_prime(p):
                    raise ValueError(f"{where}'s 'p_primary' names {p}, not a prime")
                what = f"{where}'s {p}-primary factors"
                orders = _list_of(fs, int, what, ValueError, "an order in")
                for f in orders:
                    if f < 1 or cyclic(f).p_primary(p).order != f:
                        raise ValueError(f"an order in {what} is {f}, not a power of {p}")
                part = p_primary[p] = AbelianGroup(orders)
                if group is not None and group.p_primary(p) != part:
                    raise ValueError(f"{what} give {part}, but its 'factors' give "
                                     f"{group.p_primary(p)}")
        entries[dim] = StemEntry(
            dimension=dim,
            group=group,
            p_primary=p_primary,
            provenance=provenance,
        )
    return entries


class StemsTable:
    """Table of stable homotopy groups of spheres, read-only once built:
    adding records or a file returns a new table, so the one that
    `default_table` shares is never changed.

    Negative dimensions are always trivial; dimensions outside the stored
    range return an explicit Unknown, never a guess."""

    def __init__(self, entries: dict[int, StemEntry]):
        self._entries = dict(entries)

    @classmethod
    def from_records(cls, records: list[dict], provenance: str = TABLE) -> "StemsTable":
        return cls(_entries(records, provenance))

    def with_records(self, records: list[dict], provenance: str) -> "StemsTable":
        """A new table: this one with the records' entries (`_entries`),
        which may replace entries of this table.  This table is unchanged,
        also when the records are refused."""
        return StemsTable({**self._entries, **_entries(records, provenance)})

    @classmethod
    def load_default(cls) -> "StemsTable":
        shipped = resources.files("torsionlab.data").joinpath("stems.json")
        return cls.from_records(
            _load(shipped.read_text(), str(shipped), "the stems file", ValueError), TABLE)

    def with_file(self, path: str) -> "StemsTable":
        """A new table: this one with the records of a user's stems file,
        labelled EXTERNAL (`with_records`)."""
        return self.with_records(_read(path, "the stems file", ValueError), EXTERNAL)

    def stems(self, n: int) -> StemEntry | Unknown:
        if n < 0:
            return StemEntry(dimension=n, group=TRIVIAL, provenance=DERIVED)
        if n in self._entries:
            return self._entries[n]
        return Unknown(f"stable stem {n} is not in the table")

    def group(self, n: int) -> AbelianGroup | None:
        entry = self.stems(n)
        if isinstance(entry, Unknown):
            return None
        return entry.group


@functools.cache
def default_table() -> StemsTable:
    """The shipped table, built once per process and shared by every
    caller, which is why no table changes once built."""
    return StemsTable.load_default()


def stems(n: int, table: StemsTable | None = None) -> StemEntry | Unknown:
    return (table or default_table()).stems(n)


@functools.lru_cache(maxsize=256)  # immutable pairs, asked again on every run
def _resolve_extension(sub: AbelianGroup, quotient: AbelianGroup) -> ComputedGroup:
    """Middle term of 0 → sub → E → quotient → 0, when determined.

    The extension is the direct sum when the orders are coprime, a trivial
    end (order 1) included; otherwise only the order is reported, together
    with the open extension problem.  Both ends are finite for n ≥ 1: the
    cokernel and kernel of n on Z are Z/n and 0."""
    if math.gcd(sub.order, quotient.order) == 1:
        return ComputedGroup(sub + quotient)
    return ComputedGroup(None, DERIVED, GroupExtensionProblem(sub, quotient))


def moore_homotopy(
    n: int, k: int, table: StemsTable | None = None
) -> ComputedGroup | Unknown:
    """π_k(S/n) from the long exact sequence of the cofibration defining
    the mod-n Moore spectrum:

        π_k --n--> π_k --> π_k(S/n) --> π_{k-1} --n--> π_{k-1}

    which yields 0 → coker(n·, π_k) → π_k(S/n) → ker(n·, π_{k-1}) → 0.

    Raises ValueError for n < 1; so do moore_endomorphisms and
    associator_obstruction, which are built on this."""
    if n < 1:
        raise ValueError(f"the Moore spectrum S/n needs n >= 1, got n = {n}")
    table = table or default_table()
    gk = table.group(k)
    gk1 = table.group(k - 1)
    if gk is None or gk1 is None:
        missing = k if gk is None else k - 1
        return Unknown(f"needs stable stem {missing}")
    _, coker = mult_by_n(gk, n)
    ker, _ = mult_by_n(gk1, n)
    return _resolve_extension(coker, ker)


def endomorphisms_from_sequence(
    n: int, pi0: ComputedGroup | Unknown, pi1: ComputedGroup | Unknown
) -> ComputedGroup | Unknown:
    """The endomorphism group [S/n, S/n] of the mod-n Moore spectrum as far
    as the short exact sequence

        0 → π₁(S/n) ⊗ Z/n → [S/n, S/n] → (n-torsion of π₀(S/n)) → 0

    determines it: cyclic of order n for odd n, of order 4 at n = 2.  pi0
    and pi1 are π₀(S/n) and π₁(S/n) as `moore_homotopy` gives them; an
    Unknown or an unresolved one gives an Unknown."""
    if isinstance(pi1, Unknown) or isinstance(pi0, Unknown):
        return Unknown("needs pi_1(S/n) and pi_0(S/n)")
    if pi1.group is None or pi0.group is None:
        return Unknown("extension-ambiguous Moore homotopy input")
    _, sub = mult_by_n(pi1.group, n)  # G ⊗ Z/n = G/nG
    quotient, _ = mult_by_n(pi0.group, n)
    return _resolve_extension(sub, quotient)


def moore_endomorphisms(
    n: int, table: StemsTable | None = None
) -> ComputedGroup | Unknown:
    """[S/n, S/n] (`endomorphisms_from_sequence`), with the extension of Z/2
    by Z/2 at n = 2 taken to be Z/4, as `scenarios.scenario_prop3` derives
    it from the nonzero Sq² on S/2 ∧ S/2: 2·id ≠ 0."""
    endos = endomorphisms_from_sequence(
        n, moore_homotopy(n, 0, table), moore_homotopy(n, 1, table))
    if n == 2 and endos == _resolve_extension(cyclic(2), cyclic(2)):
        return ComputedGroup(cyclic(4))
    return endos


def positive_n_order(endos: ComputedGroup | AbelianGroup, n: int) -> bool:
    """Whether n times the identity of the object is zero, given its
    endomorphism group (cyclic, generated by the identity).

    For n = 1 the mod-1 cone of any object is zero, so the condition holds
    for every object."""
    if n == 1:
        return True
    group = endos.group if isinstance(endos, ComputedGroup) else endos
    if group is None:
        raise ValueError("identity order undetermined: extension unresolved")
    identity_order = group.exponent
    if identity_order is None:
        return False
    return n % identity_order == 0


def associator_obstruction(
    n: int, table: StemsTable | None = None
) -> ComputedGroup | Unknown:
    """Obstruction group for associativity of the multiplication on S/n.

    The associator of the multiplication factors through the 3-sphere, so
    it lives in [S[3], S/n] = π₃(S/n).  When n is prime to 6 the group
    vanishes (π₃ = Z/24 and π₂ = Z/2 are both killed by units), so the
    multiplication is associative.  Otherwise the group is nonzero, so
    this check does not decide."""
    return moore_homotopy(n, 3, table)
