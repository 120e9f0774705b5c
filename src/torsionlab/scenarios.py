"""Scenario runner: chains the algebra, module, stems, and exotic-category
checkers into deterministic verification reports for the five main
machine-checkable claims:

- prop2: 2·S/2 is nonzero (the smash square of the mod-2 Moore spectrum is
  4-dimensional in cohomology, carries a nonzero Sq², and is indecomposable).
- prop3: [S/n, S/n] is cyclic of order n for odd n and Z/4 for n = 2
  (the exact sequence gives order 4, and the nonzero Sq² on the smash
  square of S/2 makes the extension nonsplit).
- prop5: no extension of the mod-3 lift of beta_1 has a cone killed by 3
  (on the hypothetical cohomology module, (P^3)^3 and its admissible
  normal form act differently).
- prop6: the obstruction to associativity of the multiplication on S/n
  lives in π₃(S/n).  When n is prime to 6 the group vanishes, so the
  multiplication is associative; otherwise the group is nonzero, so this
  check does not decide.
- exotic: free Z/4-modules with identity shift satisfy the triangle axioms
  in low rank yet contain an object of 2-order zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exotic import two_order_zero_certificate, verify_axioms
from .modules import (
    act_element,
    consistency_check,
    hypothetical_Cb_module,
    is_decomposable,
    moore_module,
    tensor,
    violation_classes,
)
from .steenrod import parse_expression
from .stems import (
    ComputedGroup,
    StemsTable,
    Unknown,
    associator_obstruction,
    cyclic,
    default_table,
    endomorphisms_from_sequence,
    moore_homotopy,
    positive_n_order,
    stems,
)


@dataclass
class Step:
    claim: str
    result: str
    passed: bool


@dataclass
class ScenarioReport:
    scenario: str
    steps: list[Step] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.steps)

    def check(self, claim: str, passed: bool, result: str) -> None:
        self.steps.append(Step(claim, result, bool(passed)))

    def render(self) -> str:
        lines = [f"scenario {self.scenario}: {'PASS' if self.passed else 'FAIL'}"]
        for s in self.steps:
            mark = "ok" if s.passed else "FAIL"
            lines.append(f"  [{mark}] {s.claim}: {s.result}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "passed": self.passed,
            "steps": [
                {"claim": s.claim, "result": s.result, "passed": s.passed}
                for s in self.steps
            ],
        }


def scenario_prop2() -> ScenarioReport:
    """2·S/2 ≠ 0: if it were zero, the smash square S/2 ∧ S/2 would split,
    but its cohomology is a 4-dimensional indecomposable module with a
    nonzero Sq² connecting the degrees a splitting would separate."""
    report = ScenarioReport("prop2")
    m2 = moore_module(2)
    square = tensor(m2, m2)
    dims = {d: square.dim(d) for d in square.degrees}
    report.check(
        "cohomology of S/2 smash S/2 is 4-dimensional with dims {0:1, 1:2, 2:1}",
        dims == {0: 1, 1: 2, 2: 1},
        f"dims {dims}, total {square.total_dim}",
    )
    sq2 = act_element(square, parse_expression("Sq^2", 2), 0)
    report.check(
        "Sq^2 is nonzero from degree 0 to degree 2",
        bool(np.any(sq2)),
        f"matrix {sq2.tolist()}",
    )
    sq1a = act_element(square, parse_expression("Sq^1", 2), 0)
    sq1b = act_element(square, parse_expression("Sq^1", 2), 1)
    cartan_ok = sq1a.tolist() == [[1], [1]] and sq1b.tolist() == [[1, 1]]
    report.check(
        "Sq^1 follows the product rule on the two tensor factors",
        cartan_ok,
        f"0->1: {sq1a.tolist()}, 1->2: {sq1b.tolist()}",
    )
    dec = is_decomposable(square)
    report.check(
        "the module is indecomposable",
        not dec,
        f"decomposable={bool(dec)}",
    )
    report.check(
        "conclusion: a splitting of the smash square is impossible, so 2 times "
        "the identity of S/2 is nonzero",
        report.passed,
        "all obstructions confirmed",
    )
    return report


def scenario_prop3(n: int, table: StemsTable | None = None) -> ScenarioReport:
    """[S/n, S/n] is cyclic of order n for odd n, and Z/4 for n = 2, so
    2·S/2 ≠ 0.  At n = 2 the exact sequence gives the order, 4, and Sq²
    from degree 0 of S/2 ∧ S/2 (computed as in prop2) the extension: a
    splitting S/2 ∨ ΣS/2 of the smash square, the cone of 2·id, would
    carry Sq² = 0 there, so a nonzero Sq² makes 2·id nonzero, and the
    identity, which maps onto the quotient Z/2, has order 4.  The group
    is concluded to be Z/4 only then; otherwise the unresolved group is
    printed, and so is an unknown one.  The sequence is read off the π₀
    and π₁ of the first two steps, each computed once.  The claim is
    stated for odd n and n = 2 only; any other n is refused."""
    if n % 2 == 0 and n != 2:
        raise ValueError(f"prop3 is stated for odd n and n = 2, not n = {n}")
    report = ScenarioReport(f"prop3(n={n})")
    pi0 = moore_homotopy(n, 0, table)
    report.check(
        f"pi_0(S/{n}) is cyclic of order {n}",
        not isinstance(pi0, Unknown) and pi0.order == n,
        str(pi0),
    )
    pi1 = moore_homotopy(n, 1, table)
    expected_pi1 = 1 if n % 2 == 1 else 2
    report.check(
        f"pi_1(S/{n}) has order {expected_pi1}",
        not isinstance(pi1, Unknown) and pi1.order == expected_pi1,
        str(pi1),
    )
    endos = endomorphisms_from_sequence(n, pi0, pi1)
    group = None if isinstance(endos, Unknown) else endos.group
    if n % 2 == 1:
        report.check(f"[S/{n}, S/{n}] is cyclic of order {n}", group == cyclic(n), str(endos))
    else:
        m2 = moore_module(2)
        sq2 = act_element(tensor(m2, m2), parse_expression("Sq^2", 2), 0)
        if (group is None and not isinstance(endos, Unknown) and endos.order == 4
                and np.any(sq2)):
            group = cyclic(4)
            endos = ComputedGroup(group)
        report.check(
            "[S/2, S/2] has order 4 and the defining extension is nonsplit",
            group == cyclic(4),
            str(endos),
        )
    hence = f"hence {n} times the identity of S/{n} is {'zero' if n % 2 else 'nonzero'}"
    if group is None:
        report.check(hence, False, str(endos))
    else:
        positive = positive_n_order(endos, n)
        passed = report.steps[-1].passed and positive == (n % 2 == 1)  # rests on the group step
        report.check(hence, passed, f"positive {n}-order: {positive}")
    return report


def scenario_prop5(table: StemsTable | None = None) -> ScenarioReport:
    """No map extending the mod-3 lift of beta_1 has a cone killed by 3:
    on the cohomology such a cone would carry, (P³)³ acts nontrivially
    from the bottom cell while its admissible normal form, whose words
    start with P¹ or P², acts as zero."""
    report = ScenarioReport("prop5")
    table = table or default_table()
    for dim in (21, 22, 33, 34):
        entry = stems(dim, table)
        part = entry if isinstance(entry, Unknown) else entry.primary_part(3)
        ok = not isinstance(part, Unknown) and part.is_trivial
        report.check(
            f"the 3-primary part of the stable stem in dimension {dim} is trivial",
            ok,
            "trivial" if ok else str(part),
        )
    cb = hypothetical_Cb_module()
    report.check(
        "hypothetical cone cohomology has total dimension 7 over F_3",
        cb.prime == 3 and cb.total_dim == 7,
        f"dims {dict(sorted((d, cb.dim(d)) for d in cb.degrees))}",
    )
    violations = consistency_check(cb, 40)
    classes = sorted(violation_classes(violations))
    report.check(
        "exactly one violated relation class, at source degree 0 and "
        "operation degree 36",
        classes == [(0, 36)],
        f"violated classes: {classes}",
    )
    p3_cubed = any(
        v.source_degree == 0 and str(v.lhs) == "P^3 P^3 P^3" for v in violations
    )
    report.check(
        "the violated class contains (P^3)^3 against its admissible normal form",
        p3_cubed,
        "; ".join(sorted({str(v.lhs) for v in violations})),
    )
    report.check(
        "conclusion: no such cone exists; the mod-3 lift of beta_1 admits no "
        "extension with cone killed by 3",
        report.passed,
        "Adem consistency fails exactly where predicted",
    )
    return report


def scenario_prop6(n: int, table: StemsTable | None = None) -> ScenarioReport:
    """The associativity obstruction for the multiplication on S/n lives in
    π₃(S/n).  When n is prime to 6 the group vanishes, so the
    multiplication is associative; otherwise the group is nonzero, so this
    check does not decide."""
    report = ScenarioReport(f"prop6(n={n})")
    obstruction = associator_obstruction(n, table)
    known = not isinstance(obstruction, Unknown)
    report.check(
        f"the associator obstruction for S/{n} lives in pi_3(S/{n})",
        known,
        str(obstruction),
    )
    coprime = math.gcd(n, 6) == 1
    report.check(
        f"{n} is prime to 6, so the obstruction group vanishes and the "
        "multiplication is associative" if coprime else
        f"{n} is not prime to 6 and the obstruction group is nonzero",
        known and obstruction.is_trivial == coprime,
        str(obstruction),
    )
    return report


def scenario_exotic() -> ScenarioReport:
    """Free Z/4-modules with identity shift: the candidate distinguished
    class passes the triangle axioms exhaustively in low rank, yet the
    rank-one object has 2-order zero — impossible in an algebraic
    triangulated category, where the cone of multiplication by n is
    always killed by n."""
    report = ScenarioReport("exotic")
    axioms = verify_axioms(2)
    for claim, ok in axioms.steps:
        report.check(f"rank <= 2: {claim}", ok, "verified" if ok else "failed")
    cert = two_order_zero_certificate()
    report.check(
        "2 times the identity of the rank-one module is nonzero",
        cert.two_id_nonzero,
        "matrix [[2]]",
    )
    report.check(
        "the cone of 2*Id is again the rank-one module",
        cert.cone_is_rank_one,
        f"cone rank {cert.cone_rank}",
    )
    report.check(
        "the rank-one object has 2-order 0",
        cert.passed,
        "certificate complete",
    )
    report.check(
        "contrast: in any algebraic triangulated category the cone of "
        "multiplication by n is killed by n, so this category is not algebraic",
        cert.passed,
        "2-order 0 object exhibited",
    )
    return report


# name -> (run(n, table), the n values run_all runs it at, the n of a single
# run when none is given).  A scenario whose default n is None takes no n.
# The callables look the scenario functions up by name on every call.
SCENARIOS = {
    "prop2": (lambda n, table: scenario_prop2(), (None,), None),
    "prop3": (lambda n, table: scenario_prop3(n, table), (3, 5, 7, 9, 15, 2), 2),
    "prop5": (lambda n, table: scenario_prop5(table), (None,), None),
    "prop6": (lambda n, table: scenario_prop6(n, table), (5, 7, 25, 35, 2, 3), 5),
    "exotic": (lambda n, table: scenario_exotic(), (None,), None),
}


def run_scenario(name: str, n: int | None = None,
                 table: StemsTable | None = None) -> ScenarioReport:
    """The scenario of SCENARIOS named name, at n or at its default n.  An
    n for a scenario that takes none is refused."""
    run, _, default = SCENARIOS[name]
    if n is not None and default is None:
        raise ValueError(f"scenario {name} takes no n")
    return run(default if n is None else n, table)


def run_all(table: StemsTable | None = None) -> list[ScenarioReport]:
    return [run(n, table) for run, sweep, _ in SCENARIOS.values() for n in sweep]
