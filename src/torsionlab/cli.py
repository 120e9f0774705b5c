"""Command-line front end.

Subcommands cover the individual calculators (normalization, oracle
cross-checks, admissible bases, module operations, Moore-spectrum homotopy
and endomorphism groups, associativity obstructions, the Z/4 exotic
category) and the scenario runner that chains them into verification
reports.  Each command returns its result as (payload, text, status), and
results and errors both leave through `main`: it prints the payload as
JSON with --json and the text otherwise, and returns the status.  Exit
status is 0 exactly when every requested check passes, 1 when a check
fails or a value is unknown, 2 for a usage error such as a non-prime
--prime, a negative --max-degree for oracle-check, a malformed expression,
a module or stems file that is missing or malformed, or a module too large
to allocate, and 141 (128 + SIGPIPE) when the reader of its output closes
the pipe early."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import modules as mod
from .stems import (
    StemsTable,
    Unknown,
    associator_obstruction,
    default_table,
    moore_endomorphisms,
    moore_homotopy,
    stems,
)
from .exotic import two_order_zero_certificate, verify_axioms
from .oracle import checked_degree, oracle_equal
from .scenarios import SCENARIOS, run_all, run_scenario
from .steenrod import (
    SteenrodError,
    adem_normalize,
    admissible_basis,
    parse_expression,
)

# What a command returns: the payload --json prints, the text printed
# otherwise, and the exit status.
Result = tuple[object, str, int]


def _unknown(payload: dict, result: Unknown) -> Result:
    return {**payload, "value": "unknown"}, str(result), 1


def _load_table(args) -> StemsTable:
    table = default_table()
    return table.with_file(args.stems_file) if args.stems_file else table


def _cmd_normalize(args) -> Result:
    expr = parse_expression(args.expression, args.prime)
    normal = adem_normalize(expr)
    return ({"input": str(expr), "normal_form": str(normal), "prime": args.prime},
            str(normal), 0)


def _cmd_oracle_check(args) -> Result:
    lhs = parse_expression(args.expression, args.prime)
    rhs = (
        parse_expression(args.against, args.prime)
        if args.against
        else adem_normalize(lhs)
    )
    equal = oracle_equal(lhs, rhs, args.max_degree)
    degree = checked_degree(lhs - rhs, args.max_degree)
    return (
        {
            "lhs": str(lhs),
            "rhs": str(rhs),
            "max_degree": degree,
            "equal": equal,
        },
        f"{'EQUAL' if equal else 'DIFFERENT'}: {lhs}  vs  {rhs}  "
        f"(polynomial action through degree {degree})",
        0 if equal else 1,
    )


def _cmd_basis(args) -> Result:
    basis = admissible_basis(args.prime, args.degree)
    names = [str(m) for m in basis]
    return ({"prime": args.prime, "degree": args.degree, "basis": names},
            "\n".join(names) if names else "(empty)", 0)


def _cmd_module_check(args) -> Result:
    m = mod.load_module(args.file)
    bound, relations = mod.adem_relations(m, args.max_degree)
    violations = mod.consistency_check(m, args.max_degree)
    classes = sorted(mod.violation_classes(violations))
    text_lines = [
        f"module over F_{m.prime}, total dimension {m.total_dim}",
        f"relations checked: {len(relations)} (degree <= {bound})",
        f"violated relation classes: {classes if classes else 'none'}",
    ]
    text_lines.extend(f"  {v}" for v in violations)
    return (
        {
            "prime": m.prime,
            "total_dim": m.total_dim,
            "max_relation_degree": bound,
            "relations_checked": len(relations),
            "violated_classes": [list(c) for c in classes],
            "violations": [str(v) for v in violations],
        },
        "\n".join(text_lines),
        0 if not violations else 1,
    )


def _cmd_module_tensor(args) -> Result:
    a = mod.load_module(args.files[0])
    b = mod.load_module(args.files[1])
    t = mod.tensor(a, b)
    if args.output:
        mod.save_module(t, args.output)
    dims = {d: t.dim(d) for d in t.degrees}
    return (
        {"dims": dims, "total_dim": t.total_dim},
        f"tensor product dims {dims}, total dimension {t.total_dim}"
        + (f", written to {args.output}" if args.output else ""),
        0,
    )


def _cmd_module_decompose(args) -> Result:
    m = mod.load_module(args.file)
    result = mod.is_decomposable(m)
    summand_dims = [
        {d: s.dim(d) for d in s.degrees} for s in (result.summands or [])
    ]
    return (
        {
            "decomposable": bool(result),
            "summand_dims": summand_dims,
        },
        f"decomposable: {bool(result)}"
        + (f", summand dims {summand_dims}" if result.summands else ""),
        0,
    )


def _cmd_pi(args) -> Result:
    table = _load_table(args)
    if args.moore is None:
        entry = stems(args.k, table)
        if isinstance(entry, Unknown):
            return _unknown({"k": args.k}, entry)
        text = str(entry.group) if entry.group is not None else str(
            {p: str(g) for p, g in entry.p_primary.items()}
        )
        return ({"k": args.k, "group": text, "provenance": entry.provenance},
                f"pi_{args.k} = {text}  [{entry.provenance}]", 0)
    result = moore_homotopy(args.moore, args.k, table)
    if isinstance(result, Unknown):
        return _unknown({"k": args.k, "n": args.moore}, result)
    return ({"k": args.k, "n": args.moore, "group": str(result), "order": result.order},
            f"pi_{args.k}(S/{args.moore}) = {result}", 0)


def _cmd_endo(args) -> Result:
    table = _load_table(args)
    result = moore_endomorphisms(args.n, table)
    if isinstance(result, Unknown):
        return _unknown({"n": args.n}, result)
    return ({"n": args.n, "group": str(result), "order": result.order},
            f"[S/{args.n}, S/{args.n}] = {result}", 0)


def _cmd_associator(args) -> Result:
    table = _load_table(args)
    result = associator_obstruction(args.n, table)
    if isinstance(result, Unknown):
        return _unknown({"n": args.n}, result)
    verdict = "associative" if result.is_trivial else "obstruction nonzero"
    return ({"n": args.n, "obstruction": str(result), "associative": result.is_trivial},
            f"obstruction group pi_3(S/{args.n}) = {result}: {verdict}", 0)


def _cmd_exotic_verify(args) -> Result:
    report = verify_axioms(args.max_rank)
    lines = [f"exotic category axiom check (rank <= {args.max_rank}): "
             f"{'PASS' if report.passed else 'FAIL'}"]
    lines.extend(f"  [{'ok' if ok else 'FAIL'}] {desc}" for desc, ok in report.steps)
    return (
        {
            "max_rank": args.max_rank,
            "passed": report.passed,
            "steps": [{"claim": d, "passed": ok} for d, ok in report.steps],
        },
        "\n".join(lines),
        0 if report.passed else 1,
    )


def _cmd_exotic_two_order(args) -> Result:
    cert = two_order_zero_certificate()
    return (
        {
            "passed": cert.passed,
            "two_id_nonzero": cert.two_id_nonzero,
            "cone_rank": cert.cone_rank,
            "lines": cert.lines,
        },
        "\n".join(cert.lines + [f"certificate: {'PASS' if cert.passed else 'FAIL'}"]),
        0 if cert.passed else 1,
    )


def _cmd_scenario(args) -> Result:
    if args.name == "all" and args.n is not None:
        raise ValueError("scenario all takes no n")
    table = _load_table(args)
    reports = (run_all(table) if args.name == "all"
               else [run_scenario(args.name, args.n, table)])
    return ([r.to_dict() for r in reports], "\n\n".join(r.render() for r in reports),
            0 if all(r.passed for r in reports) else 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsionlab",
        description="Workbench for torsion computations in triangulated categories",
    )
    parser.add_argument("--prime", type=int, default=2, help="the prime p (default 2)")
    parser.add_argument(
        "--max-degree", type=int, default=40,
        help="degree bound for oracle and consistency checks (default 40); "
        "oracle-check raises it to the operands' highest degree",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON output")
    parser.add_argument(
        "--stems-file", default=None,
        help="JSON file with additional stable-stems entries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="Adem normal form of an expression")
    p.add_argument("expression")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser(
        "oracle-check",
        help="compare an expression with its normal form (or a second "
        "expression) via the polynomial-algebra action",
    )
    p.add_argument("expression")
    p.add_argument("against", nargs="?", default=None)
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("basis", help="admissible basis in a given degree")
    p.add_argument("degree", type=int)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("module", help="finite module operations")
    msub = p.add_subparsers(dest="module_command", required=True)
    q = msub.add_parser("check", help="Adem-consistency check of a module file")
    q.add_argument("file")
    q.set_defaults(func=_cmd_module_check)
    q = msub.add_parser("tensor", help="tensor product of two module files")
    q.add_argument("files", nargs=2)
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(func=_cmd_module_tensor)
    decompose = ("decomposability of a module file of total dimension at most "
                 f"{mod.DECOMPOSE_BOUND}, decided exactly: indecomposable iff "
                 "End(M) is local")
    q = msub.add_parser("decompose", help=decompose, description=decompose)
    q.add_argument("file")
    q.set_defaults(func=_cmd_module_decompose)

    p = sub.add_parser("pi", help="stable stem, or Moore-spectrum homotopy with --moore")
    p.add_argument("k", type=int)
    p.add_argument("--moore", type=int, default=None, metavar="N")
    p.set_defaults(func=_cmd_pi)

    p = sub.add_parser("endo", help="endomorphism group of the mod-n Moore spectrum")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_endo)

    p = sub.add_parser("associator", help="associativity obstruction for S/n")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_associator)

    p = sub.add_parser("exotic", help="Z/4 exotic category checks")
    esub = p.add_subparsers(dest="exotic_command", required=True)
    q = esub.add_parser("verify", help="axiom verification up to a rank bound")
    q.add_argument("--max-rank", type=int, default=2)
    q.set_defaults(func=_cmd_exotic_verify)
    q = esub.add_parser("two-order", help="2-order-zero certificate")
    q.set_defaults(func=_cmd_exotic_two_order)

    p = sub.add_parser("scenario", help="run a verification scenario")
    p.add_argument("name", choices=[*SCENARIOS, "all"])
    p.add_argument("--n", type=int, default=None, help="n for prop3/prop6")
    p.set_defaults(func=_cmd_scenario)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, text, status = args.func(args)
        print(json.dumps(payload, indent=2, sort_keys=True) if args.json else text)
        sys.stdout.flush()  # so that a closed pipe is seen here
        return status
    except BrokenPipeError:
        # The reader left early (`| head`): point stdout at devnull so that
        # the interpreter's last flush stays quiet, and exit as if killed by
        # SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (SteenrodError, mod.ModuleError, ValueError, OSError, MemoryError) as exc:
        # numpy names the size it could not allocate; a bare MemoryError has no text.
        print(f"torsionlab: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
