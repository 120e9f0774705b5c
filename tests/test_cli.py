"""Command-line interface: subcommand behavior, JSON output, exit codes,
and byte-stable reports."""

import json
import os
import subprocess
import sys

import pytest

from torsionlab.cli import main
from torsionlab.modules import (
    BOCKSTEIN,
    FiniteModule,
    hypothetical_Cb_module,
    moore_module,
    save_module,
    tensor,
)
from torsionlab.scenarios import run_all

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
# The text and JSON output of `torsionlab scenario all`.
SCENARIO_ALL = os.path.join(DATA, "scenario_all.txt")
SCENARIO_ALL_JSON = os.path.join(DATA, "scenario_all.json")


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def cli_env():
    """The environment for running the CLI from this checkout's src."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


EXOTIC_STEPS = [
    "enumerated 16 class representatives",
    "consecutive composites vanish on every representative",
    "rotation of every representative stays in the class",
    "direct sums of representatives stay in the class",
    "TR3 fill-in exists for every commuting pair",
]
TWO_ORDER_LINES = [
    "2*Id on Z/4 is the matrix [[2]] != [[0]]: True",
    "cone(2*Id) found in the distinguished class with rank 1",
    "cone(2*Id) is the rank-one module Z/4 itself: True",
    "2*Id on the cone is therefore also nonzero: True",
    "conclusion: the rank-one object has 2-order 0, so the triangulation is not algebraic",
]
PROP3_STEPS = [
    ("pi_0(S/3) is cyclic of order 3", "Z/3"),
    ("pi_1(S/3) has order 1", "0"),
    ("[S/3, S/3] is cyclic of order 3", "Z/3"),
    ("hence 3 times the identity of S/3 is zero", "positive 3-order: True"),
]


@pytest.mark.parametrize("argv,code,text,payload", [
    (("--prime", "3", "normalize", "P^3 P^3 P^3"), 0, "2 P^8 P^1 + 2 P^7 P^2",
     {"input": "P^3 P^3 P^3", "normal_form": "2 P^8 P^1 + 2 P^7 P^2", "prime": 3}),
    (("oracle-check", "Sq^2 Sq^2"), 0,
     "EQUAL: Sq^2 Sq^2  vs  Sq^3 Sq^1  (polynomial action through degree 40)",
     {"equal": True, "lhs": "Sq^2 Sq^2", "max_degree": 40, "rhs": "Sq^3 Sq^1"}),
    (("oracle-check", "Sq^2", "Sq^1 Sq^1"), 1,
     "DIFFERENT: Sq^2  vs  Sq^1 Sq^1  (polynomial action through degree 40)",
     {"equal": False, "lhs": "Sq^2", "max_degree": 40, "rhs": "Sq^1 Sq^1"}),
    (("basis", "5"), 0, "Sq^5\nSq^4 Sq^1",
     {"basis": ["Sq^5", "Sq^4 Sq^1"], "degree": 5, "prime": 2}),
    (("module", "check", "{m2}"), 0,
     "module over F_2, total dimension 2\nrelations checked: 0 (degree <= 1)\n"
     "violated relation classes: none",
     {"max_relation_degree": 1, "prime": 2, "relations_checked": 0, "total_dim": 2,
      "violated_classes": [], "violations": []}),
    (("module", "tensor", "{m2}", "{m2}"), 0,
     "tensor product dims {0: 1, 1: 2, 2: 1}, total dimension 4",
     {"dims": {"0": 1, "1": 2, "2": 1}, "total_dim": 4}),
    (("module", "decompose", "{m2}"), 0, "decomposable: False",
     {"decomposable": False, "summand_dims": []}),
    (("pi", "3"), 0, "pi_3 = Z/24  [table]",
     {"group": "Z/24", "k": 3, "provenance": "table"}),
    (("pi", "1", "--moore", "2"), 0, "pi_1(S/2) = Z/2",
     {"group": "Z/2", "k": 1, "n": 2, "order": 2}),
    (("pi", "50"), 1, "unknown (stable stem 50 is not in the table)",
     {"k": 50, "value": "unknown"}),
    (("pi", "5", "--moore", "2"), 1, "unknown (needs stable stem 5)",
     {"k": 5, "n": 2, "value": "unknown"}),
    (("endo", "2"), 0, "[S/2, S/2] = Z/4", {"group": "Z/4", "n": 2, "order": 4}),
    (("associator", "3"), 0, "obstruction group pi_3(S/3) = Z/3: obstruction nonzero",
     {"associative": False, "n": 3, "obstruction": "Z/3"}),
    (("exotic", "verify"), 0,
     "\n".join(["exotic category axiom check (rank <= 2): PASS",
                *(f"  [ok] {s}" for s in EXOTIC_STEPS)]),
     {"max_rank": 2, "passed": True,
      "steps": [{"claim": s, "passed": True} for s in EXOTIC_STEPS]}),
    (("exotic", "two-order"), 0, "\n".join([*TWO_ORDER_LINES, "certificate: PASS"]),
     {"cone_rank": 1, "lines": TWO_ORDER_LINES, "passed": True, "two_id_nonzero": True}),
    (("scenario", "prop3", "--n", "3"), 0,
     "\n".join(["scenario prop3(n=3): PASS", *(f"  [ok] {c}: {r}" for c, r in PROP3_STEPS)]),
     [{"passed": True, "scenario": "prop3(n=3)",
       "steps": [{"claim": c, "passed": True, "result": r} for c, r in PROP3_STEPS]}]),
], ids=["normalize", "oracle-equal", "oracle-different", "basis", "module-check",
        "module-tensor", "module-decompose", "pi", "pi-moore", "pi-unknown",
        "pi-moore-unknown", "endo", "associator", "exotic-verify", "exotic-two-order",
        "scenario-prop3"])
def test_stdout_and_status_of_every_command(capsys, tmp_path, argv, code, text, payload):
    # The text line(s), or the payload as indented JSON with sorted keys,
    # then one newline; nothing on stderr.
    m2 = str(tmp_path / "m2.json")
    save_module(moore_module(2), m2)
    argv = [a.format(m2=m2) for a in argv]
    for flag, want in (([], text), (["--json"], json.dumps(payload, indent=2, sort_keys=True))):
        assert main([*flag, *argv]) == code
        assert capsys.readouterr() == (want + "\n", "")


class TestNormalize:
    def test_text(self, capsys):
        code, out = run(capsys, "--prime", "3", "normalize", "P^3 P^3 P^3")
        assert code == 0
        assert out.strip() == "2 P^8 P^1 + 2 P^7 P^2"

    def test_json(self, capsys):
        code, out = run(capsys, "--prime", "2", "--json", "normalize", "Sq^2 Sq^2")
        payload = json.loads(out)
        assert payload["normal_form"] == "Sq^3 Sq^1"


class TestOracleCheck:
    def test_equal_pair(self, capsys):
        code, out = run(
            capsys, "--prime", "3", "oracle-check",
            "P^3 P^3 P^3", "(P^7 P^1 - P^8) P^1",
        )
        assert code == 0
        assert out.startswith("EQUAL")

    def test_unequal_pair_nonzero_exit(self, capsys):
        code, out = run(capsys, "--prime", "2", "oracle-check", "Sq^2", "Sq^1 Sq^1")
        assert code == 1
        assert out.startswith("DIFFERENT")


    @pytest.mark.parametrize("prime,expression", [("2", "Sq^41"), ("3", "P^12")])
    def test_above_max_degree_is_different(self, capsys, prime, expression):
        code, out = run(capsys, "--prime", prime, "--max-degree", "40",
                        "oracle-check", expression, "0")
        assert code == 1
        assert out.startswith("DIFFERENT")

    def test_reports_degree_checked(self, capsys):
        code, out = run(capsys, "--max-degree", "40", "oracle-check", "Sq^41", "0")
        assert "(polynomial action through degree 41)" in out
        code, out = run(capsys, "--max-degree", "40", "oracle-check", "Sq^2 Sq^2")
        assert "(polynomial action through degree 40)" in out


class TestUserErrors:
    @pytest.mark.parametrize("argv", [
        ("--prime", "4", "normalize", "P^1"),
        ("--prime", "3", "normalize", "P^3 +"),
        ("endo", "-3"),
        ("pi", "3", "--moore", "0"),
        ("associator", "0"),
        ("exotic", "verify", "--max-rank", "-1"),
        ("--max-degree", "-5", "oracle-check", "Sq^1"),
        ("--json", "--max-degree", "-5", "oracle-check", "Sq^1", "Sq^1"),
        ("basis", "500"),
        ("--json", "basis", "500"),
    ])
    def test_one_line_and_exit_two(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("torsionlab: error: ")
        assert captured.err.count("\n") == 1


def write_data(path, data):
    """A file's bytes, its text, or the JSON text of a value."""
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data if isinstance(data, str) else json.dumps(data))


def assert_user_error(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("torsionlab: error: ")
    assert captured.err.count("\n") == 1
    return captured.err


class TestFileErrors:
    """A missing or malformed input file is a user error: one line on
    stderr and exit 2, never a traceback or the "check failed" status 1."""

    @pytest.mark.parametrize("argv", [
        ("module", "check", "{missing}"),
        ("module", "decompose", "{missing}"),
        ("module", "tensor", "{moore}", "{missing}"),
        ("--stems-file", "{missing}", "pi", "3"),
        ("--stems-file", "{missing}", "scenario", "prop6", "--n", "3"),
    ])
    def test_missing_file(self, capsys, tmp_path, argv):
        moore = str(tmp_path / "m2.json")
        save_module(moore_module(2), moore)
        missing = str(tmp_path / "missing.json")
        err = assert_user_error(
            capsys, [a.format(missing=missing, moore=moore) for a in argv])
        assert "No such file or directory" in err and missing in err

    @pytest.mark.parametrize("data,message", [
        ({"dims": {"0": 1}}, "module has no 'prime'"),
        ({"prime": 2}, "module has no 'dims'"),
        ([2, {"0": 1}], 'module is [2, {"0": 1}], not a JSON object'),
        ({"prime": 2, "dims": {"0": 1, "1": 1},
          "actions": [{"generator": "Sq1", "source_degree": 0}]},
         "action 0 has no 'matrix'"),
        ({"prime": 2, "dims": {"0": 1, "1": 1},
          "actions": [{"source_degree": 0, "matrix": [[1]]}]},
         "action 0 has no 'generator'"),
        ({"prime": 2, "dims": {"0": -1}}, "negative dimensions {0: -1}"),
        ({"prime": 2, "dims": {"0": 1, "1": 1}, "labels": {"0": ["a"]}},
         "labels are given for degrees [0], expected one list per occupied degree [0, 1]"),
        ({"prime": 2, "dims": {"0": 1, "1": 1}, "labels": {"0": ["a"], "1": ["b", "c"]}},
         "degree 1 has 1 dimensions but 2 labels"),
        # Nothing is truncated: a float or true is no integer.
        ({"prime": 2.9, "dims": {"0": 1}}, "module's 'prime' is 2.9, not an integer"),
        ({"prime": 2, "dims": {"0": 1.7}}, "the dimension of degree 0 is 1.7, not an integer"),
        ({"prime": 2, "dims": {"0": 1, "1": 1},
          "actions": [{"generator": "Sq1", "source_degree": 0.4, "matrix": [[1]]}]},
         "action 0's 'source_degree' is 0.4, not an integer"),
        ({"prime": 2, "dims": {"0": 1, "1": 1},
          "actions": [{"generator": "Sq1", "source_degree": 0, "matrix": [[1.5]]}]},
         "an item of action 0's matrix row is 1.5, not an integer"),
        ({"prime": 2, "dims": {"0": 1, "1": 1},
          "actions": [{"generator": "Sq1", "source_degree": 0, "matrix": [[True]]}]},
         "an item of action 0's matrix row is true, not an integer"),
        # A value of the wrong JSON type is named, not a traceback.
        ({"prime": 2, "dims": [1]}, "module's 'dims' is [1], not a JSON object"),
        ({"prime": 2, "dims": {"0": 1}, "labels": [1]},
         "module's 'labels' is [1], not a JSON object"),
        ({"prime": 2, "dims": {"0": 1, "1": 1},
          "actions": [{"generator": 5, "source_degree": 0, "matrix": [[1]]}]},
         "action 0's 'generator' is 5, not a string"),
        # Nothing is read twice, and every degree is an integer.
        ({"prime": 2, "dims": {"0": 1, "1": 1},
          "actions": [{"generator": "Sq1", "source_degree": 0, "matrix": [[1]]},
                      {"generator": "Sq^1", "source_degree": 0, "matrix": [[0]]}]},
         "action 1 gives Sq^1 from degree 0 a second time"),
        ({"prime": 2, "dims": {"0": 1, "1": 1, "01": 3}},
         "module's 'dims' names degree 1 twice"),
        ({"prime": 2, "dims": {"0": 1}, "labels": {"0": ["a"], "00": ["b"]}},
         "module's 'labels' names degree 0 twice"),
        ({"prime": 2, "dims": {"x": 1}},
         "module's 'dims' has the key \"x\", not an integer degree"),
        ({"prime": 2, "dims": {"0": 1}, "labels": {"y": ["a"]}},
         "module's 'labels' has the key \"y\", not an integer degree"),
        ({"prime": 2, "dims": {"1_0": 1}},
         "module's 'dims' has the key \"1_0\", not an integer degree"),
        # The file's own text, which no dict can hold.
        ('{"prime": 2, "dims": {"0": 1, "1": 1, "1": 3}}',
         'the module file gives the key "1" twice in one object'),
        # A generator is one token of parse_expression's syntax at the
        # file's prime, which is checked first.
        *(({"prime": 2, "dims": {"0": 1, "1": 1},
            "actions": [{"generator": name, "source_degree": 0, "matrix": [[1]]}]},
           f"action 0's 'generator' is {json.dumps(name)}, not a generator at p=2")
          for name in ("Sq^1^", "Sqx", "Sq", "Pb", "Sq1.5", "Sq^0", "P1")),
        ({"prime": 4, "dims": {"0": 1, "1": 1},
          "actions": [{"generator": "Sq^1^", "source_degree": 0, "matrix": [[1]]}]},
         "4 is not prime"),
        # Text that is not JSON is named by the file's path.
        ('{"prime": 2,\n', "the module file {path} is not valid JSON: Expecting property "
         "name enclosed in double quotes (line 2, column 1)"),
        # So is a file that is not UTF-8 text.
        (b'\xff{"prime": 2}', "the module file {path} is not UTF-8 text: "
         "invalid start byte (byte 0)"),
    ], ids=["no-prime", "no-dims", "not-an-object", "no-matrix", "no-generator",
            "negative-dim", "labels-miss-a-degree", "labels-too-long", "float-prime",
            "float-dim", "float-source-degree", "float-entry", "bool-entry", "dims-list",
            "labels-list", "int-generator", "action-twice", "dims-degree-twice",
            "labels-degree-twice", "dims-key-not-a-degree", "labels-key-not-a-degree",
            "dims-key-underscore", "json-key-twice", "generator-trailing-caret",
            "generator-no-index", "generator-bare-sq", "generator-two-tokens",
            "generator-fractional-index", "generator-index-zero", "generator-other-prime",
            "prime-not-prime", "truncated", "not-utf8"])
    @pytest.mark.parametrize("command", ["check", "tensor", "decompose"])
    def test_malformed_module_file(self, capsys, tmp_path, data, message, command):
        path = tmp_path / "bad.json"
        write_data(path, data)
        files = [str(path)] * (2 if command == "tensor" else 1)
        err = assert_user_error(capsys, ["module", command, *files])
        assert err == f"torsionlab: error: {message.replace('{path}', str(path))}\n"

    @pytest.mark.parametrize("command", ["check", "tensor", "decompose"])
    def test_module_too_large_to_allocate(self, capsys, tmp_path, command):
        # A 10^9 x 10^9 matrix of int64 needs 6.94 EiB, more than any address
        # space, so the allocation fails at once without touching memory.
        path = tmp_path / "huge.json"
        write_data(path, {"prime": 2, "dims": {"0": 1000000000}})
        files = [str(path)] * (2 if command == "tensor" else 1)
        assert "allocate" in assert_user_error(capsys, ["module", command, *files])

    def test_product_above_the_exact_bound(self, capsys, tmp_path):
        # b b on this module needs products mod p that float64 cannot hold.
        p = 2_147_483_647
        path = tmp_path / "beta.json"
        write_data(path, {"prime": p, "dims": {"0": 1, "1": 4, "2": 1}, "actions": [
            {"generator": "b", "source_degree": 0, "matrix": [[p - 1]] * 4},
            {"generator": "b", "source_degree": 1, "matrix": [[p - 1] * 4]}]})
        assert "not exact in float64" in assert_user_error(capsys, ["module", "check", str(path)])

    @pytest.mark.parametrize("data,message", [
        ({"dimension": 3, "factors": [24]},
         'the stems file is {"dimension": 3, "factors": [24]}, not a list'),
        ([3], "stems record 0 is 3, not a JSON object"),
        ([{"factors": [24]}], "stems record 0 has no 'dimension'"),
        ([{"dimension": 3, "factors": 7}], "stems record 0's 'factors' is 7, not a list"),
        ([{"dimension": 3, "p_primary": [1]}],
         "stems record 0's 'p_primary' is [1], not a JSON object"),
        ([{"dimension": 3, "factors": [2.5]}],
         "an order in stems record 0's 'factors' is 2.5, not an integer"),
        ([{"dimension": 3, "factors": [24]}, {"dimension": 3, "factors": [2]}],
         "stems record 1 gives dimension 3 a second time"),
        ('[{"dimension": 3, "factors": [24], "factors": [2]}]',
         'the stems file gives the key "factors" twice in one object'),
        ([{"dimension": 3, "p_primary": {"2": [8], "02": [2]}}],
         "stems record 0's 'p_primary' names prime 2 twice"),
        ([{"dimension": 3, "p_primary": {"x": [8]}}],
         "stems record 0's 'p_primary' has the key \"x\", not an integer prime"),
        ([{"dimension": 3, "p_primary": {" 2": [8]}}],
         "stems record 0's 'p_primary' has the key \" 2\", not an integer prime"),
        ('[{"dimension": 3,\n', "the stems file {path} is not valid JSON: Expecting property "
         "name enclosed in double quotes (line 2, column 1)"),
        (b'[{"dimension": 3, "factors": [24]}]\n\xe9\n', "the stems file {path} is not "
         "UTF-8 text: invalid continuation byte (byte 36)"),
        ([{"dimension": -1, "factors": [2]}],
         "stems record 0's 'dimension' is -1, not a non-negative integer"),
        ([{"dimension": 3, "p_primary": {"4": [2]}}],
         "stems record 0's 'p_primary' names 4, not a prime"),
        ([{"dimension": 3, "p_primary": {"-3": [3]}}],
         "stems record 0's 'p_primary' names -3, not a prime"),
        ([{"dimension": 3, "p_primary": {"3": [2]}}],
         "an order in stems record 0's 3-primary factors is 2, not a power of 3"),
        ([{"dimension": 3, "p_primary": {"3": [0]}}],
         "an order in stems record 0's 3-primary factors is 0, not a power of 3"),
        ([{"dimension": 3, "factors": [24], "p_primary": {"2": [8], "3": [9]}}],
         "stems record 0's 3-primary factors give Z/9, but its 'factors' give Z/3"),
    ], ids=["top-level-object", "record-not-an-object", "no-dimension", "int-factors",
            "list-p-primary", "float-factor", "dimension-twice", "key-twice",
            "prime-twice", "prime-not-an-integer", "prime-with-a-space", "truncated",
            "not-utf8", "negative-dimension", "prime-not-prime", "prime-negative",
            "order-not-a-prime-power", "order-infinite", "primary-part-contradicts-factors"])
    @pytest.mark.parametrize("command", [("pi", "3"), ("scenario", "prop6", "--n", "3")],
                             ids=["pi", "prop6"])
    def test_malformed_stems_file(self, capsys, tmp_path, data, message, command):
        path = tmp_path / "stems.json"
        write_data(path, data)
        err = assert_user_error(capsys, ["--stems-file", str(path), *command])
        assert err == f"torsionlab: error: {message.replace('{path}', str(path))}\n"


def test_closed_pipe_exits_141_without_traceback():
    # Like `torsionlab --json basis 64 | head -c 600`, with the reader gone
    # before the first write, so the write always fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "torsionlab.cli", "--json", "basis", "64"],
            env=cli_env(), stdout=write_end, stderr=subprocess.PIPE, text=True,
            timeout=60)
    finally:
        os.close(write_end)
    assert done.stderr == ""
    assert done.returncode == 141


class TestBasis:
    def test_degree_three(self, capsys):
        code, out = run(capsys, "basis", "3")
        assert code == 0
        assert out.splitlines() == ["Sq^3", "Sq^2 Sq^1"]


class TestModuleCommands:
    @pytest.fixture()
    def moore_file(self, tmp_path):
        path = tmp_path / "m2.json"
        save_module(moore_module(2), str(path))
        return str(path)

    def test_tensor_and_check(self, capsys, tmp_path, moore_file):
        out_path = str(tmp_path / "square.json")
        code, out = run(
            capsys, "module", "tensor", moore_file, moore_file, "-o", out_path
        )
        assert code == 0
        code, out = run(capsys, "module", "check", out_path)
        assert code == 0
        assert "violated relation classes: none" in out

    @pytest.mark.parametrize("p,power", [(2, 2), (3, 3)])
    def test_tensor_files_match_the_goldens(self, capsys, tmp_path, p, power):
        # The files `module tensor -o` writes for (S/2)^2 and (S/3)^3.
        moore = str(tmp_path / "moore.json")
        save_module(moore_module(p), moore)
        out = moore
        for k in range(2, power + 1):
            factor, out = out, str(tmp_path / f"power{k}.json")
            assert run(capsys, "module", "tensor", factor, moore, "-o", out)[0] == 0
        with open(out) as got, open(os.path.join(DATA, f"moore{p}_smash{power}.json")) as want:
            assert got.read() == want.read()

    def test_tensor_refuses_a_prime_whose_products_overflow_int64(self, capsys, tmp_path):
        p = 4294967311
        path = str(tmp_path / "big.json")
        save_module(FiniteModule(p, {0: 1, 1: 1}, {(BOCKSTEIN, 0): [[p - 1]]}), path)
        code = main(["module", "tensor", path, path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"torsionlab: error: a product of two entries mod {p} is "
                                "not exact in int64: (p - 1)^2 must stay below 2^63\n")

    @pytest.fixture()
    def fourth_power_file(self, tmp_path):
        """The 16-dim fourth smash power of S/2, degrees 0 to 4."""
        m = moore_module(2)
        power = tensor(tensor(tensor(m, m), m), m)
        path = tmp_path / "m2_4.json"
        save_module(power, str(path))
        return str(path)

    @pytest.mark.parametrize("bound", ["1", "0", "-3"])
    def test_check_bound_below_two_is_a_user_error(self, capsys, moore_file, bound):
        # Sq^1 Sq^1 and b b, the smallest inadmissible words, have degree 2.
        code = main(["--max-degree", bound, "module", "check", moore_file])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("torsionlab: error: ")
        assert captured.err.count("\n") == 1

    def test_check_reports_bound_and_relation_count(self, capsys, fourth_power_file):
        # The inadmissible words of degree <= 4, the module's span:
        # Sq^1 Sq^1, Sq^1 Sq^2, Sq^1 Sq^3, Sq^2 Sq^2, Sq^1 Sq^1 Sq^1,
        # Sq^1 Sq^1 Sq^2, Sq^1 Sq^2 Sq^1 and Sq^2 Sq^1 Sq^1.
        code, out = run(capsys, "module", "check", fourth_power_file)
        assert code == 0
        assert "relations checked: 8 (degree <= 4)" in out
        code, out = run(capsys, "--json", "module", "check", fourth_power_file)
        payload = json.loads(out)
        assert payload["max_relation_degree"] == 4
        assert payload["relations_checked"] == 8

    def test_check_cb_module_reports_three_violations(self, capsys, tmp_path):
        path = str(tmp_path / "cb.json")
        save_module(hypothetical_Cb_module(), path)
        code, out = run(capsys, "module", "check", path)
        assert code == 1
        assert out.splitlines() == [
            "module over F_3, total dimension 7",
            "relations checked: 69 (degree <= 36)",
            "violated relation classes: [(0, 36)]",
            "  (P^3 P^6) != (P^8 P^1) from degree 0 (target 36)",
            "  (P^6 P^3) != (2 P^8 P^1 + P^7 P^2) from degree 0 (target 36)",
            "  (P^3 P^3 P^3) != (2 P^8 P^1 + 2 P^7 P^2) from degree 0 (target 36)",
        ]
        code, out = run(capsys, "--json", "module", "check", path)
        assert code == 1
        with open(os.path.join(DATA, "cb_check.json"), encoding="utf-8", newline="") as want:
            assert out == want.read()

    def test_check_builds_the_relation_list_once(self, capsys, monkeypatch, tmp_path):
        from torsionlab import modules

        path = str(tmp_path / "cb.json")
        save_module(hypothetical_Cb_module(), path)
        calls = []
        build = modules.adem_relations

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(modules, "adem_relations", counted)
        code, out = run(capsys, "module", "check", path)
        assert code == 1
        assert "relations checked: 69 (degree <= 36)" in out
        assert len(calls) == 1

    def test_check_loads_the_module_file_once(self, capsys, monkeypatch, tmp_path):
        from torsionlab import modules

        path = str(tmp_path / "cb.json")
        save_module(hypothetical_Cb_module(), path)
        calls = []
        load = modules.load_module

        def counted(*args):
            calls.append(args)
            return load(*args)

        monkeypatch.setattr(modules, "load_module", counted)
        code, out = run(capsys, "module", "check", path)
        assert code == 1
        assert "relations checked: 69 (degree <= 36)" in out
        assert calls == [(path,)]

    def test_check_cost_follows_the_module_not_the_flag(self, fourth_power_file):
        def check(bound):
            done = subprocess.run(
                [sys.executable, "-m", "torsionlab.cli", "--max-degree", bound,
                 "module", "check", fourth_power_file],
                env=cli_env(), capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            return done.stdout

        assert check("1000") == check("40")

    def test_decompose(self, capsys, moore_file):
        code, out = run(capsys, "module", "decompose", moore_file)
        assert code == 0
        assert "decomposable: False" in out

    def test_decompose_above_the_old_bound(self, capsys, fourth_power_file):
        # 16 dimensions, above the bound of 12 that decompose used to refuse.
        code, out = run(capsys, "module", "decompose", fourth_power_file)
        assert code == 0
        assert out.startswith("decomposable: True, summand dims ")
        code, out = run(capsys, "--json", "module", "decompose", fourth_power_file)
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload) == ["decomposable", "summand_dims"]
        total = {}
        for dims in payload["summand_dims"]:
            for d, n in dims.items():
                total[int(d)] = total.get(int(d), 0) + n
        assert total == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}


class TestStemsCommands:
    def test_pi_plain(self, capsys):
        code, out = run(capsys, "pi", "3")
        assert code == 0
        assert "Z/24" in out

    def test_pi_moore(self, capsys):
        code, out = run(capsys, "pi", "1", "--moore", "2")
        assert code == 0
        assert "Z/2" in out

    def test_pi_unknown_exit(self, capsys):
        code, out = run(capsys, "pi", "50")
        assert code == 1

    def test_endo(self, capsys):
        code, out = run(capsys, "endo", "2")
        assert code == 0
        assert "Z/4" in out

    def test_associator(self, capsys):
        code, out = run(capsys, "associator", "35")
        assert code == 0
        assert "associative" in out

    @pytest.mark.parametrize("record,argv,line,payload", [
        (None, ("pi", "5", "--moore", "2"), "unknown (needs stable stem 5)",
         {"k": 5, "n": 2, "value": "unknown"}),
        ({"dimension": 1, "factors": None}, ("endo", "2"),
         "unknown (needs pi_1(S/n) and pi_0(S/n))", {"n": 2, "value": "unknown"}),
        ({"dimension": 2, "factors": None}, ("associator", "6"),
         "unknown (needs stable stem 2)", {"n": 6, "value": "unknown"}),
    ], ids=["pi-moore", "endo", "associator"])
    def test_unknown_exits_one(self, capsys, tmp_path, record, argv, line, payload):
        # A stem nulled in a stems file is unknown, and so is what needs it.
        stems = []
        if record is not None:
            path = tmp_path / "stems.json"
            path.write_text(json.dumps([record]))
            stems = ["--stems-file", str(path)]
        assert run(capsys, *stems, *argv) == (1, line + "\n")
        code, out = run(capsys, "--json", *stems, *argv)
        assert code == 1 and json.loads(out) == payload

    @pytest.mark.parametrize("argv,code,line", [
        (("endo", "2"), 0, "[S/2, S/2] = Z/2"),
        (("scenario", "prop3", "--n", "2"), 1,
         "  [FAIL] [S/2, S/2] has order 4 and the defining extension is nonsplit: Z/2"),
    ], ids=["endo", "prop3"])
    def test_without_eta_the_sequence_gives_z2(self, capsys, tmp_path, argv, code, line):
        # With pi_1 = 0 the exact sequence is 0 -> 0 -> E -> Z/2 -> 0, so
        # [S/2, S/2] is Z/2 whatever Sq^2 does.
        path = tmp_path / "stems.json"
        path.write_text(json.dumps([{"dimension": 1, "factors": []}]))
        got, out = run(capsys, "--stems-file", str(path), *argv)
        assert got == code and line in out.splitlines()

    @pytest.mark.parametrize("argv,ns", [
        (("scenario", "prop3", "--n", "3"), (3,)),
        (("scenario", "prop3", "--n", "2"), (2,)),
        (("scenario", "all"), (3, 5, 7, 9, 15, 2)),
    ], ids=["prop3-3", "prop3-2", "all"])
    def test_prop3_fails_on_an_unknown_stem(self, capsys, tmp_path, argv, ns):
        # An unknown stem fails the group step and the "hence" step, which
        # print what is unknown; nothing is raised.
        path = tmp_path / "stems.json"
        path.write_text(json.dumps([{"dimension": 1, "factors": None}]))
        code = main(["--stems-file", str(path), *argv])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        unknown = "unknown (needs pi_1(S/n) and pi_0(S/n))"
        lines = out.splitlines()
        for n in ns:
            group = (f"[S/{n}, S/{n}] is cyclic of order {n}" if n % 2 else
                     "[S/2, S/2] has order 4 and the defining extension is nonsplit")
            hence = f"hence {n} times the identity of S/{n} is {'zero' if n % 2 else 'nonzero'}"
            assert f"  [FAIL] {group}: {unknown}" in lines
            assert f"  [FAIL] {hence}: {unknown}" in lines

    def test_prop3_fails_on_an_unresolved_group(self, capsys, tmp_path):
        # With pi_1 = Z/3 the sequence leaves [S/9, S/9] an open extension
        # of Z/9 by Z/3: a failed check (exit 1), not a user error (exit 2).
        path = tmp_path / "stems.json"
        path.write_text(json.dumps([{"dimension": 1, "factors": [3]}]))
        code, out = run(capsys, "--stems-file", str(path), "scenario", "prop3", "--n", "9")
        assert code == 1
        assert ("  [FAIL] hence 9 times the identity of S/9 is zero: "
                "group of order 27 (unknown extension)") in out.splitlines()

    def test_prop3_hence_step_fails_with_the_group_step(self, capsys, tmp_path):
        # With pi_0 = Z/2, pi_0(S/3) and [S/3, S/3] are trivial.  3 times the
        # identity of the trivial group is zero, but the "hence" step rests
        # on the group step, so it fails with it and keeps its result.
        path = tmp_path / "stems.json"
        write_data(path, [{"dimension": 0, "factors": [2]}])
        code, out = run(capsys, "--json", "--stems-file", str(path),
                        "scenario", "prop3", "--n", "3")
        steps = json.loads(out)[0]["steps"]
        assert code == 1
        assert [s["passed"] for s in steps] == [False, True, False, False]
        assert [s["result"] for s in steps] == ["0", "0", "0", "positive 3-order: True"]

    def test_a_stems_file_leaves_the_shared_table(self, capsys, tmp_path):
        # The table of one call is not the next call's.
        extra = tmp_path / "extra.json"
        extra.write_text(json.dumps([{"dimension": 3, "factors": [5]}]))
        assert run(capsys, "--stems-file", str(extra), "pi", "3") == (
            0, "pi_3 = Z/5  [external]\n")
        assert run(capsys, "pi", "3") == (0, "pi_3 = Z/24  [table]\n")

    def test_stems_file_extension(self, capsys, tmp_path):
        extra = tmp_path / "extra.json"
        extra.write_text(json.dumps([{"dimension": 8, "factors": [2, 2]}]))
        code, out = run(capsys, "--stems-file", str(extra), "pi", "8")
        assert code == 0
        assert "Z/2 + Z/2" in out


class TestExoticCommands:
    def test_verify(self, capsys):
        code, out = run(capsys, "exotic", "verify", "--max-rank", "2")
        assert code == 0
        assert "PASS" in out

    def test_verify_at_the_rank_cap(self, capsys):
        code, out = run(capsys, "exotic", "verify", "--max-rank", "8")
        assert code == 0
        assert out.startswith("exotic category axiom check (rank <= 8): PASS\n")
        assert "enumerated 625 class representatives" in out

    @pytest.mark.parametrize("rank,count", [(9, 915), (64, 1185921), (1000, 63001502001)])
    def test_verify_above_the_old_rank_cap(self, capsys, rank, count):
        # The steps are read off the elementary triangles at any bound.
        code, out = run(capsys, "exotic", "verify", "--max-rank", str(rank))
        assert code == 0
        assert out.startswith(f"exotic category axiom check (rank <= {rank}): PASS\n")
        assert f"  [ok] enumerated {count} class representatives\n" in out

    @pytest.mark.parametrize("rank", [2, 3])
    def test_verify_matches_the_golden_transcript(self, capsys, rank):
        with open(os.path.join(DATA, f"exotic_verify_rank{rank}.txt"),
                  encoding="utf-8", newline="") as f:
            want = f.read()
        assert run(capsys, "exotic", "verify", "--max-rank", str(rank)) == (0, want)

    def test_two_order(self, capsys):
        code, out = run(capsys, "exotic", "two-order")
        assert code == 0
        assert "certificate: PASS" in out


class TestScenarios:
    @pytest.mark.parametrize("name", ["prop2", "prop3", "prop5", "prop6", "exotic"])
    def test_each_scenario_passes(self, capsys, name):
        code, out = run(capsys, "scenario", name)
        assert code == 0
        assert f"scenario" in out and "PASS" in out

    def test_prop3_with_n(self, capsys):
        code, out = run(capsys, "scenario", "prop3", "--n", "15")
        assert code == 0
        assert "Z/15" in out

    @pytest.mark.parametrize("n", ["1", "15"])
    def test_prop3_at_odd_n_compares_the_whole_group(self, capsys, n):
        # The trivial group of n = 1 has no factors, and still passes.
        code, out = run(capsys, "scenario", "prop3", "--n", n)
        assert code == 0
        assert f"[ok] [S/{n}, S/{n}] is cyclic of order {n}" in out

    @pytest.mark.parametrize("n", ["4", "6", "0"])
    def test_prop3_refuses_even_n_other_than_2(self, capsys, n):
        code = main(["scenario", "prop3", "--n", n])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"torsionlab: error: prop3 is stated for odd n and n = 2, not n = {n}\n"

    @pytest.mark.parametrize("stem, code, result", [
        (None, 0, "trivial"),
        ({"dimension": 21, "factors": [2, 2]}, 0, "trivial"),
        ({"dimension": 21, "factors": [6]}, 1, "Z/3"),
        ({"dimension": 21, "factors": None},
         1, "unknown (the 3-primary part of stable stem 21 is not in the table)"),
    ], ids=["shipped", "full-group", "three-torsion", "nothing-known"])
    def test_prop5_reads_the_three_primary_part(self, capsys, tmp_path, stem, code, result):
        # pi_21 = Z/2 + Z/2 has trivial 3-primary part, whether the table
        # gives the whole group or only its 3-primary part.
        argv = ["scenario", "prop5"]
        if stem is not None:
            write_data(tmp_path / "stems.json", [stem])
            argv = ["--stems-file", str(tmp_path / "stems.json"), *argv]
        got, out = run(capsys, *argv)
        assert got == code
        mark = "ok" if code == 0 else "FAIL"
        assert (f"  [{mark}] the 3-primary part of the stable stem in dimension 21 "
                f"is trivial: {result}") in out.splitlines()

    @pytest.mark.parametrize("n, factors, step", [
        ("5", [5], "5 is prime to 6, so the obstruction group vanishes and the "
         "multiplication is associative: Z/5"),
        ("3", [8], "3 is not prime to 6 and the obstruction group is nonzero: 0"),
    ], ids=["coprime-nonzero", "not-coprime-trivial"])
    def test_prop6_fails_when_the_group_contradicts_n(self, capsys, tmp_path, n, factors, step):
        # pi_3(S/n) is coker(n on pi_3) + ker(n on pi_2 = Z/2): Z/5 at n = 5
        # with pi_3 = Z/5, and 0 at n = 3 with pi_3 = Z/8.
        write_data(tmp_path / "stems.json", [{"dimension": 3, "factors": factors}])
        code, out = run(capsys, "--stems-file", str(tmp_path / "stems.json"),
                        "scenario", "prop6", "--n", n)
        assert code == 1
        assert out.splitlines()[0] == f"scenario prop6(n={n}): FAIL"
        assert out.splitlines()[2:] == [f"  [FAIL] {step}"]

    @pytest.mark.parametrize("name", ["prop2", "prop5", "exotic", "all"])
    def test_scenarios_without_n_refuse_it(self, capsys, name):
        code = main(["scenario", name, "--n", "5"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"torsionlab: error: scenario {name} takes no n\n"

    def test_all_deterministic(self, capsys):
        code1, out1 = run(capsys, "scenario", "all")
        code2, out2 = run(capsys, "scenario", "all")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_all_matches_the_golden_transcript(self, capsys):
        with open(SCENARIO_ALL, encoding="utf-8", newline="") as f:
            want = f.read()
        assert "\n\n".join(r.render() for r in run_all()) + "\n" == want
        assert run(capsys, "scenario", "all") == (0, want)

    def test_json_matches_the_golden_transcript(self, capsys):
        with open(SCENARIO_ALL_JSON, encoding="utf-8", newline="") as f:
            want = f.read()
        assert run(capsys, "--json", "scenario", "all") == (0, want)

    def test_json_structure(self, capsys):
        code, out = run(capsys, "--json", "scenario", "prop2")
        payload = json.loads(out)
        assert payload[0]["scenario"] == "prop2"
        assert payload[0]["passed"] is True
        assert all(step["passed"] for step in payload[0]["steps"])

    @pytest.mark.parametrize("n, step", [(3, "hence 3 times"), (2, "hence 2 times")])
    def test_prop3_prints_the_computed_order(self, monkeypatch, n, step):
        # A wrong positive_n_order must fail the step and show in its result.
        from torsionlab import scenarios

        right = scenarios.scenario_prop3(n)
        monkeypatch.setattr(scenarios, "positive_n_order",
                            lambda endos, k: n == 2)
        wrong = scenarios.scenario_prop3(n)
        (was,) = [s for s in right.steps if s.claim.startswith(step)]
        (now,) = [s for s in wrong.steps if s.claim.startswith(step)]
        assert was.passed and not now.passed
        assert was.result == f"positive {n}-order: {n != 2}"
        assert now.result == f"positive {n}-order: {n == 2}"

    def test_prop3_derives_z4_from_the_smash_square(self, monkeypatch):
        # In place of S/2 smash S/2, the cohomology of the split S/2 v S/2[1],
        # whose Sq^2 from degree 0 is zero: nothing then shows that the
        # extension is nonsplit, and Z/4 is not concluded.
        from torsionlab import scenarios
        from torsionlab.modules import direct_sum, shift

        m2 = moore_module(2)
        monkeypatch.setattr(scenarios, "tensor", lambda a, b: direct_sum(m2, shift(m2, 1)))
        steps = {s.claim: s for s in scenarios.scenario_prop3(2).steps}
        for claim in ("[S/2, S/2] has order 4 and the defining extension is nonsplit",
                      "hence 2 times the identity of S/2 is nonzero"):
            assert not steps[claim].passed
            assert steps[claim].result == "group of order 4 (unknown extension)"
