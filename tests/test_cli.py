"""Command-line interface: subcommand behavior, JSON output, exit codes,
and byte-stable reports."""

import json
import os
import subprocess
import sys

import pytest

from torsionlab.cli import main
from torsionlab.modules import hypothetical_Cb_module, moore_module, save_module, tensor
from torsionlab.scenarios import run_all

# The text output of `torsionlab scenario all`.
SCENARIO_ALL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                            "scenario_all.txt")


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def cli_env():
    """The environment for running the CLI from this checkout's src."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


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
    ])
    def test_one_line_and_exit_two(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("torsionlab: error: ")
        assert captured.err.count("\n") == 1


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
        ([2, {"0": 1}], "module is not a JSON object"),
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
    ], ids=["no-prime", "no-dims", "not-an-object", "no-matrix", "no-generator",
            "negative-dim", "labels-miss-a-degree", "labels-too-long"])
    @pytest.mark.parametrize("command", ["check", "tensor", "decompose"])
    def test_malformed_module_file(self, capsys, tmp_path, data, message, command):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        files = [str(path)] * (2 if command == "tensor" else 1)
        err = assert_user_error(capsys, ["module", command, *files])
        assert err == f"torsionlab: error: {message}\n"


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
