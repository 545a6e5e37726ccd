"""End-to-end command line checks: golden outputs, exit codes, and the
stdout/stderr split."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flipproc
from flipproc import (
    Rule,
    StepKernel,
    coeff_vector,
    compare,
    constant_kernel,
    enumerate_classes,
    kernel_to_json,
    lift,
    make_named,
    parse_rule_json,
    rule_problems,
    rule_to_json,
    save_rule,
    symmetrize,
    velocity,
)
from flipproc.cli import main
from flipproc.dynamics import kernel_to_json_obj
from flipproc.rules import rule_to_json_obj

F = Fraction


@pytest.fixture
def tr_file(tmp_path):
    path = tmp_path / "tr.json"
    save_rule(make_named("triangle-removal", 3), path)
    return str(path)


@pytest.fixture
def ter_file(tmp_path):
    path = tmp_path / "ter.json"
    save_rule(make_named("triangle-edge-removal", 3), path)
    return str(path)


@pytest.fixture
def id3_file(tmp_path):
    path = tmp_path / "id3.json"
    save_rule(make_named("identity", 3), path)
    return str(path)


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(kernel_to_json(constant_kernel(0.8)))
    return str(path)


def test_named_golden(capsys):
    assert main(["named", "triangle-removal", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert out == rule_to_json(make_named("triangle-removal", 3))
    assert json.loads(out)["entries"] == [{"from": 7, "to": 0, "p": "1"}]


def test_named_with_parameters(capsys):
    assert main(["named", "ignorant", "--k", "2",
                 "--dist", '{"0": "1/3", "1": "2/3"}']) == 0
    rule = parse_rule_json(capsys.readouterr().out)
    assert rule.probability(1, 1) == F(2, 3)
    # JSON numbers are read exactly, like strings
    assert main(["named", "ignorant", "--k", "2",
                 "--dist", '{"0": 0.5, "1": "1/2", "3": 0}']) == 0
    rule = parse_rule_json(capsys.readouterr().out)
    assert rule.probability(1, 0) == rule.probability(1, 1) == F(1, 2)
    assert main(["named", "extremist", "--k", "3", "--threshold", "1"]) == 0
    rule = parse_rule_json(capsys.readouterr().out)
    assert rule.probability(1, 7) == 1


@pytest.mark.parametrize("dist", [
    '{"7": null}', '{"7": [1]}', '{"7": {"p": 1}}', '{"7": true, "0": false}',
    # JSON numbers that no Fraction holds
    '{"0": NaN}', '{"0": 1e400}', '{"0": -Infinity}',
    # not an object at all
    '[1]', '"1/2"',
])
def test_named_dist_rejects_non_numbers(capsys, dist):
    assert main(["named", "ignorant", "--k", "3", "--dist", dist]) == 2
    assert "--dist" in capsys.readouterr().err


def test_named_dist_rejects_long_codes(capsys):
    # the length is checked before int() reads the code, so CPython's
    # 4,300-digit limit is never reached
    assert main(["named", "ignorant", "--k", "3",
                 "--dist", json.dumps({"9" * 5000: 1})]) == 2
    err = capsys.readouterr().err
    assert "more digits than any graph code of order 3" in err
    assert "4300" not in err
    assert main(["named", "ignorant", "--k", "3", "--dist", '{" +7 ": 1}']) == 0
    capsys.readouterr()
    # short enough to read, and then out of range
    assert main(["named", "ignorant", "--k", "3", "--dist", '{"70": 1}']) == 2
    assert "out of range for order 3" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["complementing", "extremist", "ignorant"])
def test_named_dense_families_are_capped(capsys, family):
    extra = ["--dist", '{"0": 1}'] if family == "ignorant" else []
    assert main(["named", family, "--k", "8", *extra]) == 3
    assert "entries" in capsys.readouterr().err
    # past order 11 the order itself is refused, in one short line
    for k in ("169", "1000000"):
        assert main(["named", family, "--k", k, *extra]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "62-bit" in captured.err and len(captured.err) < 120
    assert main(["named", family, "--k", "3", *extra]) == 0


@pytest.mark.parametrize("argv", [
    ["named", "complementing", "--k", "2", "--threshold", "7"],
    ["named", "identity", "--k", "3", "--dist", '{"1": 1}'],
])
def test_named_rejects_parameters_the_family_does_not_take(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unknown parameters" in captured.err


@pytest.mark.parametrize("argv,what", [
    (["classes", "--k", "8"], "census"),
    (["coeffs", "R8"], "census"),
    (["named", "complementing", "--k", "8"], "entries"),
    (["named", "ignorant", "--k", "7", "--dist", '{"0": "1/2", "1": "1/2"}'], "entries"),
    (["symmetrize", "R9"], "relabelling"),
    (["simulate", "R3", "--n", "9000", "--w0", "K", "--time", "0.1",
      "--seed", "1"], "vertices"),
    (["simulate", "R12", "--n", "20", "--w0", "K", "--time", "0.1",
      "--seed", "1"], "62-bit"),
    # no steps at all, but a billion runs' densities to keep
    (["simulate", "R3", "--n", "3", "--w0", "K", "--time", "1e-9",
      "--seed", "1", "--runs", "1000000000"], "block densities"),
    # graphs past order 11 have no 62-bit code, valid rules included: a
    # rule is refused when lifted to such an order or read at one
    (["lift", "R11", "--to", "12"], "62-bit"),
    (["symmetrize", "R12"], "62-bit"),
])
def test_budgets_exit_3_before_building(argv, what, tmp_path, kernel_file,
                                        capsys):
    files = {"K": kernel_file}
    for k in (3, 8, 9, 11):
        files[f"R{k}"] = str(tmp_path / f"clique{k}.json")
        save_rule(make_named("clique-removal", k), files[f"R{k}"])
    # clique removal at order 12, written by hand: no Rule of that order is built
    files["R12"] = str(tmp_path / "clique12.json")
    (tmp_path / "clique12.json").write_text(json.dumps(
        {"order": 12, "entries": [{"from": (1 << 66) - 1, "to": 0, "p": "1"}]}))
    start = time.perf_counter()
    assert main([files.get(a, a) for a in argv]) == 3
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == "" and what in captured.err


def test_named_sparse_families_are_uncapped(capsys):
    assert main(["named", "clique-removal", "--k", "7"]) == 0
    assert parse_rule_json(capsys.readouterr().out) == make_named(
        "clique-removal", 7)
    assert main(["named", "identity", "--k", "9"]) == 0
    assert main(["named", "triangle-removal", "--k", "3"]) == 0
    assert main(["named", "triangle-edge-removal", "--k", "3"]) == 0


def test_named_unimplemented_family(capsys):
    assert main(["named", "component-completion", "--k", "3"]) == 2
    err = capsys.readouterr().err
    assert "component-completion" in err


def test_classes_census(capsys):
    assert main(["classes", "--k", "3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["order"] == 3 and obj["count"] == 8
    assert len(obj["classes"]) == 8
    assert sum(c["size"] for c in obj["classes"]) == 48


def test_classes_cap(capsys):
    assert main(["classes", "--k", "9"]) == 3
    assert "census" in capsys.readouterr().err
    # the budget counts pairs, so its message prints no 2^C(k, 2)
    assert main(["classes", "--k", "170"]) == 3
    assert len(capsys.readouterr().err) < 200
    assert main(["classes", "--k", "4"]) == 0
    capsys.readouterr()


def test_cap_flag_is_an_unknown_argument(capsys):
    # every resource has a budget of its own, and no flag raises one
    for argv in (["--cap", "7", "classes", "--k", "3"], ["classes", "--k", "3", "--cap", "7"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def test_symmetrization_entries_exit_3(tmp_path, capsys):
    # 196,608 entries whose symmetrization would have 47,185,920
    path = tmp_path / "ignorant6.json"
    save_rule(make_named("ignorant", 6, dist={h: F(1, 6) for h in range(100, 106)}), path)
    for command in ("symmetrize", "unique"):
        assert main([command, str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "members" in captured.err


def test_lift_budget_exits_3(tr_file, capsys):
    # 2^33 copies of triangle removal's entry, refused before any is built
    assert main(["lift", tr_file, "--to", "9"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "budget" in captured.err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "census.json"
    assert main(["classes", "--k", "2", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["count"] == 2


def test_coeffs(tr_file, capsys):
    assert main(["coeffs", tr_file]) == 0
    entries = json.loads(capsys.readouterr().out)
    nonzero = [e for e in entries if e["coeff"] != "0"]
    assert nonzero == [{"class": {"code": 7, "a": 1, "b": 2}, "size": 6,
                        "coeff": "-6"}]


def test_compare_exit_codes(tr_file, ter_file, id3_file, capsys):
    assert main(["compare", tr_file, id3_file]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["equivalent"] is False
    assert obj["first_difference"]["coeff_1"] == "-6"
    assert main(["compare", tr_file, tr_file]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["equivalent"] is True and obj["first_difference"] is None


def test_compare_dilation(tr_file, ter_file, id3_file, capsys):
    assert main(["compare", "--dilation", tr_file, ter_file]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["dilation"] == "3" and obj["equivalent"] is False
    assert main(["compare", "--dilation", tr_file, id3_file]) == 1
    assert json.loads(capsys.readouterr().out)["dilation"] is None


def test_lift(tr_file, capsys):
    assert main(["lift", tr_file, "--to", "4"]) == 0
    rule = parse_rule_json(capsys.readouterr().out)
    assert rule.order == 4 and len(rule.rows()) == 8


def test_symmetrize(tmp_path, capsys):
    path = tmp_path / "edge.json"
    save_rule(Rule(3, {(1, 0): F(1)}), path)
    assert main(["symmetrize", str(path)]) == 0
    rule = parse_rule_json(capsys.readouterr().out)
    assert rule == Rule(3, {(1, 0): F(1, 3), (1, 1): F(2, 3),
                            (2, 0): F(1, 3), (2, 2): F(2, 3),
                            (4, 0): F(1, 3), (4, 4): F(2, 3)})


def test_unique_affirmative(tr_file, capsys):
    assert main(["unique", tr_file]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"unique": True, "reason": "symmetric-deterministic",
                   "has_witness": False}


def test_unique_witness_file(tmp_path, capsys):
    path = tmp_path / "coin.json"
    save_rule(Rule(3, {(7, 0): F(1, 2), (7, 7): F(1, 2)}), path)
    witness_path = tmp_path / "witness.json"
    assert main(["unique", str(path), "--witness", str(witness_path)]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["unique"] is False and obj["witness_path"] == str(witness_path)
    witness = parse_rule_json(witness_path.read_text())
    assert witness == Rule(3, {(7, h): F(1, 6) for h in range(1, 7)})


def test_unique_witness_for_symmetric_rule(tmp_path, capsys):
    # single-edge rows keeping 2/3 and moving 1/3 to the opposite two-path
    rule = symmetrize(Rule(3, {(2, 5): F(1)}))
    path = tmp_path / "sym.json"
    save_rule(rule, path)
    witness_path = tmp_path / "witness.json"
    assert main(["unique", str(path), "--witness", str(witness_path)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["unique"] is False and captured.err == ""
    witness = parse_rule_json(witness_path.read_text())
    assert witness != rule and rule_problems(witness) == []
    assert compare(rule, witness).equivalent


def test_unique_cap(tmp_path, capsys):
    # clique removal at order 8 is symmetric and deterministic: its
    # relabelling sweep is within budget, and no certificate is needed
    path = tmp_path / "clique8.json"
    save_rule(make_named("clique-removal", 8), path)
    assert main(["unique", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["unique"] is True
    # an asymmetric rule's witness is checked by certificates, whose
    # census stops at order 7
    save_rule(Rule(8, {(1, 0): F(1)}), path)
    assert main(["unique", str(path)]) == 3
    assert "census" in capsys.readouterr().err


def test_k1_banner_and_verdicts(tr_file, ter_file, capsys):
    assert main(["k1", tr_file, ter_file]) == 1
    captured = capsys.readouterr()
    assert "CONJECTURE" in captured.err
    assert json.loads(captured.out) == {"conjectured_check": "orbit-sums",
                                        "holds": False}
    assert main(["k1", tr_file, tr_file]) == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True


def test_velocity(tr_file, kernel_file, capsys):
    assert main(["velocity", tr_file, kernel_file]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["values"][0][0] == pytest.approx(-6 * 0.8 ** 3, abs=1e-12)


def test_integrate_csv(tr_file, kernel_file, capsys):
    assert main(["integrate", tr_file, kernel_file, "--t-max", "0.002"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,w_1_1"
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) == 0.8


def test_integrate_rejects_bad_kernel(tr_file, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"weights": ["1"], "values": [[1.5]]}')
    assert main(["integrate", tr_file, str(path), "--t-max", "0.1"]) == 2
    assert "expert_nongraphon" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["integrate", "R", "K", "--t-max", "inf"],
    ["integrate", "R", "K", "--t-max", "0"],
    ["integrate", "R", "K", "--t-max", "1", "--dt", "nan"],
    ["integrate", "R", "K", "--t-max", "1", "--dt", "-0.1"],
    ["simulate", "R", "--n", "5", "--w0", "K", "--time=-inf", "--seed", "1"],
    ["transference", "R", "--n", "5", "--w0", "K", "--time", "0.1",
     "--eps", "nan", "--seed", "1"],
])
def test_float_arguments_must_be_finite_and_positive(
        argv, tr_file, kernel_file, capsys):
    argv = [tr_file if a == "R" else kernel_file if a == "K" else a
            for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "finite positive" in capsys.readouterr().err


def test_integrate_step_too_large(tr_file, kernel_file, capsys):
    assert main(["integrate", tr_file, kernel_file,
                 "--t-max", "1", "--dt", "5"]) == 2
    assert "reduce the step size" in capsys.readouterr().err


def test_integrate_step_count_overflows(tr_file, kernel_file, capsys):
    # t_max / h is infinite as a float: a step budget, not a number error
    assert main(["integrate", tr_file, kernel_file,
                 "--t-max", "1e300", "--dt", "1e-300"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "steps" in captured.err


def test_simulate_step_count_overflows(tr_file, kernel_file, capsys):
    assert main(["simulate", tr_file, "--n", "5000", "--w0", kernel_file,
                 "--time", "1e305", "--seed", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "steps" in captured.err


def test_integrate_step_count_capped(tr_file, kernel_file, capsys):
    assert main(["integrate", tr_file, kernel_file, "--t-max", "1e9"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "steps" in captured.err


def test_integrate_blowup_prints_one_line(tmp_path):
    # extremist order 4 from a non-graphon 2-part kernel overflows within
    # two steps; numpy's overflow warnings stay out of stderr, in a fresh
    # interpreter as a user runs it
    rule = tmp_path / "ext4.json"
    save_rule(make_named("extremist", 4), rule)
    kernel = tmp_path / "kng.json"
    kernel.write_text('{"weights": ["1/2", "1/2"], '
                      '"values": [[1.8, -0.3], [-0.3, 2.5]]}')
    src = os.path.dirname(os.path.dirname(flipproc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "flipproc.cli", "integrate", str(rule), str(kernel),
         "--t-max", "0.5", "--dt", "0.01", "--expert-nongraphon"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: state is no longer finite at time 0.02; reduce the step size\n")


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random costs about 10 ms and 6 MB to import; only a simulation
    # loads it, so every other command starts without it
    src = os.path.dirname(os.path.dirname(flipproc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, numpy; print('numpy.random' in sys.modules); "
            "import flipproc.cli; print('numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    by_numpy, by_cli = proc.stdout.split()
    if by_numpy == "True":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert by_cli == "False"


def test_velocity_rejects_non_finite_kernel(tr_file, tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"weights": ["1/2", "1/2"], '
                    '"values": [[NaN, 0.5], [0.5, 0.3]]}')
    assert main(["velocity", tr_file, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "non-finite block value" in captured.err


def test_velocity_rejects_kernel_value_past_float(tr_file, tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text('{"weights": ["1"], "values": [[' + "9" * 400 + ']]}')
    assert main(["velocity", tr_file, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "block value 999" in captured.err
    assert "too large for a float" in captured.err


@pytest.mark.parametrize("argv", [
    ["velocity", "R", "K"],
    ["integrate", "R", "K", "--t-max", "0.01"],
    ["transference", "R", "--n", "20", "--w0", "K", "--time", "0.01",
     "--eps", "0.5", "--seed", "1", "--runs", "1"],
])
def test_dynamics_commands_are_capped(argv, tmp_path, kernel_file, capsys):
    rule = tmp_path / "clique8.json"
    save_rule(make_named("clique-removal", 8), rule)
    argv = [str(rule) if a == "R" else kernel_file if a == "K" else a
            for a in argv]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "census" in captured.err


def test_velocity_grid_cap(tmp_path, capsys):
    rule = tmp_path / "clique6.json"
    save_rule(make_named("clique-removal", 6), rule)
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"weights": ["1/20"] * 20,
                                "values": [[0.5] * 20] * 20}))
    assert main(["velocity", str(rule), str(wide)]) == 3
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["simulate"], ["transference", "--eps", "0.05"]])
def test_simulation_steps_capped(command, tr_file, kernel_file, capsys):
    # 2 runs of floor(1 * 3000^2) steps, beyond the step budget
    argv = [command[0], tr_file, "--n", "3000", "--w0", kernel_file,
            "--time", "1", "--seed", "1", "--runs", "2"] + command[1:]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "steps" in captured.err


def test_simulate_csv(tr_file, kernel_file, capsys):
    assert main(["simulate", tr_file, "--n", "20", "--w0", kernel_file,
                 "--time", "0.01", "--seed", "4", "--runs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "run,t,block_i,block_j,density,reference,abs_dev"
    assert len(lines) == 1 + 2 * 10  # runs x default sample points, one block


def test_transference_report(tmp_path, kernel_file, capsys):
    comp = tmp_path / "comp.json"
    save_rule(make_named("complementing", 2), comp)
    w0 = tmp_path / "w0.json"
    w0.write_text(kernel_to_json(constant_kernel(0.0)))
    assert main(["transference", str(comp), "--n", "200", "--w0", str(w0),
                 "--time", "0.2", "--eps", "0.08", "--seed", "11",
                 "--runs", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True and report["runs_passing"] == 2
    assert main(["transference", str(comp), "--n", "60", "--w0", str(w0),
                 "--time", "0.2", "--eps", "0.0001", "--seed", "11",
                 "--runs", "2"]) == 1
    capsys.readouterr()


def test_invalid_rule_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"order": 2, "entries": [{"from": 1, "to": 0, "p": "1/2"}]}\n')
    assert main(["coeffs", str(path)]) == 2
    assert "row 1 has row sum 1/2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["coeffs", "RULE"],
    ["velocity", "TR", "KERNEL"],
    ["named", "extremist", "--k", "3", "--threshold", "1/0"],
    ["named", "ignorant", "--k", "3", "--dist", '{"0": "1/0"}'],
], ids=["rule-entry", "kernel-weight", "threshold", "dist"])
def test_zero_denominator_names_its_input(argv, tr_file, tmp_path, capsys):
    rule = tmp_path / "rule.json"
    rule.write_text('{"order": 2, "entries": [{"from": 1, "to": 0, "p": "1/0"}]}')
    kernel = tmp_path / "kernel.json"
    kernel.write_text('{"weights": ["1/0"], "values": [[0.5]]}')
    files = {"RULE": str(rule), "TR": tr_file, "KERNEL": str(kernel)}
    assert main([files.get(arg, arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "1/0" in captured.err


@pytest.mark.parametrize("command, text", [
    ("coeffs", '{"order": 3, "entries": 5}'),
    ("coeffs", '{"order": 3, "entries": [5]}'),
    ("coeffs", '{"order": true, "entries": []}'),
    ("coeffs", '{"order": 3, "entries": [{"from": true, "to": 0, "p": "1"}]}'),
    ("coeffs", '{"order": 3, "entries": [{"from": 7, "to": false, "p": "1"}]}'),
    ("velocity", '{"weights": ["1"], "values": 0.5}'),
    ("velocity", '{"weights": ["1"], "values": [0.5]}'),
    ("velocity", '{"weights": "1", "values": [[0.5]]}'),
    ("coeffs", '{"order": 3, "entries": [{"to": 0, "p": "1"}]}'),
    ("velocity", '[["1"], [[0.5]]]'),
    ("velocity", '{"weights": ["1"]}'),
], ids=["entries-number", "entries-of-numbers", "order-true", "from-true",
        "to-false", "values-number", "values-of-numbers", "weights-string",
        "entry-without-from", "kernel-not-object", "kernel-without-values"])
def test_malformed_json_shapes(command, text, tr_file, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    argv = [command, str(path)] if command == "coeffs" else [command, tr_file, str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def _indented(obj):
    return json.dumps(obj, indent=2) + "\n"


def test_json_outputs_are_json_dumps_bytes(tmp_path, capsys):
    # every JSON output is byte for byte what json.dumps(..., indent=2)
    # writes for the library's own object
    rules = {
        "tr": make_named("triangle-removal", 3),
        "ter": make_named("triangle-edge-removal", 3),
        "ext4": make_named("extremist", 4),
        "odd": Rule(3, {(7, 0): F(1, 3), (7, 6): F(2, 3), (1, 2): F(1, 7),
                        (1, 1): F(6, 7)}),
    }
    paths = {}
    for name, rule in rules.items():
        paths[name] = str(tmp_path / f"{name}.json")
        save_rule(rule, paths[name])
    kernel = StepKernel([F(1, 3), F(2, 3)], [[0.8, 1e-300], [1e-300, 0.5]])
    kernel_path = tmp_path / "w.json"
    kernel_path.write_text(kernel_to_json(kernel))

    def output(*argv):
        assert main(list(argv)) in (0, 1)
        return capsys.readouterr().out

    for a, b in (("tr", "ter"), ("ext4", "tr"), ("odd", "tr")):
        verdict = compare(rules[a], rules[b])
        assert output("compare", paths[a], paths[b]) == _indented(verdict.to_json_obj())
    for name, rule in rules.items():
        assert output("coeffs", paths[name]) == _indented(coeff_vector(rule).to_json_obj())
        assert output("lift", paths[name], "--to", "4") == _indented(
            rule_to_json_obj(lift(rule, 4)))
        assert output("velocity", paths[name], str(kernel_path)) == _indented(
            kernel_to_json_obj(velocity(rule, kernel)))
    for k in (2, 3, 4):
        classes = enumerate_classes(k)
        assert output("classes", "--k", str(k)) == _indented({
            "order": k, "count": len(classes),
            "classes": [cls.to_json_obj() for cls in classes],
        })
    for family, k in (("clique-removal", 5), ("complementing", 3), ("identity", 2)):
        assert output("named", family, "--k", str(k)) == _indented(
            rule_to_json_obj(make_named(family, k)))
    # order 1 has no classes, so its record lists are empty; --dilation
    # adds a key after the certificates
    rules["one"], rules["id3"] = Rule(1), make_named("identity", 3)
    paths["one"], paths["id3"] = str(tmp_path / "one.json"), str(tmp_path / "id3.json")
    (tmp_path / "one.json").write_text('{"order": 1}')
    save_rule(rules["id3"], paths["id3"])
    assert output("classes", "--k", "1") == _indented({"order": 1, "count": 0, "classes": []})
    assert output("coeffs", paths["one"]) == _indented(coeff_vector(rules["one"]).to_json_obj())
    for a, b in (("one", "one"), ("tr", "one")):
        verdict = compare(rules[a], rules[b])
        assert output("compare", paths[a], paths[b]) == _indented(verdict.to_json_obj())
    assert output("named", "identity", "--k", "3") == _indented(rule_to_json_obj(rules["id3"]))
    for b, factor, code in (("ter", "3", 0), ("id3", None, 1)):
        assert main(["compare", paths["tr"], paths[b], "--dilation"]) == code
        want = dict(compare(rules["tr"], rules[b]).to_json_obj(), dilation=factor)
        assert capsys.readouterr().out == _indented(want)


def test_number_budget_and_named_order_bound(tr_file, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"order": 3, "entries": [{"from": 7, "to": 0, "p": "1e-3000000"}]}')
    assert main(["coeffs", str(path)]) == 2
    assert "input budget" in capsys.readouterr().err
    weights = tmp_path / "w.json"
    weights.write_text('{"weights": ["1e-10000000"], "values": [[0.5]]}')
    assert main(["velocity", tr_file, str(weights)]) == 2
    assert "input budget" in capsys.readouterr().err
    assert main(["named", "extremist", "--k", "3", "--threshold", "1e9999"]) == 2
    assert main(["named", "ignorant", "--k", "2", "--dist", '{"0": "1e-5000"}']) == 2
    assert "input budget" in capsys.readouterr().err
    # a named rule stops at order 11, the last whose graphs fit 62 bits
    assert main(["named", "clique-removal", "--k", "170"]) == 3
    err = capsys.readouterr().err
    assert "62-bit" in err and err.count("\n") == 1 and len(err) < 120
    assert main(["named", "clique-removal", "--k", "12"]) == 3
    assert "62-bit" in capsys.readouterr().err
    assert main(["named", "clique-removal", "--k", "11"]) == 0


def test_named_dist_codes_that_name_one_graph_add_up(capsys):
    # "1" and "01" are both graph 1: their probabilities add up, so the
    # listed mass below is 3/2, not a distribution
    dist = '{"0": "1/2", "1": "1/2", "01": "1/2"}'
    assert main(["named", "ignorant", "--k", "2", "--dist", dist]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be a probability distribution" in captured.err
    dist = '{"0": "1/2", "1": "1/4", "01": "1/4"}'
    assert main(["named", "ignorant", "--k", "2", "--dist", dist]) == 0
    rule = parse_rule_json(capsys.readouterr().out)
    assert rule == make_named("ignorant", 2, dist={0: Fraction(1, 2), 1: Fraction(1, 2)})
    assert rule.probability(0, 1) == Fraction(1, 2)


def test_rule_of_huge_order_exits_3(tmp_path, capsys):
    # the order is refused when the rule is read, in one short line,
    # without building 2^C(k, 2) and before its row sum is checked
    path = tmp_path / "order.json"
    path.write_text('{"order": 100000000000, "entries": [{"from": 1, "to": 0, "p": "1/2"}]}')
    assert main(["coeffs", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "62-bit" in captured.err and len(captured.err) < 120


def test_missing_file(capsys):
    assert main(["coeffs", "/nonexistent/rule.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


# ------------------------------------------------------------- exit codes

_RULE_OBJS = [rule_to_json_obj(rule) for rule in (
    make_named("triangle-removal", 3),
    make_named("identity", 1),
    Rule(2, {(1, 0): F(1, 3), (1, 1): F(2, 3)}),
    Rule(4, {(3, 0): F(1, 3), (3, 12): F(2, 3)}),
)]
_KERNEL_OBJS = [kernel_to_json_obj(kernel) for kernel in (
    constant_kernel(0.8),
    StepKernel([F(1, 3), F(2, 3)], [[0.8, 0.3], [0.3, 0.5]]),
)]
_ODD_VALUES = st.sampled_from([
    None, True, -1, 0, 1, 2, 5, 7, 64, 1 << 63, 10 ** 30, 1.5, float("nan"),
    "", "1/3", "0", "-1", "2", "1/0", "nan", "inf", "1e-400", "1e999999",
    "abc", [], {}, [[0.5]], ["1"],
])
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)),
    lambda children: st.one_of(st.lists(children, max_size=3),
                               st.dictionaries(st.text(max_size=6), children, max_size=3)),
    max_leaves=10,
)


@st.composite
def _file_text(draw, objs, fields):
    """A valid file, one with a field, an entry field or a nested value
    replaced by an odd value, or arbitrary JSON or text."""
    how = draw(st.sampled_from(["valid", "valid", "near", "near", "arbitrary", "text"]))
    if how == "arbitrary":
        return json.dumps(draw(_json_values))
    if how == "text":
        return draw(st.sampled_from(["", "{", "[1, 2", "NaN", '{"order": 3']))
    obj = json.loads(json.dumps(draw(st.sampled_from(objs))))
    if how == "near":
        target = obj
        key = draw(st.sampled_from(fields))
        if isinstance(obj.get(key), list) and obj[key] and draw(st.booleans()):
            target = obj[key]
            key = draw(st.integers(min_value=0, max_value=len(target) - 1))
            if isinstance(target[key], (dict, list)) and draw(st.booleans()):
                target = target[key]
                key = draw(st.sampled_from(sorted(target) if isinstance(target, dict)
                                           else range(len(target))))
        if isinstance(target, dict) and draw(st.booleans()) and key in target:
            del target[key]
        else:
            target[key] = draw(_ODD_VALUES)
    return json.dumps(obj)


# argument values: ones that run, and odd ones
_VALUES = {
    "k": (["1", "2", "3", "4"], ["-1", "0", "8", "170", "1e3", "x", str(10 ** 30)]),
    "time": (["0.01", "0.1", "0.5"], ["0", "-1", "nan", "inf", "1e-300", "1e300", "abc"]),
    "dt": (["0.01", "0.1"], ["1e-300", "5", "nan"]),
    "n": (["2", "5", "12"], ["-1", "0", "x"]),
    "seed": (["0", "7"], ["-5", "x"]),
    "runs": (["1", "2"], ["0", "-1"]),
}


@st.composite
def _invocations(draw):
    """argv for one subcommand: R, R2 and K name rule and kernel files, W
    a witness path.  Most arguments run; in about half of the examples
    each may be odd instead."""
    odd = draw(st.booleans())

    def value(name):
        runs, rest = _VALUES[name]
        return draw(st.sampled_from(runs + rest if odd else runs))

    command = draw(st.sampled_from([
        "classes", "coeffs", "compare", "lift", "symmetrize", "unique", "k1",
        "velocity", "integrate", "simulate", "transference", "named"]))
    argv = [command]
    if command == "classes":
        argv += ["--k", value("k")]
    elif command in ("coeffs", "symmetrize"):
        argv += ["R"]
    elif command in ("compare", "k1"):
        argv += ["R", draw(st.sampled_from(["R", "R2"]))]
        if command == "compare" and draw(st.booleans()):
            argv += ["--dilation"]
    elif command == "lift":
        argv += ["R", "--to", value("k")]
    elif command == "unique":
        argv += ["R"] + (["--witness", "W"] if draw(st.booleans()) else [])
    elif command == "velocity":
        argv += ["R", "K"]
    elif command == "integrate":
        argv += ["R", "K", "--t-max", value("time"), "--dt", value("dt")]
        if draw(st.booleans()):
            argv += ["--expert-nongraphon"]
    elif command in ("simulate", "transference"):
        argv += ["R", "--n", value("n"), "--w0", "K", "--time", value("time"),
                 "--seed", value("seed"), "--runs", value("runs")]
        if command == "transference":
            argv += ["--eps", value("time")]
    else:
        argv += [draw(st.sampled_from(["identity", "triangle-removal", "complementing",
                                       "extremist", "ignorant", "clique-removal",
                                       "component-completion", "nope"])),
                 "--k", value("k")]
        if draw(st.booleans()):
            argv += ["--dist", json.dumps(draw(st.one_of(
                _json_values, st.dictionaries(
                    st.sampled_from(["0", "7", "-1", " 3", "x", "9" * 40]),
                    _ODD_VALUES, max_size=2))))]
        if draw(st.booleans()):
            argv += ["--threshold", value("time")]
    return argv


# one example takes well under a second; the bound leaves room for a slow host
_EXAMPLE_SECONDS = 5.0


@settings(max_examples=60, deadline=None)
@given(_invocations(),
       _file_text(_RULE_OBJS, ["order", "entries", "default", "extra"]),
       _file_text(_RULE_OBJS, ["order", "entries"]),
       _file_text(_KERNEL_OBJS, ["weights", "values", "extra"]))
def test_every_invocation_exits_with_a_documented_code(argv, rule, rule2, kernel):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"R": rule, "R2": rule2, "K": kernel}
        for name, text in paths.items():
            paths[name] = os.path.join(tmp, name + ".json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        paths["W"] = os.path.join(tmp, "witness.json")
        argv = [paths.get(arg, arg) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
        elapsed = time.perf_counter() - start
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert elapsed < _EXAMPLE_SECONDS, argv
