"""End-to-end command line checks: golden outputs, exit codes, and the
stdout/stderr split."""

import json
from fractions import Fraction

import pytest

from flipproc import (
    Rule,
    constant_kernel,
    kernel_to_json,
    make_named,
    parse_rule_json,
    rule_to_json,
    save_rule,
)
from flipproc.cli import main

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
    assert main(["named", "extremist", "--k", "3", "--threshold", "1"]) == 0
    rule = parse_rule_json(capsys.readouterr().out)
    assert rule.probability(1, 7) == 1


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
    assert "cap" in capsys.readouterr().err
    assert main(["--cap", "3", "classes", "--k", "4"]) == 3
    capsys.readouterr()
    assert main(["classes", "--k", "4"]) == 0
    capsys.readouterr()


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
    assert main(["integrate", tr_file, kernel_file,
                 "--t-max", "1e300", "--dt", "1e-300"]) == 2
    assert "error" in capsys.readouterr().err


def test_velocity_rejects_non_finite_kernel(tr_file, tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"weights": ["1/2", "1/2"], '
                    '"values": [[NaN, 0.5], [0.5, 0.3]]}')
    assert main(["velocity", tr_file, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "non-finite block value" in captured.err


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


def test_missing_file(capsys):
    assert main(["coeffs", "/nonexistent/rule.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()
