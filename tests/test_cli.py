"""Command-line interface behavior."""

import json
from fractions import Fraction

import pytest

from polarrep.cli import main
from polarrep.codec import synthetic_erasure_values
from polarrep.effective_channels import assignment_erasures
from polarrep.patterns import PatternAssignment, family_by_name


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--reproducible")
    return code, json.loads(out)


def test_analyze_mixed_pair(capsys):
    code, doc = run_json(capsys, "analyze", "--family", "reg2", "--assign", "0,1")
    assert code == 0
    assert doc["channels"]["capacity"] == ["1/2", "0/1", "-1/4", "-1/2", "1/4"]
    mid = [row for row in doc["evaluation"] if row["eps"] == "1/2"][0]
    assert mid["capacity"] == "25/64"
    assert mid["capacity_decimal"] == "0.390625"


def test_analyze_plain_pair(capsys):
    code, doc = run_json(capsys, "analyze", "--family", "reg2", "--assign", "1,1")
    assert code == 0
    assert doc["channels"]["capacity"] == ["1/2", "0/1", "-1/2"]


def test_analyze_identity_blocks(capsys):
    code, doc = run_json(capsys, "analyze", "--family", "irr4", "--assign", "7,7,7,7")
    assert code == 0
    for coeffs in doc["channels"]["per_subword"]:
        assert coeffs == ["0/1", "0/1", "0/1", "0/1", "1/1"]


def test_search_two_blocks(capsys):
    code, doc = run_json(capsys, "search", "--family", "reg2")
    assert code == 0
    assert doc["best"] == [0, 1]
    assert doc["candidates_evaluated"] == 3
    assert doc["dominance_certified"] is True


def test_search_csv(capsys):
    code, out = run(capsys, "search", "--family", "reg2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("assignment,eps=1/20")
    assert len(lines) == 4


def test_prove_gain(capsys):
    code, doc = run_json(capsys, "prove", "--t", "1,2")
    assert code == 0
    assert doc["all_certified"] is True
    t2 = [c for c in doc["certificates"] if c.get("t") == 2][0]
    assert t2["verdict"] == "certified"
    # curve data: total erasure strictly below r*eps at every grid point
    for row in t2["curve"]:
        assert float(row["sum_erasure_decimal"]) < float(row["r_eps_decimal"])


def test_prove_custom_zero_refuted(capsys):
    code, doc = run_json(capsys, "prove", "--custom", "0")
    assert code == 1
    assert doc["certificates"][0]["verdict"] == "refuted"


def test_curves_values(capsys):
    code, doc = run_json(capsys, "curves", "--grid", "1/2")
    assert code == 0
    assert doc["columns"][:2] == ["eps", "shannon"]
    row = doc["rows"][0]
    table = dict(zip(doc["columns"], row))
    assert table["repetition_r2"] == "0.375"
    assert table["proposed_r2"] == "0.390625"
    assert float(table["irregular_r4"]) >= float(table["proposed_r4"])


def test_simulate_runs(capsys):
    code, doc = run_json(
        capsys,
        "simulate", "--r", "2", "--m", "3", "--assign", "0,1",
        "--eps", "0.5", "--trials", "500", "--seed", "9",
    )
    assert code == 0
    assert doc["trials"] == 500
    assert len(doc["per_bit_erasure_rates"]) == 8
    assert 0 <= doc["block_error_rate"] <= 1


def test_simulate_design_erasures_at_eps(capsys):
    # The frozen set comes from --design-eps; the reported erasures are at --eps.
    argv = ("simulate", "--r", "2", "--m", "3", "--assign", "0,1", "--trials", "10")
    _, same = run_json(capsys, *argv)
    _, other = run_json(capsys, *argv, "--design-eps", "1/3")
    per = assignment_erasures(PatternAssignment([0, 1]), family_by_name("reg2")).per_subword
    expected = [str(v) for v in synthetic_erasure_values(per, 2, Fraction(1, 2))]
    assert other["spec"]["design_eps"] == "1/3"
    assert same["design_erasures"] == other["design_erasures"] == expected


def test_simulate_oracle(capsys):
    code, doc = run_json(
        capsys, "simulate", "--oracle", "--r", "2", "--m", "2", "--assign", "0,1"
    )
    assert code == 0
    assert doc["equal"] is True
    assert doc["mismatched_bits"] == []


def test_reproducible_outputs_identical(capsys):
    _, first = run(capsys, "search", "--family", "reg2", "--reproducible")
    _, second = run(capsys, "search", "--family", "reg2", "--reproducible")
    assert first == second


def test_timestamp_present_without_flag(capsys):
    code, out = run(capsys, "analyze", "--family", "reg2", "--assign", "0,1")
    assert code == 0
    assert "generated_at" in json.loads(out)


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run(
        capsys, "analyze", "--family", "reg2", "--assign", "0,1",
        "--out", str(path), "--reproducible",
    )
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["assignment"] == [0, 1]


def test_config_file_defaults(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"family": "reg2", "assign": "0,1"}))
    code, doc = run_json(capsys, "--config", str(config), "analyze")
    assert code == 0
    assert doc["assignment"] == [0, 1]
    # explicit flags win over the config
    code, doc = run_json(
        capsys, "--config", str(config), "analyze", "--assign", "1,1"
    )
    assert doc["assignment"] == [1, 1]


@pytest.mark.parametrize(
    "argv, reason",
    [
        pytest.param(["analyze", "--family", "reg3", "--assign", "0,1"], "reg3",
                     id="unknown-family"),
        pytest.param(["analyze", "--family", "reg2", "--assign", "0,1", "--grid", "2"],
                     "grid point 2 outside (0, 1)", id="grid-outside"),
        pytest.param(["prove"], "nothing to prove", id="nothing-to-prove"),
        pytest.param(["prove", "--t", "-1"], "t=-1", id="negative-t"),
        pytest.param(["prove", "--t", "0"], "t=0", id="zero-t"),
        pytest.param(["curves", "--r", "3"], "not a power of two", id="curves-r3"),
        pytest.param(["simulate", "--r", "3", "--m", "3", "--assign", "0,1"],
                     "not a power of two", id="simulate-r3"),
        pytest.param(["simulate", "--r", "2", "--m", "2", "--assign", "0,1", "--eps", "2",
                      "--design-eps", "1/2"], "got 2", id="simulate-eps2"),
        pytest.param(["--config", "no-such-config.json", "analyze"], "no-such-config.json",
                     id="missing-config"),
    ],
)
def test_bad_family_fails_cleanly(capsys, argv, reason):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    error = json.loads(captured.err)
    assert error["status"] == "error"
    assert reason in error["reason"]


def test_missing_required_flag(capsys):
    code = main(["analyze", "--family", "reg2"])
    assert code == 1


def test_kernels_command(capsys):
    code, doc = run_json(capsys, "kernels", "--refs", "reg4:0,irr4:7")
    assert code == 0
    assert doc["kernels"][0]["ref"] == "reg4:0"
    assert doc["kernels"][0]["rows"][3] == [1, 1, 1, 1]
    assert doc["kernels"][1]["rows"] == [
        [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
    ]
    assert "1 0 0 0" in doc["kernels"][0]["grid"]
