"""Command-line interface behavior."""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import polarrep
from polarrep import DEFAULT_GRID, cli, codec, effective_channels, patterns, poly, proofcheck, search
from polarrep.cli import _capacity, _decimal, _exact, main
from polarrep.codec import synthetic_erasure_values
from polarrep.effective_channels import (assignment_erasures, coded_repetition_scheme,
                                         reference_expression_set)
from polarrep.patterns import PatternAssignment, _kernel_groups, family_by_name, regular_family


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


@pytest.mark.parametrize(
    "argv, columns",
    [
        (["search", "--family", "reg2"], slice(1, None)),
        (["simulate", "--r", "2", "--m", "4", "--assign", "0,1", "--trials", "50"], slice(1, 3)),
    ],
    ids=["search", "simulate"],
)
def test_csv_decimals_come_from_decimal(monkeypatch, capsys, argv, columns):
    # Every decimal cell is written by cli._decimal, the one 12-digit rule.
    monkeypatch.setattr(cli, "_decimal", lambda value: f"<{float(value)}>")
    code, out = run(capsys, *argv, "--format", "csv")
    cells = [cell for row in csv.reader(out.splitlines()[1:]) for cell in row[columns]]
    assert code == 0 and cells
    assert all(cell.startswith("<") for cell in cells)


def test_prove_gain(capsys):
    code, doc = run_json(capsys, "prove", "--t", "1,2")
    assert code == 0
    assert doc["all_certified"] is True
    t2 = [c for c in doc["certificates"] if c.get("t") == 2][0]
    assert t2["verdict"] == "certified"
    # curve data: total erasure strictly below r*eps at every grid point
    for row in t2["curve"]:
        assert float(row["sum_erasure_decimal"]) < float(row["r_eps_decimal"])


@pytest.mark.parametrize("t", ["8", "1,8"])
def test_prove_level_count_checked_before_building(monkeypatch, capsys, t):
    def built(*args):
        raise AssertionError("gain polynomial built before the level check")

    monkeypatch.setattr(proofcheck, "regular_block_erasures", built, raising=False)
    monkeypatch.setattr(poly.Poly, "compose", built)
    code = main(["prove", "--t", t])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err)["reason"] == (
        "t=8 exceeds the certified range MAX_GAIN_T=7"
    )


def test_prove_custom_zero_refuted(capsys):
    code, doc = run_json(capsys, "prove", "--custom", "0")
    assert code == 1
    assert doc["certificates"][0]["verdict"] == "refuted"
    # --sample reaches the custom certificate as it does the gain ones.
    code, doc = run_json(capsys, "prove", "--custom=-1,1", "--sample", "1/3")
    assert code == 1
    assert doc["certificates"][0]["interior_sample"] == {"eps": "1/3", "value": "-2/3"}


def test_prove_custom_drops_empty_parts(capsys):
    # Like every other comma-list flag: 1,,2 reads as 1,2.
    assert run_json(capsys, "prove", "--custom", "1,,2") == run_json(
        capsys, "prove", "--custom", "1,2")


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
    argv = ("simulate", "--r", "2", "--m", "3", "--assign", "0,1", "--trials", "10", "--exact")
    _, same = run_json(capsys, *argv)
    _, other = run_json(capsys, *argv, "--design-eps", "1/3")
    per = assignment_erasures(PatternAssignment([0, 1]), family_by_name("reg2")).per_subword
    values = [z.evaluate(Fraction(1, 2)) for z in per]
    expected = [str(v) for v in synthetic_erasure_values(values, 2)]
    assert other["spec"]["design_eps"] == "1/3"
    assert same["design_erasures"] == other["design_erasures"] == expected


def test_simulate_decimal_design_erasures(capsys):
    argv = ("simulate", "--family", "irr4", "--m", "5", "--assign", "2,5,7,7",
            "--eps", "2/5", "--design-eps", "1/3", "--trials", "50", "--seed", "3")
    _, plain = run_json(capsys, *argv)
    _, exact = run_json(capsys, *argv, "--exact")
    decimals, ratios = plain.pop("design_erasures"), exact.pop("design_erasures")
    assert decimals == [_decimal(Fraction(v)) for v in ratios]
    assert plain == exact


def test_exact_text_past_digit_limit():
    # str() of an int with more than 4,300 digits raises ValueError.
    assert _exact(10**5000, 10**4400 + 7) == "1" + "0" * 5000 + "/1" + "0" * 4399 + "7"
    assert _exact(10**4400, 1) == "1" + "0" * 4400
    assert _exact(0, 1) == "0"
    assert _exact(5, 16) == str(Fraction(5, 16))


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--family", "reg2", "--grid", "1e-4299"],
        ["analyze", "--family", "irr4", "--assign", "2,5,7,7", "--grid", "1e-1000"],
        ["prove", "--t", "2", "--grid", "1e-1000"],
        ["prove", "--t", "2", "--sample", "1e-1000"],
    ],
    ids=["search", "analyze", "prove-grid", "prove-sample"],
)
def test_exact_values_past_digit_limit(capsys, argv):
    """An accepted point can give exact values with more digits than
    ``str`` prints; each is printed in full, as ``str`` prints it with the
    limit lifted."""
    code, doc = run_json(capsys, *argv)
    limit = sys.get_int_max_str_digits()
    assert code == 0
    assert max(map(len, re.findall(r"\d+", json.dumps(doc)))) > limit
    sys.set_int_max_str_digits(0)
    try:
        assert run_json(capsys, *argv) == (0, doc)
    finally:
        sys.set_int_max_str_digits(limit)


def test_simulate_m13_past_digit_limit(capsys):
    code, doc = run_json(capsys, "simulate", "--family", "irr4", "--m", "13",
                         "--assign", "2,5,7,7", "--trials", "2")
    assert code == 0
    assert len(doc["design_erasures"]) == 1 << 13


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


def test_config_value_read_by_its_own_command(tmp_path, capsys):
    # --r is a list for curves and one int for simulate: each command reads
    # the config value as its own flag would, and a command without the
    # flag ignores it.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"r": "2,4"}))
    assert run(capsys, "--config", str(config), "curves", "--reproducible") == run(
        capsys, "curves", "--r", "2,4", "--reproducible"
    )
    argv = ["analyze", "--family", "reg2", "--assign", "0,1", "--reproducible"]
    assert run(capsys, "--config", str(config), *argv) == run(capsys, *argv)


def test_config_value_invalid_for_command_is_usage_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trials": "abc"}))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(config), "simulate", "--r", "2", "--m", "2", "--assign", "0,1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--trials: invalid int value: 'abc'" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--r", "2", "--m", "3", "--assign", "0,1", "--grid", "1/3"],
        ["kernels", "--refs", "reg4:0", "--grid", "1/3"],
    ],
    ids=["simulate", "kernels"],
)
def test_grid_refused_where_unread(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --grid 1/3" in captured.err


def test_config_grid_ignored_by_simulate(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid": "1/3"}))
    argv = ["simulate", "--r", "2", "--m", "3", "--assign", "0,1", "--trials", "50",
            "--reproducible"]
    code, out = run(capsys, "--config", str(config), *argv)
    assert code == 0
    assert (code, out) == run(capsys, *argv)


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
        pytest.param(["simulate", "--r", "2", "--m", "2", "--assign", "0,1", "--eps", "3/2"],
                     "erasure probability must lie in [0, 1], got 3/2",
                     id="simulate-eps-is-design-point"),
        pytest.param(["--config", "no-such-config.json", "analyze"], "no-such-config.json",
                     id="missing-config"),
        pytest.param(["simulate", "--r", "2", "--m", "2", "--assign", "0,1", "--eps", "1/0"],
                     "zero denominator", id="eps-zero-denominator"),
        pytest.param(["simulate", "--r", "2", "--m", "2", "--assign", "0,1",
                      "--design-eps", "1/0"], "zero denominator", id="design-eps-zero-denominator"),
        pytest.param(["analyze", "--family", "reg2", "--assign", "0,1", "--grid", "1/2,1/0"],
                     "zero denominator", id="grid-zero-denominator"),
        pytest.param(["prove", "--t", "1", "--sample", "1/0"], "zero denominator",
                     id="sample-zero-denominator"),
        pytest.param(["prove", "--custom", "1,2/0"], "zero denominator",
                     id="custom-zero-denominator"),
        pytest.param(["search", "--family", "irr4", "--grid", "1e-20000"],
                     "'1e-20000' has a numerator or denominator of more than 4300 digits",
                     id="grid-too-many-digits"),
        pytest.param(["simulate", "--r", "2", "--m", "2", "--assign", "0,1", "--eps", "1e-5000"],
                     "more than 4300 digits", id="eps-too-many-digits"),
        pytest.param(["prove", "--custom=-1,1", "--sample", "0"],
                     "interior sample must lie in (0, 1), got 0", id="custom-sample-zero"),
        pytest.param(["search", "--family", "reg2", "--grid", ","], "--grid lists no points",
                     id="search-empty-grid"),
        pytest.param(["search", "--family", "reg4", "--grid", "1/20,1/20,1/20,1/20,19/20",
                      "--no-certify"], "grid point 1/20 repeated", id="search-repeated-grid"),
        pytest.param(["analyze", "--family", "reg2", "--assign", "0,1", "--grid", "0.5,1/3,1/2"],
                     "grid point 1/2 repeated", id="analyze-repeated-grid"),
        pytest.param(["analyze", "--family", "reg2", "--assign", "0,1", "--grid", ","],
                     "--grid lists no points", id="analyze-empty-grid"),
        pytest.param(["curves", "--r", ","], "--r lists no repetition counts", id="curves-empty-r"),
        pytest.param(["curves", "--r", "2,2"], "repetition count 2 repeated",
                     id="curves-repeated-r"),
        pytest.param(["curves", "--r", "2,1"], "repetition count 1 has no polarized block",
                     id="curves-r1"),
        pytest.param(["prove", "--t", "1,1"], "level count 1 repeated", id="prove-repeated-t"),
        pytest.param(["kernels", "--refs", ","], "--refs lists no kernels",
                     id="kernels-empty-refs"),
        pytest.param(["kernels", "--refs", "reg4:²"], "kernel reference must look like 'reg4:0'",
                     id="kernels-superscript-index"),
        pytest.param(["prove", "--custom", "1/2,-1", "--t", ","], "--t lists no level counts",
                     id="prove-empty-t"),
        pytest.param(["prove", "--custom", ","], "--custom lists no coefficients",
                     id="prove-empty-custom"),
        pytest.param(["simulate", "--r", "2", "--m", "-1", "--assign", "0,1"],
                     "need 0 <= t <= m, got t=1, m=-1", id="simulate-negative-m"),
        pytest.param(["simulate", "--oracle", "--r", "2", "--m", "-1", "--assign", "0,1"],
                     "need 0 <= t <= m, got t=1, m=-1", id="oracle-negative-m"),
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


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--family", "reg2", "--r"],
        ["analyze", "--fam", "reg2", "--assign", "0,1", "--reproducible"],
        ["--conf", "no-such-config.json", "analyze", "--family", "reg2", "--assign", "0,1"],
    ],
    ids=["search-r", "analyze-fam", "config-prefix"],
)
def test_abbreviated_flags_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "config, error",
    [
        ({"trials": 1.5}, "argument --trials: invalid int value: '1.5'"),
        ({"trials": True}, "argument --trials: expected one argument"),
        ({"format": "xml"}, "argument --format: invalid choice: 'xml'"),
        ({"reproducible": "false"}, "argument --reproducible: ignored explicit argument 'false'"),
    ],
    ids=["trials-float", "trials-true", "format-xml", "reproducible-string"],
)
def test_config_value_parsed_as_typed_flag(tmp_path, capsys, config, error):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(path), "simulate", "--r", "2", "--m", "3", "--assign", "0,1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: polarrep simulate")
    assert error in captured.err


@pytest.mark.parametrize(
    "config, argv, flags",
    [
        ({"assign": [0, 1]}, ["analyze", "--family", "reg2"], ["--assign", "0,1"]),
        ({"t": [1, 2]}, ["prove"], ["--t", "1,2"]),
        ({"grid": [0.5]}, ["analyze", "--family", "reg2", "--assign", "0,1"], ["--grid", "0.5"]),
        ({"grid": [0.5, "1/4"]}, ["curves"], ["--grid", "0.5,1/4"]),
        ({"exact": True}, ["simulate", "--r", "2", "--m", "3", "--assign", "0,1", "--trials", "50"],
         ["--exact"]),
    ],
    ids=["assign", "t", "analyze-grid", "curves-grid", "switch"],
)
def test_config_value_reads_as_typed_flag(tmp_path, capsys, config, argv, flags):
    # A JSON array is its items joined by commas, and true sets a switch.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    typed = run(capsys, *argv, *flags, "--reproducible")
    assert typed[0] == 0
    assert run(capsys, "--config", str(path), *argv, "--reproducible") == typed


def test_config_null_and_false_leave_flags_unset(tmp_path, capsys):
    # simulate --oracle refuses every Monte Carlo flag that is set.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trials": None, "seed": None, "design-eps": None,
                                  "exact": False, "reproducible": False, "grid": None}))
    argv = ["simulate", "--oracle", "--r", "2", "--m", "2", "--assign", "0,1", "--reproducible"]
    code, out = run(capsys, "--config", str(config), *argv)
    assert code == 0
    assert (code, out) == run(capsys, *argv)


def test_config_not_an_object(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1]")
    code = main(["--config", str(config), "analyze"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "does not hold a JSON object" in json.loads(captured.err)["reason"]


def test_search_size_checked_before_enumeration(monkeypatch, capsys):
    def enumerated(*args):
        raise AssertionError("candidates enumerated before the size check")

    monkeypatch.setattr(search, "combinations_with_replacement", enumerated)
    code = main(["search", "--family", "reg16"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert json.loads(captured.err)["status"] == "error"


def test_simulate_oracle_size_checked_before_design(monkeypatch, capsys):
    def evaluated(*args):
        raise AssertionError("design erasures evaluated before the oracle bound check")

    monkeypatch.setattr(codec, "design_ranking", evaluated)
    code = main(["simulate", "--oracle", "--family", "irr4", "--m", "14", "--assign", "2,5,7,7"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err)["reason"] == "total length 65536 exceeds oracle bound 16"


def test_simulate_size_checked_before_design(monkeypatch, capsys):
    def evaluated(*args):
        raise AssertionError("design erasures evaluated before the size check")

    monkeypatch.setattr(codec, "design_ranking", evaluated)
    code = main(["simulate", "--family", "irr4", "--m", "16", "--assign", "2,5,7,7"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "exceeds the exact design bound" in json.loads(captured.err)["reason"]


def test_simulate_size_checked_before_allocating(capsys):
    # The default k is (1 << m) // 2: a 300,000,000-bit m must be refused first.
    tracemalloc.start()
    try:
        code = main(["simulate", "--family", "irr4", "--m", "300000000", "--assign", "2,5,7,7"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert json.loads(captured.err)["reason"] == (
        "m=300000000 exceeds the exact design bound MAX_DESIGN_M=15"
    )
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "flags, reason",
    [
        (["--oracle", "--format", "csv"], "simulate --oracle ignores --format csv"),
        (["--exact", "--format", "csv"], "simulate --format csv ignores --exact: CSV prints decimals"),
        (["--oracle", "--trials", "5", "--seed", "1", "--exact"],
         "simulate --oracle ignores --trials, --seed, --exact"),
        (["--oracle", "--eps", "1/2", "--design-eps", "1/3", "--k", "2"],
         "simulate --oracle ignores --eps, --design-eps, --k"),
        (["--r", "8"], "pass --family or --r, not both"),
        (["--oracle", "--r", "4"], "pass --family or --r, not both"),
    ],
    ids=["oracle-csv", "exact-csv", "oracle-trials-seed-exact", "oracle-eps-design-eps-k",
         "family-and-r", "oracle-family-and-r"],
)
def test_simulate_ignored_flags_refused(monkeypatch, capsys, flags, reason):
    def designed(*args):
        raise AssertionError("code designed although the run ignores a flag")

    monkeypatch.setattr(codec, "design_code", designed)
    code = main(["simulate", "--family", "irr4", "--m", "2", "--assign", "2,5,7,7", *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err) == {"status": "error", "reason": reason}


@pytest.mark.parametrize(
    "flags, reason",
    [
        (["--trials", "0"], "--trials must be at least 1, got 0"),
        (["--trials", "-3"], "--trials must be at least 1, got -3"),
        (["--seed", "-1"], "--seed must be non-negative, got -1"),
    ],
)
def test_simulate_run_size_checked_before_design(monkeypatch, capsys, flags, reason):
    def evaluated(*args):
        raise AssertionError("design erasures evaluated before the run's inputs were checked")

    monkeypatch.setattr(codec, "design_ranking", evaluated)
    code = main(["simulate", "--family", "irr4", "--m", "13", "--assign", "2,5,7,7", *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err)["reason"] == reason


@pytest.mark.parametrize("r", ["256", "2,256"])
def test_curves_r_checked_before_building(monkeypatch, capsys, r):
    def built(*args):
        raise AssertionError("scheme built before the repetition bound check")

    monkeypatch.setattr(patterns, "_factor", built)
    code = main(["curves", "--r", r])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err)["reason"] == (
        "repetition count 256 exceeds the bound 128 = 2**MAX_GAIN_T"
    )


def test_curves_r_bound_admits_128(monkeypatch, capsys):
    def built(*args):
        raise ValueError("scheme built")

    monkeypatch.setattr(patterns, "_factor", built)
    assert main(["curves", "--r", "128"]) == 1
    assert json.loads(capsys.readouterr().err)["reason"] == "scheme built"


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["curves", "--r", "2,4,2"], "repetition count 2 repeated"),
        (["curves", "--r", "2,1"], "repetition count 1 has no polarized block: need r >= 2"),
        (["prove", "--t", "1,2,1"], "level count 1 repeated"),
        (["prove", "--t", "1,2", "--sample", "1"], "interior sample must lie in (0, 1), got 1"),
    ],
    ids=["curves-repeated-r", "curves-r1", "prove-repeated-t", "prove-sample-one"],
)
def test_list_refused_before_building(monkeypatch, capsys, argv, reason):
    def built(*args):
        raise AssertionError("built before the list was checked")

    monkeypatch.setattr(patterns, "_factor", built)
    monkeypatch.setattr(poly.Poly, "compose", built)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert json.loads(captured.err)["reason"] == reason


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_curves_cell_is_scheme_capacity(t):
    """proposed_r{r} is reg{r}'s {0, r-1, ..., r-1}, the one-polarized-block
    scheme, and irregular_r4 is the golden {2, 5, 7, 7} polynomial."""
    r = 1 << t
    groups = _kernel_groups(PatternAssignment([0] + [r - 1] * (r - 1)), regular_family(t))
    irregular = _kernel_groups(PatternAssignment([2, 5, 7, 7]), family_by_name("irr4"))
    for g in DEFAULT_GRID:
        assert _capacity(groups, g) == coded_repetition_scheme(t).capacity_at(g)
        if r == 4:
            golden = reference_expression_set("irregular_best_r4").capacity_at(g)
            assert _capacity(irregular, g) == golden


def test_curves_builds_no_scheme(monkeypatch, capsys):
    """Every cell is the design walk on the integers of its point: no
    polynomial is multiplied or evaluated."""
    factor = patterns._factor

    def on_integers(kern, n, d, lone):
        assert type(n) is int and type(d) is int
        return factor(kern, n, d, lone)

    def built(*args):
        raise AssertionError("polynomial built")

    monkeypatch.setattr(patterns, "_factor", on_integers)
    monkeypatch.setattr(poly.Poly, "__mul__", built)
    monkeypatch.setattr(poly.Poly, "evaluate", built)
    code, out = run(capsys, *CURVES_ARGV, "--format", "csv")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, CURVES_CSV)


# sha256 of each CSV document and the exit code, recorded before main became
# the one writer of every document; ``simulate`` re-recorded for the exact
# Bernoulli stream, which changed only its empirical_rate column.
ANALYZE_CSV = "53f3308e04d4f4aae99645ab8810a9f02590492ea6ead6bee45340aec298d95d"
CURVES_ARGV = ["curves", "--r", "2,4", "--grid", "1/4,1/2"]
CURVES_CSV = "743c504d54512fb32e1658f39fdf9965ab9d54f3635371d7d5278fa197a08301"


@pytest.mark.parametrize(
    "argv, code, digest",
    [
        (["analyze", "--family", "irr4", "--assign", "2,5,7,7"], 0, ANALYZE_CSV),
        (["prove", "--t", "1,2"], 0,
         "521a12f1e70ea050ee8a148305b4ef4033d30860d3486dcd0a5e4ea1e6f90083"),
        (["prove", "--t", "1", "--custom", "0"], 1,
         "570685aef79dc3edbffdcaaf96ecd902a7b3fc37ffae80e1aa16fa763f585289"),
        (["kernels", "--refs", "reg4:0,irr4:7"], 0,
         "838e30634509f465f342a3f2adec7f55b1fae2caf5557dc8bf08f475e268841b"),
        (CURVES_ARGV, 0, CURVES_CSV),
        (["simulate", "--r", "2", "--m", "4", "--assign", "0,1", "--trials", "200",
          "--seed", "5"], 0, "e59919b4d6f35d0433cd4a6f2fd9d4ec3a66a388bf28ff48dab4e1235b9e8476"),
        (["search", "--family", "irr4"], 0,
         "bf798d570dd2d73771700ca79514b8116241c7cf46334f6e9eb380a02f2a4ad2"),
        (["search", "--family", "reg8", "--no-certify"], 0,
         "d1d1b94ad7b44b05b09d9a2d2a6d95e2e008a4e858157a131c1e29e272f7274d"),
    ],
    ids=["analyze", "prove", "prove-refuted", "kernels", "curves", "simulate", "search-irr4",
         "search-reg8"],
)
def test_csv_document(capsys, argv, code, digest):
    got, out = run(capsys, *argv, "--format", "csv")
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


#: sha256 of ``search --reproducible`` JSON, recorded when every dominance
#: check built both capacity polynomials: irr4 certifies its winner, reg4 has
#: no dominant candidate on the default grid.
@pytest.mark.parametrize(
    "family, digest",
    [
        ("irr4", "a4c57e70ac82e7b45d7aabbf70e25380a6f9837b05a7819279ed241f75012a48"),
        ("reg4", "1d8e6a6ef0c39e9a0ae37cd9ae35b27cf70e51da5278285eb0109d77a093f49d"),
    ],
)
def test_search_json_document(capsys, family, digest):
    code, out = run(capsys, "search", "--family", family, "--reproducible")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


#: sha256 of two more ``search --reproducible`` JSON documents, recorded
#: while the report still held one Fraction per capacity: reg8 ranks 6,435
#: candidates, and irr4 on a grid of mixed denominators reduces each cell by
#: its own gcd.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--family", "reg8", "--no-certify"],
         "13a79cfb8c310b0b5193ecc610cbef1cb783260116509698bf10972748bfde31"),
        (["--family", "irr4", "--grid", "1/3,2/7,0.45,19/20"],
         "6c4a42cc381b6ab64d16fce01a5a77344c8c1bf0e3c0cddeaefc7b7f2808918b"),
    ],
    ids=["reg8", "irr4-mixed-grid"],
)
def test_search_json_pins(capsys, argv, digest):
    code, out = run(capsys, "search", *argv, "--reproducible")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_search_builds_no_fraction_per_cell(monkeypatch, capsys, fmt):
    """irr4 has 4,047 distinct capacity cells; its search document builds no
    Fraction for any of them, only the grid's own."""
    args = cli.build_parser().parse_args(["search", "--family", "irr4", "--format", fmt])
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    payload, code = cli.cmd_search(args)
    monkeypatch.undo()
    ranking = payload[1:] if fmt == "csv" else payload["ranking"]
    assert code == 0 and len(ranking) == 330
    assert len(built) <= len(DEFAULT_GRID)


#: sha256 of ``simulate --reproducible --format csv`` (64 trials), recorded
#: when the design ranked the runs of equal floats separately: irr4 at m=10
#: then took its floats from the exact ratios, m=12 and m=15 from the
#: bounds, and reg2 at k=35 cuts inside the run of 69 floats equal to 0.0.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--family", "irr4", "--assign", "2,5,7,7", "--m", "10", "--eps", "1/2"],
         "9f13722aab9b69b690d3fb99e4a64f545865de3c196d74caef910843dff360d4"),
        (["--family", "irr4", "--assign", "2,5,7,7", "--m", "12", "--eps", "1/3"],
         "3aa4752d6a54ea584db074069386af6648dcc6ab47edfd7bfbd83047ad7c0e39"),
        (["--family", "irr4", "--assign", "2,5,7,7", "--m", "15", "--eps", "1/2"],
         "bf6622cef6fab757850e3302ed837978ac65ac5aa091549fe9c520eaf79b82c8"),
        (["--family", "reg2", "--assign", "0,1", "--m", "10", "--eps", "1/20", "--k", "35"],
         "c7280d67d3a10d3906a55db97aca6e3460374cc9cc2542612c994f2f78f59d52"),
    ],
    ids=["irr4-m10", "irr4-m12", "irr4-m15", "reg2-m10-k35"],
)
def test_simulate_design_csv(capsys, argv, digest):
    code, out = run(capsys, "simulate", *argv, "--trials", "64", "--reproducible",
                    "--format", "csv")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


def test_csv_out_file(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code, out = run(capsys, "analyze", "--family", "irr4", "--assign", "2,5,7,7",
                    "--format", "csv", "--out", str(path))
    assert (code, out) == (0, "")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ANALYZE_CSV


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


NO_NUMPY = """
import contextlib, io, sys
sys.modules["numpy"] = None  # from here on, any numpy import raises ImportError
from fractions import Fraction
import polarrep, polarrep.cli
from polarrep.cli import main
def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--reproducible"]) == 0, argv
for argv in (
    ["search", "--family", "reg2"],
    ["prove", "--t", "1,2", "--custom", "0,-7/20,27/20,-2,1"],
    ["curves", "--r", "2,4"],
    ["analyze", "--family", "irr4", "--assign", "2,5,7,7"],
    ["kernels", "--refs", "reg4:0,irr4:7"],
):
    run(argv)
assert "polarrep.codec" not in sys.modules, "codec loaded"
run(["simulate", "--oracle", "--family", "irr4", "--m", "2", "--assign", "2,5,7,7"])
from polarrep import CodeSpec, design_code
print(isinstance(design_code(3, 1, polarrep.PatternAssignment([0, 1]), Fraction(1, 2), 4,
                             polarrep.family_by_name("reg2")), CodeSpec))
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(["simulate", "--r", "2", "--m", "3", "--assign", "0,1", "--trials", "64",
                 "--reproducible"])
assert code == 0 and '"command": "simulate"' in out.getvalue()
from polarrep import codec
spec = design_code(3, 1, polarrep.PatternAssignment([0, 1]), Fraction(1, 2), 4,
                   polarrep.family_by_name("reg2"))
flags = codec.erasure_flow(spec, [[False] * spec.total_len, [True] * spec.total_len])
assert flags == [[False] * spec.n, [True] * spec.n], flags
assert sys.modules["numpy"] is None
"""


def _child_env(**extra) -> dict:
    """Environment of a child interpreter that imports this polarrep."""
    src = str(Path(polarrep.__file__).parents[1])
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path), **extra}


def test_non_codec_commands_leave_numpy_unloaded():
    """With numpy made unimportable, every command, the Monte Carlo and
    the oracle included, ``design_code`` and ``erasure_flow`` on a list
    batch run, and the package's codec exports still resolve on first
    use.  The commands other than ``simulate`` leave ``codec`` itself
    unimported, which keeps start-up short."""
    done = subprocess.run([sys.executable, "-c", NO_NUMPY], capture_output=True, text=True,
                          env=_child_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\n"


LOADED = """
import contextlib, io, sys
before = set(sys.modules)
from polarrep.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:] + ["--reproducible"])
loaded = set(sys.modules) - before
print(code, sorted(m for m in loaded if m.startswith("polarrep.")),
      sorted(loaded & {"csv", "dataclasses", "inspect", "numpy"}))
"""

_ANALYSIS = ["channel_algebra", "effective_channels", "patterns", "poly"]
_CODEC = sorted(["codec", "polarize", *_ANALYSIS])


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["kernels", "--refs", "reg2:0"], ["patterns"]),
        (["prove", "--t", "1,2"], ["poly", "proofcheck"]),
        (["curves", "--r", "2,4"], ["patterns"]),
        (["analyze", "--family", "irr4", "--assign", "2,5,7,7"], _ANALYSIS),
        (["search", "--family", "reg2"], ["patterns", "search"]),
        (["search", "--family", "irr4"], ["patterns", "search"]),
        (["simulate", "--r", "2", "--m", "3", "--assign", "0,1", "--trials", "64"],
         ["codec", "patterns", "polarize"]),
        (["simulate", "--oracle", "--family", "irr4", "--m", "2", "--assign", "2,5,7,7"], _CODEC),
    ],
    ids=["kernels", "prove", "curves", "analyze", "search", "search-certified", "simulate",
         "oracle"],
)
def test_command_loads_only_its_modules(argv, modules):
    """Each command, in a fresh interpreter, loads the package, the command
    line and the modules it runs, and neither ``csv``, ``dataclasses``,
    ``inspect`` nor numpy."""
    done = subprocess.run([sys.executable, "-c", LOADED, *argv], capture_output=True,
                          text=True, env=_child_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    expected = sorted(f"polarrep.{m}" for m in ["cli", *modules])
    assert done.stdout == f"0 {expected} []\n"


def test_simulate_stdout_independent_of_hash_seed():
    """Two interpreters with different string hash seeds print the same
    ``simulate --reproducible`` document, byte for byte."""
    argv = [sys.executable, "-m", "polarrep.cli", "simulate", "--family", "irr4", "--m", "4",
            "--assign", "2,5,7,7", "--eps", "3/5", "--trials", "300", "--seed", "3",
            "--reproducible"]
    outs = []
    for hash_seed in ("1", "2"):
        done = subprocess.run(argv, capture_output=True, env=_child_env(PYTHONHASHSEED=hash_seed),
                              timeout=120)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1]
