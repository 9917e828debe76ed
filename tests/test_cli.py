"""Command-line interface tests: exit codes, report files, precedence."""

import csv
import json
import os

import numpy as np
import pytest

from maskreg.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_TAMPERED,
    _write_report,
    main,
)
from maskreg.dataio import load_csv
from maskreg.model import ols_fit


def read_report(out_dir):
    with open(os.path.join(str(out_dir), "report.json")) as fh:
        return json.load(fh)


def read_csv_rows(out_dir, name):
    with open(os.path.join(str(out_dir), name)) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_run_writes_report(tmp_path):
    code = main(["run", "--n", "80", "--p", "4", "--seed", "3",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = read_report(tmp_path)
    assert report["verify"]["verdict"] == "accepted"
    assert report["config"]["k"] == 2
    assert report["config"]["seed"] == 3
    assert len(report["beta"]) == 4
    assert report["inputs"]["synthetic"] is True
    assert set(report) >= {"config", "protocol", "estimate", "beta",
                           "verify", "metrics", "timings_ms", "inputs"}


def test_run_flags_echoed(tmp_path):
    code = main(["run", "--n", "60", "--p", "3", "--k", "3",
                 "--mode", "ridge", "--lambda", "0.5",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = read_report(tmp_path)
    assert report["config"]["k"] == 3
    assert report["config"]["mode"] == "ridge"
    assert report["config"]["lambda"] == 0.5


def test_tamper_exits_two(tmp_path):
    code = main(["tamper", "--n", "60", "--p", "3",
                 "--action", "perturb_result", "--magnitude", "0.05",
                 "--out", str(tmp_path)])
    assert code == EXIT_TAMPERED
    report = read_report(tmp_path)
    assert report["verify"]["verdict"] == "tampered"


def test_cv_reports_chosen_lambda(tmp_path):
    code = main(["cv", "--n", "96", "--p", "3", "--folds", "3",
                 "--block-size", "8", "--lambda-grid", "0.1,1.0",
                 "--seed", "5", "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = read_report(tmp_path)
    cv = report["cv"]
    assert cv["lambda_grid"] == [0.1, 1.0]
    assert cv["chosen_lambda"] in cv["lambda_grid"]
    assert np.asarray(cv["fold_mse"]).shape == (2, 3)
    assert report["verify"]["verdict"] == "accepted"


@pytest.mark.parametrize("args", [["run", "--mode", "ridge", "--lambda", "nan"],
                                  ["run", "--mode", "ridge", "--lambda", "inf"],
                                  ["cv", "--lambda-grid", "nan,1"]])
def test_non_finite_lambda_exits_one(tmp_path, args):
    code = main(args + ["--n", "60", "--p", "3", "--out", str(tmp_path)])
    assert code == EXIT_ERROR


def test_cv_rejects_linear_mode(tmp_path):
    code = main(["cv", "--mode", "linear", "--out", str(tmp_path)])
    assert code == EXIT_ERROR


def test_ldp_curve(tmp_path):
    code = main(["ldp", "--out", str(tmp_path)])
    assert code == EXIT_OK
    header, rows = read_csv_rows(tmp_path, "curve.csv")
    assert header == ["sigma", "ratio", "implied_eps"]
    assert len(rows) == 10
    # noise far above the norms drowns the difference between the two points
    assert abs(float(rows[-1][1]) - 1.0) < 1e-3
    report = read_report(tmp_path)
    assert report["norm2"] == 5.0


def test_attack_kpa_outputs(tmp_path):
    code = main(["attack-kpa", "--trials", "10", "--seed", "1",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    header, rows = read_csv_rows(tmp_path, "heatmap.csv")
    assert header[0] == "sigma_b"
    assert len(header) == 11
    assert len(rows) == 3
    dev_header, dev_rows = read_csv_rows(tmp_path, "deviation.csv")
    assert dev_header == ["truth", "recovered"]
    assert len(dev_rows) == 25
    report = read_report(tmp_path)
    med = report["scenario_one"]["median_max_entry"]
    assert med[0] > med[1] > med[2]
    assert report["scenario_two"]["deviation_max"] > 0.0


def test_attack_cpa_outcomes(tmp_path):
    code = main(["attack-cpa", "--seed", "2", "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = read_report(tmp_path)
    assert report["naive"]["consistent"] is False
    assert report["informed"]["consistent"] is True
    informed = np.asarray(report["informed"]["solutions"])
    truth = np.asarray(report["true_coeffs"])
    assert np.max(np.abs(informed - truth)) < 1e-6
    table = {(r["n"], r["p"], r["rank"]): r["classification"]
             for r in report["rank_analysis"]}
    assert table[(10, 5, 5)] == "no_solution"
    assert table[(3, 5, 3)] == "infinite"
    assert table[(3, 3, 3)] == "infinite"  # square probe: n <= p


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"k": 3, "lambda": 0.25, "n": 60, "p": 3, "mode": "ridge"}
    ))
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--k", "2",
                 "--out", str(out)])
    assert code == EXIT_OK
    report = read_report(out)
    assert report["config"]["k"] == 2  # flag beats file
    assert report["config"]["lambda"] == 0.25  # file beats default
    assert report["config"]["mode"] == "ridge"


@pytest.mark.parametrize("key, value", [
    ("degree", 3), ("verify_tol", 1e-3), ("blocksize", 8), ("folds", 3),
    ("no_header", True), ("sigma_coeff", 1.0),
])
def test_config_file_unknown_key_exits_one(tmp_path, capsys, key, value):
    # each value is one the command would otherwise have run with
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 60, "p": 3, key: value}))
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_ERROR
    assert key in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command, cfg", [
    ("attack-kpa", {"scenario": "3"}),
    ("run", {"n": 60, "p": 3, "transport": "udp"}),
])
def test_config_value_checked_like_its_flag(tmp_path, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as info:
        main([command, "--config", str(path), "--out", str(tmp_path)])
    assert info.value.code == EXIT_ERROR
    assert not (tmp_path / "report.json").exists()


def test_config_file_accepts_command_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 96, "p": 3, "block_size": 8, "folds": 3,
                               "lambda_grid": [0.1, 1.0], "has_header": True}))
    code = main(["cv", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert read_report(tmp_path)["cv"]["folds"] == 3


@pytest.mark.parametrize("flag", ["--sigma-b", "--sigma-coeff"])
def test_key_scale_flags_are_refused(tmp_path, flag):
    # keys are built on the base's blocks: there is no key scale to set
    with pytest.raises(SystemExit) as caught:
        main(["run", "--n", "50", "--p", "3", flag, "0.01",
              "--out", str(tmp_path)])
    assert caught.value.code == EXIT_ERROR
    assert not (tmp_path / "report.json").exists()


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("MASKREG_SEED", "123")
    out1 = tmp_path / "env"
    code = main(["run", "--n", "50", "--p", "3", "--out", str(out1)])
    assert code == EXIT_OK
    assert read_report(out1)["config"]["seed"] == 123
    # explicit flag wins over the environment
    out2 = tmp_path / "flag"
    main(["run", "--n", "50", "--p", "3", "--seed", "7", "--out", str(out2)])
    assert read_report(out2)["config"]["seed"] == 7


def test_missing_data_file_exits_one(tmp_path):
    code = main(["run", "--data", str(tmp_path / "nope.csv"),
                 "--response", "y", "--out", str(tmp_path)])
    assert code == EXIT_ERROR


def test_csv_input_recorded_and_fit(tmp_path):
    rng = np.random.default_rng(8)
    x = rng.standard_normal((40, 2))
    y = x @ np.array([1.5, -2.0]) + 0.05 * rng.standard_normal(40)
    path = tmp_path / "data.csv"
    lines = ["a,b,y"] + [
        f"{float(r[0])!r},{float(r[1])!r},{float(t)!r}" for r, t in zip(x, y)
    ]
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code = main(["run", "--data", str(path), "--response", "y",
                 "--seed", "8", "--out", str(out)])
    assert code == EXIT_OK
    report = read_report(out)
    assert report["inputs"]["data"] == str(path)
    assert len(report["inputs"]["sha256"]) == 64
    assert report["inputs"]["n"] == 40 and report["inputs"]["p"] == 2
    ds = load_csv(str(path), "y")
    expected = ols_fit(ds.x, ds.y)
    assert np.max(np.abs(np.asarray(report["beta"]) - expected)) < 1e-6


def test_same_seed_reports_identical(tmp_path):
    args = ["run", "--n", "70", "--p", "4", "--seed", "42"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    r1, r2 = read_report(out1), read_report(out2)
    r1.pop("timings_ms")
    r2.pop("timings_ms")
    assert r1 == r2


@pytest.mark.parametrize("argv", [["tamper", "--action", "nope"],
                                  ["run", "--k", "abc"],
                                  ["run", "--bogus"]])
def test_usage_error_exits_one(tmp_path, capsys, argv):
    # exit code 2 is the "tampered" verdict; a usage error must not look
    # like a drill that failed closed
    with pytest.raises(SystemExit) as info:
        main(argv + ["--out", str(tmp_path)])
    assert info.value.code == EXIT_ERROR
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv", [
    ["tamper", "--action", "perturb_result", "--magnitude", "nan",
     "--n", "60", "--p", "3"],
    ["attack-kpa", "--scenario", "1", "--trials", "0"],
    ["attack-kpa", "--scenario", "1", "--n", "1"],
], ids=["nan_magnitude", "no_trials", "one_row"])
def test_input_that_would_report_nan_exits_one(tmp_path, capsys, argv):
    # report.json is strict JSON: no run writes NaN into it
    code = main(argv + ["--out", str(tmp_path)])
    assert code == EXIT_ERROR
    assert "ValueError" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_report_with_a_non_finite_value_is_not_written(tmp_path):
    with pytest.raises(ValueError):
        _write_report(str(tmp_path), {"ok": 1.0, "bad": [float("inf")]})
    assert not os.listdir(tmp_path)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["run", "--help"])
    assert info.value.code == EXIT_OK
    assert "--config" in capsys.readouterr().out


def test_no_header_flag_beats_config_file(tmp_path):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((40, 2))
    y = x @ np.array([0.5, 1.0]) + 0.05 * rng.standard_normal(40)
    path = tmp_path / "data.csv"
    path.write_text("".join(f"{float(a)!r},{float(b)!r},{float(t)!r}\n"
                            for (a, b), t in zip(x, y)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"has_header": True}))
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--data", str(path),
                 "--response", "2", "--no-header", "--out", str(out)])
    assert code == EXIT_OK
    report = read_report(out)
    assert report["inputs"]["n"] == 40  # the first row is data, not a header
    expected = ols_fit(x, y)
    assert np.max(np.abs(np.asarray(report["beta"]) - expected)) < 1e-6


@pytest.mark.parametrize("flags, field", [
    (["--sigma-delta", "nan"], "delta"),
    (["--sigma-delta", "-1"], "delta"),
])
def test_bad_key_or_noise_scale_exits_one(tmp_path, capsys, flags, field):
    # Only the noise scale is left to set: keys have no scale, and their
    # flags are refused (test_key_scale_flags_are_refused).
    code = main(["run", "--n", "60", "--p", "3", "--out", str(tmp_path)]
                + flags)
    assert code == EXIT_ERROR
    assert f"{field} must be" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
