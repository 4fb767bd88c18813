"""Command-line behaviour: outputs, exit codes, config handling, file formats."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from manifold_ukf.cli import (
    _CONFIG_KEYS,
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_OK,
    IMU_LOG_HEADER,
    UsageError,
    build_parser,
    main,
    read_imu_log,
    read_landmarks,
)
from manifold_ukf.models import example_names, make
from manifold_ukf.montecarlo import nees, run_record, simulate

from fileformats import strip_runtime_column, write_imu_log

SRC = Path(__file__).resolve().parents[1] / "src"


def _read(path):
    return path.read_text(encoding="utf-8")


def _columns(path):
    """A CSV with a header row as a structured array, one field per column."""
    return np.genfromtxt(path, delimiter=",", names=True, dtype=None,
                         encoding="utf-8")


# ---------------------------------------------------------------------------
# run


def test_run_writes_one_row_per_step(tmp_path):
    out = tmp_path / "est.csv"
    code = main(["run", "localization2d", "--steps", "12", "--seed", "2",
                 "--out", str(out)])
    assert code == EXIT_OK
    cols = _columns(out)
    assert cols.dtype.names == ("step", "t", "theta", "x", "y", "P0", "P1",
                                "P2", "nees")
    assert cols["step"].shape == (12,)
    assert np.allclose(cols["t"], 0.1 * np.arange(1, 13), atol=1e-15)
    assert np.isfinite(cols["nees"]).all()
    assert (cols["P0"] > 0).all()


@pytest.mark.parametrize("name", example_names())
def test_run_streams_the_run_record(tmp_path, name):
    """run writes its rows chunk by chunk; the state, P and nees columns
    equal the whole-run record's means, covariance diagonals and NEES bit
    for bit."""
    out = tmp_path / "est.csv"
    assert main(["run", name, "--steps", "300", "--seed", "3",
                 "--out", str(out)]) == EXIT_OK
    model = make(name)
    record = run_record(model, model.default_retraction,
                        *simulate(model, 300, 3))
    cols = _columns(out)
    table = np.array([cols[k] for k in cols.dtype.names[2:-1]]).T
    assert np.array_equal(cols["step"], np.arange(1, 301))
    assert np.array_equal(table, [
        np.concatenate([model.state_to_vector(b.mean), np.diag(b.cov)])
        for b in record.beliefs])
    assert np.array_equal(cols["nees"], nees(record))


def test_run_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["run", "attitude3d", "--steps", "5", "--seed", "0"])
    assert code == EXIT_OK
    assert (tmp_path / "attitude3d_so3_left_estimates.csv").exists()


def test_run_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["run", "slam2d", "--steps", "15", "--seed", "42"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert _read(a) == _read(b)


def test_run_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "localization2d", "--steps", "10", "--seed", "1",
                 "--out", str(a)]) == EXIT_OK
    assert main(["run", "localization2d", "--steps", "10", "--seed", "2",
                 "--out", str(b)]) == EXIT_OK
    assert _read(a) != _read(b)


def test_run_unknown_example_lists_registered(tmp_path, capsys):
    code = main(["run", "nonsense", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "localization2d" in err and "pendulum_s2" in err


def test_run_unknown_retraction(tmp_path):
    code = main(["run", "localization2d", "--retractions", "se9_left",
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG


def test_run_rejects_multiple_retractions(tmp_path):
    code = main(["run", "localization2d",
                 "--retractions", "se2_left,se2_right",
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG


def test_run_bad_flag_exits_config(tmp_path):
    assert main(["run", "localization2d", "--no-such-flag"]) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# benchmark


def test_benchmark_rows_and_summary(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["benchmark", "localization2d", "--runs", "2", "--steps", "10",
                 "--seed", "3", "--workers", "1", "--out", str(out)])
    assert code == EXIT_OK
    text = _read(out)
    lines = text.strip().split("\n")
    assert lines[0] == ("retraction,step,t,rmse_rot,rmse_pos,"
                        "mean_nees,diverged,valid_runs,wall_clock_s")
    assert len(lines) == 1 + 2 * 10  # two variants, ten steps each
    console = capsys.readouterr().out
    assert "se2_left" in console and "se2_right" in console
    assert "diverged" in console


def test_benchmark_single_run(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["benchmark", "attitude3d", "--runs", "1", "--steps", "6",
                 "--workers", "1", "--out", str(out)])
    assert code == EXIT_OK
    cols = _columns(out)
    assert set(cols["valid_runs"]) == {1.0}


def test_benchmark_byte_identical_modulo_runtime(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["benchmark", "localization2d", "--runs", "2", "--steps", "8",
            "--seed", "5"]
    assert main(args + ["--workers", "1", "--out", str(a)]) == EXIT_OK
    assert main(args + ["--workers", "2", "--out", str(b)]) == EXIT_OK
    assert _read(a) != _read(b) or True  # wall clock may coincide, no claim
    assert strip_runtime_column(_read(a)) == strip_runtime_column(_read(b))


def test_benchmark_retraction_subset(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["benchmark", "inertial_nav", "--runs", "1", "--steps", "5",
                 "--retractions", "se23_right,so3xr6", "--workers", "1",
                 "--out", str(out)])
    assert code == EXIT_OK
    cols = _columns(out)
    assert set(cols["retraction"]) == {"se23_right", "so3xr6"}


# ---------------------------------------------------------------------------
# check-retraction


def test_check_retraction_builtins_pass(capsys):
    code = main(["check-retraction", "slam2d"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_check_retraction_custom_epsilons(capsys):
    code = main(["check-retraction", "attitude3d", "--epsilons", "1e-2,1e-3"])
    assert code == EXIT_OK
    assert out_count(capsys.readouterr().out, "eps=") == 4  # 2 eps x 2 variants


def out_count(text, needle):
    return text.count(needle)


def test_check_retraction_bad_epsilons(capsys):
    # past eps = 1 a rotation can wrap past pi and its residual still pass
    for eps in ("abc", "nan", "inf", "0", "3.2"):
        code = main(["check-retraction", "attitude3d", "--epsilons", eps])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG, eps
        assert captured.err.startswith("error:"), eps
        assert len(captured.err.splitlines()) == 1 and not captured.out, eps


def test_check_retraction_rejects_bad_dt(capsys):
    code = main(["check-retraction", "attitude3d", "--dt", "nan"])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err.startswith("error:") and "dt must be" in captured.err
    assert len(captured.err.splitlines()) == 1 and not captured.out


@pytest.mark.parametrize("argv, config, message", [
    (["benchmark", "attitude3d", "--retractions", ","], None, "no retractions selected"),
    (["check-retraction", "attitude3d", "--epsilons", ","], None, "no epsilons given"),
    (["run", "attitude3d"], [1, 2], "config file must contain a JSON object"),
], ids=["no-retractions", "no-epsilons", "config-not-an-object"])
def test_empty_selections_and_a_non_object_config_are_usage_errors(
        tmp_path, capsys, argv, config, message):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        argv = argv + ["--config", str(cfg)]
    if argv[0] != "check-retraction":  # which takes no --out
        argv = argv + ["--out", str(tmp_path / "x.csv")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err == f"error: {message}\n" and not captured.out
    assert [p.name for p in tmp_path.iterdir()] == (["cfg.json"] if config else [])


# ---------------------------------------------------------------------------
# config files


def test_config_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 9, "seed": 4}), encoding="utf-8")
    out = tmp_path / "est.csv"
    code = main(["run", "localization2d", "--config", str(cfg),
                 "--out", str(out)])
    assert code == EXIT_OK
    assert _columns(out)["step"].shape == (9,)


def test_cli_flag_beats_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 9}), encoding="utf-8")
    out = tmp_path / "est.csv"
    code = main(["run", "localization2d", "--config", str(cfg),
                 "--steps", "4", "--out", str(out)])
    assert code == EXIT_OK
    assert _columns(out)["step"].shape == (4,)


def test_config_model_params(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model_params": {"speed": 0.0, "yaw_rate": 0.0},
                               "steps": 5}), encoding="utf-8")
    out = tmp_path / "est.csv"
    code = main(["run", "localization2d", "--config", str(cfg),
                 "--out", str(out)])
    assert code == EXIT_OK
    cols = _columns(out)
    assert np.abs(cols["x"]).max() < 0.5  # stays near the origin


# argv without the key, the key, its config value, the same value as a flag,
# and another flag value; landmarks and imu_log name files the test writes
@pytest.mark.parametrize("argv, key, value, same, other", [
    pytest.param(["run", "attitude3d"], "steps", 7, "7", "4", id="steps"),
    pytest.param(["run", "attitude3d", "--steps", "5"], "seed", 3, "3", "4", id="seed"),
    pytest.param(["run", "attitude3d", "--steps", "5"], "dt", 0.05, "0.05", "0.02", id="dt"),
    pytest.param(["run", "attitude3d", "--steps", "5"], "alpha", 0.5, "0.5", "0.9",
                 id="alpha"),
    pytest.param(["run", "attitude3d", "--steps", "5"], "retractions", "so3_right",
                 "so3_right", "so3_left", id="retractions"),
    pytest.param(["benchmark", "localization2d", "--runs", "2", "--steps", "5"],
                 "retractions", ["se2_right"], "se2_right", "se2_left",
                 id="retractions-list"),
    pytest.param(["run", "attitude3d", "--steps", "5"], "out", "est.csv", "est.csv",
                 "other.csv", id="out"),
    pytest.param(["run", "inertial_nav", "--steps", "6"], "landmarks", "lm_a.csv",
                 "lm_a.csv", "lm_b.csv", id="landmarks"),
    pytest.param(["run", "imu_gnss"], "imu_log", "log_a.csv", "log_a.csv", "log_b.csv",
                 id="imu_log"),
    pytest.param(["benchmark", "attitude3d", "--steps", "4"], "runs", 2, "2", "3",
                 id="runs"),
    pytest.param(["check-retraction", "attitude3d"], "epsilons", "1e-2", "1e-2", "1e-3",
                 id="epsilons"),
    pytest.param(["check-retraction", "attitude3d"], "epsilons", 0.01, "0.01", "1e-3",
                 id="epsilons-number"),
])
def test_each_config_key_acts_as_its_flag(tmp_path, capsys, monkeypatch,
                                          argv, key, value, same, other):
    """The config value gives the flag's output, a flag beats the config, and
    null is the same as leaving the key out."""
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    (inputs / "lm_a.csv").write_text("15,5,2\n-12,15,-3\n", encoding="utf-8")
    (inputs / "lm_b.csv").write_text("10,0,1\n", encoding="utf-8")
    model = make("imu_gnss")
    for name, steps in (("log_a.csv", 6), ("log_b.csv", 8)):
        _, u, y = simulate(model, steps, seed=1)
        write_imu_log(inputs / name, model.dt * np.arange(1, steps + 1), u, y)
    if key in ("landmarks", "imu_log"):
        value, same, other = (str(inputs / v) for v in (value, same, other))
    flag = "--" + key.replace("_", "-")

    def outcome(extra=(), config=None):
        """Exit code, stdout, stderr and the files written, each in a new
        working directory (the benchmark CSV without its wall clock)."""
        cwd = tmp_path / f"cwd{len(list(tmp_path.glob('cwd*')))}"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        args = argv + list(extra)
        if config is not None:
            (inputs / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
            args += ["--config", str(inputs / "cfg.json")]
        code = main(args)
        files = {p.name: strip_runtime_column(_read(p)) if argv[0] == "benchmark"
                 else _read(p) for p in cwd.iterdir()}
        return (code,) + tuple(capsys.readouterr()) + (files,)

    unset = outcome()
    from_config = outcome(config={key: value})
    from_other_flag = outcome([flag, other])
    assert unset[0] == from_config[0] == from_other_flag[0] == EXIT_OK
    assert from_config != unset and from_config != from_other_flag
    assert outcome([flag, same]) == from_config
    assert outcome([flag, other], config={key: value}) == from_other_flag
    assert outcome(config={key: None}) == unset


def _subcommands():
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_config_keys_are_the_subcommands_options():
    """Every flag has a config type and every config key but model_params a
    flag: the settings a config may hold are the parser's, no more."""
    dests = {a.dest for p in _subcommands().values() for a in p._actions}
    assert set(_CONFIG_KEYS) - {"model_params"} == dests - {"config", "example", "help"}


_CHECK_READS = {"example", "dt", "alpha", "retractions", "config", "landmarks",
                "epsilons"}
_RUN_READS = _CHECK_READS - {"epsilons"} | {"steps", "seed", "out", "imu_log"}


@pytest.mark.parametrize("command, reads", [
    ("check-retraction", _CHECK_READS),
    ("run", _RUN_READS),
    ("benchmark", _RUN_READS - {"imu_log"} | {"runs", "workers"}),
])
def test_each_subcommand_declares_the_options_it_reads(command, reads):
    """A flag a command ignores is not offered to it."""
    assert {a.dest for a in _subcommands()[command]._actions} - {"help"} == reads


@pytest.mark.parametrize("flag", ["--steps", "--seed", "--out"])
def test_check_retraction_rejects_the_flags_it_would_ignore(
        tmp_path, capsys, monkeypatch, flag):
    monkeypatch.chdir(tmp_path)
    code = main(["check-retraction", "slam2d", flag, "3"])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG and not captured.out
    assert captured.err.startswith(f"error: unrecognized arguments: {flag}")
    assert len(captured.err.splitlines()) == 1
    assert not list(tmp_path.iterdir())


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"step": 9}), encoding="utf-8")
    code = main(["run", "localization2d", "--config", str(cfg),
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    assert "unknown config keys: step" in capsys.readouterr().err


def test_config_invalid_json(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json", encoding="utf-8")
    code = main(["run", "localization2d", "--config", str(cfg),
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG


def test_config_bad_model_param(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model_params": {"bogus_knob": 1}}),
                   encoding="utf-8")
    code = main(["run", "localization2d", "--config", str(cfg),
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG


def test_benchmark_zero_runs_is_usage_error(tmp_path, capsys):
    code = main(["benchmark", "localization2d", "--runs", "0",
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    assert "error: runs must be positive" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("alpha", ["0", "-0.5", "1.5", "nan"])
def test_run_alpha_outside_unit_interval_is_usage_error(tmp_path, capsys, alpha):
    code = main(["run", "attitude3d", "--alpha", alpha, "--steps", "3",
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    assert "error: alpha must lie in (0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_benchmark_alpha_from_config_is_checked(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model_params": {"alpha": 0.0}}), encoding="utf-8")
    code = main(["benchmark", "attitude3d", "--config", str(cfg), "--runs", "1",
                 "--steps", "3", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    assert "error: alpha must lie in (0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("command,steps", [("run", "-3"), ("run", "0"),
                                           ("benchmark", "0")])
def test_nonpositive_steps_is_usage_error(tmp_path, capsys, command, steps):
    args = [command, "attitude3d", "--steps", steps,
            "--out", str(tmp_path / "x.csv")]
    if command == "benchmark":
        args += ["--runs", "2"]
    code = main(args)
    assert code == EXIT_CONFIG
    assert "error: steps must be positive" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


# ---------------------------------------------------------------------------
# IMU log replay


def test_imu_log_roundtrip(tmp_path):
    model = make("imu_gnss")
    truth, inputs, measurements = simulate(model, 14, seed=6)
    times = model.dt * np.arange(1, 15)
    log = tmp_path / "imu.csv"
    write_imu_log(log, times, inputs, measurements)
    header, rows = _read(log).split("\n", 1)
    assert header == IMU_LOG_HEADER
    commented = tmp_path / "commented.csv"  # blank and # lines are skipped
    commented.write_text(f"# logged at 20 Hz\n{header}\n\n# rows\n{rows}",
                         encoding="utf-8")
    for path in (log, commented):
        t2, u2, m2 = read_imu_log(path)
        assert np.array_equal(t2, times)
        for a, b in zip(u2, inputs):
            assert np.array_equal(a, b)
        assert m2.keys() == measurements.keys()
        for k in m2:
            assert np.array_equal(m2[k], measurements[k])


def test_run_from_imu_log(tmp_path):
    model = make("imu_gnss")
    _, inputs, measurements = simulate(model, 10, seed=1)
    log = tmp_path / "imu.csv"
    write_imu_log(log, model.dt * np.arange(1, 11), inputs, measurements)
    out = tmp_path / "est.csv"
    code = main(["run", "imu_gnss", "--imu-log", str(log), "--out", str(out)])
    assert code == EXIT_OK
    cols = _columns(out)
    assert cols["step"].shape == (10,)
    assert np.isnan(cols["nees"]).all()  # no ground truth in a log replay


def test_imu_log_requires_3d_position_model(tmp_path):
    log = tmp_path / "imu.csv"
    model = make("imu_gnss")
    _, inputs, measurements = simulate(model, 4, seed=0)
    write_imu_log(log, model.dt * np.arange(1, 5), inputs, measurements)
    code = main(["run", "localization2d", "--imu-log", str(log),
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG


def test_imu_log_header_enforced(tmp_path):
    log = tmp_path / "imu.csv"
    log.write_text("time,a,b\n1,2,3\n", encoding="utf-8")
    with pytest.raises(UsageError):
        read_imu_log(log)


# ---------------------------------------------------------------------------
# landmark files


def test_read_landmarks_skips_comments(tmp_path):
    f = tmp_path / "lm.csv"
    f.write_text("# site A\n1.0,2.0,3.0\n\n4.0,5.0,6.0\n", encoding="utf-8")
    lm = read_landmarks(f)
    assert lm.points.shape == (2, 3)
    assert np.array_equal(lm.points[1], [4.0, 5.0, 6.0])


def test_read_landmarks_mixed_widths(tmp_path):
    f = tmp_path / "lm.csv"
    f.write_text("1.0,2.0\n3.0,4.0,5.0\n", encoding="utf-8")
    with pytest.raises(UsageError):
        read_landmarks(f)


def test_run_with_landmark_file(tmp_path):
    f = tmp_path / "lm.csv"
    f.write_text("10.0,0.0,1.0\n-5.0,8.0,0.0\n", encoding="utf-8")
    out = tmp_path / "est.csv"
    code = main(["run", "inertial_nav", "--steps", "8", "--landmarks", str(f),
                 "--out", str(out)])
    assert code == EXIT_OK


@pytest.mark.parametrize("example, row, wanted", [("slam2d", "1.0,2.0,3.0", "2D"),
                                                  ("inertial_nav", "1.0,2.0", "3D")],
                         ids=["slam2d", "inertial_nav"])
def test_landmark_file_wrong_dimension(tmp_path, capsys, example, row, wanted):
    """Rejected when the model is built, not at the first measurement: three
    steps hold none (both examples measure every fifth step)."""
    f = tmp_path / "lm.csv"
    f.write_text(f"{row}\n{row}\n", encoding="utf-8")
    code = main(["run", example, "--steps", "3", "--landmarks", str(f),
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {example} landmarks must be {wanted}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["lm.csv"]


_IMU_ROW = "0.05,0.0,0.0,0.3,0.0,0.0,9.81,0.0,0.0,0.0,0"


@pytest.mark.parametrize("example,flag,text,expect", [
    pytest.param("imu_gnss", "--imu-log",
                 f"{IMU_LOG_HEADER}\n{_IMU_ROW}\n0.1,0.0\n", "line 3",
                 id="imu-log-short-row"),
    pytest.param("imu_gnss", "--imu-log",
                 f"{IMU_LOG_HEADER}\n{_IMU_ROW.replace('0.3', 'abc')}\n",
                 "line 2", id="imu-log-text-cell"),
    pytest.param("imu_gnss", "--imu-log", "", "empty", id="imu-log-empty"),
    pytest.param("imu_gnss", "--imu-log",
                 f"{IMU_LOG_HEADER}\n{_IMU_ROW}\n{_IMU_ROW[:-1]}1\n"
                 f"{_IMU_ROW.replace('9.81,0.0', '9.81,nan')[:-1]}1\n",
                 "line 4", id="imu-log-nan-cell"),
    pytest.param("inertial_nav", "--landmarks", "1.0,2.0,3.0\n1.0,abc,2.0\n",
                 "line 2", id="landmarks-text-cell"),
    pytest.param("slam2d", "--landmarks", "1.0,2.0\n# far\ninf,2.0\n",
                 "line 3", id="landmarks-inf-cell"),
    pytest.param("attitude3d", "--config", '{"steps": "abc"}', "steps",
                 id="config-steps"),
    pytest.param("attitude3d", "--config", '{"seed": [1]}', "seed",
                 id="config-seed"),
    pytest.param("attitude3d", "--config", '{"retractions": 5}', "retractions",
                 id="config-retractions"),
    pytest.param("attitude3d", "--config", '{"retractions": [[1]]}',
                 "retraction", id="config-retraction-list"),
    pytest.param("attitude3d", "--config", '{"model_params": [1]}',
                 "model_params", id="config-model-params"),
    pytest.param("attitude3d", "--config", '{"alpha": "x"}', "alpha",
                 id="config-alpha"),
    pytest.param("attitude3d", "--config", '{"model_params": {"alpha": "x"}}',
                 "alpha", id="config-model-params-alpha"),
    pytest.param("attitude3d", "--config", '{"model_params": {"alpha": true}}',
                 "alpha must lie", id="config-model-params-alpha-bool"),
    pytest.param("attitude3d", "--config",
                 '{"model_params": {"measure_every": 0}}', "measure_every",
                 id="config-measure-every-zero"),
    pytest.param("attitude3d", "--config",
                 '{"model_params": {"measure_every": 2.5}}', "measure_every",
                 id="config-measure-every-float"),
    pytest.param("attitude3d", "--config",
                 '{"model_params": {"measure_every": true}}', "measure_every",
                 id="config-measure-every-bool"),
    pytest.param("attitude3d", "--config", '{"out": 5}', "out", id="config-out"),
    pytest.param("attitude3d", "--config", '{"dt": 0}', "attitude3d",
                 id="config-dt-zero"),
    pytest.param("attitude3d", "--config", '{"dt": NaN}', "dt must be",
                 id="config-dt-nan"),
    pytest.param("attitude3d", "--config", '{"dt": Infinity}', "dt must be",
                 id="config-dt-inf"),
    pytest.param("attitude3d", "--config", '{"dt": -0.01}', "dt must be",
                 id="config-dt-negative"),
    pytest.param("attitude3d", "--config", '{"model_params": {"dt": true}}',
                 "dt must be", id="config-model-params-dt-bool"),
    pytest.param("imu_gnss", "--config",
                 '{"model_params": {"gyro_std": Infinity}}', "imu_gnss Q",
                 id="config-gyro-std-inf"),
    pytest.param("inertial_nav", "--config",
                 '{"model_params": {"landmarks": [1, 2]}}', "inertial_nav",
                 id="config-landmarks-list"),
])
def test_malformed_input_is_one_error_line(tmp_path, capsys, monkeypatch,
                                           example, flag, text, expect):
    monkeypatch.chdir(tmp_path)  # a config's "out" is not overridden
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    code = main(["run", example, flag, str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("error:") and "Traceback" not in err
    assert len(err.splitlines()) == 1 and expect in err
    if flag != "--config":
        assert str(path) in err


@pytest.mark.parametrize("args,path", [
    pytest.param(["run", "attitude3d", "--steps", "3", "--out"], "out_dir",
                 id="run-out-is-directory"),
    pytest.param(["benchmark", "attitude3d", "--runs", "1", "--steps", "3",
                  "--out"], "out_dir", id="benchmark-out-is-directory"),
    pytest.param(["run", "imu_gnss", "--imu-log"], "missing.csv",
                 id="missing-imu-log"),
    pytest.param(["run", "slam2d", "--landmarks"], "missing.csv",
                 id="missing-landmarks"),
])
def test_file_error_is_one_error_line(tmp_path, capsys, monkeypatch, args, path):
    monkeypatch.chdir(tmp_path)  # where run's default --out would go
    (tmp_path / "out_dir").mkdir()
    code = main(args + [str(tmp_path / path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("error:") and "Traceback" not in err
    assert len(err.splitlines()) == 1 and str(tmp_path / path) in err
    assert [p.name for p in tmp_path.iterdir()] == ["out_dir"]
    assert not any((tmp_path / "out_dir").iterdir())


# ---------------------------------------------------------------------------
# divergence exit code


def test_run_numerical_failure_exits_2(tmp_path, capsys):
    """A run that fails part-way leaves no CSV and no .partial file, and a
    file already at --out byte-identical."""
    out = tmp_path / "x.csv"
    # alpha this small collapses the sigma spread and the weight cancellation
    # drives the innovation covariance indefinite
    args = ["run", "attitude3d", "--steps", "40", "--alpha", "1e-8",
            "--out", str(out)]
    assert main(args) == EXIT_DIVERGED
    assert "filter run failed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    out.write_bytes(b"step,t\n1,0.1\n")
    assert main(args) == EXIT_DIVERGED
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_bytes() == b"step,t\n1,0.1\n"


# ---------------------------------------------------------------------------
# module entry point


def _module(*argv):
    """python -m manifold_ukf with src/ first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "manifold_ukf", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_module_invocation_help():
    proc = _module("--help")
    assert proc.returncode == 0
    assert "benchmark" in proc.stdout and "check-retraction" in proc.stdout


def test_module_invocation_runs_a_command_and_reports_usage_errors():
    proc = _module("check-retraction", "attitude3d")
    assert proc.returncode == EXIT_OK and not proc.stderr
    assert proc.stdout.count("PASS") == 8 and "FAIL" not in proc.stdout
    proc = _module("--bogus")
    assert proc.returncode == EXIT_CONFIG and not proc.stdout
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1


def test_csv_floats_roundtrip(tmp_path):
    out = tmp_path / "est.csv"
    assert main(["run", "pendulum_s2", "--steps", "7", "--seed", "9",
                 "--out", str(out)]) == EXIT_OK
    first = _columns(out)
    assert main(["run", "pendulum_s2", "--steps", "7", "--seed", "9",
                 "--out", str(out)]) == EXIT_OK
    again = _columns(out)
    for k in first.dtype.names:
        assert np.array_equal(first[k], again[k], equal_nan=True)
