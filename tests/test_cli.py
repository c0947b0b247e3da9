"""CLI subcommands driven in-process, including file round trips."""

import argparse
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from windest import lstm, pipeline, sim, sysid, ukf, whisker
from windest.cli import build_parser, main
from windest.logio import (
    Channel, FlightLog, load_estimate, load_log, parse_config, save_config, save_log,
)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def hover_dir(hover_clean, tmp_path_factory):
    """The clean hover flight saved once; tests that change its files take
    hover_copy, which has no truth.csv."""
    log, _ = hover_clean
    d = tmp_path_factory.mktemp("hover") / "hover_log"
    save_log(log, str(d))
    return d


@pytest.fixture()
def hover_copy(hover_dir, tmp_path):
    return Path(shutil.copytree(hover_dir, tmp_path / "hover_log",
                                ignore=shutil.ignore_patterns("truth.csv")))


@pytest.fixture(scope="module")
def circle_dir(circle_multi_clean, tmp_path_factory):
    """The clean multi-speed circle flight saved once; a test that changes
    its files takes a copy."""
    log, _ = circle_multi_clean
    d = tmp_path_factory.mktemp("circle") / "circ"
    save_log(log, str(d))
    return d


def test_help_exits_zero():
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0


def test_four_phase_chain(tmp_path, capsys):
    # sim output feeds estimate, estimate output feeds replay
    log_dir = tmp_path / "fp"
    assert main(["sim", "--scenario", "four_phase", "--seed", "7", "--out", str(log_dir)]) == 0
    assert (log_dir / "truth.csv").exists()
    est = tmp_path / "est.csv"
    assert main(["estimate", str(log_dir), "--out", str(est)]) == 0
    assert main(["replay", str(log_dir), str(est)]) == 0
    out = capsys.readouterr().out
    assert "airflow rms" in out
    assert "wind phase" in out
    assert "touch phase" in out


def test_model_vs_lstm_schema_identical(hover_dir, tmp_path):
    w = tmp_path / "w.csv"
    lstm.save_params(lstm.init_params(np.random.default_rng(0)), str(w))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["estimate", str(hover_dir), "--out", str(a)]) == 0
    rc = main(["estimate", str(hover_dir), "--airflow-source", "lstm",
               "--weights", str(w), "--out", str(b)])
    assert rc == 0
    ta, tab_a = load_estimate(str(a))
    tb, tab_b = load_estimate(str(b))
    assert tab_a.shape == tab_b.shape
    assert np.array_equal(ta, tb)
    with open(a) as fa, open(b) as fb:
        assert fa.readline() == fb.readline()


@pytest.mark.parametrize("source", ["model", "lstm"])
def test_estimate_does_not_read_truth(hover_dir, hover_copy, tmp_path, capsys, source):
    """estimate opens only the sensor channels: with truth.csv garbled or
    missing it writes the same bytes.  replay still reads truth."""
    args = []
    if source == "lstm":
        w = tmp_path / "w.csv"
        lstm.save_params(lstm.init_params(np.random.default_rng(0)), str(w))
        args = ["--airflow-source", "lstm", "--weights", str(w)]
    ref = tmp_path / "ref.csv"
    assert main(["estimate", str(hover_dir), "--out", str(ref), *args]) == 0
    truth = hover_copy / "truth.csv"
    truth.write_text("t,px\n0.0,banana\n")
    garbled = tmp_path / "garbled.csv"
    assert main(["estimate", str(hover_copy), "--out", str(garbled), *args]) == 0
    assert garbled.read_bytes() == ref.read_bytes()
    capsys.readouterr()
    assert main(["replay", str(hover_copy), str(garbled)]) == 2
    assert "truth.csv:2" in capsys.readouterr().err
    truth.unlink()
    missing = tmp_path / "missing.csv"
    assert main(["estimate", str(hover_copy), "--out", str(missing), *args]) == 0
    assert missing.read_bytes() == ref.read_bytes()


def test_model_estimate_does_not_read_imu(hover_copy, tmp_path, capsys):
    """The model route opens only its channels (pipeline.ROUTE_CHANNELS):
    with imu.csv garbled or missing it writes the same bytes, while the
    LSTM route, whose features need the IMU, reports the garbled file."""
    ref = tmp_path / "ref.csv"
    assert main(["estimate", str(hover_copy), "--out", str(ref)]) == 0
    imu = hover_copy / "imu.csv"
    imu.write_text("t,ax\n0.0,banana\n")
    garbled = tmp_path / "garbled.csv"
    assert main(["estimate", str(hover_copy), "--out", str(garbled)]) == 0
    assert garbled.read_bytes() == ref.read_bytes()
    w = tmp_path / "w.csv"
    lstm.save_params(lstm.init_params(np.random.default_rng(0)), str(w))
    capsys.readouterr()
    lstm_args = ["--airflow-source", "lstm", "--weights", str(w)]
    assert main(["estimate", str(hover_copy), "--out", str(tmp_path / "l.csv"), *lstm_args]) == 2
    assert "imu.csv:2" in capsys.readouterr().err
    imu.unlink()
    missing = tmp_path / "missing.csv"
    assert main(["estimate", str(hover_copy), "--out", str(missing)]) == 0
    assert missing.read_bytes() == ref.read_bytes()


def test_replay_without_truth_exits_2(hover_copy, tmp_path, capsys):
    """replay scores against truth.csv; without it, an error line names the
    file and the exit status is 2.  So does estimate without a channel its
    route reads."""
    est = tmp_path / "est.csv"
    assert main(["estimate", str(hover_copy), "--out", str(est)]) == 0
    capsys.readouterr()  # hover_copy has no truth.csv
    assert main(["replay", str(hover_copy), str(est)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "truth.csv" in err
    (hover_copy / "odometry.csv").unlink()
    assert main(["estimate", str(hover_copy), "--out", str(est)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "odometry.csv" in err


def test_lstm_source_requires_weights(hover_dir, capsys):
    assert main(["estimate", str(hover_dir), "--airflow-source", "lstm"]) == 2
    assert "--weights" in capsys.readouterr().err


def test_weights_without_lstm_source_exit_2(hover_dir, tmp_path, capsys):
    """--weights on the model route is refused, not silently ignored."""
    w = tmp_path / "w.csv"
    lstm.save_params(lstm.init_params(np.random.default_rng(0)), str(w))
    est = tmp_path / "est.csv"
    assert main(["estimate", str(hover_dir), "--weights", str(w), "--out", str(est)]) == 2
    err = capsys.readouterr().err
    assert "--weights" in err and "--airflow-source lstm" in err
    assert not est.exists()


def test_malformed_log_line_diagnostic(tmp_path, capsys):
    d = tmp_path / "bad"
    d.mkdir()
    (d / "odometry.csv").write_text("t,px\n0.0,1.0\n0.1,banana\n")
    assert main(["estimate", str(d)]) == 2
    assert "odometry.csv:3" in capsys.readouterr().err


def test_covariance_error_mid_replay_exits_2(hover_dir, tmp_path, monkeypatch, capsys):
    """A belief whose covariance stops being positive definite makes the
    next predict's factorization fail: the replay ends with an error
    line and exit 2, not a traceback."""
    update = ukf.update_odometry
    calls = []

    def breaking(belief, z, R, gate=False):
        belief, ok = update(belief, z, R, gate=gate)
        calls.append(ok)
        if len(calls) == 50:
            belief = ukf.BeliefState(belief.q_ref, belief.mean, -belief.cov)
        return belief, ok

    monkeypatch.setattr(ukf, "update_odometry", breaking)
    assert main(["estimate", str(hover_dir), "--out", str(tmp_path / "est.csv")]) == 2
    assert len(calls) == 50
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "not positive definite" in err


def test_missing_log_directory(tmp_path, capsys):
    assert main(["estimate", str(tmp_path / "nope")]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_sim_reports_its_cost(tmp_path, capsys):
    assert main(["sim", "--scenario", "hover", "--seed", "3", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    cost = re.fullmatch(
        r"simulated (\S+) s of flight in (\S+) s wall time: "
        r"realtime factor (\S+), (\S+) s per flight-second", lines[-2])
    assert cost is not None, lines
    flight, wall, rtf, per_s = map(float, cost.groups())
    assert flight == round(sim.hover_scenario().plan.duration, 2)
    assert wall > 0.0 and rtf > 1.0
    assert rtf == pytest.approx(flight / wall, rel=0.05)
    assert per_s == pytest.approx(wall / flight, rel=0.05, abs=1e-4)
    assert lines[-1] == f"log written to {tmp_path}"


def test_env_var_sets_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("WINDEST_OUT", str(tmp_path / "outs"))
    assert main(["sim", "--scenario", "hover", "--seed", "3"]) == 0
    assert (tmp_path / "outs" / "hover_3" / "truth.csv").exists()


def test_diverged_flight_writes_partial_log_and_exits_2(tmp_path, capsys):
    out = tmp_path / "weak"
    rc = main(["sim", "--scenario", "four_phase", "--thrust-scale", "0.2", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: vehicle left the arena at t=")
    assert err.endswith(f"; partial log written to {out}\n")
    log = load_log(str(out))
    assert sorted(log.channels) == ["imu", "odometry", "throttle", "truth", "whisker"]
    # the flight ends where it left the arena, long before the plan does
    assert 0.0 < log["truth"].t[-1] < sim.four_phase_scenario().plan.duration / 2


def _scipy_modules_after(code):
    """The scipy modules loaded by running `code` in a fresh interpreter."""
    code += "\nimport sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return res.stdout.strip().splitlines()[-1]


def test_cli_import_loads_no_scipy():
    """scipy.stats alone takes about 0.3 s to import; the CLI loads scipy
    only inside the chi-square gate threshold."""
    assert _scipy_modules_after("import windest.cli") == "[]"


def test_sysid_and_train_load_no_scipy(circle_dir, tmp_path):
    """The offline fit (sysid's low-pass included) runs on numpy alone."""
    d, cfg, weights = circle_dir, tmp_path / "params.cfg", tmp_path / "weights.csv"
    code = (
        "from windest.cli import main\n"
        f"assert main(['sysid', {str(d)!r}, '--out', {str(cfg)!r}]) == 0\n"
        f"assert main(['train', {str(d)!r}, '--config', {str(cfg)!r}, '--epochs', '1', "
        f"'--out', {str(weights)!r}]) == 0"
    )
    assert _scipy_modules_after(code) == "[]"
    assert weights.exists()


def test_scenario_flag_validation(capsys):
    assert main(["sim", "--scenario", "hover", "--interference", "0.1"]) == 2
    assert "--interference not supported for hover" in capsys.readouterr().err
    assert main(["sim", "--scenario", "hover", "--thrust-scale", "0.9"]) == 2
    assert "--thrust-scale not supported for hover" in capsys.readouterr().err


def test_sysid_writes_usable_params(circle_dir, hover_dir, tmp_path, capsys):
    out = tmp_path / "params.cfg"
    assert main(["sysid", str(circle_dir), "--out", str(out)]) == 0
    cfg = parse_config(str(out))
    assert abs(cfg["mu1"] - 0.2) < 0.02
    assert abs(cfg["mu2"] - 0.07) < 0.01
    ref = whisker.DEFAULT_COEFF
    assert abs(cfg["sensor0_coeff"] - ref) / ref < 0.05
    # the identified file drives an estimate run unchanged
    est = tmp_path / "e.csv"
    assert main(["estimate", str(hover_dir), "--config", str(out), "--out", str(est)]) == 0


def test_sysid_reads_only_odometry_and_whisker(circle_dir, tmp_path):
    """sysid opens only the channels it fits on: with the other files
    garbled it writes the same bytes."""
    ref, garbled = tmp_path / "ref.cfg", tmp_path / "garbled.cfg"
    assert main(["sysid", str(circle_dir), "--out", str(ref)]) == 0
    d = tmp_path / "circ"
    d.mkdir()
    for name in ("odometry", "whisker"):
        shutil.copy(circle_dir / f"{name}.csv", d)
    for name in ("truth", "imu", "throttle"):
        (d / f"{name}.csv").write_text("t,x\n0.0,banana\n")
    assert main(["sysid", str(d), "--out", str(garbled)]) == 0
    assert garbled.read_bytes() == ref.read_bytes()


def test_train_writes_weights(hover_dir, tmp_path):
    out = tmp_path / "w.csv"
    assert main(["train", str(hover_dir), "--epochs", "2", "--out", str(out)]) == 0
    p = lstm.load_params(str(out))
    assert p.input_dim == lstm.INPUT_DIM


def test_eval_subset(capsys):
    assert main(["eval", "--only", "7,9,10"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3


def test_eval_only_validation(capsys):
    assert main(["eval", "--only", "0"]) == 2
    assert "unknown criteria" in capsys.readouterr().err


def test_eval_nonzero_on_failure(monkeypatch, capsys):
    from windest import acceptance

    def forced():
        return acceptance.CriterionResult(1, "forced", False, "forced failure")

    monkeypatch.setattr(acceptance, "CRITERIA", [forced])
    assert main(["eval", "--only", "1"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_scenario_choices_are_the_simulator_scenarios():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    scenario = next(a for a in sub.choices["sim"]._actions if a.dest == "scenario")
    assert set(scenario.choices) == set(sim.SCENARIOS)


def test_misspelled_config_key_exits_2(hover_dir, tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("mu1 = 0.2\nq_wnd = 0.8\n")
    assert main(["estimate", str(hover_dir), "--config", str(cfg),
                 "--out", str(tmp_path / "e.csv")]) == 2
    assert "q_wnd" in capsys.readouterr().err
    assert not (tmp_path / "e.csv").exists()


def test_non_numeric_config_value_exits_2(hover_dir, tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("mu1 = fast\n")
    assert main(["estimate", str(hover_dir), "--config", str(cfg),
                 "--out", str(tmp_path / "e.csv")]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and "mu1" in err
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("key, value", [("mass_kg", "nan"), ("mu2", "inf"),
                                        ("sensor0_coeff", "nan")])
def test_non_finite_config_value_exits_2(hover_dir, tmp_path, capsys, key, value):
    cfg = tmp_path / "params.cfg"
    d = pipeline.config_to_dict(pipeline.EstimatorConfig())
    d[key] = value
    save_config(d, str(cfg))
    assert main(["estimate", str(hover_dir), "--config", str(cfg),
                 "--out", str(tmp_path / "e.csv")]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and key in err and "not finite" in err
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("key, value, wording", [
    ("q_wind", "-1", ">= 0"),
    ("r_whisker_rad", "0", "> 0"),
    ("r_odo_pos_m", "-0.1", "> 0"),
    ("init_sigma_touch_N", "0", "> 0"),
    ("driver_alpha", "1.5", "(0, 1]"),
    ("driver_alpha", "0", "(0, 1]"),
])
def test_config_value_out_of_bounds_exits_2(hover_dir, tmp_path, capsys, key, value, wording):
    """A noise or driver value outside its domain stops at load, naming
    the file and the key, before any replay (a negative density or a zero
    sigma used to end the replay midway with a covariance error, a
    negative sigma or alpha 1.5 to exit 0)."""
    cfg = tmp_path / "params.cfg"
    d = pipeline.config_to_dict(pipeline.EstimatorConfig())
    d[key] = value
    save_config(d, str(cfg))
    assert main(["estimate", str(hover_dir), "--config", str(cfg),
                 "--out", str(tmp_path / "e.csv")]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and key in err and wording in err
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("mu1", -5), ("mu2", -0.5), ("driver_nsigma", -1), ("driver_clamp_rad", 0),
    ("sensor0_coeff", -0.01), ("sensor0_coeff", 0), ("sensor_count", 0), ("sensor_count", 2.5),
    ("mass_kg", 0), ("inertia_kgm2", "0 0 0 0 0 0 0 0 0"),
])
def test_config_value_outside_its_domain_exits_2(hover_dir, tmp_path, capsys, key, value):
    """A value outside its key's domain (pipeline.CONFIG_SCHEMA), or one
    its owner's own check refuses (a zero inertia), exits 2 before the
    replay with a message naming the file and the key."""
    cfg = tmp_path / "params.cfg"
    d = pipeline.config_to_dict(pipeline.EstimatorConfig())
    d[key] = value
    save_config(d, str(cfg))
    assert main(["estimate", str(hover_dir), "--config", str(cfg),
                 "--out", str(tmp_path / "e.csv")]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}: config key {key!r}: " in err
    assert not (tmp_path / "e.csv").exists()


def test_sysid_refuses_a_fit_outside_the_domain(circle_dir, tmp_path, monkeypatch, capsys):
    """A negative drag coefficient from the fit exits 2 naming the key and
    its value, and writes no params file."""
    monkeypatch.setattr(sysid, "fit_drag_polynomial",
                        lambda speed, force: sysid.DragFit(mu1=-0.25, mu2=0.07))
    out = tmp_path / "params.cfg"
    assert main(["sysid", str(circle_dir), "--out", str(out)]) == 2
    assert "config key 'mu1': value -0.25 must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_missing_sensor_key_exits_2(hover_dir, tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("sensor_count = 1\nsensor0_coeff = 0.01\n")
    assert main(["estimate", str(hover_dir), "--config", str(cfg),
                 "--out", str(tmp_path / "e.csv")]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and "sensor0_pos_m" in err
    assert not (tmp_path / "e.csv").exists()


def test_channels_without_a_common_whisker_tick_exit_2(hover_clean, tmp_path, capsys):
    # imu rows only between two whisker ticks: no tick lies in the span
    # every channel covers, so the LSTM feature stream is empty
    log, _ = hover_clean
    t_w, imu = log["whisker"].t, log["imu"]
    keep = (imu.t > t_w[100]) & (imu.t < t_w[101])
    assert keep.any()
    cut = FlightLog(dict(log.channels))
    cut.channels["imu"] = Channel("imu", imu.t[keep], imu.data[keep], list(imu.columns))
    d = tmp_path / "cut"
    save_log(cut, str(d))
    w = tmp_path / "w.csv"
    lstm.save_params(lstm.init_params(np.random.default_rng(0)), str(w))
    assert main(["estimate", str(d), "--airflow-source", "lstm", "--weights", str(w),
                 "--out", str(tmp_path / "e.csv")]) == 2
    assert "do not overlap" in capsys.readouterr().err
    assert main(["train", str(d), "--epochs", "1", "--out", str(tmp_path / "w2.csv")]) == 2
    assert "do not overlap" in capsys.readouterr().err
