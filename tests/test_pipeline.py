"""Estimate replay over logs: both airflow routes, metrics, config."""

from dataclasses import replace

import numpy as np
import pytest

from windest import logio, lstm, pipeline
from windest.logio import ESTIMATE_COLUMNS
from windest.vehicle import VehicleParams
from windest.whisker import default_rig
from windest.pipeline import (
    EstimatorConfig,
    airflow_rms,
    config_from_dict,
    config_to_dict,
    driver_angles,
    pseudo_airflow,
    run_estimate,
    training_block,
    truth_airflow_body,
    truth_drag,
    window_mask,
)


@pytest.fixture(scope="module")
def hover_estimate(hover_clean):
    log, sc = hover_clean
    cfg = EstimatorConfig()
    t, table = run_estimate(log, cfg)
    return log, sc, cfg, t, table


@pytest.fixture(scope="module")
def circle_estimate(circle3_clean):
    log, sc = circle3_clean
    cfg = EstimatorConfig()
    t, table = run_estimate(log, cfg)
    return log, sc, cfg, t, table


def hold_window(sc, lead=2.0, tail=1.0):
    return (sc.plan.t_execute + lead, sc.plan.t_land - tail)


def test_estimate_schema(hover_estimate):
    log, _, _, t, table = hover_estimate
    assert table.shape == (t.shape[0], len(ESTIMATE_COLUMNS))
    assert np.all(np.diff(t) > 0)
    assert np.all(np.isfinite(table))
    assert t.shape[0] == log["whisker"].t.shape[0]


def test_hover_estimates_stay_quiet(hover_estimate):
    _, sc, _, t, table = hover_estimate
    mask = window_mask(t, hold_window(sc))
    wind = table[mask, 3:6]
    touch = table[mask, 0:3]
    assert np.abs(wind).max() < 0.1
    assert np.abs(touch).max() < 0.1
    assert np.abs(table[mask, 9:12]).max() < 0.05  # drag of ~zero airflow


def test_circle_airflow_tracking(circle_estimate):
    log, sc, _, t, table = circle_estimate
    window = hold_window(sc, lead=4.0)
    err = airflow_rms(log, t, table, window=window)
    assert err.shape == (3,)
    assert np.all(err < 0.3)
    mask = window_mask(t, window)
    speed = np.linalg.norm(table[mask, 6:9], axis=1)
    assert np.median(speed) == pytest.approx(3.0, rel=0.1)


def test_circle_drag_magnitude(circle_estimate):
    _, sc, _, t, table = circle_estimate
    mask = window_mask(t, hold_window(sc, lead=4.0))
    drag = np.linalg.norm(table[mask, 9:12], axis=1)
    assert np.median(drag) == pytest.approx(1.23, rel=0.15)


def test_circle_wind_stays_small(circle_estimate):
    _, sc, _, t, table = circle_estimate
    mask = window_mask(t, hold_window(sc, lead=4.0))
    assert np.abs(table[mask, 3:6]).max() < 0.3


def test_lstm_route_matches_schema(hover_clean):
    log, _ = hover_clean
    cfg = EstimatorConfig()
    weights = lstm.init_params(np.random.default_rng(0))
    t, table = run_estimate(log, cfg, source="lstm", weights=weights)
    assert table.shape == (t.shape[0], len(ESTIMATE_COLUMNS))
    assert np.all(np.isfinite(table))


def test_run_estimate_source_validation(hover_clean):
    log, _ = hover_clean
    cfg = EstimatorConfig()
    with pytest.raises(ValueError, match="source"):
        run_estimate(log, cfg, source="magic")
    with pytest.raises(ValueError, match="weights"):
        run_estimate(log, cfg, source="lstm")


def test_driver_angles_wrapper(hover_clean):
    log, sc = hover_clean
    n_sensors = len(default_rig())
    t, theta, accept = driver_angles(log, EstimatorConfig())
    assert theta.shape == (t.shape[0], n_sensors, 2)
    assert accept.shape == (t.shape[0], n_sensors)
    hold = window_mask(t, hold_window(sc))
    assert np.all(accept[hold])
    assert np.nanmax(np.abs(theta[hold])) < 1e-4


def test_pseudo_airflow_stream(hover_clean):
    log, _ = hover_clean
    cfg = EstimatorConfig()
    params = lstm.init_params(np.random.default_rng(1))
    t, vinf = pseudo_airflow(log, cfg, params)
    assert vinf.shape == (t.shape[0], 3)
    assert np.all(np.isfinite(vinf))


def test_training_block_streams(circle3_clean):
    log, sc = circle3_clean
    cfg = EstimatorConfig()
    feats, labels = training_block(log, cfg)
    assert feats.shape[0] == labels.shape[0]
    assert feats.shape[1] == 20
    assert labels.shape[1] == 3
    # labels carry the commanded airspeed during the hold
    rs = logio.resample_to_clock(log, "whisker")
    t_kept = rs.t[rs.t >= rs.t[0] + 1.0]
    hold = window_mask(t_kept, hold_window(sc, lead=4.0))
    speed = np.linalg.norm(labels[hold], axis=1)
    assert np.median(speed) == pytest.approx(3.0, rel=0.05)


def test_truth_airflow_matches_velocity(circle3_clean):
    log, sc = circle3_clean
    tr = log["truth"]
    window = hold_window(sc, lead=4.0)
    t_q = tr.t[window_mask(tr.t, window)]
    vinf = truth_airflow_body(log, t_q)
    # still air: |v_inf| equals ground speed
    v = pipeline.truth_cols(log, t_q, "vx", "vy", "vz")
    assert np.allclose(np.linalg.norm(vinf, axis=1), np.linalg.norm(v, axis=1), atol=1e-9)


def test_truth_drag_magnitude(circle3_clean):
    log, sc = circle3_clean
    cfg = EstimatorConfig()
    tr = log["truth"]
    t_q = tr.t[window_mask(tr.t, hold_window(sc, lead=4.0))]
    drag = truth_drag(log, t_q, cfg.vehicle)
    assert np.median(np.linalg.norm(drag, axis=1)) == pytest.approx(1.23, rel=0.05)


def test_truth_query_before_start_raises(circle3_clean):
    log, _ = circle3_clean
    with pytest.raises(ValueError):
        pipeline.truth_cols(log, np.array([-1.0]), "vx")


def test_config_round_trip(tmp_path):
    """Every key of the table, each set off its default, survives save/parse/load."""
    inertia = [[0.013, 0.001, 0.0], [0.001, 0.017, 0.0], [0.0, 0.0, 0.029]]
    cfg = EstimatorConfig(vehicle=VehicleParams(inertia=inertia), gate=True)
    for _, section, name in pipeline.CONFIG_KEYS:
        obj = getattr(cfg, section) if section else cfg
        if isinstance(getattr(obj, name), float):
            value = getattr(obj, name) * 1.37 + 0.011
            if section:  # ProcessNoise is frozen: replace, as config_from_dict does
                setattr(cfg, section, replace(obj, **{name: value}))
            else:
                setattr(cfg, name, value)
    d = config_to_dict(cfg)
    defaults = config_to_dict(EstimatorConfig())
    for key, _, _ in pipeline.CONFIG_KEYS:
        assert not np.array_equal(d[key], defaults[key]), key
    path = tmp_path / "estimator.cfg"
    logio.save_config(d, path, header="estimator settings")
    back = config_from_dict(logio.parse_config(path))
    assert back.gate is True
    out = config_to_dict(back)
    assert list(out) == list(d)
    for key in d:  # the table's keys, then the rig's sensor keys
        assert np.array_equal(out[key], d[key]), key


def test_config_bounds_admit_their_closed_ends():
    """Zero process densities and a driver blend of 1 load; the values
    just outside are refused with the key's name."""
    d = {key: 0.0 for key, section, _ in pipeline.CONFIG_KEYS if section == "process"}
    d["driver_alpha"] = 1.0
    cfg = config_from_dict(d)
    assert cfg.process.wind == 0.0 and cfg.driver.alpha == 1.0
    for key, value in (("q_pos", -1e-300), ("driver_alpha", 1.0 + 1e-15), ("r_pseudo_mps", 0.0)):
        with pytest.raises(ValueError, match=key):
            config_from_dict({key: value})


def test_config_from_dict_rejects_unknown_keys():
    d = config_to_dict(EstimatorConfig())
    config_from_dict(d)
    for bad in ("q_wnd", "sensor4_coeff", "sensor0_coef"):
        with pytest.raises(ValueError, match=bad):
            config_from_dict({**d, bad: 0.8})
    # without sensor_count the file carries no rig, so no sensor key is known
    with pytest.raises(ValueError, match="sensor0_coeff"):
        config_from_dict({"mu1": 0.2, "sensor0_coeff": 0.01})


@pytest.mark.parametrize(
    "text, gate", [("false", False), ("0", False), ("true", True), ("1", True)]
)
def test_gate_enabled_reads_booleans(tmp_path, text, gate):
    path = tmp_path / "gate.cfg"
    path.write_text(f"gate_enabled = {text}\n")
    assert config_from_dict(logio.parse_config(path)).gate is gate


@pytest.mark.parametrize("text", ["yes", "False", "2", "0 1"])
def test_gate_enabled_rejects_other_values(tmp_path, text):
    path = tmp_path / "gate.cfg"
    path.write_text(f"gate_enabled = {text}\n")
    with pytest.raises(ValueError, match="gate_enabled"):
        config_from_dict(logio.parse_config(path))


def test_sensor_count_beyond_the_files_mounts_is_refused_as_missing_keys():
    """A huge sensor_count is refused by the keys the file lacks, without
    expanding a row per mount."""
    d = config_to_dict(EstimatorConfig())
    with pytest.raises(ValueError, match="missing config keys 'sensor4_name'") as exc:
        config_from_dict({**d, "sensor_count": 1e5})
    assert len(str(exc.value)) < 10_000
