"""Estimate replay over logs: both airflow routes, metrics, config."""

from dataclasses import replace

import numpy as np
import pytest

from windest import logio, lstm, pipeline
from windest.logio import ESTIMATE_COLUMNS, window_mask
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
    t = logio.resample_to_clock(log, "whisker")["whisker"].t
    t_kept = t[t >= t[0] + 1.0]
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


def test_text_config_keys_keep_their_text(tmp_path):
    """Mount names that read as numbers come back as the same text through
    config_to_dict, save_config, parse_config and config_from_dict (save_config
    quotes them); the numeric keys still parse as floats."""
    rig = default_rig()
    rig.mounts = [replace(m, name=name) for m, name in zip(rig.mounts, ("7", "8.5", "9", "1e1"))]
    path = tmp_path / "rig.cfg"
    logio.save_config(config_to_dict(EstimatorConfig(rig=rig)), path)
    parsed = logio.parse_config(path)
    assert type(parsed["mu1"]) is float and parsed["sensor_count"] == 4.0
    back = config_from_dict(parsed).rig
    assert [m.name for m in back.mounts] == ["7", "8.5", "9", "1e1"]
    # an unquoted number is no text: refused, naming the key
    path.write_text(path.read_text().replace('sensor0_name = "7"', "sensor0_name = 7"))
    with pytest.raises(ValueError, match="config key 'sensor0_name': bad value 7.0"):
        config_from_dict(logio.parse_config(path))


def test_config_text_keeps_a_hash_inside_quotes(tmp_path):
    """A # inside double quotes is text, outside them a comment: a mount
    named a#b (or literally '"x" # comment') round-trips through
    save_config and parse_config, and a quoted value followed by a comment
    reads as the quoted text."""
    rig = default_rig()
    names = ("a#b", '"x" # comment', "c", "d")
    rig.mounts = [replace(m, name=name) for m, name in zip(rig.mounts, names)]
    path = tmp_path / "rig.cfg"
    logio.save_config(config_to_dict(EstimatorConfig(rig=rig)), path)
    assert 'sensor0_name = "a#b"\n' in path.read_text()
    assert [m.name for m in config_from_dict(logio.parse_config(path)).rig.mounts] == list(names)
    path.write_text('sensor0_name = "x" # comment\nmu1 = 0.5 # N s/m\n')
    assert logio.parse_config(path) == {"sensor0_name": "x", "mu1": 0.5}


def test_owner_refusal_names_its_key_after_one_rebuild_per_owner():
    """A full config rebuilds each owner once; when the owner refuses the
    rebuild, the key whose value it refuses is named."""
    d = config_to_dict(EstimatorConfig())
    calls = []
    post_init = VehicleParams.__post_init__

    def counting(self):
        calls.append(self)
        post_init(self)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(VehicleParams, "__post_init__", counting)
        config_from_dict(d)
    assert len(calls) == 2  # EstimatorConfig()'s default and the one rebuild
    for key, value in (("inertia_kgm2", np.zeros(9)), ("sensor2_rot", np.ones(9)),
                       ("sensor1_polarity", "east_up")):
        with pytest.raises(ValueError, match=f"config key '{key}': "):
            config_from_dict({**d, key: value})


def shared_time_log(hover_clean, throttle_ks=range(5)):
    """Throttle, odometry and whisker rows on shared (dyadic) timestamps,
    t = k / 64: throttle at throttle_ks with f_cmd 10 + k and a NaN at
    k = 2, odometry at k = 0..5 with a NaN at k = 3, whisker at k = 1, 2
    and 5."""
    src, _ = hover_clean
    out = logio.FlightLog()
    for name, ks in (("throttle", throttle_ks), ("odometry", range(6)), ("whisker", (1, 2, 5))):
        ch = src[name]
        data = ch.data[: len(ks)].copy()
        if name == "throttle":
            data[:, ch.columns.index("f_cmd")] = [10.0 + k for k in ks]
            data[list(ks).index(2), 0] = np.nan
        if name == "odometry":
            data[3, 0] = np.nan
        out.add(name, [k / 64 for k in ks], data, list(ch.columns))
    return out


def recorded_calls(monkeypatch, log, cfg):
    """The ukf calls of a replay of log, in order: ("predict", t, thrust,
    dt) with the time the belief is predicted to and the command it
    flies, ("odometry", t) and ("whisker", t) with the belief's time.  A
    belief holds no time, so the record keeps it: the first odometry
    row's t (the belief is made there) plus each predict's dt."""
    from windest import ukf

    calls = []
    clock = [log["odometry"].t[0]]

    def predict(belief, u, dt, noise, params):
        clock[0] += dt
        calls.append(("predict", clock[0], u[0], dt))
        return belief

    def update(kind):
        def record(belief, *args, **kwargs):
            calls.append((kind, clock[0]))
            return belief, True

        return record

    with monkeypatch.context() as m:
        m.setattr(ukf, "predict", predict)
        m.setattr(ukf, "update_odometry", update("odometry"))
        m.setattr(ukf, "update_airflow", update("whisker"))
        t, table = run_estimate(log, cfg)
    assert table.shape == (t.shape[0], len(ESTIMATE_COLUMNS))
    return t, calls


def test_rows_at_equal_t_are_taken_throttle_odometry_whisker(monkeypatch, hover_clean):
    """The replay's event order on its own, recorded at the ukf calls: at
    equal t the odometry row predicts and updates, then the whisker row.
    Each predict flies the mean command over the interval since the last
    measurement: a throttle row holds its f_cmd from its own t, so one at
    a measurement's t first counts in the interval after it, and the
    non-finite throttle and odometry rows are left out.  Before the
    first throttle row the command is the hover wrench."""
    cfg = EstimatorConfig()
    d = 1 / 64
    t, calls = recorded_calls(monkeypatch, shared_time_log(hover_clean), cfg)
    assert calls == [
        # k = 0: the odometry row makes the belief
        ("predict", d, 10.0, d), ("odometry", d), ("whisker", d),
        ("predict", 2 * d, 11.0, d), ("odometry", 2 * d), ("whisker", 2 * d),
        # k = 4: no measurement at k = 3, so one interval flies 11 over one
        # tick and 13 over one (the NaN row at k = 2 holds no command)
        ("predict", 4 * d, 12.0, 2 * d), ("odometry", 4 * d),
        ("predict", 5 * d, 14.0, d), ("odometry", 5 * d), ("whisker", 5 * d),
    ]
    assert t.tolist() == [d, 2 * d, 5 * d]
    # throttle from k = 1: the first interval flies the hover wrench
    _, calls = recorded_calls(monkeypatch, shared_time_log(hover_clean, range(1, 5)), cfg)
    assert calls[0] == ("predict", d, cfg.vehicle.mass * cfg.vehicle.gravity, d)
    assert calls[3] == ("predict", 2 * d, 11.0, d)
