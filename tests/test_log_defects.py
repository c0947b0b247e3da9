"""What the replay does with each log defect, pinned on one hover flight.

Defects come from tests/faults.py: swapped rows in a saved file, a
non-finite value in one row, and a window missing from every channel or
from the measurement channels alone while commands keep coming.
A truth channel that is cut short or missing changes no estimate.  The
non-finite odometry row is pinned for sysid too, on a circular flight.
The pinned tests are the gate; one Hypothesis property test (skipped
without Hypothesis) composes missing windows, non-finite values,
channels cut short and swapped rows in a saved copy at random times, on
both routes.
"""

import re

import numpy as np
import pytest

from faults import drop_window, set_value, swap_lines, truncate_channel
from test_replay_golden import record_sigma_draws, truncated
from windest import lstm, pipeline, sim, ukf, whisker
from windest.cli import main
from windest.logio import (
    CALIB_DURATION_S,
    FlightLog,
    LogFormatError,
    WhiskerDriver,
    load_log,
    save_log,
    whisker_fields,
)
from windest.pipeline import EstimatorConfig, run_estimate

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # Hypothesis comes with the test extra
    given = None

ROUTES = ("model", "lstm")


@pytest.fixture(scope="module")
def hover_log():
    return sim.run_scenario(sim.hover_scenario(seed=8, duration=2.0))


@pytest.fixture(scope="module")
def weights():
    return lstm.init_params(np.random.default_rng(0))


def estimate(log, route, weights):
    return run_estimate(log, EstimatorConfig(), route, weights=weights if route == "lstm" else None)


def without_row(log, channel, row):
    ch = log[channel]
    out = FlightLog(dict(log.channels))
    out.add(channel, np.delete(ch.t, row), np.delete(ch.data, row, axis=0), ch.columns)
    return out


# ---------------------------------------------------------------------------
# time order


def test_swapped_rows_fail_at_load_with_file_and_line(hover_log, tmp_path, capsys):
    save_log(FlightLog({name: hover_log[name] for name in pipeline.ROUTE_CHANNELS["lstm"]}),
             tmp_path)
    swap_lines(tmp_path / "throttle.csv", 100, 101)
    with pytest.raises(LogFormatError, match=r"throttle\.csv:101: "):
        load_log(tmp_path)
    assert main(["estimate", str(tmp_path), "--out", str(tmp_path / "e.csv")]) == 2
    assert "throttle.csv:101" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body, line",
    [("0.0,1\n\n0.1,2\n0.1,3\n0.2,4\n", 5), ("nan,1\n0.1,2\n", 2)],
    ids=["duplicate-after-blank-line", "nan-first"],
)
def test_bad_time_is_named_by_the_files_own_line(tmp_path, body, line):
    (tmp_path / "imu.csv").write_text("t,ax\n" + body)
    with pytest.raises(LogFormatError, match=rf"imu\.csv:{line}: "):
        load_log(tmp_path)


# ---------------------------------------------------------------------------
# non-finite values


@pytest.mark.parametrize("channel, column", [("odometry", "px"), ("throttle", "f_cmd")])
def test_nonfinite_row_is_left_out_on_the_model_route(hover_log, channel, column):
    log, row = set_value(hover_log, channel, column, 6.0)
    t, table = estimate(log, "model", None)
    t_ref, table_ref = estimate(without_row(hover_log, channel, row), "model", None)
    assert np.array_equal(t, t_ref)
    assert np.array_equal(table, table_ref)


@pytest.mark.parametrize(
    "channel, column", [("imu", "ax"), ("throttle", "u0"), ("odometry", "wx"), ("odometry", "px")]
)
def test_nonfinite_value_leaves_the_lstm_route_finite(hover_log, weights, channel, column):
    log, _ = set_value(hover_log, channel, column, 6.0)
    _, table = estimate(log, "lstm", weights)
    assert np.all(np.isfinite(table))


def test_nonfinite_field_is_rejected_and_kept_out_of_the_reference(hover_log, weights):
    log, tick = set_value(hover_log, "whisker", "bx_0", hover_log["whisker"].t[192])
    _, theta, accept = pipeline.driver_angles(log, EstimatorConfig())
    _, _, accept_ref = pipeline.driver_angles(hover_log, EstimatorConfig())
    assert tick == 192
    assert not accept[192, 0] and np.all(np.isnan(theta[192, 0]))
    assert np.array_equal(np.delete(accept, 192, axis=0), np.delete(accept_ref, 192, axis=0))
    for route in ROUTES:
        _, table = estimate(log, route, weights)
        assert np.all(np.isfinite(table))


def process_tick_by_tick(rig, cfg, t, b):
    """The driver's rules one tick at a time, in numpy, yielding (theta,
    accept) per tick: calibrate on the rows up to t[0] + CALIB_DURATION_S
    that hold no non-finite value, then gate each tick against the
    reference before its blend, blend in its finite components and decode
    less the offsets (each sensor's over its finitely decoded window
    rows), clamped, with rejected sensors NaN."""
    window = b[: int(np.searchsorted(t, t[0] + CALIB_DURATION_S, side="right"))]
    window = window[np.isfinite(window).all(axis=(1, 2))]
    lp = window.mean(axis=0)
    thresholds = np.maximum(cfg.nsigma * window.std(axis=0), cfg.threshold_floor)
    decoded = whisker.decode_field(rig.sign * window)
    offsets = np.array([d[np.isfinite(d).all(axis=1)].mean(axis=0) for d in decoded.swapaxes(0, 1)])
    for row in b:
        accept = np.all(np.abs(row - lp) <= thresholds, axis=1)
        lp = np.where(np.isfinite(row), (1.0 - cfg.alpha) * lp + cfg.alpha * row, lp)
        theta = np.clip(whisker.decode_field(rig.sign * row) - offsets, -cfg.clamp, cfg.clamp)
        theta[~accept] = np.nan
        yield theta, accept


def test_driver_run_equals_process_tick_by_tick(hover_log):
    """run's block pass gives every tick the bits that the per-tick
    reference gives it, on a stream with NaN and inf fields (one in the
    calibration window) and rejected spikes."""
    t = hover_log["whisker"].t
    b = whisker_fields(hover_log).copy()
    rng = np.random.default_rng(67)
    rows = rng.choice(np.arange(60, t.size), 45, replace=False)
    sensor, comp = rng.integers(0, 4, 45), rng.integers(0, 3, 45)
    b[rows[:15], sensor[:15], comp[:15]] = np.nan
    b[rows[15:30], sensor[15:30], comp[15:30]] = np.inf * rng.choice([-1.0, 1.0], 15)
    b[rows[30:], sensor[30:], comp[30:]] += 400.0 * rng.choice([-1.0, 1.0], 15)
    b[5, 1, 2] = np.inf
    cfg = EstimatorConfig()
    theta, accept = WhiskerDriver(cfg.rig, cfg.driver).run(t, b)
    for k, (theta_k, accept_k) in enumerate(process_tick_by_tick(cfg.rig, cfg.driver, t, b)):
        assert theta[k].tobytes() == theta_k.tobytes()
        assert np.array_equal(accept[k], accept_k)
    assert (~accept).sum() >= 45


def test_calibration_leaves_out_nonfinite_rows(hover_log):
    """An all-NaN row in the calibration window is left out of it and
    leaves the reference as it was, so every other row comes out as if it
    were not there (a single non-finite value in the window is pinned
    against the per-tick reference above).  A window with no finite row
    raises."""
    t = hover_log["whisker"].t[:80]
    b = whisker_fields(hover_log)[:80]
    assert t[5] < t[0] + CALIB_DURATION_S < t[-1]
    rig = EstimatorConfig().rig
    bad = b.copy()
    bad[5] = np.nan
    theta, accept = WhiskerDriver(rig).run(t, bad)
    theta_ref, accept_ref = WhiskerDriver(rig).run(np.delete(t, 5), np.delete(b, 5, axis=0))
    assert not accept[5].any()
    assert np.delete(theta, 5, axis=0).tobytes() == theta_ref.tobytes()
    assert np.array_equal(np.delete(accept, 5, axis=0), accept_ref)
    with pytest.raises(ValueError, match="whisker"):
        WhiskerDriver(rig).run(t, np.full_like(b, np.nan))


def test_calibration_row_that_decodes_to_nan_leaves_its_sensor_working(hover_log):
    """A row with b_z <= 0 in the calibration window decodes to NaN; the
    sensor's offset is the mean over its other window rows, so the
    sensor keeps a finite angle at every tick the gate accepts (it used
    to give none), and the other sensors' angles do not move."""
    ch = hover_log["whisker"]
    row = int(np.searchsorted(ch.t, 0.06))
    flipped, _ = set_value(hover_log, "whisker", "bz_0", 0.06, -ch.col("bz_0")[row])
    assert ch.t[row] < ch.t[0] + CALIB_DURATION_S
    _, theta, accept = pipeline.driver_angles(flipped, EstimatorConfig())
    _, theta_ref, accept_ref = pipeline.driver_angles(hover_log, EstimatorConfig())
    assert accept[:, 0].sum() == accept_ref[:, 0].sum() - 1 == 575
    assert np.isfinite(theta[accept[:, 0], 0]).all()
    both = accept[:, 0] & accept_ref[:, 0]
    assert np.abs(theta[both, 0] - theta_ref[both, 0]).max() < 1e-3
    assert theta[:, 1:].tobytes() == theta_ref[:, 1:].tobytes()


def test_sensor_that_decodes_nothing_in_the_calibration_window_is_named(hover_log):
    """A sensor whose every calibration row has b_z <= 0 has no offset:
    the driver raises ValueError naming it."""
    t = hover_log["whisker"].t
    b = whisker_fields(hover_log).copy()
    b[: int(np.searchsorted(t, t[0] + CALIB_DURATION_S, side="right")), 2, 2] *= -1.0
    rig = EstimatorConfig().rig
    with pytest.raises(ValueError, match=r"sensor 2 \(guard_right\) decodes no finite angle"):
        WhiskerDriver(rig).run(t, b)


def test_nonfinite_odometry_row_is_left_out_of_sysid(circle_multi_clean, tmp_path):
    """A NaN velocity would spread over the whole low-passed signal that
    sysid differentiates; the row is left out, as the replay leaves it out."""
    log, _ = circle_multi_clean
    bad, row = set_value(log, "odometry", "vx", log["odometry"].t[500])
    assert row == 500
    for name, flight in (("nan", bad), ("ref", without_row(log, "odometry", row))):
        save_log(FlightLog({ch: flight[ch] for ch in ("odometry", "whisker")}), tmp_path / name)
        assert main(["sysid", str(tmp_path / name), "--out", str(tmp_path / f"{name}.cfg")]) == 0
    assert (tmp_path / "nan.cfg").read_bytes() == (tmp_path / "ref.cfg").read_bytes()


# ---------------------------------------------------------------------------
# column layout


def with_odometry_columns(log, columns):
    """The log with its odometry channel holding these columns, in this order."""
    ch = log["odometry"]
    out = FlightLog(dict(log.channels))
    out.add("odometry", ch.t, ch.col(*columns), list(columns))
    return out


@pytest.mark.parametrize("route", ROUTES)
def test_odometry_columns_in_another_order_give_the_same_estimates(hover_log, weights, route):
    """The replay gathers the odometry columns by name: in reverse order
    they give the same estimates, bit for bit."""
    t, table = estimate(hover_log, route, weights)
    log = with_odometry_columns(hover_log, sim.ODO_COLUMNS[::-1])
    assert log["odometry"].columns[0] == "wz"
    t_rev, table_rev = estimate(log, route, weights)
    assert np.array_equal(t_rev, t)
    assert np.array_equal(table_rev.view(np.uint64), table.view(np.uint64))


def test_missing_column_exits_2_naming_the_file_and_its_columns(hover_log, weights, tmp_path, capsys):
    """An odometry file without the wz column stops estimate (both routes)
    and sysid with exit 2 and one error line naming the file, the column
    and the columns the file has (it used to escape as a KeyError)."""
    kept = [c for c in sim.ODO_COLUMNS if c != "wz"]
    sensors = FlightLog({name: hover_log[name] for name in pipeline.ROUTE_CHANNELS["lstm"]})
    d = tmp_path / "log"
    save_log(with_odometry_columns(sensors, kept), d)
    w = tmp_path / "w.csv"
    lstm.save_params(weights, str(w))
    out = tmp_path / "out"
    for args in (["estimate"], ["estimate", "--airflow-source", "lstm", "--weights", str(w)],
                 ["sysid"]):
        assert main([*args, str(d), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: odometry.csv: no column 'wz'; it has {', '.join(kept)}\n", args
        assert not out.exists()


def test_imu_file_without_rows_exits_2_on_the_lstm_route(hover_log, weights, tmp_path, capsys):
    """An imu file holding only its header leaves the learned route no
    clock to resample onto: estimate stops with exit 2 and one error
    line naming the file (it used to escape as an IndexError)."""
    sensors = FlightLog({name: hover_log[name] for name in pipeline.ROUTE_CHANNELS["lstm"]})
    d = tmp_path / "log"
    save_log(sensors, d)
    with open(d / "imu.csv") as fh:
        header = fh.readline()
    (d / "imu.csv").write_text(header)
    w = tmp_path / "w.csv"
    lstm.save_params(weights, str(w))
    out = tmp_path / "out"
    assert main(["estimate", "--airflow-source", "lstm", "--weights", str(w), str(d), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: imu.csv: no rows") and err.count("\n") == 1
    assert not out.exists()


def test_missing_throttle_column_exits_2_on_the_lstm_route(hover_log, weights, tmp_path, capsys):
    """The learned route's features read the rotor throttles by name: a
    throttle file without u3 stops it with exit 2 and one error line
    naming the file, the column and the columns the file has."""
    ch = hover_log["throttle"]
    kept = [c for c in ch.columns if c != "u3"]
    sensors = FlightLog({name: hover_log[name] for name in pipeline.ROUTE_CHANNELS["lstm"]})
    sensors.add("throttle", ch.t, ch.col(*kept), kept)
    d = tmp_path / "log"
    save_log(sensors, d)
    w = tmp_path / "w.csv"
    lstm.save_params(weights, str(w))
    out = tmp_path / "out"
    assert main(["estimate", "--airflow-source", "lstm", "--weights", str(w), str(d), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: throttle.csv: no column 'u3'; it has {', '.join(kept)}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# gaps


@pytest.mark.parametrize("route", ROUTES)
def test_gap_in_every_channel_is_predicted_in_steps(hover_log, weights, route):
    log = drop_window(hover_log, 6.0, 6.15)
    t, table = estimate(log, route, weights)
    assert np.all(np.isfinite(table))
    assert not np.any((t > 6.0) & (t < 6.15))
    assert np.any(t >= 6.15)


@pytest.mark.parametrize("route", ROUTES)
def test_measurement_dropout_under_commands_draws_every_stretch(
    monkeypatch, hover_log, weights, route
):
    """Odometry and whisker rows drop out for 0.35 s while throttle rows
    keep coming: the predict at the next measurement flies the mean of
    every command since the last one, drawing sigma points at most
    ukf.MAX_PREDICT_DT apart (4 draws over the 0.36 s interval), and the
    replay stays finite and causal: cut inside or after the dropout, it
    writes the full replay's rows bit for bit."""
    sensors = FlightLog({name: hover_log[name] for name in ("odometry", "whisker")})
    log = FlightLog({**hover_log.channels, **drop_window(sensors, 6.0, 6.35).channels})
    assert np.count_nonzero((log["throttle"].t >= 6.0) & (log["throttle"].t < 6.35)) == 70
    with monkeypatch.context() as m:
        rec = record_sigma_draws(m)
        t, table = estimate(log, route, weights)
    assert rec["draws"] == len(rec["times"])
    gaps = np.diff(rec["times"])
    assert gaps.max() <= ukf.MAX_PREDICT_DT
    assert np.count_nonzero(gaps > 0.05) == 4
    assert np.all(np.isfinite(table))
    assert not np.any((t >= 6.0) & (t < 6.35)) and t[-1] > 6.35
    for cut in (6.2, 7.0):
        t_cut, table_cut = estimate(truncated(log, cut), route, weights)
        n = t_cut.shape[0]
        assert np.array_equal(t_cut, t[:n])
        assert np.array_equal(table_cut.view(np.uint64), table[:n].view(np.uint64))


# ---------------------------------------------------------------------------
# ground truth


def test_lstm_route_does_not_read_truth(hover_log, weights):
    """The learned route's window is the span the sensor channels cover:
    cutting the truth channel short or dropping it leaves the estimate
    bit for bit as it is."""
    t_ref, table_ref = estimate(hover_log, "lstm", weights)
    truth = hover_log["truth"]
    keep = (truth.t >= 2.0) & (truth.t <= 9.0)
    cut = FlightLog(dict(hover_log.channels))
    cut.add("truth", truth.t[keep], truth.data[keep], truth.columns)
    dropped = FlightLog({k: ch for k, ch in hover_log.channels.items() if k != "truth"})
    for log in (cut, dropped):
        t, table = estimate(log, "lstm", weights)
        assert np.array_equal(t, t_ref)
        assert np.array_equal(table, table_ref)


# ---------------------------------------------------------------------------
# composed faults


def apply_fault(log, fault):
    """log with one in-memory fault (kind, channel, column, t, length) of
    the strategy below applied; each kind leaves every row before t alone."""
    kind, channel, column, t, length = fault
    if kind == "drop_window":
        return drop_window(log, t, t + length)
    if kind == "truncate_channel":
        return truncate_channel(log, channel, t)
    ch = log[channel]
    if not np.any(ch.t >= t):  # a channel cut short before t has no row to set
        return log
    return set_value(log, channel, ch.columns[column % len(ch.columns)], t)[0]


def swap_rows(directory, log, fault):
    """Swap the row of fault's channel at or after its time (the last row
    but one at the latest) with the next one in the log saved to directory."""
    _, channel, _, t, _ = fault
    k = min(int(np.searchsorted(log[channel].t, t)), log[channel].t.size - 2)
    swap_lines(directory / f"{channel}.csv", k + 2, k + 3)  # body row k is line k + 2


def first_time_defect(directory):
    """file:line of the first row whose t does not come after the previous
    row's, in the first such file in name order, or None: the load's rule,
    read off the files' text."""
    for path in sorted(directory.glob("*.csv")):
        t = [float(line.split(",", 1)[0]) for line in path.read_text().splitlines()[1:]]
        for k in range(1, len(t)):
            if t[k] <= t[k - 1]:
                return f"{path}:{k + 2}: "
    return None


if given is None:

    def test_composed_faults_leave_the_replay_finite_and_causal():
        pytest.skip("needs Hypothesis")

else:
    FAULT = st.tuples(
        st.sampled_from(("drop_window", "set_value", "truncate_channel", "swap_lines")),
        st.sampled_from(pipeline.ROUTE_CHANNELS["lstm"]),  # the model route's and imu
        st.integers(0, 31),  # set_value's column, modulo the channel's width
        # the fault's time, after the driver's calibration window [0, 0.8] s
        st.floats(CALIB_DURATION_S, 11.5, exclude_min=True),
        st.floats(0.005, 2.0),  # drop_window's length
    )

    @pytest.fixture(scope="module")
    def clean_replays(hover_log, weights):
        return {route: estimate(hover_log, route, weights) for route in ROUTES}

    @settings(max_examples=8, derandomize=True, database=None, deadline=None)
    @given(faults=st.lists(FAULT, min_size=1, max_size=3))
    def test_composed_faults_leave_the_replay_finite_and_causal(
        hover_log, weights, clean_replays, tmp_path_factory, faults
    ):
        """Missing windows, NaN values, channels cut short and swapped rows,
        one to three at random channels and times.  Swapped rows in the
        saved log are refused at load with the file and line of the first
        row out of order.  Otherwise the replay on either route (the LSTM
        one with the golden weights) finishes with finite rows, and its
        rows before the first fault's time are the clean replay's, bit for
        bit."""
        log = hover_log
        for fault in faults:
            if fault[0] != "swap_lines":
                log = apply_fault(log, fault)
        swaps = [fault for fault in faults if fault[0] == "swap_lines"]
        if swaps:
            directory = tmp_path_factory.mktemp("swapped")
            save_log(FlightLog({name: log[name] for name in pipeline.ROUTE_CHANNELS["lstm"]}),
                     directory)
            for fault in swaps:
                swap_rows(directory, log, fault)
            defect = first_time_defect(directory)
            if defect is not None:  # two swaps of one pair leave the file as it was
                with pytest.raises(LogFormatError, match=re.escape(defect)):
                    load_log(directory)
                return
        first = min(fault[3] for fault in faults)
        for route in ROUTES:
            t, table = estimate(log, route, weights)
            assert np.all(np.isfinite(table))
            t_clean, table_clean = clean_replays[route]
            n = int(np.searchsorted(t_clean, first))
            assert np.array_equal(t[:n], t_clean[:n])
            assert np.array_equal(table[:n].view(np.uint64), table_clean[:n].view(np.uint64))
