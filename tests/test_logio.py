"""Log files, resampling, the outlier-rejecting driver, config files."""

import errno
import os

import numpy as np
import pytest

from windest import logio, pipeline, whisker
from windest.logio import (
    DriverConfig,
    FlightLog,
    LogFormatError,
    WhiskerDriver,
    load_estimate,
    load_log,
    parse_config,
    recovery_samples,
    resample_to_clock,
    save_config,
    save_estimate,
    save_log,
    whisker_fields,
    zoh_indices,
)
from windest.whisker import WhiskerRig, SensorMount, default_rig, synthesize_field


def tiny_log():
    log = FlightLog()
    rng = np.random.default_rng(60)
    t200 = np.arange(0.0, 1.0, 1.0 / 200.0)
    t50 = np.arange(0.0, 1.0, 1.0 / 50.0)
    log.add("imu", t200, rng.normal(size=(t200.size, 3)), ["ax", "ay", "az"])
    log.add("whisker", t50, rng.normal(size=(t50.size, 2)), ["theta_x_0", "theta_y_0"])
    return log


def test_log_round_trip(tmp_path):
    log = tiny_log()
    save_log(log, tmp_path)
    log2 = load_log(tmp_path)
    for name in ("imu", "whisker"):
        assert np.array_equal(log[name].t, log2[name].t)
        assert np.array_equal(log[name].data, log2[name].data)
        assert log[name].columns == log2[name].columns


def test_load_log_missing_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_log(tmp_path / "nope")


def test_load_log_reports_line(tmp_path):
    log = tiny_log()
    save_log(log, tmp_path)
    path = tmp_path / "imu.csv"
    lines = path.read_text().splitlines()
    lines[3] = "0.01,1.0,broken,2.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogFormatError, match=r"imu\.csv:4"):
        load_log(tmp_path)


def test_load_log_field_count(tmp_path):
    log = tiny_log()
    save_log(log, tmp_path)
    path = tmp_path / "imu.csv"
    lines = path.read_text().splitlines()
    lines[2] = "0.005,1.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogFormatError, match="expected 4 fields"):
        load_log(tmp_path)


def test_load_log_hash_in_field_reports_line(tmp_path):
    log = tiny_log()
    save_log(log, tmp_path)
    path = tmp_path / "imu.csv"
    lines = path.read_text().splitlines()
    lines[5] = "0.02,1.0,2.0 # note,3.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogFormatError, match=r"imu\.csv:6"):
        load_log(tmp_path)


def test_load_log_skips_blank_lines(tmp_path):
    log = tiny_log()
    save_log(log, tmp_path)
    # an empty line in one file, a line of spaces in the other
    for name, blank in (("imu", ""), ("whisker", "  ")):
        path = tmp_path / f"{name}.csv"
        lines = path.read_text().splitlines()
        lines[3:3] = [blank, blank]
        path.write_text("\n".join(lines) + "\n")
    log2 = load_log(tmp_path)
    for name in ("imu", "whisker"):
        assert np.array_equal(log2[name].t, log[name].t)
        assert np.array_equal(log2[name].data, log[name].data)


def test_load_log_header_only(tmp_path):
    (tmp_path / "imu.csv").write_text("t,ax,ay,az\n")
    ch = load_log(tmp_path)["imu"]
    assert ch.t.shape == (0,)
    assert ch.data.shape == (0, 3)


SPECIAL_VALUES = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
                  1.0, -3.0, 12345678.0, 1e16, 0.1, 1.0 / 3.0]


def f_string_csv(columns, t, data):
    """The CSV text as written one f-string per value."""
    lines = ["t," + ",".join(columns)]
    for k in range(t.shape[0]):
        lines.append(",".join([f"{t[k]:.17g}"] + [f"{v:.17g}" for v in data[k]]))
    return "\n".join(lines) + "\n"


def test_saved_bytes_equal_f_string_reference(tmp_path):
    rng = np.random.default_rng(64)
    vals = np.array(SPECIAL_VALUES)
    table = np.concatenate([rng.permutation(np.resize(vals, 12 * 10)).reshape(10, 12),
                            rng.normal(size=(5, 12)) * 10.0 ** rng.integers(-300, 300, (5, 12))])
    t = np.arange(table.shape[0]) * 0.02
    log = FlightLog()
    log.add("imu", t, table[:, :3], ["ax", "ay", "az"])
    save_log(log, tmp_path)
    assert (tmp_path / "imu.csv").read_text() == f_string_csv(["ax", "ay", "az"], t, table[:, :3])
    save_estimate(tmp_path / "estimate.csv", t, table)
    assert (tmp_path / "estimate.csv").read_text() == f_string_csv(logio.ESTIMATE_COLUMNS, t, table)
    t2, data = load_estimate(tmp_path / "estimate.csv")
    assert np.array_equal(t2, t)
    assert np.array_equal(data, table, equal_nan=True)
    assert np.array_equal(np.signbit(data), np.signbit(table))


def odd_sized_log():
    """Channels of 0, 1, 2, 7 and 2 * _BLOCK_ROWS + 3 rows, the special
    values spread over them."""
    rng = np.random.default_rng(66)
    log = FlightLog()
    for n in (0, 1, 2, 7, 2 * logio._BLOCK_ROWS + 3):
        vals = np.resize(rng.permutation(SPECIAL_VALUES), 3 * n).reshape(n, 3)
        wide = rng.random((n, 3)) < 0.5
        vals[wide] = rng.normal(size=wide.sum()) * 10.0 ** rng.integers(-300, 300, wide.sum())
        log.add(f"c{n}", np.arange(n) * 0.02, vals, ["a", "b", "c"])
    return log


def saved_texts(log, directory):
    save_log(log, directory)
    return {name: (directory / f"{name}.csv").read_text() for name in log.channels}


def test_save_log_equals_f_string_reference_at_every_length(tmp_path):
    """The two processes' halves join into the one-f-string-per-value text,
    with an empty, a one-row and an odd second half among the channels."""
    log = odd_sized_log()
    texts = saved_texts(log, tmp_path)
    for name, ch in log.channels.items():
        assert texts[name] == f_string_csv(ch.columns, ch.t, ch.data)


def fork_failing(*args):
    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


@pytest.mark.parametrize("no_fork", ["deleted", "raising"])
def test_save_log_without_fork_writes_the_same_bytes(tmp_path, monkeypatch, no_fork):
    log = odd_sized_log()
    forked = saved_texts(log, tmp_path / "forked")
    if no_fork == "deleted":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", fork_failing)
    assert saved_texts(log, tmp_path / "in_process") == forked


def test_failure_in_the_writer_process_raises_in_the_caller(tmp_path, monkeypatch):
    """A file the child fails on is named by an OSError in the parent, and
    the child is reaped."""
    parent, write_csv = os.getpid(), logio._write_csv

    def fail_in_child(path, *args):
        if os.getpid() != parent and path.endswith("c7.csv"):
            raise OSError(errno.ENOSPC, "No space left on device")
        write_csv(path, *args)

    monkeypatch.setattr(logio, "_write_csv", fail_in_child)
    with pytest.raises(OSError, match=r"c7\.csv: OSError: .*No space left on device"):
        save_log(odd_sized_log(), tmp_path)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failure_in_the_caller_leaves_no_writer_process(tmp_path, monkeypatch):
    parent, csv_blocks = os.getpid(), logio._csv_blocks

    def fail_in_parent(t, data):
        if os.getpid() == parent:
            raise MemoryError
        return csv_blocks(t, data)

    monkeypatch.setattr(logio, "_csv_blocks", fail_in_parent)
    with pytest.raises(MemoryError):
        save_log(odd_sized_log(), tmp_path)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_missing_channel_message():
    log = tiny_log()
    with pytest.raises(KeyError, match="odometry"):
        log["odometry"]


def test_zoh_indices():
    src = np.array([0.0, 0.1, 0.2, 0.3])
    clock = np.array([0.0, 0.05, 0.1, 0.25, 0.31])
    assert list(zoh_indices(src, clock)) == [0, 0, 1, 2, 3]


def test_resample_takes_every_fourth():
    log = FlightLog()
    t200 = np.arange(0.0, 1.0, 1.0 / 200.0)
    t50 = np.arange(0.0, 1.0, 1.0 / 50.0)
    ramp = np.arange(t200.size, dtype=float)[:, None]
    log.add("imu", t200, ramp, ["ax"])
    log.add("whisker", t50, np.zeros((t50.size, 1)), ["theta_x_0"])
    rs = resample_to_clock(log)
    assert np.allclose(rs["imu"].data[:, 0], np.arange(0, t200.size, 4))


def test_resample_constant_channels():
    log = FlightLog()
    log.add("imu", np.arange(0.0, 1.0, 0.005), np.full((200, 1), 3.3), ["ax"])
    log.add("whisker", np.arange(0.0, 1.0, 0.02), np.full((50, 1), 1.1), ["theta_x_0"])
    rs = resample_to_clock(log)
    assert np.all(rs["imu"].data == 3.3)
    assert np.all(rs["whisker"].data == 1.1)


def test_resample_overlap_only():
    log = FlightLog()
    # imu starts late and ends early; clock ticks outside must drop
    log.add("imu", np.arange(0.1, 0.8, 0.005), np.zeros((140, 1)), ["ax"])
    log.add("whisker", np.arange(0.0, 1.0, 0.02), np.zeros((50, 1)), ["theta_x_0"])
    t = resample_to_clock(log)["whisker"].t
    assert t[0] >= 0.1
    assert t[-1] <= 0.8 - 0.005 + 1e-12


def test_resample_idempotent():
    rs = resample_to_clock(tiny_log())
    rs2 = resample_to_clock(rs)
    assert list(rs2.channels) == list(rs.channels)
    for name in rs.channels:
        assert np.array_equal(rs[name].t, rs["whisker"].t)
        assert np.array_equal(rs[name].data, rs2[name].data)
        assert np.array_equal(rs[name].t, rs2[name].t)


def test_resample_names_a_channel_without_rows():
    log = tiny_log()
    log.add("imu", [], np.empty((0, 3)), ["ax", "ay", "az"])
    with pytest.raises(LogFormatError, match=r"^imu\.csv: no rows"):
        resample_to_clock(log)


def test_forward_fill():
    arr = np.array([[1.0, 2.0], [np.nan, 0.0], [3.0, 4.0], [np.nan, np.nan]])
    out = logio.forward_fill(arr)
    assert np.allclose(out, [[1, 2], [1, 2], [3, 4], [3, 4]])
    lead = logio.forward_fill(np.array([[np.nan], [5.0]]))
    assert np.allclose(lead, [[0.0], [5.0]])


def forward_fill_by_rows(arr):
    """forward_fill's rule one row at a time: a row holding a non-finite
    value takes the last finite row, zeros before the first."""
    arr = np.asarray(arr, dtype=float)
    out = arr.reshape(arr.shape[0], -1).copy()
    bad = ~np.all(np.isfinite(out), axis=1)
    last = np.zeros(out.shape[1])
    for k in range(out.shape[0]):
        if bad[k]:
            out[k] = last
        else:
            last = out[k]
    return out.reshape(arr.shape)


@pytest.mark.parametrize(
    "case", ["random", "leading", "all_nan", "one_column", "three_axes", "single_row"]
)
def test_forward_fill_equals_the_row_loop_bitwise(case):
    rng = np.random.default_rng(64)
    arr = rng.normal(size=(200, 3))
    bad = rng.random(arr.shape) < 0.2
    arr[bad] = rng.choice([np.nan, np.inf, -np.inf], size=int(bad.sum()))
    if case == "leading":
        arr[:7, 1] = np.nan
    elif case == "all_nan":
        arr[:] = np.nan
    elif case == "one_column":
        arr = arr[:, 0]
    elif case == "three_axes":
        arr = arr.reshape(50, 4, 3)
    elif case == "single_row":
        arr = arr[:1]
    out = logio.forward_fill(arr)
    assert out.shape == arr.shape
    assert out.tobytes() == forward_fill_by_rows(arr).tobytes()
    if case in ("leading", "all_nan"):
        assert not out[0].any()


# ---------------------------------------------------------------------------
# driver


def one_sensor_rig(coeff=0.01):
    return WhiskerRig([SensorMount("s0", [0.0, 0.0, 0.0], np.eye(3), coeff)])


def drive(cfg, window, rows, rig=None):
    """(theta, accept) of the rows after the calibration window, from one
    WhiskerDriver.run over the window (at most 40 rows, 0.02 s apart, so
    all of them calibrate) and then the rows, a second apart."""
    rig = rig or one_sensor_rig()
    window, rows = np.asarray(window, dtype=float), np.asarray(rows, dtype=float)
    t = np.concatenate((0.02 * np.arange(len(window)), 1.0 + np.arange(len(rows))))
    theta, accept = WhiskerDriver(rig, cfg).run(t, np.concatenate((window, rows)))
    return theta[len(window):], accept[len(window):]


def first_accepted(accept):
    """1-based index of the first accepted row, None when there is none."""
    hits = np.flatnonzero(accept)
    return int(hits[0]) + 1 if hits.size else None


def test_driver_accepts_at_reference():
    b = [[0.0, 0.0, 100.0]]
    theta, accept = drive(DriverConfig(threshold_floor=50.0), [b], [b, b])
    assert accept.all()
    assert np.all(np.isfinite(theta))


def test_driver_rejects_step_but_tracks():
    """A rejected sample still blends into the reference: after 100 and
    then 500 it is 0.7*100 + 0.3*500 = 220, so against a 50-count gate
    269 is accepted next and 271 is not."""
    cfg = DriverConfig(alpha=0.3, threshold_floor=50.0)
    for after, accepted in ((269.0, True), (271.0, False)):
        theta, accept = drive(cfg, [[[0.0, 0.0, 100.0]]], [[[0.0, 0.0, 500.0]], [[0.0, 0.0, after]]])
        assert list(accept[:, 0]) == [False, accepted]
        assert np.all(np.isnan(theta[0, 0]))


def test_driver_recovery_matches_closed_form():
    """Sustained 400-count step against a 50-count gate: the low-pass
    walks in and sample 7 is the first accepted."""
    assert recovery_samples(50.0, 400.0, 0.3) == 7
    cfg = DriverConfig(alpha=0.3, threshold_floor=50.0)
    _, accept = drive(cfg, [[[0.0, 0.0, 100.0]]], np.full((29, 1, 3), [0.0, 0.0, 500.0]))
    assert first_accepted(accept[:, 0]) == 7


def test_driver_recovery_random_steps():
    rng = np.random.default_rng(61)
    for _ in range(50):
        alpha = rng.uniform(0.05, 0.6)
        thr = rng.uniform(5.0, 80.0)
        step = rng.uniform(1.0, 60.0) * thr / 5.0
        predicted = recovery_samples(thr, step, alpha)
        cfg = DriverConfig(alpha=alpha, threshold_floor=thr)
        _, accept = drive(cfg, [[[0.0, 0.0, 100.0]]], np.full((499, 1, 3), [0.0, 0.0, 100.0 + step]))
        assert first_accepted(accept[:, 0]) == predicted


def test_driver_calibration_offsets():
    """The offset is the window's mean decoded deflection, so the rest
    field of the window's mean angle decodes to about zero, and so does
    the window's last row."""
    rng = np.random.default_rng(62)
    theta0 = np.array([0.03, -0.02])
    window = synthesize_field(theta0 + rng.normal(0.0, 1e-4, size=(40, 2)))[:, None, :]
    theta, accept = drive(DriverConfig(), window, [synthesize_field(theta0)[None], window[-1]])
    assert accept.all()
    assert np.allclose(theta[0, 0], 0.0, atol=1e-4)
    assert np.allclose(theta[1, 0], 0.0, atol=5e-4)


def test_driver_threshold_floor():
    """A zero-noise window floors the gate at threshold_floor: 2.4 counts
    off the rest field is accepted and 2.6 is not."""
    window = np.zeros((10, 1, 3)) + [0.0, 0.0, 100.0]
    for dz, accepted in ((2.4, True), (2.6, False)):
        _, accept = drive(DriverConfig(threshold_floor=2.5), window, [[[0.0, 0.0, 100.0 + dz]]])
        assert accept[0, 0] == accepted


def test_driver_clamps_angles():
    cfg = DriverConfig(threshold_floor=1e9)
    theta, accept = drive(cfg, [[[0.0, 0.0, 100.0]]], [[[300.0, 0.0, 100.0]]])
    assert accept[0, 0]
    assert theta[0, 0, 1] == pytest.approx(0.5)  # arctan(3) clipped


def test_driver_decode_matches_per_mount_decode():
    """One decode call over the whole stream gives each mount's own decode
    less its own offset, clamped, bit for bit; rejected mounts are NaN."""
    rig = default_rig()
    rng = np.random.default_rng(63)
    cfg = DriverConfig(threshold_floor=30.0, clamp=0.3)
    rest = rig.sign * np.array([0.0, 0.0, 100.0])
    window = rest + rng.normal(0.0, 2.0, size=(30, len(rig), 3))
    ticks = rest + rng.normal(0.0, 25.0, size=(200, len(rig), 3))
    theta, accept = drive(cfg, window, ticks, rig)
    for i in range(len(rig)):
        offset = whisker.decode_field(rig.sign[i] * window[:, i]).mean(axis=0)
        raw = whisker.decode_field(rig.sign[i] * ticks[:, i]) - offset
        expect = np.where(accept[:, i, None], np.clip(raw, -cfg.clamp, cfg.clamp), np.nan)
        assert np.array_equal(theta[:, i], expect, equal_nan=True)
    assert 0 < (~accept).sum() < accept.size


def test_driver_run_full_stream(hover_clean):
    log, sc = hover_clean
    fields = whisker_fields(log)
    drv = WhiskerDriver(sc.rig)
    t = log["whisker"].t
    theta, accept = drv.run(t, fields)
    assert theta.shape == (t.size, 4, 2)
    assert accept.all()
    # still air, motionless hold: decoded angles are zero (takeoff and
    # landing climbs do deflect the vertical-sensing mounts)
    hold = (t > sc.plan.t_execute + 1.0) & (t < sc.plan.t_land - 1.0)
    assert hold.sum() > 100
    assert np.nanmax(np.abs(theta[hold])) < 1e-6


def test_whisker_fields_shape(hover_clean):
    log, _ = hover_clean
    fields = whisker_fields(log)
    assert fields.shape == (log["whisker"].t.size, 4, 3)
    assert np.allclose(fields[:, :, 2], whisker.DEFAULT_BZ0 * np.array([1, 1, -1, -1]))


# ---------------------------------------------------------------------------
# estimate and config files


def test_estimate_round_trip(tmp_path):
    rng = np.random.default_rng(63)
    t = np.arange(0.0, 1.0, 0.02)
    table = rng.normal(size=(t.size, 12))
    path = tmp_path / "estimate.csv"
    save_estimate(path, t, table)
    t2, data = load_estimate(path)
    assert np.array_equal(t, t2)
    assert np.array_equal(table, data)


def test_estimate_schema_enforced(tmp_path):
    with pytest.raises(ValueError):
        save_estimate(tmp_path / "estimate.csv", np.zeros(3), np.zeros((3, 5)))
    path = tmp_path / "estimate.csv"
    path.write_text("t,foo\n0.0,1.0\n")
    with pytest.raises(LogFormatError):
        load_estimate(path)


def test_config_round_trip(tmp_path):
    cfg = {
        "mass_kg": 1.31,
        "drag_mu": np.array([0.2, 0.07]),
        "label": "bench",
    }
    path = tmp_path / "params.cfg"
    save_config(cfg, path, header="identified parameters")
    out = parse_config(path)
    assert out["mass_kg"] == 1.31
    assert np.allclose(out["drag_mu"], [0.2, 0.07])
    assert out["label"] == "bench"


def test_config_error_reports_line(tmp_path):
    path = tmp_path / "params.cfg"
    path.write_text("mass_kg = 1.31\njust a dangling phrase\n")
    with pytest.raises(LogFormatError, match=r"params\.cfg:2"):
        parse_config(path)


def test_rig_config_round_trip(tmp_path):
    rig = default_rig()
    path = tmp_path / "rig.cfg"
    save_config(pipeline.config_to_dict(pipeline.EstimatorConfig(rig=rig)), path)
    rig2 = pipeline.config_from_dict(parse_config(path)).rig
    assert len(rig2) == len(rig)
    for a, b in zip(rig.mounts, rig2.mounts):
        assert a.name == b.name
        assert np.allclose(a.r, b.r)
        assert np.allclose(a.rot, b.rot)
        assert a.coeff == b.coeff
        assert a.polarity == b.polarity
