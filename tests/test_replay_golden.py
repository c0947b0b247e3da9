"""Replay regression guards: golden estimate tables and per-event cost.

The tables in tests/data are written by `python tests/regen_golden.py
replay` (logio.save_estimate of golden_replay below), on the flights
model_flight and hover_flight simulate:

    golden_estimate_model.csv  run_estimate(log, EstimatorConfig(), "model")
                               on sim.four_phase_scenario(seed=7, phase_len=0.5)
    golden_estimate_model_gated.csv
                               the model route as above with
                               EstimatorConfig(gate=True); the gate
                               rejects 48 of 619 airflow and 134 of 1237
                               odometry updates on this flight (55
                               airflow updates return accepted False:
                               at 7 more ticks the driver rejects
                               every mount)
    golden_estimate_lstm.csv   run_estimate(log, EstimatorConfig(), "lstm",
                               weights=lstm.init_params(np.random.default_rng(0)))
                               on sim.hover_scenario(seed=8, duration=2.0)
    golden_estimate_lstm_imu_trimmed.csv
                               the LSTM route as above on the same hover
                               flight with its imu channel cut to
                               [2.0, 9.0] s

A change that alters the simulator's output for these seeds
regenerates them from the replay as it stood before the change; a
change that moves the replay's estimates beyond TOL on purpose
regenerates them after it, with all ten acceptance criteria passing.
The tables were last written once the Euler step turned the attitude
at the step's mean rate; that moved them by at most 2.4e-2 (model and
gated, touch_x at 6.44 s), 4.7e-8 (LSTM) and 5.0e-8 (LSTM imu-trimmed),
with the gated rejection counts unchanged.  Earlier regenerations are
described in CHANGES.md.
"""

import cProfile
import os

import numpy as np
import pytest

from windest import geometry, logio, lstm, pipeline, sim, ukf
from windest.logio import Channel, FlightLog

DATA = os.path.join(os.path.dirname(__file__), "data")
TOL = 1e-9
# Python-level calls per event of the golden model-route replay, profiled
# after one warm-up replay (33.793-33.794 when it was set)
CALLS_PER_EVENT = 33.86


def model_flight():
    return sim.run_scenario(sim.four_phase_scenario(seed=7, phase_len=0.5))


def hover_flight():
    return sim.run_scenario(sim.hover_scenario(seed=8, duration=2.0))


def golden_weights():
    return lstm.init_params(np.random.default_rng(0))


def imu_trimmed(log):
    """The log with its imu channel cut to [2.0, 9.0] s."""
    imu = log["imu"]
    keep = (imu.t >= 2.0) & (imu.t <= 9.0)
    out = FlightLog(dict(log.channels))
    out.channels["imu"] = Channel("imu", imu.t[keep], imu.data[keep], list(imu.columns))
    return out


GOLDEN_TABLES = (
    "golden_estimate_model.csv",
    "golden_estimate_model_gated.csv",
    "golden_estimate_lstm.csv",
    "golden_estimate_lstm_imu_trimmed.csv",
)


def golden_replay(name, model_log, hover_log, weights):
    """The replay whose (t, table) tests/data/<name> holds: the model
    route on model_log, the LSTM route on hover_log."""
    config = pipeline.EstimatorConfig(gate=name == "golden_estimate_model_gated.csv")
    if name.startswith("golden_estimate_model"):
        return pipeline.run_estimate(model_log, config, "model")
    log = imu_trimmed(hover_log) if name.endswith("imu_trimmed.csv") else hover_log
    return pipeline.run_estimate(log, config, "lstm", weights=weights)


@pytest.fixture(scope="module")
def model_log():
    return model_flight()


@pytest.fixture(scope="module")
def hover_log():
    return hover_flight()


@pytest.fixture(scope="module")
def weights():
    return golden_weights()


def assert_matches_golden(name, t, table):
    t_ref, table_ref = logio.load_estimate(os.path.join(DATA, name))
    assert t.shape == t_ref.shape
    assert np.array_equal(t, t_ref)
    assert np.max(np.abs(table - table_ref)) <= TOL


def replay_golden(name, model_log, hover_log, weights):
    t, table = golden_replay(name, model_log, hover_log, weights)
    assert_matches_golden(name, t, table)
    return t


def test_model_route_matches_golden(model_log):
    replay_golden("golden_estimate_model.csv", model_log, None, None)


def test_gated_model_route_matches_golden(model_log):
    replay_golden("golden_estimate_model_gated.csv", model_log, None, None)


def test_lstm_route_matches_golden(hover_log, weights):
    replay_golden("golden_estimate_lstm.csv", None, hover_log, weights)


def test_lstm_route_outside_resampled_window_matches_golden(hover_log, weights):
    """Whisker ticks outside the window every channel covers get no pseudo
    update but still one estimate row each."""
    t = replay_golden("golden_estimate_lstm_imu_trimmed.csv", None, hover_log, weights)
    assert np.array_equal(t, hover_log["whisker"].t)


def truncated(log: FlightLog, t_end):
    out = FlightLog()
    for name, ch in log.channels.items():
        keep = ch.t <= t_end
        out.channels[name] = Channel(name, ch.t[keep], ch.data[keep], list(ch.columns))
    return out


@pytest.fixture(scope="module")
def long_log():
    return sim.run_scenario(sim.four_phase_scenario(seed=7, phase_len=2.0))


@pytest.fixture(scope="module")
def full_replays(long_log, weights):
    return {
        source: pipeline.run_estimate(
            long_log, pipeline.EstimatorConfig(), source, weights if source == "lstm" else None
        )
        for source in ("model", "lstm")
    }


@pytest.mark.parametrize("cut", [5.0, 10.0])
@pytest.mark.parametrize("source", ["model", "lstm"])
def test_replay_is_causal(long_log, weights, full_replays, source, cut):
    """A replay of the log cut at t = cut writes, bit for bit, the rows
    the full replay writes up to the cut: no estimate row depends on a
    later sample (18.4 s four_phase flight).

    One exception is by design: the whisker driver calibrates on every
    whisker row up to t0 + logio.CALIB_DURATION_S (0.8 s, inclusive), so
    the rows before that time depend on the samples up to it, and a cut
    or a fault inside the window changes them.  The cuts here lie after
    it."""
    t, table = pipeline.run_estimate(
        truncated(long_log, cut), pipeline.EstimatorConfig(), source,
        weights if source == "lstm" else None,
    )
    t_full, table_full = full_replays[source]
    n = t.shape[0]
    assert t[-1] == cut and n < t_full.shape[0]
    assert np.array_equal(t, t_full[:n])
    assert np.array_equal(table.view(np.uint64), table_full[:n].view(np.uint64))


def col_calls(monkeypatch, log, **kwargs):
    calls = []
    col = Channel.col

    def counting(self, *names):
        calls.append(names)
        return col(self, *names)

    with monkeypatch.context() as m:
        m.setattr(Channel, "col", counting)
        pipeline.run_estimate(log, pipeline.EstimatorConfig(), **kwargs)
    return len(calls)


@pytest.mark.parametrize("source", ["model", "lstm"])
def test_column_reads_do_not_grow_with_log_length(monkeypatch, hover_log, weights, source):
    """Columns are read once per replay, not once per event."""
    kwargs = {"source": source, "weights": weights if source == "lstm" else None}
    short = truncated(hover_log, hover_log["truth"].t[-1] / 2.0)
    n_short = col_calls(monkeypatch, short, **kwargs)
    n_long = col_calls(monkeypatch, hover_log, **kwargs)
    assert n_short == n_long
    assert n_long < 20


def test_reference_quaternion_is_normalized_where_it_is_made(monkeypatch, model_log):
    """Each measurement update normalizes at most one quaternion, the
    reference it makes by folding in the attitude error; predict
    normalizes its new reference on Python floats and its sigma-point
    attitudes (products of unit quaternions) not at all.  Each estimate
    row normalizes its attitude, and the replay normalizes its odometry
    column once.  Nothing normalizes a belief's q_ref again (the replay
    of this flight made 13,600 calls when the belief did, 9,268 after,
    8,031 with the odometry column normalized once, 2,469 with the
    sigma-point attitudes and predict's reference left out, 4,944 once
    predict formed its reference through quat_normalize_rows' float
    path, one call per step, and 3,706 since predict draws once per
    measurement interval)."""
    counts = {"normalize": 0, "steps": 0, "rows": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(
        geometry, "quat_normalize_rows", counting("normalize", geometry.quat_normalize_rows)
    )
    for name in ("predict", "update_odometry", "update_airflow"):
        monkeypatch.setattr(ukf, name, counting("steps", getattr(ukf, name)))
    monkeypatch.setattr(ukf, "output", counting("rows", ukf.output))
    pipeline.run_estimate(model_log, pipeline.EstimatorConfig(), "model")
    # no gap: 1,237 predicts of one stretch each (4,331 calls with one
    # predict per throttle row), 1,237 odometry and 619 whisker updates
    assert counts["steps"] == 3093
    assert counts["normalize"] <= counts["steps"] + counts["rows"]


def record_sigma_draws(monkeypatch):
    """Record the replay's sigma draws by patching ukf and geometry: the
    returned dict's "times" gets each draw's time as the replay runs (a
    predict's draws at the starts of its equal stretches, a whisker
    update's at its belief's time), "predicts" and "updates" the calls
    of predict and of the unscented updates, "draws" every call of
    geometry.sigma_points.  The times count from the first predict: a
    belief holds no time, so "t" sums the dt each predict is handed."""
    rec = {"times": [], "predicts": 0, "updates": 0, "draws": 0, "t": 0.0}
    draw, predict, ut_update = geometry.sigma_points, ukf.predict, ukf._ut_update

    def counting(mean, cov):
        rec["draws"] += 1
        return draw(mean, cov)

    def recording_predict(belief, u, dt, noise, params):
        before = rec["draws"]
        out = predict(belief, u, dt, noise, params)
        k = rec["draws"] - before
        rec["predicts"] += 1
        rec["times"] += [rec["t"] + j * dt / k for j in range(k)]
        rec["t"] += dt
        return out

    def recording_update(belief, *args):
        rec["updates"] += 1
        rec["times"].append(rec["t"])
        return ut_update(belief, *args)

    monkeypatch.setattr(geometry, "sigma_points", counting)
    monkeypatch.setattr(ukf, "sigma_points", counting)
    monkeypatch.setattr(ukf, "predict", recording_predict)
    monkeypatch.setattr(ukf, "_ut_update", recording_update)
    return rec


def test_sigma_points_are_drawn_once_per_measurement_interval(monkeypatch, model_log):
    """On the golden model log (no gap) the replay draws sigma points once
    per predict and once per whisker update, and predicts once per
    odometry or whisker time after the first odometry row: no draw
    happens at a throttle row that no measurement shares (1,237 predicts
    for 2,476 throttle rows).  612 of the 619 whisker rows update; at the
    other 7 the driver rejects every mount, and nothing is drawn."""
    rec = record_sigma_draws(monkeypatch)
    pipeline.run_estimate(model_log, pipeline.EstimatorConfig(), "model")
    odo = model_log["odometry"]
    t_odo = odo.t[np.isfinite(odo.data).all(axis=1)]
    t_meas = np.union1d(t_odo, model_log["whisker"].t)
    assert rec["predicts"] == np.count_nonzero(t_meas > t_odo[0]) == 1237
    assert rec["draws"] == len(rec["times"]) == rec["predicts"] + rec["updates"]
    assert rec["updates"] == 612
    assert rec["predicts"] < model_log["throttle"].t.shape[0] == 2476


@pytest.fixture(scope="module")
def replay_profile(model_log):
    """cProfile's entries over the golden model-route replay, after one
    unprofiled warm-up replay of the same log."""
    pipeline.run_estimate(model_log, pipeline.EstimatorConfig(), "model")  # warm-up
    profile = cProfile.Profile()
    profile.runcall(pipeline.run_estimate, model_log, pipeline.EstimatorConfig(), "model")
    return profile.getstats()


def test_python_calls_per_event_do_not_grow(model_log, replay_profile):
    """The replay's cost is mostly the fixed cost of each Python and numpy
    call on small arrays, so the calls it makes per event (the call
    counts of every code object cProfile saw over the golden model-route
    replay, summed and divided by the log's throttle, odometry and
    whisker rows) must not grow.

    To add calls anyway, raise CALLS_PER_EVENT to just above the new
    count and say in the change's description what the calls buy and
    what they cost in the benchmark's op_s.  When a change lowers the
    count, lower CALLS_PER_EVENT to just above the new count so the
    ratchet holds there.

    The replay is profiled after one unprofiled warm-up replay of the
    same log, so first-call work in the process (imports, caches) is not
    counted and the count does not depend on what ran before.  The count
    is the sum over code objects, not pstats' total_calls, which merges
    the code objects that share a (file, line, name) key (the generated
    __init__ of the dataclasses are all <string>:2).  The ceiling was set
    from three contexts, once the filter called LAPACK through
    geometry.cholesky_lower and geometry.solve and formed its 2-D
    products with ndarray.dot: 33.793 calls per event in a fresh process
    running this test alone, 33.794 after the replays of
    tests/test_log_defects.py and 33.794 in the tier-1 session, with
    numpy 2.4.6 and Python 3.11.7 (47.035 before).  cProfile also counts
    the Python-level and builtin frames inside numpy, so an upgrade of
    either can move the count with no change to this code: re-measure it
    then on the parent commit and on the change, and reset the ceiling
    from the parent's.  cProfile sees builtin methods but not operators:
    ``a.dot(b)`` counts as one call and ``a @ b`` as none, and each
    helper's errstate decorator as four (its wrapper and the three
    builtins that set and reset the error state): trading an operator
    for a method raises the count even where it lowers the time.
    """
    events = sum(model_log[name].t.shape[0] for name in ("throttle", "odometry", "whisker"))
    # one entry per code object: pstats keys its table by (file, line,
    # name), so it keeps only one of the dataclasses' generated __init__s
    calls = sum(entry.callcount for entry in replay_profile)
    assert calls / events <= CALLS_PER_EVENT


def test_replay_runs_no_numpy_python_wrapper(replay_profile):
    """The filter calls LAPACK through geometry.cholesky_lower and
    geometry.solve and reduces with array methods, so no frame of
    numpy.linalg's Python layer or of numpy's fromnumeric wrappers
    (np.all, np.any, np.trace, ...) runs in the replay."""
    files = {
        entry.code.co_filename.replace(os.sep, "/")
        for entry in replay_profile
        if not isinstance(entry.code, str)
    }
    assert [f for f in files if f.endswith(("numpy/linalg/_linalg.py", "numpy/_core/fromnumeric.py"))] == []
