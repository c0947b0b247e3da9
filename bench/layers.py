"""The layers the traced run wraps, and the end-to-end metric each should move.

Each entry names a public function of a `windest` module by its module or
class attribute.  The traced run replaces that attribute (and every alias
another `windest` module imported under the same object) with a wrapper
that records one span per call.  `per_event` marks functions called once
per log event or control tick; they also report call-duration
percentiles.  `moves` is the prediction written down before any
optimisation: which end-to-end metric a gain in this layer should move,
on which workload.

Workloads: `replay_model`, `replay_lstm_long` (see run.py).  The fit of
the learned route (simulator, sysid, training) runs in the set-up of
`replay_lstm_long`, so it moves that workload's `setup_s`.
End-to-end metrics: `setup_s`, `op_s`, `rtf`, `airflow_rms_mps`,
`wind_rms_mps`, `touch_rms_n`, `peak_rss_mb`, `ok_rate` (see README.md).
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Layer:
    target: str  # "<module>.<function>" or "<module>.<Class>.<method>"
    per_event: bool
    moves: str


LAYERS = (
    Layer("ukf.predict", True, "rtf and op_s on both replays"),
    Layer("ukf.update_odometry", True, "rtf and op_s on both replays"),
    Layer("ukf.output", True, "rtf and op_s on both replays"),
    Layer("ukf.update_airflow", True, "rtf and op_s on replay_model only"),
    Layer("ukf.update_pseudo_airflow", True, "rtf and op_s on replay_lstm_long only"),
    Layer("geometry.sigma_points", True, "rtf on both replays, mostly as a child of ukf.predict"),
    Layer("geometry.reconstruct", True, "rtf on both replays, mostly as a child of ukf.predict"),
    Layer("vehicle.euler_step_arrays", True, "rtf on both replays, as a child of ukf.predict"),
    Layer("whisker.rig_predict", True,
          "rtf on replay_model (child of ukf.update_airflow); setup_s via the simulator"),
    Layer("whisker.synthesize_field", True, "setup_s on both replays (the simulator)"),
    Layer("logio.Channel.col", True,
          "rtf on both replays, more on replay_lstm_long than on replay_model (cost grows with log length)"),
    Layer("logio.WhiskerDriver.run", False, "rtf on both replays; setup_s on replay_lstm_long (sysid)"),
    Layer("logio.resample_to_clock", False, "rtf on replay_lstm_long; setup_s on replay_lstm_long (training)"),
    Layer("logio.forward_fill", False, "rtf on replay_lstm_long; setup_s on replay_lstm_long (training)"),
    Layer("logio.load_log", False, "rtf on both replays; setup_s on replay_lstm_long (sysid)"),
    Layer("logio.save_estimate", False, "rtf on both replays"),
    Layer("logio.save_log", False, "setup_s on both replays"),
    Layer("lstm.predict_stream", False, "rtf on replay_lstm_long"),
    Layer("lstm.loss_and_grads", True, "setup_s on replay_lstm_long"),
    Layer("lstm.adam_step", True, "setup_s on replay_lstm_long"),
    Layer("lstm.train", False, "setup_s on replay_lstm_long"),
    Layer("sim.run_scenario", False, "setup_s on both replays (the simulator)"),
    Layer("sim.Controller.step", True, "setup_s on both replays (the simulator)"),
    Layer("sysid.collect_drag_samples", False, "setup_s on replay_lstm_long"),
    Layer("sysid.fit_drag_polynomial", False, "setup_s on replay_lstm_long"),
    Layer("sysid.identify_rig_coefficients", False, "setup_s on replay_lstm_long"),
    Layer("pipeline.run_estimate", False, "parent span of the filter replay"),
    Layer("pipeline.driver_angles", False, "parent span of logio.WhiskerDriver.run"),
    Layer("pipeline.pseudo_airflow", False, "parent span of the learned route's inference"),
    Layer("pipeline.training_block", False, "parent span of the regressor's feature build"),
)

# Ratios recorded at the layer where the work happens; each is reported
# with its base (the denominator) in the run's detail line.
RATIOS = (
    # accepted / sensor samples, from the accept mask
    ("logio.WhiskerDriver.accept_ratio", "ratio", "higher"),
    # accepted / attempted measurement updates
    ("ukf.update.accept_ratio", "ratio", "higher"),
    # rows read / seconds inside load_log
    ("logio.load_log.rows_per_s", "1/s", "higher"),
    # rows written / seconds inside save_log
    ("logio.save_log.rows_per_s", "1/s", "higher"),
)

# Figures the traced run reports next to the layer times.  The fit's
# figures come from replay_lstm_long's set-up only, so they cannot be
# end-to-end metrics that every workload reports.  0 where not produced.
EXTRAS = (
    ("sysid.fit_drag_polynomial.rel_err", "ratio", "lower"),
    ("lstm.train.epoch_s", "s", "lower"),
    ("sim.run_scenario.rtf", "s/s", "higher"),
    ("bench.trace.overhead_pct", "%", "lower"),
)


def metric_specs():
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer.target}.calls", "count", "lower"))
        out.append((f"{layer.target}.self_s", "s", "lower"))
        if layer.per_event:
            out.append((f"{layer.target}.p50_us", "us", "lower"))
            out.append((f"{layer.target}.p99_us", "us", "lower"))
    return out + list(RATIOS) + list(EXTRAS)
