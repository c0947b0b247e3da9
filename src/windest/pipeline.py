"""Replay estimation over flight logs and score it against truth.

The replay is event-driven: the belief is predicted forward (explicit
Euler over the error-state sigma points) to every event timestamp in
order; throttle rows refresh the commanded wrench, odometry rows apply
the 12-dimensional linear update, whisker rows apply the unscented
angle update (model route) or the learned relative-airflow pseudo
measurement (regressor route).  Estimates are emitted on the whisker
clock with the fixed estimate-file schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import lstm as lstm_mod
from . import geometry, logio, sim, ukf
from .logio import DriverConfig, FlightLog, WhiskerDriver
from .vehicle import VehicleParams, WrenchInput, drag_force
from .whisker import WhiskerRig, body_airflow, default_rig

TRAINING_SKIP_S = 1.0  # s dropped from the start of each training block
# the log channels each airflow source replays: the LSTM's features add
# the IMU's specific force; truth plays no part in either
ROUTE_CHANNELS = {
    "model": ("whisker", "odometry", "throttle"),
    "lstm": ("whisker", "odometry", "imu", "throttle"),
}


@dataclass
class MeasurementNoise:
    odo_pos: float = 0.005
    odo_att: float = np.radians(0.2)
    odo_vel: float = 0.02
    odo_gyro: float = 0.01
    whisker: float = 0.005
    pseudo: float = 0.3

    def odometry_cov(self):
        d = np.concatenate(
            [
                np.full(3, self.odo_pos**2),
                np.full(3, self.odo_att**2),
                np.full(3, self.odo_vel**2),
                np.full(3, self.odo_gyro**2),
            ]
        )
        return np.diag(d)


@dataclass
class EstimatorConfig:
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    rig: WhiskerRig = field(default_factory=default_rig)
    process: ukf.ProcessNoise = field(default_factory=ukf.ProcessNoise)
    meas: MeasurementNoise = field(default_factory=MeasurementNoise)
    driver: DriverConfig = field(default_factory=DriverConfig)
    gate: bool = False
    init_sigma_touch: float = 2.0
    init_sigma_wind: float = 2.0


# Config file keys: (key, EstimatorConfig section or "" for a top-level
# field, field).  Order is the order config_to_dict writes them in; the
# sensor{i}_* keys of the rig come after, from logio.rig_to_config.
CONFIG_KEYS = (
    ("mass_kg", "vehicle", "mass"),
    ("inertia_kgm2", "vehicle", "inertia"),
    ("mu1", "vehicle", "mu1"),
    ("mu2", "vehicle", "mu2"),
    ("gravity_mps2", "vehicle", "gravity"),
    ("q_pos", "process", "pos"),
    ("q_att", "process", "att"),
    ("q_vel", "process", "vel"),
    ("q_gyro", "process", "gyro"),
    ("q_touch", "process", "touch"),
    ("q_wind", "process", "wind"),
    ("r_odo_pos_m", "meas", "odo_pos"),
    ("r_odo_att_rad", "meas", "odo_att"),
    ("r_odo_vel_mps", "meas", "odo_vel"),
    ("r_odo_gyro_radps", "meas", "odo_gyro"),
    ("r_whisker_rad", "meas", "whisker"),
    ("r_pseudo_mps", "meas", "pseudo"),
    ("gate_enabled", "", "gate"),
    ("init_sigma_touch_N", "", "init_sigma_touch"),
    ("init_sigma_wind_mps", "", "init_sigma_wind"),
    ("driver_alpha", "driver", "alpha"),
    ("driver_nsigma", "driver", "nsigma"),
    ("driver_clamp_rad", "driver", "clamp"),
)


# The bounds of the noise and driver keys, with their wording: a negative
# process density, or a noise or initial sigma at or below zero, makes a
# covariance that stops factorizing in the middle of a replay, and a
# low-pass blend outside (0, 1] makes the driver's filter hold or diverge.
_CONFIG_BOUNDS = {
    **{key: ("must be >= 0", lambda v: v >= 0.0)
       for key, section, _ in CONFIG_KEYS if section == "process"},
    **{key: ("must be > 0", lambda v: v > 0.0)
       for key, section, name in CONFIG_KEYS
       if section == "meas" or name.startswith("init_sigma")},
    "driver_alpha": ("must lie in (0, 1]", lambda v: 0.0 < v <= 1.0),
}


def config_to_dict(cfg: EstimatorConfig):
    out = {}
    for key, section, name in CONFIG_KEYS:
        val = getattr(getattr(cfg, section) if section else cfg, name)
        out[key] = val.ravel().copy() if isinstance(val, np.ndarray) else float(val)
    out.update(logio.rig_to_config(cfg.rig))
    return out


_BOOL_VALUES = {0.0: False, 1.0: True, "false": False, "true": True}


def _config_value(key, default, raw):
    """A file value as the type of the field's default.

    A boolean takes 0, 1, false or true only.  A value that does not
    convert, a nan or inf, or a value outside the key's bounds
    (_CONFIG_BOUNDS) raises ValueError naming the key.
    """
    try:
        if isinstance(default, np.ndarray):
            value = np.asarray(raw, dtype=float).reshape(default.shape)
        else:
            value = _BOOL_VALUES[raw] if isinstance(default, bool) else float(raw)
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"config key {key!r}: bad value {raw!r}") from None
    if not np.isfinite(value).all():
        raise ValueError(f"config key {key!r}: value {raw!r} is not finite")
    if key in _CONFIG_BOUNDS:
        wording, holds = _CONFIG_BOUNDS[key]
        if not holds(value):
            raise ValueError(f"config key {key!r}: value {raw!r} {wording}")
    return value


def config_from_dict(d: dict):
    """EstimatorConfig from parsed config keys; absent keys keep their
    defaults, and a key the file format does not have raises ValueError."""
    cfg = EstimatorConfig()
    known = {key for key, _, _ in CONFIG_KEYS}
    if "sensor_count" in d:
        cfg.rig = logio.rig_from_config(d)
        known.update(logio.rig_to_config(cfg.rig))
    for key in d:
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
    fields = {}
    for key, section, name in CONFIG_KEYS:
        if key in d:
            default = getattr(getattr(cfg, section) if section else cfg, name)
            fields.setdefault(section, {})[name] = _config_value(key, default, d[key])
    for section, kw in fields.items():
        if section:
            setattr(cfg, section, replace(getattr(cfg, section), **kw))
        else:
            cfg = replace(cfg, **kw)
    return cfg


def driver_angles(log: FlightLog, cfg: EstimatorConfig):
    """Run the whisker driver over the log; returns (t, theta, accept)."""
    ch = log["whisker"]
    b = logio.whisker_fields(log)
    driver = WhiskerDriver(cfg.rig, cfg.driver)
    theta, accept = driver.run(ch.t, b)
    return ch.t, theta, accept


def whisker_clock_features(log: FlightLog, cfg: EstimatorConfig):
    """The LSTM feature stream on the resampled whisker clock: (t, features).

    Driver angles on the whisker clock, held onto the resampled clock
    (the whisker ticks that all of the LSTM route's ROUTE_CHANNELS
    cover), then stacked with the body rates, specific force and
    signed throttles.  Each block's non-finite rows (rejected samples,
    NaN log values) are filled forward.  Raises ValueError when no
    whisker tick falls inside the window the sensor channels cover.
    """
    t_whisk, theta, _ = driver_angles(log, cfg)
    sensors = FlightLog({name: log[name] for name in ROUTE_CHANNELS["lstm"]})
    rs = logio.resample_to_clock(sensors, "whisker")
    if rs.t.shape[0] == 0:
        raise ValueError(
            "log channels do not overlap: no whisker tick lies inside the "
            "time span every sensor channel covers"
        )
    theta_rs = theta[logio.zoh_indices(t_whisk, rs.t)]
    feats = lstm_mod.build_features(
        logio.forward_fill(theta_rs),
        logio.forward_fill(rs["odometry"].col("wx", "wy", "wz")),
        logio.forward_fill(rs["imu"].col("ax", "ay", "az")),
        logio.forward_fill(rs["throttle"].cols("u", sim.N_ROTORS)),
        sim.SPIN_DIRS,
    )
    return rs.t, feats


def pseudo_airflow(log: FlightLog, cfg: EstimatorConfig, params: lstm_mod.LstmParams):
    """LSTM relative-airflow pseudo measurements on the resampled whisker clock."""
    t, feats = whisker_clock_features(log, cfg)
    return t, lstm_mod.predict_stream(params, feats)


def run_estimate(log: FlightLog, cfg: EstimatorConfig, source="model", weights=None):
    """Replay the filter over a log.

    source "model" fuses whisker angles through the deflection model;
    source "lstm" fuses the learned relative-airflow pseudo measurement
    (weights required) on the whisker ticks of the resampled clock.
    Returns (t, table) on the whisker clock with the estimate-file schema.

    An odometry or throttle row holding a non-finite value is left out.
    ukf.predict splits a gap between events longer than
    ukf.MAX_PREDICT_DT into equal steps.
    """
    if source not in ROUTE_CHANNELS:
        raise ValueError(f"unknown airflow source {source!r}")
    odo_ch = log["odometry"]
    thr_ch = log["throttle"]
    t_whisk = log["whisker"].t
    if source == "model":
        _, theta, _ = driver_angles(log, cfg)
    else:
        if weights is None:
            raise ValueError("lstm source needs weights")
        t_pseudo, vinf_pred = pseudo_airflow(log, cfg, weights)
        # the resampled clock is a contiguous run of whisker ticks from k0
        k0 = int(np.searchsorted(t_whisk, t_pseudo[0]))
    # columns read once, so each event costs the same however long the log
    odo_p = odo_ch.col("px", "py", "pz")
    # unit quaternions, normalized once (a non-finite row stays out of
    # the events and its NaN passes the zero check)
    odo_q = geometry.quat_normalize_rows(odo_ch.col("qw", "qx", "qy", "qz").T).T.copy()
    odo_v = odo_ch.col("vx", "vy", "vz")
    odo_w = odo_ch.col("wx", "wy", "wz")
    thr_f = thr_ch.col("f_cmd")
    thr_tau = thr_ch.col("tau_x", "tau_y", "tau_z")

    # event table: (t, kind, row); kinds ordered so commands refresh first
    events = []
    for k in np.flatnonzero(np.isfinite(thr_ch.data).all(axis=1)):
        events.append((thr_ch.t[k], 0, k))
    for k in np.flatnonzero(np.isfinite(odo_ch.data).all(axis=1)):
        events.append((odo_ch.t[k], 1, k))
    for k, t in enumerate(t_whisk):
        events.append((t, 2, k))
    events.sort(key=lambda e: (e[0], e[1]))

    odo_cov = cfg.meas.odometry_cov()
    wrench = WrenchInput(cfg.vehicle.mass * cfg.vehicle.gravity, np.zeros(3))
    belief = None
    out_t, out_rows = [], []

    def odometry(k):
        return ukf.OdometryMeasurement(odo_p[k], odo_q[k], odo_v[k], odo_w[k], odo_cov)

    for t, kind, k in events:
        if belief is None:
            if kind == 1:
                z = odometry(k)
                belief = ukf.init_belief(
                    t, z, sigma_touch=cfg.init_sigma_touch, sigma_wind=cfg.init_sigma_wind
                )
            continue
        dt = t - belief.t
        if dt > 1e-12:
            belief = ukf.predict(belief, wrench, dt, cfg.process, cfg.vehicle)
        if kind == 0:
            wrench = WrenchInput(float(thr_f[k]), thr_tau[k])
        elif kind == 1:
            z = odometry(k)
            belief, _ = ukf.update_odometry(belief, z, gate=cfg.gate)
        else:
            if source == "model":
                belief, _ = ukf.update_airflow(
                    belief, theta[k], cfg.meas.whisker, cfg.rig, gate=cfg.gate
                )
            elif 0 <= k - k0 < t_pseudo.shape[0]:
                belief, _ = ukf.update_pseudo_airflow(
                    belief, vinf_pred[k - k0], cfg.meas.pseudo**2, gate=cfg.gate
                )
            out_t.append(t)
            out_rows.append(ukf.output(belief, cfg.vehicle))
    if not out_rows:
        raise ValueError("log produced no estimates (no odometry before whisker data?)")
    return np.array(out_t), np.array(out_rows)


def training_block(log: FlightLog, cfg: EstimatorConfig):
    """(features, labels) streams for regressor training, whisker clock.

    Labels are the true body-frame relative airflow; the first
    TRAINING_SKIP_S seconds (driver calibration window) are dropped.
    """
    t, feats = whisker_clock_features(log, cfg)
    labels = truth_airflow_body(log, t)
    keep = t >= t[0] + TRAINING_SKIP_S
    return feats[keep], labels[keep]


# ---------------------------------------------------------------------------
# truth lookups and metrics


def truth_cols(log: FlightLog, t_query, *names):
    """Truth channel columns held onto arbitrary query times, shaped as
    Channel.col shapes them."""
    tr = log["truth"]
    idx = logio.zoh_indices(tr.t, t_query)
    if np.any(idx < 0):
        raise ValueError("query precedes the truth channel")
    return tr.col(*names)[idx]


def truth_airflow_body(log: FlightLog, t_query):
    return body_airflow(
        truth_cols(log, t_query, "qw", "qx", "qy", "qz").T,
        truth_cols(log, t_query, "wind_x", "wind_y", "wind_z").T,
        truth_cols(log, t_query, "vx", "vy", "vz").T,
    ).T


def truth_drag(log: FlightLog, t_query, vehicle: VehicleParams):
    v = truth_cols(log, t_query, "vx", "vy", "vz")
    wind = truth_cols(log, t_query, "wind_x", "wind_y", "wind_z")
    return drag_force((wind - v).T, vehicle).T


def rms(x, axis=0):
    return np.sqrt(np.mean(np.asarray(x, dtype=float) ** 2, axis=axis))


def airflow_rms(log: FlightLog, t_est, table, window=None):
    """Per-axis RMS error of the body relative-airflow estimate."""
    t_est = np.asarray(t_est, dtype=float)
    mask = np.ones(t_est.shape[0], dtype=bool)
    if window is not None:
        mask &= (t_est >= window[0]) & (t_est <= window[1])
    truth = truth_airflow_body(log, t_est[mask])
    est = np.asarray(table, dtype=float)[mask, logio.VINF_COLS]
    return rms(est - truth)


def window_mask(t, window):
    t = np.asarray(t, dtype=float)
    return (t >= window[0]) & (t <= window[1])
