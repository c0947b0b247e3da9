"""Replay estimation over flight logs and score it against truth.

The replay is event-driven over the measurement rows: at each one the
belief is predicted over the interval since the last (one
explicit-Euler step of the error-state sigma points per measurement
interval, driven by one mean command, the difference of the command's
running integral over the throttle rows divided by the interval's
length), then odometry rows
apply the 12-dimensional linear update, whisker rows the unscented
angle update (model route) or the learned relative-airflow pseudo
measurement (regressor route).  Estimates are emitted on the whisker
clock with the fixed estimate-file schema.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field, replace
from itertools import groupby

import numpy as np

from . import lstm as lstm_mod
from . import geometry, logio, sim, ukf
from .logio import DriverConfig, FlightLog, WhiskerDriver
from .vehicle import VehicleParams, drag_force
from .whisker import SensorMount, WhiskerRig, body_airflow, default_rig

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


# One config file key: its owner (section, see _config_rows) and field
# (attr), how its value reads (kind, _KINDS), the values it admits (domain:
# _DOMAIN_CHECKS or else the owner's own check), its unit and meaning.
ConfigKey = namedtuple("ConfigKey", "key section attr kind domain unit meaning")
# Every key, in the order config_to_dict writes them.  A negative density
# or a noise sigma <= 0 makes a covariance that stops factorizing midway,
# a blend outside (0, 1] makes the driver's low-pass hold or diverge, and
# a negative drag or a coefficient <= 0 (the polarity carries the sign)
# has no physical meaning.
CONFIG_SCHEMA = tuple(ConfigKey(*row) for row in (
    ("mass_kg", "vehicle", "mass", "real", "> 0", "kg", "vehicle mass"),
    ("inertia_kgm2", "vehicle", "inertia", "3x3 matrix", "symmetric positive definite",
     "kg m^2", "body inertia, row by row"),
    ("mu1", "vehicle", "mu1", "real", ">= 0", "N s/m", "linear drag coefficient"),
    ("mu2", "vehicle", "mu2", "real", ">= 0", "N s^2/m^2", "quadratic drag coefficient"),
    ("gravity_mps2", "vehicle", "gravity", "real", "> 0", "m/s^2", "gravity"),
    ("q_pos", "process", "pos", "real", ">= 0", "m^2/s", "position noise density"),
    ("q_att", "process", "att", "real", ">= 0", "rad^2/s", "attitude noise density"),
    ("q_vel", "process", "vel", "real", ">= 0", "m^2/s^3", "velocity noise density"),
    ("q_gyro", "process", "gyro", "real", ">= 0", "rad^2/s^3", "body rate noise density"),
    ("q_touch", "process", "touch", "real", ">= 0", "N^2/s", "touch force random walk density"),
    ("q_wind", "process", "wind", "real", ">= 0", "m^2/s^3", "wind random walk density"),
    ("r_odo_pos_m", "meas", "odo_pos", "real", "> 0", "m", "odometry position sigma"),
    ("r_odo_att_rad", "meas", "odo_att", "real", "> 0", "rad", "odometry attitude sigma"),
    ("r_odo_vel_mps", "meas", "odo_vel", "real", "> 0", "m/s", "odometry velocity sigma"),
    ("r_odo_gyro_radps", "meas", "odo_gyro", "real", "> 0", "rad/s", "odometry body rate sigma"),
    ("r_whisker_rad", "meas", "whisker", "real", "> 0", "rad", "whisker angle sigma"),
    ("r_pseudo_mps", "meas", "pseudo", "real", "> 0", "m/s", "learned airflow sigma"),
    ("gate_enabled", "", "gate", "bool", "0, 1, false or true", "-",
     "chi-square gate on every update"),
    ("init_sigma_touch_N", "", "init_sigma_touch", "real", "> 0", "N", "initial touch sigma"),
    ("init_sigma_wind_mps", "", "init_sigma_wind", "real", "> 0", "m/s", "initial wind sigma"),
    ("driver_alpha", "driver", "alpha", "real", "in (0, 1]", "-", "driver low-pass blend"),
    ("driver_nsigma", "driver", "nsigma", "real", "> 0", "-", "driver outlier gate in sigmas"),
    ("driver_clamp_rad", "driver", "clamp", "real", "> 0", "rad", "limit on decoded angles"),
    ("sensor_count", "rig", "mounts", "integer", "integer >= 1", "-", "number of whisker mounts"),
    ("sensor{i}_name", "mount", "name", "text", "any text", "-", "mount name"),
    ("sensor{i}_pos_m", "mount", "r", "3-vector", "finite", "m", "position on the body"),
    ("sensor{i}_rot", "mount", "rot", "3x3 matrix", "rotation matrix", "-",
     "sensor axes as columns, body frame, row by row"),
    ("sensor{i}_coeff", "mount", "coeff", "real", "> 0", "rad s^2/m^2", "deflection coefficient"),
    ("sensor{i}_polarity", "mount", "polarity", "text", "north_up or south_up", "-",
     "magnet pole facing up"),
))
# (key, section, field) of the keys EstimatorConfig's own fields hold
CONFIG_KEYS = tuple(row[:3] for row in CONFIG_SCHEMA if row.section not in ("rig", "mount"))


def _text(value):
    """Text as it is; a number (unquoted text that reads as one) is refused."""
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not text")
    return value


# each kind read from a logio.parse_config value: float, float array or str
_KINDS = {
    "real": float,
    "integer": float,
    "bool": {0.0: False, 1.0: True, "false": False, "true": True}.__getitem__,
    "3-vector": lambda v: np.asarray(v, dtype=float).reshape(3),
    "3x3 matrix": lambda v: np.asarray(v, dtype=float).reshape(3, 3),
    "text": _text,
}
_DOMAIN_CHECKS = {
    ">= 0": lambda v: v >= 0.0,
    "> 0": lambda v: v > 0.0,
    "in (0, 1]": lambda v: 0.0 < v <= 1.0,
    "integer >= 1": lambda v: v >= 1.0 and v == int(v),
}


def _config_rows(sensor_count):
    """CONFIG_SCHEMA with the mount rows once per mount i, {i} filled in and
    the section "mount{i}"; "" is EstimatorConfig, "rig" sensor_count's."""
    rows = [row for row in CONFIG_SCHEMA if row.section != "mount"]
    for i in range(sensor_count):
        rows += [row._replace(key=row.key.format(i=i), section=f"mount{i}")
                 for row in CONFIG_SCHEMA if row.section == "mount"]
    return rows


def _owners(cfg: EstimatorConfig):
    """The object behind each section of _config_rows."""
    owners = {section: getattr(cfg, section) if section else cfg for _, section, _ in CONFIG_KEYS}
    owners["rig"] = cfg.rig
    owners.update((f"mount{i}", m) for i, m in enumerate(cfg.rig.mounts))
    return owners


def config_to_dict(cfg: EstimatorConfig):
    owners = _owners(cfg)
    out = {}
    for row in _config_rows(len(cfg.rig)):
        val = getattr(owners[row.section], row.attr)
        if row.kind == "integer":
            val = len(val)
        if row.kind != "text":
            val = val.ravel().copy() if isinstance(val, np.ndarray) else float(val)
        out[row.key] = val
    return out


def _config_value(row: ConfigKey, raw):
    """A file value read as the row's kind.  One that does not read, a nan
    or inf, or one outside the domain raises ValueError naming the key."""
    read = _KINDS[row.kind]
    try:
        value = read(raw)
    except (KeyError, TypeError, ValueError):
        hint = " (text that reads as a number goes in double quotes)" if row.kind == "text" else ""
        raise ValueError(f"config key {row.key!r}: bad value {raw!r}{hint}") from None
    if row.kind != "text" and not np.isfinite(value).all():
        raise ValueError(f"config key {row.key!r}: value {raw!r} is not finite")
    holds = _DOMAIN_CHECKS.get(row.domain)
    if holds is not None and not holds(value):
        raise ValueError(f"config key {row.key!r}: value {raw!r} must be {row.domain}")
    return value


def config_from_dict(d: dict):
    """EstimatorConfig from parsed config keys; absent keys keep their
    defaults, and sensor_count replaces the rig, whose sensor{i}_* keys
    must then all be given.  An unknown or missing key, or a value that
    _config_value or the owner's own check (VehicleParams, SensorMount)
    refuses, raises ValueError naming the key."""
    count_row = next(row for row in CONFIG_SCHEMA if row.section == "rig")
    count = int(_config_value(count_row, d[count_row.key])) if count_row.key in d else 0
    # a count beyond the file's keys fails the missing-key check, unexpanded
    rows = _config_rows(min(count, len(d)))
    known = {row.key for row in rows}
    unknown = [key for key in d if key not in known]
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r}")
    missing = [row.key for row in rows if row.key not in d and row.section.startswith("mount")]
    if missing:
        raise ValueError("missing config keys " + ", ".join(map(repr, missing)))
    owners = _owners(EstimatorConfig())
    owners.update((f"mount{i}", SensorMount(f"s{i}", np.zeros(3), np.eye(3))) for i in range(count))
    # one rebuild per owner (the rows of a section are adjacent); when the
    # owner's own check refuses, key by key, so the message names the key
    for section, group in groupby(rows, key=lambda row: row.section):
        given = [(row, _config_value(row, d[row.key])) for row in group if row.key in d]
        if not given or section == "rig":
            continue
        owner = owners[section]
        try:
            owners[section] = replace(owner, **{row.attr: value for row, value in given})
        except ValueError:
            for row, value in given:
                try:
                    owner = replace(owner, **{row.attr: value})
                except ValueError as exc:
                    raise ValueError(f"config key {row.key!r}: {exc}") from None
            owners[section] = owner
    if count:
        owners["rig"] = WhiskerRig([owners[f"mount{i}"] for i in range(count)])
    cfg = owners.pop("")
    return replace(cfg, **{s: v for s, v in owners.items() if not s.startswith("mount")})


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
    t = rs["whisker"].t
    if t.shape[0] == 0:
        raise ValueError(
            "log channels do not overlap: no whisker tick lies inside the "
            "time span every sensor channel covers"
        )
    theta_rs = theta[logio.zoh_indices(t_whisk, t)]
    feats = lstm_mod.build_features(
        logio.forward_fill(theta_rs),
        logio.forward_fill(rs["odometry"].col("wx", "wy", "wz")),
        logio.forward_fill(rs["imu"].col("ax", "ay", "az")),
        logio.forward_fill(rs["throttle"].col(*sim.THROTTLE_COLUMNS[: sim.N_ROTORS])),
        sim.SPIN_DIRS,
    )
    return t, feats


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

    Each odometry or whisker row first hands ukf.predict the mean command
    since the last such row: the difference of the command's running
    integral (a zero-order hold of [f_cmd, tau] over the finite throttle
    rows, the hover wrench before the first) divided by the interval.
    predict draws sigma points once per stretch of at most
    ukf.MAX_PREDICT_DT, so a gap between measurements is split into
    equal stretches.  An interval under 1e-12 s is not predicted.  An
    odometry or throttle row holding a non-finite value is left out.
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
        k0 = int(t_whisk.searchsorted(t_pseudo[0]))
    process, vehicle, gate, rig = cfg.process, cfg.vehicle, cfg.gate, cfg.rig
    # the odometry rows [p, q, v, w] gathered once (a copy), so each event
    # costs the same however long the log; the quaternions normalized in
    # place (a non-finite row stays out of the events and its NaN passes
    # the zero check)
    odo = odo_ch.col(*sim.ODO_COLUMNS)
    odo[:, 3:7] = geometry.quat_normalize_rows(odo[:, 3:7].T).T

    # the command [f_cmd, tau] held from each knot: the hover wrench from
    # the first finite throttle row's t (it reaches back before it), then
    # each finite row; its integral at each knot is a cumsum, which adds
    # left to right, so no knot's integral depends on a later row
    thr_k = np.isfinite(thr_ch.data).all(axis=1).nonzero()[0]
    thr_t = thr_ch.t[thr_k]
    knot_t = np.concatenate((thr_t[:1] if thr_k.shape[0] else [0.0], thr_t))
    cmd = np.concatenate(([(vehicle.mass * vehicle.gravity, 0.0, 0.0, 0.0)],
                          thr_ch.col("f_cmd", "tau_x", "tau_y", "tau_z")[thr_k]))
    knot_integral = np.zeros_like(cmd)
    (cmd[:-1] * np.diff(knot_t)[:, None]).cumsum(axis=0, out=knot_integral[1:])

    # event table: (t, kind, row, command integral), odometry (kind 0)
    # and whisker (kind 1) rows ordered by t and at equal t by kind; a
    # stable sort keeps each channel's row order
    odo_k = np.isfinite(odo_ch.data).all(axis=1).nonzero()[0]
    ev_t = np.concatenate((odo_ch.t[odo_k], t_whisk))
    ev_kind = np.arange(2).repeat((odo_k.shape[0], t_whisk.shape[0]))
    ev_k = np.concatenate((odo_k, np.arange(t_whisk.shape[0])))
    order = np.lexsort((ev_kind, ev_t))
    ev_t = ev_t[order]
    # the integral at each event from the last knot at or before it (the
    # hover knot for an event before the first)
    j = np.maximum(knot_t.searchsorted(ev_t, side="right") - 1, 0)
    ev_integral = cmd[j]
    ev_integral *= (ev_t - knot_t[j])[:, None]
    ev_integral += knot_integral[j]
    # Python floats and ints: each dt and step downstream is a float with
    # the same bits as the np.float64 it replaces
    events = zip(ev_t.tolist(), ev_kind[order].tolist(), ev_k[order].tolist(), ev_integral)

    # looked up per replay, not per event (and not at import: the tracer
    # and the tests replace these module attributes)
    predict, update_odometry, output = ukf.predict, ukf.update_odometry, ukf.output
    update_airflow, update_pseudo_airflow = ukf.update_airflow, ukf.update_pseudo_airflow
    r_whisker, r_pseudo = cfg.meas.whisker**2, cfg.meas.pseudo**2
    odo_cov = cfg.meas.odometry_cov()
    belief = None
    out_t = np.empty(t_whisk.shape[0])
    table = np.empty((t_whisk.shape[0], len(logio.ESTIMATE_COLUMNS)))
    n = 0
    for t, kind, k, integral in events:
        if belief is None:
            if kind == 0:
                belief = ukf.init_belief(odo[k], odo_cov, cfg.init_sigma_touch, cfg.init_sigma_wind)
                # the time and command integral the belief was last predicted to
                held_t, held_integral = t, integral
            continue
        dt = t - held_t
        if dt > 1e-12:
            belief = predict(belief, (integral - held_integral) / dt, dt, process, vehicle)
            held_t, held_integral = t, integral
        if kind == 0:
            belief, _ = update_odometry(belief, odo[k], odo_cov, gate=gate)
        else:
            if source == "model":
                belief, _ = update_airflow(belief, theta[k], r_whisker, rig, gate=gate)
            elif 0 <= k - k0 < t_pseudo.shape[0]:
                belief, _ = update_pseudo_airflow(belief, vinf_pred[k - k0], r_pseudo, gate=gate)
            out_t[n] = t
            table[n] = output(belief, vehicle)
            n += 1
    if not n:
        raise ValueError("log produced no estimates (no odometry before whisker data?)")
    return out_t[:n], table[:n]


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
    mask = logio.window_mask(t_est, window)
    truth = truth_airflow_body(log, t_est[mask])
    est = np.asarray(table, dtype=float)[mask, logio.VINF_COLS]
    return rms(est - truth)
