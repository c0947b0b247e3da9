"""Identification of the drag polynomial and whisker coefficients.

Drag: during steady translation the projection of (body-frame thrust
minus inertial acceleration) onto the direction of travel isolates the
aerodynamic drag magnitude; thrust itself is recovered from the attitude
needed to hold altitude, f = m g / R33, where R33 = cos(roll) cos(pitch)
is the world z component of the body z axis.  Fitting force against
speed with a no-intercept [v, v^2] basis yields (mu1, mu2).  The
rotations (acceleration and velocity into the body frame, thrust into
the world) and R33 all come from geometry.rotation_transposed, one
product over the log's samples.

Whisker coefficient: with no ambient wind the relative airflow at a
mount follows from odometry alone, and each paired sample gives
c = |theta| / (|v_inf| |v_inf_xy|); the per-sensor estimate is the
median over sufficiently fast planar samples.

Velocity is low-passed before it is differentiated, with no phase lag:
an order-2 Butterworth filter with its corner at CUTOFF_HZ, from the
bilinear transform pre-warped to that corner, run forward and then
backward over the samples (what scipy.signal.filtfilt does by default,
on numpy alone).  Each end is padded with 9 samples (3 x the filter's 3
taps) by odd extension, and each pass starts from the filter's
steady-state initial conditions scaled by its first input (Gustafsson,
"Determining the initial states in forward-backward filtering", IEEE
TSP 44(4), 1996).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import whisker
from .geometry import quat_normalize_rows, rotation_transposed
from .logio import zoh_indices
from .vehicle import GRAVITY

MIN_PLANAR_SPEED = 0.2  # m/s, coefficient samples below this are discarded
MIN_SPEED = 0.5  # m/s, drag samples below this are discarded
MAX_VERTICAL_RATIO = 0.35  # drag samples need |v_z| below this share of the speed
CUTOFF_HZ = 4.0  # low-pass corner before differentiating odometry velocity
_MIN_CC = 0.2  # reject attitudes where R33 = cos(roll) cos(pitch) falls below this
_PAD = 9  # odd-extension samples at each end of the low-pass input: 3 x its 3 taps
_SQRT2 = math.sqrt(2.0)


@dataclass
class DragSample:
    speed: float  # |v| or |v_inf| [m/s]
    force: float  # projected drag magnitude [N]


@dataclass
class DragFit:
    mu1: float
    mu2: float
    rms: float  # residual RMS of the fit [N]

    def __call__(self, speed):
        speed = np.asarray(speed, dtype=float)
        return self.mu1 * speed + self.mu2 * speed**2


def thrust_from_attitude(mass, r33):
    """Thrust needed to hold altitude at the given tilt, f = m g / R33,
    with R33 = cos(roll) cos(pitch) the world z component of body z."""
    if r33 < _MIN_CC:
        raise ValueError(f"attitude too far from level (cos r cos p = {r33:.3f})")
    return mass * GRAVITY / r33


def drag_projection(f_thrust, v_dot_body, e_v_body, mass):
    """Projected drag force sample (N) from body-frame kinematics.

    f_thrust is the scalar thrust along body z, v_dot_body the inertial
    acceleration expressed in the body frame, e_v_body the unit direction
    of travel in the body frame.
    """
    e_v_body = np.asarray(e_v_body, dtype=float)
    resid = np.array([0.0, 0.0, float(f_thrust)]) - mass * np.asarray(v_dot_body, dtype=float)
    return float(resid @ e_v_body)


def drag_sample(f_thrust, v_dot_body, v_body, mass):
    """DragSample from one synchronized odometry instant."""
    v_body = np.asarray(v_body, dtype=float)
    speed = float(np.linalg.norm(v_body))
    if speed < 1e-9:
        raise ValueError("cannot form a drag sample at zero speed")
    return DragSample(speed, drag_projection(f_thrust, v_dot_body, v_body / speed, mass))


def fit_drag_polynomial(samples):
    """No-intercept least squares of force against [speed, speed^2].

    Requires at least 3 samples spanning distinct speeds; raises on a
    rank-deficient (single-speed) design.
    """
    if len(samples) < 3:
        raise ValueError("need at least 3 drag samples")
    v = np.array([s.speed for s in samples])
    f = np.array([s.force for s in samples])
    A = np.column_stack([v, v * v])
    if np.linalg.matrix_rank(A, tol=1e-10 * max(1.0, float(np.abs(A).max()))) < 2:
        raise ValueError("drag samples do not span distinct speeds")
    coef, _, _, _ = np.linalg.lstsq(A, f, rcond=None)
    resid = f - A @ coef
    return DragFit(float(coef[0]), float(coef[1]), float(np.sqrt(np.mean(resid**2))))


def identify_sensor_coefficient(thetas, v_inf_sensor):
    """Median lumped coefficient from paired (deflection, airflow) samples.

    thetas: (n, 2) deflection angles; v_inf_sensor: (n, 3) sensor-frame
    relative airflow.  Samples whose planar airflow magnitude falls below
    MIN_PLANAR_SPEED are discarded; raises if none survive.
    """
    thetas = np.asarray(thetas, dtype=float)
    v = np.asarray(v_inf_sensor, dtype=float)
    speed = np.linalg.norm(v, axis=1)
    planar = np.linalg.norm(v[:, :2], axis=1)
    ok = (planar > MIN_PLANAR_SPEED) & np.all(np.isfinite(thetas), axis=1)
    if not np.any(ok):
        raise ValueError("no samples above the planar speed cutoff")
    c = np.linalg.norm(thetas[ok], axis=1) / (speed[ok] * planar[ok])
    return float(np.median(c))


def _butter2(fs):
    """Coefficients (b, a) of the 2nd-order Butterworth low-pass with
    corner CUTOFF_HZ at sample rate fs: the bilinear transform of
    1 / (s^2 + sqrt(2) s + 1), pre-warped so the corner lands on CUTOFF_HZ."""
    k = math.tan(math.pi * CUTOFF_HZ / fs)
    d = 1.0 + _SQRT2 * k + k * k
    g = k * k / d
    return (g, 2.0 * g, g), (1.0, 2.0 * (k * k - 1.0) / d, (1.0 - _SQRT2 * k + k * k) / d)


def _lfilter(b, a, x, z0, z1):
    """One pass of the transposed direct-form-II recursion over the floats
    x, from the state (z0, z1); returns the outputs as a list."""
    b0, b1, b2 = b
    _, a1, a2 = a
    y = []
    for xn in x:
        yn = b0 * xn + z0
        z0 = b1 * xn - a1 * yn + z1
        z1 = b2 * xn - a2 * yn
        y.append(yn)
    return y


def _lowpass(x, fs):
    """Zero-phase low-pass of each column of the (n, k) array x (see the
    module docstring); fewer than 15 rows pass through unchanged."""
    if x.shape[0] < 15:
        return x
    b, a = _butter2(fs)
    # steady-state initial conditions for a unit step: (I - companion(a)^T) zi = b[1:] - a[1:] b0
    zi0, zi1 = np.linalg.solve(
        [[1.0 + a[1], -1.0], [a[2], 1.0]], [b[1] - a[1] * b[0], b[2] - a[2] * b[0]]
    ).tolist()
    ext = np.concatenate([2.0 * x[:1] - x[_PAD:0:-1], x, 2.0 * x[-1:] - x[-2:-_PAD - 2:-1]])
    cols = []
    for col in ext.T.tolist():
        fwd = _lfilter(b, a, col, zi0 * col[0], zi1 * col[0])
        bwd = _lfilter(b, a, reversed(fwd), zi0 * fwd[-1], zi1 * fwd[-1])
        bwd.reverse()
        cols.append(bwd[_PAD:-_PAD])
    return np.array(cols).T


def differentiate_velocity(t, v):
    """Acceleration from sampled velocity: zero-phase low-pass, then gradient."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    fs = 1.0 / np.median(np.diff(t))
    return np.gradient(_lowpass(v, fs), t, axis=0)


def collect_drag_samples(t, p_q, v_world, mass, window=None):
    """Drag samples from an odometry stream (t, quaternion, world velocity).

    Steady-segment selection: planar-dominated motion (|v_z| below
    MAX_VERTICAL_RATIO of the speed), speed above MIN_SPEED, and an
    optional (t0, t1) window restricting to the execution phase.
    """
    t = np.asarray(t, dtype=float)
    # R(q) is quadratic in q, so the rotations and R33 need unit quaternions:
    # normalize the column once, as the replay does
    q = quat_normalize_rows(np.asarray(p_q, dtype=float).T)
    v = np.asarray(v_world, dtype=float)
    a = differentiate_velocity(t, v)
    rt = rotation_transposed(q)
    a_body = np.add.reduce(rt * a.T, axis=1).T
    v_body = np.add.reduce(rt * v.T, axis=1).T
    r33 = rt[2, 2].tolist()
    samples = []
    for k in range(t.shape[0]):
        if window is not None and not (window[0] <= t[k] <= window[1]):
            continue
        speed = float(np.linalg.norm(v[k]))
        if speed < MIN_SPEED or abs(v[k, 2]) > MAX_VERTICAL_RATIO * speed:
            continue
        try:
            f_thrust = thrust_from_attitude(mass, r33[k])
        except ValueError:
            continue
        samples.append(drag_sample(f_thrust, a_body[k], v_body[k], mass))
    return samples


def collect_drag_samples_truth(t, q, v, a, thrust, wind, touch, mass, window=None):
    """Drag samples from full dynamics bookkeeping (simulator truth).

    Solves the translational dynamics for the drag force, projects it on
    the relative-airflow direction and pairs it with |v_inf|; exact when
    the inputs are exact, so useful as a noise-free reference arm.
    """
    t = np.asarray(t, dtype=float)
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    a = np.asarray(a, dtype=float)
    thrust = np.asarray(thrust, dtype=float)
    wind = np.asarray(wind, dtype=float)
    touch = np.asarray(touch, dtype=float)
    thrust_w = (rotation_transposed(q.T)[2] * thrust).T  # R(q) e3 f
    g_w = np.array([0.0, 0.0, -GRAVITY])
    v_inf = wind - v
    speed = np.linalg.norm(v_inf, axis=1)
    samples = []
    for k in range(t.shape[0]):
        if window is not None and not (window[0] <= t[k] <= window[1]):
            continue
        if speed[k] < MIN_SPEED:
            continue
        e_travel = -v_inf[k] / speed[k]
        force = float((thrust_w[k] + mass * g_w + touch[k] - mass * a[k]) @ e_travel)
        samples.append(DragSample(float(speed[k]), force))
    return samples


def identify_rig_coefficients(
    t_theta, thetas, t_odo, q_odo, v_odo, w_odo, rig: whisker.WhiskerRig
):
    """Per-sensor lumped coefficients from a no-wind flight.

    thetas: (n, n_sensors, 2) offset-corrected deflections on their own
    clock; odometry arrays are sampled onto that clock by zero-order
    hold, the quaternion column normalized first (R(q) is quadratic in
    q).  Returns an array of median coefficients.
    """
    thetas = np.asarray(thetas, dtype=float)
    idx = zoh_indices(t_odo, t_theta)
    keep = idx >= 0
    idx = idx[keep]
    thetas = thetas[keep]
    # normalize the column once, as the replay does
    q = quat_normalize_rows(np.asarray(q_odo, dtype=float).T)[:, idx]
    v = np.asarray(v_odo, dtype=float)[idx]
    w = np.asarray(w_odo, dtype=float)[idx]
    v_inf_b = whisker.body_airflow(q, np.zeros((3, 1)), v.T)  # no ambient wind assumed
    v_s = whisker.rig_airflow(v_inf_b, w.T, rig)
    return np.array(
        [identify_sensor_coefficient(thetas[:, i], v_s[i].T) for i in range(len(rig))]
    )
