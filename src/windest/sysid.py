"""Identification of the drag polynomial and whisker coefficients.

Drag: during steady translation the projection of (body-frame thrust
minus inertial acceleration) onto the direction of travel isolates the
aerodynamic drag magnitude; thrust itself is recovered from the attitude
needed to hold altitude, f = m g / R33, where R33 = cos(roll) cos(pitch)
is the world z component of the body z axis.  Each collector picks its
rows with one boolean mask (logio.window_mask and the speed and
attitude rules) and returns the kept samples as two (n,) arrays,
(speed, force), in time order, the force formed over the kept rows
only.  Fitting force against speed with a no-intercept [v, v^2] basis
yields (mu1, mu2).  The rotations (acceleration and velocity into the
body frame, thrust into the world) and R33 all come from
geometry.rotation_transposed, one product over the log's samples.

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
from .logio import window_mask, zoh_indices
from .vehicle import GRAVITY

MIN_PLANAR_SPEED = 0.2  # m/s, coefficient samples below this are discarded
MIN_SPEED = 0.5  # m/s, drag samples below this are discarded
MAX_VERTICAL_RATIO = 0.35  # drag samples need |v_z| at most this share of the speed
CUTOFF_HZ = 4.0  # low-pass corner before differentiating odometry velocity
_MIN_CC = 0.2  # reject attitudes where R33 = cos(roll) cos(pitch) falls below this
_PAD = 9  # odd-extension samples at each end of the low-pass input: 3 x its 3 taps
_SQRT2 = math.sqrt(2.0)


@dataclass
class DragFit:
    mu1: float
    mu2: float


def fit_drag_polynomial(speed, force):
    """No-intercept least squares of force against [speed, speed^2].

    speed and force are the (n,) arrays a collector returns.  Requires at
    least 3 samples spanning distinct speeds; raises on a rank-deficient
    (single-speed) design.
    """
    v = np.asarray(speed, dtype=float)
    f = np.asarray(force, dtype=float)
    if v.shape[0] < 3:
        raise ValueError("need at least 3 drag samples")
    A = np.column_stack([v, v * v])
    if np.linalg.matrix_rank(A, tol=1e-10 * max(1.0, float(np.abs(A).max()))) < 2:
        raise ValueError("drag samples do not span distinct speeds")
    coef, _, _, _ = np.linalg.lstsq(A, f, rcond=None)
    return DragFit(float(coef[0]), float(coef[1]))


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

    A row is kept when t lies in the optional inclusive (t0, t1) window
    (the execution phase), its speed |v| is at least MIN_SPEED, |v_z| is
    at most MAX_VERTICAL_RATIO of that speed (planar-dominated motion)
    and R33 is at least _MIN_CC.  Returns (speed, force), two (n,) arrays
    over the kept rows in time order: the body-frame speed and the
    projection of (f e3 - m a) on the body-frame direction of travel,
    with f = m g / R33.
    """
    t = np.asarray(t, dtype=float)
    # R(q) is quadratic in q, so the rotations and R33 need unit quaternions:
    # normalize the column once, as the replay does
    q = quat_normalize_rows(np.asarray(p_q, dtype=float).T)
    v = np.asarray(v_world, dtype=float)
    a = differentiate_velocity(t, v)
    rt = rotation_transposed(q)
    speed_w = np.linalg.norm(v, axis=1)
    keep = (
        window_mask(t, window)
        & (speed_w >= MIN_SPEED)
        & (np.abs(v[:, 2]) <= MAX_VERTICAL_RATIO * speed_w)
        & (rt[2, 2] >= _MIN_CC)
    )
    rt = rt[:, :, keep]
    v_body = np.add.reduce(rt * v[keep].T, axis=1)
    resid = -mass * np.add.reduce(rt * a[keep].T, axis=1)
    resid[2] += mass * GRAVITY / rt[2, 2]
    speed = np.linalg.norm(v_body, axis=0)
    return speed, np.add.reduce(resid * (v_body / speed), axis=0)


def collect_drag_samples_truth(t, q, v, a, thrust, wind, touch, mass, window=None):
    """Drag samples from full dynamics bookkeeping (simulator truth).

    Solves the translational dynamics for the drag force and projects it
    on the direction of travel through the air, -v_inf / |v_inf|, at the
    rows inside the optional inclusive window with |v_inf| at least
    MIN_SPEED.  Returns (speed, force) as two (n,) arrays in time order,
    speed being |v_inf|; exact when the inputs are exact, so useful as a
    noise-free reference arm.
    """
    t = np.asarray(t, dtype=float)
    v_inf = np.asarray(wind, dtype=float) - np.asarray(v, dtype=float)
    speed = np.linalg.norm(v_inf, axis=1)
    keep = window_mask(t, window) & (speed >= MIN_SPEED)
    q = np.asarray(q, dtype=float)[keep]
    thrust_w = rotation_transposed(q.T)[2] * np.asarray(thrust, dtype=float)[keep]  # R(q) e3 f
    resid = (
        thrust_w.T
        + np.array([0.0, 0.0, -mass * GRAVITY])
        + np.asarray(touch, dtype=float)[keep]
        - mass * np.asarray(a, dtype=float)[keep]
    )
    speed = speed[keep]
    return speed, np.add.reduce(resid * (-v_inf[keep] / speed[:, None]), axis=1)


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
