"""Error-state unscented filter for wind, drag and touch-force estimation.

The 18-dimensional error state stacks

    [0:3]   position (world)
    [3:6]   attitude error (generalized Rodrigues parameters about q_ref)
    [6:9]   velocity (world)
    [9:12]  body rates
    [12:15] touch force (world)
    [15:18] wind velocity (world)

(the slices IDX_P ... IDX_WIND, defined in vehicle, whose Euler step
reads the sigma block in this layout) with a reference quaternion
carried alongside.  Touch force and wind
evolve as random walks; the dynamics model ties velocity to thrust,
polynomial drag on (wind - velocity), gravity and the touch force, which
is what renders the two disturbances separable once airflow sensing is
fused.  The attitude error is folded into the reference quaternion after
every measurement update.

The process update runs once per measurement interval, not once per
command: predict takes one command, the mean of those held over the
interval, draws its sigma points once per stretch of at most
MAX_PREDICT_DT and carries them through one Euler step of the
stretch's length, so the draw, the step, the attitude conversions and
the statistics are paid once per interval.

The filter takes the replay's arrays as they are: an odometry row z in
sim.ODO_COLUMNS order, [p, q, v, omega] with q a unit quaternion, shape
(13,), with its (12, 12) covariance R ordered [p, attitude error, v,
omega]; a command u = [f_cmd, tau_x, tau_y, tau_z], shape (4,).  A
belief holds no time: its caller keeps the time it was predicted to.

Belief contract: a BeliefState's q_ref is a unit quaternion when the
belief is made (every producer hands over a unit one: the odometry row,
predict and compose_mrp), and no belief is mutated after a function
here returns it.  So nothing re-normalizes or copies a belief between
events, and a step that changes nothing returns its input.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import geometry, logio, vehicle, whisker
from .geometry import (
    compose_mrp,
    mrp_error,
    mrp_from_quat,
    quat_from_mrp,
    sigma_points,
    solve,
    unscented_transform,
)
from .vehicle import IDX_A, IDX_F, IDX_P, IDX_V, IDX_W, IDX_WIND, STATE_DIM

GATE_QUANTILE = 0.997
MAX_PREDICT_DT = 0.1  # s, longest stretch of one sigma draw; predict splits longer gaps


@dataclass
class BeliefState:
    """Filter belief: reference quaternion + error-state mean/covariance."""

    q_ref: np.ndarray
    mean: np.ndarray
    cov: np.ndarray

    def attitude(self):
        """Full attitude estimate (reference composed with the error mean),
        formed on Python floats."""
        return compose_mrp(self.q_ref.tolist(), self.mean[IDX_A].tolist())


@dataclass(frozen=True)
class ProcessNoise:
    """Continuous-time process noise densities (diagonal), scaled by dt."""

    pos: float = 1e-8  # m^2/s
    att: float = 1e-8  # rad^2/s
    vel: float = 1e-6  # (m/s)^2/s
    gyro: float = 1e-5  # (rad/s)^2/s
    touch: float = 1.0  # N^2/s
    wind: float = 0.5  # (m/s)^2/s

    @functools.cached_property
    def density(self):
        """The (18,) diagonal of the density matrix, made once per noise
        model (read-only; the model is frozen, so it never goes stale)."""
        d = np.empty(STATE_DIM)
        d[IDX_P] = self.pos
        d[IDX_A] = self.att
        d[IDX_V] = self.vel
        d[IDX_W] = self.gyro
        d[IDX_F] = self.touch
        d[IDX_WIND] = self.wind
        d.flags.writeable = False
        return d


def init_belief(z, R, sigma_touch, sigma_wind):
    """Belief anchored at the first odometry row z (its covariance R the
    first 12 states'), disturbances at zero with standard deviations
    sigma_touch (N) and sigma_wind (m/s)."""
    mean = np.zeros(STATE_DIM)
    mean[IDX_P] = z[0:3]
    mean[IDX_V] = z[7:10]
    mean[IDX_W] = z[10:13]
    p0 = np.zeros((STATE_DIM, STATE_DIM))
    p0[0:12, 0:12] = R
    p0[IDX_F, IDX_F] = sigma_touch**2 * np.eye(3)
    p0[IDX_WIND, IDX_WIND] = sigma_wind**2 * np.eye(3)
    return BeliefState(z[3:7], mean, p0)


def _attitudes(q_ref, x):
    """The attitudes of the sigma block x about q_ref: each point's error
    quaternion times q_ref, one 4x4 matrix product.  Both factors are unit
    quaternions (quat_from_mrp's and the belief's), so the product is one
    to round-off and is not normalized again."""
    return geometry.quat_right_matrix(q_ref).dot(quat_from_mrp(x[IDX_A]))


def predict(belief: BeliefState, u, dt, noise: ProcessNoise, params: vehicle.VehicleParams):
    """Process update over dt seconds of the command u.

    u is the command [f_cmd, tau_x, tau_y, tau_z] held over the interval
    (the replay hands over the time-weighted mean of the commands between
    two measurements).  dt is split into equal stretches no longer than
    MAX_PREDICT_DT, so a gap in the log costs several stretches, not
    accuracy.  Each stretch draws its sigma points once and carries them
    through one explicit-Euler step of the stretch's length (the filter
    runs at measurement rate, where Euler is adequate); touch force and
    wind are held (random walk).  The step's derivative is affine in the
    command (vehicle.wrench_terms is linear in thrust and torque), so the
    mean command gives the sum of the commands' own Euler increments
    from the interval's start, less their O(h^2) coupling; the step's
    position term is exact under constant acceleration
    (vehicle.euler_step_arrays).  At the stretch's end the new reference
    quaternion is the propagated central point, all points are
    re-expressed as errors about it, and the statistics are formed once,
    with the noise density times the stretch's length.

    A stretch is one pass over its (18, 37) sigma block: the attitudes
    composed with the reference (one 4x4 matrix product of unit
    quaternions, not normalized again), the Euler step, which reads the
    block and writes position, velocity and rates back into it (the
    wrench's terms formed once per call) and returns the (4, 37)
    attitude block, the new reference (the central point normalized on
    Python floats) and the errors about it (one more 4x4 product and one
    block expression), then the statistics formed and the noise added to
    the covariance diagonal.
    """
    if dt < 0.0:
        raise ValueError("negative dt")
    if dt == 0.0:
        return belief
    n = math.ceil(dt / MAX_PREDICT_DT)
    if dt / n > MAX_PREDICT_DT:  # dt / MAX_PREDICT_DT rounded down to n
        n += 1
    h = dt / n
    noise_diag = noise.density * h
    wrench = vehicle.wrench_terms(u, params)
    for _ in range(n):
        x = sigma_points(belief.mean, belief.cov)
        q = vehicle.euler_step_arrays(x, _attitudes(belief.q_ref, x), wrench, params, h, x)
        # the new reference, the central point normalized on Python floats
        q_ref = geometry.quat_normalize_rows(q[:, 0].tolist())
        x[IDX_A] = mrp_from_quat(geometry.quat_right_matrix(q_ref).T.dot(q))
        mean, cov = geometry.reconstruct(x)
        cov.reshape(-1)[:: STATE_DIM + 1] += noise_diag  # a view: cov is C-ordered
        belief = BeliefState(q_ref, mean, cov)
    return belief


def _chi2_sf(x, dim):
    """The chi-square survival function 1 - F(x; dim) on math alone:
    Q(dim / 2, x / 2), the regularized upper incomplete gamma function,
    built up from Q(1/2, y) = erfc(sqrt(y)) or Q(1, y) = exp(-y) by the
    recurrence Q(a + 1, y) = Q(a, y) + y^a e^-y / Gamma(a + 1), whose
    terms are all positive (no cancellation in the tail)."""
    y = 0.5 * x
    if dim % 2:
        a, q, term = 0.5, math.erfc(math.sqrt(y)), math.sqrt(y / math.pi) * 2.0 * math.exp(-y)
    else:
        a, q, term = 1.0, math.exp(-y), y * math.exp(-y)
    while a < 0.5 * dim:
        q += term
        a += 1.0
        term *= y / a
    return q


def chi2_quantile(p, dim):
    """The p quantile of the chi-square distribution with dim degrees of
    freedom, by bisection on _chi2_sf down to adjacent doubles: the
    smallest x found with 1 - F(x) <= 1 - p."""
    tail = 1.0 - p
    lo, hi = 0.0, float(dim)
    while _chi2_sf(hi, dim) > tail:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if _chi2_sf(mid, dim) > tail:
            lo = mid
        else:
            hi = mid


@functools.lru_cache(maxsize=None)
def gate_threshold(dim):
    """GATE_QUANTILE chi-square quantile for a dim-dimensional innovation,
    computed once."""
    return chi2_quantile(GATE_QUANTILE, dim)


def gate_accepts(innov, S):
    """Mahalanobis innovation test at the GATE_QUANTILE chi-square quantile."""
    d2 = innov.dot(solve(S, innov))
    return d2 <= gate_threshold(innov.shape[0])


def _posterior(belief: BeliefState, mean, cov):
    """The belief after a measurement update to (mean, cov).

    The attitude-error mean is folded into the reference (first-order
    reset, covariance unchanged; compose_mrp on Python floats) and the
    covariance symmetrized.
    """
    q_ref = belief.q_ref
    e = mean[IDX_A]
    if e.dot(e) > 0.0:
        q_ref = compose_mrp(q_ref.tolist(), e.tolist())
        mean[IDX_A] = 0.0
    return BeliefState(q_ref, mean, 0.5 * (cov + cov.T))


def update_odometry(belief: BeliefState, z, R, gate=False):
    """Fuse an odometry row z, [p, q, v, omega] with q a unit quaternion,
    whose covariance is R (linear in the error state).

    The attitude part is converted to error parameters about the current
    reference (mrp_error on Python floats).  The measurement matrix is
    H = [I 0] (the first 12 states), so the Joseph form
    (I - K H) P (I - K H)^T + K R K^T is formed multiplied out:
    AP = P - K P[:12] and AP - AP[:, :12] K^T + K R K^T, with no 18x18
    identity and no 18x18x18 product.  Returns (belief, accepted).
    """
    e = mrp_error(z[3:7].tolist(), belief.q_ref.tolist())
    innov = np.concatenate((z[0:3], e, z[7:13])) - belief.mean[0:12]
    P = belief.cov
    S = P[0:12, 0:12] + R
    if gate and not gate_accepts(innov, S):
        return belief, False
    K = solve(S.T, P[:, 0:12].T).T  # P H^T S^-1
    AP = P - K.dot(P[0:12])  # (I - K H) P
    cov = AP - AP[:, 0:12].dot(K.T) + K.dot(R).dot(K.T)
    return _posterior(belief, belief.mean + K.dot(innov), cov), True


def _ut_update(belief, z, r_var, h, gate):
    """Unscented measurement update with the measurement map h, which
    takes the (18, 37) sigma block to the (k, 37) block of predicted
    measurements, and noise variance r_var on every component."""
    y_mean, S, cross = unscented_transform(belief.mean, belief.cov, h)
    S.reshape(-1)[:: S.shape[0] + 1] += r_var
    innov = z - y_mean
    if gate and not gate_accepts(innov, S):
        return belief, False
    K = solve(S.T, cross.T).T
    return _posterior(belief, belief.mean + K.dot(innov), belief.cov - K.dot(S).dot(K.T)), True


def update_airflow(belief: BeliefState, theta, r_var, rig: whisker.WhiskerRig, gate=False):
    """Fuse whisker deflection angles, shape (n_sensors, 2).

    Rows with any non-finite entry are dropped (sensor invalid this
    tick).  r_var is the noise variance of every angle.
    Returns (belief, accepted).
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (len(rig), 2):
        raise ValueError(f"expected {(len(rig), 2)} angles, got {theta.shape}")
    valid = np.isfinite(theta).all(axis=1)
    if not valid.any():
        return belief, False

    def h(x):
        pred = whisker.rig_predict(
            _attitudes(belief.q_ref, x), x[IDX_V], x[IDX_W], x[IDX_WIND], rig, sensors=valid
        )
        return pred.reshape(-1, x.shape[1])

    return _ut_update(belief, theta[valid].ravel(), r_var, h, gate)


def update_pseudo_airflow(belief: BeliefState, v_inf_body, r_var, gate=False):
    """Fuse a body-frame relative-airflow vector from an external regressor.

    r_var is the noise variance of each component.  The predicted
    measurement rotates (wind - velocity) into the body frame, so the
    update tightens wind, velocity and attitude jointly.
    """
    def h(x):
        return whisker.body_airflow(_attitudes(belief.q_ref, x), x[IDX_WIND], x[IDX_V])

    return _ut_update(belief, v_inf_body, r_var, h, gate)


def output(belief: BeliefState, params: vehicle.VehicleParams):
    """One estimate row, in logio.ESTIMATE_COLUMNS order: touch force and
    wind (world), relative airflow (body) and drag (world)."""
    wind, v = belief.mean[IDX_WIND], belief.mean[IDX_V]
    row = np.empty(len(logio.ESTIMATE_COLUMNS))
    row[logio.TOUCH_COLS] = belief.mean[IDX_F]
    row[logio.WIND_COLS] = wind
    row[logio.VINF_COLS] = whisker.body_airflow(belief.attitude(), wind, v)
    row[logio.DRAG_COLS] = vehicle.drag_force(wind - v, params)
    return row
