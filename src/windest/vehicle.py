"""Multirotor rigid-body model with isotropic speed-polynomial drag.

World frame is z-up (gravity along -z).  The body z axis carries the
collective thrust.  State derivatives follow

    p_dot = v
    m v_dot = R e3 f + f_drag(v_wind - v) + m g + f_touch
    q_dot = 1/2 q (x) (0, omega)
    J omega_dot = -omega x J omega + tau

with everything expressed in world coordinates except omega and tau
(body frame).

This is the only module that encodes these equations, with one
integrator per caller: ``rk4_step`` advances the simulator's single
packed 13-state on Python floats, and ``euler_step_arrays`` advances the
filter's 37 sigma points as one numpy batch.  The batch is the filter's
(18, m) sigma block itself, one row per state component and the points
as columns, in the layout ``IDX_P`` ... ``IDX_WIND`` defined here; the
attitude comes beside it as a (4, m) block of quaternions (the block's
attitude rows hold the filter's error parameters).  The step writes the
advanced position, velocity and rates into the rows of an output block
with ``out=`` and returns the advanced attitude; the filter passes the
sigma block itself, so its one step per draw advances the block in
place.  Position takes the step's second-order term (exact under
constant acceleration) and the attitude turns at the step's mean rate,
which matters when one step spans a whole measurement interval.  The commanded wrench's terms come from
``wrench_terms``, which the filter calls once per predict with the
measurement interval's one mean command, the (4,) array [f, tau] the
replay forms, shared by its steps.  The
thrust direction and the gyroscopic term are quadratic in the state, so
each is one matrix product over the outer products vec(q q^T) and
vec(w w^T): the thrust direction with the rows
of geometry.ROTATION_FORM that give R(q)'s third column, the gyroscopic
term with a form that folds in J^-1 once per VehicleParams; the
quaternion integration is geometry.quat_integrate's (4, 16) block form
of the Hamilton product.  They stay two integrators because a numpy
step costs about the same on one state as on 37 (15.6 and 17.7 us on a
2-core x86 host, AMD EPYC, Python 3.11, numpy 2.4), several times the
scalar RK4 step (about 4 us on the same host).

``rk4_step`` is one flat function: a loop over its four stages on local
floats, with no call, list or tuple per stage, because in CPython the
fixed cost of a call and of packing its arguments is as large as the
arithmetic of a stage.  The loop keeps one copy of the derivative's
expressions; writing the four stages out would save about 0.7 us of a
4.3 us step at four times the code.  The first stage is
the derivative at the start of the step, whose acceleration the
simulator's truth and IMU rows carry, so the step returns it too; each
step evaluates the derivative four times, not five.  The simulator
takes one step per 2 ms control tick, or two 1 ms steps on the control
ticks an IMU tick falls inside.

``drag_force`` is the drag law's one array form, component-first like
the filter's step, which calls it; so do the estimate rows and the
truth labels.  ``rk4_step`` spells it out on Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import ROTATION_FORM, quat_integrate

GRAVITY = 9.81
_DRAG_EPS = 1e-9

# The rows of the filter's (18, m) sigma block, one per state component:
# position, attitude error (error parameters about the filter's reference
# quaternion), velocity, body rates, touch force and wind; world frame
# except the rates.  euler_step_arrays reads the block in this layout and
# the filter (ukf) names its state by these slices.
IDX_P = slice(0, 3)
IDX_A = slice(3, 6)
IDX_V = slice(6, 9)
IDX_W = slice(9, 12)
IDX_F = slice(12, 15)
IDX_WIND = slice(15, 18)
STATE_DIM = 18


def _default_inertia():
    # diagonal guess for a ~1.3 kg hexarotor; not an identified value
    return np.diag([0.011, 0.011, 0.021])


@dataclass
class VehicleParams:
    """Mass/inertia/drag bundle. mu1, mu2 are the linear and quadratic
    drag coefficients of the speed polynomial (N per m/s and N per
    (m/s)^2)."""

    mass: float = 1.31
    inertia: np.ndarray = field(default_factory=_default_inertia)
    mu1: float = 0.20
    mu2: float = 0.07
    gravity: float = GRAVITY

    def __post_init__(self):
        self.inertia = np.asarray(self.inertia, dtype=float)
        for name in ("mass", "gravity"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, not {value!r}")
        if self.inertia.shape != (3, 3) or not np.allclose(self.inertia, self.inertia.T):
            raise ValueError("inertia must be a symmetric 3x3 matrix")
        if np.any(np.linalg.eigvalsh(self.inertia) <= 0.0):
            raise ValueError("inertia must be positive definite")
        self.inertia_inv = np.linalg.inv(self.inertia)
        # J^-1 (w x J w) = _gyro_form @ vec(w w^T), entry 3 j + l of
        # vec(w w^T) being w_j w_l: w x J w is the sum of w_j w_l (e_j x J e_l)
        self._gyro_form = self.inertia_inv @ np.array(
            [np.cross(e, col) for e in np.eye(3) for col in self.inertia.T]
        ).T


def drag_force(v_inf, params: VehicleParams):
    """Isotropic drag (mu1 s + mu2 s^2) along the relative airflow.

    Component-first: v_inf is a (3,) vector or a (3, m) block (pass
    (N, 3) columns transposed).  Exactly zero below a 1e-9 m/s speed
    floor to avoid a 0/0 direction.
    """
    # add.reduce sums the three squares left to right; the factor times
    # the mask (1 or 0) is itself or zero, so the floor needs no np.where
    speed = np.sqrt(np.add.reduce(v_inf * v_inf))
    return (params.mu1 + params.mu2 * speed) * (speed >= _DRAG_EPS) * v_inf


# ---------------------------------------------------------------------------
# simulator side: scalar RK4 on the packed state
#
# The packed state is [p, v, q, omega] (13 values).  The simulator hands
# these functions Python floats and lists of floats, not ndarray elements:
# np.float64 and float are the same IEEE double arithmetic, so the results
# are bit-identical, but every operation on an np.float64 scalar pays for
# numpy's scalar dispatch, which more than doubles the cost of a step.


def scalar_consts(params: VehicleParams):
    """The constants rk4_step takes after its inputs, as Python floats:
    1/m, mu1, mu2, g, then J and J^-1 row by row."""
    return (
        1.0 / params.mass,
        params.mu1,
        params.mu2,
        params.gravity,
        *params.inertia.ravel().tolist(),
        *params.inertia_inv.ravel().tolist(),
    )


def rk4_step(s, f, tq, wind, touch, consts, dt):
    """One RK4 step of the packed state s with inputs held constant.

    Returns (a, s_next): the acceleration [ax, ay, az] at the start of
    the step (the first stage's) and the next state, a new list with the
    quaternion renormalized.  The four stages run in one loop on local
    floats; the position enters none of them.
    """
    (m_inv, mu1, mu2, g, j00, j01, j02, j10, j11, j12, j20, j21, j22,
     i00, i01, i02, i10, i11, i12, i20, i21, i22) = consts
    t0, t1, t2 = tq
    w0, w1, w2 = wind
    f0, f1, f2 = touch
    px, py, pz, vx0, vy0, vz0, qw0, qx0, qy0, qz0, wx0, wy0, wz0 = s
    _, _, _, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = s
    # the sums k1 + 2 k2 + 2 k3 + k4, added left to right from -0.0; as
    # -0.0 + x is x and c * x is exact for c = 1 or 2, each has the bits of
    # the sum written out
    spx = spy = spz = svx = svy = svz = sqw = sqx = sqy = sqz = swx = swy = swz = -0.0
    acc = None
    for c, h in ((1.0, 0.0), (2.0, 0.5), (2.0, 0.5), (1.0, 1.0)):
        if h:
            # this stage's state, s + h dt times the previous stage's derivative
            h *= dt
            vx, vy, vz = vx0 + h * ax, vy0 + h * ay, vz0 + h * az
            qw, qx = qw0 + h * dqw, qx0 + h * dqx
            qy, qz = qy0 + h * dqy, qz0 + h * dqz
            wx, wy, wz = wx0 + h * dwx, wy0 + h * dwy, wz0 + h * dwz
        ux, uy, uz = w0 - vx, w1 - vy, w2 - vz
        sp = math.sqrt(ux * ux + uy * uy + uz * uz)
        fac = 0.0 if sp < _DRAG_EPS else mu1 + mu2 * sp
        # thrust along body z rotated to world, drag and touch
        ax = (2.0 * (qx * qz + qw * qy) * f + fac * ux + f0) * m_inv
        ay = (2.0 * (qy * qz - qw * qx) * f + fac * uy + f1) * m_inv
        az = ((1.0 - 2.0 * (qx * qx + qy * qy)) * f + fac * uz + f2) * m_inv - g
        dqw = 0.5 * (-qx * wx - qy * wy - qz * wz)
        dqx = 0.5 * (qw * wx + qy * wz - qz * wy)
        dqy = 0.5 * (qw * wy - qx * wz + qz * wx)
        dqz = 0.5 * (qw * wz + qx * wy - qy * wx)
        # J w_dot = tau - w x J w
        hx = j00 * wx + j01 * wy + j02 * wz
        hy = j10 * wx + j11 * wy + j12 * wz
        hz = j20 * wx + j21 * wy + j22 * wz
        rx, ry, rz = t0 - (wy * hz - wz * hy), t1 - (wz * hx - wx * hz), t2 - (wx * hy - wy * hx)
        dwx = i00 * rx + i01 * ry + i02 * rz
        dwy = i10 * rx + i11 * ry + i12 * rz
        dwz = i20 * rx + i21 * ry + i22 * rz
        if acc is None:
            acc = [ax, ay, az]
        spx += c * vx
        spy += c * vy
        spz += c * vz
        svx += c * ax
        svy += c * ay
        svz += c * az
        sqw += c * dqw
        sqx += c * dqx
        sqy += c * dqy
        sqz += c * dqz
        swx += c * dwx
        swy += c * dwy
        swz += c * dwz
    sixth = dt / 6.0
    qw, qx, qy, qz = qw0 + sixth * sqw, qx0 + sixth * sqx, qy0 + sixth * sqy, qz0 + sixth * sqz
    qn = math.sqrt(qw ** 2 + qx ** 2 + qy ** 2 + qz ** 2)
    return acc, [
        px + sixth * spx, py + sixth * spy, pz + sixth * spz,
        vx0 + sixth * svx, vy0 + sixth * svy, vz0 + sixth * svz,
        qw / qn, qx / qn, qy / qn, qz / qn,
        wx0 + sixth * swx, wy0 + sixth * swy, wz0 + sixth * swz,
    ]


def wrench_terms(u, params: VehicleParams):
    """The terms of euler_step_arrays of the command u = [f, tau_x,
    tau_y, tau_z] (collective thrust along body z in N, body torque in
    N m), formed once per input and shared by its steps: the thrust
    times the rows of geometry.ROTATION_FORM that give R(q)'s third
    column (the body z axis, the thrust direction) as a (3, 16) form
    over vec(q q^T), and J^-1 tau as a (3, 1) column."""
    return u[0] * ROTATION_FORM[6:], params.inertia_inv.dot(u[1:4])[:, None]


def euler_step_arrays(x, q, wrench, params: VehicleParams, dt, out):
    """Vectorized explicit-Euler step over the filter's (18, m) sigma
    block x (filter side).

    x holds m states as columns, in the rows IDX_P ... IDX_WIND; the
    attitude comes as q, a (4, m) block of unit quaternions (the
    filter's attitude rows hold error parameters), and the input as
    wrench_terms(u, params), shared across the batch.  Writes the
    advanced position, velocity and body rates into the rows IDX_P,
    IDX_V and IDX_W of out, an (18, m) block that may be x itself, and
    returns the advanced attitude as a (4, m) block
    (geometry.quat_integrate).

    Velocity and rates take the Euler increment of their derivatives;
    position advances by (v + 1/2 v_dot dt) dt, the exact position
    under the step's constant acceleration, and the attitude turns at
    the step's mean rate w + 1/2 w_dot dt, so a step as long as a
    measurement interval keeps the second-order position and attitude
    terms that several shorter steps would carry (Trawny & Roumeliotis
    2005, the first-order quaternion integrator at the mean rate).
    """
    thrust_form, tau_term = wrench
    v, w = x[IDX_V], x[IDX_W]
    qq = (q[:, None] * q).reshape(16, -1)
    drag = drag_force(x[IDX_WIND] - v, params)
    v_dot = (thrust_form.dot(qq) + drag + x[IDX_F]) / params.mass
    v_dot[2] -= params.gravity
    # J w_dot = tau - w x J w, the gyroscopic term one product over vec(w w^T)
    ww = (w[:, None] * w).reshape(9, -1)
    w_dot = tau_term - params._gyro_form.dot(ww)
    # the attitude turns at the step's mean rate (exact under constant
    # angular acceleration); before out, which may be x, takes the new rates
    q_next = quat_integrate(q, w + (0.5 * dt) * w_dot, dt)
    dv = v_dot * dt
    np.add(x[IDX_P], (v + 0.5 * dv) * dt, out=out[IDX_P])  # before out takes the new v
    np.add(v, dv, out=out[IDX_V])
    np.add(w, w_dot * dt, out=out[IDX_W])
    return q_next
