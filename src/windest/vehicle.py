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
integrator per caller: ``rk4_step`` (over ``deriv``) advances the
simulator's single packed 13-state on Python floats, and
``euler_step_arrays`` advances the filter's 37 sigma points as one
numpy batch.  The batch is in component blocks, the layout of the
filter's process update: each vector is a (3, m) array (rows of the
transposed sigma points) and the attitude a (4, m) array.  The thrust
direction and the gyroscopic term are quadratic in the state, so each
is one matrix product over the outer products vec(q q^T) and
vec(w w^T): the thrust direction with the rows of geometry.ROTATION_FORM
that give R(q)'s third column, the gyroscopic term with a form that
folds in J^-1 once per VehicleParams; the quaternion integration, a
product that differs per point, runs on geometry's rows.  They stay two
because a numpy step costs the same on one state as on 37 (26.5 us
either way on a 2-core x86 host, AMD EPYC, Python 3.11, numpy 2.4;
28-30 us with every operation on rows), several times the scalar RK4
step: ``deriv`` takes about 1 us and ``rk4_step`` 5 us on the same host.

``rk4_step`` takes its first stage ``k1 = deriv(s, ...)`` from the
caller.  The simulator needs that start-of-step derivative anyway (the
truth and IMU rows carry its acceleration), so each 1 kHz tick
evaluates the derivative four times, not five or six.  The three later
stages hand ``_rates`` the ten values the derivative reads as
arguments, so no state list is built per stage (a fifth of the step's
cost).

``drag_force`` is the drag law's one array form, component-first like
the filter's step, which calls it; so do the estimate rows and the
truth labels.  ``deriv`` spells it out on Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import ROTATION_FORM, quat_integrate

GRAVITY = 9.81
_DRAG_EPS = 1e-9


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


@dataclass
class WrenchInput:
    thrust: float  # collective thrust along body z [N]
    torque: np.ndarray  # body torque [N m]


def drag_force(v_inf, params: VehicleParams):
    """Isotropic drag (mu1 s + mu2 s^2) along the relative airflow.

    Component-first: v_inf is a (3,) vector or a (3, m) block (pass
    (N, 3) columns transposed).  Exactly zero below a 1e-9 m/s speed
    floor to avoid a 0/0 direction.
    """
    speed = np.sqrt(v_inf[0] * v_inf[0] + v_inf[1] * v_inf[1] + v_inf[2] * v_inf[2])
    return np.where(speed < _DRAG_EPS, 0.0, params.mu1 + params.mu2 * speed) * v_inf


# ---------------------------------------------------------------------------
# simulator side: scalar RK4 on the packed state
#
# The packed state is [p, v, q, omega] (13 values).  The simulator hands
# these functions Python floats and lists of floats, not ndarray elements:
# np.float64 and float are the same IEEE double arithmetic, so the results
# are bit-identical, but every operation on an np.float64 scalar pays for
# numpy's scalar dispatch, which more than doubles the cost of a step.


def scalar_consts(params: VehicleParams):
    """The constants deriv takes after its inputs, as Python floats."""
    return (
        1.0 / params.mass,
        params.mu1,
        params.mu2,
        params.gravity,
        (params.inertia_inv.tolist(), params.inertia.tolist()),
    )


def deriv(s, f, tq, wind, touch, m_inv, mu1, mu2, g, jinv_j):
    """Time derivative of the packed state s under thrust f and torque tq."""
    return _rates(*s[3:13], f, tq, wind, touch, m_inv, mu1, mu2, g, jinv_j)


def _rates(vx, vy, vz, qw, qx, qy, qz, wx, wy, wz,
           f, tq, wind, touch, m_inv, mu1, mu2, g, jinv_j):
    """deriv on the ten values of the packed state it reads (the position
    does not enter), so that RK4's stages pass them without building a
    state list."""
    # thrust along body z, rotated to world
    tx = 2.0 * (qx * qz + qw * qy) * f
    ty = 2.0 * (qy * qz - qw * qx) * f
    tz = (1.0 - 2.0 * (qx * qx + qy * qy)) * f
    ux, uy, uz = wind[0] - vx, wind[1] - vy, wind[2] - vz
    sp = math.sqrt(ux * ux + uy * uy + uz * uz)
    fac = 0.0 if sp < _DRAG_EPS else mu1 + mu2 * sp
    ax = (tx + fac * ux + touch[0]) * m_inv
    ay = (ty + fac * uy + touch[1]) * m_inv
    az = (tz + fac * uz + touch[2]) * m_inv - g
    jinv, J = jinv_j
    hx = J[0][0] * wx + J[0][1] * wy + J[0][2] * wz
    hy = J[1][0] * wx + J[1][1] * wy + J[1][2] * wz
    hz = J[2][0] * wx + J[2][1] * wy + J[2][2] * wz
    rx = tq[0] - (wy * hz - wz * hy)
    ry = tq[1] - (wz * hx - wx * hz)
    rz = tq[2] - (wx * hy - wy * hx)
    return (
        vx,
        vy,
        vz,
        ax,
        ay,
        az,
        0.5 * (-qx * wx - qy * wy - qz * wz),
        0.5 * (qw * wx + qy * wz - qz * wy),
        0.5 * (qw * wy - qx * wz + qz * wx),
        0.5 * (qw * wz + qx * wy - qy * wx),
        jinv[0][0] * rx + jinv[0][1] * ry + jinv[0][2] * rz,
        jinv[1][0] * rx + jinv[1][1] * ry + jinv[1][2] * rz,
        jinv[2][0] * rx + jinv[2][1] * ry + jinv[2][2] * rz,
    )


def _stage_rates(s, k, h, f, tq, wind, touch, consts):
    """deriv at the RK4 stage s + h k."""
    return _rates(
        s[3] + h * k[3], s[4] + h * k[4], s[5] + h * k[5],
        s[6] + h * k[6], s[7] + h * k[7], s[8] + h * k[8], s[9] + h * k[9],
        s[10] + h * k[10], s[11] + h * k[11], s[12] + h * k[12],
        f, tq, wind, touch, *consts,
    )


def rk4_step(s, k1, f, tq, wind, touch, consts, dt):
    """One RK4 step of the packed state with inputs held constant, from
    k1 = deriv(s, f, tq, wind, touch, *consts); returns a new list with
    the quaternion renormalized."""
    half, sixth = 0.5 * dt, dt / 6.0
    k2 = _stage_rates(s, k1, half, f, tq, wind, touch, consts)
    k3 = _stage_rates(s, k2, half, f, tq, wind, touch, consts)
    k4 = _stage_rates(s, k3, dt, f, tq, wind, touch, consts)
    out = [x + sixth * (a + 2.0 * b + 2.0 * c + d) for x, a, b, c, d in zip(s, k1, k2, k3, k4)]
    qw, qx, qy, qz = out[6:10]
    qn = math.sqrt(qw ** 2 + qx ** 2 + qy ** 2 + qz ** 2)
    out[6:10] = qw / qn, qx / qn, qy / qn, qz / qn
    return out


def euler_step_arrays(p, v, q, w, thrust, torque, touch, v_wind, params: VehicleParams, dt):
    """Vectorized explicit-Euler step over a batch of m states (filter side).

    The states come in component blocks: p, v, w, touch and v_wind are
    (3, m) arrays (v_wind may broadcast) and q is a (4, m) array of unit
    quaternions; thrust and torque are shared across the batch.  Returns
    the advanced (p, v, q, w) in the same layout.
    """
    # thrust along the body z axis, R(q)'s third column: rows 6:9 of the
    # quadratic form of R(q)
    qq = (q[:, None] * q).reshape(16, -1)
    drag = drag_force(v_wind - v, params)
    v_dot = ((thrust * ROTATION_FORM[6:]) @ qq + drag + touch) / params.mass
    v_dot[2] -= params.gravity
    # J w_dot = tau - w x J w, the gyroscopic term one product over vec(w w^T)
    ww = (w[:, None] * w).reshape(9, -1)
    w_dot = (params.inertia_inv @ torque)[:, None] - params._gyro_form @ ww
    return p + v * dt, v + v_dot * dt, np.array(quat_integrate(q, w, dt)), w + w_dot * dt
