"""Multirotor rigid-body model with isotropic speed-polynomial drag.

World frame is z-up (gravity along -z).  The body z axis carries the
collective thrust.  State derivatives follow

    p_dot = v
    m v_dot = R e3 f + f_drag(v_wind - v) + m g + f_touch
    q_dot = 1/2 q (x) (0, omega)
    J omega_dot = -omega x J omega + tau

with everything expressed in world coordinates except omega and tau
(body frame).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import cross, norm, quat_from_axis_angle, quat_multiply, quat_normalize, quat_rotate

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
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")
        if self.inertia.shape != (3, 3) or not np.allclose(self.inertia, self.inertia.T):
            raise ValueError("inertia must be a symmetric 3x3 matrix")
        if np.any(np.linalg.eigvalsh(self.inertia) <= 0.0):
            raise ValueError("inertia must be positive definite")
        self.inertia_inv = np.linalg.inv(self.inertia)

    @property
    def gravity_vec(self):
        return np.array([0.0, 0.0, -self.gravity])


@dataclass
class VehicleState:
    p: np.ndarray  # position, world [m]
    v: np.ndarray  # velocity, world [m/s]
    q: np.ndarray  # q_WB, scalar first
    omega: np.ndarray  # body rates [rad/s]

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        self.q = quat_normalize(self.q)
        self.omega = np.asarray(self.omega, dtype=float)

    def copy(self):
        return VehicleState(self.p.copy(), self.v.copy(), self.q.copy(), self.omega.copy())


@dataclass
class WrenchInput:
    thrust: float  # collective thrust along body z [N]
    torque: np.ndarray  # body torque [N m]


@dataclass
class DisturbanceInput:
    wind: np.ndarray = field(default_factory=lambda: np.zeros(3))  # world [m/s]
    touch: np.ndarray = field(default_factory=lambda: np.zeros(3))  # world [N]


def relative_airflow_world(v_wind, v):
    """Air velocity relative to the vehicle, world frame."""
    return np.asarray(v_wind, dtype=float) - np.asarray(v, dtype=float)


def drag_force(v_inf, params: VehicleParams):
    """Isotropic drag (mu1 s + mu2 s^2) along the relative airflow.

    Broadcasts over leading axes; exactly zero below a 1e-9 m/s speed
    floor to avoid a 0/0 direction.
    """
    v_inf = np.asarray(v_inf, dtype=float)
    speed = norm(v_inf, keepdims=True)
    factor = np.where(speed < _DRAG_EPS, 0.0, params.mu1 + params.mu2 * speed)
    return factor * v_inf


def continuous_dynamics(x: VehicleState, u: WrenchInput, d: DisturbanceInput, params: VehicleParams):
    """Time derivatives (p_dot, v_dot, q_dot, omega_dot) at state x."""
    thrust_w = quat_rotate(x.q, np.array([0.0, 0.0, u.thrust]))
    f_drag = drag_force(d.wind - x.v, params)
    v_dot = (thrust_w + f_drag + d.touch) / params.mass + params.gravity_vec
    q_dot = 0.5 * quat_multiply(x.q, np.concatenate([[0.0], x.omega]))
    w_dot = params.inertia_inv @ (
        np.asarray(u.torque, dtype=float) - cross(x.omega, params.inertia @ x.omega)
    )
    return x.v.copy(), v_dot, q_dot, w_dot


def _pack(x: VehicleState):
    return np.concatenate([x.p, x.v, x.q, x.omega])


def _deriv(y, thrust, torque, wind, touch, params):
    v = y[3:6]
    q = y[6:10]
    w = y[10:13]
    qw, qv = q[0], q[1:]
    e3_body = np.array([0.0, 0.0, thrust])
    t = 2.0 * cross(qv, e3_body)
    thrust_w = e3_body + qw * t + cross(qv, t)
    v_inf = wind - v
    speed = np.sqrt(v_inf @ v_inf)
    factor = 0.0 if speed < _DRAG_EPS else params.mu1 + params.mu2 * speed
    v_dot = (thrust_w + factor * v_inf + touch) / params.mass + params.gravity_vec
    # quaternion derivative for body rate w
    q_dot = 0.5 * np.concatenate([[-qv @ w], qw * w + cross(qv, w)])
    w_dot = params.inertia_inv @ (torque - cross(w, params.inertia @ w))
    out = np.empty(13)
    out[0:3] = v
    out[3:6] = v_dot
    out[6:10] = q_dot
    out[10:13] = w_dot
    return out


def integrate_step(x: VehicleState, u: WrenchInput, d: DisturbanceInput, params: VehicleParams, dt):
    """One RK4 step with inputs held constant; renormalizes the quaternion."""
    y = _pack(x)
    torque = np.asarray(u.torque, dtype=float)
    wind = np.asarray(d.wind, dtype=float)
    touch = np.asarray(d.touch, dtype=float)
    k1 = _deriv(y, u.thrust, torque, wind, touch, params)
    k2 = _deriv(y + 0.5 * dt * k1, u.thrust, torque, wind, touch, params)
    k3 = _deriv(y + 0.5 * dt * k2, u.thrust, torque, wind, touch, params)
    k4 = _deriv(y + dt * k3, u.thrust, torque, wind, touch, params)
    y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    q = y[6:10]
    q /= np.sqrt(q @ q)
    return VehicleState(y[0:3], y[3:6], q, y[10:13])


def euler_step_arrays(p, v, q, w, thrust, torque, touch, v_wind, params: VehicleParams, dt):
    """Vectorized explicit-Euler step over stacked states (filter side).

    All array arguments carry a leading batch axis; thrust and torque are
    shared across the batch.  Returns the advanced (p, v, q, w).
    """
    v_inf = v_wind - v
    speed = norm(v_inf, keepdims=True)
    factor = np.where(speed < _DRAG_EPS, 0.0, params.mu1 + params.mu2 * speed)
    thrust_w = quat_rotate(q, np.array([0.0, 0.0, float(thrust)]))
    v_dot = (thrust_w + factor * v_inf + touch) / params.mass + params.gravity_vec
    w_dot = (torque - cross(w, w @ params.inertia.T)) @ params.inertia_inv.T
    q_new = quat_multiply(q, quat_from_axis_angle(w * dt))
    return p + v * dt, v + v_dot * dt, q_new, w + w_dot * dt
