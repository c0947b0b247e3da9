"""Whisker airflow sensors: mounts, field decoding and deflection model.

Each sensor reports two deflection angles of a spring-loaded whisker
carrying a magnet over a magnetometer.  The decoded angles relate to the
airflow at the sensor through a single lumped coefficient c:

    theta_x = -c |v_inf_S| v_inf_S_y
    theta_y = +c |v_inf_S| v_inf_S_x

where v_inf_S is the relative airflow in the sensor frame and |.| is the
full 3-norm.  Sensor frames are given by their position r on the body
and the rotation `rot` whose columns are the sensor axes in body
coordinates (v_B = rot @ v_S).

A mount's polarity is the sign of its magnet: south-up mounts see the
negated field.  The rig stacks it once as ``WhiskerRig.sign`` (+1 or -1
per mount, shape (n, 1)); callers multiply a field stack by it before
decode_field and after synthesize_field, which work in north-up terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import cross, norm, quat_conjugate, quat_rotate

NORTH_UP = "north_up"
SOUTH_UP = "south_up"

DEFAULT_COEFF = 0.01  # rad per (m/s)^2, lumped spring/arm/field constant
DEFAULT_BZ0 = 100.0  # nominal axial field count at rest


def decode_field(b):
    """North-up magnetic field sample -> deflection angles (theta_x, theta_y).

    A corrected axial component b_z <= 0 means the magnet has left the
    working range; those samples decode to NaN.  Broadcasts over leading
    axes.
    """
    b = np.asarray(b, dtype=float)
    theta_x = -np.arctan2(b[..., 1], b[..., 2])
    theta_y = np.arctan2(b[..., 0], b[..., 2])
    theta = np.stack([theta_x, theta_y], axis=-1)
    return np.where(b[..., 2:3] > 0.0, theta, np.nan)


def synthesize_field(theta):
    """Deflection angles -> north-up magnetic field sample (decode_field inverse)."""
    theta = np.asarray(theta, dtype=float)
    bx = DEFAULT_BZ0 * np.tan(theta[..., 1])
    by = -DEFAULT_BZ0 * np.tan(theta[..., 0])
    bz = np.broadcast_to(DEFAULT_BZ0, bx.shape)
    return np.stack([bx, by, bz], axis=-1)


def body_airflow(q_wb, v_wind_w, v_w):
    """Relative airflow at the centre of mass, body frame.

    World-frame wind minus world-frame vehicle velocity, rotated into the
    body by the inverse of q_wb.  Broadcasts over leading axes.  This is
    the one place the filter, the truth labels and the rig identification
    derive v_inf from.
    """
    return quat_rotate(quat_conjugate(q_wb), v_wind_w - v_w)


def predict_deflection(v_inf_s, coeff):
    """Deflection angles for sensor-frame relative airflow v_inf_s."""
    speed = norm(v_inf_s)
    theta_x = -coeff * speed * v_inf_s[..., 1]
    theta_y = coeff * speed * v_inf_s[..., 0]
    return np.stack([theta_x, theta_y], axis=-1)


@dataclass
class SensorMount:
    """Pose, polarity and lumped coefficient of one whisker sensor."""

    name: str
    r: np.ndarray  # position on the body [m]
    rot: np.ndarray  # columns = sensor axes in body coordinates
    coeff: float = DEFAULT_COEFF
    polarity: str = NORTH_UP

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.rot = np.asarray(self.rot, dtype=float)
        if self.rot.shape != (3, 3) or not np.allclose(self.rot @ self.rot.T, np.eye(3), atol=1e-9):
            raise ValueError(f"mount {self.name}: rot must be a rotation matrix")
        if self.polarity not in (NORTH_UP, SOUTH_UP):
            raise ValueError(f"mount {self.name}: unknown polarity {self.polarity!r}")


@dataclass
class WhiskerRig:
    """The sensor mounts of one vehicle, fixed after construction.

    The mount positions, rotations, coefficients and polarity signs are
    also stacked once into arrays (r (n, 3), rot (n, 3, 3), coeff (n,),
    sign (n, 1)).
    """

    mounts: list[SensorMount] = field(default_factory=list)

    def __post_init__(self):
        self.r = np.array([m.r for m in self.mounts]).reshape(-1, 3)
        self.rot = np.array([m.rot for m in self.mounts]).reshape(-1, 3, 3)
        self.coeff = np.array([m.coeff for m in self.mounts], dtype=float)
        south_up = [m.polarity == SOUTH_UP for m in self.mounts]
        self.sign = np.where(south_up, -1.0, 1.0).reshape(-1, 1)

    def __len__(self):
        return len(self.mounts)


def default_rig():
    """Four-sensor fixture: two upright on the hull, two outboard with
    horizontal spines so vertical flow stays observable (any three
    sensors still span all axes)."""
    c45, s45 = np.cos(np.pi / 4), np.sin(np.pi / 4)
    return WhiskerRig(
        [
            SensorMount("top_front", [0.10, 0.0, 0.05], np.eye(3)),
            SensorMount(
                "top_back",
                [-0.10, 0.0, 0.05],
                [[c45, -s45, 0.0], [s45, c45, 0.0], [0.0, 0.0, 1.0]],
            ),
            SensorMount(
                "guard_right",
                [0.0, 0.18, 0.0],
                [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
                polarity=SOUTH_UP,
            ),
            SensorMount(
                "guard_left",
                [0.0, -0.18, 0.0],
                [[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]],
                polarity=SOUTH_UP,
            ),
        ]
    )


def rig_airflow(v_inf_b, omega_b, rig: WhiskerRig, sensors=None):
    """Relative airflow at every mount, sensor frame, shape (..., n_sensors, 3).

    Subtracts each mount point's rotational sweep omega_b x r from the
    body-frame airflow v_inf_b, then rotates into the sensor axes.  Inputs
    may carry leading batch axes (broadcast together).  sensors (a boolean
    mask or index array over the mounts) restricts the result to those
    mounts, in mount order.
    """
    r, rot = rig.r, rig.rot
    if sensors is not None:
        r, rot = r[sensors], rot[sensors]
    batch = (1,) * (max(v_inf_b.ndim, omega_b.ndim) - 1)
    # mount-major (n, ..., 3): each mount's rotation is its own (..., 3) @ (3, 3)
    # product, which rounds the same whether the rig has one mount or many
    local = v_inf_b - cross(omega_b, r.reshape((-1,) + batch + (3,)))
    return np.stack([local[i] @ rot[i] for i in range(len(r))], axis=-2)


def rig_predict(q_wb, v_w, omega_b, v_wind_w, rig: WhiskerRig, sensors=None):
    """Predicted deflections for every mount, shape (..., n_sensors, 2).

    Inputs may carry a leading batch axis (all broadcast together):
    attitude q_wb, world velocity v_w, body rates omega_b and world wind
    v_wind_w.  sensors restricts the prediction as in rig_airflow.
    """
    coeff = rig.coeff if sensors is None else rig.coeff[sensors]
    v_s = rig_airflow(body_airflow(q_wb, v_wind_w, v_w), omega_b, rig, sensors)
    return predict_deflection(v_s, coeff)
