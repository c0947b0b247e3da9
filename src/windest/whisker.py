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

The measurement model (body_airflow, rig_airflow, predict_deflection,
rig_predict) works on component-first arrays: a (4,) quaternion and
(3,) vectors are one state, and (4, m) / (3, m) blocks are m states, the
filter's 37 sigma points or a log's samples (pass (N, 3) columns
transposed).  Each kernel is a few numpy calls whatever m is: the body
airflow is R(q)^T, from geometry's one quadratic form over vec(q q^T),
times the airflow, and all mounts' sensor-frame airflow is one (3 n, 6)
product with the rig's stacked airflow map.  These are the only derivations of v_inf and of
the deflection model; the simulator, the filter, the truth labels and
the rig identification all call them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import rotation_transposed

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
    body by the inverse of q_wb: R(q_wb)^T (geometry.rotation_transposed,
    one quadratic form over vec(q q^T)) times the airflow.
    Component-first: q_wb is a (4,) unit quaternion and the vectors (3,)
    arrays (one state), or (4, m) and (3, m) blocks (the vectors may be
    (3, 1)); returns (3,) or (3, m).
    This is the one place the filter, the truth labels and the rig
    identification derive v_inf from.
    """
    return np.add.reduce(rotation_transposed(q_wb) * (v_wind_w - v_w), axis=1)


def predict_deflection(v_inf_s, coeff):
    """Deflection angles (theta_x, theta_y) for sensor-frame relative
    airflow v_inf_s, component-first: a (3, ...) array gives (2, ...),
    with coeff broadcasting against the trailing axes."""
    speed = np.sqrt(np.add.reduce(v_inf_s * v_inf_s))
    theta = v_inf_s[1::-1] * (coeff * speed)
    theta[0] *= -1.0
    return theta


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

    The mounts are also stacked once into arrays: the coefficients
    coeff (n,), the polarity signs sign (n, 1) and the airflow map
    airflow_matrix (n, 3, 6), whose block i takes the body-frame airflow
    and rates [v_b; omega] to mount i's sensor-frame airflow
    rot_i^T (v_b + r_i x omega).
    """

    mounts: list[SensorMount] = field(default_factory=list)

    def __post_init__(self):
        self.coeff = np.array([m.coeff for m in self.mounts], dtype=float)
        south_up = [m.polarity == SOUTH_UP for m in self.mounts]
        self.sign = np.where(south_up, -1.0, 1.0).reshape(-1, 1)
        # r x omega = [r]x omega, and the rows of [r]x's transpose are r x e_j
        self.airflow_matrix = np.array(
            [np.hstack((m.rot.T, m.rot.T @ np.cross(m.r, np.eye(3)).T)) for m in self.mounts]
        ).reshape(-1, 3, 6)

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
    """Relative airflow at every mount, sensor frame: (n_sensors, 3) for
    one state, (n_sensors, 3, m) for (3, m) blocks.

    Each mount's rotational sweep is taken off the body-frame airflow
    v_inf_b and the result rotated into the sensor axes, all mounts in
    one product with the rig's airflow_matrix.  sensors (a boolean mask
    or index array over the mounts) restricts the result to those
    mounts, in mount order.
    """
    a = rig.airflow_matrix if sensors is None else rig.airflow_matrix[sensors]
    state = np.concatenate((v_inf_b, omega_b))
    return a.reshape(-1, 6).dot(state).reshape((-1, 3) + state.shape[1:])


def rig_predict(q_wb, v_w, omega_b, v_wind_w, rig: WhiskerRig, sensors=None):
    """Predicted deflections for every mount: (n_sensors, 2) for one
    state, (n_sensors, 2, m) for blocks.

    Component-first inputs as body_airflow takes them: attitude q_wb,
    world velocity v_w, body rates omega_b and world wind v_wind_w, each
    (4,) / (3,) or (4, m) / (3, m) (v_wind_w may be (3, 1)).  sensors
    restricts the prediction as in rig_airflow.
    """
    coeff = rig.coeff if sensors is None else rig.coeff[sensors]
    v_s = rig_airflow(body_airflow(q_wb, v_wind_w, v_w), omega_b, rig, sensors)
    # each mount's components first, the mounts next: coeff on the mount axis
    theta = predict_deflection(v_s.swapaxes(0, 1), coeff.reshape((-1,) + (1,) * (v_s.ndim - 2)))
    return theta.swapaxes(0, 1)
