"""Closed-loop hexarotor flight simulator with sensor synthesis.

Produces multi-rate logs: ground truth at 500 Hz, odometry at 100 Hz,
IMU specific force at 200 Hz, whisker fields at 50 Hz and throttle +
commanded wrench at 200 Hz.  Every channel clock lands on whole ticks
of a 1 kHz clock (checked at import); the controller, wind and touch
inputs refresh at the 500 Hz control tick, and odometry and whisker
rows fall on control ticks.

Wind is ambient flow plus cone-shaped gusts (leaf-blower style: a
centerline speed with a cosine falloff toward the cone wall and an
on/off schedule).  Touch forces are piecewise-linear world-frame
pulls/pushes.  A configurable rotor-interference channel can add a
throttle- and airflow-dependent bias to the whisker angles, emulating
propwash the whisker model does not capture.

Before the loop, the inputs that depend on time alone are built in one
block pass over the control-tick clock (k * dt on the 1 kHz clock): the
plan's set-points [p, v, a] and phases (plan.FlightPlan.setpoints) and
the touch forces, each entry the bits of the scalar formula
(tests/test_sim_golden.py keeps those as its reference).  The wind
depends on where the vehicle is, so it stays in the loop, on Python
floats.

The loop flies the vehicle and nothing else, on Python floats, one
control tick at a time: it checks the divergence guard, reads its
set-point and touch rows, runs Controller.step, evaluates the wind and
takes one vehicle.rk4_step over the 2 ms tick, which also returns the
start-of-step acceleration.  Where an IMU tick falls 1 ms into the
control tick, it takes two 1 ms steps instead, and the mid state's
quaternion with the second step's start-of-step acceleration is that
IMU tick's row [q, a].  Per control tick it keeps one truth row (up to
the touch and phase) and one command row [u, wrench].  None of the
sensors feeds back.

After the loop (and on the SimulationDiverged path, over the ticks
flown) each sensor channel is sliced from those rows: odometry and
whisker take the truth rows of their control ticks, throttle the
command rows, and IMU the truth rows of its ticks on control ticks with
the mid-tick rows between them.  The truth rows take their touch and
phase columns from the block pass, the channel clocks are built as
k * dt arrays, and each sensor channel is built in one pass over its
ticks, on the same component-first kernels the filter runs on its sigma
blocks: the odometry attitude noise with quat_from_axis_angle and
quat_multiply_rows, the IMU's R(q)^T (a - g) as one stacked product,
and each mount's airflow once per whisker tick (rig_airflow of
body_airflow), which both the deflection and the interference bias
read.

The noise comes first, in the order a loop over the sensor ticks would
draw it: tick after tick and, within a tick, the odometry's position,
velocity, attitude and gyro noise, then the IMU's, then the whisker
angles', then each mount's outlier draws.  All the Gaussian draws are
one standard normal block, scaled channel by channel, cut only where
outlier draws come between them.  The order is part of each seed's
noise realization (moving one draw re-draws all that follow), and
tests/test_sim_golden.py pins it: truth, odometry, IMU and throttle
match that flight to the bit, and the whisker channel to 1e-9 (its
airflow products are matrix-matrix products over all ticks, whose
rounding depends on how BLAS blocks them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import quat_from_axis_angle, quat_multiply_rows, quat_to_matrix
from .vehicle import VehicleParams, rk4_step, scalar_consts
from . import whisker as whisker_mod
from .whisker import WhiskerRig, default_rig
from .logio import FlightLog
from .plan import (  # noqa: F401  (the plan's names are the simulator's API too)
    PHASE_EXECUTE,
    PHASE_GOTO,
    PHASE_LAND,
    PHASE_TAKEOFF,
    CircleTrajectory,
    FlightPlan,
    HoverTrajectory,
    JoystickTrajectory,
    LineTrajectory,
)

SIM_RATE = 1000.0
TRUTH_RATE = 500.0
ODO_RATE = 100.0
IMU_RATE = 200.0
WHISKER_RATE = 50.0
THROTTLE_RATE = 200.0

N_ROTORS = 6
SPIN_DIRS = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
ARM_LENGTH = 0.25  # m
K_THRUST = 4.0  # N per unit throttle
K_MOMENT = 0.016  # N m of yaw moment per N of rotor force

THETA_LIMIT = 0.5  # rad, mechanical end stop of the whisker spring
DIVERGENCE_BOUND = 25.0  # m, controller blow-up guard


class SimulationDiverged(RuntimeError):
    """Closed-loop run left the arena; carries the log collected so far."""

    def __init__(self, message, partial_log):
        super().__init__(message)
        self.partial_log = partial_log

# fixed per-mount propwash directions (unit 2-vectors in the angle plane)
INTERFERENCE_DIRS = np.array(
    [[0.6, 0.8], [-0.8, 0.6], [math.sqrt(0.5), -math.sqrt(0.5)], [-0.6, 0.2]]
)


# ---------------------------------------------------------------------------
# wind and touch

_ZERO3 = (0.0, 0.0, 0.0)


@dataclass
class ConeGust:
    """Conical jet: constant speed on the centerline, cosine falloff
    toward the cone wall, active on [t_on, t_off)."""

    origin: np.ndarray
    direction: np.ndarray
    half_angle: float = 0.35  # rad
    speed: float = 3.6  # m/s on the centerline
    t_on: float = 0.0
    t_off: float = math.inf

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        d = np.asarray(self.direction, dtype=float)
        n = np.linalg.norm(d)
        if n < 1e-9:
            raise ValueError("gust direction must be nonzero")
        self.direction = d / n
        self._floats = tuple(self.origin.tolist()) + tuple(self.direction.tolist())

    def velocity(self, p, t):
        """The gust velocity at the point p (3 floats) at time t, a tuple of
        3 floats; computed on Python floats, as the simulator's loop calls
        it once per control tick."""
        if not (self.t_on <= t < self.t_off):
            return _ZERO3
        ox, oy, oz, dx, dy, dz = self._floats
        px, py, pz = p
        rx, ry, rz = px - ox, py - oy, pz - oz
        axial = rx * dx + ry * dy + rz * dz
        if axial < 0.05:
            return _ZERO3
        cx, cy, cz = rx - axial * dx, ry - axial * dy, rz - axial * dz
        off_axis = math.atan2(math.sqrt(cx * cx + cy * cy + cz * cz), axial)
        if off_axis >= self.half_angle:
            return _ZERO3
        s = self.speed * math.cos(0.5 * math.pi * off_axis / self.half_angle)
        return s * dx, s * dy, s * dz


@dataclass
class WindField:
    ambient: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gusts: list[ConeGust] = field(default_factory=list)

    def __post_init__(self):
        self.ambient = np.asarray(self.ambient, dtype=float)
        self._ambient = tuple(self.ambient.tolist())

    def at(self, p, t):
        """The wind at the point p at time t, a list of 3 floats: the
        ambient flow plus each gust's velocity."""
        wx, wy, wz = self._ambient
        for g in self.gusts:
            gx, gy, gz = g.velocity(p, t)
            wx, wy, wz = wx + gx, wy + gy, wz + gz
        return [wx, wy, wz]


@dataclass
class TouchEvent:
    """World-frame force interpolated linearly from f0 at t0 to f1 at t1."""

    t0: float
    t1: float
    f0: np.ndarray
    f1: np.ndarray

    def __post_init__(self):
        self.f0 = np.asarray(self.f0, dtype=float)
        self.f1 = np.asarray(self.f1, dtype=float)
        if self.t1 <= self.t0:
            raise ValueError("touch event needs t1 > t0")


@dataclass
class TouchProfile:
    events: list[TouchEvent] = field(default_factory=list)

    def forces(self, t):
        """The summed event forces at each time of the 1-D array t, an
        (n, 3) array."""
        f = np.zeros((t.shape[0], 3))
        for ev in self.events:
            on = (ev.t0 <= t) & (t < ev.t1)
            f[on] += ev.f0 + (ev.f1 - ev.f0) * ((t[on] - ev.t0) / (ev.t1 - ev.t0))[:, None]
        return f


# ---------------------------------------------------------------------------
# controller


@dataclass
class ControllerParams:
    kp_pos: np.ndarray = field(default_factory=lambda: np.array([5.0, 5.0, 8.0]))
    kd_pos: np.ndarray = field(default_factory=lambda: np.array([4.0, 4.0, 5.0]))
    ki_pos: np.ndarray = field(default_factory=lambda: np.array([1.2, 1.2, 1.5]))
    int_limit: float = 3.0
    kp_att: np.ndarray = field(default_factory=lambda: np.array([160.0, 160.0, 60.0]))
    kd_att: np.ndarray = field(default_factory=lambda: np.array([24.0, 24.0, 14.0]))


def allocation_matrix():
    """Rows map rotor forces to (collective force, body torques)."""
    B = np.zeros((4, N_ROTORS))
    for i in range(N_ROTORS):
        phi = math.radians(30.0) + i * math.radians(60.0)
        B[0, i] = 1.0
        B[1, i] = ARM_LENGTH * math.sin(phi)
        B[2, i] = -ARM_LENGTH * math.cos(phi)
        B[3, i] = -SPIN_DIRS[i] * K_MOMENT
    return B


def _normalize_quat(s):
    """The packed state s with its quaternion normalized as
    geometry.quat_normalize_rows does it (left-to-right sum of squares,
    then one division per component), on Python floats."""
    qw, qx, qy, qz = s[6:10]
    n = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    return s[:6] + [qw / n, qx / n, qy / n, qz / n] + s[10:]


def _tuples(a):
    """A 2-D array as a tuple of row tuples of Python floats."""
    return tuple(map(tuple, np.asarray(a, dtype=float).tolist()))


class Controller:
    """Cascaded position PID -> thrust direction -> attitude PD -> rotors.

    step runs on Python floats alone, as straight-line sums over the gains,
    the inertia and the allocation matrices, which __init__ converts to
    tuples once: a numpy call on a 3-vector costs more than the arithmetic
    it does.
    """

    def __init__(self, params: ControllerParams, vehicle: VehicleParams):
        self.params = params
        self.vehicle = vehicle
        B = allocation_matrix()
        self._alloc, self._alloc_pinv = _tuples(B), _tuples(np.linalg.pinv(B))
        self._inertia = _tuples(vehicle.inertia)
        self._gains = _tuples(
            [params.kp_pos, params.kd_pos, params.ki_pos, params.kp_att, params.kd_att]
        )
        self.integral = [0.0, 0.0, 0.0]

    def step(self, s, sp, dt):
        """One control tick on the packed state s (vehicle.rk4_step's layout,
        unit quaternion) and the set-point row sp = [p, v, a], 9 floats;
        returns the six throttles and the commanded wrench
        [f, tau_x, tau_y, tau_z], lists of floats."""
        (kpx, kpy, kpz), (kdx, kdy, kdz), (kix, kiy, kiz), kp_att, kd_att = self._gains
        lim, mass, g = self.params.int_limit, self.vehicle.mass, self.vehicle.gravity
        px, py, pz, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = s
        spx, spy, spz, svx, svy, svz, sax, say, saz = sp
        ex, ey, ez = spx - px, spy - py, spz - pz
        ix, iy, iz = self.integral
        ix = min(max(ix + ex * dt, -lim), lim)
        iy = min(max(iy + ey * dt, -lim), lim)
        iz = min(max(iz + ez * dt, -lim), lim)
        self.integral = [ix, iy, iz]
        fx = mass * (sax + kpx * ex + kdx * (svx - vx) + kix * ix)
        fy = mass * (say + kpy * ey + kdy * (svy - vy) + kiy * iy)
        fz = mass * (saz + kpz * ez + kdz * (svz - vz) + kiz * iz + g)
        # R(q), entry by entry as geometry.quat_to_matrix forms it
        r00, r01, r02 = 1 - 2 * (qy * qy + qz * qz), 2 * (qx * qy - qw * qz), 2 * (qx * qz + qw * qy)
        r10, r11, r12 = 2 * (qx * qy + qw * qz), 1 - 2 * (qx * qx + qz * qz), 2 * (qy * qz - qw * qx)
        r20, r21, r22 = 2 * (qx * qz - qw * qy), 2 * (qy * qz + qw * qx), 1 - 2 * (qx * qx + qy * qy)
        # satisfy the vertical force balance exactly: f = f_des_z / b3_z
        f_cmd = fz / max(r22, 0.25)
        f_cmd = min(max(f_cmd, 0.0), N_ROTORS * K_THRUST)
        # attitude set-point R_des = [b1 b2 b3] from the desired force
        # direction b3, yaw held at 0: b2 = b3 x e_x / |b3 x e_x|, b1 = b2 x b3
        n = math.sqrt(fx * fx + fy * fy + fz * fz)
        b3x, b3y, b3z = (fx / n, fy / n, fz / n) if n > 0.1 * mass * g else (0.0, 0.0, 1.0)
        n = math.sqrt(b3z * b3z + b3y * b3y)
        b2y, b2z = b3z / n, -b3y / n
        b1x, b1y, b1z = b2y * b3z - b2z * b3y, b2z * b3x, -b2y * b3x
        # e_R = vee(M - M^T) / 2 with M = R_des^T R, M_ij = b_i . R e_j
        e0 = 0.5 * ((b3x * r01 + b3y * r11 + b3z * r21) - (b2y * r12 + b2z * r22))
        e1 = 0.5 * ((b1x * r02 + b1y * r12 + b1z * r22) - (b3x * r00 + b3y * r10 + b3z * r20))
        e2 = 0.5 * ((b2y * r10 + b2z * r20) - (b1x * r01 + b1y * r11 + b1z * r21))
        a0 = -kp_att[0] * e0 - kd_att[0] * wx
        a1 = -kp_att[1] * e1 - kd_att[1] * wy
        a2 = -kp_att[2] * e2 - kd_att[2] * wz
        # torque J a + w x J w
        (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = self._inertia
        hx = j00 * wx + j01 * wy + j02 * wz
        hy = j10 * wx + j11 * wy + j12 * wz
        hz = j20 * wx + j21 * wy + j22 * wz
        k = K_THRUST
        c0 = f_cmd / k
        c1 = (j00 * a0 + j01 * a1 + j02 * a2 + (wy * hz - wz * hy)) / k
        c2 = (j10 * a0 + j11 * a1 + j12 * a2 + (wz * hx - wx * hz)) / k
        c3 = (j20 * a0 + j21 * a1 + j22 * a2 + (wx * hy - wy * hx)) / k
        # the six throttles and the wrench written out: in CPython 3.11 a
        # comprehension is a call of its own
        ((p00, p01, p02, p03), (p10, p11, p12, p13), (p20, p21, p22, p23),
         (p30, p31, p32, p33), (p40, p41, p42, p43), (p50, p51, p52, p53)) = self._alloc_pinv
        u0 = p00 * c0 + p01 * c1 + p02 * c2 + p03 * c3
        u1 = p10 * c0 + p11 * c1 + p12 * c2 + p13 * c3
        u2 = p20 * c0 + p21 * c1 + p22 * c2 + p23 * c3
        u3 = p30 * c0 + p31 * c1 + p32 * c2 + p33 * c3
        u4 = p40 * c0 + p41 * c1 + p42 * c2 + p43 * c3
        u5 = p50 * c0 + p51 * c1 + p52 * c2 + p53 * c3
        # np.clip's result, -0.0 and NaN included
        u0 = 0.0 if u0 < 0.0 else 1.0 if u0 > 1.0 else u0
        u1 = 0.0 if u1 < 0.0 else 1.0 if u1 > 1.0 else u1
        u2 = 0.0 if u2 < 0.0 else 1.0 if u2 > 1.0 else u2
        u3 = 0.0 if u3 < 0.0 else 1.0 if u3 > 1.0 else u3
        u4 = 0.0 if u4 < 0.0 else 1.0 if u4 > 1.0 else u4
        u5 = 0.0 if u5 < 0.0 else 1.0 if u5 > 1.0 else u5
        f0, f1, f2, f3, f4, f5 = k * u0, k * u1, k * u2, k * u3, k * u4, k * u5
        ((b00, b01, b02, b03, b04, b05), (b10, b11, b12, b13, b14, b15),
         (b20, b21, b22, b23, b24, b25), (b30, b31, b32, b33, b34, b35)) = self._alloc
        return [u0, u1, u2, u3, u4, u5], [
            b00 * f0 + b01 * f1 + b02 * f2 + b03 * f3 + b04 * f4 + b05 * f5,
            b10 * f0 + b11 * f1 + b12 * f2 + b13 * f3 + b14 * f4 + b15 * f5,
            b20 * f0 + b21 * f1 + b22 * f2 + b23 * f3 + b24 * f4 + b25 * f5,
            b30 * f0 + b31 * f1 + b32 * f2 + b33 * f3 + b34 * f4 + b35 * f5,
        ]


# ---------------------------------------------------------------------------
# noise and scenarios


@dataclass
class NoiseSpec:
    odo_pos: float = 0.005  # m
    odo_att: float = math.radians(0.2)  # rad
    odo_vel: float = 0.02  # m/s
    odo_gyro: float = 0.01  # rad/s
    imu_accel: float = 0.05  # m/s^2
    imu_bias: float = 0.02  # m/s^2, constant per run
    whisker_angle: float = 0.005  # rad
    whisker_offset: float = 0.01  # rad, constant per sensor per run
    outlier_prob: float = 0.0  # per sensor-tick spike probability
    outlier_mag: float = 80.0  # counts
    interference_gain: float = 0.0  # rad of angle bias per unit mean-throttle^2

    @staticmethod
    def none():
        # zero every stochastic source; outlier_mag stays meaningful if a
        # caller re-enables outlier_prob on the returned spec
        return NoiseSpec(
            odo_pos=0.0, odo_att=0.0, odo_vel=0.0, odo_gyro=0.0,
            imu_accel=0.0, imu_bias=0.0, whisker_angle=0.0,
            whisker_offset=0.0, outlier_prob=0.0, interference_gain=0.0,
        )


@dataclass
class Scenario:
    name: str
    plan: FlightPlan
    wind: WindField = field(default_factory=WindField)
    touch: TouchProfile = field(default_factory=TouchProfile)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    seed: int = 0
    thrust_scale: float = 1.0
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    rig: WhiskerRig = field(default_factory=default_rig)
    controller: ControllerParams = field(default_factory=ControllerParams)


TRUTH_COLUMNS = (
    ["px", "py", "pz", "vx", "vy", "vz", "qw", "qx", "qy", "qz", "wx", "wy", "wz"]
    + ["ax", "ay", "az", "thrust", "wind_x", "wind_y", "wind_z"]
    + ["touch_x", "touch_y", "touch_z", "phase"]
)
ODO_COLUMNS = ["px", "py", "pz", "qw", "qx", "qy", "qz", "vx", "vy", "vz", "wx", "wy", "wz"]
IMU_COLUMNS = ["ax", "ay", "az"]
THROTTLE_COLUMNS = [f"u{i}" for i in range(N_ROTORS)] + ["f_cmd", "tau_x", "tau_y", "tau_z"]


def whisker_columns(n_sensors):
    cols = []
    for i in range(n_sensors):
        cols += [f"theta_x_{i}", f"theta_y_{i}", f"bx_{i}", f"by_{i}", f"bz_{i}"]
    return cols


def _period_ticks(rate, multiple):
    """Simulator ticks (1 / SIM_RATE s) per sample of a channel at rate Hz.

    A ValueError names a rate whose period is not a whole number of steps
    of `multiple` ticks; int() would truncate it and run the channel at
    another rate."""
    ticks = SIM_RATE / rate
    if not (ticks >= multiple and ticks % multiple == 0):
        raise ValueError(f"channel rate {rate!r} Hz: its period is not a whole number of "
                         f"{multiple}-tick steps of the {SIM_RATE:g} Hz simulator clock")
    return int(ticks)


# The loop takes one RK4 step per control tick (two 1-tick steps when an
# IMU tick falls between control ticks), so the control tick must be two
# simulator ticks, and odometry and whisker rows are control-tick rows.
_DIV_CTRL = _period_ticks(TRUTH_RATE, 1)
if _DIV_CTRL != 2:
    raise ValueError(f"control rate {TRUTH_RATE!r} Hz: the loop steps a 2-tick control tick")
_DIV_ODO = _period_ticks(ODO_RATE, _DIV_CTRL)
_DIV_IMU = _period_ticks(IMU_RATE, 1)
_DIV_WHISK = _period_ticks(WHISKER_RATE, _DIV_CTRL)
_DIV_THR = _period_ticks(THROTTLE_RATE, 1)
_DIV_SENSOR = math.gcd(_DIV_ODO, _DIV_IMU, _DIV_WHISK)  # every sensor tick is a multiple

_ODO_NOISE = ("odo_pos", "odo_vel", "odo_att", "odo_gyro")
# the truth columns of an IMU row [q, a]
_IMU_SOURCE = [6, 7, 8, 9, 13, 14, 15]


def _draw_sensor_noise(rng, noise: NoiseSpec, n_ticks, n_sensors):
    """Every per-tick draw of the sensor channels over the simulator's
    first n_ticks ticks, one sensor tick after another, each tick in
    channel order: odometry (position, velocity, attitude, gyro), IMU,
    whisker angles, then each mount's outlier draws.  A zero noise level
    makes no draw.

    rng.normal(0, sigma, n) is 0.0 + sigma * z on the next n values z of
    the standard normal stream, so one rng.standard_normal block, scaled
    channel by channel, holds the bits of every draw.  Outlier draws
    (random, integers, choice) cut that stream after each whisker tick's
    draws; without outliers it is one block.

    Returns (odo, imu, angles, outliers): odo a dict from each nonzero
    _ODO_NOISE level to its (n_odo, 3) draws, imu (n_imu, 3) and angles
    (n_whisk, n_sensors, 2) or None at zero level, and outliers the
    (whisker tick, mount, field component, offset) of each spike.
    """
    k = np.arange(0, n_ticks, _DIV_SENSOR)
    blocks = [(name, getattr(noise, name), 3, k % _DIV_ODO == 0) for name in _ODO_NOISE]
    blocks += [("imu", noise.imu_accel, 3, k % _DIV_IMU == 0),
               ("angles", noise.whisker_angle, 2 * n_sensors, k % _DIV_WHISK == 0)]
    blocks = [b for b in blocks if b[1]]
    # each sensor tick's draw count, and each block's first draw within its ticks'
    count = np.zeros(k.size, dtype=int)
    firsts = []
    for _, _, size, on in blocks:
        firsts.append(count[on])
        count += size * on
    start = np.cumsum(count) - count
    cuts = (start + count)[k % _DIV_WHISK == 0].tolist() if noise.outlier_prob else []
    z, drawn, outliers = [], 0, []
    for j, cut in enumerate(cuts):
        z.append(rng.standard_normal(cut - drawn))
        drawn = cut
        for i in range(n_sensors):
            if rng.random() < noise.outlier_prob:
                comp = rng.integers(0, 3)
                outliers.append((j, i, comp, noise.outlier_mag * rng.choice([-1.0, 1.0])))
    z.append(rng.standard_normal(int(count.sum()) - drawn))
    z = np.concatenate(z)
    draws = {
        name: 0.0 + sigma * z[(start[on] + first)[:, None] + np.arange(size)]
        for (name, sigma, size, on), first in zip(blocks, firsts)
    }
    imu, angles = draws.pop("imu", None), draws.pop("angles", None)
    if angles is not None:
        angles = angles.reshape(-1, n_sensors, 2)
    return draws, imu, angles, outliers


def _odometry_rows(states, draws):
    """Odometry rows from the (n, 13) packed states at the odometry ticks
    and the dict of their noise draws: position, velocity and gyro noise
    added, the attitude perturbed by the exponential of its draw on the
    left."""
    p, v, q, w = states[:, 0:3], states[:, 3:6], states[:, 6:10], states[:, 10:13]
    if "odo_pos" in draws:
        p = p + draws["odo_pos"]
    if "odo_vel" in draws:
        v = v + draws["odo_vel"]
    if "odo_att" in draws:
        q = np.array(quat_multiply_rows(quat_from_axis_angle(draws["odo_att"].T), q.T)).T
    if "odo_gyro" in draws:
        w = w + draws["odo_gyro"]
    return np.concatenate((p, q, v, w), axis=1)


def _imu_rows(src, gravity, draws, bias):
    """Specific force rows R(q)^T (a - g) + noise + bias from the (n, 7)
    rows [q, a] at the IMU ticks.  The rotations are stacked as one
    C-ordered matrix per tick, so that each product is the matrix-vector
    product of one tick's matrix, with its rounding."""
    R = np.ascontiguousarray(quat_to_matrix(src[:, 0:4].T).transpose(2, 0, 1))
    a = src[:, 4:7] - np.array([0.0, 0.0, -gravity])
    spec = (R.swapaxes(1, 2) @ a[:, :, None])[:, :, 0]
    if draws is not None:
        spec = spec + draws
    return spec + bias


def _whisker_rows(truth, mean_sq, rig: WhiskerRig, noise: NoiseSpec, offsets, angles, outliers):
    """Whisker rows from the (n, 20) truth rows (state, acceleration,
    thrust, wind) and the mean squared throttle at the whisker ticks:
    each mount's airflow formed once, its deflection plus the
    rotor-interference bias, the offsets and angle noise, the end stops,
    the synthesized field and the outlier spikes."""
    n_sensors = len(rig)
    q, v, w, wind = truth[:, 6:10].T, truth[:, 3:6].T, truth[:, 10:13].T, truth[:, 17:20].T
    # each mount's airflow (n_sensors, 3, m), then its deflection (2, n_sensors, m)
    v_s = whisker_mod.rig_airflow(whisker_mod.body_airflow(q, wind, v), w, rig)
    theta = whisker_mod.predict_deflection(v_s.swapaxes(0, 1), rig.coeff[:, None])
    if noise.interference_gain:
        int_dirs = INTERFERENCE_DIRS[np.arange(n_sensors) % len(INTERFERENCE_DIRS)]
        planar = np.hypot(v_s[:, 0], v_s[:, 1])
        bias = noise.interference_gain * mean_sq * (1.0 + 0.8 * np.tanh(planar / 2.0))
        theta = theta + bias * int_dirs.T[:, :, None]
    theta = theta.transpose(2, 1, 0) + offsets  # (m, n_sensors, 2)
    if angles is not None:
        theta = theta + angles
    # spring end stops
    theta = np.clip(theta, -THETA_LIMIT, THETA_LIMIT)
    b = rig.sign * whisker_mod.synthesize_field(theta)
    for j, i, comp, spike in outliers:
        b[j, i, comp] += spike
    return np.concatenate((theta, b), axis=2).reshape(-1, 5 * n_sensors)


def run_scenario(sc: Scenario) -> FlightLog:
    """Fly the scenario closed-loop, then synthesize the sensor channels."""
    rng = np.random.default_rng(sc.seed)
    noise = sc.noise
    veh = sc.vehicle
    n_sensors = len(sc.rig)
    imu_bias = rng.normal(0.0, noise.imu_bias, 3) if noise.imu_bias else np.zeros(3)
    offsets = (
        rng.normal(0.0, noise.whisker_offset, (n_sensors, 2))
        if noise.whisker_offset
        else np.zeros((n_sensors, 2))
    )

    plan = sc.plan
    dt = 1.0 / SIM_RATE
    h = 1.0 / TRUTH_RATE
    n_steps = int(round(plan.duration * SIM_RATE)) + 1
    # the open-loop inputs of every control tick, on the clock k * dt
    t_ctrl = np.arange(0, n_steps, _DIV_CTRL) * dt
    setpoints, phases = plan.setpoints(t_ctrl)
    touches = sc.touch.forces(t_ctrl)
    # the control ticks whose second simulator tick is an IMU tick
    split = (np.arange(1, n_steps + 1, _DIV_CTRL) % _DIV_IMU == 0).tolist()
    ctrl = Controller(sc.controller, veh)
    scale = float(sc.thrust_scale)

    consts = scalar_consts(veh)
    # the hot loop runs on Python floats; see the note above vehicle.scalar_consts
    packed = setpoints[0, 0:3].tolist() + [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    # per control tick: the truth row up to the wind (touch and phase are
    # joined after the loop) and the command row [u, wrench]; per IMU tick
    # between control ticks, the row [q, a]
    truth_rows, cmd_rows, imu_rows = [], [], []

    def build_log(n_ticks):
        """The log of the first n_ticks simulator ticks, each sensor
        channel sliced from the rows and built in one pass after its noise
        is drawn."""
        odo, imu, angles, outliers = _draw_sensor_noise(rng, noise, n_ticks, n_sensors)
        m = len(truth_rows)
        truth = np.array(truth_rows).reshape(m, len(TRUTH_COLUMNS) - 4)
        cmd = np.array(cmd_rows).reshape(m, len(THROTTLE_COLUMNS))
        # each channel's ticks k on the simulator clock; k // _DIV_CTRL is
        # the control tick each falls in
        log = FlightLog()
        k = np.arange(0, n_ticks, _DIV_CTRL)
        log.add("truth", k * dt, np.concatenate((truth, touches[:m], phases[:m, None]), axis=1),
                TRUTH_COLUMNS)
        k = np.arange(0, n_ticks, _DIV_ODO)
        log.add("odometry", k * dt, _odometry_rows(truth[k // _DIV_CTRL, 0:13], odo), ODO_COLUMNS)
        k = np.arange(0, n_ticks, _DIV_IMU)
        on_ctrl = k % _DIV_CTRL == 0
        src = np.empty((k.size, 7))
        src[on_ctrl] = truth[k[on_ctrl] // _DIV_CTRL][:, _IMU_SOURCE]
        src[~on_ctrl] = np.array(imu_rows).reshape(-1, 7)[: k.size - on_ctrl.sum()]
        log.add("imu", k * dt, _imu_rows(src, veh.gravity, imu, imu_bias), IMU_COLUMNS)
        k = np.arange(0, n_ticks, _DIV_WHISK)
        u = cmd[k // _DIV_CTRL, 0:N_ROTORS]
        # the mean squared throttle, its sum left to right
        mean_sq = ((u[:, 0] + u[:, 1] + u[:, 2] + u[:, 3] + u[:, 4] + u[:, 5]) / N_ROTORS) ** 2
        log.add("whisker", k * dt,
                _whisker_rows(truth[k // _DIV_CTRL], mean_sq, sc.rig, noise, offsets, angles,
                              outliers),
                whisker_columns(n_sensors))
        k = np.arange(0, n_ticks, _DIV_THR)
        log.add("throttle", k * dt, cmd[k // _DIV_CTRL], THROTTLE_COLUMNS)
        return log

    for sp, touch_f, t, two_steps in zip(setpoints.tolist(), touches.tolist(), t_ctrl.tolist(),
                                         split):
        px, py, pz = packed[0:3]
        dist = math.sqrt(px * px + py * py + pz * pz)
        # written so that a NaN position fails it too
        if not dist <= DIVERGENCE_BOUND:
            raise SimulationDiverged(
                f"vehicle left the arena at t={t:.2f}s (|p|={dist:.1f} m)",
                build_log(len(truth_rows) * _DIV_CTRL),
            )
        # the controller sees the quaternion normalized with
        # quat_normalize_rows' rounding; the RK4 step's own renormalization
        # rounds differently, and the integration goes on from packed
        u, wrench_cmd = ctrl.step(_normalize_quat(packed), sp, h)
        wind_f = sc.wind.at((px, py, pz), t)
        f_applied = scale * wrench_cmd[0]
        tau_applied = [scale * wrench_cmd[1], scale * wrench_cmd[2], scale * wrench_cmd[3]]
        # acc, the start-of-step acceleration, goes into the truth and IMU rows
        if two_steps:
            acc, mid = rk4_step(packed, f_applied, tau_applied, wind_f, touch_f, consts, dt)
            acc_mid, packed_next = rk4_step(mid, f_applied, tau_applied, wind_f, touch_f,
                                            consts, dt)
            imu_rows.append(mid[6:10] + acc_mid)
        else:
            acc, packed_next = rk4_step(packed, f_applied, tau_applied, wind_f, touch_f, consts, h)
        truth_rows.append([*packed, *acc, f_applied, *wind_f])
        cmd_rows.append(u + wrench_cmd)
        packed = packed_next

    return build_log(n_steps)


# ---------------------------------------------------------------------------
# canonical scenarios


def circular_scenario(seed=1, noise=None, speeds=(1.0, 2.0, 3.0, 4.0, 5.0), hold=8.0,
                      interference=0.0, thrust_scale=1.0):
    noise = NoiseSpec() if noise is None else noise
    if interference:
        noise = replace(noise, interference_gain=interference)
    traj = CircleTrajectory(radius=2.5, speeds=speeds, hold=hold)
    return Scenario(
        "circular", FlightPlan(traj), noise=noise, seed=seed, thrust_scale=thrust_scale
    )


def joystick_scenario(seed=2, noise=None, interference=0.0):
    noise = NoiseSpec() if noise is None else noise
    if interference:
        noise = replace(noise, interference_gain=interference)
    traj = JoystickTrajectory(seed=seed + 1000, duration=45.0, vmax=4.0)
    return Scenario("joystick", FlightPlan(traj), noise=noise, seed=seed)


def line_gust_scenario(seed=3, noise=None):
    noise = NoiseSpec() if noise is None else noise
    traj = LineTrajectory(p0=np.array([-5.0, 0.0, 1.5]), p1=np.array([5.0, 0.0, 1.5]))
    gust = ConeGust(
        origin=np.array([0.0, 2.8, 1.5]),
        direction=np.array([0.0, -1.0, 0.0]),
        half_angle=0.45,
        speed=3.6,
    )
    return Scenario(
        "line_gust", FlightPlan(traj), wind=WindField(gusts=[gust]), noise=noise, seed=seed
    )


def four_phase_scenario(seed=4, noise=None, thrust_scale=1.0, phase_len=10.0):
    """Hover; gust on; gust + ramping pull; pull only. Landing afterwards."""
    noise = NoiseSpec() if noise is None else noise
    traj = HoverTrajectory(point=np.array([0.0, 0.0, 1.5]), duration=4.0 * phase_len)
    plan = FlightPlan(traj, ground_xy=np.array([-1.5, 0.0]))
    t0 = plan.t_execute
    gust = ConeGust(
        origin=np.array([2.5, 0.0, 1.5]),
        direction=np.array([-1.0, 0.0, 0.0]),
        half_angle=0.35,
        speed=3.6,
        t_on=t0 + phase_len,
        t_off=t0 + 3.0 * phase_len,
    )
    pull = np.array([0.0, 0.0, -4.0])  # N, downward
    touch = TouchProfile(
        [
            TouchEvent(t0 + 2.0 * phase_len, t0 + 3.0 * phase_len, np.zeros(3), pull),
            TouchEvent(t0 + 3.0 * phase_len, t0 + 4.0 * phase_len, pull, pull),
        ]
    )
    return Scenario(
        "four_phase",
        plan,
        wind=WindField(gusts=[gust]),
        touch=touch,
        noise=noise,
        seed=seed,
        thrust_scale=thrust_scale,
    )


def hover_scenario(seed=5, noise=None, duration=8.0):
    noise = NoiseSpec() if noise is None else noise
    traj = HoverTrajectory(duration=duration)
    return Scenario("hover", FlightPlan(traj), noise=noise, seed=seed)


SCENARIOS = {
    "circular": circular_scenario,
    "joystick": joystick_scenario,
    "line_gust": line_gust_scenario,
    "four_phase": four_phase_scenario,
    "hover": hover_scenario,
}
