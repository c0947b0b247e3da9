"""Closed-loop hexarotor flight simulator with sensor synthesis.

Produces multi-rate logs: ground truth at 500 Hz, odometry at 100 Hz,
IMU specific force at 200 Hz, whisker fields at 50 Hz and throttle +
commanded wrench at 200 Hz.  The integrator runs internally at 1 kHz
(RK4) so every channel clock lands on exact ticks; the controller, wind
and touch inputs refresh at 500 Hz.

Wind is ambient flow plus cone-shaped gusts (leaf-blower style: a
centerline speed with a cosine falloff toward the cone wall and an
on/off schedule).  Touch forces are piecewise-linear world-frame
pulls/pushes.  A configurable rotor-interference channel can add a
throttle- and airflow-dependent bias to the whisker angles, emulating
propwash the whisker model does not capture.

Before the loop, the inputs that depend on time alone are built in one
block pass over the control-tick clock (the loop's own k * dt values):
the plan's set-points [p, v, a] and phases and the touch forces, each
entry the bits of the scalar formula (tests/test_sim_golden.py keeps
those as its reference).  The wind depends on where the vehicle is, so
it stays in the loop.

The 1 kHz loop flies the vehicle and nothing else, on Python floats:
each control tick checks the divergence guard, reads its set-point and
touch rows, runs Controller.step and evaluates the wind, and each tick
runs one vehicle.rk4_step, which also returns the start-of-step
acceleration.  It writes the truth rows (up to the wind) and throttle
rows and, at each sensor tick, only what that channel is made from: the
packed state (odometry), the quaternion and start-of-step acceleration
(IMU), and the state with the tick's wind and mean squared throttle
(whisker).  None of the sensors feeds back.

After the loop (and on the SimulationDiverged path, over the ticks flown)
the truth rows take their touch and phase columns from the block pass,
the channel clocks are built as k * dt arrays, and each sensor channel
is built in one pass over its ticks, on the same component-first
kernels the filter runs on its sigma blocks: the odometry attitude
noise with quat_from_axis_angle and quat_multiply_rows, the IMU's
R(q)^T (a - g) as one stacked product, and each mount's airflow once
per whisker tick (rig_airflow of body_airflow), which both the
deflection and the interference bias read.  The noise comes first, from one loop over the sensor ticks that
makes every draw in tick order and, within a tick, in channel order:
the odometry's position, velocity, attitude and gyro noise, then the
IMU's, then the whisker angles', then each mount's outlier draws.  The
order is part of each seed's noise realization (moving one draw
re-draws all that follow), and tests/test_sim_golden.py pins it:
truth, odometry, IMU and throttle match that flight to the bit, and
the whisker channel to 1e-9 (its airflow products are matrix-matrix
products over all ticks, whose rounding depends on how BLAS blocks
them).
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

PHASE_TAKEOFF = 0
PHASE_GOTO = 1
PHASE_EXECUTE = 2
PHASE_LAND = 3

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

    def velocity(self, p, t):
        if not (self.t_on <= t < self.t_off):
            return np.zeros(3)
        rel = np.asarray(p, dtype=float) - self.origin
        axial = float(rel @ self.direction)
        if axial < 0.05:
            return np.zeros(3)
        radial = rel - axial * self.direction
        off_axis = math.atan2(float(np.linalg.norm(radial)), axial)
        if off_axis >= self.half_angle:
            return np.zeros(3)
        falloff = math.cos(0.5 * math.pi * off_axis / self.half_angle)
        return self.speed * falloff * self.direction


@dataclass
class WindField:
    ambient: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gusts: list[ConeGust] = field(default_factory=list)

    def __post_init__(self):
        self.ambient = np.asarray(self.ambient, dtype=float)

    def at(self, p, t):
        w = self.ambient.copy()
        for g in self.gusts:
            w += g.velocity(p, t)
        return w


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
# trajectory primitives (position, velocity, acceleration; all C1)
#
# Each trajectory's states(t) and the plan's setpoints(t) evaluate a whole
# 1-D array of times at once, into one (n, 9) row [p, v, a] per time.
# Every entry is the scalar formula's value to the bit: the same operations
# in the same order on each element, and libm's sin, cos and pow where the
# formula calls them.


def _smoothstep5(u):
    """Quintic smoothstep and its first two derivatives on [0, 1], at each
    element of the array u."""
    u = np.clip(u, 0.0, 1.0)
    s = u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)
    # (1 - u)^2 by libm's pow, as Python's ** takes it; numpy squares it as
    # a product, which rounds differently in about one case in a thousand
    ds = 30.0 * u * u * np.array([(1.0 - x) ** 2 for x in u.tolist()]).reshape(u.shape)
    dds = 60.0 * u * (1.0 - 3.0 * u + 2.0 * u * u)
    return s, ds, dds


@dataclass
class CircleTrajectory:
    """Horizontal circle flown at a staircase of speeds.

    Angular rate ramps linearly between speed steps (and from/to rest),
    so the speed setpoint is exact during each hold.
    """

    center: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.5]))
    radius: float = 2.5
    speeds: tuple = (1.0, 2.0, 3.0, 4.0, 5.0)
    hold: float = 8.0
    ramp: float = 2.0

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        omegas = [s / self.radius for s in self.speeds]
        segs = []  # (t0, duration, omega0, slope, theta0)
        t = 0.0
        theta = 0.0
        prev = 0.0
        for om in omegas:
            segs.append((t, self.ramp, prev, (om - prev) / self.ramp, theta))
            theta += 0.5 * (prev + om) * self.ramp
            t += self.ramp
            segs.append((t, self.hold, om, 0.0, theta))
            theta += om * self.hold
            t += self.hold
            prev = om
        segs.append((t, self.ramp, prev, -prev / self.ramp, theta))
        t += self.ramp
        self._segments = np.array(segs)
        self.duration = t

    def states(self, t):
        t = np.clip(t, 0.0, self.duration)
        segs = self._segments
        # the first segment that ends after t, else the last
        ends = segs[:, 0] + segs[:, 1]
        i = np.minimum(np.searchsorted(ends, t, side="right"), len(segs) - 1)
        t0, _, om0, slope, th0 = segs[i].T
        tau = t - t0
        om = om0 + slope * tau
        th = th0 + om0 * tau + 0.5 * slope * tau * tau
        ct, st = np.cos(th), np.sin(th)
        r = self.radius
        ro, rs, roo = r * om, r * slope, r * om * om
        cx, cy, cz = self.center.tolist()
        columns = (
            cx + r * ct, cy + r * st, cz + 0.0,
            ro * -st, ro * ct, ro * 0.0,
            rs * -st - roo * ct, rs * ct - roo * st, rs * 0.0 - roo * 0.0,
        )
        return np.stack(np.broadcast_arrays(*columns), axis=1)


@dataclass
class LineTrajectory:
    """Straight segment with a trapezoidal (or triangular) speed profile."""

    p0: np.ndarray = field(default_factory=lambda: np.array([-5.0, 0.0, 1.5]))
    p1: np.ndarray = field(default_factory=lambda: np.array([5.0, 0.0, 1.5]))
    vmax: float = 1.5
    accel: float = 0.8

    def __post_init__(self):
        self.p0 = np.asarray(self.p0, dtype=float)
        self.p1 = np.asarray(self.p1, dtype=float)
        d = self.p1 - self.p0
        self.length = float(np.linalg.norm(d))
        if self.length < 1e-9:
            raise ValueError("degenerate line")
        self.dir = d / self.length
        v = min(self.vmax, math.sqrt(self.accel * self.length))
        self.v_cruise = v
        self.t_acc = v / self.accel
        self.d_acc = 0.5 * v * self.t_acc
        self.t_cruise = max(0.0, (self.length - 2.0 * self.d_acc) / v)
        self.duration = 2.0 * self.t_acc + self.t_cruise

    def states(self, t):
        t = np.clip(t, 0.0, self.duration)
        a_max, v = self.accel, self.v_cruise
        tau = self.duration - t
        # accelerating, cruising, else braking
        acc, cruise = t < self.t_acc, t < self.t_acc + self.t_cruise
        s = np.where(acc, 0.5 * a_max * t * t,
                     np.where(cruise, self.d_acc + v * (t - self.t_acc),
                              self.length - 0.5 * a_max * tau * tau))
        sv = np.where(acc, a_max * t, np.where(cruise, v, a_max * tau))
        sa = np.where(acc, a_max, np.where(cruise, 0.0, -a_max))
        d = self.dir
        return np.concatenate((self.p0 + s[:, None] * d, sv[:, None] * d, sa[:, None] * d), axis=1)


@dataclass
class JoystickTrajectory:
    """Seeded wandering velocity profile, cosine-blended between random
    waypoint velocities every wp_period seconds (C1, bounded to a box)."""

    seed: int = 0
    duration: float = 45.0
    vmax: float = 4.0
    wp_period: float = 2.5
    start: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 2.0]))
    box_half: np.ndarray = field(default_factory=lambda: np.array([4.0, 4.0, 1.4]))

    def __post_init__(self):
        self.start = np.asarray(self.start, dtype=float)
        self.box_half = np.asarray(self.box_half, dtype=float)
        rng = np.random.default_rng(self.seed)
        n_seg = max(1, int(round(self.duration / self.wp_period)))
        self.duration = n_seg * self.wp_period
        vs = [np.zeros(3)]
        pos = self.start.copy()
        T = self.wp_period
        for k in range(1, n_seg):
            raw = rng.normal(size=3)
            raw[2] *= 0.35
            raw = raw / max(np.linalg.norm(raw), 1e-9)
            v = raw * self.vmax * rng.uniform(0.35, 1.0)
            # steer back toward the box center before committing
            v -= 0.6 * (pos + vs[-1] * 0.5 * T - self.start) / T
            n = np.linalg.norm(v)
            if n > self.vmax:
                v *= self.vmax / n
            vs.append(v)
            pos = pos + 0.5 * T * (vs[-2] + vs[-1])
        vs.append(np.zeros(3))
        self._vs = np.array(vs)
        # segment start positions (cosine blend integrates to the midpoint rule)
        ps = [self.start.copy()]
        for k in range(len(vs) - 1):
            ps.append(ps[-1] + 0.5 * T * (self._vs[k] + self._vs[k + 1]))
        self._ps = np.array(ps)

    def states(self, t):
        t = np.clip(t, 0.0, self.duration - 1e-12)
        T = self.wp_period
        k = (t // T).astype(int)
        s = t - k * T
        va, dv = self._vs[k], self._vs[k + 1] - self._vs[k]
        c, sn = np.cos(math.pi * s / T), np.sin(math.pi * s / T)
        p = self._ps[k] + va * s[:, None] + dv * (0.5 * s - (T / (2.0 * math.pi)) * sn)[:, None]
        v = va + dv * 0.5 * (1.0 - c)[:, None]
        a = dv * (math.pi / (2.0 * T)) * sn[:, None]
        return np.concatenate((p, v, a), axis=1)


@dataclass
class HoverTrajectory:
    point: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.5]))
    duration: float = 20.0

    def __post_init__(self):
        self.point = np.asarray(self.point, dtype=float)

    def states(self, t):
        return np.tile(np.concatenate((self.point, np.zeros(6))), (t.shape[0], 1))


@dataclass
class FlightPlan:
    """Idle, vertical takeoff, translation to the start point, the
    mission trajectory, then landing. Setpoints are C1 throughout."""

    traj: object
    idle: float = 1.0
    takeoff: float = 3.0
    land: float = 3.0
    tail: float = 1.0
    ground_xy: np.ndarray | None = None

    def __post_init__(self):
        p_start, p_end = self.traj.states(np.array([0.0, self.traj.duration]))[:, 0:3]
        if self.ground_xy is None:
            self.ground_xy = p_start[:2].copy()
        self.ground_xy = np.asarray(self.ground_xy, dtype=float)
        self._p_ground = np.array([self.ground_xy[0], self.ground_xy[1], 0.0])
        self._p_hover = np.array([self.ground_xy[0], self.ground_xy[1], p_start[2]])
        self._p_start = p_start
        self._p_end = p_end
        dist = float(np.linalg.norm(p_start - self._p_hover))
        self.goto = max(1.5, 1.9 * dist / 1.2)
        self.t_takeoff = self.idle
        self.t_goto = self.t_takeoff + self.takeoff
        self.t_execute = self.t_goto + self.goto
        self.t_land = self.t_execute + self.traj.duration
        self.duration = self.t_land + self.land + self.tail

    def setpoints(self, t):
        """The set-points [p, v, a] at each time of the 1-D array t, an
        (n, 9) array, and the flight phase of each, an (n,) int array."""
        sp = np.zeros((t.shape[0], 9))
        stage = np.searchsorted(
            [self.t_takeoff, self.t_goto, self.t_execute, self.t_land, self.t_land + self.land],
            t, side="right",
        )
        phase = np.array([PHASE_TAKEOFF, PHASE_TAKEOFF, PHASE_GOTO, PHASE_EXECUTE, PHASE_LAND,
                          PHASE_LAND])[stage]
        sp[stage == 0, 0:3] = self._p_ground
        on = stage == 1
        sp[on] = _vertical(self._p_ground, self._p_hover[2],
                           (t[on] - self.t_takeoff) / self.takeoff, self.takeoff)
        on = stage == 2
        s, ds, dds = _smoothstep5((t[on] - self.t_goto) / self.goto)
        d = self._p_start - self._p_hover
        sp[on] = np.concatenate(
            (self._p_hover + s[:, None] * d, d * ds[:, None] / self.goto,
             d * dds[:, None] / self.goto**2),
            axis=1,
        )
        on = stage == 3
        sp[on] = self.traj.states(t[on] - self.t_execute)
        on = stage == 4
        sp[on] = _vertical(self._p_end, -self._p_end[2], (t[on] - self.t_land) / self.land,
                           self.land)
        sp[stage == 5, 0:2] = self._p_end[0:2]
        return sp, phase


def _vertical(p0, dz, u, duration):
    """Set-point rows of a smoothstep climb (dz > 0) or descent from p0
    over duration, at the normalized times u."""
    s, ds, dds = _smoothstep5(u)
    x, y, z = p0.tolist()
    columns = (x + 0.0, y + 0.0, z + s * dz, 0.0, 0.0, ds * dz / duration,
               0.0, 0.0, dds * dz / duration**2)
    return np.stack(np.broadcast_arrays(*columns), axis=1)


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
        u = [p0 * c0 + p1 * c1 + p2 * c2 + p3 * c3 for p0, p1, p2, p3 in self._alloc_pinv]
        # np.clip's result, -0.0 and NaN included
        u = [0.0 if x < 0.0 else 1.0 if x > 1.0 else x for x in u]
        f0, f1, f2, f3, f4, f5 = [k * x for x in u]
        wrench = [b0 * f0 + b1 * f1 + b2 * f2 + b3 * f3 + b4 * f4 + b5 * f5
                  for b0, b1, b2, b3, b4, b5 in self._alloc]
        return u, wrench


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


_DIV_CTRL = int(SIM_RATE / TRUTH_RATE)  # controller + input refresh, one truth row each
_DIV_ODO = int(SIM_RATE / ODO_RATE)
_DIV_IMU = int(SIM_RATE / IMU_RATE)
_DIV_WHISK = int(SIM_RATE / WHISKER_RATE)
_DIV_THR = int(SIM_RATE / THROTTLE_RATE)
_DIV_SENSOR = math.gcd(_DIV_ODO, _DIV_IMU, _DIV_WHISK)  # every sensor tick is a multiple

_ODO_NOISE = ("odo_pos", "odo_vel", "odo_att", "odo_gyro")


def _draw_sensor_noise(rng, noise: NoiseSpec, n_ticks, n_sensors):
    """Every per-tick draw of the sensor channels over the simulator's
    first n_ticks ticks, one tick after another, each tick in channel
    order: odometry (position, velocity, attitude, gyro), IMU, whisker
    angles, then each mount's outlier draws.  A zero noise level makes
    no draw.

    Returns (odo, imu, angles, outliers): odo a dict from each nonzero
    _ODO_NOISE level to its (n_odo, 3) draws, imu (n_imu, 3) and angles
    (n_whisk, n_sensors, 2) or None at zero level, and outliers the
    (whisker tick, mount, field component, offset) of each spike.
    """
    odo = {name: [] for name in _ODO_NOISE if getattr(noise, name)}
    odo_draws = [(rows, getattr(noise, name)) for name, rows in odo.items()]
    imu, angles, outliers = [], [], []
    for k in range(0, n_ticks, _DIV_SENSOR):
        if k % _DIV_ODO == 0:
            for rows, sigma in odo_draws:
                rows.append(rng.normal(0.0, sigma, 3))
        if k % _DIV_IMU == 0 and noise.imu_accel:
            imu.append(rng.normal(0.0, noise.imu_accel, 3))
        if k % _DIV_WHISK == 0:
            if noise.whisker_angle:
                angles.append(rng.normal(0.0, noise.whisker_angle, (n_sensors, 2)))
            for i in range(n_sensors if noise.outlier_prob else 0):
                if rng.random() < noise.outlier_prob:
                    comp = rng.integers(0, 3)
                    outliers.append(
                        (k // _DIV_WHISK, i, comp, noise.outlier_mag * rng.choice([-1.0, 1.0]))
                    )
    return (
        {name: np.array(rows).reshape(-1, 3) for name, rows in odo.items()},
        np.array(imu).reshape(-1, 3) if noise.imu_accel else None,
        np.array(angles).reshape(-1, n_sensors, 2) if noise.whisker_angle else None,
        outliers,
    )


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


def _whisker_rows(src, rig: WhiskerRig, noise: NoiseSpec, offsets, angles, outliers):
    """Whisker rows from the (n, 17) rows [packed state, wind, mean
    throttle squared] at the whisker ticks: each mount's airflow formed
    once, its deflection plus the rotor-interference bias, the offsets
    and angle noise, the end stops, the synthesized field and the
    outlier spikes."""
    n_sensors = len(rig)
    q, v, w, wind = src[:, 6:10].T, src[:, 3:6].T, src[:, 10:13].T, src[:, 13:16].T
    # each mount's airflow (n_sensors, 3, m), then its deflection (2, n_sensors, m)
    v_s = whisker_mod.rig_airflow(whisker_mod.body_airflow(q, wind, v), w, rig)
    theta = whisker_mod.predict_deflection(v_s.swapaxes(0, 1), rig.coeff[:, None])
    if noise.interference_gain:
        int_dirs = INTERFERENCE_DIRS[np.arange(n_sensors) % len(INTERFERENCE_DIRS)]
        planar = np.hypot(v_s[:, 0], v_s[:, 1])
        bias = noise.interference_gain * src[:, 16] * (1.0 + 0.8 * np.tanh(planar / 2.0))
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
    n_steps = int(round(plan.duration * SIM_RATE)) + 1
    # the open-loop inputs of every control tick, on the loop's own clock
    t_ctrl = np.arange(0, n_steps, _DIV_CTRL) * dt
    setpoints, phases = plan.setpoints(t_ctrl)
    touches = sc.touch.forces(t_ctrl)
    sp_rows, touch_rows = setpoints.tolist(), touches.tolist()
    ctrl = Controller(sc.controller, veh)
    scale = float(sc.thrust_scale)

    consts = scalar_consts(veh)
    # the hot loop runs on Python floats; see the note above vehicle.scalar_consts
    packed = sp_rows[0][0:3] + [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    # truth rows up to the wind (touch and phase are joined after the loop)
    truth_rows, thr_rows = [], []
    # what each sensor channel needs from its ticks
    odo_src, imu_src, whisk_src = [], [], []

    def build_log(n_ticks):
        """The log of the first n_ticks ticks, each sensor channel built
        in one pass after its noise is drawn."""
        odo, imu, angles, outliers = _draw_sensor_noise(rng, noise, n_ticks, n_sensors)

        def ticks(div):
            return np.arange(0, n_ticks, div) * dt

        m = len(truth_rows)
        truth = np.concatenate(
            (np.array(truth_rows).reshape(m, len(TRUTH_COLUMNS) - 4), touches[:m],
             phases[:m, None]),
            axis=1,
        )
        log = FlightLog()
        log.add("truth", ticks(_DIV_CTRL), truth, TRUTH_COLUMNS)
        log.add("odometry", ticks(_DIV_ODO),
                _odometry_rows(np.array(odo_src).reshape(-1, 13), odo), ODO_COLUMNS)
        log.add("imu", ticks(_DIV_IMU),
                _imu_rows(np.array(imu_src).reshape(-1, 7), veh.gravity, imu, imu_bias),
                IMU_COLUMNS)
        log.add("whisker", ticks(_DIV_WHISK),
                _whisker_rows(np.array(whisk_src).reshape(-1, 17), sc.rig, noise, offsets,
                              angles, outliers),
                whisker_columns(n_sensors))
        log.add("throttle", ticks(_DIV_THR),
                np.array(thr_rows).reshape(-1, len(THROTTLE_COLUMNS)), THROTTLE_COLUMNS)
        return log

    for k in range(n_steps):
        if k % _DIV_CTRL == 0:
            j = k // _DIV_CTRL
            px, py, pz = packed[0:3]
            dist = math.sqrt(px * px + py * py + pz * pz)
            # written so that a NaN position fails it too
            if not dist <= DIVERGENCE_BOUND:
                raise SimulationDiverged(
                    f"vehicle left the arena at t={k * dt:.2f}s (|p|={dist:.1f} m)", build_log(k)
                )
            # the controller sees the quaternion normalized with
            # quat_normalize_rows' rounding; the RK4 step's own
            # renormalization rounds differently, and the integration goes
            # on from packed
            u, wrench_cmd = ctrl.step(_normalize_quat(packed), sp_rows[j], 1.0 / TRUTH_RATE)
            wind_f = sc.wind.at(packed[0:3], k * dt).tolist()
            touch_f = touch_rows[j]
            f_applied = scale * wrench_cmd[0]
            tau_applied = [scale * wrench_cmd[1], scale * wrench_cmd[2], scale * wrench_cmd[3]]

        # acc, the start-of-step acceleration, goes into the truth and IMU rows
        acc, packed_next = rk4_step(packed, f_applied, tau_applied, wind_f, touch_f, consts, dt)
        if k % _DIV_CTRL == 0:
            truth_rows.append(packed + acc + [f_applied] + wind_f)
        if k % _DIV_ODO == 0:
            odo_src.append(packed)
        if k % _DIV_IMU == 0:
            imu_src.append(packed[6:10] + acc)
        if k % _DIV_THR == 0:
            thr_rows.append(u + wrench_cmd)
        if k % _DIV_WHISK == 0:
            # sums left to right, as np.mean does over six elements
            whisk_src.append(packed + wind_f + [(sum(u) / N_ROTORS) ** 2])
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
