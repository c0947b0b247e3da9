"""Flight plans: the trajectory primitives and the set-points of a flight.

A trajectory gives position, velocity and acceleration (all C1); a
FlightPlan wraps one in idle, take-off, a move to its start, landing and
a tail, and names each time's flight phase (the PHASE_* values of the
simulator's truth column "phase").

Each trajectory's states(t) and the plan's setpoints(t) evaluate a whole
1-D array of times at once, into one (n, 9) row [p, v, a] per time.
Every entry is the scalar formula's value to the bit: the same operations
in the same order on each element, and libm's sin, cos and pow where the
formula calls them (tests/test_sim_golden.py keeps the scalar formulas).

This is its own module, apart from the simulator's loop in sim.py, which
re-exports its names, to keep each module's compile small: with no
bytecode cache every import compiles the module, and compiling one large
module raises a process's peak memory more than compiling two halves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PHASE_TAKEOFF = 0
PHASE_GOTO = 1
PHASE_EXECUTE = 2
PHASE_LAND = 3


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
    waypoint velocities every wp_period seconds (C1), each waypoint
    pulled back toward start."""

    seed: int = 0
    duration: float = 45.0
    vmax: float = 4.0
    wp_period: float = 2.5
    start: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 2.0]))

    def __post_init__(self):
        self.start = np.asarray(self.start, dtype=float)
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
            # steer back toward start before committing
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
