"""Simulator regression guards: a golden flight and bitwise kernel checks.

The CSVs in tests/data/golden_sim are the flight `golden_scenario`
builds, written by `python tests/regen_golden.py sim` (logio.save_log,
truth kept at every TRUTH_STRIDE-th row, the other channels whole).

The flight is short but runs every branch of the loop: a cone gust and
a touch ramp on the hover, rotor interference, whisker outliers and the
default noise (attitude noise on odometry included).  A change that
alters the simulator's output on purpose must first show that the new
flight stays close to the files (the script prints each file's largest
change before it writes), then regenerate them and say why they moved.
The last move came when the loop began to take one 2 ms RK4 step per
control tick (two 1 ms steps where an IMU tick falls between control
ticks) in place of two 1 ms steps: truth 6.0e-10, odometry 7.1e-11,
IMU 4.8e-10, whisker 6.9e-10 and throttle 6.0e-10 at most from the
files the 1 ms loop wrote.

Truth, odometry, IMU and throttle must match the files to the bit, which
also pins the order of the noise draws (one draw moved re-draws all
that follow).  The whisker channel is held to TOL: its block pass forms
the airflow with matrix-matrix products over all ticks, whose rounding
depends on how BLAS blocks them.

The set-points and touch forces the simulator builds in one block pass
before its loop are checked to the bit against the scalar formulas
below (ref_*), which evaluate one time at a time.  The forms that the
block noise draw, the float wind and the written-out controller replaced
are kept here as ref_* too: the noise and the controller match them to
the bit, the wind to the bit on the golden flight and to a few units in
the last place elsewhere (test_cone_gust_on_floats_equals_numpy_formula
says why).
"""

import cProfile
import math
import os
import pstats

import numpy as np
import pytest

from windest import logio, sim, vehicle
from windest.geometry import quat_normalize_rows, quat_to_matrix
from windest.sim import Controller, ControllerParams
from windest.vehicle import VehicleParams

DATA = os.path.join(os.path.dirname(__file__), "data", "golden_sim")
TOL = 1e-9
TRUTH_STRIDE = 5
BITWISE_CHANNELS = ("truth", "odometry", "imu", "throttle")
# Python-level calls per control tick of the golden flight after the last
# change that moved it (28.3 when it was set; see
# test_python_calls_per_control_tick_do_not_grow)
CALLS_PER_TICK = 29


def golden_scenario():
    hover = np.array([0.0, 0.0, 1.2])
    plan = sim.FlightPlan(
        sim.HoverTrajectory(point=hover, duration=1.0),
        idle=0.1, takeoff=1.0, land=0.5, tail=0.1,
    )
    t0 = plan.t_execute
    gust = sim.ConeGust(origin=hover + [2.0, 0.0, 0.0], direction=[-1.0, 0.0, 0.0],
                        speed=3.0, t_on=t0 + 0.2, t_off=t0 + 0.8)
    touch = sim.TouchProfile([sim.TouchEvent(t0 + 0.4, t0 + 1.0, np.zeros(3), [0.0, 1.0, -3.0])])
    noise = sim.NoiseSpec(outlier_prob=0.05, interference_gain=0.18)
    return sim.Scenario("golden", plan, wind=sim.WindField(gusts=[gust]), touch=touch,
                        noise=noise, seed=11)


@pytest.fixture(scope="module")
def golden_log():
    return sim.run_scenario(golden_scenario())


@pytest.mark.parametrize("name", ["truth", "odometry", "imu", "whisker", "throttle"])
def test_flight_matches_golden(golden_log, name):
    t_ref, data_ref, cols = logio._load_csv(os.path.join(DATA, f"{name}.csv"))
    ch = golden_log[name]
    stride = TRUTH_STRIDE if name == "truth" else 1
    assert ch.columns == cols
    assert np.array_equal(ch.t[::stride], t_ref)
    if name in BITWISE_CHANNELS:
        assert np.array_equal(ch.data[::stride], data_ref)
    else:
        assert np.max(np.abs(ch.data[::stride] - data_ref)) <= TOL


def test_golden_flight_runs_every_branch(golden_log):
    tr = golden_log["truth"]
    assert np.any(tr.col("wind_x") < -1.0)
    assert np.any(tr.col("touch_z") < -1.0)
    # outliers put raw field components far from the clean synthesized field
    b = logio.whisker_fields(golden_log)
    assert np.max(np.abs(b - np.median(b, axis=0))) > 50.0


# ---------------------------------------------------------------------------
# the open-loop inputs: scalar reference formulas, one time at a time


def ref_smoothstep5(u):
    u = min(max(u, 0.0), 1.0)
    s = u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)
    ds = 30.0 * u * u * (1.0 - u) ** 2
    dds = 60.0 * u * (1.0 - 3.0 * u + 2.0 * u * u)
    return s, ds, dds


def ref_circle_state(traj, t):
    t = min(max(t, 0.0), traj.duration)
    seg = traj._segments[-1]
    for sg in traj._segments:
        if t < sg[0] + sg[1]:
            seg = sg
            break
    t0, _, om0, slope, th0 = seg.tolist()
    tau = t - t0
    om = om0 + slope * tau
    th = th0 + om0 * tau + 0.5 * slope * tau * tau
    ct, st = math.cos(th), math.sin(th)
    r = traj.radius
    p = traj.center + np.array([r * ct, r * st, 0.0])
    v = r * om * np.array([-st, ct, 0.0])
    a = r * slope * np.array([-st, ct, 0.0]) - r * om * om * np.array([ct, st, 0.0])
    return p, v, a


def ref_line_state(traj, t):
    t = min(max(t, 0.0), traj.duration)
    a_max, v = traj.accel, traj.v_cruise
    if t < traj.t_acc:
        s = 0.5 * a_max * t * t
        sv, sa = a_max * t, a_max
    elif t < traj.t_acc + traj.t_cruise:
        s = traj.d_acc + v * (t - traj.t_acc)
        sv, sa = v, 0.0
    else:
        tau = traj.duration - t
        s = traj.length - 0.5 * a_max * tau * tau
        sv, sa = a_max * tau, -a_max
    return traj.p0 + s * traj.dir, sv * traj.dir, sa * traj.dir


def ref_joystick_state(traj, t):
    t = min(max(t, 0.0), traj.duration - 1e-12)
    T = traj.wp_period
    k = int(t // T)
    s = t - k * T
    va, vb = traj._vs[k], traj._vs[k + 1]
    dv = vb - va
    c = math.cos(math.pi * s / T)
    p = traj._ps[k] + va * s + dv * (0.5 * s - (T / (2.0 * math.pi)) * math.sin(math.pi * s / T))
    v = va + dv * 0.5 * (1.0 - c)
    a = dv * (math.pi / (2.0 * T)) * math.sin(math.pi * s / T)
    return p, v, a


def ref_hover_state(traj, t):
    return traj.point.copy(), np.zeros(3), np.zeros(3)


REF_STATE = {
    sim.CircleTrajectory: ref_circle_state,
    sim.LineTrajectory: ref_line_state,
    sim.JoystickTrajectory: ref_joystick_state,
    sim.HoverTrajectory: ref_hover_state,
}


def ref_setpoint(plan, t):
    """(p, v, a, phase) of the plan at time t."""
    if t < plan.t_takeoff:
        return plan._p_ground.copy(), np.zeros(3), np.zeros(3), sim.PHASE_TAKEOFF
    if t < plan.t_goto:
        u = (t - plan.t_takeoff) / plan.takeoff
        s, ds, dds = ref_smoothstep5(u)
        dz = plan._p_hover[2]
        p = plan._p_ground + np.array([0.0, 0.0, s * dz])
        v = np.array([0.0, 0.0, ds * dz / plan.takeoff])
        a = np.array([0.0, 0.0, dds * dz / plan.takeoff**2])
        return p, v, a, sim.PHASE_TAKEOFF
    if t < plan.t_execute:
        u = (t - plan.t_goto) / plan.goto
        s, ds, dds = ref_smoothstep5(u)
        d = plan._p_start - plan._p_hover
        return plan._p_hover + s * d, d * ds / plan.goto, d * dds / plan.goto**2, sim.PHASE_GOTO
    if t < plan.t_land:
        p, v, a = REF_STATE[type(plan.traj)](plan.traj, t - plan.t_execute)
        return p, v, a, sim.PHASE_EXECUTE
    if t < plan.t_land + plan.land:
        u = (t - plan.t_land) / plan.land
        s, ds, dds = ref_smoothstep5(u)
        dz = -plan._p_end[2]
        p = plan._p_end + np.array([0.0, 0.0, s * dz])
        v = np.array([0.0, 0.0, ds * dz / plan.land])
        a = np.array([0.0, 0.0, dds * dz / plan.land**2])
        return p, v, a, sim.PHASE_LAND
    return np.array([plan._p_end[0], plan._p_end[1], 0.0]), np.zeros(3), np.zeros(3), sim.PHASE_LAND


def ref_touch(profile, t):
    f = np.zeros(3)
    for ev in profile.events:
        if ev.t0 <= t < ev.t1:
            f += ev.f0 + (ev.f1 - ev.f0) * ((t - ev.t0) / (ev.t1 - ev.t0))
    return f


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("name", sorted(sim.SCENARIOS) + ["golden"])
def test_block_inputs_equal_scalar_reference_on_every_control_tick(name):
    sc = golden_scenario() if name == "golden" else sim.SCENARIOS[name]()
    n_steps = int(round(sc.plan.duration * sim.SIM_RATE)) + 1
    # the simulator's control-tick clock, the loop's k * dt to the bit
    dt = 1.0 / sim.SIM_RATE
    t = np.arange(0, n_steps, sim._DIV_CTRL) * dt
    assert t.tolist() == [k * dt for k in range(0, n_steps, sim._DIV_CTRL)]
    sp, phase = sc.plan.setpoints(t)
    ref = [ref_setpoint(sc.plan, x) for x in t.tolist()]
    assert same_bits(sp, [np.concatenate(r[0:3]) for r in ref])
    assert phase.tolist() == [r[3] for r in ref]
    assert same_bits(sc.touch.forces(t), [ref_touch(sc.touch, x) for x in t.tolist()])


def test_rk4_on_floats_equals_rk4_on_numpy_scalars():
    """Python floats and np.float64 scalars give the same bits."""
    rng = np.random.default_rng(80)
    consts = vehicle.scalar_consts(VehicleParams())
    for _ in range(200):
        s = rng.normal(size=13)
        s[6:10] /= np.linalg.norm(s[6:10])
        f = rng.uniform(0.0, 24.0)
        tau, wind, touch = rng.normal(size=(3, 3))
        floats = (float(f), tuple(tau.tolist()), tuple(wind.tolist()), tuple(touch.tolist()))
        scalars = (np.float64(f), tau, wind, touch)
        acc_f, on_floats = vehicle.rk4_step(s.tolist(), *floats, consts, 0.001)
        acc_n, on_numpy = vehicle.rk4_step(tuple(s), *scalars, consts, 0.001)
        assert all(type(x) is float for x in on_floats + acc_f)
        assert np.array_equal(np.array(on_floats), np.array(on_numpy, dtype=float))
        assert np.array_equal(np.array(acc_f), np.array(acc_n, dtype=float))


def reference_step(ctrl, s, sp_p, sp_v, sp_a, dt, hits):
    """Controller.step as written on numpy arrays with np.cross and
    np.column_stack; adds the name of each saturating branch taken to hits."""
    par, veh = ctrl.params, ctrl.vehicle
    p, v, q, omega = (np.array(s[i:j]) for i, j in ((0, 3), (3, 6), (6, 10), (10, 13)))
    e_p = sp_p - p
    e_v = sp_v - v
    integral = ctrl.integral + e_p * dt
    if np.any(np.abs(integral) > par.int_limit):
        hits.add("integral clip")
    ctrl.integral = np.clip(integral, -par.int_limit, par.int_limit)
    a_cmd = sp_a + par.kp_pos * e_p + par.kd_pos * e_v + par.ki_pos * ctrl.integral
    f_des = veh.mass * (a_cmd + np.array([0.0, 0.0, veh.gravity]))
    R = quat_to_matrix(q)
    b3 = R[:, 2]
    if b3[2] < 0.25:
        hits.add("R22 floor")
    f_cmd = f_des[2] / max(b3[2], 0.25)
    if f_cmd < 0.0:
        hits.add("f_cmd at 0")
    if f_cmd > sim.N_ROTORS * sim.K_THRUST:
        hits.add("f_cmd at max")
    f_cmd = min(max(f_cmd, 0.0), sim.N_ROTORS * sim.K_THRUST)
    n = np.linalg.norm(f_des)
    if not n > 0.1 * veh.mass * veh.gravity:
        hits.add("b3 = e_z")
    b3_des = f_des / n if n > 0.1 * veh.mass * veh.gravity else np.array([0.0, 0.0, 1.0])
    b2_des = np.cross(b3_des, np.array([1.0, 0.0, 0.0]))
    b2_des /= np.linalg.norm(b2_des)
    b1_des = np.cross(b2_des, b3_des)
    R_des = np.column_stack([b1_des, b2_des, b3_des])
    e_mat = R_des.T @ R - R.T @ R_des
    e_R = 0.5 * np.array([e_mat[2, 1], e_mat[0, 2], e_mat[1, 0]])
    ang_acc = -par.kp_att * e_R - par.kd_att * omega
    tau = veh.inertia @ ang_acc + np.cross(omega, veh.inertia @ omega)
    B = sim.allocation_matrix()
    u = np.linalg.pinv(B) @ np.concatenate([[f_cmd / sim.K_THRUST], tau / sim.K_THRUST])
    if np.any(u < 0.0):
        hits.add("throttle at 0")
    if np.any(u > 1.0):
        hits.add("throttle at 1")
    u = np.clip(u, 0.0, 1.0)
    wrench = B @ (sim.K_THRUST * u)
    return u, wrench


def ref_controller_step(ctrl, s, sp, dt):
    """Controller.step on the Controller ctrl, as it was written with list
    comprehensions for the throttles, their clip and the wrench."""
    (kpx, kpy, kpz), (kdx, kdy, kdz), (kix, kiy, kiz), kp_att, kd_att = ctrl._gains
    lim, mass, g = ctrl.params.int_limit, ctrl.vehicle.mass, ctrl.vehicle.gravity
    px, py, pz, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = s
    spx, spy, spz, svx, svy, svz, sax, say, saz = sp
    ex, ey, ez = spx - px, spy - py, spz - pz
    ix, iy, iz = ctrl.integral
    ix = min(max(ix + ex * dt, -lim), lim)
    iy = min(max(iy + ey * dt, -lim), lim)
    iz = min(max(iz + ez * dt, -lim), lim)
    ctrl.integral = [ix, iy, iz]
    fx = mass * (sax + kpx * ex + kdx * (svx - vx) + kix * ix)
    fy = mass * (say + kpy * ey + kdy * (svy - vy) + kiy * iy)
    fz = mass * (saz + kpz * ez + kdz * (svz - vz) + kiz * iz + g)
    # R(q), entry by entry as geometry.quat_to_matrix forms it
    r00, r01, r02 = 1 - 2 * (qy * qy + qz * qz), 2 * (qx * qy - qw * qz), 2 * (qx * qz + qw * qy)
    r10, r11, r12 = 2 * (qx * qy + qw * qz), 1 - 2 * (qx * qx + qz * qz), 2 * (qy * qz - qw * qx)
    r20, r21, r22 = 2 * (qx * qz - qw * qy), 2 * (qy * qz + qw * qx), 1 - 2 * (qx * qx + qy * qy)
    # satisfy the vertical force balance exactly: f = f_des_z / b3_z
    f_cmd = fz / max(r22, 0.25)
    f_cmd = min(max(f_cmd, 0.0), sim.N_ROTORS * sim.K_THRUST)
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
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = ctrl._inertia
    hx = j00 * wx + j01 * wy + j02 * wz
    hy = j10 * wx + j11 * wy + j12 * wz
    hz = j20 * wx + j21 * wy + j22 * wz
    k = sim.K_THRUST
    c0 = f_cmd / k
    c1 = (j00 * a0 + j01 * a1 + j02 * a2 + (wy * hz - wz * hy)) / k
    c2 = (j10 * a0 + j11 * a1 + j12 * a2 + (wz * hx - wx * hz)) / k
    c3 = (j20 * a0 + j21 * a1 + j22 * a2 + (wx * hy - wy * hx)) / k
    u = [p0 * c0 + p1 * c1 + p2 * c2 + p3 * c3 for p0, p1, p2, p3 in ctrl._alloc_pinv]
    # np.clip's result, -0.0 and NaN included
    u = [0.0 if x < 0.0 else 1.0 if x > 1.0 else x for x in u]
    f0, f1, f2, f3, f4, f5 = [k * x for x in u]
    wrench = [b0 * f0 + b1 * f1 + b2 * f2 + b3 * f3 + b4 * f4 + b5 * f5
              for b0, b1, b2, b3, b4, b5 in ctrl._alloc]
    return u, wrench


def test_controller_step_equals_reference_formula():
    """Controller.step sums on Python floats left to right where the
    reference's numpy products sum in BLAS's order, so the two agree to a
    bound, not to the bit: 1e-15 on the throttles (which lie in [0, 1])
    and 1e-15 of the wrench's largest entry.  The integral does the same
    operations on both sides and matches exactly.  The throttles and
    wrench written out have the bits of their comprehension form
    (ref_controller_step)."""
    rng = np.random.default_rng(81)
    par = VehicleParams()
    fast, ref = Controller(ControllerParams(), par), Controller(ControllerParams(), par)
    comprehensions = Controller(ControllerParams(), par)
    hits = set()

    def check(state, sp_p, sp_v, sp_a):
        u, wrench = fast.step(state, np.concatenate([sp_p, sp_v, sp_a]).tolist(), 0.002)
        u_ref, wrench_ref = reference_step(ref, state, sp_p, sp_v, sp_a, 0.002, hits)
        u_old, wrench_old = ref_controller_step(
            comprehensions, state, np.concatenate([sp_p, sp_v, sp_a]).tolist(), 0.002)
        assert same_bits(u, u_old) and same_bits(wrench, wrench_old)
        assert all(type(x) is float for x in u + wrench)
        assert np.max(np.abs(np.array(u) - u_ref)) <= 1e-15
        assert np.max(np.abs(np.array(wrench) - wrench_ref)) <= 1e-15 * np.max(np.abs(wrench_ref))
        assert np.array_equal(fast.integral, ref.integral)

    for k in range(500):
        # small errors, saturating errors, and set-points too low to define a thrust axis
        scale = (0.1, 1.0, 10.0)[k % 3]
        p, v, q, w = (rng.normal(size=3) * scale, rng.normal(size=3) * scale,
                      quat_normalize_rows(rng.normal(size=4)), rng.normal(size=3) * scale)
        state = np.concatenate([p, v, q, w]).tolist()
        sp_p, sp_v = rng.normal(size=(2, 3)) * scale
        sp_a = rng.normal(size=3) * scale if k % 7 else np.array([0.0, 0.0, -par.gravity])
        check(state, sp_p, sp_v, sp_a)
    # a held kilometre of position error drives the integral into its clip,
    # one sign and then the other
    hover = [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    for sign in (1.0, -1.0):
        for _ in range(20):
            check(hover, sign * np.array([1000.0, -1000.0, 1000.0]), np.zeros(3), np.zeros(3))
    assert hits == {"integral clip", "R22 floor", "f_cmd at 0", "f_cmd at max", "b3 = e_z",
                    "throttle at 0", "throttle at 1"}


def test_loop_quaternion_normalization_equals_quat_normalize():
    """run_scenario hands the controller its quaternion normalized on floats."""
    rng = np.random.default_rng(83)
    for _ in range(2000):
        s = rng.normal(size=13)
        s[6:10] *= 10.0 ** rng.uniform(-3.0, 3.0)
        out = sim._normalize_quat(s.tolist())
        assert all(type(x) is float for x in out)
        assert np.array_equal(out[6:10], quat_normalize_rows(s[6:10]))
        assert out[:6] + out[10:] == s[:6].tolist() + s[10:].tolist()


def test_python_sum_of_throttles_equals_numpy_mean():
    """For the interference gain the simulator sums the six throttle
    columns left to right; Python's sum over one tick's throttles (as the
    1 ms loop took it) and numpy's mean of so short a row add in the same
    order."""
    rng = np.random.default_rng(82)
    u = np.clip(rng.uniform(-0.3, 1.3, (20000, sim.N_ROTORS)), 0.0, 1.0)
    columns = (u[:, 0] + u[:, 1] + u[:, 2] + u[:, 3] + u[:, 4] + u[:, 5]) / sim.N_ROTORS
    assert same_bits(columns, [sum(row) / sim.N_ROTORS for row in u.tolist()])
    assert same_bits(columns, np.mean(u, axis=1))


# ---------------------------------------------------------------------------
# the loop's inputs and the noise draw: the forms they replaced (ref_*)


def ref_cone_velocity(g, p, t):
    """ConeGust.velocity as written on numpy arrays."""
    if not (g.t_on <= t < g.t_off):
        return np.zeros(3)
    rel = np.asarray(p, dtype=float) - g.origin
    axial = float(rel @ g.direction)
    if axial < 0.05:
        return np.zeros(3)
    radial = rel - axial * g.direction
    off_axis = math.atan2(float(np.linalg.norm(radial)), axial)
    if off_axis >= g.half_angle:
        return np.zeros(3)
    falloff = math.cos(0.5 * math.pi * off_axis / g.half_angle)
    return g.speed * falloff * g.direction


def test_wind_on_floats_equals_numpy_formula_on_the_flight(golden_log):
    """The wind the golden flight flew through, at each control tick's
    position and time, has the numpy formula's bits."""
    sc = golden_scenario()
    truth = golden_log["truth"]
    ref = [sc.wind.ambient + sum(ref_cone_velocity(g, row[0:3], t) for g in sc.wind.gusts)
           for t, row in zip(truth.t.tolist(), truth.data)]
    assert same_bits(truth.col("wind_x", "wind_y", "wind_z"), ref)


def test_cone_gust_on_floats_equals_numpy_formula():
    """At random points in and around random cones, the cone edge, the
    axial < 0.05 cut-off and the t_on / t_off boundaries included.

    The numpy formula's 3-vector dot products (rel @ direction and the
    norm) go through BLAS, which on an FMA host contracts each sum into
    fused multiply-adds; Python floats round every product.  So the two
    agree to the bit only where the cosine falloff is flat, as near the
    centerline the flights hover on (the test above), and elsewhere to
    a few units in the last place of the speed (4.2e-15 m/s at 3.6 m/s
    was the largest seen on 20,000 points).  The branches agree exactly.
    """
    rng = np.random.default_rng(84)
    for k in range(4000):
        # on an axis-aligned cone the axial distance has the same bits in
        # both forms, so the 0.05 cut-off is probed at and next to its value
        aligned = k % 2 == 1
        g = sim.ConeGust(origin=rng.normal(size=3),
                         direction=[-1.0, 0.0, 0.0] if aligned else rng.normal(size=3),
                         half_angle=rng.uniform(0.1, 1.0), speed=rng.uniform(0.5, 5.0),
                         t_on=1.0, t_off=2.0)
        side = np.cross(g.direction, rng.normal(size=3))
        side /= np.linalg.norm(side)
        if aligned and k % 5 == 1:
            axial = 0.05 + rng.choice([-1e-12, 0.0, 1e-12])
        else:
            axial = rng.uniform(-0.5, 5.0)
        off = g.half_angle * (1.0 + rng.choice([-1e-9, 1e-9]) if k % 7 == 0 else
                              rng.uniform(0.0, 1.2))
        p = g.origin + axial * g.direction + axial * math.tan(off) * side
        for t in (0.5, 1.0, 1.5, np.nextafter(2.0, 0.0), 2.0):
            v, ref = g.velocity(p.tolist(), t), ref_cone_velocity(g, p, t)
            assert all(type(x) is float for x in v)
            assert any(v) == np.any(ref)
            assert np.max(np.abs(np.array(v) - ref)) <= 4e-15 * g.speed
    field = sim.WindField(ambient=[0.5, -0.0, 0.25], gusts=[g, g])
    p = (g.origin + 2.0 * g.direction).tolist()
    for t in (0.5, 1.5):
        v = np.array(g.velocity(p, t))
        assert same_bits(field.at(p, t), field.ambient + v + v)


def ref_draw_sensor_noise(rng, noise, n_ticks, n_sensors):
    """sim._draw_sensor_noise as a loop over the sensor ticks, one
    rng.normal call per channel and tick."""
    odo = {name: [] for name in sim._ODO_NOISE if getattr(noise, name)}
    odo_draws = [(rows, getattr(noise, name)) for name, rows in odo.items()]
    imu, angles, outliers = [], [], []
    for k in range(0, n_ticks, sim._DIV_SENSOR):
        if k % sim._DIV_ODO == 0:
            for rows, sigma in odo_draws:
                rows.append(rng.normal(0.0, sigma, 3))
        if k % sim._DIV_IMU == 0 and noise.imu_accel:
            imu.append(rng.normal(0.0, noise.imu_accel, 3))
        if k % sim._DIV_WHISK == 0:
            if noise.whisker_angle:
                angles.append(rng.normal(0.0, noise.whisker_angle, (n_sensors, 2)))
            for i in range(n_sensors if noise.outlier_prob else 0):
                if rng.random() < noise.outlier_prob:
                    comp = rng.integers(0, 3)
                    outliers.append(
                        (k // sim._DIV_WHISK, i, comp, noise.outlier_mag * rng.choice([-1.0, 1.0]))
                    )
    return (
        {name: np.array(rows).reshape(-1, 3) for name, rows in odo.items()},
        np.array(imu).reshape(-1, 3) if noise.imu_accel else None,
        np.array(angles).reshape(-1, n_sensors, 2) if noise.whisker_angle else None,
        outliers,
    )


NOISE_SPECS = {
    "default": sim.NoiseSpec(),
    "golden": golden_scenario().noise,
    "none": sim.NoiseSpec.none(),
    "outliers": sim.NoiseSpec(outlier_prob=0.3, odo_att=0.0),
}


@pytest.mark.parametrize("n_ticks", [0, 1, 4, 2601, 18376])
@pytest.mark.parametrize("spec", sorted(NOISE_SPECS))
def test_block_noise_draw_equals_per_tick_loop(spec, n_ticks):
    """Every draw to the bit, and the generator left in the same state."""
    noise = NOISE_SPECS[spec]
    rng, ref_rng = np.random.default_rng(85), np.random.default_rng(85)
    odo, imu, angles, outliers = sim._draw_sensor_noise(rng, noise, n_ticks, 4)
    ref_odo, ref_imu, ref_angles, ref_outliers = ref_draw_sensor_noise(ref_rng, noise, n_ticks, 4)
    assert list(odo) == list(ref_odo)
    for name in odo:
        assert same_bits(odo[name], ref_odo[name])
    for block, ref in ((imu, ref_imu), (angles, ref_angles)):
        assert (block is None and ref is None) or same_bits(block, ref)
    assert outliers == ref_outliers
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_channel_rates_must_be_whole_simulator_ticks():
    assert sim._period_ticks(200.0, 1) == 5
    assert sim._period_ticks(100.0, 2) == 10
    with pytest.raises(ValueError, match="300.0 Hz"):
        sim._period_ticks(300.0, 1)  # 3.33 ticks: int() would run it at 333 Hz
    with pytest.raises(ValueError, match="200.0 Hz"):
        sim._period_ticks(200.0, 2)  # odometry or whisker rows off the control ticks
    with pytest.raises(ValueError, match="2000.0 Hz"):
        sim._period_ticks(2000.0, 1)
    assert (sim._DIV_CTRL, sim._DIV_ODO, sim._DIV_IMU, sim._DIV_WHISK, sim._DIV_THR) == (
        2, 10, 5, 20, 5)


def test_python_calls_per_control_tick_do_not_grow(golden_log):
    """The simulator's cost is mostly the fixed cost of each Python call
    in its loop, so the calls it makes per control tick (cProfile's
    total_calls over the golden flight, divided by its truth rows, one per
    control tick) must not grow.

    To add calls anyway, raise CALLS_PER_TICK to just above the new count
    and say in the change's description what the calls buy and what they
    cost in the benchmark's setup_s.  When a change lowers the count,
    lower CALLS_PER_TICK to just above the new count so the ratchet holds
    there.

    The ceiling was measured (28.3 calls per tick; 41.3 before the loop
    stepped the control tick and the noise draw, the wind and the
    throttle allocation left their per-tick numpy calls and
    comprehensions, 59.3 before the RK4 step became one flat call, 95.3
    before the set-points and touch forces left the loop and
    Controller.step left numpy) with numpy 2.4.6 and Python 3.11.7, on a
    flight after the first (golden_log's), whose imports add about 1.8
    calls per tick.
    The count includes numpy's Python-level frames, so an upgrade of
    either can move it with no change to this code: re-measure it then on
    the parent commit and on the change, and reset the ceiling from the
    parent's.
    """
    profile = cProfile.Profile()
    log = profile.runcall(sim.run_scenario, golden_scenario())
    ticks = log["truth"].t.shape[0]
    assert pstats.Stats(profile).total_calls / ticks <= CALLS_PER_TICK
