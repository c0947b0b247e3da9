"""Simulator regression guards: a golden flight and bitwise kernel checks.

The CSVs in tests/data/golden_sim were written with logio.save_log by
the simulator as it stood after its controller moved onto Python floats
(straight-line sums in place of numpy's BLAS products, which round
differently in the last bits), on the flight `golden_scenario` builds
(truth kept at every fifth row, the other channels whole):

    log = sim.run_scenario(golden_scenario())
    log.channels["truth"] = decimated truth (TRUTH_STRIDE)
    logio.save_log(log, "tests/data/golden_sim")

The flight is short but runs every branch of the loop: a cone gust and
a touch ramp on the hover, rotor interference, whisker outliers and the
default noise (attitude noise on odometry included).  A change that
alters the simulator's output on purpose must first show that the new
flight stays close to the files, then regenerate them and say why they
moved.  The last move: every channel within 1.5e-14 of the files the
numpy controller wrote.

Truth, odometry, IMU and throttle must match the files to the bit, which
also pins the order of the noise draws (one draw moved re-draws all
that follow).  The whisker channel is held to TOL: its block pass forms
the airflow with matrix-matrix products over all ticks, whose rounding
depends on how BLAS blocks them.

The set-points and touch forces the simulator builds in one block pass
before its loop are checked to the bit against the scalar formulas
below (ref_*), which evaluate one time at a time.
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
# change that moved it (41.3 when it was set; see
# test_python_calls_per_control_tick_do_not_grow)
CALLS_PER_TICK = 42


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


def test_controller_step_equals_reference_formula():
    """Controller.step sums on Python floats left to right where the
    reference's numpy products sum in BLAS's order, so the two agree to a
    bound, not to the bit: 1e-15 on the throttles (which lie in [0, 1])
    and 1e-15 of the wrench's largest entry.  The integral does the same
    operations on both sides and matches exactly."""
    rng = np.random.default_rng(81)
    par = VehicleParams()
    fast, ref = Controller(ControllerParams(), par), Controller(ControllerParams(), par)
    hits = set()

    def check(state, sp_p, sp_v, sp_a):
        u, wrench = fast.step(state, np.concatenate([sp_p, sp_v, sp_a]).tolist(), 0.002)
        u_ref, wrench_ref = reference_step(ref, state, sp_p, sp_v, sp_a, 0.002, hits)
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
    """The simulator sums the six throttles in Python for the interference
    gain; numpy's mean of so short a vector adds in the same order."""
    rng = np.random.default_rng(82)
    for _ in range(20000):
        u = np.clip(rng.uniform(-0.3, 1.3, sim.N_ROTORS), 0.0, 1.0)
        assert sum(u.tolist()) / sim.N_ROTORS == float(np.mean(u))


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

    The ceiling was measured (41.3 calls per tick; 59.3 before the RK4
    step became one flat call, 95.3 before the set-points and touch
    forces left the loop and Controller.step left numpy) with numpy 2.4.6
    and Python 3.11.7, on a flight after the first (golden_log's), whose
    imports add about 1.8 calls per tick.
    The count includes numpy's Python-level frames, so an upgrade of
    either can move it with no change to this code: re-measure it then on
    the parent commit and on the change, and reset the ceiling from the
    parent's.
    """
    profile = cProfile.Profile()
    log = profile.runcall(sim.run_scenario, golden_scenario())
    ticks = log["truth"].t.shape[0]
    assert pstats.Stats(profile).total_calls / ticks <= CALLS_PER_TICK
