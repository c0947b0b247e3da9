"""Simulator regression guards: a golden flight and bitwise kernel checks.

The CSVs in tests/data/golden_sim were written with logio.save_log by
the simulator as it stood before its hot loop moved to Python floats and
explicit cross products, on the flight `golden_scenario` builds (truth
kept at every fifth row, the other channels whole):

    log = sim.run_scenario(golden_scenario())
    log.channels["truth"] = decimated truth (TRUTH_STRIDE)
    logio.save_log(log, "tests/data/golden_sim")

The flight is short but runs every branch of the loop: a cone gust and
a touch ramp on the hover, rotor interference, whisker outliers and the
default noise (attitude noise on odometry included).  A change that
alters the simulator's output on purpose must regenerate the files from
the simulator as it was before the change and say why they moved.

Truth, odometry, IMU and throttle must match the files to the bit, which
also pins the order of the noise draws (one draw moved re-draws all
that follow).  The whisker channel is held to TOL: its block pass forms
the airflow with matrix-matrix products where the files' simulator made
one matrix-vector product per tick, so it moves in the last bits.
"""

import os

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
        on_floats = vehicle.rk4_step(s.tolist(), vehicle.deriv(s.tolist(), *floats, *consts),
                                     *floats, consts, 0.001)
        on_numpy = vehicle.rk4_step(tuple(s), vehicle.deriv(tuple(s), *scalars, *consts),
                                    *scalars, consts, 0.001)
        assert all(type(x) is float for x in on_floats)
        assert np.array_equal(np.array(on_floats), np.array(on_numpy, dtype=float))


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
    u = ctrl.B_pinv @ np.concatenate([[f_cmd / sim.K_THRUST], tau / sim.K_THRUST])
    if np.any(u < 0.0):
        hits.add("throttle at 0")
    if np.any(u > 1.0):
        hits.add("throttle at 1")
    u = np.clip(u, 0.0, 1.0)
    wrench = ctrl.B @ (sim.K_THRUST * u)
    return u, wrench


def test_controller_step_equals_reference_formula():
    rng = np.random.default_rng(81)
    par = VehicleParams()
    fast, ref = Controller(ControllerParams(), par), Controller(ControllerParams(), par)
    hits = set()

    def check(state, sp_p, sp_v, sp_a):
        u, wrench = fast.step(state, sp_p, sp_v, sp_a, 0.002)
        u_ref, wrench_ref = reference_step(ref, state, sp_p, sp_v, sp_a, 0.002, hits)
        assert np.array_equal(u, u_ref)
        assert np.array_equal(wrench, wrench_ref)
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
