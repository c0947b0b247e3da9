"""Closed-loop simulator: wind model, planner, controller, channel synthesis."""

import numpy as np
import pytest

from windest import sim, vehicle, whisker
from windest.sim import (
    ConeGust,
    Controller,
    ControllerParams,
    CircleTrajectory,
    FlightPlan,
    LineTrajectory,
    JoystickTrajectory,
    NoiseSpec,
    PHASE_EXECUTE,
    SimulationDiverged,
    TouchEvent,
    TouchProfile,
    WindField,
    allocation_matrix,
    run_scenario,
)
from windest.vehicle import VehicleParams


# ---------------------------------------------------------------------------
# wind and touch


def test_wind_empty_field():
    f = WindField()
    assert np.allclose(f.at([1.0, 2.0, 3.0], 0.5), 0.0)


def test_wind_on_centerline():
    g = ConeGust(origin=[0.0, 0.0, 1.0], direction=[1.0, 0.0, 0.0], speed=3.6)
    f = WindField(gusts=[g])
    assert np.allclose(f.at([2.0, 0.0, 1.0], 0.0), [3.6, 0.0, 0.0])


def test_wind_outside_cone():
    g = ConeGust(origin=[0.0, 0.0, 1.0], direction=[1.0, 0.0, 0.0], half_angle=0.3)
    f = WindField(ambient=[0.2, 0.0, 0.0], gusts=[g])
    # 45 degrees off axis: outside the 0.3 rad cone, ambient only
    assert np.allclose(f.at([1.0, 1.0, 1.0], 0.0), [0.2, 0.0, 0.0])
    # behind the origin
    assert np.allclose(f.at([-1.0, 0.0, 1.0], 0.0), [0.2, 0.0, 0.0])


def test_wind_cosine_falloff():
    g = ConeGust(origin=[0.0, 0.0, 0.0], direction=[1.0, 0.0, 0.0], half_angle=0.4, speed=2.0)
    off = 0.2  # half-way to the wall
    p = [1.0, np.tan(off), 0.0]
    w = g.velocity(p, 0.0)
    assert np.linalg.norm(w) == pytest.approx(2.0 * np.cos(np.pi / 4), rel=1e-9)


def test_wind_schedule():
    g = ConeGust(origin=[0.0, 0.0, 0.0], direction=[1.0, 0.0, 0.0], t_on=2.0, t_off=5.0)
    p = [1.0, 0.0, 0.0]
    assert np.allclose(g.velocity(p, 1.9), 0.0)
    assert np.linalg.norm(g.velocity(p, 2.0)) > 0.0
    assert np.allclose(g.velocity(p, 5.0), 0.0)


def test_touch_profile_ramp():
    prof = TouchProfile([TouchEvent(1.0, 3.0, [0.0, 0.0, 0.0], [0.0, 0.0, -4.0])])
    f = prof.forces(np.array([0.5, 2.0, 3.0]))
    assert np.allclose(f[0], 0.0)
    assert np.allclose(f[1], [0.0, 0.0, -2.0])
    assert np.allclose(f[2], 0.0)  # half-open interval


# ---------------------------------------------------------------------------
# trajectories and the flight plan


def test_circle_speed_exact_during_hold():
    traj = CircleTrajectory(speeds=(1.0, 3.0), hold=6.0, ramp=2.0)
    # holds sit at [ramp, ramp+hold) then [2 ramp+hold, ...)
    v = traj.states(np.linspace(2.5, 7.5, 13))[:, 3:6]
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0, rtol=0.0, atol=1e-9)
    v = traj.states(np.linspace(10.5, 15.5, 13))[:, 3:6]
    assert np.allclose(np.linalg.norm(v, axis=1), 3.0, rtol=0.0, atol=1e-9)


def test_circle_stays_on_circle():
    traj = CircleTrajectory(radius=2.5)
    p = traj.states(np.linspace(0.0, traj.duration, 200))
    r = np.hypot(p[:, 0] - traj.center[0], p[:, 1] - traj.center[1])
    assert r.tolist() == pytest.approx([2.5] * 200)


def test_line_reaches_endpoints_in_order():
    traj = LineTrajectory(p0=[-5.0, 0.0, 1.5], p1=[5.0, 0.0, 1.5], vmax=1.5)
    (p_start, v0), (p_end, v1) = traj.states(np.array([0.0, traj.duration]))[:, 0:6].reshape(2, 2, 3)
    assert np.allclose(p_start, [-5.0, 0.0, 1.5])
    assert np.allclose(p_end, [5.0, 0.0, 1.5], atol=1e-9)
    assert np.allclose(v0, 0.0) and np.allclose(v1, 0.0, atol=1e-9)
    sp = traj.states(np.linspace(0.0, traj.duration, 100))
    assert np.all(np.diff(sp[:, 0]) >= -1e-12)
    assert np.all(np.linalg.norm(sp[:, 3:6], axis=1) <= 1.5 + 1e-9)


def test_joystick_bounded_and_c1():
    traj = JoystickTrajectory(seed=9, duration=20.0, vmax=4.0)
    vs = traj.states(np.linspace(0.0, traj.duration - 1e-6, 500))[:, 3:6]
    assert np.max(np.linalg.norm(vs, axis=1)) <= 4.0 + 1e-9
    # velocity continuous: finite-difference of position tracks v
    t, dt = np.array([3.1, 7.7, 12.3]), 1e-4
    p0, p1, v = traj.states(t - dt)[:, 0:3], traj.states(t + dt)[:, 0:3], traj.states(t)[:, 3:6]
    assert np.allclose((p1 - p0) / (2 * dt), v, atol=1e-4)


def test_plan_starts_grounded():
    plan = FlightPlan(CircleTrajectory())
    sp, phase = plan.setpoints(np.array([0.0]))
    assert sp[0, 2] == 0.0
    assert np.all(sp[0, 3:9] == 0.0)
    assert phase[0] == sim.PHASE_TAKEOFF


def test_plan_setpoints_c1():
    plan = FlightPlan(CircleTrajectory(speeds=(2.0,), hold=4.0))
    t, dt = np.linspace(0.5, plan.duration - 0.5, 40), 1e-5
    p0, p1 = plan.setpoints(t - dt)[0][:, 0:3], plan.setpoints(t + dt)[0][:, 0:3]
    v = plan.setpoints(t)[0][:, 3:6]
    assert np.allclose((p1 - p0) / (2 * dt), v, atol=1e-3)


def test_plan_phase_sequence():
    plan = FlightPlan(CircleTrajectory(speeds=(2.0,), hold=4.0))
    phases = plan.setpoints(np.arange(0.0, plan.duration, 0.25))[1].tolist()
    # strip consecutive duplicates
    seq = [phases[0]] + [p for a, p in zip(phases, phases[1:]) if p != a]
    assert seq == [sim.PHASE_TAKEOFF, sim.PHASE_GOTO, sim.PHASE_EXECUTE, sim.PHASE_LAND]


# ---------------------------------------------------------------------------
# controller and allocation


def test_controller_hover_thrust():
    par = VehicleParams()
    ctrl = Controller(ControllerParams(), par)
    state = [0.0, 0.0, 1.5, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    u, wrench = ctrl.step(state, [0.0, 0.0, 1.5] + [0.0] * 6, 0.002)
    assert wrench[0] == pytest.approx(par.mass * par.gravity, rel=1e-6)
    assert np.allclose(wrench[1:], 0.0, atol=1e-9)
    # throttles reproduce the commanded wrench through the declared map
    B = allocation_matrix()
    assert np.allclose(B @ (sim.K_THRUST * np.array(u)), wrench, atol=1e-9)


def test_controller_climb_request():
    par = VehicleParams()
    ctrl = Controller(ControllerParams(), par)
    state = [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    u, wrench = ctrl.step(state, [0.0, 0.0, 1.5] + [0.0] * 6, 0.002)
    assert wrench[0] > par.mass * par.gravity
    assert np.allclose(wrench[1:], 0.0, atol=1e-9)


def test_allocation_matrix_rank():
    B = allocation_matrix()
    assert B.shape == (4, 6)
    assert np.linalg.matrix_rank(B) == 4
    # symmetric hexarotor: equal throttles produce pure collective force
    w = B @ np.ones(6)
    assert w[0] == pytest.approx(6.0)
    assert np.allclose(w[1:], 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# closed-loop runs


def test_run_deterministic():
    sc = sim.hover_scenario(duration=2.0, seed=17)
    log1 = run_scenario(sc)
    log2 = run_scenario(sim.hover_scenario(duration=2.0, seed=17))
    for name in log1.channels:
        assert np.array_equal(log1[name].data, log2[name].data)
    log3 = run_scenario(sim.hover_scenario(duration=2.0, seed=18))
    assert not np.array_equal(log1["odometry"].data, log3["odometry"].data)


def test_truth_bookkeeping_closure(circle3_clean):
    """Logged acceleration satisfies the translational dynamics built
    from the logged state, applied thrust, wind and touch."""
    log, sc = circle3_clean
    tr = log["truth"]
    q = tr.col("qw", "qx", "qy", "qz")
    v = tr.col("vx", "vy", "vz")
    a = tr.col("ax", "ay", "az")
    thrust = tr.col("thrust")
    wind = tr.col("wind_x", "wind_y", "wind_z")
    touch = tr.col("touch_x", "touch_y", "touch_z")
    par = sc.vehicle
    consts = vehicle.scalar_consts(par)
    for k in range(0, tr.t.size, 37):
        x = [0.0] * 3 + v[k].tolist() + q[k].tolist() + [0.0] * 3
        acc, _ = vehicle.rk4_step(x, thrust[k], [0.0] * 3, wind[k], touch[k], consts, 0.001)
        assert np.allclose(par.mass * a[k], par.mass * np.array(acc), atol=1e-6)


def test_noiseless_angles_match_forward_model(circle3_clean):
    """Synthesized whisker angles on a clean log equal the measurement
    model evaluated at the truth state."""
    log, sc = circle3_clean
    wh = log["whisker"]
    tr = log["truth"]
    idx = np.searchsorted(tr.t, wh.t)
    theta_cols = [f"theta_{ax}_{i}" for i in range(4) for ax in ("x", "y")]
    got = wh.col(*theta_cols).reshape(-1, 4, 2)
    q = tr.col("qw", "qx", "qy", "qz")[idx]
    v = tr.col("vx", "vy", "vz")[idx]
    w = tr.col("wx", "wy", "wz")[idx]
    wind = tr.col("wind_x", "wind_y", "wind_z")[idx]
    expect = whisker.rig_predict(q.T, v.T, w.T, wind.T, sc.rig).transpose(2, 0, 1)
    assert np.allclose(got, expect, atol=1e-12)


def test_hover_angles_zero(hover_clean):
    log, sc = hover_clean
    wh = log["whisker"]
    theta_cols = [f"theta_{ax}_{i}" for i in range(4) for ax in ("x", "y")]
    theta = wh.col(*theta_cols)
    hold = (wh.t > sc.plan.t_execute + 1.0) & (wh.t < sc.plan.t_land - 1.0)
    assert np.max(np.abs(theta[hold])) < 1e-6


def test_circle_drag_at_3ms(circle3_clean):
    log, sc = circle3_clean
    tr = log["truth"]
    steady = (tr.t > sc.plan.t_execute + 4.0) & (tr.t < sc.plan.t_land - 3.0)
    v = tr.col("vx", "vy", "vz")[steady]
    speeds = np.linalg.norm(v, axis=1)
    assert np.median(speeds) == pytest.approx(3.0, abs=0.05)
    drag = sc.vehicle.mu1 * speeds + sc.vehicle.mu2 * speeds**2
    assert np.median(drag) == pytest.approx(1.23, rel=0.03)


def test_four_phase_schedule():
    sc = sim.four_phase_scenario(noise=NoiseSpec.none(), phase_len=6.0)
    log = run_scenario(sc)
    tr = log["truth"]
    t0 = sc.plan.t_execute
    L = 6.0
    wind = np.linalg.norm(tr.col("wind_x", "wind_y", "wind_z"), axis=1)
    touch = np.linalg.norm(tr.col("touch_x", "touch_y", "touch_z"), axis=1)

    def window(a, b):
        return (tr.t >= t0 + a * L + 0.5) & (tr.t <= t0 + b * L - 0.5)

    assert np.all(wind[window(0, 1)] == 0.0) and np.all(touch[window(0, 1)] == 0.0)
    assert np.all(wind[window(1, 2)] > 0.5) and np.all(touch[window(1, 2)] == 0.0)
    assert np.all(wind[window(2, 3)] > 0.5) and np.all(touch[window(2, 3)] > 0.0)
    assert np.all(wind[window(3, 4)] == 0.0) and np.all(touch[window(3, 4)] > 0.0)
    # the pull ramps over phase 3 then holds at 4 N
    ramp = touch[window(2, 3)]
    assert ramp[0] < 1.0 and ramp[-1] > 3.0
    assert np.allclose(touch[window(3, 4)], 4.0)


def test_thrust_scale_miscalibration():
    sc = sim.four_phase_scenario(noise=NoiseSpec.none(), thrust_scale=0.85, phase_len=4.0)
    log = run_scenario(sc)
    thr = log["throttle"]
    tr = log["truth"]
    # applied thrust (truth channel) is the scaled command (throttle channel);
    # compare at coincident timestamps, both channels sample those ticks fresh
    common, i_tr, i_thr = np.intersect1d(tr.t, thr.t, return_indices=True)
    hold = (common > sc.plan.t_execute + 1.0) & (common < sc.plan.t_execute + 3.0)
    f_true = tr.col("thrust")[i_tr[hold]]
    f_cmd = thr.col("f_cmd")[i_thr[hold]]
    assert np.allclose(f_true, 0.85 * f_cmd, rtol=1e-9)
    # hovering still: the commanded thrust overshoots m g to compensate
    assert np.median(f_cmd) > sc.vehicle.mass * sc.vehicle.gravity * 1.1


def test_outlier_spikes_injected():
    noise = NoiseSpec.none()
    noise.outlier_prob = 0.05
    sc = sim.hover_scenario(noise=noise, duration=4.0, seed=31)
    log = run_scenario(sc)
    from windest.logio import whisker_fields

    fields = whisker_fields(log)
    # spikes push |b| far from the rest magnitude on some ticks
    dev = np.abs(np.abs(fields) - np.abs(fields[0])).max(axis=2)
    assert (dev > 50.0).mean() > 0.01


def test_interference_bias_present():
    clean = run_scenario(sim.circular_scenario(noise=NoiseSpec.none(), speeds=(2.0,), hold=4.0))
    noise = NoiseSpec.none()
    noise.interference_gain = 0.05
    biased = run_scenario(
        sim.circular_scenario(noise=noise, speeds=(2.0,), hold=4.0)
    )
    cols = [f"theta_{ax}_{i}" for i in range(4) for ax in ("x", "y")]
    a = clean["whisker"].col(*cols)
    b = biased["whisker"].col(*cols)
    n = min(len(a), len(b))
    diff = np.abs(a[:n] - b[:n])
    assert diff.max() > 5e-3  # propwash bias visible against the clean run


@pytest.mark.parametrize("factory", [sim.circular_scenario, sim.joystick_scenario])
def test_interference_leaves_the_callers_noise_spec_alone(factory):
    noise = NoiseSpec.none()
    sc = factory(noise=noise, interference=0.18)
    assert sc.noise.interference_gain == 0.18
    assert noise == NoiseSpec.none()


def test_divergence_raises_with_partial_log():
    bad = ControllerParams(kp_pos=np.array([-30.0, -30.0, 8.0]))
    sc = sim.hover_scenario(noise=NoiseSpec.none(), duration=30.0)
    sc.controller = bad
    with pytest.raises(SimulationDiverged) as info:
        run_scenario(sc)
    partial = info.value.partial_log
    # the last control tick recorded is the one before the divergence tick
    t_div = partial["truth"].t[-1] + 1.0 / sim.TRUTH_RATE
    assert t_div > 1.0
    for name, rate in [("truth", sim.TRUTH_RATE), ("odometry", sim.ODO_RATE),
                       ("imu", sim.IMU_RATE), ("whisker", sim.WHISKER_RATE),
                       ("throttle", sim.THROTTLE_RATE)]:
        ch = partial[name]
        assert ch.t[0] == 0.0, name
        assert np.allclose(np.diff(ch.t), 1.0 / rate, atol=1e-9), name
        # every tick of the channel's clock before the divergence tick
        assert 0.0 < t_div - ch.t[-1] <= 1.0 / rate + 1e-9, name
        assert np.all(np.isfinite(ch.data)), name


def test_non_finite_state_raises_with_finite_partial_log():
    """A NaN position fails the divergence guard: the flight stops at the
    first control tick that sees it, and the partial log holds only the
    ticks before it, all finite."""
    sc = sim.hover_scenario(noise=NoiseSpec.none(), duration=1.0)
    sc.vehicle = VehicleParams(mu2=np.inf)
    with pytest.raises(SimulationDiverged) as info:
        run_scenario(sc)
    assert "|p|=nan" in str(info.value)
    truth = info.value.partial_log["truth"]
    assert truth.t.size > 0
    assert np.all(np.isfinite(truth.data))


def test_odometry_noise_levels():
    sc = sim.hover_scenario(duration=6.0, seed=23)  # default noise
    log = run_scenario(sc)
    odo = log["odometry"]
    tr = log["truth"]
    idx = np.searchsorted(tr.t, odo.t)
    idx = np.clip(idx, 0, tr.t.size - 1)
    dp = odo.col("px", "py", "pz") - tr.col("px", "py", "pz")[idx]
    dv = odo.col("vx", "vy", "vz") - tr.col("vx", "vy", "vz")[idx]
    assert np.std(dp) == pytest.approx(sc.noise.odo_pos, rel=0.25)
    assert np.std(dv) == pytest.approx(sc.noise.odo_vel, rel=0.25)


def test_channel_rates(hover_clean):
    log, sc = hover_clean
    for name, rate in [("truth", 500.0), ("odometry", 100.0), ("imu", 200.0),
                       ("whisker", 50.0), ("throttle", 200.0)]:
        dt = np.diff(log[name].t)
        assert np.allclose(dt, 1.0 / rate, atol=1e-9), name
