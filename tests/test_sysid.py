"""Drag polynomial and whisker coefficient identification."""

import numpy as np
import pytest

from windest import pipeline, sysid, whisker
from windest.geometry import quat_from_axis_angle, quat_multiply_rows, rotation_transposed
from windest.sysid import (
    MAX_VERTICAL_RATIO,
    MIN_SPEED,
    collect_drag_samples,
    collect_drag_samples_truth,
    fit_drag_polynomial,
    identify_sensor_coefficient,
)

MASS = 1.31
LEVEL = np.array([1.0, 0.0, 0.0, 0.0])


def attitude(roll, pitch, yaw=0.0):
    """Unit quaternion of the ZYX attitude (yaw, pitch, roll)."""
    q = quat_multiply_rows(
        quat_from_axis_angle(np.array([0.0, 0.0, yaw])),
        quat_multiply_rows(
            quat_from_axis_angle(np.array([0.0, pitch, 0.0])),
            quat_from_axis_angle(np.array([roll, 0.0, 0.0])),
        ),
    )
    return np.array(q)


def r33(q):
    """R33 of the attitude q, from the rotation form."""
    return float(rotation_transposed(q)[2, 2])


def odometry(v, q=LEVEL, window=None):
    """Drag samples from a 100 Hz odometry log with world velocity v (one
    row per sample) and attitude q (one (4,) or a row per sample)."""
    v = np.asarray(v, dtype=float)
    t = 0.01 * np.arange(v.shape[0])
    q = np.broadcast_to(q, (v.shape[0], 4))
    return collect_drag_samples(t, q, v, MASS, window=window)


def truth(v, window=None):
    """Drag samples from a 100 Hz truth log with velocity v (one row per
    sample) in still air, level, at hover thrust."""
    v = np.asarray(v, dtype=float)
    n = v.shape[0]
    zeros = np.zeros((n, 3))
    return collect_drag_samples_truth(
        0.01 * np.arange(n), np.tile(LEVEL, (n, 1)), v, zeros,
        np.full(n, MASS * 9.81), zeros, zeros, MASS, window=window,
    )


def steady(v, n=40):
    return np.tile(np.asarray(v, dtype=float), (n, 1))


def test_thrust_level():
    """A level attitude holds altitude with m g: with no acceleration, a
    climb at v_z projects that thrust on the direction of travel."""
    assert r33(attitude(0.0, 0.0, 1.3)) == 1.0
    v = np.array([1.0, 0.0, 0.3])
    speed, force = odometry(steady(v))
    assert len(speed) == 40
    assert speed == pytest.approx(np.linalg.norm(v))
    assert force * speed / v[2] == pytest.approx(12.8511)


def test_thrust_tilted():
    """R33 is cos(roll) cos(pitch), whatever the yaw, and the thrust is
    m g / R33."""
    assert r33(attitude(np.radians(30), np.radians(30), 2.0)) == pytest.approx(0.75, abs=1e-15)
    q = attitude(np.radians(30), np.radians(30))
    v = np.array([2.0, 0.0, 0.0])
    v_body = rotation_transposed(q) @ v
    speed, force = odometry(steady(v), q)
    assert len(speed) == 40
    assert force * speed / v_body[2] == pytest.approx(12.8511 / 0.75)


def test_attitude_near_singular_is_left_out():
    """Rows with R33 below 0.2 give no sample; the level rows around them do."""
    steep = attitude(np.radians(85), np.radians(80))
    assert r33(steep) < 0.2
    q = np.tile(LEVEL, (60, 1))
    q[20:40] = steep
    speed, force = odometry(steady([1.0, 0.0, 0.0], 60), q)
    assert len(speed) == 40
    assert np.all(np.isfinite(force))


def test_level_flight_gives_zero_force():
    # level unaccelerated flight, horizontal travel: vertical thrust has
    # no component along the track
    speed, force = odometry(steady([1.0, 0.0, 0.0]))
    assert len(speed) == 40
    assert force == pytest.approx(np.zeros(40), abs=1e-9)


def test_force_flips_with_direction_of_travel():
    rng = np.random.default_rng(50)
    q = attitude(*rng.uniform(-0.5, 0.5, 3))
    v = np.array([1.5, -0.8, 0.2])
    s1, f1 = odometry(steady(v), q)
    s2, f2 = odometry(steady(-v), q)
    assert np.all(np.abs(f1) > 0.1)
    assert s2 == pytest.approx(s1)
    assert f2 == pytest.approx(-f1)


def test_rows_at_rest_give_no_sample_and_no_floating_point_error():
    v = steady([1.0, 0.0, 0.0], 60)
    v[:20] = 0.0
    v[40:50] = 0.0
    with np.errstate(all="raise"):
        speed, force = odometry(v)
        t_speed, t_force = truth(v)
    assert len(speed) == len(t_speed) == 30
    assert np.all(speed > 0.0) and np.all(t_speed > 0.0)
    assert np.all(np.isfinite(force)) and np.all(np.isfinite(t_force))


@pytest.mark.parametrize("collect", [odometry, truth])
def test_speed_at_the_minimum_is_kept(collect):
    v = steady([MIN_SPEED, 0.0, 0.0], 30)
    v[10:20, 0] = np.nextafter(MIN_SPEED, 0.0)
    speed, _ = collect(v)
    assert len(speed) == 20
    assert speed == pytest.approx(MIN_SPEED)


def test_vertical_share_at_the_maximum_is_kept():
    """A row whose |v_z| is MAX_VERTICAL_RATIO of its speed, to the last
    bit, is kept; the next float up is not."""
    z = 0.0
    for _ in range(60):  # fixed point of z = ratio |(1, 0, z)|
        z = MAX_VERTICAL_RATIO * np.linalg.norm([1.0, 0.0, z])
    on, over = np.array([1.0, 0.0, z]), np.array([1.0, 0.0, np.nextafter(z, 1.0)])
    assert on[2] == MAX_VERTICAL_RATIO * np.linalg.norm(on)
    assert over[2] > MAX_VERTICAL_RATIO * np.linalg.norm(over)
    speed, _ = odometry(np.concatenate([steady(on, 20), steady(over, 10)]))
    assert len(speed) == 20


@pytest.mark.parametrize("collect", [odometry, truth])
def test_window_ends_are_kept(collect):
    v = steady([1.0, 0.0, 0.0], 30)
    t = 0.01 * np.arange(30)
    assert len(collect(v, window=(t[10], t[20]))[0]) == 11
    inside = (np.nextafter(t[10], np.inf), np.nextafter(t[20], 0.0))
    assert len(collect(v, window=inside)[0]) == 9


def test_fit_recovers_noiseless():
    speeds = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    fit = fit_drag_polynomial(speeds, 0.20 * speeds + 0.07 * speeds * speeds)
    assert fit.mu1 == pytest.approx(0.20, abs=1e-9)
    assert fit.mu2 == pytest.approx(0.07, abs=1e-9)


def test_fit_with_noise():
    rng = np.random.default_rng(51)
    speeds = rng.uniform(0.5, 5.0, 500)
    f = 0.20 * speeds + 0.07 * speeds**2
    f = f * (1.0 + 0.05 * rng.normal(size=500))
    fit = fit_drag_polynomial(speeds, f)
    assert fit.mu1 == pytest.approx(0.20, rel=0.05)
    assert fit.mu2 == pytest.approx(0.07, rel=0.05)


def test_fit_all_zero():
    fit = fit_drag_polynomial(np.array([1.0, 2.0, 3.0]), np.zeros(3))
    assert fit.mu1 == 0.0 and fit.mu2 == 0.0


def test_fit_rank_deficient():
    with pytest.raises(ValueError):
        fit_drag_polynomial(np.full(10, 2.0), np.full(10, 0.5))
    with pytest.raises(ValueError):
        fit_drag_polynomial(np.array([1.0]), np.array([0.3]))


def test_fit_scale_consistency():
    rng = np.random.default_rng(52)
    speeds = rng.uniform(0.5, 5.0, 40)
    f = 0.20 * speeds + 0.07 * speeds**2 + 0.02 * rng.normal(size=40)
    base = fit_drag_polynomial(speeds, f)
    scaled = fit_drag_polynomial(speeds, 3.0 * f)
    assert scaled.mu1 == pytest.approx(3.0 * base.mu1)
    assert scaled.mu2 == pytest.approx(3.0 * base.mu2)


def test_coefficient_noiseless():
    rng = np.random.default_rng(53)
    v = rng.uniform(-3.0, 3.0, size=(200, 3))
    th = whisker.predict_deflection(v.T, 0.01).T
    c = identify_sensor_coefficient(th, v)
    assert c == pytest.approx(0.01, abs=1e-9)


def test_coefficient_with_noise():
    rng = np.random.default_rng(54)
    v = rng.uniform(-3.0, 3.0, size=(500, 3))
    th = whisker.predict_deflection(v.T, 0.01).T
    th = th * (1.0 + 0.10 * rng.normal(size=th.shape))
    c = identify_sensor_coefficient(th, v)
    assert c == pytest.approx(0.01, rel=0.05)


def test_coefficient_pure_z_fails():
    v = np.zeros((50, 3))
    v[:, 2] = np.linspace(0.5, 3.0, 50)
    th = whisker.predict_deflection(v.T, 0.01).T
    with pytest.raises(ValueError):
        identify_sensor_coefficient(th, v)


def test_coefficient_rotation_invariant():
    """Per-sample rotation about the sensor z axis leaves the estimate
    unchanged (only norms enter)."""
    rng = np.random.default_rng(55)
    v = rng.uniform(-3.0, 3.0, size=(100, 3))
    th = whisker.predict_deflection(v.T, 0.01).T
    phi = rng.uniform(-np.pi, np.pi, 100)
    c, s = np.cos(phi), np.sin(phi)
    v_rot = np.column_stack([c * v[:, 0] - s * v[:, 1], s * v[:, 0] + c * v[:, 1], v[:, 2]])
    th_rot = np.column_stack([c * th[:, 0] - s * th[:, 1], s * th[:, 0] + c * th[:, 1]])
    a = identify_sensor_coefficient(th, v)
    b = identify_sensor_coefficient(th_rot, v_rot)
    assert a == pytest.approx(b, abs=1e-12)


def test_truth_samples_on_circle(circle3_clean):
    """Bookkeeping samples from a clean 3 m/s circle land on the drag
    polynomial."""
    log, sc = circle3_clean
    tr = log["truth"]
    plan = sc.plan
    window = (plan.t_execute + 2.0, plan.t_land - 2.0)
    speeds, forces = collect_drag_samples_truth(
        tr.t,
        tr.col("qw", "qx", "qy", "qz"),
        tr.col("vx", "vy", "vz"),
        tr.col("ax", "ay", "az"),
        tr.col("thrust"),
        tr.col("wind_x", "wind_y", "wind_z"),
        tr.col("touch_x", "touch_y", "touch_z"),
        sc.vehicle.mass,
        window=window,
    )
    assert len(speeds) > 100
    assert np.median(speeds) == pytest.approx(3.0, abs=0.1)
    # paper-scale check: 1.23 N at 3 m/s
    assert np.median(forces) == pytest.approx(1.23, rel=0.05)


def test_odometry_samples_on_circle(circle3_clean):
    log, sc = circle3_clean
    odo = log["odometry"]
    plan = sc.plan
    window = (plan.t_execute + 2.0, plan.t_land - 2.0)
    _, forces = collect_drag_samples(
        odo.t,
        odo.col("qw", "qx", "qy", "qz"),
        odo.col("vx", "vy", "vz"),
        sc.vehicle.mass,
        window=window,
    )
    assert len(forces) > 50
    assert np.median(forces) == pytest.approx(1.23, rel=0.1)


def test_round_trip_from_simulation(circle_multi_clean):
    """Parameters identified from clean simulator output match the ones
    the simulator flew with."""
    log, sc = circle_multi_clean
    tr = log["truth"]
    plan = sc.plan
    window = (plan.t_execute + 1.0, plan.t_land - 1.0)
    speeds, forces = collect_drag_samples_truth(
        tr.t,
        tr.col("qw", "qx", "qy", "qz"),
        tr.col("vx", "vy", "vz"),
        tr.col("ax", "ay", "az"),
        tr.col("thrust"),
        tr.col("wind_x", "wind_y", "wind_z"),
        tr.col("touch_x", "touch_y", "touch_z"),
        sc.vehicle.mass,
        window=window,
    )
    fit = fit_drag_polynomial(speeds, forces)
    assert fit.mu1 == pytest.approx(sc.vehicle.mu1, abs=1e-5)
    assert fit.mu2 == pytest.approx(sc.vehicle.mu2, abs=1e-5)


def reference_odometry_samples(t, q, v, mass):
    """collect_drag_samples one row at a time: the row rules, then the
    projection of (f e3 - m a) on the body-frame direction of travel."""
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    a = sysid.differentiate_velocity(t, v)
    out = []
    for k in range(t.shape[0]):
        speed = np.linalg.norm(v[k])
        if speed < MIN_SPEED or abs(v[k, 2]) > MAX_VERTICAL_RATIO * speed:
            continue
        rt = rotation_transposed(q[k])
        if rt[2, 2] < 0.2:
            continue
        v_body = rt @ v[k]
        speed_body = np.linalg.norm(v_body)
        thrust = np.array([0.0, 0.0, mass * 9.81 / rt[2, 2]])
        out.append((speed_body, (thrust - mass * rt @ a[k]) @ v_body / speed_body))
    return np.array(out).T


def test_odometry_samples_match_the_row_by_row_reference(circle_multi_clean):
    """Over a whole flight (take-off and landing cross the speed and
    vertical-share rules), the collector keeps the reference's rows, in
    order, with the same speed and force up to round-off."""
    log, sc = circle_multi_clean
    odo = log["odometry"]
    args = (odo.t, odo.col("qw", "qx", "qy", "qz"), odo.col("vx", "vy", "vz"), sc.vehicle.mass)
    speed, force = collect_drag_samples(*args)
    ref_speed, ref_force = reference_odometry_samples(*args)
    assert 0 < len(speed) < len(odo.t)
    assert speed.shape == ref_speed.shape
    assert np.all(np.abs(speed - ref_speed) <= 1e-12 * ref_speed)
    assert np.all(np.abs(force - ref_force) <= 1e-9)


def test_truth_samples_match_the_row_by_row_reference(circle_multi_clean):
    log, sc = circle_multi_clean
    tr = log["truth"]
    mass = sc.vehicle.mass
    q = tr.col("qw", "qx", "qy", "qz")
    v_inf = tr.col("wind_x", "wind_y", "wind_z") - tr.col("vx", "vy", "vz")
    rest = tr.col("touch_x", "touch_y", "touch_z") - mass * tr.col("ax", "ay", "az")
    rest[:, 2] -= mass * 9.81
    thrust = tr.col("thrust")
    ref = []
    for k in range(len(tr.t)):
        speed = np.linalg.norm(v_inf[k])
        if speed >= MIN_SPEED:
            force = rotation_transposed(q[k])[2] * thrust[k] + rest[k]
            ref.append((speed, force @ -v_inf[k] / speed))
    speed, force = collect_drag_samples_truth(
        tr.t, q, tr.col("vx", "vy", "vz"), tr.col("ax", "ay", "az"), thrust,
        tr.col("wind_x", "wind_y", "wind_z"), tr.col("touch_x", "touch_y", "touch_z"), mass,
    )
    ref_speed, ref_force = np.array(ref).T
    assert 0 < len(speed) < len(tr.t)
    assert speed.shape == ref_speed.shape
    assert np.all(np.abs(speed - ref_speed) <= 1e-12 * ref_speed)
    assert np.all(np.abs(force - ref_force) <= 1e-9)


def test_differentiate_velocity_linear_ramp():
    t = np.arange(0.0, 4.0, 0.01)
    v = np.column_stack([2.0 * t, -1.0 * t, 0.0 * t])
    a = sysid.differentiate_velocity(t, v)
    mid = slice(50, -50)
    assert np.allclose(a[mid, 0], 2.0, atol=1e-3)
    assert np.allclose(a[mid, 1], -1.0, atol=1e-3)


def test_drag_fit_does_not_depend_on_quaternion_scale(circle_multi_clean):
    """R(q) is quadratic in q, so collect_drag_samples normalizes the
    odometry attitude first: a column scaled by 1.01 (which unnormalized
    would move mu2 by about 6%) gives the same fit."""
    log, sc = circle_multi_clean
    odo = log["odometry"]
    q = odo.col("qw", "qx", "qy", "qz")

    def fit(q):
        return fit_drag_polynomial(
            *collect_drag_samples(odo.t, q, odo.col("vx", "vy", "vz"), sc.vehicle.mass)
        )

    unit, scaled = fit(q), fit(1.01 * q)
    assert scaled.mu1 == pytest.approx(unit.mu1, abs=1e-12)
    assert scaled.mu2 == pytest.approx(unit.mu2, abs=1e-12)


def test_rig_coefficients_do_not_depend_on_quaternion_scale(circle_multi_clean):
    """identify_rig_coefficients normalizes the odometry attitude too: a
    column scaled by 1.01 (which unnormalized would move each coefficient
    by about 4%) gives the same four coefficients."""
    log, sc = circle_multi_clean
    odo = log["odometry"]
    t_theta, theta, _ = pipeline.driver_angles(log, pipeline.EstimatorConfig())
    q = odo.col("qw", "qx", "qy", "qz")

    def coeffs(q):
        return sysid.identify_rig_coefficients(
            t_theta, theta, odo.t, q, odo.col("vx", "vy", "vz"), odo.col("wx", "wy", "wz"), sc.rig
        )

    unit, scaled = coeffs(q), coeffs(1.01 * q)
    assert unit.shape == (len(sc.rig),)
    assert np.all(np.abs(scaled - unit) <= 1e-12 * np.abs(unit))


@pytest.mark.parametrize("fs, n", [(100.0, 2650), (50.0, 1000), (100.0, 15)])
def test_lowpass_matches_scipy_filtfilt(fs, n):
    """The numpy low-pass is scipy's default filtfilt of the order-2
    Butterworth at CUTOFF_HZ, to rounding."""
    signal = pytest.importorskip("scipy.signal")
    rng = np.random.default_rng(int(fs) + n)
    x = np.cumsum(rng.normal(size=(n, 3)), axis=0)
    x *= 100.0 / np.abs(x).max()
    ref = signal.filtfilt(*signal.butter(2, sysid.CUTOFF_HZ / (0.5 * fs)), x, axis=0)
    y = sysid._lowpass(x, fs)
    assert y.shape == x.shape
    assert np.abs(y - ref).max() <= 1e-12 * np.abs(x).max()


def test_lowpass_passes_short_input_through():
    x = np.arange(42.0).reshape(14, 3)
    assert sysid._lowpass(x, 100.0) is x
