"""Drag polynomial and whisker coefficient identification."""

import numpy as np
import pytest

from windest import pipeline, sim, sysid, whisker
from windest.geometry import quat_from_axis_angle, quat_multiply_rows, rotation_transposed
from windest.sysid import (
    DragSample,
    collect_drag_samples,
    collect_drag_samples_truth,
    drag_projection,
    drag_sample,
    fit_drag_polynomial,
    identify_sensor_coefficient,
    thrust_from_attitude,
)


def r33(roll, pitch, yaw=0.0):
    """R33 of the ZYX attitude (yaw, pitch, roll), from the rotation form."""
    q = quat_multiply_rows(
        quat_from_axis_angle(np.array([0.0, 0.0, yaw])),
        quat_multiply_rows(
            quat_from_axis_angle(np.array([0.0, pitch, 0.0])),
            quat_from_axis_angle(np.array([roll, 0.0, 0.0])),
        ),
    )
    return float(rotation_transposed(np.array(q))[2, 2])


def test_thrust_level():
    assert r33(0.0, 0.0, 1.3) == 1.0
    assert thrust_from_attitude(1.31, r33(0.0, 0.0)) == pytest.approx(12.8511)
    assert thrust_from_attitude(1.0, r33(0.0, 0.0)) == pytest.approx(9.81)


def test_thrust_tilted():
    """R33 is cos(roll) cos(pitch), whatever the yaw."""
    assert r33(np.radians(30), np.radians(30), 2.0) == pytest.approx(0.75, abs=1e-15)
    f = thrust_from_attitude(1.31, r33(np.radians(30), np.radians(30)))
    assert f == pytest.approx(12.8511 / 0.75)


def test_thrust_near_singular():
    with pytest.raises(ValueError, match="too far from level"):
        thrust_from_attitude(1.31, r33(np.radians(85), np.radians(80)))


def test_drag_projection_level_flight():
    # level unaccelerated flight, horizontal travel: vertical thrust has
    # no component along the track
    s = drag_projection(12.8511, np.zeros(3), np.array([1.0, 0.0, 0.0]), 1.31)
    assert s == pytest.approx(0.0)


def test_drag_projection_flips_with_direction():
    rng = np.random.default_rng(50)
    a = rng.normal(size=3)
    e = rng.normal(size=3)
    e /= np.linalg.norm(e)
    s1 = drag_projection(10.0, a, e, 1.31)
    s2 = drag_projection(10.0, a, -e, 1.31)
    assert s2 == pytest.approx(-s1)


def test_drag_sample_rejects_zero_speed():
    with pytest.raises(ValueError):
        drag_sample(10.0, np.zeros(3), np.zeros(3), 1.31)


def test_fit_recovers_noiseless():
    speeds = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    samples = [DragSample(s, 0.20 * s + 0.07 * s * s) for s in speeds]
    fit = fit_drag_polynomial(samples)
    assert fit.mu1 == pytest.approx(0.20, abs=1e-9)
    assert fit.mu2 == pytest.approx(0.07, abs=1e-9)
    assert fit.rms < 1e-12


def test_fit_with_noise():
    rng = np.random.default_rng(51)
    speeds = rng.uniform(0.5, 5.0, 500)
    f = 0.20 * speeds + 0.07 * speeds**2
    f = f * (1.0 + 0.05 * rng.normal(size=500))
    fit = fit_drag_polynomial([DragSample(s, x) for s, x in zip(speeds, f)])
    assert fit.mu1 == pytest.approx(0.20, rel=0.05)
    assert fit.mu2 == pytest.approx(0.07, rel=0.05)


def test_fit_all_zero():
    fit = fit_drag_polynomial([DragSample(s, 0.0) for s in (1.0, 2.0, 3.0)])
    assert fit.mu1 == 0.0 and fit.mu2 == 0.0


def test_fit_rank_deficient():
    with pytest.raises(ValueError):
        fit_drag_polynomial([DragSample(2.0, 0.5)] * 10)
    with pytest.raises(ValueError):
        fit_drag_polynomial([DragSample(1.0, 0.3)])


def test_fit_scale_consistency():
    rng = np.random.default_rng(52)
    speeds = rng.uniform(0.5, 5.0, 40)
    f = 0.20 * speeds + 0.07 * speeds**2 + 0.02 * rng.normal(size=40)
    base = fit_drag_polynomial([DragSample(s, x) for s, x in zip(speeds, f)])
    scaled = fit_drag_polynomial([DragSample(s, 3.0 * x) for s, x in zip(speeds, f)])
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
    samples = collect_drag_samples_truth(
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
    assert len(samples) > 100
    forces = np.array([s.force for s in samples])
    speeds = np.array([s.speed for s in samples])
    assert np.median(speeds) == pytest.approx(3.0, abs=0.1)
    # paper-scale check: 1.23 N at 3 m/s
    assert np.median(forces) == pytest.approx(1.23, rel=0.05)


def test_odometry_samples_on_circle(circle3_clean):
    log, sc = circle3_clean
    odo = log["odometry"]
    plan = sc.plan
    window = (plan.t_execute + 2.0, plan.t_land - 2.0)
    samples = collect_drag_samples(
        odo.t,
        odo.col("qw", "qx", "qy", "qz"),
        odo.col("vx", "vy", "vz"),
        sc.vehicle.mass,
        window=window,
    )
    assert len(samples) > 50
    forces = np.array([s.force for s in samples])
    assert np.median(forces) == pytest.approx(1.23, rel=0.1)


def test_round_trip_from_simulation(circle_multi_clean):
    """Parameters identified from clean simulator output match the ones
    the simulator flew with."""
    log, sc = circle_multi_clean
    tr = log["truth"]
    plan = sc.plan
    window = (plan.t_execute + 1.0, plan.t_land - 1.0)
    samples = collect_drag_samples_truth(
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
    fit = fit_drag_polynomial(samples)
    assert fit.mu1 == pytest.approx(sc.vehicle.mu1, abs=1e-5)
    assert fit.mu2 == pytest.approx(sc.vehicle.mu2, abs=1e-5)


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
            collect_drag_samples(odo.t, q, odo.col("vx", "vy", "vz"), sc.vehicle.mass)
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
