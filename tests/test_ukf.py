"""Disturbance filter: prediction, updates, outputs, and consistency."""

from dataclasses import replace

import numpy as np
import pytest

from test_geometry import (
    ref_compose_mrp,
    ref_mrp_error,
    ref_quat_integrate,
    ref_quat_normalize,
    ref_reconstruct,
    ref_sigma_points,
    ref_unscented_transform,
)
from test_whisker import ref_body_airflow, ref_rig_predict
from windest import geometry, logio, ukf, vehicle, whisker
from windest.geometry import (
    mrp_error,
    quat_from_axis_angle,
    quat_from_mrp,
    quat_multiply_rows,
    quat_to_matrix,
)
from windest.ukf import (
    IDX_A,
    IDX_F,
    IDX_P,
    IDX_V,
    IDX_W,
    IDX_WIND,
    STATE_DIM,
    BeliefState,
    ProcessNoise,
    init_belief,
    output,
    predict,
    update_airflow,
    update_odometry,
    update_pseudo_airflow,
)
from windest.vehicle import VehicleParams
from windest.whisker import WhiskerRig, default_rig

Q_ID = np.array([1.0, 0.0, 0.0, 0.0])


def hover_belief(cov=None, wind=(0.0, 0.0, 0.0)):
    mean = np.zeros(STATE_DIM)
    mean[IDX_P] = (0.0, 0.0, 1.5)
    mean[IDX_WIND] = wind
    if cov is None:
        d = np.empty(STATE_DIM)
        d[IDX_P] = 0.05**2
        d[IDX_A] = 0.02**2
        d[IDX_V] = 0.05**2
        d[IDX_W] = 0.01**2
        d[IDX_F] = 1.0
        d[IDX_WIND] = 4.0
        cov = np.diag(d)
    return BeliefState(Q_ID.copy(), mean, cov)


def wrench(thrust, torque):
    """The command [f_cmd, tau_x, tau_y, tau_z]."""
    return np.concatenate(([thrust], torque))


def hover_wrench(params=None):
    params = params or VehicleParams()
    return wrench(params.mass * params.gravity, np.zeros(3))


def zero_noise():
    return ProcessNoise(pos=0.0, att=0.0, vel=0.0, gyro=0.0, touch=0.0, wind=0.0)


def diag_odo_cov(sp=0.01, sa=0.005, sv=0.02, sw=0.005):
    return np.diag(np.concatenate([
        np.full(3, sp**2), np.full(3, sa**2), np.full(3, sv**2), np.full(3, sw**2)
    ]))


# ---------------------------------------------------------------------------
# prediction


def test_predict_dt_validation():
    b = hover_belief()
    params = VehicleParams()
    with pytest.raises(ValueError):
        predict(b, hover_wrench(), -0.01, zero_noise(), params)
    out = predict(b, hover_wrench(), 0.0, zero_noise(), params)
    assert np.array_equal(out.mean, b.mean)
    assert out is b


def test_predict_splits_a_long_gap_into_equal_steps():
    b = hover_belief()
    b.mean[IDX_V] = (0.4, -0.2, 0.1)
    u = wrench(14.0, [0.002, -0.001, 0.0005])
    noise, params = ProcessNoise(), VehicleParams()
    out = predict(b, u, 0.25, noise, params)
    ref = b
    for _ in range(3):
        ref = predict(ref, u, 0.25 / 3, noise, params)
    assert np.array_equal(out.q_ref, ref.q_ref)
    assert np.array_equal(out.mean, ref.mean)
    assert np.array_equal(out.cov, ref.cov)


def test_predict_hover_fixed_point():
    # equilibrium mean with zero covariance and zero process noise is a
    # fixed point of the prediction
    b = hover_belief(cov=np.zeros((STATE_DIM, STATE_DIM)))
    out = predict(b, hover_wrench(), 0.02, zero_noise(), VehicleParams())
    assert np.allclose(out.mean, b.mean, atol=1e-9)
    assert np.allclose(out.cov, b.cov, atol=1e-9)
    assert np.allclose(out.q_ref, Q_ID, atol=1e-12)


def test_predict_wind_noise_grows_wind_block_only():
    b = hover_belief(cov=np.zeros((STATE_DIM, STATE_DIM)))
    noise = replace(zero_noise(), wind=0.5)
    dt = 0.02
    out = predict(b, hover_wrench(), dt, noise, VehicleParams())
    expected = np.zeros((STATE_DIM, STATE_DIM))
    expected[IDX_WIND, IDX_WIND] = 0.5 * dt * np.eye(3)
    assert np.allclose(out.cov, expected, atol=1e-10)


def assert_predict_matches_monte_carlo_mean(segments):
    """The mean of a predict of the segments' (wrench, dt) time-weighted
    mean command over their total length lies within 3 sigma / sqrt(n) of
    the mean of n samples, each pushed through one Euler step per segment
    with its wrench."""
    rng = np.random.default_rng(7)
    params = VehicleParams()
    q_ref = np.array(quat_from_axis_angle(0.35 * np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)))
    mean = np.zeros(STATE_DIM)
    mean[IDX_P] = (0.0, 0.0, 1.5)
    mean[IDX_V] = (0.3, -0.2, 0.1)
    mean[IDX_W] = (0.1, -0.05, 0.2)
    mean[IDX_F] = (0.2, 0.0, -0.1)
    mean[IDX_WIND] = (1.0, -0.5, 0.3)
    d = np.empty(STATE_DIM)
    d[IDX_P] = 0.01**2
    d[IDX_A] = 0.035**2
    d[IDX_V] = 0.05**2
    d[IDX_W] = 0.02**2
    d[IDX_F] = 0.3**2
    d[IDX_WIND] = 0.5**2
    cov = np.diag(d)
    belief = BeliefState(q_ref, mean, cov)

    dt = sum(h for _, h in segments)
    u = sum(u * h for u, h in segments) / dt
    out = predict(belief, u, dt, zero_noise(), params)

    n = 100_000
    x = rng.multivariate_normal(mean, cov, size=n)
    rows = x.T
    q = np.array(quat_multiply_rows(quat_from_mrp(rows[IDX_A]), q_ref))
    for u, dt in segments:
        y = rows.copy()
        q = vehicle.euler_step_arrays(rows, q, vehicle.wrench_terms(u, params), params, dt, y)
        rows = y
    samples = rows.T.copy()
    samples[:, IDX_A] = np.transpose(mrp_error(q, out.q_ref))

    mc_mean = samples.mean(axis=0)
    mc_std = samples.std(axis=0)
    assert np.all(np.abs(out.mean - mc_mean) <= 3.0 * mc_std / np.sqrt(n) + 1e-12)


def test_predict_matches_monte_carlo_mean():
    assert_predict_matches_monte_carlo_mean([(wrench(13.0, [0.001, -0.002, 0.0005]), 0.02)])


def test_two_segment_predict_matches_monte_carlo_mean():
    """One sigma draw carried through the mean of two commands: the
    second segment's wrench (2.5 N more thrust, another torque) moves
    the velocity by about 30 times the bound."""
    assert_predict_matches_monte_carlo_mean([
        (wrench(13.0, [0.001, -0.002, 0.0005]), 0.012),
        (wrench(15.5, [-0.002, 0.001, 0.001]), 0.008),
    ])


def ref_euler_step_arrays(p, v, q, w, thrust, torque, touch, v_wind, params, dt):
    """The filter's Euler step on the last axis, as it stood before rows,
    with the position term exact under constant acceleration and the
    attitude turned at the step's mean rate, which the one step per
    measurement interval takes."""
    qw, qx, qy, qz = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    body_z = np.stack(
        [2.0 * (qw * qy + qx * qz), 2.0 * (qy * qz - qw * qx), 1.0 - 2.0 * (qx * qx + qy * qy)], axis=-1
    )
    drag = vehicle.drag_force((v_wind - v).T, params).T
    gravity = np.array([0.0, 0.0, -params.gravity])
    v_dot = (thrust * body_z + drag + touch) / params.mass + gravity
    w_dot = (torque - np.cross(w, w @ params.inertia.T)) @ params.inertia_inv.T
    return (p + (v + 0.5 * v_dot * dt) * dt, v + v_dot * dt,
            ref_quat_integrate(q, w + 0.5 * w_dot * dt, dt), w + w_dot * dt)


def ref_predict(belief, u, dt, noise, params):
    """predict on last-axis sigma points, one kernel call per substep
    stage, as it stood before the attitude algebra moved to rows.  The
    predict on component rows that replaced it gave these bits exactly,
    so this is also the reference for the fused predict that followed."""
    n = int(np.ceil(dt / ukf.MAX_PREDICT_DT))
    if dt / n > ukf.MAX_PREDICT_DT:
        n += 1
    h = dt / n
    q_noise = np.diag(noise.density * h)
    for _ in range(n):
        pts, wm, wc = ref_sigma_points(belief.mean, belief.cov)
        p2, v2, q2, w2 = ref_euler_step_arrays(
            pts[:, IDX_P], pts[:, IDX_V], ref_compose_mrp(belief.q_ref, pts[:, IDX_A]),
            pts[:, IDX_W], u[0], u[1:], pts[:, IDX_F], pts[:, IDX_WIND], params, h,
        )
        q_ref = ref_quat_normalize(q2[0])
        out = np.empty_like(pts)
        out[:, IDX_P] = p2
        out[:, IDX_A] = ref_mrp_error(q2, q_ref)
        out[:, IDX_V] = v2
        out[:, IDX_W] = w2
        out[:, IDX_F] = pts[:, IDX_F]
        out[:, IDX_WIND] = pts[:, IDX_WIND]
        mean, cov = ref_reconstruct(out, wm, wc)
        cov += q_noise
        belief = BeliefState(q_ref, mean, cov)
    return belief


# largest difference from ref_predict, relative to the largest entry of
# the reference array; fixed before predict became one fused pass
PREDICT_REL_TOL = 1e-12


def test_predict_matches_reference_predict():
    """200 random beliefs, wrenches and vehicles (a third with a full
    inertia matrix, a tenth with zero thrust), steps of 5 ms and gaps that
    split into several Euler steps: within PREDICT_REL_TOL of the
    reference predict.  The fused pass forms its fixed-reference
    quaternion products, thrust direction and gyroscopic term as matrix
    products, which round differently from the reference's term by term
    formulas."""
    rng = np.random.default_rng(60)
    noise = ProcessNoise()
    for i in range(200):
        A = rng.normal(0.0, 0.1, (STATE_DIM, STATE_DIM))
        cov = A @ A.T + 1e-4 * np.eye(STATE_DIM)
        mean = rng.normal(0.0, 1.0, STATE_DIM)
        mean[IDX_A] *= 0.05
        q_ref = np.array(geometry.quat_normalize_rows(rng.normal(size=4)))
        belief = BeliefState(q_ref, mean, cov)
        thrust = 0.0 if i % 10 == 0 else float(rng.uniform(5.0, 20.0))
        u = wrench(thrust, rng.normal(0.0, 0.02, 3))
        inertia = np.diag(rng.uniform(0.01, 0.03, 3))
        if i % 3 == 0:
            inertia[0, 1] = inertia[1, 0] = rng.uniform(-1e-3, 1e-3)
            inertia[1, 2] = inertia[2, 1] = rng.uniform(-1e-3, 1e-3)
        params = VehicleParams(mass=float(rng.uniform(1.0, 2.0)), inertia=inertia)
        dt = (0.005, 0.0317, 0.35)[i % 3]
        got = predict(belief, u, dt, noise, params)
        ref = ref_predict(belief, u, dt, noise, params)
        for a, b in ((got.q_ref, ref.q_ref), (got.mean, ref.mean), (got.cov, ref.cov)):
            assert np.max(np.abs(a - b)) <= PREDICT_REL_TOL * np.max(np.abs(b))


def test_chained_predicts_keep_unit_attitudes():
    """10,000 chained 5 ms predicts of a tumbling vehicle: the reference
    is normalized on floats at each step and the sigma attitudes are
    products of unit quaternions that are not normalized again, so
    neither norm drifts.  |q_ref| - 1 and every sigma attitude's norm
    error stay within 1e-15 (measured 2.2e-16 and 4.4e-16)."""
    params = VehicleParams()
    mean = np.zeros(STATE_DIM)
    mean[IDX_P] = (0.0, 0.0, 1.5)
    mean[IDX_W] = (0.4, -0.3, 0.6)
    d = np.full(STATE_DIM, 0.25)
    d[0:6], d[6:12] = 1e-4, 1e-3
    rng = np.random.default_rng(61)
    q_ref = np.array(geometry.quat_normalize_rows(rng.normal(size=4)))
    b = BeliefState(q_ref, mean, np.diag(d))
    u = hover_wrench(params)
    noise = ProcessNoise()
    ref_err = att_err = 0.0
    for _ in range(10_000):
        b = predict(b, u, 0.005, noise, params)
        ref_err = max(ref_err, abs(np.sqrt(b.q_ref @ b.q_ref) - 1.0))
        q = ukf._attitudes(b.q_ref, geometry.sigma_points(b.mean, b.cov))
        att_err = max(att_err, np.max(np.abs(np.sqrt(np.add.reduce(q * q)) - 1.0)))
    assert ref_err <= 1e-15
    assert att_err <= 1e-15
    # the attitude spread has grown wide enough to exercise the whole chain
    assert np.sqrt(b.cov[IDX_A, IDX_A].diagonal()).min() > 0.1


# ---------------------------------------------------------------------------
# odometry update


def odo_row(p, q, v, w):
    """An odometry row in sim.ODO_COLUMNS order: [p, q, v, omega]."""
    return np.concatenate((p, q, v, w))


def odo_at(belief, dp=(0, 0, 0)):
    return odo_row(belief.mean[IDX_P] + np.asarray(dp, dtype=float), belief.attitude(),
                   belief.mean[IDX_V], belief.mean[IDX_W])


def test_update_odometry_at_mean():
    b = hover_belief()
    out, ok = update_odometry(b, odo_at(b), diag_odo_cov())
    assert ok
    assert np.allclose(out.mean, b.mean, atol=1e-12)
    assert np.trace(out.cov) <= np.trace(b.cov) + 1e-12
    # a consistent measurement strictly tightens the measured blocks
    assert np.trace(out.cov[0:12, 0:12]) < np.trace(b.cov[0:12, 0:12])


def test_update_odometry_uninformative_limit():
    b = hover_belief()
    z = odo_at(b, dp=(0.4, -0.2, 0.1))
    out, ok = update_odometry(b, z, diag_odo_cov() * 1e12)
    assert ok
    assert np.allclose(out.mean, b.mean, atol=1e-6)
    assert np.allclose(out.cov, b.cov, atol=1e-6)
    assert np.allclose(out.q_ref, b.q_ref, atol=1e-6)


def test_update_odometry_scalar_gain():
    # diagonal P and R decouple the linear update into scalar channels;
    # check x-position against the hand-computed gain
    b = hover_belief()
    P = b.cov[0, 0]
    R = 0.02
    innov = 0.3
    cov = diag_odo_cov()
    cov[0, 0] = R
    out, ok = update_odometry(b, odo_at(b, dp=(innov, 0, 0)), cov)
    assert ok
    k = P / (P + R)
    assert out.mean[0] == pytest.approx(b.mean[0] + k * innov, abs=1e-12)
    assert out.cov[0, 0] == pytest.approx((1.0 - k) * P, rel=1e-12)
    # untouched channels keep their prior mean
    assert np.allclose(out.mean[1:], b.mean[1:], atol=1e-12)


def test_update_odometry_is_the_joseph_form_multiplied_out():
    """On a full covariance the update's covariance is the Joseph form
    (I - K H) P (I - K H)^T + K R K^T with H = [I 0], formed with the
    explicit 18x18 matrices, to round-off."""
    rng = np.random.default_rng(7)
    a = rng.normal(size=(18, 18))
    r = rng.normal(size=(12, 12))
    b = replace(hover_belief(), cov=a @ a.T / 18.0 + 0.01 * np.eye(18))
    R = r @ r.T / 12.0 + 1e-3 * np.eye(12)
    out, ok = update_odometry(b, odo_at(b, dp=(0.02, -0.01, 0.03)), R)
    H = np.hstack([np.eye(12), np.zeros((12, 6))])
    K = b.cov @ H.T @ np.linalg.inv(H @ b.cov @ H.T + R)
    ikh = np.eye(18) - K @ H
    joseph = ikh @ b.cov @ ikh.T + K @ R @ K.T
    assert ok
    assert np.allclose(out.cov, 0.5 * (joseph + joseph.T), rtol=0.0, atol=1e-12 * np.abs(joseph).max())


def test_update_odometry_gate():
    b = hover_belief()
    far = odo_at(b, dp=(5.0, 0.0, 0.0))
    out, ok = update_odometry(b, far, diag_odo_cov(), gate=True)
    assert not ok
    assert np.array_equal(out.mean, b.mean)
    assert np.array_equal(out.cov, b.cov)
    near = odo_at(b, dp=(0.01, 0.0, 0.0))
    out, ok = update_odometry(b, near, diag_odo_cov(), gate=True)
    assert ok
    assert out.mean[0] != b.mean[0]


def test_update_folds_attitude_error_into_reference():
    b = hover_belief()
    rot = quat_from_axis_angle(np.array([0.0, 0.0, 0.05]))
    z = odo_row(b.mean[IDX_P], quat_multiply_rows(rot, b.q_ref), b.mean[IDX_V], b.mean[IDX_W])
    out, ok = update_odometry(b, z, diag_odo_cov())
    assert ok
    # the error mean is zeroed and the pulled-in rotation lives in q_ref
    assert np.allclose(out.mean[IDX_A], 0.0, atol=1e-15)
    assert not np.allclose(out.q_ref, b.q_ref, atol=1e-4)
    assert np.linalg.norm(out.q_ref) == pytest.approx(1.0, abs=1e-12)


def test_gate_thresholds_cached_per_dimension(monkeypatch):
    """gate_threshold computes one quantile per innovation dimension, and
    gated updates share it."""
    calls = []
    quantile = ukf.chi2_quantile

    def counting_quantile(p, dim):
        calls.append(dim)
        return quantile(p, dim)

    ukf.gate_threshold.cache_clear()
    monkeypatch.setattr(ukf, "chi2_quantile", counting_quantile)
    rng = np.random.default_rng(70)
    for dim in (3, 8, 12):
        A = rng.normal(size=(dim, dim))
        S = A @ A.T + dim * np.eye(dim)
        for _ in range(20):
            innov = rng.normal(size=dim) * rng.uniform(0.5, 2.5)
            d2 = innov @ np.linalg.solve(S, innov)
            assert ukf.gate_accepts(innov, S) == (d2 <= quantile(ukf.GATE_QUANTILE, dim))
    # gated filter updates share the cache
    b = hover_belief()
    for _ in range(5):
        update_odometry(b, odo_at(b, dp=(0.01, 0.0, 0.0)), diag_odo_cov(), gate=True)
        update_pseudo_airflow(b, np.zeros(3), 0.09, gate=True)
    assert sorted(calls) == [3, 8, 12]
    ukf.gate_threshold.cache_clear()


def test_chi2_quantile_closed_forms():
    """Two degrees of freedom have the closed form -2 ln(1 - p); at every
    dimension the survival function at the quantile is 1 - p, and the
    quantile is the smallest such double."""
    for p in (0.5, 0.9, 0.997, 0.9999):
        assert ukf.chi2_quantile(p, 2) == pytest.approx(-2.0 * np.log1p(-p), rel=4e-15)
    for dim in range(1, 25):
        x = ukf.chi2_quantile(ukf.GATE_QUANTILE, dim)
        assert ukf._chi2_sf(x, dim) <= 1.0 - ukf.GATE_QUANTILE < ukf._chi2_sf(np.nextafter(x, 0.0), dim)


def test_chi2_quantile_matches_scipy():
    """Within 1e-14 relative of scipy's chi2.ppf (measured 4.1e-15) over
    40 dimensions and six probabilities."""
    chi2 = pytest.importorskip("scipy.stats").chi2
    for dim in range(1, 41):
        for p in (0.5, 0.9, 0.95, 0.99, 0.997, 0.9999):
            assert ukf.chi2_quantile(p, dim) == pytest.approx(chi2.ppf(p, dim), rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# airflow update


def test_airflow_null_measurement_keeps_zero_wind():
    rig = default_rig()
    b = hover_belief()
    theta = np.zeros((len(rig), 2))
    out, ok = update_airflow(b, theta, 0.005**2, rig)
    assert ok
    assert np.allclose(out.mean[IDX_WIND], 0.0, atol=1e-9)
    wind_var = np.trace(out.cov[IDX_WIND, IDX_WIND])
    assert wind_var < np.trace(b.cov[IDX_WIND, IDX_WIND])


def test_airflow_wind_convergence():
    rig = default_rig()
    wind_true = np.array([2.0, 0.0, 0.0])
    theta = whisker.rig_predict(Q_ID, np.zeros(3), np.zeros(3), wind_true, rig)
    b = hover_belief()
    for _ in range(200):
        b, ok = update_airflow(b, theta, 0.005**2, rig)
        assert ok
    assert np.linalg.norm(b.mean[IDX_WIND] - wind_true) < 0.1


def test_airflow_blind_sensor_keeps_full_observability():
    # flow along a whisker spine leaves that sensor nearly mute; the
    # rest of the array still tightens the wind belief
    rig = default_rig()
    wind_true = np.array([0.0, 2.0, 0.0])  # along the guard spines
    theta = whisker.rig_predict(Q_ID, np.zeros(3), np.zeros(3), wind_true, rig)
    assert np.all(np.abs(theta[2]) < 1e-12)
    assert np.any(np.abs(theta[:2]) > 1e-3)
    b = hover_belief()
    out, ok = update_airflow(b, theta, 0.005**2, rig)
    assert ok
    assert np.trace(out.cov[IDX_WIND, IDX_WIND]) < np.trace(b.cov[IDX_WIND, IDX_WIND])
    for _ in range(199):
        out, _ = update_airflow(out, theta, 0.005**2, rig)
    assert np.linalg.norm(out.mean[IDX_WIND] - wind_true) < 0.1


def test_airflow_invalid_rows_match_subrig_update():
    rig = default_rig()
    wind_true = np.array([1.5, -0.8, 0.2])
    theta = whisker.rig_predict(Q_ID, np.zeros(3), np.zeros(3), wind_true, rig)
    theta_nan = theta.copy()
    theta_nan[2, 0] = np.nan
    b = hover_belief()
    full, ok = update_airflow(b, theta_nan, 0.005**2, rig)
    assert ok
    keep = [0, 1, 3]
    sub = WhiskerRig([rig.mounts[i] for i in keep])
    ref, ok2 = update_airflow(b, theta[keep], 0.005**2, sub)
    assert ok2
    assert np.allclose(full.mean, ref.mean, atol=1e-12)
    assert np.allclose(full.cov, ref.cov, atol=1e-12)


def test_airflow_all_invalid_is_a_noop():
    rig = default_rig()
    b = hover_belief()
    out, ok = update_airflow(b, np.full((len(rig), 2), np.nan), 0.005**2, rig)
    assert not ok
    assert out is b


def test_airflow_shape_check():
    rig = default_rig()
    with pytest.raises(ValueError):
        update_airflow(hover_belief(), np.zeros((2, 2)), 0.005**2, rig)


# ---------------------------------------------------------------------------
# pseudo-measurement update


def test_pseudo_consistent_measurement_keeps_mean():
    b = hover_belief(wind=(1.0, -0.5, 0.2))
    # with no attitude spread the measurement map is linear over the
    # belief and a consistent reading is an exact fixed point
    b.cov[IDX_A, IDX_A] = np.zeros((3, 3))
    v_inf_b = b.mean[IDX_WIND] - b.mean[IDX_V]  # identity attitude
    out, ok = update_pseudo_airflow(b, v_inf_b, 0.05**2)
    assert ok
    assert np.allclose(out.mean, b.mean, atol=1e-9)
    assert np.trace(out.cov) <= np.trace(b.cov)


def test_pseudo_consistent_measurement_attitude_spread_shift():
    # attitude uncertainty biases the predicted reading at second order;
    # the resulting mean shift stays on that scale
    b = hover_belief(wind=(1.0, -0.5, 0.2))
    v_inf_b = b.mean[IDX_WIND] - b.mean[IDX_V]
    out, ok = update_pseudo_airflow(b, v_inf_b, 0.05**2)
    assert ok
    shift = np.linalg.norm(out.mean[IDX_WIND] - b.mean[IDX_WIND])
    sigma_att_sq = b.cov[3, 3]
    assert shift < 10.0 * sigma_att_sq * np.linalg.norm(v_inf_b)


def test_pseudo_wind_convergence():
    b = hover_belief()
    target = np.array([-3.0, 0.0, 0.0])
    for _ in range(200):
        b, ok = update_pseudo_airflow(b, target, 0.05**2)
        assert ok
    assert np.linalg.norm(b.mean[IDX_WIND] - target) < 0.1


def test_pseudo_update_is_the_kalman_step_of_the_unscented_transform():
    """update_pseudo_airflow forms its statistics with geometry's transform."""
    rng = np.random.default_rng(12)
    A = rng.normal(0.0, 0.1, (STATE_DIM, STATE_DIM))
    mean = rng.normal(0.0, 0.5, STATE_DIM)
    cov = A @ A.T + 0.01 * np.eye(STATE_DIM)
    b = BeliefState(np.array(quat_from_axis_angle(rng.normal(size=3))), mean, cov)
    z, r_var = rng.normal(size=3), 0.05**2

    def h(x):
        q = geometry.quat_right_matrix(b.q_ref) @ quat_from_mrp(x[IDX_A])
        return whisker.body_airflow(q, x[IDX_WIND], x[IDX_V])

    y, cov_y, cross = geometry.unscented_transform(b.mean, b.cov, h)
    S = cov_y + r_var * np.eye(3)
    K = np.linalg.solve(S.T, cross.T).T
    m = b.mean + K @ (z - y)
    P = b.cov - K @ S @ K.T
    q_ref = np.array(geometry.compose_mrp(b.q_ref, m[IDX_A]))
    m[IDX_A] = 0.0

    out, ok = update_pseudo_airflow(b, z, r_var)
    assert ok
    assert np.array_equal(out.mean, m)
    assert np.array_equal(out.cov, 0.5 * (P + P.T))
    assert np.array_equal(out.q_ref, q_ref)


def test_pseudo_update_respects_attitude_frame():
    # the same body-frame reading under a 90 degree yaw pins the wind on
    # a different world axis
    yaw90 = np.array(quat_from_axis_angle(np.array([0.0, 0.0, np.pi / 2.0])))
    mean = np.zeros(STATE_DIM)
    mean[IDX_P] = (0.0, 0.0, 1.5)
    b = BeliefState(yaw90, mean, hover_belief().cov)
    for _ in range(200):
        b, _ = update_pseudo_airflow(b, np.array([-3.0, 0.0, 0.0]), 0.05**2)
    expected = quat_to_matrix(yaw90) @ np.array([-3.0, 0.0, 0.0])
    assert np.allclose(expected, [0.0, -3.0, 0.0], atol=1e-9)
    assert np.linalg.norm(b.mean[IDX_WIND] - expected) < 0.1


# ---------------------------------------------------------------------------
# outputs


def test_output_still_air():
    row = output(hover_belief(), VehicleParams())
    assert row.shape == (len(logio.ESTIMATE_COLUMNS),)
    assert np.allclose(row[logio.DRAG_COLS], 0.0)
    assert np.allclose(row[logio.VINF_COLS], 0.0)
    assert np.allclose(row[logio.WIND_COLS], 0.0)


def test_output_drag_magnitude():
    b = hover_belief(wind=(3.6, 0.0, 0.0))
    drag = output(b, VehicleParams())[logio.DRAG_COLS]
    assert np.linalg.norm(drag) == pytest.approx(1.6272, abs=1e-9)
    # drag is parallel to the world-frame relative airflow
    v_inf_w = b.mean[IDX_WIND] - b.mean[IDX_V]
    cross = np.cross(drag, v_inf_w)
    assert np.allclose(cross, 0.0, atol=1e-12)


def test_output_touch_passthrough():
    b = hover_belief()
    b.mean[IDX_F] = (0.5, -1.0, 2.0)
    row = output(b, VehicleParams())
    assert np.array_equal(row[logio.TOUCH_COLS], [0.5, -1.0, 2.0])


def test_output_body_frame_airflow():
    yaw90 = np.array(quat_from_axis_angle(np.array([0.0, 0.0, np.pi / 2.0])))
    mean = np.zeros(STATE_DIM)
    mean[IDX_V] = (1.0, 0.0, 0.0)
    mean[IDX_WIND] = (3.0, 0.0, 0.0)
    b = BeliefState(yaw90, mean, np.eye(STATE_DIM))
    v_inf_body = output(b, VehicleParams())[logio.VINF_COLS]
    R = quat_to_matrix(yaw90)
    assert np.allclose(v_inf_body, R.T @ np.array([2.0, 0.0, 0.0]), atol=1e-12)


# ---------------------------------------------------------------------------
# the measurement side against its last-axis references
#
# The references are the whisker updates, the posterior fold and the
# estimate row as they stood on the (37, 18) last-axis sigma set: the
# attitudes by compose_mrp on rows, the references' last-axis whisker
# kernels, the transform with its weights passed along.  The block
# updates form the attitudes, the body airflow and the mounts' airflow
# as matrix products, which round differently in the last bits.

# largest difference from the references, relative to the largest entry
# of the reference array; fixed before the updates moved to blocks
UPDATE_REL_TOL = 1e-12


def ref_posterior(belief, mean, cov):
    q_ref = belief.q_ref
    e = mean[IDX_A]
    if e @ e > 0.0:
        q_ref = ref_compose_mrp(q_ref, e)
        mean[IDX_A] = 0.0
    return BeliefState(q_ref, mean, 0.5 * (cov + cov.T))


def ref_ut_update(belief, z, r_cov, h_batch):
    y_mean, cov_y, cross = ref_unscented_transform(belief.mean, belief.cov, h_batch)
    S = cov_y + r_cov
    K = np.linalg.solve(S.T, cross.T).T
    return ref_posterior(belief, belief.mean + K @ (z - y_mean), belief.cov - K @ S @ K.T)


def ref_update_airflow(belief, theta, r_sigma, rig):
    valid = np.all(np.isfinite(theta), axis=1)
    if not np.any(valid):
        return belief
    z = theta[valid].ravel()

    def h_batch(pts):
        q = ref_compose_mrp(belief.q_ref, pts[:, IDX_A])
        pred = ref_rig_predict(q, pts[:, IDX_V], pts[:, IDX_W], pts[:, IDX_WIND], rig, valid)
        return pred.reshape(pts.shape[0], -1)

    return ref_ut_update(belief, z, r_sigma**2 * np.eye(z.shape[0]), h_batch)


def ref_update_pseudo_airflow(belief, v_inf_body, r_var):
    def h_batch(pts):
        q = ref_compose_mrp(belief.q_ref, pts[:, IDX_A])
        return ref_body_airflow(q, pts[:, IDX_WIND], pts[:, IDX_V])

    return ref_ut_update(belief, v_inf_body, r_var * np.eye(3), h_batch)


def ref_output(belief, params):
    wind, v = belief.mean[IDX_WIND], belief.mean[IDX_V]
    row = np.empty(len(logio.ESTIMATE_COLUMNS))
    row[logio.TOUCH_COLS] = belief.mean[IDX_F]
    row[logio.WIND_COLS] = wind
    row[logio.VINF_COLS] = ref_body_airflow(ref_compose_mrp(belief.q_ref, belief.mean[IDX_A]), wind, v)
    row[logio.DRAG_COLS] = vehicle.drag_force(wind - v, params)
    return row


def assert_belief_within_tol(got, ref):
    for a, b in ((got.q_ref, ref.q_ref), (got.mean, ref.mean), (got.cov, ref.cov)):
        assert np.max(np.abs(a - b)) <= UPDATE_REL_TOL * np.max(np.abs(b))


def random_belief(rng):
    A = rng.normal(0.0, 0.1, (STATE_DIM, STATE_DIM))
    mean = rng.normal(0.0, 1.0, STATE_DIM)
    mean[IDX_A] *= 0.05
    q_ref = geometry.quat_normalize_rows(rng.normal(size=4))
    return BeliefState(q_ref, mean, A @ A.T + 1e-4 * np.eye(STATE_DIM))


def test_measurement_side_matches_reference_updates():
    """200 random beliefs: each whisker update (every fifth with one
    sensor invalid, every twentieth with all invalid), pseudo update and
    estimate row within UPDATE_REL_TOL of the references."""
    rng = np.random.default_rng(61)
    rig = default_rig()
    params = VehicleParams()
    for i in range(200):
        b = random_belief(rng)
        x = b.mean + rng.multivariate_normal(np.zeros(STATE_DIM), b.cov)
        q_true = geometry.compose_mrp(b.q_ref, x[IDX_A])
        theta = whisker.rig_predict(q_true, x[IDX_V], x[IDX_W], x[IDX_WIND], rig)
        theta = theta + rng.normal(0.0, 0.005, theta.shape)
        if i % 20 == 0:
            theta[:] = np.nan
        elif i % 5 == 0:
            theta[rng.integers(len(rig)), rng.integers(2)] = np.nan
        got, ok = update_airflow(b, theta, 0.005**2, rig)
        ref = ref_update_airflow(b, theta, 0.005, rig)
        assert ok == (i % 20 != 0)
        if not ok:
            assert got is b and ref is b
        else:
            assert_belief_within_tol(got, ref)

        z = whisker.body_airflow(q_true, x[IDX_WIND], x[IDX_V]) + rng.normal(0.0, 0.3, 3)
        got, ok = update_pseudo_airflow(b, z, 0.3**2)
        assert ok
        assert_belief_within_tol(got, ref_update_pseudo_airflow(b, z, 0.3**2))

        row, ref_row = output(b, params), ref_output(b, params)
        assert np.max(np.abs(row - ref_row)) <= UPDATE_REL_TOL * np.max(np.abs(ref_row))


def test_init_belief_blocks():
    z = odo_row([1.0, 2.0, 3.0], Q_ID, [0.1, 0.2, 0.3], [0.0, 0.0, 0.1])
    b = init_belief(z, diag_odo_cov(), sigma_touch=2.0, sigma_wind=2.0)
    assert np.array_equal(b.q_ref, Q_ID)
    assert np.array_equal(b.mean[IDX_P], [1.0, 2.0, 3.0])
    assert np.array_equal(b.mean[IDX_V], [0.1, 0.2, 0.3])
    assert np.array_equal(b.mean[IDX_W], [0.0, 0.0, 0.1])
    assert np.allclose(b.mean[IDX_F], 0.0)
    assert np.allclose(b.cov[0:12, 0:12], diag_odo_cov())
    assert np.allclose(b.cov[IDX_F, IDX_F], 4.0 * np.eye(3))
    assert np.allclose(b.cov[IDX_WIND, IDX_WIND], 4.0 * np.eye(3))


# ---------------------------------------------------------------------------
# numerical health across randomized runs


def _assert_healthy(b):
    asym = np.abs(b.cov - b.cov.T).max()
    assert asym < 1e-9
    assert np.linalg.eigvalsh(b.cov).min() > -1e-9
    assert abs(np.linalg.norm(b.q_ref) - 1.0) < 1e-9


def test_randomized_steps_stay_numerically_sound():
    rng = np.random.default_rng(42)
    params = VehicleParams()
    rig = default_rig()
    noise = ProcessNoise()
    b = hover_belief()
    for k in range(600):
        u = wrench(rng.uniform(0.0, 20.0), rng.uniform(-0.05, 0.05, 3))
        b = predict(b, u, rng.uniform(0.002, 0.02), noise, params)
        _assert_healthy(b)
        if k % 3 == 0:
            q = quat_multiply_rows(quat_from_axis_angle(rng.normal(0.0, 0.01, 3)), b.attitude())
            z = odo_row(
                b.mean[IDX_P] + rng.normal(0.0, 0.05, 3), q,
                b.mean[IDX_V] + rng.normal(0.0, 0.05, 3),
                b.mean[IDX_W] + rng.normal(0.0, 0.02, 3),
            )
            b, _ = update_odometry(b, z, diag_odo_cov())
            _assert_healthy(b)
        if k % 5 == 0:
            theta = rng.uniform(-0.2, 0.2, (len(rig), 2))
            if k % 15 == 0:
                theta[rng.integers(0, len(rig))] = np.nan
            b, _ = update_airflow(b, theta, 0.005**2, rig)
            _assert_healthy(b)
        if k % 7 == 0:
            b, _ = update_pseudo_airflow(b, rng.uniform(-4.0, 4.0, 3), 0.05**2)
            _assert_healthy(b)


def test_trace_never_increases_on_consistent_updates():
    b = hover_belief()
    for _ in range(5):
        tr0 = np.trace(b.cov)
        b, _ = update_odometry(b, odo_at(b), diag_odo_cov())
        assert np.trace(b.cov) <= tr0 + 1e-12
        tr0 = np.trace(b.cov)
        b, _ = update_pseudo_airflow(b, b.mean[IDX_WIND] - b.mean[IDX_V], 0.05**2)
        assert np.trace(b.cov) <= tr0 + 1e-12


# ---------------------------------------------------------------------------
# statistical consistency


def test_nees_consistency_band():
    """Average normalized estimation error over matched Monte-Carlo runs.

    Truth follows the filter's own discrete model with matched process
    noise, so the expected NEES is the state dimension; asserted with a
    wide band.
    """
    params = VehicleParams()
    rig = default_rig()
    noise = ProcessNoise()
    dt = 0.01
    steps = 100
    runs = 40
    sig_theta = 0.005
    odo_cov = diag_odo_cov()
    u = hover_wrench(params)
    wrench = vehicle.wrench_terms(u, params)

    d0 = np.empty(STATE_DIM)
    d0[IDX_P] = 0.01**2
    d0[IDX_A] = 0.005**2
    d0[IDX_V] = 0.02**2
    d0[IDX_W] = 0.005**2
    d0[IDX_F] = 0.25
    d0[IDX_WIND] = 0.25
    P0 = np.diag(d0)
    mean0 = np.zeros(STATE_DIM)
    mean0[IDX_P] = (0.0, 0.0, 1.5)

    step_sigma = np.sqrt(noise.density * dt)
    nees = []
    for run in range(runs):
        rng = np.random.default_rng(1000 + run)
        x = mean0 + rng.multivariate_normal(np.zeros(STATE_DIM), P0)
        q_true = np.array(quat_multiply_rows(quat_from_mrp(x[IDX_A]), Q_ID))
        x[IDX_A] = 0.0
        b = BeliefState(Q_ID.copy(), mean0.copy(), P0.copy())
        for k in range(steps):
            b = predict(b, u, dt, noise, params)
            y = np.empty((STATE_DIM, 1))
            q2 = vehicle.euler_step_arrays(x[:, None], q_true[:, None], wrench, params, dt, y)
            x[IDX_P], x[IDX_V], x[IDX_W] = y[IDX_P, 0], y[IDX_V, 0], y[IDX_W, 0]
            q_true = q2[:, 0]
            wiggle = rng.normal(0.0, 1.0, STATE_DIM) * step_sigma
            q_true = np.array(quat_multiply_rows(quat_from_axis_angle(wiggle[IDX_A]), q_true))
            wiggle[IDX_A] = 0.0
            x = x + wiggle
            if k % 2 == 0:
                z = odo_row(
                    x[IDX_P] + rng.normal(0.0, 0.01, 3),
                    quat_multiply_rows(quat_from_axis_angle(rng.normal(0.0, 0.005, 3)), q_true),
                    x[IDX_V] + rng.normal(0.0, 0.02, 3),
                    x[IDX_W] + rng.normal(0.0, 0.005, 3),
                )
                b, _ = update_odometry(b, z, odo_cov)
            if k % 4 == 0:
                theta = whisker.rig_predict(q_true, x[IDX_V], x[IDX_W], x[IDX_WIND], rig)
                theta = theta + rng.normal(0.0, sig_theta, theta.shape)
                b, _ = update_airflow(b, theta, sig_theta**2, rig)
        err = x - b.mean
        err[IDX_A] = mrp_error(q_true, b.q_ref) - b.mean[IDX_A]
        nees.append(err @ np.linalg.solve(b.cov, err))
    avg = float(np.mean(nees))
    assert 0.5 * STATE_DIM < avg < 2.0 * STATE_DIM
