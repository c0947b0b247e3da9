"""Quaternion/MRP algebra, the unscented machinery and the direct LAPACK calls."""

import warnings

import numpy as np
import pytest

from windest import geometry as geo
from windest.geometry import (
    CovarianceError,
    compose_mrp,
    mrp_error,
    mrp_from_quat,
    quat_from_axis_angle,
    quat_from_mrp,
    quat_integrate,
    quat_multiply_rows,
    quat_normalize_rows,
    quat_to_matrix,
    reconstruct,
    rotation_transposed,
    sigma_points,
    unscented_transform,
)

QI = np.array([1.0, 0.0, 0.0, 0.0])


def random_quats(rng, n):
    q = rng.normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


# --------------------------------------------------------------------------
# quaternions


def rotation(q):
    """R(q) from the quadratic form, for (4,) or (4, m)."""
    return np.swapaxes(rotation_transposed(q), 0, 1)


def test_rotate_identity():
    assert np.array_equal(rotation_transposed(QI), np.eye(3))
    assert np.array_equal(rotation(QI) @ np.array([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_rotate_quarter_yaw():
    s = np.sqrt(0.5)
    q = np.array([s, 0.0, 0.0, s])
    assert np.allclose(rotation(q) @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)


def test_rotate_matches_matrix_path():
    rng = np.random.default_rng(3)
    for q in random_quats(rng, 100):
        v = rng.normal(size=3)
        assert np.allclose(rotation(q), quat_to_matrix(q), atol=1e-15)
        assert np.allclose(rotation(q) @ v, quat_to_matrix(q) @ v, atol=1e-12)


def test_rotate_broadcasts():
    rng = np.random.default_rng(4)
    q = random_quats(rng, 12)
    out = rotation_transposed(q.T)
    assert out.shape == (3, 3, 12)
    for i in range(12):
        assert np.allclose(out[:, :, i], quat_to_matrix(q[i]).T, atol=1e-15)
        assert np.allclose(out[:, :, i], rotation_transposed(q[i]), atol=1e-15)


def test_rotation_form_third_column_is_body_z():
    """Rows 6:9 of the form, which the filter's thrust direction reads, are
    R's third column: (2 (w y + x z), 2 (y z - w x), w^2 - x^2 - y^2 + z^2)."""
    rng = np.random.default_rng(15)
    q = random_quats(rng, 20).T
    w, x, y, z = q
    qq = (q[:, None] * q).reshape(16, -1)
    body_z = np.array([2 * (w * y + x * z), 2 * (y * z - w * x), w * w - x * x - y * y + z * z])
    assert np.allclose(geo.ROTATION_FORM[6:] @ qq, body_z, atol=1e-15)
    assert np.array_equal(geo.ROTATION_FORM[6:] @ qq, rotation_transposed(q)[2])
    assert set(np.unique(geo.ROTATION_FORM)) == {-1.0, 0.0, 1.0}


def test_multiply_composes_rotations():
    rng = np.random.default_rng(5)
    for _ in range(50):
        qa, qb = random_quats(rng, 2)
        v = rng.normal(size=3)
        a_then_b = rotation(np.array(quat_multiply_rows(qa, qb))) @ v
        assert np.allclose(a_then_b, rotation(qa) @ (rotation(qb) @ v), atol=1e-12)


def test_conjugate_inverts():
    rng = np.random.default_rng(6)
    for q in random_quats(rng, 30):
        v = rng.normal(size=3)
        conjugate = q * [1.0, -1.0, -1.0, -1.0]
        assert np.allclose(rotation(conjugate), rotation_transposed(q), atol=1e-15)
        back = rotation_transposed(q) @ (rotation(q) @ v)
        assert np.allclose(back, v, atol=1e-12)


def test_norm_preserved_by_operations():
    rng = np.random.default_rng(7)
    for qa, qb in zip(random_quats(rng, 40), random_quats(rng, 40)):
        assert abs(np.linalg.norm(quat_multiply_rows(qa, qb)) - 1.0) < 1e-9
        assert abs(np.linalg.norm(quat_integrate(qa, rng.normal(size=3), 0.01)) - 1.0) < 1e-9
        assert abs(np.linalg.norm(quat_from_mrp(mrp_from_quat(qa))) - 1.0) < 1e-9


def test_matrix_round_trip():
    rng = np.random.default_rng(8)
    for q in random_quats(rng, 60):
        R = quat_to_matrix(q)
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(R), 1.0)


def test_axis_angle_basics():
    assert np.allclose(quat_from_axis_angle(np.array([0.0, 0.0, 0.0])), QI)
    q = quat_from_axis_angle(np.array([0.0, 0.0, np.pi / 2]))
    assert np.allclose(q, [np.sqrt(0.5), 0.0, 0.0, np.sqrt(0.5)])


def test_axis_angle_tiny_rotation_stable():
    # sin(half) / angle must not lose the direction for angles near the fp floor
    q = quat_from_axis_angle(np.array([1e-12, 0.0, 0.0]))
    assert abs(np.linalg.norm(q) - 1.0) < 1e-15
    assert q[1] == pytest.approx(0.5e-12, rel=1e-6)


def test_axis_angle_zero_rate_is_exact():
    """A zero rotation vector, alone or in a batch, is the identity with
    no NaN."""
    assert_same_bits(quat_from_axis_angle(np.zeros(3)), QI)
    phi = np.zeros((3, 4))
    phi[:, 1] = (0.1, -0.2, 0.3)
    q = np.array(quat_from_axis_angle(phi))
    assert np.all(np.isfinite(q))
    assert np.array_equal(q[:, [0, 2, 3]], np.tile(QI[:, None], (1, 3)))


def sinc_quat_from_axis_angle(phi):
    """The exponential map as written with np.sinc, before ufuncs alone."""
    half = 0.5 * np.linalg.norm(phi, axis=-1, keepdims=True)
    k = 0.5 * np.sinc(half / np.pi)
    return np.concatenate([np.cos(half), k * phi], axis=-1)


def test_axis_angle_matches_the_sinc_form():
    """sin(half) / angle and np.sinc's sin(pi x) / (pi x) at x = half / pi
    differ only where pi * (half / pi) does not round back to half: by at
    most 1.7e-15 on rotation vectors over nine decades."""
    rng = np.random.default_rng(11)
    phi = rng.normal(size=(20000, 3)) * 10.0 ** rng.uniform(-8.0, 1.0, size=(20000, 1))
    got = last_axis(quat_from_axis_angle(phi.T))
    assert np.max(np.abs(got - sinc_quat_from_axis_angle(phi))) <= 4e-15


def test_integrate_zero_rate():
    rng = np.random.default_rng(9)
    for q in random_quats(rng, 10):
        assert np.allclose(quat_integrate(q, np.zeros(3), 0.37), q)


def test_integrate_quarter_turn():
    q = quat_integrate(QI, np.array([0.0, 0.0, np.pi / 2]), 1.0)
    assert np.allclose(q, [np.sqrt(0.5), 0.0, 0.0, np.sqrt(0.5)], atol=1e-12)


def test_integrate_two_half_steps():
    rng = np.random.default_rng(10)
    for q in random_quats(rng, 20):
        w = rng.normal(size=3)
        full = quat_integrate(q, w, 0.08)
        half = quat_integrate(quat_integrate(q, w, 0.04), w, 0.04)
        assert np.allclose(full, half, atol=1e-12)


# each component of a (x) b for unit a and b is a sum of four products whose
# magnitudes sum to at most |a| |b| = 1, so any two summation orders agree to
# within 2 * 4 eps (4 eps each from the exact sum); measured: 1 eps
INTEGRATE_ROWS_TOL = 8.0 * np.finfo(float).eps


@pytest.mark.parametrize("seed", range(3))
def test_block_integrate_matches_the_row_product(seed):
    """quat_integrate's (4, 16) form against quat_multiply_rows with
    quat_from_axis_angle on random (4, m) blocks: rates over nine decades,
    steps from 1 ms to 1 s, and zero rates, which return q exactly."""
    rng = np.random.default_rng(70 + seed)
    for m in (1, 37, 400):
        q = random_quats(rng, m).T
        w = rng.normal(size=(3, m)) * 10.0 ** rng.uniform(-6.0, 1.5, size=m)
        w[:, : m // 4] = 0.0
        for dt in (0.001, 0.005, 0.1, 1.0):
            got = quat_integrate(q, w, dt)
            assert type(got) is np.ndarray and got.shape == (4, m)
            rows = np.array(quat_multiply_rows(q, quat_from_axis_angle(w * dt)))
            assert np.max(np.abs(got - rows)) <= INTEGRATE_ROWS_TOL
            assert np.array_equal(got[:, : m // 4], q[:, : m // 4])
    # one (4,) quaternion and (3,) rate
    for q, w in zip(random_quats(rng, 20), rng.normal(size=(20, 3))):
        got = quat_integrate(q, w, 0.01)
        assert got.shape == (4,)
        rows = np.array(quat_multiply_rows(q, quat_from_axis_angle(w * 0.01)))
        assert np.max(np.abs(got - rows)) <= INTEGRATE_ROWS_TOL


# --------------------------------------------------------------------------
# the quaternion product against the np.cross formula


def np_cross_multiply(a, b):
    """The Hamilton product as written with np.cross and np.sum."""
    aw, av = a[..., :1], a[..., 1:]
    bw, bv = b[..., :1], b[..., 1:]
    w = aw * bw - np.sum(av * bv, axis=-1, keepdims=True)
    return np.concatenate([w, aw * bv + bw * av + np.cross(av, bv)], axis=-1)


def test_multiply_matches_np_cross_formula_bitwise():
    rng = np.random.default_rng(13)
    a, b = random_quats(rng, 30), random_quats(rng, 30)
    assert_same_bits(quat_multiply_rows(a.T, b.T), np_cross_multiply(a, b))
    assert_same_bits(quat_multiply_rows(a[0], b.T), np_cross_multiply(a[0], b))
    assert_same_bits(quat_multiply_rows(a.T, b[0]), np_cross_multiply(a, b[0]))
    assert_same_bits(quat_multiply_rows(a[0], b[0]), np_cross_multiply(a[0], b[0]))


def test_normalize_rejects_zero_in_batch():
    q = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="zero quaternion"):
        quat_normalize_rows(q.T)


# --------------------------------------------------------------------------
# modified Rodrigues parameters


def test_mrp_zero_is_identity():
    assert np.allclose(quat_from_mrp(np.zeros(3)), QI)
    assert np.allclose(mrp_from_quat(QI), np.zeros(3))


def test_mrp_round_trip():
    rng = np.random.default_rng(11)
    for q in random_quats(rng, 100):
        p = mrp_from_quat(q)
        q2 = quat_from_mrp(p)
        assert min(np.linalg.norm(q2 - q), np.linalg.norm(q2 + q)) < 1e-9


def test_mrp_shadow_set_bounded():
    # the shadow switch keeps |p| <= f (180 degree rotation maps to f)
    rng = np.random.default_rng(12)
    for q in random_quats(rng, 200):
        assert np.linalg.norm(mrp_from_quat(q)) <= geo.MRP_F + 1e-9
    q_pi = quat_from_axis_angle(np.array([np.pi, 0.0, 0.0]))
    assert np.linalg.norm(mrp_from_quat(q_pi)) == pytest.approx(geo.MRP_F)


def test_mrp_error_zero():
    rng = np.random.default_rng(13)
    for q in random_quats(rng, 10):
        assert np.allclose(mrp_error(q, q), np.zeros(3), atol=1e-12)


def test_mrp_error_small_angle():
    """With the 2(a+1) scale the error vector approximates the rotation
    angle itself to first order."""
    q_ref = np.array(quat_normalize_rows(np.array([0.9, 0.1, -0.3, 0.2])))
    for delta in (1e-3, 1e-5):
        q = quat_multiply_rows(quat_from_axis_angle(np.array([delta, 0.0, 0.0])), q_ref)
        e = mrp_error(q, q_ref)
        assert e[0] == pytest.approx(delta, rel=1e-4)
        assert abs(e[1]) < 1e-12 and abs(e[2]) < 1e-12


def test_mrp_error_round_trip():
    rng = np.random.default_rng(14)
    for qa, qb in zip(random_quats(rng, 50), random_quats(rng, 50)):
        q2 = compose_mrp(qb, mrp_error(qa, qb))
        assert min(np.linalg.norm(q2 - qa), np.linalg.norm(q2 + qa)) < 1e-9


# --------------------------------------------------------------------------
# the filter's row kernels against the last-axis formulas they replaced
#
# The reference forms below are the quaternion product, normalization
# and the filter's attitude functions as they stood on the last axis;
# every row kernel must give their bits, on a sigma batch and on one
# quaternion.


def ref_quat_multiply(a, b):
    aw, av = a[..., :1], a[..., 1:]
    bw, bv = b[..., :1], b[..., 1:]
    w = a[..., 0] * b[..., 0] - np.sum(av * bv, axis=-1)
    out = np.empty(w.shape + (4,))
    out[..., 0] = w
    out[..., 1:] = aw * bv + bw * av + np.cross(av, bv)
    return out


def ref_quat_normalize(q):
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def ref_quat_from_mrp(p):
    n2 = np.sum(p * p, axis=-1, keepdims=True)
    f2 = geo.MRP_F * geo.MRP_F
    w = (f2 - n2) / (f2 + n2)
    return np.concatenate([w, (geo.MRP_A + w) * p / geo.MRP_F], axis=-1)


def ref_mrp_from_quat(dq):
    flip = dq[..., :1] < 0.0
    dq = np.where(flip, -dq, dq)
    return geo.MRP_F * dq[..., 1:] / (geo.MRP_A + dq[..., :1])


def ref_mrp_error(q, q_ref):
    return ref_mrp_from_quat(ref_quat_multiply(q, q_ref * [1.0, -1.0, -1.0, -1.0]))


def ref_compose_mrp(q_ref, e):
    return ref_quat_normalize(ref_quat_multiply(ref_quat_from_mrp(e), q_ref))


def ref_quat_from_axis_angle(phi):
    angle = np.linalg.norm(phi, axis=-1, keepdims=True)
    half = 0.5 * angle
    k = np.sin(half) / np.maximum(angle, np.finfo(float).smallest_subnormal)
    return np.concatenate([np.cos(half), k * phi], axis=-1)


def ref_quat_integrate(q, omega, dt):
    return ref_quat_multiply(q, ref_quat_from_axis_angle(omega * dt))


def last_axis(rows):
    """Component rows (a tuple of (m,) rows or scalars) stacked on the last axis."""
    return np.stack(np.broadcast_arrays(*rows), axis=-1)


def assert_same_bits(rows, ref):
    got = last_axis(rows)
    assert got.shape == ref.shape
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def row_batch(rng, m):
    """Quaternions (about half with w < 0), error parameters over eight
    decades, rates and a reference, as last-axis arrays."""
    q = random_quats(rng, m)
    e = rng.normal(size=(m, 3)) * 10.0 ** rng.uniform(-6.0, 0.5, size=(m, 1))
    return q, e, rng.normal(size=(m, 3)), random_quats(rng, 1)[0]


@pytest.mark.parametrize("seed", range(5))
def test_row_kernels_match_last_axis_batches_bitwise(seed):
    rng = np.random.default_rng(40 + seed)
    q, e, _, q_ref = row_batch(rng, 37)
    q2 = random_quats(rng, 37)
    assert (q[:, 0] < 0.0).any() and (q[:, 0] > 0.0).any()
    assert_same_bits(quat_multiply_rows(q.T, q2.T), ref_quat_multiply(q, q2))
    assert_same_bits(quat_multiply_rows(q.T, q_ref), ref_quat_multiply(q, q_ref))
    assert_same_bits(quat_normalize_rows(3.0 * q.T), ref_quat_normalize(3.0 * q))
    assert_same_bits(quat_from_mrp(e.T), ref_quat_from_mrp(e))
    assert_same_bits(mrp_from_quat(q.T), ref_mrp_from_quat(q))
    assert_same_bits(mrp_error(q.T, q_ref), ref_mrp_error(q, q_ref))
    assert_same_bits(compose_mrp(q_ref, e.T), ref_compose_mrp(q_ref, e))
    # rows read as views of a transposed (m, k) array, as the filter reads them
    pts = np.concatenate([q, e], axis=1)
    assert_same_bits(compose_mrp(q_ref, pts.T[4:7]), ref_compose_mrp(q_ref, e))
    assert_same_bits(mrp_error(pts.T[0:4], q_ref), ref_mrp_error(q, q_ref))


def test_row_kernels_match_last_axis_single_quaternions_bitwise():
    rng = np.random.default_rng(50)
    q, e, _, q_ref = row_batch(rng, 20)
    for i in range(20):
        assert_same_bits(quat_multiply_rows(q[i], q_ref), ref_quat_multiply(q[i], q_ref))
        assert_same_bits(quat_normalize_rows(3.0 * q[i]), ref_quat_normalize(3.0 * q[i]))
        assert_same_bits(quat_from_mrp(e[i]), ref_quat_from_mrp(e[i]))
        assert_same_bits(mrp_from_quat(q[i]), ref_mrp_from_quat(q[i]))
        assert_same_bits(mrp_error(q[i], q_ref), ref_mrp_error(q[i], q_ref))
        assert_same_bits(compose_mrp(q_ref, e[i]), ref_compose_mrp(q_ref, e[i]))
        # one quaternion rounds as the same quaternion in a batch
        assert_same_bits(compose_mrp(q_ref, e[i]), ref_compose_mrp(q_ref, e)[i])
        # and as Python floats, the path the filter takes on one quaternion
        qf, rf, ef = q[i].tolist(), q_ref.tolist(), e[i].tolist()
        assert_same_bits(quat_normalize_rows([3.0 * c for c in qf]), ref_quat_normalize(3.0 * q[i]))
        assert_same_bits(mrp_from_quat(qf), ref_mrp_from_quat(q[i]))
        assert_same_bits(mrp_error(qf, rf), ref_mrp_error(q[i], q_ref))
        assert_same_bits(compose_mrp(rf, ef), ref_compose_mrp(q_ref, e[i]))


def test_row_mrp_from_quat_flips_to_the_shadow_set_bitwise():
    rng = np.random.default_rng(51)
    q = random_quats(rng, 40)
    q[:, 0] = -np.abs(q[:, 0])
    q[0, 0], q[1, 0] = -0.0, 0.0  # signed zero scalar parts are not flipped
    assert_same_bits(mrp_from_quat(q.T), ref_mrp_from_quat(q))
    # w < 0: the parameters of -q, whose scalar part is positive
    assert_same_bits(mrp_from_quat(q[2:].T), ref_mrp_from_quat(-q[2:]))
    for qi in q:
        assert_same_bits(mrp_from_quat(qi), ref_mrp_from_quat(qi))
        assert_same_bits(mrp_from_quat(qi.tolist()), ref_mrp_from_quat(qi))


@pytest.mark.parametrize("m", [1, 2, 37, 500])
def test_quat_from_mrp_block_matches_rows_bitwise(m):
    """A (3, m) array takes the block path and returns one (4, m) array
    with the bits of the row form; contiguous rows of a C-ordered block
    (the filter's sigma block) and strided rows of a transposed one."""
    rng = np.random.default_rng(60 + m)
    sigma = rng.normal(size=(18, m)) * 10.0 ** rng.uniform(-6.0, 0.5, size=(1, m))
    sigma[6:9, 0] = 0.0
    for block in (sigma[6:9], np.ascontiguousarray(sigma[6:9].T).T):
        q = quat_from_mrp(block)
        assert type(q) is np.ndarray and q.shape == (4, m)
        rows = np.array(quat_from_mrp(tuple(block)))
        assert np.array_equal(q.view(np.uint64), rows.view(np.uint64))


def test_quat_to_matrix_block_matches_single_quaternions_bitwise():
    rng = np.random.default_rng(61)
    q = random_quats(rng, 300)
    block = quat_to_matrix(q.T)
    assert block.shape == (3, 3, 300)
    single = np.stack([quat_to_matrix(qi.tolist()) for qi in q], axis=-1)
    assert np.array_equal(block.view(np.uint64), single.view(np.uint64))


def test_row_zero_mrp_is_the_reference_bitwise():
    rng = np.random.default_rng(52)
    q_ref = random_quats(rng, 1)[0]
    zero = np.zeros((5, 3))
    assert_same_bits(quat_from_mrp(zero.T), ref_quat_from_mrp(zero))
    assert_same_bits(quat_from_mrp(zero[0]), QI)
    assert_same_bits(compose_mrp(q_ref, zero.T), ref_compose_mrp(q_ref, zero))
    assert_same_bits(compose_mrp(q_ref, zero[0]), ref_compose_mrp(q_ref, zero[0]))
    assert_same_bits(mrp_error(q_ref, q_ref), ref_mrp_error(q_ref, q_ref))


def test_row_normalize_rejects_zero_quaternion():
    q = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="zero quaternion"):
        quat_normalize_rows(q[1])
    with pytest.raises(ValueError, match="zero quaternion"):
        compose_mrp(q[1], np.zeros((3, 4)))
    with pytest.raises(ValueError, match="zero quaternion"):
        compose_mrp(q[1], np.zeros(3))
    with pytest.raises(ValueError, match="zero quaternion"):
        quat_normalize_rows(q[1].tolist())


def test_float_normalize_passes_nan_as_the_array_path_does():
    """A NaN quaternion is not refused as zero, on floats or on arrays
    (the replay leaves non-finite odometry rows out of its events)."""
    q = [float("nan"), 0.0, 0.0, 1.0]
    assert np.isnan(quat_normalize_rows(q)).all()
    assert np.isnan(quat_normalize_rows(np.array(q))).all()


# --------------------------------------------------------------------------
# sigma points and the unscented transform


def random_cov(rng, n, scale=1.0):
    A = rng.normal(size=(n, n))
    return scale * (A @ A.T + n * np.eye(n))


# The reference forms below are the sigma points, reconstruction and
# transform as they stood on the (2n+1, n) last-axis layout, with the
# weights passed along; the tolerance tests of the filter's updates run
# their references on them.


def ref_sigma_points(mean, cov):
    scale, wm, wc, jitter = geo._sigma_constants(mean.shape[0])
    root = geo._factor(scale * cov, jitter)
    points = np.empty((2 * mean.shape[0] + 1, mean.shape[0]))
    points[0] = mean
    points[1 : mean.shape[0] + 1] = mean + root.T
    points[mean.shape[0] + 1 :] = mean - root.T
    return points, wm, wc


def ref_reconstruct(points, wm, wc):
    mean = wm @ points
    d = points - mean
    cov = d.T @ (wc[:, None] * d)
    return mean, 0.5 * (cov + cov.T)


def ref_unscented_transform(mean, cov, func):
    points, wm, wc = ref_sigma_points(mean, cov)
    ys = func(points)
    mean_y, cov_y = ref_reconstruct(ys, wm, wc)
    cross = (points - mean).T @ (wc[:, None] * (ys - mean_y))
    return mean_y, cov_y, cross


@pytest.mark.parametrize("n", [1, 3, 6, 18])
def test_sigma_points_are_the_reference_set_transposed_bitwise(n):
    rng = np.random.default_rng(30 + n)
    mean = rng.normal(size=n)
    cov = random_cov(rng, n)
    xs = sigma_points(mean, cov)
    assert xs.shape == (n, 2 * n + 1) and xs.flags.c_contiguous
    assert np.array_equal(xs, ref_sigma_points(mean, cov)[0].T)


@pytest.mark.parametrize("n", [1, 3, 6, 18])
def test_sigma_point_reconstruction(n):
    rng = np.random.default_rng(20 + n)
    mean = rng.normal(size=n)
    cov = random_cov(rng, n)
    xs = sigma_points(mean, cov)
    assert xs.shape == (n, 2 * n + 1)
    # the mean weights sum to one
    assert reconstruct(np.ones((1, 2 * n + 1)))[0][0] == pytest.approx(1.0)
    m2, c2 = reconstruct(xs)
    assert np.allclose(m2, mean, atol=1e-9)
    assert np.allclose(c2, cov, atol=1e-9 * max(1.0, np.abs(cov).max()))


def test_sigma_points_jitter_repairs_semidefinite():
    # rank-deficient but symmetric: jitter must make the factorization go
    cov = np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    m2, c2 = reconstruct(sigma_points(np.zeros(3), cov))
    assert np.allclose(c2, cov, atol=1e-6)


def test_sigma_points_rejects_indefinite():
    cov = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(CovarianceError):
        sigma_points(np.zeros(3), cov)


def test_ut_affine_example():
    mean, cov, cross = unscented_transform(
        np.array([1.0, 2.0]), np.eye(2), lambda xs: 2.0 * xs
    )
    assert np.allclose(mean, [2.0, 4.0], atol=1e-8)
    assert np.allclose(cov, 4.0 * np.eye(2), atol=1e-8)
    assert np.allclose(cross, 2.0 * np.eye(2), atol=1e-8)


def test_ut_constant_map():
    mean, cov, cross = unscented_transform(
        np.zeros(3), np.eye(3), lambda xs: np.full((1, xs.shape[1]), 5.0)
    )
    assert np.allclose(mean, [5.0])
    assert np.allclose(cov, 0.0, atol=1e-12)
    assert np.allclose(cross, 0.0, atol=1e-12)


def test_ut_square_matches_monte_carlo():
    mean, _, _ = unscented_transform(
        np.zeros(1), np.eye(1), lambda xs: xs**2
    )
    rng = np.random.default_rng(21)
    mc = np.mean(rng.normal(size=1_000_000) ** 2)
    assert mean[0] == pytest.approx(mc, abs=0.01)


def test_ut_random_affine_sweep():
    rng = np.random.default_rng(22)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        mean = rng.normal(size=n)
        cov = random_cov(rng, n)
        my, cy, cxy = unscented_transform(mean, cov, lambda xs: A @ xs + b[:, None])
        scale = max(1.0, np.abs(cov).max(), np.abs(A).max() ** 2)
        assert np.allclose(my, A @ mean + b, atol=1e-8 * scale)
        assert np.allclose(cy, A @ cov @ A.T, atol=1e-8 * scale)
        assert np.allclose(cxy, cov @ A.T, atol=1e-8 * scale)
        # the block transform is the reference's to rounding
        ref = ref_unscented_transform(mean, cov, lambda pts: pts @ A.T + b)
        for got, want in zip((my, cy, cxy), ref):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# --------------------------------------------------------------------------
# direct LAPACK calls


# the filter's shapes: the 18x18 sigma-point factor, and the gains of the
# odometry (12 measured states), whisker (4 mounts x 2 angles) and pseudo
# airflow (3 components) updates, each solved against the 18 states
SOLVE_SHAPES = [(12, 18), (8, 18), (3, 18), (12, None), (8, None), (3, None)]


@pytest.mark.parametrize("n", [18, 12, 3])
def test_cholesky_lower_is_numpy_linalg_bitwise(n):
    rng = np.random.default_rng(40 + n)
    cov = random_cov(rng, n)
    assert geo.cholesky_lower(cov).tobytes() == np.linalg.cholesky(cov).tobytes()


@pytest.mark.parametrize("n,k", SOLVE_SHAPES)
def test_solve_is_numpy_linalg_bitwise(n, k):
    """On the transposed views the filter hands over (the gain is solved
    as S^T K^T = cross^T) and on one right-hand side (the gate)."""
    rng = np.random.default_rng(50 + n)
    S = random_cov(rng, n) + rng.normal(size=(n, n)) * 1e-3
    b = rng.normal(size=n) if k is None else rng.normal(size=(k, n)).T
    got = geo.solve(S.T, b)
    assert got.shape == b.shape
    assert got.tobytes() == np.linalg.solve(S.T, b).tobytes()


def raised(func, *args):
    """(type, message) of what func(*args) raises, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Exception) as info:
            func(*args)
    return info.type, str(info.value)


@pytest.mark.parametrize("a", [np.diag([1.0, -1.0, 1.0]), np.zeros((3, 3))])
def test_cholesky_lower_raises_what_numpy_linalg_raises(a):
    assert raised(geo.cholesky_lower, a) == raised(np.linalg.cholesky, a)
    assert raised(geo.cholesky_lower, a) == (np.linalg.LinAlgError, "Matrix is not positive definite")


def test_nan_input_gives_numpy_linalgs_result_without_a_warning():
    """LAPACK factorizes and solves a NaN matrix without failing, so
    neither raises: both return numpy.linalg's NaN result, silently."""
    a = np.full((3, 3), np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert geo.cholesky_lower(a).tobytes() == np.linalg.cholesky(a).tobytes()
        assert geo.solve(a, np.ones(3)).tobytes() == np.linalg.solve(a, np.ones(3)).tobytes()


@pytest.mark.parametrize("k", [None, 18])
@pytest.mark.parametrize("a", [np.zeros((3, 3)), np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0, 0, 1.0]])])
def test_solve_raises_what_numpy_linalg_raises(a, k):
    b = np.ones(3) if k is None else np.ones((3, k))
    assert raised(geo.solve, a, b) == raised(np.linalg.solve, a, b)
    assert raised(geo.solve, a, b) == (np.linalg.LinAlgError, "Singular matrix")


def test_failed_factorization_warns_nothing_and_leaves_no_error_state():
    """An indefinite covariance raises CovarianceError through both tries
    with every warning an error, and the error state outside is the
    caller's again afterwards."""
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CovarianceError):
            sigma_points(np.zeros(3), np.diag([1.0, -1.0, 1.0]))
        with np.errstate(all="raise"):
            assert geo.cholesky_lower(np.eye(3)).tobytes() == np.eye(3).tobytes()
    assert np.geterr() == before
