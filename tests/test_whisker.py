"""Whisker sensing chain: field decode, drag/deflection model, rig."""

import numpy as np
import pytest

from windest import whisker as wk
from windest.geometry import quat_normalize_rows, quat_to_matrix
from windest.whisker import (
    SOUTH_UP,
    SensorMount,
    WhiskerRig,
    body_airflow,
    decode_field,
    default_rig,
    predict_deflection,
    rig_airflow,
    rig_predict,
    synthesize_field,
)


def north_south_rig():
    """Two co-located identity mounts, north-up then south-up."""
    return WhiskerRig(
        [
            SensorMount("north", [0.0, 0.0, 0.0], np.eye(3)),
            SensorMount("south", [0.0, 0.0, 0.0], np.eye(3), polarity=SOUTH_UP),
        ]
    )


def mount_airflow(v_inf_b, omega_b, m):
    """Sensor-frame airflow of a single mount, through a one-mount rig."""
    return rig_airflow(v_inf_b, omega_b, WhiskerRig([m]))[0]


def test_decode_at_rest():
    assert np.allclose(decode_field([0.0, 0.0, 5.0]), [0.0, 0.0])


def test_decode_known_angle():
    b = [5.0 * np.tan(0.1), 0.0, 5.0]
    th = decode_field(b)
    assert th[1] == pytest.approx(0.1)
    assert th[0] == pytest.approx(0.0)


def test_rig_sign():
    assert np.array_equal(north_south_rig().sign, [[1.0], [-1.0]])
    assert np.array_equal(default_rig().sign, [[1.0], [1.0], [-1.0], [-1.0]])


def test_decode_polarity():
    rig = north_south_rig()
    th_north, th_south = decode_field(rig.sign * np.array([[1.0, 2.0, 5.0], [-1.0, -2.0, -5.0]]))
    assert np.allclose(th_south, th_north)


def test_decode_invalid_when_field_reversed():
    # corrected b_z <= 0: magnet out of range, reading unusable
    assert np.all(np.isnan(decode_field([1.0, 2.0, -5.0])))
    assert np.all(np.isnan(decode_field([0.0, 0.0, 0.0])))
    south = north_south_rig().sign[1]
    assert np.all(np.isnan(decode_field(south * np.array([1.0, 2.0, 5.0]))))


def test_decode_synthesize_round_trip():
    rng = np.random.default_rng(40)
    sign = north_south_rig().sign
    th = rng.uniform(-1.0, 1.0, size=(50, 2, 2))  # (samples, north/south mount, angles)
    b = sign * synthesize_field(th)
    assert np.all(b[:, 1, 2] < 0.0)  # the south-up mount sees the negated field
    assert np.allclose(decode_field(sign * b), th, atol=1e-12)


def test_body_airflow_examples():
    x = np.array([1.0, 0.0, 0.0])
    assert np.allclose(body_airflow(np.array([1.0, 0, 0, 0]), np.zeros(3), x), [-1, 0, 0])
    s = np.sqrt(0.5)
    assert np.allclose(body_airflow(np.array([s, 0, 0, s]), x, np.zeros(3)), [0, -1, 0], atol=1e-12)
    rng = np.random.default_rng(41)
    q = np.array(quat_normalize_rows(rng.normal(size=4)))
    v = rng.normal(size=3)
    assert np.allclose(body_airflow(q, v, v), 0.0, atol=1e-12)


def test_rig_airflow_identity_mount():
    m = SensorMount("s", [0.1, 0.0, 0.0], np.eye(3))
    v = np.array([1.0, 2.0, 3.0])
    assert np.allclose(mount_airflow(v, np.zeros(3), m), v)


def test_rig_airflow_sweep_term():
    m = SensorMount("s", [1.0, 0.0, 0.0], np.eye(3))
    out = mount_airflow(np.zeros(3), np.array([0.0, 0.0, 1.0]), m)
    assert np.allclose(out, [0.0, -1.0, 0.0])


def test_rig_airflow_matches_hand_evaluation():
    rng = np.random.default_rng(42)
    for _ in range(20):
        q = np.array(quat_normalize_rows(rng.normal(size=4)))
        rot = quat_to_matrix(q)  # random rotation matrix via quaternion
        m = SensorMount("s", rng.normal(size=3) * 0.2, rot)
        v, w = rng.normal(size=3), rng.normal(size=3)
        expect = rot.T @ (v - np.cross(w, m.r))
        assert np.allclose(mount_airflow(v, w, m), expect, atol=1e-12)


def test_rig_airflow_batch_matches_each_mount_bitwise():
    """All mounts at once, batched or not, round as each mount alone."""
    rig = default_rig()
    rng = np.random.default_rng(49)
    v, w = rng.normal(size=(3, 9)), rng.normal(size=(3, 9))
    out = rig_airflow(v, w, rig)
    assert out.shape == (len(rig), 3, 9)
    for i, m in enumerate(rig.mounts):
        assert np.array_equal(out[i], mount_airflow(v, w, m))
        assert np.array_equal(
            rig_airflow(v[:, 0], w[:, 0], rig)[i], mount_airflow(v[:, 0], w[:, 0], m)
        )


def test_predict_deflection_zero():
    assert np.allclose(predict_deflection(np.zeros(3), 0.01), [0.0, 0.0])


def test_predict_deflection_example():
    th = predict_deflection(np.array([2.0, 0.0, 0.0]), 0.01)
    assert th[0] == pytest.approx(0.0)
    assert th[1] == pytest.approx(0.04)


def test_predict_deflection_z_insensitive():
    for w in (-3.0, 0.5, 7.0):
        assert np.allclose(predict_deflection(np.array([0.0, 0.0, w]), 0.01), [0.0, 0.0])


def test_predict_deflection_magnitude():
    rng = np.random.default_rng(43)
    prev = 0.0
    for s in np.linspace(0.5, 6.0, 12):
        ang = rng.uniform(0, 2 * np.pi)
        v = np.array([s * np.cos(ang), s * np.sin(ang), 0.0])
        th = predict_deflection(v, 0.01)
        assert np.linalg.norm(th) == pytest.approx(0.01 * s * s)
        assert np.linalg.norm(th) > prev
        prev = np.linalg.norm(th)


def test_predict_deflection_equivariance():
    """Rotating the planar airflow rotates the angle pair identically."""
    rng = np.random.default_rng(44)
    v = np.array([1.7, -0.6, 0.0])
    th0 = predict_deflection(v, 0.01)
    for phi in rng.uniform(-np.pi, np.pi, 20):
        c, s = np.cos(phi), np.sin(phi)
        vr = np.array([c * v[0] - s * v[1], s * v[0] + c * v[1], 0.0])
        thr = predict_deflection(vr, 0.01)
        # theta transforms like the (x, y) pair
        expect = np.array([c * th0[0] - s * th0[1], s * th0[0] + c * th0[1]])
        assert np.allclose(thr, expect, atol=1e-12)


def test_composition_consistency():
    """Chained frame maps equal the single-expression evaluation."""
    rng = np.random.default_rng(45)
    m = default_rig().mounts[1]
    for _ in range(20):
        q = np.array(quat_normalize_rows(rng.normal(size=4)))
        v, w, wind = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
        chained = predict_deflection(
            mount_airflow(body_airflow(q, wind, v), w, m), m.coeff
        )
        v_inf_s = m.rot.T @ (quat_to_matrix(q).T @ (wind - v) - np.cross(w, m.r))
        speed = np.linalg.norm(v_inf_s)
        direct = np.array([-m.coeff * speed * v_inf_s[1], m.coeff * speed * v_inf_s[0]])
        assert np.allclose(chained, direct, atol=1e-12)


def test_mount_validation():
    with pytest.raises(ValueError):
        SensorMount("bad", [0, 0, 0], np.ones((3, 3)))
    with pytest.raises(ValueError):
        SensorMount("bad", [0, 0, 0], np.eye(3), polarity="east_up")


def test_default_rig_spans_all_axes():
    # each sensor is blind along its spine; the sensed in-plane axes of
    # the four mounts together must cover all body directions
    rig = default_rig()
    assert len(rig) == 4
    sensed = np.concatenate([[m.rot[:, 0], m.rot[:, 1]] for m in rig.mounts])
    assert np.linalg.matrix_rank(sensed) == 3


def test_rig_predict_shape_and_batch():
    rig = default_rig()
    rng = np.random.default_rng(46)
    q = np.array(quat_normalize_rows(rng.normal(size=4)))
    v, w, wind = np.array([1.0, 0, 0]), np.array([0, 0, 0.2]), np.array([0.5, 0, 0])
    single = rig_predict(q, v, w, wind, rig)
    assert single.shape == (4, 2)
    batch = rig_predict(*(np.tile(x[:, None], (1, 6)) for x in (q, v, w)), wind[:, None], rig)
    assert batch.shape == (4, 2, 6)
    assert np.allclose(batch[..., 3], single)


def test_rig_predict_matches_per_mount():
    rig = default_rig()
    rng = np.random.default_rng(47)
    q = np.array(quat_normalize_rows(rng.normal(size=4)))
    v, w, wind = rng.normal(size=3), rng.normal(size=3) * 0.3, rng.normal(size=3)
    out = rig_predict(q, v, w, wind, rig)
    for i, m in enumerate(rig.mounts):
        expect = predict_deflection(mount_airflow(body_airflow(q, wind, v), w, m), m.coeff)
        assert np.allclose(out[i], expect, atol=1e-12)


def test_rig_predict_sensor_mask_matches_subrig():
    rig = default_rig()
    rng = np.random.default_rng(48)
    q = quat_normalize_rows(rng.normal(size=(4, 9)))
    v, w, wind = rng.normal(size=(3, 9)), rng.normal(size=(3, 9)) * 0.3, rng.normal(size=(3, 9))
    keep = np.array([True, False, True, True])
    sub = wk.WhiskerRig([m for m, k in zip(rig.mounts, keep) if k])
    out = rig_predict(q, v, w, wind, rig, sensors=keep)
    assert out.shape == (3, 2, 9)
    assert np.array_equal(out, rig_predict(q, v, w, wind, sub))
    assert np.array_equal(out, rig_predict(q, v, w, wind, rig)[keep])


# ---------------------------------------------------------------------------
# the whisker kernels against their last-axis references
#
# ref_body_airflow and ref_rig_predict are the body airflow and the rig's
# deflections as they stood on the last axis (quaternion and vectors on
# the last axis, leading batch axes, one (..., 3) @ (3, 3) product per
# mount).  The component-first kernels form the body airflow as one
# quadratic form and every mount's airflow as one (3 n, 6) product, which
# round differently in the last bits.

# largest difference from the references, relative to the largest entry
# of the reference array; fixed before the kernels moved to blocks
WHISKER_REL_TOL = 1e-12


def ref_body_airflow(q_wb, v_wind_w, v_w):
    """(wind - v) rotated by the conjugate of q_wb with the cross-product
    formula u + 2 w (c x u) + c x (2 c x u), c = -(x, y, z)."""
    u = v_wind_w - v_w
    qw, c = q_wb[..., :1], -q_wb[..., 1:]
    t = 2.0 * np.cross(c, u)
    return u + qw * t + np.cross(c, t)


def ref_rig_predict(q_wb, v_w, omega_b, v_wind_w, rig, sensors=None):
    idx = np.arange(len(rig)) if sensors is None else np.arange(len(rig))[sensors]
    r = np.array([rig.mounts[i].r for i in idx]).reshape(-1, 3)
    rot = np.array([rig.mounts[i].rot for i in idx]).reshape(-1, 3, 3)
    coeff = rig.coeff[idx]
    v_inf_b = ref_body_airflow(q_wb, v_wind_w, v_w)
    batch = (1,) * (max(v_inf_b.ndim, omega_b.ndim) - 1)
    local = v_inf_b - np.cross(omega_b, r.reshape((-1,) + batch + (3,)))
    v_s = np.stack([local[i] @ rot[i] for i in range(len(r))], axis=-2)
    speed = np.linalg.norm(v_s, axis=-1)
    return np.stack([-coeff * speed * v_s[..., 1], coeff * speed * v_s[..., 0]], axis=-1)


def random_rig(rng):
    mounts = []
    for i in range(int(rng.integers(1, 6))):
        q = quat_normalize_rows(rng.normal(size=4))
        rot = quat_to_matrix(q)
        mounts.append(SensorMount(f"s{i}", rng.normal(0.0, 0.2, 3), rot, float(rng.uniform(0.005, 0.02))))
    return WhiskerRig(mounts)


def assert_within_tol(got, ref):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= WHISKER_REL_TOL * np.max(np.abs(ref))


def test_whisker_kernels_match_last_axis_references():
    """200 random states as one block and one at a time, on the default
    rig and on random rigs, with and without a sensor mask: body airflow
    and deflections within WHISKER_REL_TOL of the references."""
    rng = np.random.default_rng(56)
    m = 200
    q = quat_normalize_rows(rng.normal(size=(4, m)))
    v, w, wind = rng.normal(0.0, 2.0, (3, m)), rng.normal(0.0, 0.5, (3, m)), rng.normal(0.0, 2.0, (3, m))
    assert_within_tol(body_airflow(q, wind, v).T, ref_body_airflow(q.T, wind.T, v.T))
    for rig in [default_rig()] + [random_rig(rng) for _ in range(5)]:
        ref = ref_rig_predict(q.T, v.T, w.T, wind.T, rig)
        assert_within_tol(rig_predict(q, v, w, wind, rig).transpose(2, 0, 1), ref)
        mask = rng.random(len(rig)) < 0.6
        if mask.any():
            assert_within_tol(
                rig_predict(q, v, w, wind, rig, sensors=mask).transpose(2, 0, 1),
                ref_rig_predict(q.T, v.T, w.T, wind.T, rig, sensors=mask),
            )
        for k in range(0, m, 20):
            args = q[:, k], v[:, k], w[:, k], wind[:, k]
            assert_within_tol(rig_predict(*args, rig), ref[k])
            assert_within_tol(
                body_airflow(q[:, k], wind[:, k], v[:, k]),
                ref_body_airflow(q[:, k], wind[:, k], v[:, k]),
            )
