"""Rigid-body model: drag polynomial, dynamics rows, integrator order."""

import math

import numpy as np
import pytest

from windest import vehicle
from windest.geometry import (
    quat_from_axis_angle,
    quat_integrate,
    quat_multiply_rows,
    quat_normalize_rows,
    quat_to_matrix,
)
from windest.vehicle import VehicleParams, drag_force, rk4_step, scalar_consts

ZERO = (0.0, 0.0, 0.0)
Q_ID = (1.0, 0.0, 0.0, 0.0)


def pack(p=(0.0, 0.0, 1.0), v=ZERO, q=Q_ID, w=ZERO):
    """The simulator's packed 13-state [p, v, q, omega] as Python floats."""
    return [float(x) for x in (*p, *v, *q, *w)]


# ---------------------------------------------------------------------------
# reference forms: the derivative as a function of its own and RK4 over it
#
# rk4_step writes its four stages out on local floats; these are the same
# expressions, one derivative call per stage, and the flat step must give
# their bits.  The dynamics tests below check the physics on ref_deriv.


def ref_deriv(s, f, tq, wind, touch, par):
    """Time derivative of the packed state s under thrust f and torque tq."""
    m_inv, mu1, mu2, g = 1.0 / par.mass, par.mu1, par.mu2, par.gravity
    J, jinv = par.inertia.tolist(), par.inertia_inv.tolist()
    vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = s[3:13]
    tx = 2.0 * (qx * qz + qw * qy) * f
    ty = 2.0 * (qy * qz - qw * qx) * f
    tz = (1.0 - 2.0 * (qx * qx + qy * qy)) * f
    ux, uy, uz = wind[0] - vx, wind[1] - vy, wind[2] - vz
    sp = math.sqrt(ux * ux + uy * uy + uz * uz)
    fac = 0.0 if sp < 1e-9 else mu1 + mu2 * sp
    ax = (tx + fac * ux + touch[0]) * m_inv
    ay = (ty + fac * uy + touch[1]) * m_inv
    az = (tz + fac * uz + touch[2]) * m_inv - g
    hx = J[0][0] * wx + J[0][1] * wy + J[0][2] * wz
    hy = J[1][0] * wx + J[1][1] * wy + J[1][2] * wz
    hz = J[2][0] * wx + J[2][1] * wy + J[2][2] * wz
    rx = tq[0] - (wy * hz - wz * hy)
    ry = tq[1] - (wz * hx - wx * hz)
    rz = tq[2] - (wx * hy - wy * hx)
    return [
        vx, vy, vz, ax, ay, az,
        0.5 * (-qx * wx - qy * wy - qz * wz),
        0.5 * (qw * wx + qy * wz - qz * wy),
        0.5 * (qw * wy - qx * wz + qz * wx),
        0.5 * (qw * wz + qx * wy - qy * wx),
        jinv[0][0] * rx + jinv[0][1] * ry + jinv[0][2] * rz,
        jinv[1][0] * rx + jinv[1][1] * ry + jinv[1][2] * rz,
        jinv[2][0] * rx + jinv[2][1] * ry + jinv[2][2] * rz,
    ]


def ref_rk4_step(s, f, tq, wind, touch, par, dt):
    """RK4 over ref_deriv, quaternion renormalized; returns (k1, next state)."""
    half, sixth = 0.5 * dt, dt / 6.0
    k1 = ref_deriv(s, f, tq, wind, touch, par)
    k2 = ref_deriv([x + half * k for x, k in zip(s, k1)], f, tq, wind, touch, par)
    k3 = ref_deriv([x + half * k for x, k in zip(s, k2)], f, tq, wind, touch, par)
    k4 = ref_deriv([x + dt * k for x, k in zip(s, k3)], f, tq, wind, touch, par)
    out = [x + sixth * (a + 2.0 * b + 2.0 * c + d) for x, a, b, c, d in zip(s, k1, k2, k3, k4)]
    qw, qx, qy, qz = out[6:10]
    qn = math.sqrt(qw ** 2 + qx ** 2 + qy ** 2 + qz ** 2)
    out[6:10] = qw / qn, qx / qn, qy / qn, qz / qn
    return k1, out


def derivative(s, par, thrust=0.0, torque=ZERO, wind=ZERO, touch=ZERO):
    """ref_deriv split into (p_dot, v_dot, q_dot, omega_dot) arrays."""
    d = np.array(ref_deriv(s, thrust, torque, wind, touch, par))
    return d[0:3], d[3:6], d[6:10], d[10:13]


def step(s, par, dt, thrust=0.0, torque=ZERO, wind=ZERO, touch=ZERO):
    return rk4_step(s, thrust, torque, wind, touch, scalar_consts(par), dt)[1]


def test_flat_rk4_step_equals_the_reference_bitwise():
    """The flat step gives the reference's next state and start-of-step
    acceleration to the bit, on random states, a non-diagonal inertia,
    and states at zero airspeed (the drag floor) and just above it."""
    par = VehicleParams(inertia=np.array([[0.011, 0.002, 0.0], [0.002, 0.013, 0.001],
                                          [0.0, 0.001, 0.021]]))
    consts = scalar_consts(par)
    rng = np.random.default_rng(34)
    for i in range(3000):
        s = rng.normal(size=13) * 10.0 ** rng.uniform(-2.0, 1.0)
        s[6:10] /= np.linalg.norm(s[6:10])
        s = s.tolist()
        f = float(rng.uniform(0.0, 24.0))
        tq, wind, touch = rng.normal(size=(3, 3)).tolist()
        if i % 4 == 0:
            wind = s[3:6]  # zero airspeed: no drag
        elif i % 4 == 1:
            wind = [x + 1e-10 for x in s[3:6]]
        k1, ref = ref_rk4_step(s, f, tq, wind, touch, par, 0.001)
        acc, out = rk4_step(s, f, tq, wind, touch, consts, 0.001)
        assert all(type(x) is float for x in out + acc)
        assert np.array(out).tobytes() == np.array(ref).tobytes()
        assert np.array(acc).tobytes() == np.array(k1[3:6]).tobytes()


def test_drag_magnitude_at_3ms():
    par = VehicleParams()
    f = drag_force(np.array([3.0, 0.0, 0.0]), par)
    assert np.linalg.norm(f) == pytest.approx(1.23)


def test_drag_magnitude_at_3p6ms():
    # 0.20*3.6 + 0.07*3.6^2 = 0.72 + 0.9072
    par = VehicleParams()
    f = drag_force(np.array([0.0, 3.6, 0.0]), par)
    assert np.linalg.norm(f) == pytest.approx(1.6272)


def test_drag_zero_at_rest():
    f = drag_force(np.zeros(3), VehicleParams())
    assert np.all(f == 0.0)
    assert np.all(drag_force(np.array([1e-10, 0, 0]), VehicleParams()) == 0.0)


def test_drag_parallel_and_monotone():
    par = VehicleParams()
    rng = np.random.default_rng(30)
    prev = 0.0
    for s in np.linspace(0.1, 8.0, 25):
        v = s * quat_to_matrix(quat_normalize_rows(rng.normal(size=4)))[:, 0]
        f = drag_force(v, par)
        cr = np.linalg.norm(np.cross(f, v))
        assert cr < 1e-12 * np.linalg.norm(f) * np.linalg.norm(v)
        mag = np.linalg.norm(f)
        assert mag > prev
        prev = mag


def test_drag_broadcasts():
    """Component-first: a (3, m) block is m airflows, each with the bits it
    gets alone."""
    par = VehicleParams()
    v = np.array([[3.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 3.6, 0.0], [0.0, 0.0, 1e-10]]).T
    f = drag_force(v, par)
    assert f.shape == (3, 4)
    assert np.linalg.norm(f[:, 0]) == pytest.approx(1.23)
    assert np.all(f[:, 1] == 0.0) and np.all(f[:, 3] == 0.0)
    rng = np.random.default_rng(33)
    v = rng.normal(size=(3, 200)) * 10.0 ** rng.uniform(-3.0, 1.0, size=200)
    f = drag_force(v, par)
    for i in range(200):
        assert np.array_equal(f[:, i], drag_force(v[:, i], par))


@pytest.mark.parametrize("name", ["mass", "gravity"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_params_reject_mass_and_gravity_outside_domain(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        VehicleParams(**{name: value})


def test_params_validation():
    with pytest.raises(ValueError):
        VehicleParams(inertia=np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        VehicleParams(inertia=np.ones((3, 3)))


def test_hover_equilibrium():
    par = VehicleParams()
    dp, dv, dq, dw = derivative(pack(), par, thrust=par.mass * par.gravity)
    assert np.allclose(dp, 0.0) and np.allclose(dv, 0.0, atol=1e-12)
    assert np.allclose(dq, 0.0) and np.allclose(dw, 0.0)


def test_free_fall():
    par = VehicleParams(mu1=0.0, mu2=0.0)
    _, dv, _, _ = derivative(pack(v=(1.0, -2.0, 0.5)), par)
    assert np.allclose(dv, [0.0, 0.0, -9.81])


def test_gyroscopic_term():
    par = VehicleParams()  # diagonal J
    _, _, _, dw = derivative(pack(w=(1.0, 0.0, 0.0)), par)
    assert np.allclose(dw, 0.0)

    J = np.array([[0.011, 0.002, 0.0], [0.002, 0.013, 0.001], [0.0, 0.001, 0.021]])
    par2 = VehicleParams(inertia=J)
    w = np.array([0.3, -1.1, 0.7])
    _, _, _, dw = derivative(pack(w=w), par2)
    assert np.allclose(dw, np.linalg.inv(J) @ (-np.cross(w, J @ w)), atol=1e-12)


def test_touch_force_enters_translation():
    par = VehicleParams()
    _, dv, _, _ = derivative(pack(), par, thrust=par.mass * par.gravity, touch=(0.0, 0.0, -4.0))
    assert np.allclose(dv, [0.0, 0.0, -4.0 / par.mass])


def test_integrate_hover_fixed_point():
    par = VehicleParams()
    x = pack()
    x2 = step(x, par, 0.002, thrust=par.mass * par.gravity)
    assert np.allclose(x2[0:3], x[0:3], atol=1e-12)
    assert np.allclose(x2[3:6], 0.0, atol=1e-12)
    assert np.allclose(x2[6:10], x[6:10], atol=1e-12)


def test_integrator_order():
    """Step-doubling: RK4 error contracts ~16x when dt halves."""
    par = VehicleParams()
    x = pack(ZERO, (2.0, 0.5, -0.3), quat_normalize_rows(np.array([0.9, 0.2, -0.1, 0.3])), (1.0, -2.0, 0.5))

    def advance(dt, n):
        y = x
        for _ in range(n):
            y = step(y, par, dt, thrust=10.0, torque=(0.01, -0.02, 0.005), wind=(1.0, 0.0, 0.0))
        return np.array(y)

    ref = advance(0.0005, 160)  # fine reference over 0.08 s
    e1 = np.linalg.norm(advance(0.008, 10) - ref)
    e2 = np.linalg.norm(advance(0.004, 20) - ref)
    assert 8.0 < e1 / e2 < 40.0


def test_integrate_attitude_matches_closed_form():
    par = VehicleParams(mu1=0.0, mu2=0.0)
    w = np.array([0.4, -0.9, 1.3])
    # torque canceling the gyroscopic term keeps omega constant
    torque = tuple(np.cross(w, par.inertia @ w).tolist())
    y = pack(ZERO, w=w)
    for _ in range(500):
        y = step(y, par, 0.002, torque=torque)
    q = np.array(y[6:10])
    q_exact = quat_integrate(np.array(Q_ID), w, 1.0)
    assert min(np.linalg.norm(q - q_exact), np.linalg.norm(q + q_exact)) < 1e-8


def test_frame_consistency():
    """A fixed world rotation applied to all world quantities commutes
    with the dynamics."""
    rng = np.random.default_rng(31)
    R0q = np.array(quat_normalize_rows(rng.normal(size=4)))
    p, v, w = rng.normal(size=(3, 3))
    q = quat_normalize_rows(rng.normal(size=4))
    torque = rng.normal(size=3) * 0.01
    wind, touch = rng.normal(size=(2, 3))

    par = VehicleParams()
    g = np.array([0.0, 0.0, par.gravity])  # gravity is not rotation-invariant; take it out
    _, dv, _, dw = derivative(pack(p, v, q, w), par, 9.0, torque, wind, touch)
    R0 = quat_to_matrix(R0q)
    xr = pack(R0 @ p, R0 @ v, quat_multiply_rows(R0q, q), w)
    _, dv_r, _, dw_r = derivative(xr, par, 9.0, torque, R0 @ wind, R0 @ touch)
    assert np.allclose(dv_r + g, R0 @ (dv + g), atol=1e-12)
    assert np.allclose(dw_r, dw, atol=1e-12)


def test_drag_dissipates_kinetic_energy():
    par = VehicleParams()
    # a vertical support force holds the vehicle against gravity
    support = (0.0, 0.0, par.mass * par.gravity)
    x = pack(ZERO, v=(3.0, -1.0, 2.0))
    v = np.array(x[3:6])
    ke = 0.5 * par.mass * v @ v
    for _ in range(200):
        x = step(x, par, 0.005, touch=support)
        v = np.array(x[3:6])
        ke2 = 0.5 * par.mass * v @ v
        assert ke2 < ke
        ke = ke2


def test_euler_step_arrays_matches_scalar():
    par = VehicleParams()
    rng = np.random.default_rng(32)
    n = 7
    p = rng.normal(size=(n, 3))
    v = rng.normal(size=(n, 3))
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w = rng.normal(size=(n, 3))
    thrust, torque = 11.0, np.array([0.01, 0.0, -0.02])
    touch = rng.normal(size=(n, 3))
    wind = np.array([1.0, -0.5, 0.0])
    dt = 0.01
    x = np.full((vehicle.STATE_DIM, n), np.nan)  # the attitude rows are not read
    x[vehicle.IDX_P], x[vehicle.IDX_V], x[vehicle.IDX_W] = p.T, v.T, w.T
    x[vehicle.IDX_F], x[vehicle.IDX_WIND] = touch.T, wind[:, None]
    y = np.full_like(x, np.nan)
    wrench = vehicle.wrench_terms(np.array([thrust, *torque]), par)
    q2 = vehicle.euler_step_arrays(x, q.T, wrench, par, dt, y)
    p2, v2, q2, w2 = y[vehicle.IDX_P].T, y[vehicle.IDX_V].T, q2.T, y[vehicle.IDX_W].T
    for i in range(n):
        dp, dv, _, dw = derivative(pack(p[i], v[i], q[i], w[i]), par, thrust, torque, wind, touch[i])
        # the position term exact under constant acceleration
        assert np.allclose(p2[i], p[i] + (dp + 0.5 * dv * dt) * dt, atol=1e-12)
        assert np.allclose(v2[i], v[i] + dv * dt, atol=1e-12)
        assert np.allclose(w2[i], w[i] + dw * dt, atol=1e-12)
        # the attitude turned at the step's mean rate
        q_ref = quat_multiply_rows(q[i], quat_from_axis_angle((w[i] + 0.5 * dw * dt) * dt))
        assert np.allclose(q2[i], q_ref, atol=1e-12)
