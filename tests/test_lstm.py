"""Recurrent airflow regressor: forward pass, BPTT, Adam, persistence."""

import numpy as np
import pytest

from windest import lstm
from windest.lstm import (
    AdamState,
    LstmParams,
    TrainConfig,
    adam_step,
    build_features,
    forward,
    gradient_check,
    init_params,
    load_params,
    loss_and_grads,
    loss_only,
    make_windows,
    predict_stream,
    save_params,
    split_windows,
    train,
)


def zero_params(input_dim=20, hidden_dim=16, output_dim=3):
    p = init_params(np.random.default_rng(0), input_dim, hidden_dim, output_dim)
    for v in p.tensors.values():
        v[...] = 0.0
    return p


def small_params(rng, input_dim=4, hidden_dim=3, output_dim=2):
    return init_params(rng, input_dim, hidden_dim, output_dim)


def test_forward_zero_weights():
    p = zero_params()
    x = np.random.default_rng(1).normal(size=(5, 2, 20))
    y, _, _ = forward(p, x)
    assert np.all(y == 0.0)


def test_forward_shapes():
    p = init_params(np.random.default_rng(2))
    x = np.zeros((5, 1, 20))
    y, (h, c), _ = forward(p, x)
    assert y.shape == (5, 1, 3)
    assert h.shape == (2, 1, 16) and c.shape == (2, 1, 16)


def test_forward_deterministic_on_repeated_input():
    # feeding the same tick twice from the same state gives the same
    # output pair regardless of order (they are identical inputs)
    p = init_params(np.random.default_rng(3))
    v = np.random.default_rng(4).normal(size=20)
    x = np.stack([v, v])[:, None, :]
    y, _, _ = forward(p, x)
    y2, _, _ = forward(p, x[::-1])
    assert np.allclose(y, y2)


def test_forward_rejects_bad_arity():
    p = init_params(np.random.default_rng(5))
    with pytest.raises(Exception):
        forward(p, np.zeros((5, 1, 7)))


def test_forward_state_carries_over():
    p = init_params(np.random.default_rng(6))
    x = np.random.default_rng(7).normal(size=(6, 1, 20))
    y_full, _, _ = forward(p, x)
    y_a, state, _ = forward(p, x[:3])
    y_b, _, _ = forward(p, x[3:], state)
    assert np.allclose(np.concatenate([y_a, y_b]), y_full, atol=1e-12)


def test_loss_convention():
    # mean over every output element: constant target c, zero net -> c^2
    p = zero_params()
    x = np.zeros((5, 2, 20))
    targets = np.full((5, 2, 3), 0.7)
    assert loss_only(p, x, targets) == pytest.approx(0.49)


def test_loss_zero_at_optimum():
    p = zero_params()
    x = np.random.default_rng(8).normal(size=(5, 1, 20))
    targets = np.zeros((5, 1, 3))
    loss, grads, _ = loss_and_grads(p, x, targets)
    assert loss == 0.0
    for g in grads.values():
        assert np.all(g == 0.0)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    p = small_params(rng)
    x = rng.normal(size=(5, 2, 4))
    targets = rng.normal(size=(5, 2, 2))
    assert gradient_check(p, x, targets) < 1e-4


def test_gradient_check_flags_corrupted_gradients(monkeypatch):
    # the metric must stay sensitive to real backprop defects
    rng = np.random.default_rng(11)
    p = small_params(rng)
    x = rng.normal(size=(3, 2, 4))
    targets = rng.normal(size=(3, 2, 2))
    real = lstm.loss_and_grads

    def tampered(params, xx, tt, state=None):
        loss, grads, out = real(params, xx, tt, state)
        grads = {k: (v * 1.02 if k == "w_ih0" else v) for k, v in grads.items()}
        return loss, grads, out

    monkeypatch.setattr(lstm, "loss_and_grads", tampered)
    assert lstm.gradient_check(p, x, targets) > 1e-3


def test_gradients_with_carried_state():
    rng = np.random.default_rng(10)
    p = small_params(rng)
    x = rng.normal(size=(4, 1, 4))
    targets = rng.normal(size=(4, 1, 2))
    loss, grads, _ = loss_and_grads(p, x, targets)
    assert np.isfinite(loss)
    assert all(np.all(np.isfinite(g)) for g in grads.values())


def test_adam_first_step_magnitude():
    params = {"w": np.array([1.0, -2.0, 3.0])}
    grads = {"w": np.array([0.3, -0.7, 2.0])}
    st = AdamState()
    adam_step(params, grads, st, 0.1)
    moved = params["w"] - np.array([1.0, -2.0, 3.0])
    assert np.allclose(moved, -0.1 * np.sign(grads["w"]), atol=1e-6)


def test_adam_zero_gradient():
    params = {"w": np.array([1.0, 2.0])}
    st = AdamState()
    adam_step(params, {"w": np.zeros(2)}, st, 0.1)
    assert np.allclose(params["w"], [1.0, 2.0])


def test_adam_scalar_quadratic():
    """f(x) = x^2 from x0 = 1 at lr 0.1 dips below 1e-3 within 200 steps."""
    params = {"x": np.array([1.0])}
    st = AdamState()
    hit = None
    for k in range(200):
        adam_step(params, {"x": 2.0 * params["x"]}, st, 0.1)
        if abs(params["x"][0]) ** 2 < 1e-3:
            hit = k + 1
            break
    assert hit is not None


def test_make_windows_non_overlapping():
    X = np.arange(23 * 4, dtype=float).reshape(23, 4)
    Y = np.arange(23 * 3, dtype=float).reshape(23, 3)
    wx, wy = make_windows(X, Y, 5)
    assert wx.shape == (4, 5, 4) and wy.shape == (4, 5, 3)
    assert np.allclose(wx[1, 0], X[5])  # window starts step past the last one
    with pytest.raises(ValueError):
        make_windows(X[:3], Y[:3], 5)
    with pytest.raises(ValueError):
        make_windows(X, Y[:-1], 5)


def test_split_windows_contiguous_tail():
    wx = np.arange(10)[:, None, None] * np.ones((10, 5, 4))
    wy = np.ones((10, 5, 3))
    (tx, _), (vx, _) = split_windows(wx, wy, 0.2)
    assert tx.shape[0] == 8 and vx.shape[0] == 2
    assert vx[0, 0, 0] == 8.0


def test_train_constant_velocity():
    """A constant-velocity stream is learnable to well under 0.1 m/s."""
    rng = np.random.default_rng(11)
    n = 400
    label = np.array([-1.5, 0.5, 0.0])
    X = rng.normal(0.0, 0.05, size=(n, 20))
    Y = np.tile(label, (n, 1)) + rng.normal(0.0, 0.005, size=(n, 3))
    cfg = TrainConfig(epochs=60, lr=1e-2, seed=3)
    params, history = train([(X, Y)], cfg)
    val_rms = np.sqrt(history[-1][2])
    assert val_rms < 0.1


def test_train_loss_curve_decreases():
    rng = np.random.default_rng(12)
    n = 300
    X = rng.normal(size=(n, 20))
    Y = X[:, :3] * 0.3
    cfg = TrainConfig(epochs=40, lr=3e-3, seed=4)
    _, history = train([(X, Y)], cfg)
    losses = [h[1] for h in history]
    assert losses[-1] < losses[0]
    running = losses[0]
    for l in losses[1:]:
        assert l <= 1.05 * running  # 5% slack on epoch averages
        running = min(running, l)


def test_train_deterministic():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(100, 20))
    Y = rng.normal(size=(100, 3))
    cfg = TrainConfig(epochs=3, seed=7)
    p1, h1 = train([(X, Y)], cfg)
    p2, h2 = train([(X, Y)], cfg)
    assert h1 == h2
    for k in p1.tensors:
        assert np.array_equal(p1.tensors[k], p2.tensors[k])


def test_train_empty_dataset():
    with pytest.raises(ValueError):
        train([(np.zeros((2, 20)), np.zeros((2, 3)))], TrainConfig(epochs=1))


def test_predict_stream_shape():
    p = init_params(np.random.default_rng(14))
    out = predict_stream(p, np.zeros((33, 20)))
    assert out.shape == (33, 3)


def test_long_sequence_stays_finite():
    p = init_params(np.random.default_rng(15))
    x = np.random.default_rng(16).normal(size=(100_000, 1, 20))
    y, (h, c), _ = forward(p, x)
    assert np.all(np.isfinite(y))
    assert np.all(np.isfinite(c))


@pytest.mark.parametrize("extra", [1, 2, 517])
def test_forward_in_blocks_equals_cached_forward_bitwise(extra):
    """Without a cache the forward runs FORWARD_CHUNK steps at a time;
    over several blocks (a one-step remainder joins the last block) its
    output and final state are the whole-stream forward's bits."""
    p = init_params(np.random.default_rng(18))
    rng = np.random.default_rng(19)
    x = rng.normal(size=(3 * lstm.FORWARD_CHUNK + extra, 1, 20))
    state = tuple(rng.normal(size=(2, 2, 1, 16)))
    y, (h, c), cache = forward(p, x, state)
    y_ref, (h_ref, c_ref), cache_ref = forward(p, x, state, want_cache=True)
    assert cache is None and len(cache_ref) == 2
    for a, b in ((y, y_ref), (h, h_ref), (c, c_ref)):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_empty_stream_gives_no_rows_and_keeps_the_state():
    p = init_params(np.random.default_rng(20))
    state = tuple(np.random.default_rng(21).normal(size=(2, 2, 1, 16)))
    y, (h, c), _ = forward(p, np.zeros((0, 1, 20)), state)
    assert y.shape == (0, 1, 3)
    assert np.array_equal(h, state[0]) and np.array_equal(c, state[1])
    assert lstm.predict_stream(p, np.zeros((0, 20))).shape == (0, 3)


def test_save_load_round_trip(tmp_path):
    p = init_params(np.random.default_rng(17))
    path = tmp_path / "weights.csv"
    save_params(p, path)
    p2 = load_params(path)
    for k in p.tensors:
        assert np.array_equal(p.tensors[k], p2.tensors[k])
    assert (p2.input_dim, p2.hidden_dim, p2.output_dim) == (20, 16, 3)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "weights.csv"
    path.write_text("not,a,weights\nfile,0,0\n")
    with pytest.raises(ValueError):
        load_params(path)


def test_load_rejects_missing_tensor(tmp_path):
    p = init_params(np.random.default_rng(18))
    path = tmp_path / "weights.csv"
    save_params(p, path)
    lines = [l for l in path.read_text().splitlines() if not l.startswith("w_out")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="w_out"):
        load_params(path)


def test_load_rejects_bad_version(tmp_path):
    p = init_params(np.random.default_rng(19))
    path = tmp_path / "weights.csv"
    save_params(p, path)
    text = path.read_text().replace(lstm.WEIGHTS_VERSION, "other-9")
    path.write_text(text)
    with pytest.raises(ValueError, match="version"):
        load_params(path)


def test_build_features_zeros():
    x = build_features(np.zeros((3, 4, 2)), np.zeros((3, 3)), np.zeros((3, 3)),
                       np.zeros((3, 6)), np.ones(6))
    assert x.shape == (3, 20)
    assert np.all(x == 0.0)


def test_build_features_ccw_sign():
    throttle = np.zeros((1, 6))
    throttle[0, 1] = 0.5
    spin = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    x = build_features(np.zeros((1, 4, 2)), np.zeros((1, 3)), np.zeros((1, 3)), throttle, spin)
    assert x[0, 15] == -0.5


def test_feature_round_trip():
    rng = np.random.default_rng(20)
    theta = rng.normal(size=(9, 4, 2))
    omega = rng.normal(size=(9, 3))
    accel = rng.normal(size=(9, 3))
    throttle = rng.uniform(0.0, 1.0, size=(9, 6))
    spin = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    x = build_features(theta, omega, accel, throttle, spin)
    # layout: 4 sensors x (theta_x, theta_y), omega, accel, signed throttles
    assert x.shape == (9, 20)
    assert np.array_equal(x[:, 0:8].reshape(9, 4, 2), theta)
    assert np.array_equal(x[:, 8:11], omega)
    assert np.array_equal(x[:, 11:14], accel)
    assert np.array_equal(x[:, 14:20] * spin, throttle)


def test_features_are_body_frame_only():
    """The builder's inputs are all body-frame or actuator quantities; no
    pose or world-frame argument exists to leak through."""
    import inspect

    names = list(inspect.signature(build_features).parameters)
    assert names == ["theta", "omega", "accel", "throttle", "spin_dirs"]


def test_saturated_gates_raise_no_floating_point_error():
    """Pre-activations near +-1e3 saturate every gate without an overflow
    or underflow in the forward pass or the gradients."""
    rng = np.random.default_rng(21)
    p = small_params(rng)
    for v in p.tensors.values():
        v *= 1e3
    x = rng.choice([-1.0, 1.0], size=(4, 3, 4))
    targets = rng.normal(size=(4, 3, 2))
    with np.errstate(all="raise"):
        _, _, cache = forward(p, x, want_cache=True)
        loss, grads, _ = loss_and_grads(p, x, targets)
    z = x.reshape(-1, 4) @ p.tensors["w_ih0"].T + p.tensors["b0"]
    assert np.max(np.abs(z)) > 500.0
    assert np.isfinite(loss) and all(np.all(np.isfinite(g)) for g in grads.values())
