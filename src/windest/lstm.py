"""Minimal two-layer LSTM regressor with hand-written backprop.

Maps per-tick sensor/actuator features to the body-frame relative
airflow vector.  Gate blocks are ordered (input, forget, cell, output)
inside the stacked weight matrices; arrays are batched time-major
(T, B, D).  Training is plain Adam on mean-squared error with
supervision at every step of each window.

The implementation is numpy only so the arithmetic is reproducible
bit-for-bit from a seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

INPUT_DIM = 20
HIDDEN_DIM = 16
OUTPUT_DIM = 3
N_LAYERS = 2

SEQ_LEN = 5  # ticks per training window
BATCH_SIZE = 32  # windows per Adam step
VAL_FRACTION = 0.2  # tail share of each block's windows held out


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class LstmParams:
    """Weight tensors keyed by name; wrapped dict so optimizers can iterate."""

    tensors: dict[str, np.ndarray]
    input_dim: int = INPUT_DIM
    hidden_dim: int = HIDDEN_DIM
    output_dim: int = OUTPUT_DIM


def _tensor_shapes(input_dim, hidden_dim, output_dim):
    shapes = {}
    for layer in range(N_LAYERS):
        d_in = input_dim if layer == 0 else hidden_dim
        shapes[f"w_ih{layer}"] = (4 * hidden_dim, d_in)
        shapes[f"w_hh{layer}"] = (4 * hidden_dim, hidden_dim)
        shapes[f"b{layer}"] = (4 * hidden_dim,)
    shapes["w_out"] = (output_dim, hidden_dim)
    shapes["b_out"] = (output_dim,)
    return shapes


def init_params(rng, input_dim=INPUT_DIM, hidden_dim=HIDDEN_DIM, output_dim=OUTPUT_DIM):
    """Uniform(+-1/sqrt(fan_in)) init; forget-gate biases start at +1.

    The fan-in of a matrix is its width; of a bias, the hidden size.
    """
    tensors = {}
    for name, shape in _tensor_shapes(input_dim, hidden_dim, output_dim).items():
        k = 1.0 / np.sqrt(shape[1] if len(shape) == 2 else hidden_dim)
        tensors[name] = rng.uniform(-k, k, size=shape)
    for layer in range(N_LAYERS):
        tensors[f"b{layer}"][hidden_dim : 2 * hidden_dim] += 1.0  # forget gate bias
    return LstmParams(tensors, input_dim, hidden_dim, output_dim)


def zero_state(params: LstmParams, batch):
    h = np.zeros((N_LAYERS, batch, params.hidden_dim))
    return h, h.copy()


def _cell(x, h_prev, c_prev, w_ih, w_hh, b):
    nh = h_prev.shape[-1]
    z = x @ w_ih.T + h_prev @ w_hh.T + b
    i = _sigmoid(z[:, :nh])
    f = _sigmoid(z[:, nh : 2 * nh])
    g = np.tanh(z[:, 2 * nh : 3 * nh])
    o = _sigmoid(z[:, 3 * nh :])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    return i, f, g, o, c, tc, o * tc


def forward(params: LstmParams, x, state=None, want_cache=False):
    """Run the network over x of shape (T, B, input_dim).

    Returns (y, state, cache) with y of shape (T, B, output_dim); cache
    is None unless requested (it holds what backward() needs).
    """
    x = np.asarray(x, dtype=float)
    T, B, _ = x.shape
    if state is None:
        state = zero_state(params, B)
    # lists of per-layer arrays, rebound (never mutated) so cached views stay valid
    h = [state[0][layer] for layer in range(N_LAYERS)]
    c = [state[1][layer] for layer in range(N_LAYERS)]
    ts = params.tensors
    y = np.empty((T, B, params.output_dim))
    cache = [] if want_cache else None
    for t in range(T):
        step = [] if want_cache else None
        inp = x[t]
        for layer in range(N_LAYERS):
            h_prev, c_prev = h[layer], c[layer]
            i, f, g, o, cc, tc, hh = _cell(
                inp, h_prev, c_prev, ts[f"w_ih{layer}"], ts[f"w_hh{layer}"], ts[f"b{layer}"]
            )
            if want_cache:
                step.append((inp, h_prev, c_prev, i, f, g, o, cc, tc))
            h[layer], c[layer] = hh, cc
            inp = hh
        y[t] = inp @ ts["w_out"].T + ts["b_out"]
        if want_cache:
            cache.append(step)
    return y, (np.stack(h), np.stack(c)), cache


def loss_only(params: LstmParams, x, targets, state=None):
    y, _, _ = forward(params, x, state)
    err = y - np.asarray(targets, dtype=float)
    return float(np.mean(err**2))


def loss_and_grads(params: LstmParams, x, targets, state=None):
    """MSE loss (mean over all output elements) and gradients via BPTT."""
    x = np.asarray(x, dtype=float)
    targets = np.asarray(targets, dtype=float)
    T, B, _ = x.shape
    y, final_state, cache = forward(params, x, state, want_cache=True)
    err = y - targets
    loss = float(np.mean(err**2))
    dy_all = (2.0 / err.size) * err
    ts = params.tensors
    grads = {k: np.zeros_like(v) for k, v in ts.items()}
    nh = params.hidden_dim
    dh_next = np.zeros((N_LAYERS, B, nh))
    dc_next = np.zeros((N_LAYERS, B, nh))
    for t in range(T - 1, -1, -1):
        dy = dy_all[t]
        h_top = cache[t][N_LAYERS - 1][8] * cache[t][N_LAYERS - 1][6]  # o * tanh(c)
        grads["w_out"] += dy.T @ h_top
        grads["b_out"] += dy.sum(axis=0)
        d_inp = dy @ ts["w_out"]
        for layer in range(N_LAYERS - 1, -1, -1):
            inp, h_prev, c_prev, i, f, g, o, cc, tc = cache[t][layer]
            dh = d_inp + dh_next[layer]
            dc = dh * o * (1.0 - tc * tc) + dc_next[layer]
            dzo = dh * tc * o * (1.0 - o)
            dzi = dc * g * i * (1.0 - i)
            dzf = dc * c_prev * f * (1.0 - f)
            dzg = dc * i * (1.0 - g * g)
            dz = np.concatenate([dzi, dzf, dzg, dzo], axis=1)
            grads[f"w_ih{layer}"] += dz.T @ inp
            grads[f"w_hh{layer}"] += dz.T @ h_prev
            grads[f"b{layer}"] += dz.sum(axis=0)
            d_inp = dz @ ts[f"w_ih{layer}"]
            dh_next[layer] = dz @ ts[f"w_hh{layer}"]
            dc_next[layer] = dc * f
    return loss, grads, final_state


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(tensors, grads, state: AdamState, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update, applied in place to tensors."""
    state.t += 1
    b1t = 1.0 - beta1**state.t
    b2t = 1.0 - beta2**state.t
    for k, g in grads.items():
        if k not in state.m:
            state.m[k] = np.zeros_like(g)
            state.v[k] = np.zeros_like(g)
        state.m[k] = beta1 * state.m[k] + (1.0 - beta1) * g
        state.v[k] = beta2 * state.v[k] + (1.0 - beta2) * g * g
        m_hat = state.m[k] / b1t
        v_hat = state.v[k] / b2t
        tensors[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return tensors


@dataclass
class TrainConfig:
    epochs: int = 400
    lr: float = 1e-4
    seed: int = 0


def make_windows(features, labels, seq_len):
    """Chop aligned streams into non-overlapping windows of seq_len ticks."""
    X = np.asarray(features, dtype=float)
    Y = np.asarray(labels, dtype=float)
    if X.shape[0] != Y.shape[0]:
        raise ValueError("features and labels must share a clock")
    n = X.shape[0] // seq_len
    if n == 0:
        raise ValueError("stream shorter than one window")
    wx = X[: n * seq_len].reshape(n, seq_len, X.shape[1])
    wy = Y[: n * seq_len].reshape(n, seq_len, Y.shape[1])
    return wx, wy


def split_windows(wx, wy, val_fraction):
    """Contiguous tail split: last val_fraction of windows held out."""
    n = wx.shape[0]
    n_val = int(round(n * val_fraction))
    n_train = n - n_val
    return (wx[:n_train], wy[:n_train]), (wx[n_train:], wy[n_train:])


def train(blocks, config: TrainConfig = TrainConfig()):
    """Train on a list of (features, labels) streams.

    Each block is windowed into SEQ_LEN ticks and split (a contiguous
    tail of VAL_FRACTION held out) independently so validation windows
    come from unseen stretches of every source flight.  Returns (params, history) where history rows
    are (epoch, train_loss, val_loss).  Fully deterministic for a fixed
    config seed.
    """
    rng = np.random.default_rng(config.seed)
    tr_x, tr_y, va_x, va_y = [], [], [], []
    for X, Y in blocks:
        wx, wy = make_windows(X, Y, SEQ_LEN)
        (tx, ty), (vx, vy) = split_windows(wx, wy, VAL_FRACTION)
        tr_x.append(tx)
        tr_y.append(ty)
        va_x.append(vx)
        va_y.append(vy)
    tr_x = np.concatenate(tr_x)
    tr_y = np.concatenate(tr_y)
    va_x = np.concatenate(va_x)
    va_y = np.concatenate(va_y)
    params = init_params(rng, tr_x.shape[2], HIDDEN_DIM, tr_y.shape[2])
    adam = AdamState()
    history = []
    n = tr_x.shape[0]
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, BATCH_SIZE):
            idx = order[start : start + BATCH_SIZE]
            xb = tr_x[idx].transpose(1, 0, 2)
            yb = tr_y[idx].transpose(1, 0, 2)
            loss, grads, _ = loss_and_grads(params, xb, yb)
            adam_step(params.tensors, grads, adam, config.lr)
            total += loss * idx.size
        train_loss = total / n
        val_loss = (
            loss_only(params, va_x.transpose(1, 0, 2), va_y.transpose(1, 0, 2))
            if va_x.shape[0]
            else float("nan")
        )
        history.append((epoch, train_loss, val_loss))
    return params, history


def predict_stream(params: LstmParams, features):
    """Stateful inference over a whole feature stream, shape (n, input_dim)."""
    X = np.asarray(features, dtype=float)
    y, _, _ = forward(params, X[:, None, :])
    return y[:, 0, :]


def gradient_check(params: LstmParams, x, targets, h=1e-5):
    """Relative disagreement between BPTT and central finite differences.

    Compares per tensor at the norm level, ||num - bp|| / (||num|| +
    ||bp||), and returns the max over tensors.  Entry-wise quotients are
    ill-posed where the true gradient is near zero (the numerator is
    then finite-difference roundoff); the norm form stays sensitive to
    real defects, which perturb whole tensors."""
    _, grads, _ = loss_and_grads(params, x, targets)
    worst = 0.0
    for name, tensor in params.tensors.items():
        flat = tensor.ravel()
        gflat = grads[name].ravel()
        num = np.empty(flat.size)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + h
            lp = loss_only(params, x, targets)
            flat[j] = keep - h
            lm = loss_only(params, x, targets)
            flat[j] = keep
            num[j] = (lp - lm) / (2.0 * h)
        denom = max(1e-8, float(np.linalg.norm(num) + np.linalg.norm(gflat)))
        worst = max(worst, float(np.linalg.norm(num - gflat)) / denom)
    return worst


WEIGHTS_VERSION = "airflow-lstm-1"


def save_params(params: LstmParams, path):
    """Weights as CSV rows (tensor, flat index, value), round-trip exact."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tensor", "index", "value"])
        w.writerow(["_version", 0, WEIGHTS_VERSION])
        w.writerow(["_dims", 0, f"{params.input_dim};{params.hidden_dim};{params.output_dim}"])
        for name in sorted(params.tensors):
            for j, val in enumerate(params.tensors[name].ravel()):
                w.writerow([name, j, f"{val:.17g}"])


def load_params(path):
    values: dict[str, list] = {}
    dims = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:3] != ["tensor", "index", "value"]:
            raise ValueError(f"{path}: not a weights file (bad header)")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            name, idx, val = row
            if name == "_version":
                if val != WEIGHTS_VERSION:
                    raise ValueError(f"{path}:{lineno}: unsupported weights version {val!r}")
                continue
            if name == "_dims":
                dims = tuple(int(d) for d in val.split(";"))
                continue
            values.setdefault(name, []).append((int(idx), float(val)))
    if dims is None:
        raise ValueError(f"{path}: missing _dims row")
    shapes = _tensor_shapes(*dims)
    tensors = {}
    for name, shape in shapes.items():
        if name not in values:
            raise ValueError(f"{path}: missing tensor {name}")
        rows = sorted(values[name])
        flat = np.array([v for _, v in rows])
        if flat.size != int(np.prod(shape)):
            raise ValueError(f"{path}: tensor {name} has {flat.size} values, wants {shape}")
        tensors[name] = flat.reshape(shape)
    return LstmParams(tensors, *dims)


def build_features(theta, omega, accel, throttle, spin_dirs):
    """Assemble the per-tick feature vector on the common sensor clock.

    theta: (n, n_sensors, 2) deflections; omega: (n, 3) body rates;
    accel: (n, 3) specific force; throttle: (n, n_rotors) commands in
    [0, 1], signed by rotor spin direction so reaction torques stay
    visible.  Returns (n, 2*n_sensors + 6 + n_rotors).
    """
    theta = np.asarray(theta, dtype=float)
    n = theta.shape[0]
    signed = np.asarray(throttle, dtype=float) * np.asarray(spin_dirs, dtype=float)
    return np.column_stack(
        [
            theta.reshape(n, -1),
            np.asarray(omega, dtype=float),
            np.asarray(accel, dtype=float),
            signed,
        ]
    )

