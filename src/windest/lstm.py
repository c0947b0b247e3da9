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
ADAM_BETA1 = 0.9  # Adam's moment decay rates and denominator floor
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
FD_STEP = 1e-5  # central-difference step of gradient_check
FORWARD_CHUNK = 1024  # time steps per block of a forward pass without a cache


# Gate activation s * tanh(s * z) + 1 - s per block (input, forget, cell,
# output): the sigmoid 0.5 * tanh(0.5 * z) + 0.5 (no exp to overflow) at
# s = 0.5, tanh at s = 1.
GATE_SLOPE = np.array([0.5, 0.5, 1.0, 0.5])[:, None]


@dataclass
class LstmParams:
    """Weight tensors keyed by name, which also give the network's dims."""

    tensors: dict[str, np.ndarray]

    @property
    def input_dim(self):
        return self.tensors["w_ih0"].shape[1]

    @property
    def hidden_dim(self):
        return self.tensors["w_hh0"].shape[1]

    @property
    def output_dim(self):
        return self.tensors["w_out"].shape[0]


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
    return LstmParams(tensors)


def forward(params: LstmParams, x, state=None, want_cache=False):
    """Run the network over x of shape (T, B, input_dim), layer by layer.

    Each layer projects its whole input with one GEMM over all T*B rows;
    only h @ w_hh.T is left inside the time loop.  Returns (y, state,
    cache) with y of shape (T, B, output_dim).  The cache, None unless
    requested, holds each layer's input (T, B, D), gate activations
    (T, B, 4, H) and h, c (T + 1, B, H) with the initial state in row 0.

    Without a cache the time axis runs in blocks of FORWARD_CHUNK steps,
    each block through both layers, with (h, c) carried from block to
    block, so a long stream holds one block's gate and state arrays, not
    the whole stream's; with a cache the block is all of T.  A block's
    GEMM rows round as the same rows of a whole-stream GEMM, except in a
    one-row product, so a one-step remainder joins the block before it.
    """
    x = np.asarray(x, dtype=float)
    T, B, _ = x.shape
    nh = params.hidden_dim
    h_n, c_n = (list(s) for s in (np.zeros((2, N_LAYERS, B, nh)) if state is None else state))
    ts = params.tensors
    y = np.empty((T, B, params.output_dim))
    cache = []
    block = T if want_cache else FORWARD_CHUNK
    starts = list(range(0, T, max(block, 1)))
    if len(starts) > 1 and T - starts[-1] == 1:
        starts.pop()  # a one-step remainder joins the block before it
    for t0, t1 in zip(starts, starts[1:] + [T]):
        n, inp = t1 - t0, x[t0:t1]
        for layer in range(N_LAYERS):
            w_ih, w_hh, b = ts[f"w_ih{layer}"], ts[f"w_hh{layer}"], ts[f"b{layer}"]
            gates = (inp.reshape(n * B, -1) @ w_ih.T).reshape(n, B, 4, nh)
            gates += b.reshape(4, nh)  # in place, so no second (n, B, 4H) array is made
            h, c = np.empty((2, n + 1, B, nh))
            h[0], c[0] = h_n[layer], c_n[layer]
            for t in range(n):
                z = gates[t] + (h[t] @ w_hh.T).reshape(B, 4, nh)
                a = gates[t] = GATE_SLOPE * np.tanh(GATE_SLOPE * z) + (1.0 - GATE_SLOPE)
                c[t + 1] = a[:, 1] * c[t] + a[:, 0] * a[:, 2]
                h[t + 1] = a[:, 3] * np.tanh(c[t + 1])
            if want_cache:
                cache.append((inp, gates, h, c))
            h_n[layer], c_n[layer] = h[-1], c[-1]
            inp = h[1:]
        y[t0:t1] = (inp.reshape(n * B, nh) @ ts["w_out"].T + ts["b_out"]).reshape(n, B, -1)
    return y, (np.stack(h_n), np.stack(c_n)), cache if want_cache else None


def loss_only(params: LstmParams, x, targets, state=None):
    y, _, _ = forward(params, x, state)
    err = y - np.asarray(targets, dtype=float)
    return float(np.mean(err**2))


def loss_and_grads(params: LstmParams, x, targets, state=None):
    """MSE loss (mean over all output elements) and gradients via BPTT.

    A reversed time loop per layer fills the gate pre-activation
    gradients dz (T, B, 4, H); each weight gradient is then one GEMM (or
    sum) over all T*B rows.
    """
    y, final_state, cache = forward(params, x, state, want_cache=True)
    T, B, _ = y.shape
    err = y - np.asarray(targets, dtype=float)
    loss = float(np.mean(err**2))
    dy = ((2.0 / err.size) * err).reshape(T * B, -1)
    ts = params.tensors
    _, _, h_top, _ = cache[-1]
    grads = {"w_out": dy.T @ h_top[1:].reshape(T * B, -1), "b_out": dy.sum(axis=0)}
    dh_in = (dy @ ts["w_out"]).reshape(T, B, -1)
    for layer in range(N_LAYERS - 1, -1, -1):
        inp, gates, h, c = cache[layer]
        i, f, g, o = (gates[:, :, k] for k in range(4))
        tc = np.tanh(c[1:])
        # dc/dz of the input, forget and cell gates, dh/dz of the output gate
        dstate_dz = np.stack(
            [g * i * (1.0 - i), c[:-1] * f * (1.0 - f), i * (1.0 - g * g), tc * o * (1.0 - o)],
            axis=2,
        )
        dc_dh = o * (1.0 - tc * tc)
        dz = np.empty_like(gates)
        dh_next = dc_next = 0.0
        for t in range(T - 1, -1, -1):
            dh = dh_in[t] + dh_next
            dc = dh * dc_dh[t] + dc_next
            dz[t, :, :3] = dc[:, None] * dstate_dz[t, :, :3]
            dz[t, :, 3] = dh * dstate_dz[t, :, 3]
            dh_next = dz[t].reshape(B, -1) @ ts[f"w_hh{layer}"]
            dc_next = dc * f[t]
        dz = dz.reshape(T * B, -1)
        grads[f"w_ih{layer}"] = dz.T @ inp.reshape(T * B, -1)
        grads[f"w_hh{layer}"] = dz.T @ h[:-1].reshape(T * B, -1)
        grads[f"b{layer}"] = dz.sum(axis=0)
        dh_in = (dz @ ts[f"w_ih{layer}"]).reshape(T, B, -1)
    return loss, grads, final_state


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(tensors, grads, state: AdamState, lr=1e-4):
    """One bias-corrected Adam update, applied in place to tensors."""
    state.t += 1
    b1t = 1.0 - ADAM_BETA1**state.t
    b2t = 1.0 - ADAM_BETA2**state.t
    for k, g in grads.items():
        if k not in state.m:
            state.m[k] = np.zeros_like(g)
            state.v[k] = np.zeros_like(g)
        state.m[k] = ADAM_BETA1 * state.m[k] + (1.0 - ADAM_BETA1) * g
        state.v[k] = ADAM_BETA2 * state.v[k] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[k] / b1t
        v_hat = state.v[k] / b2t
        tensors[k] -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
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


def gradient_check(params: LstmParams, x, targets):
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
            flat[j] = keep + FD_STEP
            lp = loss_only(params, x, targets)
            flat[j] = keep - FD_STEP
            lm = loss_only(params, x, targets)
            flat[j] = keep
            num[j] = (lp - lm) / (2.0 * FD_STEP)
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
    return LstmParams(tensors)


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

