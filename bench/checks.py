"""Checks on what an operation wrote, and the accuracy scored from it.

Tables are read back from the files the CLI wrote, and truth comes from
the log's truth channel; the accuracy arithmetic here is the benchmark's
own, not the package's scoring code.
"""

import math

import numpy as np


def read_table(path):
    """(column names after "t", t, data) of a CSV with a "t" first column."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if body.shape[1] != len(header):
        raise ValueError(f"{path}: {body.shape[1]} fields per row, header has {len(header)}")
    return header[1:], body[:, 0], body[:, 1:]


def expected_estimate_clock(log_dir):
    """Whisker timestamps from the first odometry row on: one estimate row each."""
    _, t_whisk, _ = read_table(f"{log_dir}/whisker.csv")
    _, t_odo, _ = read_table(f"{log_dir}/odometry.csv")
    return t_whisk[t_whisk >= t_odo[0]]


def estimate_errors(columns, t, data, estimate_columns, clock):
    """Reasons the estimate table is wrong (empty when it passes)."""
    errors = []
    if columns != list(estimate_columns):
        errors.append(f"columns {columns} != {list(estimate_columns)}")
    if not np.all(np.isfinite(data)) or not np.all(np.isfinite(t)):
        bad = int(np.sum(~np.all(np.isfinite(np.column_stack([t, data])), axis=1)))
        errors.append(f"{bad} rows with non-finite values")
    if t.shape != clock.shape or not np.array_equal(t, clock):
        errors.append(f"{t.size} rows on the wrong clock (expected {clock.size} whisker ticks)")
    return errors


def body_from_world(q, v):
    """Rotate world vectors v (n, 3) into the body frames of quaternions q (n, 4; w first)."""
    w, x, y, z = q.T
    R = np.empty((q.shape[0], 3, 3))
    R[:, 0, 0] = 1 - 2 * (y * y + z * z)
    R[:, 0, 1] = 2 * (x * y - w * z)
    R[:, 0, 2] = 2 * (x * z + w * y)
    R[:, 1, 0] = 2 * (x * y + w * z)
    R[:, 1, 1] = 1 - 2 * (x * x + z * z)
    R[:, 1, 2] = 2 * (y * z - w * x)
    R[:, 2, 0] = 2 * (x * z - w * y)
    R[:, 2, 1] = 2 * (y * z + w * x)
    R[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return np.einsum("nji,nj->ni", R, v)


def replay_accuracy(log_dir, t, data, estimate_columns):
    """Per-axis body airflow RMS, wind RMS and touch RMS against the truth channel.

    Truth is held (zero-order) onto the estimate times, over the whole
    table, as `windest replay` scores it.  Wind and touch RMS are of the
    error vector's norm.
    """
    names, t_truth, truth = read_table(f"{log_dir}/truth.csv")
    rows = truth[np.searchsorted(t_truth, t, side="right") - 1]
    col = {n: i for i, n in enumerate(names)}
    est = {n: i for i, n in enumerate(estimate_columns)}

    def pick(table, index, *keys):
        return table[:, [index[k] for k in keys]]

    v = pick(rows, col, "vx", "vy", "vz")
    q = pick(rows, col, "qw", "qx", "qy", "qz")
    wind = pick(rows, col, "wind_x", "wind_y", "wind_z")
    touch = pick(rows, col, "touch_x", "touch_y", "touch_z")
    airflow_err = pick(data, est, "vinf_bx", "vinf_by", "vinf_bz") - body_from_world(q, wind - v)
    wind_err = pick(data, est, "wind_x", "wind_y", "wind_z") - wind
    touch_err = pick(data, est, "touch_x", "touch_y", "touch_z") - touch
    return (
        np.sqrt(np.mean(airflow_err**2, axis=0)),
        math.sqrt(np.mean(np.sum(wind_err**2, axis=1))),
        math.sqrt(np.mean(np.sum(touch_err**2, axis=1))),
    )


def drag_fit_error(params, mu1_true, mu2_true):
    """Max relative error of the identified drag coefficients."""
    return max(
        abs(params["mu1"] - mu1_true) / mu1_true,
        abs(params["mu2"] - mu2_true) / mu2_true,
    )
