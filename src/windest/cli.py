"""Command line front end: simulate, identify, train, estimate, score.

Every subcommand reads and writes the plain CSV formats from logio, so
any stage can be rerun or swapped out by hand.  WINDEST_OUT sets the
default output directory; explicit --out flags win.
"""

import argparse
import inspect
import os
import sys
import time

import numpy as np

from . import acceptance, lstm, pipeline, sim, sysid
from .geometry import CovarianceError
from .logio import (
    DRAG_COLS,
    TOUCH_COLS,
    WIND_COLS,
    load_estimate,
    load_log,
    parse_config,
    save_config,
    save_estimate,
    save_log,
)
from .pipeline import EstimatorConfig


def _out_dir():
    d = os.environ.get("WINDEST_OUT", ".")
    os.makedirs(d, exist_ok=True)
    return d


def _load_config(path):
    if path is None:
        return EstimatorConfig()
    d = parse_config(path)
    try:
        return pipeline.config_from_dict(d)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_sim(args):
    factory = sim.SCENARIOS[args.scenario]
    kwargs = {"seed": args.seed}
    if args.interference:
        kwargs["interference"] = args.interference
    if args.thrust_scale != 1.0:
        kwargs["thrust_scale"] = args.thrust_scale
    takes = inspect.signature(factory).parameters
    for key in kwargs:
        if key not in takes:
            raise ValueError(f"--{key.replace('_', '-')} not supported for {args.scenario}")
    sc = factory(**kwargs)
    out = args.out or os.path.join(_out_dir(), f"{args.scenario}_{args.seed}")
    start = time.perf_counter()
    try:
        log = sim.run_scenario(sc)
    except sim.SimulationDiverged as exc:
        save_log(exc.partial_log, out)
        print(f"error: {exc}; partial log written to {out}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - start
    save_log(log, out)
    for name in sorted(log.channels):
        ch = log[name]
        print(f"{name}: {ch.t.size} rows, {ch.t[0]:.2f}..{ch.t[-1]:.2f} s")
    flight = sc.plan.duration
    print(f"simulated {flight:.2f} s of flight in {wall:.3f} s wall time: "
          f"realtime factor {flight / wall:.1f}, {wall / flight:.4f} s per flight-second")
    print(f"log written to {out}")
    return 0


def cmd_sysid(args):
    log = load_log(args.log, "odometry", "whisker")
    cfg = EstimatorConfig()
    odo = log["odometry"]
    # an odometry row holding a non-finite value is left out, as the replay
    # leaves it out: the low-pass before differentiating would spread it
    keep = np.isfinite(odo.data).all(axis=1)
    t_odo = odo.t[keep]
    q = odo.col("qw", "qx", "qy", "qz")[keep]
    v = odo.col("vx", "vy", "vz")[keep]
    w = odo.col("wx", "wy", "wz")[keep]

    speed, force = sysid.collect_drag_samples(t_odo, q, v, cfg.vehicle.mass)
    fit = sysid.fit_drag_polynomial(speed, force)
    t_theta, theta, _ = pipeline.driver_angles(log, cfg)
    coeffs = sysid.identify_rig_coefficients(t_theta, theta, t_odo, q, v, w, cfg.rig)

    params = pipeline.config_to_dict(cfg)
    params.update(mu1=fit.mu1, mu2=fit.mu2)
    params.update((f"sensor{i}_coeff", float(c)) for i, c in enumerate(coeffs))
    try:  # a file that estimate and train would refuse is not written
        pipeline.config_from_dict(params)
    except ValueError as exc:
        raise ValueError(f"{args.log}: fit outside the config domain: {exc}") from None
    out = args.out or os.path.join(_out_dir(), "params.cfg")
    save_config(params, out, header="identified from a still-air flight")
    print(f"drag polynomial: mu1 {fit.mu1:.5f} N s/m, mu2 {fit.mu2:.5f} N s^2/m^2 "
          f"({len(speed)} samples)")
    print("sensor coefficients: " + ", ".join(f"{c:.6g}" for c in coeffs))
    print(f"params written to {out}")
    return 0


def cmd_train(args):
    cfg = _load_config(args.config)
    blocks = [pipeline.training_block(load_log(d), cfg) for d in args.logs]
    tc = lstm.TrainConfig(epochs=args.epochs, lr=args.lr, seed=args.seed)
    params, history = lstm.train(blocks, tc)
    out = args.out or os.path.join(_out_dir(), "weights.csv")
    lstm.save_params(params, out)
    last = history[-1]
    print(f"{len(blocks)} blocks, {args.epochs} epochs: "
          f"train loss {last[1]:.4f}, val loss {last[2]:.4f}")
    print(f"weights written to {out}")
    return 0


def cmd_estimate(args):
    if args.weights is not None and args.airflow_source != "lstm":
        raise ValueError("--weights is read only with --airflow-source lstm "
                         f"(the {args.airflow_source} route would ignore it)")
    cfg = _load_config(args.config)
    log = load_log(args.log, *pipeline.ROUTE_CHANNELS[args.airflow_source])
    weights = None
    if args.airflow_source == "lstm":
        if args.weights is None:
            raise ValueError("--airflow-source lstm requires --weights")
        weights = lstm.load_params(args.weights)
    t, table = pipeline.run_estimate(log, cfg, source=args.airflow_source, weights=weights)
    out = args.out or os.path.join(_out_dir(), "estimate.csv")
    save_estimate(out, t, table)
    print(f"{t.size} rows ({args.airflow_source} airflow) written to {out}")
    return 0


def cmd_replay(args):
    cfg = _load_config(args.config)
    log = load_log(args.log, "truth")
    t, table = load_estimate(args.estimate)
    r = pipeline.airflow_rms(log, t, table)
    print(f"airflow rms [m/s]: x {r[0]:.3f}  y {r[1]:.3f}  z {r[2]:.3f}")

    drag_true = np.linalg.norm(pipeline.truth_drag(log, t, cfg.vehicle), axis=1)
    drag_est = np.linalg.norm(table[:, DRAG_COLS], axis=1)
    err = pipeline.rms(drag_est - drag_true)
    print(f"drag magnitude rms error [N]: {err:.3f} (truth mean {drag_true.mean():.3f})")

    wind_true = np.linalg.norm(
        pipeline.truth_cols(log, t, "wind_x", "wind_y", "wind_z"), axis=1
    )
    touch_true = np.linalg.norm(
        pipeline.truth_cols(log, t, "touch_x", "touch_y", "touch_z"), axis=1
    )
    wind_est = np.linalg.norm(table[:, WIND_COLS], axis=1)
    touch_est = np.linalg.norm(table[:, TOUCH_COLS], axis=1)
    for label, mask in (("wind phase", wind_true > 0.1), ("touch phase", touch_true > 0.1)):
        if not np.any(mask):
            print(f"{label}: none")
            continue
        print(
            f"{label} ({int(mask.sum())} rows): "
            f"est wind {wind_est[mask].mean():.2f} truth {wind_true[mask].mean():.2f} m/s, "
            f"est touch {touch_est[mask].mean():.2f} truth {touch_true[mask].mean():.2f} N"
        )
    return 0


def cmd_eval(args):
    picks = None
    if args.only:
        picks = sorted({int(s) for s in args.only.split(",")})
        bad = [i for i in picks if not 1 <= i <= len(acceptance.CRITERIA)]
        if bad:
            raise ValueError(f"unknown criteria {bad}")
    return 0 if acceptance.run_all(picks) else 1


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="windest",
        description="wind, drag and touch estimation for a whisker-equipped multirotor",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sim", help="run a closed-loop flight and write its log")
    s.add_argument("--scenario", choices=sim.SCENARIOS, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--interference", type=float, default=0.0,
                   help="rotor interference gain (circular/joystick)")
    s.add_argument("--thrust-scale", type=float, default=1.0,
                   help="actuator miscalibration factor (circular/four_phase)")
    s.add_argument("--out", help="log directory")
    s.set_defaults(func=cmd_sim)

    s = sub.add_parser("sysid", help="fit drag polynomial and sensor coefficients")
    s.add_argument("log", help="log directory of a still-air flight with speed sweeps")
    s.add_argument("--out", help="output params file")
    s.set_defaults(func=cmd_sysid)

    s = sub.add_parser("train", help="train the airflow regressor on one or more logs")
    s.add_argument("logs", nargs="+", help="log directories")
    s.add_argument("--config", help="estimator params file")
    s.add_argument("--epochs", type=int, default=lstm.TrainConfig.epochs)
    s.add_argument("--lr", type=float, default=lstm.TrainConfig.lr)
    s.add_argument("--seed", type=int, default=lstm.TrainConfig.seed)
    s.add_argument("--out", help="output weights file")
    s.set_defaults(func=cmd_train)

    s = sub.add_parser("estimate", help="replay a log through the filter")
    s.add_argument("log", help="log directory")
    s.add_argument("--airflow-source", choices=("model", "lstm"), default="model")
    s.add_argument("--weights", help="regressor weights (only with --airflow-source lstm)")
    s.add_argument("--config", help="estimator params file")
    s.add_argument("--out", help="output estimate file")
    s.set_defaults(func=cmd_estimate)

    s = sub.add_parser("replay", help="score an estimate file against logged truth")
    s.add_argument("log", help="log directory")
    s.add_argument("estimate", help="estimate CSV")
    s.add_argument("--config", help="estimator params file")
    s.set_defaults(func=cmd_replay)

    s = sub.add_parser("eval", help="run the acceptance criteria")
    s.add_argument("--only", help="comma-separated criterion numbers, e.g. 7,9,10")
    s.set_defaults(func=cmd_eval)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # LogFormatError is a ValueError; a covariance the filter cannot
    # factorize in the middle of a replay is a CovarianceError
    except (FileNotFoundError, NotADirectoryError, ValueError, CovarianceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
