"""Set-up: the inputs each workload's operations run on, made from a seed.

Run as a script it makes one set of inputs in a fresh process, which is
what `setup_s` times:

    python3 bench/inputs.py --workload replay_model --seed 1 --out DIR

Each replay gets a simulated flight log.  The learned route also gets its
regressor, fitted the way a user fits it and with fixed seeds:
`windest sysid` and `windest train` on a simulated circular flight, whose
identified parameters the replay then uses.  `meta.json` in DIR describes
what was made, with the fit's drag error and validation loss.
"""

import argparse
import contextlib
import io
import json
import math
import os
import re
import shutil
import sys
from pathlib import Path

import checks

WORKLOADS = ("replay_model", "replay_lstm_long")

# Sizes: "full" is what BENCHMARK.json runs; "tiny" exists for the smoke test.
SIZES = {
    "full": {
        "phase_len": 2.0,  # s per four_phase phase (the scenario default is 10)
        "long_duration": 25.0,  # s of joystick mission for replay_lstm_long
        # the regressor's circular flight: 1 s holds instead of 8 s (26.5 s
        # of flight); its drag fit is 1.4% off (criterion 2 allows 10%)
        "circular": {"hold": 1.0},
        "train_epochs": 20,
        # set-ups per timed run (setup_s is their median)
        "setups": {"replay_model": 2, "replay_lstm_long": 2},
    },
    "tiny": {
        "phase_len": 0.5,
        "long_duration": 5.0,
        "circular": {"speeds": (1.0, 3.0), "hold": 1.5},
        "train_epochs": 2,
        "setups": {"replay_model": 1, "replay_lstm_long": 1},
    },
}

TRAIN_FLIGHT_SEED = 9001  # fixed: the regressor is the same for every workload seed
# The long flight's path is fixed (it is the one joystick_scenario(seed=7)
# flies); --seed draws its noise, biases and offsets, as it does for the
# fixed four_phase plan.  With a seeded path, accuracy varied by ~18%
# (quartile spread) across seeds with the same code.
LONG_PATH_SEED = 1007
TRAIN_SEED = 0
TRAIN_LR = 3e-3
DRAG_ERR_BOUND = 0.10  # acceptance criterion 2


def cli(argv):
    """`windest <argv>` in this process; returns (exit code, stdout)."""
    from windest import cli as windest_cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = windest_cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def _cli_ok(argv):
    code, printed = cli(argv)
    if code != 0:
        raise RuntimeError(f"windest {argv[0]} exited with code {code}")
    return printed


def fit_regressor(out, size):
    """`windest sysid` and `windest train` on a simulated circular flight.

    Writes params.cfg and weights.csv into `out`; returns the drag fit's
    error and the printed validation loss, after checking both.
    """
    from windest import acceptance, logio, sim, vehicle

    sz = SIZES[size]
    flight = os.path.join(out, "circular")
    sc = sim.circular_scenario(seed=TRAIN_FLIGHT_SEED, interference=acceptance.INTERFERENCE_GAIN,
                               **sz["circular"])
    logio.save_log(sim.run_scenario(sc), flight)
    cfg, weights = os.path.join(out, "params.cfg"), os.path.join(out, "weights.csv")
    _cli_ok(["sysid", flight, "--out", cfg])
    printed = _cli_ok(["train", flight, "--config", cfg, "--epochs", sz["train_epochs"],
                       "--lr", TRAIN_LR, "--seed", TRAIN_SEED, "--out", weights])
    shutil.rmtree(flight)
    truth = vehicle.VehicleParams()
    drag_err = checks.drag_fit_error(logio.parse_config(cfg), truth.mu1, truth.mu2)
    if not drag_err < DRAG_ERR_BOUND:
        raise RuntimeError(f"drag fit error {drag_err:.3f} not below {DRAG_ERR_BOUND}")
    val = re.search(r"val loss ([0-9.eE+-]+|nan|inf)", printed)
    val_loss = float(val.group(1)) if val else math.nan
    if not math.isfinite(val_loss):
        raise RuntimeError(f"val loss not finite: {printed.strip()!r}")
    return {"drag_fit_err": drag_err, "val_loss": val_loss, "fit_flight_s": sc.plan.duration}


def import_windest():
    """Import `windest` and its CLI from this checkout's src/, or exit 2 if it has none.

    The CLI imports every module, so all of them are loaded before a tracer
    patches any: a module first imported while one is installed would keep
    the wrappers it imported after the tracer is gone.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "windest" / "__init__.py").is_file():
        print(f"error: no windest package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import windest

    if Path(windest.__file__).resolve().parent != (src / "windest").resolve():
        print(f"error: imported windest from {windest.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    import windest.cli  # noqa: F401  (part of every set-up's cost)

    return windest


def make_inputs(workload, seed, size, out):
    """Write the inputs for one workload into directory `out`; returns meta."""
    from windest import acceptance, logio, sim

    sz = SIZES[size]
    os.makedirs(out, exist_ok=True)
    meta = {"workload": workload, "seed": seed, "size": size}
    if workload == "replay_model":
        sc = sim.four_phase_scenario(seed=seed, phase_len=sz["phase_len"])
    elif workload == "replay_lstm_long":
        meta.update(fit_regressor(out, size))
        path = sim.JoystickTrajectory(seed=LONG_PATH_SEED, duration=sz["long_duration"])
        sc = sim.Scenario("joystick", sim.FlightPlan(path),
                          noise=sim.NoiseSpec(interference_gain=acceptance.INTERFERENCE_GAIN),
                          seed=seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    logio.save_log(sim.run_scenario(sc), os.path.join(out, "log"))
    meta["flight_s"] = sc.plan.duration
    with open(os.path.join(out, "meta.json"), "w") as fh:
        json.dump(meta, fh)
    return meta


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    import_windest()
    make_inputs(args.workload, args.seed, args.size, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
