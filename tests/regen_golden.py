"""Rewrite the golden test data from the code as it stands.

    python tests/regen_golden.py sim [--dry-run]
    python tests/regen_golden.py replay [--dry-run]

`sim` writes tests/data/golden_sim: the flight of
test_sim_golden.golden_scenario, with its truth channel kept at every
TRUTH_STRIDE-th row, saved with logio.save_log.  `replay` writes the four
estimate tables of test_replay_golden.GOLDEN_TABLES, saved with
logio.save_estimate.

Each file's largest absolute change against the file it replaces is
printed first; --dry-run prints them and writes nothing.  Regenerate
only after a change has shown that its new output stays close to the
files (the golden tests state the bound), and record the printed
changes with the change.
"""

import argparse
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from windest import logio, sim  # noqa: E402

import test_replay_golden as replay_golden  # noqa: E402
import test_sim_golden as sim_golden  # noqa: E402


def report(name, path, load, t, data):
    """Print the largest |change| of data against the file at path (inf
    when there is none or its shape differs) and whether its times moved."""
    old_t, old = load(path)[0:2] if os.path.exists(path) else (None, None)
    change = np.inf if old is None or old.shape != data.shape else np.max(np.abs(data - old))
    times = "same" if old_t is not None and np.array_equal(old_t, t) else "changed"
    print(f"{name}: max |change| {change:.3g}, times {times}")


def regen_sim(dry_run):
    log = sim.run_scenario(sim_golden.golden_scenario())
    truth = log["truth"]
    stride = sim_golden.TRUTH_STRIDE
    log.add("truth", truth.t[::stride], truth.data[::stride], truth.columns)
    for name, ch in sorted(log.channels.items()):
        path = os.path.join(sim_golden.DATA, f"{name}.csv")
        report(f"golden_sim/{name}.csv", path, logio._load_csv, ch.t, ch.data)
    if not dry_run:
        logio.save_log(log, sim_golden.DATA)


def regen_replay(dry_run):
    logs = (replay_golden.model_flight(), replay_golden.hover_flight(),
            replay_golden.golden_weights())
    for name in replay_golden.GOLDEN_TABLES:
        t, table = replay_golden.golden_replay(name, *logs)
        path = os.path.join(replay_golden.DATA, name)
        report(name, path, logio.load_estimate, t, table)
        if not dry_run:
            logio.save_estimate(path, t, table)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("data", choices=("sim", "replay"))
    ap.add_argument("--dry-run", action="store_true", help="print the changes, write nothing")
    args = ap.parse_args(argv)
    (regen_sim if args.data == "sim" else regen_replay)(args.dry_run)


if __name__ == "__main__":
    main()
