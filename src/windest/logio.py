"""Flight-log container, CSV round trip, resampling and the whisker driver.

A log is a directory of per-channel CSV files (`truth.csv`,
`odometry.csv`, `imu.csv`, `whisker.csv`, `throttle.csv`), each with a
time column followed by named data columns.  Values are written with
%.17g so a save/load round trip is bit-exact.  A replay reads only the
channels of its airflow source (pipeline.ROUTE_CHANNELS); truth is read
to score one or to fit the regressor.  save_log writes a log on two
processes, each formatting half of every channel's rows; save_estimate
writes its one table in this process.

The whisker driver turns raw magnetometer triples into deflection
angles: per-component outlier gate against a low-pass reference (the
reference keeps updating on rejected samples so it converges toward a
genuine step), startup calibration of per-sensor angle offsets, and a
hard clamp on the decoded angles.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import whisker
from .whisker import WhiskerRig


class LogFormatError(ValueError):
    """Malformed log/config/estimate file; message carries file:line."""


@dataclass
class Channel:
    name: str
    t: np.ndarray  # (n,)
    data: np.ndarray  # (n, k)
    columns: list[str]

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2 or self.data.shape[0] != self.t.shape[0]:
            raise ValueError(f"channel {self.name}: data must be (len(t), k)")
        if len(self.columns) != self.data.shape[1]:
            raise ValueError(f"channel {self.name}: column names do not match data width")
        self._index = {c: i for i, c in enumerate(self.columns)}

    def col(self, *names):
        """One or more named columns as an (n,) or (n, len(names)) array.
        A name the channel lacks raises LogFormatError (_missing)."""
        try:
            if len(names) == 1:
                return self.data[:, self._index[names[0]]]
            return self.data[:, [self._index[n] for n in names]]
        except KeyError as exc:
            raise self._missing(exc.args[0]) from None

    def _missing(self, name):
        """The error for a column the channel's file does not have."""
        return LogFormatError(
            f"{self.name}.csv: no column {name!r}; it has {', '.join(self.columns)}"
        )


@dataclass
class FlightLog:
    channels: dict[str, Channel] = field(default_factory=dict)

    def __getitem__(self, name) -> Channel:
        try:
            return self.channels[name]
        except KeyError:
            raise KeyError(f"log has no channel {name!r}; has {sorted(self.channels)}")

    def __contains__(self, name):
        return name in self.channels

    def add(self, name, t, data, columns):
        self.channels[name] = Channel(name, t, data, columns)


# rows formatted by one % operation
_BLOCK_ROWS = 512


def _csv_blocks(t, data):
    """The CSV body of (t, data): one row per sample, every value as %.17g,
    in strings of _BLOCK_ROWS rows.

    Each block is formatted from Python floats with one % operation, the
    row format repeated once per row (the same text as one f-string per
    value).
    """
    table = np.column_stack((t, data))
    row_fmt = ",".join(["%.17g"] * table.shape[1]) + "\n"
    for i in range(0, table.shape[0], _BLOCK_ROWS):
        block = table[i : i + _BLOCK_ROWS]
        yield (row_fmt * block.shape[0]) % tuple(block.ravel().tolist())


def _write_csv(path, columns, t, data):
    """Header line, then the body of _csv_blocks, written block by block,
    so the file's text is never held whole.

    save_estimate writes its table with it, and so does save_log where it
    cannot fork; save_log's child writes each channel's first half with
    it, which takes no BLAS call.
    """
    with open(path, "w") as fh:
        fh.write("t," + ",".join(columns) + "\n")
        fh.writelines(_csv_blocks(t, data))


def save_log(log: FlightLog, directory):
    """Write each channel to directory/<name>.csv (see _write_csv), on two
    processes.

    Each channel's rows are split at n // 2, and one os.fork() per call
    starts a child that writes every file's header and first half and
    leaves with os._exit: status 0, or 1 after sending the exception's
    text, which names the file, up a pipe.  The child only formats with
    Python % and writes files, so it makes no BLAS call (numpy's BLAS may
    hold threads the fork did not copy).  Meanwhile the parent formats
    the second halves and holds their text, about half the log's; it
    reaps the child in a finally, so no child is left behind even when
    the parent raises, and appends its halves once the child has written
    the first.  A failed child raises OSError with its message.  Where
    os.fork is missing or fails, every file is written in this process.
    """
    os.makedirs(directory, exist_ok=True)
    files = [(os.path.join(directory, f"{name}.csv"), ch) for name, ch in log.channels.items()]
    fork = getattr(os, "fork", None)
    pid = None
    if fork is not None:
        read_fd, write_fd = os.pipe()
        try:
            pid = fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
    if pid is None:
        for path, ch in files:
            _write_csv(path, ch.columns, ch.t, ch.data)
        return
    if pid == 0:
        os.close(read_fd)
        _write_first_halves(files, write_fd)
    os.close(write_fd)
    tails = []
    try:
        for _, ch in files:
            h = len(ch.t) // 2
            tails.append(list(_csv_blocks(ch.t[h:], ch.data[h:])))
    finally:
        with os.fdopen(read_fd, "rb") as pipe:
            message = pipe.read().decode(errors="replace")
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        raise OSError(message or f"save_log: the writer process ended with exit code {code}")
    for (path, _), tail in zip(files, tails):
        with open(path, "a") as fh:
            fh.writelines(tail)


def _write_first_halves(files, write_fd):
    """save_log's child: each file's header and first half, then os._exit,
    with status 1, and the failure's text on write_fd, if a file fails.
    It never returns: the caller's stack belongs to the parent."""
    status = 1
    try:
        for path, ch in files:
            h = len(ch.t) // 2
            _write_csv(path, ch.columns, ch.t[:h], ch.data[:h])
        status = 0
    except Exception as exc:
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(f"{path}: {type(exc).__name__}: {exc}".encode())
    finally:
        os._exit(status)


def _parse_rows(path, lines, width):
    """Line-by-line parse of a CSV body that starts on line 2 of `path`."""
    rows = []
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise LogFormatError(f"{path}:{lineno}: expected {width} fields, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise LogFormatError(f"{path}:{lineno}: {exc}") from None
    return np.array(rows) if rows else np.empty((0, width))


def _load_csv(path):
    """(t, data, data column names) of one CSV file.

    The body is parsed in one np.loadtxt call, which reads floats with
    the same routine as float().  If that fails, or finds rows of another
    width than the header's (or none), _parse_rows reads the body again:
    it accepts what float() accepts and names file:line of a bad row.
    """
    with open(path) as fh:
        header = fh.readline()
        if not header:
            raise LogFormatError(f"{path}:1: empty file")
        cols = [c.strip() for c in header.strip().split(",")]
        if cols[0] != "t":
            raise LogFormatError(f"{path}:1: first column must be 't', got {cols[0]!r}")
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                arr = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            arr = None
        if arr is None or arr.shape[1] != len(cols):
            fh.seek(0)
            fh.readline()
            arr = _parse_rows(path, fh, len(cols))
    return arr[:, 0], arr[:, 1:], cols[1:]


def _row_lineno(path, k):
    """File line of body row k (from 0), counting blank lines as the file has them."""
    with open(path) as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            if line.strip():
                if k == 0:
                    return lineno
                k -= 1


def load_log(directory, *names) -> FlightLog:
    """The channel CSVs of a log directory: those of the named channels,
    or every channel when no name is given.  A file that is not named is
    not opened, and a named one that is missing raises FileNotFoundError
    naming it.

    A channel whose t is not finite and strictly increasing (swapped or
    duplicate rows) raises LogFormatError at the first offending row.
    """
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"log directory {directory} does not exist")
    log = FlightLog()
    for fn in sorted(os.listdir(directory)):
        if not fn.endswith(".csv") or fn == "estimate.csv" or (names and fn[:-4] not in names):
            continue
        path = os.path.join(directory, fn)
        t, data, columns = _load_csv(path)
        bad = ~np.isfinite(t)
        bad[1:] |= t[1:] <= t[:-1]
        if bad.any():
            k = int(np.argmax(bad))
            raise LogFormatError(
                f"{path}:{_row_lineno(path, k)}: t = {float(t[k])} does not come after the "
                "previous row's; times must be finite and strictly increasing"
            )
        log.add(fn[:-4], t, data, columns)
    missing = [f"{name}.csv" for name in names if name not in log.channels]
    if missing:
        raise FileNotFoundError(f"{directory}: no {', '.join(missing)}")
    if not log.channels:
        raise LogFormatError(f"{directory}: no channel CSVs found")
    return log


def zoh_indices(src_t, clock_t):
    """Index of the latest src sample at or before each clock tick."""
    return np.searchsorted(np.asarray(src_t, dtype=float), np.asarray(clock_t, dtype=float), side="right") - 1


def window_mask(t, window):
    """True at each time inside the inclusive (t0, t1) window; all True
    when window is None."""
    t = np.asarray(t, dtype=float)
    if window is None:
        return np.ones(t.shape[0], dtype=bool)
    return (t >= window[0]) & (t <= window[1])


def resample_to_clock(log: FlightLog, clock_channel="whisker") -> FlightLog:
    """Sample-and-hold every channel onto clock_channel's timestamps: a
    log whose channels all have the same t.

    Only the overlap window (clock ticks covered by every channel) is
    kept, so no value is ever extrapolated.  Running the result through
    again is the identity.  A channel with no rows covers no tick and
    raises LogFormatError naming its file.
    """
    for name, ch in log.channels.items():
        if ch.t.shape[0] == 0:
            raise LogFormatError(f"{name}.csv: no rows; every channel resampled needs at least one")
    clock = log[clock_channel].t
    lo = max(ch.t[0] for ch in log.channels.values())
    hi = min(ch.t[-1] for ch in log.channels.values())
    clock = clock[(clock >= lo) & (clock <= hi)]
    out = FlightLog()
    for name, ch in log.channels.items():
        out.add(name, clock, ch.data[zoh_indices(ch.t, clock)], list(ch.columns))
    return out


def forward_fill(arr):
    """Replace rows holding a non-finite value by the previous finite row
    (zeros before the first): each row takes the row at the running
    maximum of the finite rows' indices, -1 (a zero row) before any."""
    arr = np.asarray(arr, dtype=float)
    flat = arr.reshape(arr.shape[0], -1)
    good = np.isfinite(flat).all(axis=1)
    src = np.maximum.accumulate(np.where(good, np.arange(flat.shape[0]), -1))
    out = np.concatenate((np.zeros((1, flat.shape[1])), flat))[src + 1]
    return out.reshape(arr.shape)


# ---------------------------------------------------------------------------
# whisker driver


@dataclass
class DriverConfig:
    alpha: float = 0.3  # low-pass blend per sample
    nsigma: float = 6.0  # outlier gate width
    threshold_floor: float = 1.0  # counts; keeps the gate sane on clean data
    clamp: float = 0.5  # rad, hard limit on decoded angles


CALIB_DURATION_S = 0.8  # s of startup data used for offsets/thresholds


def recovery_samples(threshold, step, alpha):
    """Samples until a step of the given size is re-admitted.

    The gate checks against the pre-update low-pass value, so after k
    rejected samples the residual is (1-alpha)^k * step and the first
    accepted sample is ceil(log(threshold/step)/log(1-alpha)) + 1.
    """
    if step <= threshold:
        return 1
    return int(math.ceil(math.log(threshold / step) / math.log(1.0 - alpha))) + 1


class WhiskerDriver:
    """The b-field -> angle pipeline for one rig."""

    def __init__(self, rig: WhiskerRig, config: DriverConfig = DriverConfig()):
        self.rig = rig
        self.config = config

    def run(self, t, b_stack):
        """Drive the whole (n, n_sensors, 3) field stream; returns (theta,
        accept), theta (n, n_sensors, 2) with rejected sensors NaN.

        Calibration comes first, on the rows up to t[0] + CALIB_DURATION_S
        that hold no non-finite value (none left raises ValueError): their
        mean field seeds the low-pass reference and nsigma times each
        component's std (floored at threshold_floor) is its gate width.
        Each sensor's angle offset is its mean decoded deflection over
        those of the rows that decode to finite angles (decode_field gives
        NaN where b_z <= 0); a sensor with no such row raises ValueError
        naming it.  Then each tick is gated against the reference before
        the tick's blend, and the reference blends in every finite
        component, accepted or not, so it walks toward a genuine step.

        Only the low-pass recursion runs tick by tick, on Python floats;
        the gate, the decode, the offsets, the clamp and the NaN marking
        are one pass over the stream.
        """
        t = np.asarray(t, dtype=float)
        b_stack = np.asarray(b_stack, dtype=float)
        n = t.shape[0]
        if b_stack.shape != (n, len(self.rig), 3):
            raise ValueError("field stack must be (len(t), n_sensors, 3)")
        if n == 0:
            return np.empty((0, len(self.rig), 2)), np.empty((0, len(self.rig)), dtype=bool)
        cfg = self.config
        window = b_stack[: int(t.searchsorted(t[0] + CALIB_DURATION_S, side="right"))]
        window = window[np.isfinite(window).all(axis=(1, 2))]
        if window.shape[0] == 0:
            raise ValueError("whisker channel: no finite row in the calibration window")
        thresholds = np.maximum(cfg.nsigma * window.std(axis=0), cfg.threshold_floor)
        decoded = whisker.decode_field(self.rig.sign * window)
        finite = np.isfinite(decoded).all(axis=2, keepdims=True)
        counts = finite.sum(axis=0)
        if not counts.all():
            i = int(np.argmin(counts[:, 0]))
            raise ValueError(
                f"whisker channel: sensor {i} ({self.rig.mounts[i].name}) decodes no finite "
                "angle in the calibration window"
            )
        # x + 0.0 is x: the sum over the finite rows is the rows' own sum
        offsets = np.where(finite, decoded, 0.0).sum(axis=0) / counts
        alpha = cfg.alpha
        keep = 1.0 - alpha
        lp = window.mean(axis=0).ravel().tolist()
        refs = []
        for row in b_stack.reshape(n, -1).tolist():
            refs.append(lp)
            # x - x == 0.0 holds for finite x only: NaN and inf leave lp
            lp = [keep * r + alpha * x if x - x == 0.0 else r for r, x in zip(lp, row)]
        ref = np.array(refs).reshape(b_stack.shape)
        accept = (np.abs(b_stack - ref) <= thresholds).all(axis=2)
        raw = whisker.decode_field(self.rig.sign * b_stack) - offsets
        theta = raw.clip(-cfg.clamp, cfg.clamp)
        theta[~accept] = np.nan
        return theta, accept


def whisker_fields(log: FlightLog):
    """The raw (n, n_sensors, 3) field stack of the whisker channel."""
    ch = log["whisker"]
    n_sensors = sum(1 for c in ch.columns if c.startswith("bx_"))
    cols = []
    for i in range(n_sensors):
        cols += [f"bx_{i}", f"by_{i}", f"bz_{i}"]
    flat = ch.col(*cols)
    return flat.reshape(ch.t.shape[0], n_sensors, 3)


# ---------------------------------------------------------------------------
# estimate files


ESTIMATE_COLUMNS = [
    "touch_x",
    "touch_y",
    "touch_z",
    "wind_x",
    "wind_y",
    "wind_z",
    "vinf_bx",
    "vinf_by",
    "vinf_bz",
    "drag_x",
    "drag_y",
    "drag_z",
]
# the four 3-vectors of an estimate row, as column slices of the table
TOUCH_COLS = slice(0, 3)
WIND_COLS = slice(3, 6)
VINF_COLS = slice(6, 9)
DRAG_COLS = slice(9, 12)


def save_estimate(path, t, table):
    """Write an estimate table (n, 12) with the fixed column schema."""
    t = np.asarray(t, dtype=float)
    table = np.asarray(table, dtype=float)
    if table.shape != (t.shape[0], len(ESTIMATE_COLUMNS)):
        raise ValueError(f"estimate table must be (n, {len(ESTIMATE_COLUMNS)})")
    _write_csv(path, ESTIMATE_COLUMNS, t, table)


def load_estimate(path):
    t, data, cols = _load_csv(path)
    if cols != ESTIMATE_COLUMNS:
        raise LogFormatError(f"{path}:1: unexpected estimate columns {cols}")
    return t, data


# ---------------------------------------------------------------------------
# flat key = value config files


def _read_config_value(text):
    """A config file value: text in double quotes as written, a number as
    a float, several as a float array, anything else as the text."""
    if len(text) >= 2 and text[0] == text[-1] == '"':
        return text[1:-1]
    try:
        nums = [float(p) for p in text.split()]
    except ValueError:
        return text
    if len(nums) == 1:
        return nums[0]
    return np.array(nums) if nums else text


# a config line up to its comment: runs without '"' or '#', and runs in
# double quotes (closed, or open to the line's end), where '#' is text
_CONFIG_CODE = re.compile(r'(?:[^"#]|"[^"]*"?)*')


def parse_config(path):
    """key = value file -> dict; values become float, float array or str
    (_read_config_value).  '#' starts a comment outside double quotes."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            raw = _CONFIG_CODE.match(line).group().strip()
            if not raw:
                continue
            if "=" not in raw:
                raise LogFormatError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, val = (s.strip() for s in raw.split("=", 1))
            if not key:
                raise LogFormatError(f"{path}:{lineno}: empty key")
            out[key] = _read_config_value(val)
    return out


def save_config(cfg: dict, path, header=None):
    with open(path, "w") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for key, val in cfg.items():
            if isinstance(val, str):
                read = _read_config_value(val.strip())
                # "7" would read as 7.0, and a # outside quotes starts a comment
                if not (isinstance(read, str) and read == val) or "#" in val:
                    val = f'"{val}"'
                fh.write(f"{key} = {val}\n")
            elif np.ndim(val) == 0:
                fh.write(f"{key} = {float(val):.17g}\n")
            else:
                fh.write(f"{key} = " + " ".join(f"{float(v):.17g}" for v in np.ravel(val)) + "\n")

