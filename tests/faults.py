"""Fault injection for flight logs: the defects real logs carry.

Each helper leaves its input alone: the log helpers return a mutated
copy, and swap_lines rewrites one file of a log saved to disk.
"""

import numpy as np

from windest.logio import FlightLog


def drop_window(log: FlightLog, t0, t1):
    """Copy of log with the rows of every channel in [t0, t1) removed."""
    out = FlightLog()
    for name, ch in log.channels.items():
        keep = (ch.t < t0) | (ch.t >= t1)
        out.add(name, ch.t[keep], ch.data[keep], list(ch.columns))
    return out


def truncate_channel(log: FlightLog, channel, t):
    """Copy of log with channel's rows at or after t removed, the channel
    ending early as a log whose recording of one sensor stopped."""
    ch = log[channel]
    keep = ch.t < t
    out = FlightLog(dict(log.channels))
    out.add(channel, ch.t[keep], ch.data[keep], list(ch.columns))
    return out


def set_value(log: FlightLog, channel, column, t, value=np.nan):
    """Copy of log with one value replaced: column of channel's first row at
    or after t.  Returns (log, row)."""
    ch = log[channel]
    row = int(np.searchsorted(ch.t, t))
    data = ch.data.copy()
    data[row, ch.columns.index(column)] = value
    out = FlightLog(dict(log.channels))
    out.add(channel, ch.t, data, ch.columns)
    return out, row


def swap_lines(path, a, b):
    """Swap lines a and b of a text file, numbered from 1 as the file has them."""
    with open(path) as fh:
        lines = fh.readlines()
    lines[a - 1], lines[b - 1] = lines[b - 1], lines[a - 1]
    with open(path, "w") as fh:
        fh.writelines(lines)
