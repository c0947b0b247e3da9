"""Span recording by wrapping `windest` functions at their attributes.

A `Tracer` patches every function of `layers.LAYERS` while it is
installed.  Each wrapped call appends one span (layer id, parent span,
start, end) to flat lists; the span open when a call starts is its
parent.  Nothing in `src/` changes: the wrappers live only in the
benchmark process, and `uninstall` puts the original objects back.
"""

import importlib
import sys
import time
from contextlib import contextmanager

import numpy as np

from layers import LAYERS

PACKAGE = "windest"
ROOT = -1  # parent id of a span opened with no other span open


def _accept_mask(args, result):
    accept = np.asarray(result[1])
    return "logio.WhiskerDriver.accept_ratio", int(accept.sum()), int(accept.size)


def _accepted_flag(args, result):
    return "ukf.update.accept_ratio", int(bool(result[1])), 1


def _rows_loaded(args, result):
    return "logio.load_log.rows_per_s", sum(ch.t.size for ch in result.channels.values()), 0


def _rows_saved(args, result):
    return "logio.save_log.rows_per_s", sum(ch.t.size for ch in args[0].channels.values()), 0


def _epochs(args, result):
    return "lstm.train.epochs", len(result[1]), 0


def _flight_seconds(args, result):
    t = result["truth"].t
    return "sim.run_scenario.flight_s", float(t[-1] - t[0]), 0


# counters taken from a wrapped call's arguments or result:
# (ratio name, numerator, denominator); a 0 denominator means "per second
# spent inside the function"
OBSERVERS = {
    "logio.WhiskerDriver.run": _accept_mask,
    "ukf.update_odometry": _accepted_flag,
    "ukf.update_airflow": _accepted_flag,
    "ukf.update_pseudo_airflow": _accepted_flag,
    "logio.load_log": _rows_loaded,
    "logio.save_log": _rows_saved,
    "lstm.train": _epochs,
    "sim.run_scenario": _flight_seconds,
}


class Tracer:
    """Flat span store plus the attribute patches that feed it."""

    def __init__(self):
        self.names = [layer.target for layer in LAYERS]
        self.lid = []
        self.parent = []
        self.start = []
        self.end = []
        self.counts = {}  # ratio name -> [numerator, denominator]
        self._stack = [ROOT]
        self._patches = []  # (owner, attribute, original)
        self._originals = [self._resolve(name) for name in self.names]

    # -- patching ----------------------------------------------------------

    @staticmethod
    def _resolve(target):
        parts = target.split(".")
        owner = importlib.import_module(f"{PACKAGE}.{parts[0]}")
        for part in parts[1:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1], owner.__dict__[parts[-1]]

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for lid, (owner, attr, fn) in enumerate(self._originals):
            wrapper = self._wrap(fn, lid, OBSERVERS.get(self.names[lid]))
            owners = [owner]
            if isinstance(owner, type(sys)):
                # aliases made by "from .module import name" elsewhere in the package
                owners += [m for m in modules if m is not owner and m.__dict__.get(attr) is fn]
            for o in owners:
                setattr(o, attr, wrapper)
                self._patches.append((o, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap(self, fn, lid, observe):
        lids, parents, starts, ends, stack = self.lid, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(lids)
            lids.append(lid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                self._count(*observe(args, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def _count(self, name, num, den):
        c = self.counts.setdefault(name, [0, 0])
        c[0] += num
        c[1] += den

    # -- spans opened by the benchmark itself --------------------------------

    @contextmanager
    def span(self, name):
        """A span for work the benchmark drives (an operation, a set-up)."""
        if name not in self.names:
            self.names.append(name)
        lid = self.names.index(name)
        i = len(self.lid)
        self.lid.append(lid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            yield i
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def take(self):
        """Hand over the recorded spans as arrays and clear the store."""
        spans = Spans(
            np.array(self.lid, dtype=np.int64),
            np.array(self.parent, dtype=np.int64),
            np.array(self.start),
            np.array(self.end),
        )
        for lst in (self.lid, self.parent, self.start, self.end):
            lst.clear()
        return spans


class Spans:
    """One batch of spans (ids are positions in the batch)."""

    def __init__(self, lid, parent, start, end):
        self.lid, self.parent, self.start, self.end = lid, parent, start, end

    @property
    def duration(self):
        return self.end - self.start

    def self_time(self):
        """Span duration minus the time its direct children cover."""
        dur = self.duration
        child = np.zeros_like(dur)
        has = self.parent >= 0
        np.add.at(child, self.parent[has], dur[has])
        return dur - child

    def nesting_errors(self):
        """Why these spans are not one tree under span 0 (empty when they are)."""
        errors = []
        roots = np.flatnonzero(self.parent == ROOT)
        if roots.tolist() != [0]:
            errors.append(f"expected one root span at index 0, found roots {roots[:5].tolist()}")
        idx = np.flatnonzero(self.parent >= 0)
        par = self.parent[idx]
        if np.any(par >= idx):
            errors.append("a span's parent opened after it")
        else:
            eps = 1e-9
            outside = (self.start[idx] < self.start[par] - eps) | (self.end[idx] > self.end[par] + eps)
            if np.any(outside):
                errors.append(f"{int(outside.sum())} spans end outside their parent")
        if np.any(self.duration < 0):
            errors.append("a span ends before it starts")
        return errors
