"""Piecewise path representations used by the queue encodings.

Two exact (breakpoint-based, no gridding) representations:

* ``CadlagStepPath`` -- drift -1 between positive jumps at strictly
  increasing times; the load paths of both queues.
* ``StepFunction`` -- piecewise-constant cadlag function; height paths,
  and coding functions of metric spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np


# The path types compare by identity (eq=False): a field-wise == would
# take the truth value of numpy arrays, which raises.
@dataclass(frozen=True, eq=False)
class CadlagStepPath:
    """Path t -> -t + sum of jump sizes at times <= t.

    ``times`` finite and strictly increasing, ``sizes`` positive and
    finite.  ``horizon`` (not NaN) is the right end of the observation
    window (the path itself extends past it with pure drift).
    """

    times: np.ndarray
    sizes: np.ndarray
    horizon: float
    _cum: np.ndarray = field(repr=False, default=None)

    def __init__(self, times, sizes, horizon):
        times = np.asarray(times, dtype=float)
        sizes = np.asarray(sizes, dtype=float)
        if times.shape != sizes.shape or times.ndim != 1:
            raise ValueError("times and sizes must be 1-d of equal length")
        ok = (np.isfinite(times).all() and (np.diff(times) > 0).all()
              and ((sizes > 0) & (sizes < math.inf)).all())
        if not ok or math.isnan(horizon):
            raise ValueError("times must be finite and strictly increasing, "
                             "sizes positive and finite, horizon not NaN")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "horizon", float(horizon))
        object.__setattr__(self, "_cum", np.concatenate(([0.0], np.cumsum(sizes))))

    def value(self, t):
        """Cadlag value at t (scalar or array)."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.times, t, side="right")
        out = -t + self._cum[idx]
        return float(out) if out.ndim == 0 else out

    def value_left(self, t):
        """Left limit at t."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.times, t, side="left")
        out = -t + self._cum[idx]
        return float(out) if out.ndim == 0 else out

    @cached_property
    def reflected(self) -> np.ndarray:
        """Level of the reflected path R = Y - J just after each jump: R
        starts at 0, drifts down at unit rate, stops at 0, and each jump
        adds its size.  Computed on first read and kept."""
        r, prev_t, out = 0.0, 0.0, []
        for t, x in zip(self.times.tolist(), self.sizes.tolist()):
            r -= t - prev_t
            r = (0.0 if r < 0.0 else r) + x    # max(r, 0.0) + x, inlined
            out.append(r)
            prev_t = t
        return np.array(out, dtype=float)

    def running_inf(self, t):
        """Running infimum J_t = inf_{s <= t} of the path (value 0 at time
        0): Y - R, with R drifting down from its level at the last jump by
        t (0 at time 0) until it stops at 0."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.times, t, side="right")
        last_t = np.concatenate(([0.0], self.times))[idx]
        last_r = np.concatenate(([0.0], self.reflected))[idx]
        out = self.value(t) - np.maximum(last_r - (t - last_t), 0.0)
        return float(out) if out.ndim == 0 else out

    def min_on(self, a: float, b: float) -> float:
        """Minimum of the path over the closed interval [a, b]."""
        if b < a:
            a, b = b, a
        lo, hi = np.searchsorted(self.times, a, side="right"), \
            np.searchsorted(self.times, b, side="right")
        m = self.value(b)
        if hi > lo:
            pre = -self.times[lo:hi] + self._cum[lo:hi]
            m = min(m, float(pre.min()))
        return m


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Piecewise-constant cadlag function: value ``values[i]`` on [times[i], times[i+1])."""

    times: np.ndarray
    values: np.ndarray

    def __init__(self, times, values):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or times.size == 0:
            raise ValueError("times and values must be nonempty 1-d of equal length")
        if not (np.isfinite(times).all() and (np.diff(times) > 0).all()):
            raise ValueError("times must be finite and strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.times, t, side="right") - 1
        out = self.values[np.clip(idx, 0, None)]  # constant extension left
        return float(out) if out.ndim == 0 else out

    def _window(self, a: float, b: float) -> np.ndarray:
        """Values in force on [a, b], either way round."""
        if b < a:
            a, b = b, a
        lo, hi = np.searchsorted(self.times, (a, b), side="right") - 1
        return self.values[max(lo, 0):hi + 1]

    def min_on(self, a: float, b: float) -> float:
        """Minimum over [a, b] (the function is constant between breakpoints)."""
        return float(self._window(a, b).min())

    def max_on(self, a: float, b: float) -> float:
        return float(self._window(a, b).max())

    def shifted(self, dt: float) -> "StepFunction":
        return StepFunction(self.times + dt, self.values)

    def restricted(self, a: float, b: float) -> "StepFunction":
        """Restriction to [a, b), re-anchored so a breakpoint sits at a."""
        lo = np.searchsorted(self.times, a, side="right") - 1
        hi = np.searchsorted(self.times, b, side="left")
        times = self.times[max(lo, 0):hi].copy()
        values = self.values[max(lo, 0):hi].copy()
        if times.size == 0 or times[0] > a:
            times = np.concatenate(([a], times))
            values = np.concatenate(([self(a)], values))
        else:
            times[0] = a
        return StepFunction(times, values)


def uniform_distance(f: StepFunction, g: StepFunction) -> float:
    """sup |f - g| over [0, infinity), both extended by their last value."""
    grid = np.union1d(f.times, g.times)
    return float(np.max(np.abs(f(grid) - g(grid))))


def modulus_of_continuity(f: StepFunction, delta: float) -> float:
    """Exact max of |f(s) - f(t)| over |s - t| <= delta for a step function.

    The extrema of f over a closed window are attained at breakpoint
    values inside the window or at the value in force at its left edge,
    so it suffices to scan windows ending at each breakpoint and at each
    breakpoint + delta.
    """
    if not delta >= 0:
        raise ValueError("delta must be nonnegative")
    t, v = f.times, f.values
    best = 0.0
    # any positive window straddles each single jump; computing this floor
    # directly keeps deltas below the breakpoint ulp scale exact
    if delta > 0 and v.size > 1:
        best = float(np.max(np.abs(np.diff(v))))
    ends = np.union1d(t, t + delta)
    for u in ends:
        lo_edge = f(max(u - delta, t[0]))
        i = np.searchsorted(t, u - delta, side="right")
        j = np.searchsorted(t, u, side="right")
        if i < j:
            seg = v[i:j]
            hi = max(float(seg.max()), lo_edge)
            lo = min(float(seg.min()), lo_edge)
            best = max(best, hi - lo)
    return float(best)


def height_of_path(y: CadlagStepPath) -> StepFunction:
    """Height functional of a drift -1 step path.

    At time t it counts the jump times s <= t whose pre-jump level still
    lies strictly below the infimum of the path over [s, t]; equivalently
    the stack of unfinished jump records, closed when the path drifts back
    down to their pre-jump level (``_replay_stack``).
    """
    return _replay_stack(zip(y.times.tolist(), y.sizes.tolist())).H


class _Replay(NamedTuple):
    """Result of ``_replay_stack``; client k is the k-th arrival kept and
    entry 0 of every array is unused (0)."""

    tau: np.ndarray           # arrival times
    parent: np.ndarray        # client on top of the stack at arrival, 0 if empty
    pre_level: np.ndarray     # load just before the arrival
    departure: np.ndarray     # +inf if still queued at the end
    empty_epochs: np.ndarray  # times at which a departure emptied the stack
    end: float
    H: StepFunction           # stack depth on [0, end]


def _replay_stack(arrivals, horizon=math.inf, stop_at_empty=math.inf) -> _Replay:
    """Preemptive-LIFO stack replay of the load path -t + sum of sizes.

    ``arrivals`` yields time-sorted (time, size) pairs and is read lazily,
    one pair at a time.  A client departs when the load drifts back down
    to its pre-arrival level.  The replay stops at the first arrival past
    ``horizon`` (clients still queued there keep departure +inf) or at the
    ``stop_at_empty``-th departure that empties the stack, whichever comes
    first; with neither it drains the stack after the last arrival.  The
    end time is that empty epoch, else the horizon, else the last event.
    """
    tau, parent, pre_level, departure = [0.0], [0], [0.0], [0.0]
    h_times, h_values = [0.0], [0]
    empty = []
    stack = []  # (client, pre-arrival level)
    cur_t, cur_v = 0.0, 0.0
    # a final pseudo-arrival at the horizon drains what departs by then
    for t, x in chain(arrivals, ((horizon, None),)):
        if t > horizon:
            t, x = horizon, None
        while stack and cur_v - (t - cur_t) <= stack[-1][1]:
            k, p = stack.pop()
            cur_t = departure[k] = cur_t + (cur_v - p)
            cur_v = p
            h_times.append(cur_t)
            h_values.append(len(stack))
            if not stack:
                empty.append(cur_t)
        if x is None or len(empty) >= stop_at_empty:
            break
        k = len(tau)
        pre = cur_v - (t - cur_t)
        tau.append(t)
        parent.append(stack[-1][0] if stack else 0)
        pre_level.append(pre)
        departure.append(math.inf)
        stack.append((k, pre))
        cur_t, cur_v = t, pre + x
        h_times.append(t)
        h_values.append(len(stack))
    if len(empty) >= stop_at_empty:
        end = empty[-1]
    elif math.isfinite(horizon):
        end = float(horizon)
    else:
        end = max(cur_t, tau[-1])
    h_times = np.asarray(h_times)
    keep = h_times <= end
    return _Replay(
        tau=np.asarray(tau), parent=np.asarray(parent, dtype=np.int64),
        pre_level=np.asarray(pre_level), departure=np.asarray(departure),
        empty_epochs=np.asarray(empty), end=end,
        H=_collapsed(h_times[keep], np.asarray(h_values, dtype=float)[keep]))


def _collapsed(times, values) -> StepFunction:
    """Step function through time-sorted breakpoints; of equal times the
    last value holds."""
    keep = np.concatenate((np.diff(times) > 0, [True]))
    return StepFunction(times[keep], values[keep])


_BLOCK_CELLS = 1 << 16


def _write_csv(path, header, columns):
    """The one writer of result files: a header row, then row i of item i of
    each equal-length column, CRLF line ends.  A cell is ``str`` of its value
    (for a float, its round-tripping ``repr``); string cells are fixed tokens
    that need no quoting.  Memory is bounded by one block of cells."""
    step = max(1, _BLOCK_CELLS // len(columns))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(str, header)) + "\r\n")
        for a in range(0, len(columns[0]), step):
            parts = [c[a:a + step] for c in columns]
            cells = [map(str, p.tolist() if isinstance(p, np.ndarray) else p)
                     for p in parts]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _write_trace_csv(path, clients, arrival, departure, load, height,
                     **extra):
    """Rows (time, event, client, Y, H, *extra), one per arrival and per
    finite departure, by time, arrivals first, then by client; arrays are
    indexed by client id, and Y and H read ``load`` and ``height``."""
    ids = np.tile(clients, 2)
    kind = np.repeat([0, 1], clients.size)
    time = np.where(kind, departure[ids], arrival[ids])
    order = np.lexsort((ids, kind, time))
    order = order[np.isfinite(time[order])]
    ids, kind, time = ids[order], kind[order], time[order]
    _write_csv(path, ["time", "event", "client", "Y", "H", *extra], [
        time, [("arrival", "departure")[k] for k in kind.tolist()], ids,
        load.value(time), height(time).astype(np.int64),
        *(column[ids] for column in extra.values())])
