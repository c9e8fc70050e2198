"""Piecewise path representations used by the queue encodings.

Two exact (breakpoint-based, no gridding) representations:

* ``CadlagStepPath`` -- drift -1 between positive jumps at strictly
  increasing times; the load paths of both queues.
* ``StepFunction`` -- piecewise-constant cadlag function; height paths,
  and coding functions of metric spaces.
"""

from __future__ import annotations

import math
import os
import shutil
import sys
import tempfile
import threading
import warnings
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
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
        lo, hi = np.searchsorted(self.times, (a, b), side="right")
        pre = -self.times[lo:hi] + self._cum[lo:hi]
        return min(self.value(b), float(pre.min(initial=math.inf)))


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


def uniform_distance(f: StepFunction, g: StepFunction) -> float:
    """sup |f - g| over [0, infinity), both extended by their last value."""
    grid = _sorted_unique(np.concatenate((f.times, g.times)))
    return float(np.max(np.abs(f(grid) - g(grid))))


def modulus_of_continuity(f: StepFunction, delta: float) -> float:
    """Exact max of |f(s) - f(t)| over |s - t| <= delta for a step function.

    The values f takes on a closed window are the breakpoint values in
    force on it, and those on a window are among those on the window of
    the same width ending at its last breakpoint.  So window k is
    ``values[a_k:k + 1]``, from the value in force at t_k - delta; its max
    and min are those of its first and last 2**m values, for the largest
    2**m not above its length, which one doubling pass gives for every m.
    """
    if not delta >= 0:
        raise ValueError("delta must be nonnegative")
    t, v = f.times, f.values
    best = 0.0
    # any positive window straddles each single jump; computing this floor
    # directly keeps deltas below the breakpoint ulp scale exact
    if delta > 0 and v.size > 1:
        best = float(np.max(np.abs(np.diff(v))))
    a = np.maximum(np.searchsorted(t, t - delta, side="right") - 1, 0)
    # window k, v[a_k:k + 1], holds 2**level_k to 2**(level_k + 1) - 1 values
    level = np.frexp(np.arange(1, v.size + 1) - a)[1] - 1
    hi, lo = v.copy(), v.copy()   # max and min of v[p:p + 2**m], at m = 0
    for m in range(level.max() + 1):
        w, k = 1 << m, np.flatnonzero(level == m)
        p, q = a[k], k + 1 - w
        span = np.maximum(hi[p], hi[q]) - np.minimum(lo[p], lo[q])
        best = max(best, float(np.max(span, initial=-math.inf)))
        np.maximum(hi[:-w], hi[w:], out=hi[:-w])
        np.minimum(lo[:-w], lo[w:], out=lo[:-w])
    return best


def height_of_path(y: CadlagStepPath) -> StepFunction:
    """Height functional of a drift -1 step path.

    At time t it counts the jump times s <= t whose pre-jump level still
    lies strictly below the infimum of the path over [s, t]; equivalently
    the stack of unfinished jump records, closed when the path drifts back
    down to their pre-jump level (``_drain``).
    """
    return _drain(y.times, y._cum).H


class _Drained(NamedTuple):
    """Result of ``_drain``; entry k - 1 of each array is client k, the
    k-th arrival."""

    parent: np.ndarray     # the client on top of the stack at arrival, 0 if empty
    pre_level: np.ndarray  # the path's left limit at the arrival
    departure: np.ndarray
    H: StepFunction        # stack depth, from 0 (or the first arrival) to the last departure
    # every event by time, arrivals first, as int32: j < n is the
    # arrival of client j + 1, n the start of H, n + 1 + j its departure
    event_order: np.ndarray


def _drain(times, cum) -> _Drained:
    """Preemptive-LIFO replay of a finite path that drains after its last
    arrival, in array passes: clients arrive at ``times`` (increasing), and
    the path is -t + cum[k] from the k-th arrival on (``cum[0] == 0``).

    Client k arrives at the level l_k = cum[k-1] - times[k-1], the path's
    left limit there.  The LIFO stack is the all-nearest-smaller-values
    structure of these levels (Berkman, Schieber and Vishkin 1993): k's
    parent is the last earlier client with a level < l_k, and k departs
    when the path comes back down to l_k, after the last arrival g before
    the first later client with a level <= l_k; that is at k's arrival plus
    the work of clients k..g, cum[g] - cum[k-1], and never after that later
    client arrives.  H at t counts the arrivals <= t less the departures
    <= t.
    """
    n = times.size
    lv = np.empty(n + 2)
    lv[0] = lv[-1] = -math.inf
    pre = lv[1:-1]
    np.subtract(cum[:-1], times, out=pre)
    last, parent = _lower_neighbours(lv)
    # event times: arrivals, one slot, departures; the slot holds +inf, the
    # arrival after the last one, while departures are clamped, then the
    # start of H
    ev = np.empty(2 * n + 1)
    ev[:n] = times
    ev[n] = math.inf
    dep = ev[n + 1:]
    np.subtract(cum.take(last), cum[:-1], out=dep)
    np.add(dep, times, out=dep)
    np.minimum(dep, ev.take(last), out=dep)
    ev[n] = min(0.0, times[0]) if n else 0.0
    order = ev.argsort(kind="stable")
    event_order = order.astype(np.int32)
    at = ev.take(order)
    # +1 per arrival, 0 for the start, -1 per departure, in place
    np.sign(np.subtract(n, order, out=order), out=order)
    return _Drained(parent, pre, dep,
                    _collapsed(at, np.add.accumulate(order, dtype=float)),
                    event_order)


def _openings(levels, low=math.inf) -> np.ndarray:
    """Whether each of ``levels`` is at most every earlier one and ``low``:
    the arrivals that find the LIFO stack empty (``_drain``'s roots), where
    the excursions above the running infimum open."""
    return levels <= np.minimum.accumulate(np.concatenate(([low], levels))[:-1])


# Paths of at most this many jumps compare all pairs of levels at once;
# longer ones read a sparse table.  _LATER[a, b] is b > a.
_ALL_PAIRS = 128
_LATER = np.less.outer(np.arange(_ALL_PAIRS + 2), np.arange(_ALL_PAIRS + 2))


def _lower_neighbours(lv):
    """For each entry k = 1..n of ``lv`` (n + 2 levels, -inf at both ends):
    the first later entry <= lv[k], less one, and the last earlier entry
    < lv[k], as two index arrays (the ends make both exist)."""
    n = lv.size - 2
    if n <= _ALL_PAIRS:
        later = _LATER[:n + 2, :n + 2]
        below = np.less.outer(lv, lv)
        last = (later > below)[1:-1, 1:].argmax(axis=1)
        prev = (below & later)[::-1, 1:-1].argmax(axis=0)
        return last, n + 1 - prev
    # Range minima of the levels' dense int32 ranks (the ends rank 0) over
    # blocks of 2**j entries (Bender and Farach-Colton 2000), longest blocks
    # first: row r holds blocks of 2**(J - r) from each entry on.  A block
    # reaching past the end holds its rank 0, and so does every read just
    # before the start of row r >= 1 (it lands in row r - 1's tail) or of
    # row 0 (clipped to entry 0).
    J, N = n.bit_length() - 1, n + 2
    table = np.empty((J + 1, N), dtype=np.int32)
    table[J] = np.unique(lv, return_inverse=True)[1]
    for r in range(J - 1, -1, -1):
        h = 1 << (J - 1 - r)
        np.minimum(table[r + 1, :-h], table[r + 1, h:], out=table[r, :-h])
        table[r, -h:] = 0
    flat, me = table.ravel(), table[J, 1:-1]
    # binary lifting, both ways at once: nxt skips each block of ranks all
    # > me, prev each block of ranks all >= me that ends where it stands;
    # both read the flat index of their next block in the next row
    k = np.arange(1, n + 1)
    nxt, prev = k + 1, k - (1 << J)
    for r in range(J + 1):
        h = 1 << (J - r)
        nxt += (flat.take(nxt) > me) * h + N
        prev += N + (h >> 1) - (flat.take(prev, mode="clip") >= me) * h
    return nxt - (J + 1) * N - 1, prev - (J + 1) * N


def _collapsed(times, values) -> StepFunction:
    """Step function through time-sorted breakpoints; of equal times the
    last value holds."""
    keep = np.concatenate((np.diff(times) > 0, [True]))
    return StepFunction(times[keep], values[keep])


_BLOCK_CELLS = 1 << 16
_EVENTS = np.array(["arrival", "departure"], dtype=object)


def _check_memory(need: float, what: str):
    """Raise ValueError if ``need`` bytes for ``what`` exceed the physical
    memory reported: an overcommitting host would grant them, then kill."""
    try:
        ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if 0 < ram < need:
        raise ValueError(f"{what} needs {need / 2 ** 30:.3g} GiB, more than "
                         f"the {ram / 2 ** 30:.3g} GiB of physical memory")


def _sorted_unique(a) -> np.ndarray:
    """``np.unique(a)`` of a 1-D array without NaNs, by one sort: numpy
    2.4's ``np.unique`` imports ``numpy.ma`` on its first call, about
    16 ms a process."""
    a = np.sort(a)
    first = np.ones(a.size, dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


def _group_fsums(values, bounds) -> np.ndarray:
    """Exact sums of the nonempty runs values[bounds[i]:bounds[i + 1]] (int
    array ``bounds``); as fsum([x]) == x, only longer runs call fsum."""
    sums = values[bounds[:-1]]
    vl, long = values.tolist(), (bounds[1:] - bounds[:-1] > 1).nonzero()[0]
    sums[long] = [math.fsum(vl[a:z]) for a, z in
                  zip(bounds[long].tolist(), bounds[long + 1].tolist())]
    return sums


# n -> the live table of the ints 0..n: an object array, one int object
# per id, that lives while a result holds it
_ID_TABLES = weakref.WeakValueDictionary()


def _id_tuple(ids, n):
    """``tuple(ids.tolist())`` of an int array of ids in 0..n, and the id
    table its ints are taken from: the live one of n, else a new one.  The
    caller's result holds the table, so the results alive together share
    one int object per id; ``take`` gathers them at C level.  Up to
    n = 256 the ints are CPython's cached ones already, and the table is
    None."""
    if n <= 256:
        return tuple(ids.tolist()), None
    table = _ID_TABLES.get(n)
    if table is None:
        table = np.arange(n + 1).astype(object)
        table.flags.writeable = False
        _ID_TABLES[n] = table
    return tuple(table.take(ids).tolist()), table


class _Rows(Sequence):
    """Read-only sequence of the rows of equal-length columns: row i is the
    tuple type ``kind`` of item i of each column, built when read.
    Iteration builds the rows by one C-level ``map``, so a pass holds no
    more rows than its reader keeps; a slice is a tuple of rows.  ``ids``
    is the id table (``_id_tuple``) the columns' ints come from, held
    while the rows are."""

    def __init__(self, kind, *columns, ids):
        self._kind, self.columns, self._ids = kind, columns, ids

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        return tuple.__new__(self._kind, [c[i] for c in self.columns])

    def __iter__(self):
        return map(tuple.__new__, repeat(self._kind), zip(*self.columns))


class _Runs:
    """A column of ``_Rows``: item i is the run ``base[starts[i]:ends[i]]``
    of a sliceable ``base`` (``starts``, ``ends``: int64 arrays), sliced
    when read; iteration slices the runs by one C-level ``map``.  Given
    ``full``, a bool array true at the nonempty runs, iteration slices only
    those and gives the empty ones one shared empty slice, merged in at C
    level."""

    def __init__(self, base, starts, ends, full=None):
        # memoryviews read their items as Python ints
        self._base, self._starts, self._ends = \
            base, memoryview(starts), memoryview(ends)
        self._full = None if full is None else (
            memoryview(full), memoryview(starts[full]), memoryview(ends[full]))

    def __getitem__(self, i: int):
        return self._base[self._starts[i]:self._ends[i]]

    def __iter__(self):
        if self._full is None:
            return map(self._base.__getitem__,
                       map(slice, self._starts, self._ends))
        full, starts, ends = self._full
        runs = map(self._base.__getitem__, map(slice, starts, ends))
        return map(next, map((repeat(self._base[:0]), runs).__getitem__, full))


def _write_csv(path, header, columns):
    """The one writer of result files: a header row, then row i of item i of
    each equal-length column, CRLF line ends.  A cell is ``str`` of its value
    (for a float, its round-tripping ``repr``); string cells are fixed tokens
    that need no quoting.  One ``%`` writes each block of cells, interleaved
    row by row into one list, so memory is bounded by one block.

    With two or more CPUs, two or more blocks and no other Python thread,
    a forked child formats the second half of the blocks while this
    process formats the first (``_write_halves``); the bytes are the
    same."""
    blocks = range(0, len(columns[0]), max(1, _BLOCK_CELLS // len(columns)))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(str, header)) + "\r\n")
        if (len(blocks) >= 2 and threading.active_count() == 1
                and hasattr(os, "sched_getaffinity")    # Linux only
                and len(os.sched_getaffinity(0)) >= 2):
            _write_halves(fh, columns, blocks)
        else:
            fh.writelines(_csv_blocks(columns, blocks))


def _csv_blocks(columns, blocks):
    """The CSV text of each block of rows: a block starts at each item of
    the range ``blocks`` and holds ``blocks.step`` rows."""
    m = len(columns)
    row = ",".join(["%s"] * m) + "\r\n"
    for a in blocks:
        parts = [c[a:a + blocks.step] for c in columns]
        cells = [None] * (m * len(parts[0]))
        for j, p in enumerate(parts):
            cells[j::m] = p.tolist() if isinstance(p, np.ndarray) else p
        yield row * len(parts[0]) % tuple(cells)


def _write_halves(fh, columns, blocks):
    """Write ``blocks`` to the text file ``fh``: a forked child formats the
    second half into an unlinked temporary file while this process formats
    the first half into ``fh``; the child's bytes are then appended."""
    k = len(blocks) // 2
    fh.flush()
    with tempfile.TemporaryFile() as tmp:
        # Python 3.12+ warns at a fork while any OS thread is alive, and an
        # idle OpenBLAS worker is one.  The child imports nothing, calls no
        # BLAS, takes no lock but malloc's (which glibc resets at fork) and
        # leaves only by os._exit.
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", r"This process \(pid=\d+\) is multi-threaded",
                DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            # never unwind into the caller's with and finally blocks: they
            # would flush the parent's buffers a second time
            status = 1
            try:
                for text in _csv_blocks(columns, blocks[k:]):
                    tmp.write(text.encode(fh.encoding, fh.errors))
                tmp.flush()
                status = 0
            except BaseException:
                sys.__excepthook__(*sys.exc_info())
                sys.stderr.flush()
            finally:
                os._exit(status)
        try:
            fh.writelines(_csv_blocks(columns, blocks[:k]))
        finally:
            status = os.waitpid(pid, 0)[1]
        if status:
            raise OSError(f"the child writing the second half of {fh.name} "
                          f"exited with status "
                          f"{os.waitstatus_to_exitcode(status)}")
        fh.flush()
        tmp.seek(0)
        shutil.copyfileobj(tmp, fh.buffer)


def _write_trace_csv(path, clients, event_order, arrival, departure, load,
                     height, **extra):
    """Rows (time, event, client, Y, H, *extra), one per arrival and per
    finite departure, in ``_drain``'s ``event_order`` of ``clients`` (in
    arrival order); the other arrays are indexed by client id."""
    n = clients.size
    ids = np.append(clients, 0).take(event_order % (n + 1))
    time = np.concatenate((arrival[clients], [math.nan],
                           departure[clients])).take(event_order)
    keep = np.isfinite(time)    # not the start of H, nor a late departure
    ids, time = ids[keep], time[keep]
    _write_csv(path, ["time", "event", "client", "Y", "H", *extra], [
        time, _EVENTS.take(event_order[keep] > n), ids,
        load.value(time), height(time).astype(np.int64),
        *(column[ids] for column in extra.values())])
