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
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

import numpy as np


def _increasing(t) -> bool:
    """Whether the 1-d float array ``t`` is finite and strictly increasing,
    in one pass: NaN fails any comparison, an infinity one with an end."""
    return (t.size == 0 or -math.inf < t[0] and t[-1] < math.inf) \
        and bool(np.logical_and.reduce(t[1:] > t[:-1]))


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
        ok = (_increasing(times) and np.minimum.reduce(sizes, initial=math.inf) > 0
              and np.maximum.reduce(sizes, initial=0.0) < math.inf)  # NaN fails
        if not ok or math.isnan(horizon):
            raise ValueError("times must be finite and strictly increasing, "
                             "sizes positive and finite, horizon not NaN")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "horizon", float(horizon))
        object.__setattr__(self, "_cum", np.concatenate(([0.0], sizes.cumsum())))

    def value(self, t):
        """Cadlag value at t (scalar or array)."""
        t = np.asarray(t, dtype=float)
        out = self._cum.take(self.times.searchsorted(t, "right")) - t
        return float(out) if out.ndim == 0 else out

    def value_left(self, t):
        """Left limit at t."""
        t = np.asarray(t, dtype=float)
        out = self._cum.take(self.times.searchsorted(t, "left")) - t
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
        if not _increasing(times):
            raise ValueError("times must be finite and strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = self.values.take(self.times.searchsorted(t, "right") - 1,
                               mode="clip")  # -1 clips: constant extension left
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
    s = lv.take(order := lv.argsort())  # the dense ranks: np.unique's inverse
    table[J, order] = np.concatenate(([0], (s[1:] != s[:-1]).cumsum()))
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
    keep = np.concatenate((times[1:] > times[:-1], [True]))
    return StepFunction(times[keep], values[keep])


_BLOCK_CELLS = 1 << 16
_EVENTS = np.array([b"arrival", b"departure"], dtype="S9")


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
    """Read-only sequence over equal-length columns: item i is
    ``build(row_i)``, row_i the tuple of item i of each column, built when
    read.  Iteration builds the items by one ``map``, so a pass holds no
    more of them than its reader keeps; a slice is a tuple of items.
    ``ids`` is the id table (``_id_tuple``) the columns' ints come from,
    held while the rows are."""

    def __init__(self, build, *columns, ids=None):
        self._build, self.columns, self._ids = build, columns, ids

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        return self._build(tuple([c[i] for c in self.columns]))

    def __iter__(self):
        return map(self._build, zip(*self.columns))


def _runs(base, starts, ends) -> _Rows:
    """Column whose item i is the run ``base[starts[i]:ends[i]]`` of a
    sliceable ``base`` (``starts``, ``ends``: int64 arrays), sliced when
    read; every empty run is one shared empty slice."""
    empty = base[:0]

    def run(row):
        a, z = row
        return base[a:z] if a != z else empty
    # memoryviews read their items as Python ints
    return _Rows(run, memoryview(starts), memoryview(ends))


def _write_csv(path, header, columns):
    """The one writer of result files: a header row, then row i of item i of
    each equal-length column, CRLF line ends.  A cell is ``str`` of its value
    (for a float, its round-tripping ``repr``); string cells are fixed tokens
    that need no quoting.  ``_text_block`` encodes a block of about
    ``_BLOCK_CELLS`` cells at a time, so memory is bounded by one block."""
    step = max(1, _BLOCK_CELLS // len(columns))
    _write_blocks(path, header, ([c[a:a + step] for c in columns]
                                 for a in range(0, len(columns[0]), step)))


def _write_blocks(path, header, blocks):
    with open(path, "wb") as fh:
        fh.write((",".join(map(str, header)) + "\r\n").encode())
        for parts in blocks:
            fh.write(_text_block(parts))


def _text_block(parts, row_end=b"\r\n", spell=repr):
    """The bytes of the rows of equal-length columns ``parts``, cells
    separated by commas, each row ended by ``row_end``.  A cell is the text
    of ``str``: float arrays by ``_float_cells`` (``spell`` for the cells it
    leaves), integer arrays and ranges by ``_int_cells``, byte-string arrays
    as they are, anything else by ``str`` itself; no cell holds a NUL.

    Each run of adjacent float or integer columns is encoded at once, into
    a byte matrix of a NUL-padded row per cell.  Row i of the block is laid
    out as every column's row i and a comma, the last comma a NUL, then
    ``row_end``; deleting the NULs leaves the text."""
    r = len(parts[0])
    if r == 0:
        return b""
    runs = []
    for kind, cols in groupby(map(_cell_kind, parts), key=itemgetter(0)):
        cols = [p for _, p in cols]
        if kind == "f":
            runs.append(_float_cells(_interleaved(cols), spell))
        elif kind == "i":
            runs.append(_int_cells(_interleaved(cols)))
        else:
            runs += [np.ascontiguousarray(p).view(np.uint8).reshape(r, -1)
                     for p in cols]
    runs = [chars.reshape(r, -1, chars.shape[1]) for chars in runs]
    width = sum(c.shape[1] * (c.shape[2] + 1) for c in runs)
    buf = np.empty((r, width + len(row_end)), dtype=np.uint8)
    buf[:, width:] = np.frombuffer(row_end, dtype=np.uint8)
    at = 0
    for chars in runs:
        k, w = chars.shape[1:]
        cells = buf[:, at:at + k * (w + 1)].reshape(r, k, w + 1)
        cells[..., :w] = chars
        cells[..., w] = ord(",")
        at += k * (w + 1)
    buf[:, width - 1] = 0
    return buf.tobytes().translate(None, b"\0")


def _interleaved(cols):
    """The cells of equal-length 1-d arrays ``cols`` row by row."""
    return np.column_stack(cols).reshape(-1) if len(cols) > 1 else cols[0]


def _cell_kind(p):
    """A column slice ``p`` as ("f", float array), ("i", integer array
    within int64) or ("s", array of the byte strings of its cells)."""
    if isinstance(p, np.ndarray):
        if p.dtype.kind == "f":
            return "f", p
        if p.dtype.kind in "iu" and np.can_cast(p.dtype, np.int64):
            return "i", p
        if p.dtype.kind == "S":
            return "s", p
        if p.dtype.kind == "U":
            try:
                return "s", p.astype("S")
            except UnicodeEncodeError:
                pass
        p = p.tolist()
    elif isinstance(p, range) and -2 ** 63 <= min(p.start, p.stop) \
            and max(p.start, p.stop) < 2 ** 63:
        return "i", np.arange(p.start, p.stop, p.step, dtype=np.int64)
    return "s", np.array([str(v).encode() for v in p] or [b""])[:len(p)]


_U64 = np.uint64
_ZEROS = _U64(0x3030303030303030)    # eight ASCII '0'


def _ascii8(v):
    """The 8 decimal digits of each uint64 ``v`` < 10**8 as ASCII in a
    uint64, the first in the lowest byte, leading zeros kept: Paul Khuong's
    SWAR split of v into two 4-digit, four 2-digit and eight 1-digit lanes
    by multiply-shift division."""
    hi = v // _U64(10000)
    lanes = hi | ((v - hi * _U64(10000)) << _U64(32))
    top = ((lanes * _U64(10486)) >> _U64(20)) & _U64(0x7F0000007F)
    lanes = ((lanes - _U64(100) * top) << _U64(16)) + top
    tens = ((lanes * _U64(103)) >> _U64(10)) & _U64(0x000F000F000F000F)
    tens += (lanes - _U64(10) * tens) << _U64(8)
    return tens | _ZEROS


def _int_cells(v):
    """``str`` of each integer in ``v`` (within int64), right-aligned and
    NUL-padded in a row per cell of a uint8 matrix: 8 digits a word."""
    v = v.astype(np.int64, copy=False)
    neg = v < 0
    mag = np.where(neg, -v, v).view(np.uint64)  # -(-2**63) wraps to 2**63
    # its digits, and its text with a sign
    length = np.searchsorted(_P10U, mag, "right").clip(1)
    first = -(length + neg)
    words = (-int(first.min(initial=-1)) + 7) // 8
    chars = np.empty((words, v.size), dtype=np.uint64)
    for w in range(words - 1, -1, -1):
        q = mag // _U64(10 ** 8)
        chars[w] = _ascii8(mag - q * _U64(10 ** 8))
        mag = q
    # each word drops its bytes before the first of the text
    first += 8 * words
    below = np.clip(first - np.arange(0, 8 * words, 8)[:, None], 0, 8)
    below = below.astype(np.uint64) * _U64(8)
    chars = ((chars >> below) << below).T.copy().view(np.uint8)
    chars[neg, first[neg]] = ord("-")
    return chars[:, first.min(initial=8 * words):]


_P10U = np.array([10 ** s for s in range(20)], dtype=np.uint64)
_P10 = _P10U[:19].astype(np.int64)
# exact doubles 10**k for k <= 22 (10**23 rounds: it only steers a choice
# of k), and their high halves in Veltkamp's split
_P10F = np.array([float(10 ** k) for k in range(24)])
_P10H = _P10F * 134217729.0 - (_P10F * 134217729.0 - _P10F)
# x = m 2**e with m in [0.5, 1): x 10**_K_OF_E[e - _E0] is in [1e16, 1e18)
_E0 = -30
_K_OF_E = np.array([16 - math.floor((e - 1) * math.log10(2.0))
                    for e in range(_E0, 60)])


def _layout(decpt, nd):
    """``repr``'s text of the nd digits "A", "B", ... with the decimal
    point after ``decpt`` of them: fixed-point for -4 < decpt <= 16, else
    one digit, the rest and a two-digit exponent."""
    d = "ABCDEFGHIJKLMNOPQ"[:nd]
    if -4 < decpt <= 16:
        if decpt <= 0:
            return "0." + "0" * -decpt + d
        if decpt >= nd:
            return d + "0" * (decpt - nd) + ".0"
        return d[:decpt] + "." + d[decpt:]
    return d[0] + ("." + d[1:] if nd > 1 else "") + "e%+03d" % (decpt - 1)


@cache
def _layouts():
    """For each code (k * 17 + nd - 1) * 2 + negative, k in 0..22 and nd in
    1..17: the text of nd digits with the point after 17 - k of them, as
    two byte shifts of the 17 digits (a row per shift) and three masks of
    24 bytes (the digits at the first shift, those at the second, the other
    bytes as they are, NULs after the text; a row per mask); and the length
    of the text.  Built on first use."""
    shifts, masks, lengths = [], [], []
    for k in range(23):
        for nd in range(1, 18):
            for sign in ("", "-"):
                text = sign + _layout(17 - k, nd)
                rows, sh = [bytearray(24) for _ in range(3)], []
                for p, ch in enumerate(text):
                    if ch.isupper():
                        c = p - ord(ch) + 65
                        sh += [c] * (c not in sh)
                        rows[sh.index(c)][p] = 255
                    else:
                        rows[2][p] = ord(ch)
                shifts.append((sh * 2)[:2])
                masks.append(b"".join(rows))
                lengths.append(len(text))
    masks = np.frombuffer(b"".join(masks), dtype=np.uint64).reshape(-1, 3, 3)
    return (np.array(shifts).T.copy(), masks.transpose(1, 0, 2).copy(),
            np.array(lengths))


# repr of 0 and of the powers of 2 in [1e-6, 1e17), 2**(e - 1) in row
# e - _POW2_E0, each as it is and negated
_POW2_E0 = -19
_POW2_TEXT = [repr(-v).encode() for v in
              [0.0] + [2.0 ** (e - 1) for e in range(-18, 58)]]
_POW2_LENGTHS = np.array(list(map(len, _POW2_TEXT)))
_POW2_TEXT = np.array([[t[1:], t] for t in _POW2_TEXT],
                      dtype="S24").view(np.uint8).reshape(-1, 2, 24)
# float cells are encoded this many at a time, so that their temporaries
# stay in cache
_FLOAT_CHUNK = 8192


def _float_cells(x, spell=repr):
    """``repr`` of each float in ``x``, left-aligned and NUL-padded in a row
    per cell of a uint8 matrix; the cells ``_float_digits`` leaves are
    given ``spell(cell)``."""
    x = x.astype(float, copy=False)
    chars = np.empty((x.size, 24), dtype=np.uint8)
    width = 0
    for a in range(0, x.size, _FLOAT_CHUNK):
        z = slice(a, a + _FLOAT_CHUNK)
        chars[z], w, left = _float_digits(x[z])
        left += a
        chars[left] = np.array([spell(c).encode() for c in x[left].tolist()],
                               dtype="S24").view(np.uint8).reshape(-1, 24)
        width = max(width, w, 24 if left.size else 0)
    return chars[:, :width]


def _nearest(P, f, s, distance=True):
    """The multiple N 10**s nearest P + f (int64 P, f in [0, 1)), the even N
    of two as near; with ``distance``, also |P + f - N 10**s| rounded once
    and whether that rounding was exact."""
    p = _P10.take(s)
    q, rem = np.divmod(P, p)
    twice = 2 * rem - p      # 2 (P - q p) - p, against -2 f
    up = (twice > -2.0 * f) | ((twice == -2.0 * f) & (q & 1 == 1))
    if not distance:
        return (q + up) * p
    rem -= up * p
    r = rem + f              # |rem| >= 1 > f, or rem = 0: Fast2Sum's test
    return (q + up) * p, np.abs(r), r - rem == f


def _float_digits(x):
    """``repr``'s text of each float64 in ``x``, left-aligned and NUL-padded
    in a row per cell of a uint8 matrix (24 columns), the longest text's
    length, and the indices of the cells left undecided.

    ``repr`` writes the fewest digits that read back as x, the nearest to x
    if two qualify, the even one of two as near (Gay 1990; Adams, "Ryu",
    2018).  For |x| in [1e-6, 1e17) the exact P = |x| 10**k is in [1e16,
    1e17) for some 0 <= k <= 22 (``_scaled``), and the doubles next to x lie
    2U away, U exact too.  The digits are the multiple of 10**s nearest P
    for the largest s at which it lies within U (``_shortest``).  The one
    comparison with U rounds once: a cell within that rounding of U, not
    finite or outside that range is left undecided.  Zeros and powers of 2
    (whose spacing below is half) are read from a table of their ``repr``."""
    a = np.abs(x)
    ok = (a >= 1e-6) & (a < 1e17)
    a[~ok] = 1.5
    mant, e = np.frexp(a)
    row = np.where((mant == 0.5) & ok, e - _POW2_E0, -1)
    row[x == 0] = 0
    ok &= row < 0
    k, P, f, U = _scaled(a, e)
    ok &= (k <= 22) & (P >= 10 ** 16) & (P < 10 ** 17)
    M, decided = _shortest(P, f, U, x.view(np.uint64) % 2 == 0)
    digits, nd = _digits(M)
    code = (np.minimum(k, 22) * 17 + nd - 1) * 2 + (x < 0)
    text, length = _laid_out(digits, code)
    ok &= decided
    known = np.flatnonzero(row >= 0)
    text[known] = _POW2_TEXT[row[known], np.signbit(x[known]).view(np.int8)]
    width = max(length[ok].max(initial=0),
                _POW2_LENGTHS.take(row[known]).max(initial=0))
    return text, int(width), np.flatnonzero(~ok & (row < 0))


def _scaled(a, e):
    """For each a > 0, ``np.frexp``'s exponent e: the k with a 10**k in
    [1e16, 1e17) (when k <= 22), P and f with a 10**k = P + f exactly, P an
    int64 and f in [0, 1), and U = 2**(e - 54) 10**k, half the spacing of
    the doubles at a, scaled.  10**k is an exact double, and Dekker's
    two-product gives a 10**k as hi + lo exactly."""
    k = _K_OF_E.take(e - _E0)
    k -= a * _P10F.take(k) >= 1e17
    kept = np.minimum(k, 22)
    ten, th = _P10F.take(kept), _P10H.take(kept)
    tl = ten - th
    hi = a * ten
    ah = a * 134217729.0
    ah -= ah - a
    al = a - ah
    lo = ((ah * th - hi) + ah * tl + al * th) + al * tl
    fl = np.floor(lo)
    return (k, hi.astype(np.int64) + fl.astype(np.int64), lo - fl,
            np.ldexp(ten, e - 54))


def _shortest(P, f, U, even):
    """The multiple M of 10**s nearest P + f for the largest s at which it
    lies within U (at U exactly where ``even``: such a decimal reads back
    as x when x's last bit is 0), and whether that was decided exactly.

    2U is in (1.1, 22.3): with 10**s < 2U <= 10**(s + 1), a multiple of
    10**s lies within U, and at most one of 10**(s + 1) does; if one does,
    it is every multiple of a larger power within U."""
    s = (U > 5.0).astype(np.int64)
    M, r, exact = _nearest(P, f, s + 1)
    one_more = (r < U) | ((r == U) & exact & even)
    M = np.where(one_more, M, _nearest(P, f, s, distance=False))
    return M, (exact | (np.abs(r - U) > U * 2.0 ** -50)) & (M < 10 ** 17)


def _digits(M):
    """The 17 digits of each M < 10**17 as ASCII, from byte 8 of a row of
    four little-endian words (the first zero), and how many of them run to
    the last nonzero one."""
    M = M.view(np.uint64)       # M = A 10**9 + 10 C + D
    A = M // _U64(10 ** 9)
    B = M - A * _U64(10 ** 9)
    C = B // _U64(10)
    D = B - C * _U64(10)
    digits = np.zeros((M.size, 4), dtype=np.uint64)
    digits[:, 1] = _ascii8(A)
    digits[:, 2] = _ascii8(C)
    digits[:, 3] = D + _U64(48)
    # the last nonzero digit: D, else the last of C's, else of A's, the
    # highest nonzero byte of its ASCII XOR '0's
    nd = np.full(M.size, 17)
    end = np.flatnonzero(D == 0)
    for word, before in ((2, 8), (1, 0)):
        last = (np.frexp((digits[end, word] ^ _ZEROS).astype(float))[1]
                - 1) // 8
        nd[end] = before + 1 + last
        end = end[last < 0]
    return digits, np.maximum(nd, 1)


def _laid_out(digits, code):
    """The text of each row of ``_digits`` in the layout of its code
    (``_layouts``), as a uint8 matrix of 24 columns, and its length: the
    digits at two shifts, each under its mask, and the other bytes.  The
    digits shifted by c bytes are the 24 bytes of their row from 8 - c on."""
    shifts, masks, lengths = _layouts()
    n = code.size
    rows = np.ndarray((32 * n - 23,), dtype="V24", buffer=digits,
                      strides=(1,))
    at = np.arange(8, 32 * n, 32)
    text = masks[2].take(code, axis=0)
    for j in (0, 1):
        shifted = rows[at - shifts[j].take(code)].view(np.uint64)
        text |= shifted.reshape(n, 3) & masks[j].take(code, axis=0)
    return text.view(np.uint8), lengths.take(code)


def _write_trace_csv(path, clients, event_order, arrival, departure, load,
                     height, **extra):
    """Rows (time, event, client, Y, H, *extra), one per arrival and per
    finite departure, in ``_drain``'s ``event_order`` of ``clients`` (in
    arrival order); the other arrays are indexed by client id.  The columns
    are built a block of events at a time."""
    n = clients.size
    ids_of = np.append(clients, 0)      # the start of H has no client

    def blocks(step=max(1, _BLOCK_CELLS // (5 + len(extra)))):
        for a in range(0, event_order.size, step):
            ev = event_order[a:a + step]
            dep = ev > n
            ids = ids_of.take(ev % (n + 1))
            time = np.where(dep, departure.take(ids), arrival.take(ids))
            keep = (ev != n) & np.isfinite(time)   # no late departure
            ids, time = ids[keep], time[keep]
            yield [time, _EVENTS.take(dep[keep]), ids, load.value(time),
                   height(time).astype(np.int64),
                   *(column.take(ids) for column in extra.values())]

    _write_blocks(path, ["time", "event", "client", "Y", "H", *extra],
                  blocks())
