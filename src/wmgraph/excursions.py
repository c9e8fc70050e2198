"""Excursion extraction, canonical ordering, and pinch relocation.

Excursions of a load path above its running infimum are the busy
periods of the queue; their lengths are the weight masses of the graph
components.  Excursions of the height path above zero are the same
intervals.  The canonical order is nonincreasing length, ties broken by
the smaller left endpoint.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .paths import CadlagStepPath, StepFunction, _write_csv

# Strictness tolerance used only for gridded paths, where roundoff can
# manufacture micro-excursions; exact breakpoint paths use exact compares.
TOL_EXC = 1e-12


@dataclass(frozen=True, eq=False)   # by identity, as the path types
class ExcursionDecomposition:
    intervals: np.ndarray   # (K, 2) rows (l_k, r_k) in canonical order
    lengths: np.ndarray     # nonincreasing
    local_paths: Sequence   # per-excursion coding path or None, built when read
    local_pinches: tuple    # filled by assign_pinches
    near_ties: tuple        # pairs of excursion indices with |len_i-len_j| < 10*TOL_EXC

    @property
    def count(self) -> int:
        return len(self.intervals)

    def write_masses_csv(self, path, top_k: int = 50):
        _write_csv(path, ["rank", "mass"],
                   enumerate(self.lengths[:top_k].tolist(), start=1))


class _LazyPaths(Sequence):
    """Read-only sequence whose item k is ``build(k)``, built when read."""

    def __init__(self, count: int, build):
        self._range, self._build = range(count), build

    def __len__(self) -> int:
        return len(self._range)

    def __getitem__(self, k):
        k = self._range[k]
        return tuple(map(self._build, k)) if isinstance(k, range) else self._build(k)


def _canonical(starts, ends, lengths, local) -> ExcursionDecomposition:
    """Excursions [starts[i], ends[i]) given in time order, reordered by
    nonincreasing length, ties by the smaller start; ``local(i)`` builds
    excursion i's local path."""
    order = np.lexsort((starts, -lengths))
    lengths = lengths[order]
    srt = np.argsort(lengths, kind="stable")
    a, b = srt[:-1], srt[1:]
    tie = (np.abs(lengths[a] - lengths[b]) < 10 * TOL_EXC) & (lengths[a] > 0)
    return ExcursionDecomposition(
        intervals=np.column_stack((starts, ends))[order],
        lengths=lengths,
        local_paths=_LazyPaths(order.size, lambda k: local(order[k])),
        local_pinches=((),) * order.size,
        near_ties=tuple(zip(np.minimum(a, b)[tie].tolist(),
                            np.maximum(a, b)[tie].tolist())))


def _intervals_above(h, horizon=None, grid_tol=None):
    """Left and right ends, in time order, of the nonempty intervals that
    ``excursions_above_zero`` finds.  A NaN neither opens nor closes one."""
    if isinstance(h, StepFunction):
        times, values, thresh = h.times, h.values, 0.0
        end = float(times[-1]) if horizon is None else float(horizon)
    else:
        times, values = (np.asarray(a, dtype=float) for a in h)
        thresh = TOL_EXC if grid_tol is None else grid_tol
        step = times[1] - times[0] if times.size > 1 else 0.0
        end = float(times[-1] + step) if horizon is None else float(horizon)
    above = values > thresh
    known = above | (values <= thresh)
    # intervals open and close in turn where ``above`` flips
    edges = times[known][np.flatnonzero(np.diff(above[known], prepend=False))]
    if edges.size % 2:
        edges = np.append(edges, end)
    ls, rs = edges[0::2], edges[1::2]
    return ls[rs > ls], rs[rs > ls]


def excursions_above_zero(h, horizon: float | None = None,
                          grid_tol: float | None = None) -> ExcursionDecomposition:
    """Maximal nonempty intervals where h > 0, canonically ordered.

    ``h`` is a StepFunction (exact) or a (times, values) grid pair, in
    which case values are treated as constant per cell and compared
    against ``grid_tol`` (default TOL_EXC).
    """
    ls, rs = _intervals_above(h, horizon, grid_tol)

    # local coding paths carry a terminal zero breakpoint at the excursion
    # length, so their domain end (zeta) is the last breakpoint
    def _local(i):
        if not isinstance(h, StepFunction):
            return None
        g = h.restricted(ls[i], rs[i]).shifted(-ls[i])
        return StepFunction(np.concatenate((g.times, [rs[i] - ls[i]])),
                            np.concatenate((g.values, [0.0])))
    return _canonical(ls, rs, rs - ls, _local)


def excursion_masses(y, top_k: int | None = None) -> np.ndarray:
    """Lengths of the maximal intervals where y exceeds its running
    infimum, sorted nonincreasing.

    For breakpoint paths (drift -1, positive jumps) each excursion length
    equals the sum of the jump sizes inside it, so lengths are computed by
    summation, free of endpoint cancellation.
    """
    if isinstance(y, CadlagStepPath):
        out = decompose_with_masses(y).lengths
    else:
        values = np.asarray(y[1], dtype=float)
        ls, rs = _intervals_above((y[0], values - np.minimum.accumulate(values)))
        out = -np.sort(ls - rs)     # the lengths in _canonical's order
    return out[:top_k] if top_k is not None else out


def decompose_with_masses(y: CadlagStepPath) -> ExcursionDecomposition:
    """Excursion decomposition of a load path above its running infimum.
    An excursion opens at the first jump and at every jump by which
    R = Y - J has drifted down to 0; it holds its run of jumps, its
    length is their exact fsum, and its local path, those jumps shifted
    to start at 0, is built when read."""
    times = y.times
    opens = np.ones(times.size, dtype=bool)
    np.less_equal(y.reflected[:-1], times[1:] - times[:-1], out=opens[1:])
    first = opens.nonzero()[0]
    bounds, sizes = first.tolist() + [opens.size], y.sizes.tolist()
    lengths = np.asarray([math.fsum(sizes[a:b]) for a, b in zip(bounds, bounds[1:])])
    starts = times[first]

    def _local(i):
        a, b = bounds[i], bounds[i + 1]
        return CadlagStepPath(times[a:b] - starts[i], y.sizes[a:b],
                              horizon=lengths[i])
    return _canonical(starts, starts + lengths, lengths, _local)


def assign_pinches(dec: ExcursionDecomposition, pinches) -> ExcursionDecomposition:
    """Localize pinch points: (s_p - l_k, t_p - l_k) in the excursion whose
    interval contains t_p (the disjoint intervals' last to start by t_p),
    sorted by t within each excursion."""
    by_start = np.argsort(dec.intervals[:, 0], kind="stable")
    ls, rs = dec.intervals[by_start].T.tolist()
    slots = np.searchsorted(ls, pinches.t, side="right") - 1
    by_start = by_start.tolist()
    local = [[] for _ in by_start]
    for i, t_p, s_p, y_p in zip(slots.tolist(), pinches.t.tolist(),
                                pinches.s.tolist(), pinches.y.tolist()):
        if i < 0 or not t_p < rs[i]:
            raise ValueError(f"pinch at t={t_p} lies outside every excursion")
        l = ls[i]
        if not l <= s_p <= t_p:
            raise ValueError("pinch start escapes its excursion")
        local[by_start[i]].append((s_p - l, t_p - l, y_p))
    for lst in local:
        lst.sort(key=lambda p: p[1])
    return replace(dec, local_pinches=tuple(tuple(lst) for lst in local))
