"""Excursion extraction, canonical ordering, and pinch relocation.

Excursions of a load path above its running infimum are the busy
periods of the queue; their lengths are the weight masses of the graph
components.  Excursions of the height path above zero are the same
intervals.  The canonical order is nonincreasing length, ties broken by
the smaller left endpoint.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .paths import (CadlagStepPath, StepFunction, _group_fsums, _openings,
                    _Rows, _write_csv)

# Strictness tolerance of the grid scan in continuum.limit_masses, where
# roundoff can manufacture micro-excursions, and the width of a near tie;
# exact breakpoint paths use exact compares.
TOL_EXC = 1e-12


@dataclass(frozen=True, eq=False)   # by identity, as the path types
class ExcursionDecomposition:
    intervals: np.ndarray   # (K, 2) rows (l_k, r_k) in canonical order
    lengths: np.ndarray     # nonincreasing
    local_paths: Sequence   # per-excursion coding path, built when read

    @property
    def count(self) -> int:
        return len(self.intervals)

    @property
    def near_ties(self) -> tuple:
        """Pairs (i, j), i < j, of excursions next to each other in length
        order whose positive lengths differ by less than 10*TOL_EXC."""
        srt = np.argsort(self.lengths, kind="stable")
        a, b = srt[:-1], srt[1:]
        la, lb = self.lengths[a], self.lengths[b]
        tie = (np.abs(la - lb) < 10 * TOL_EXC) & (la > 0)
        return tuple(zip(np.minimum(a, b)[tie].tolist(),
                         np.maximum(a, b)[tie].tolist()))

    def write_masses_csv(self, path, top_k: int = 50):
        masses = self.lengths[:top_k]
        _write_csv(path, ["rank", "mass"], [range(1, masses.size + 1), masses])


def _canonical(starts, ends, lengths, local) -> ExcursionDecomposition:
    """Excursions [starts[i], ends[i]) given in time order, reordered by
    nonincreasing length, ties by the smaller start; ``local(i)`` builds
    excursion i's local path."""
    order = np.lexsort((starts, -lengths))
    return ExcursionDecomposition(
        intervals=np.column_stack((starts, ends))[order],
        lengths=lengths[order],
        local_paths=_Rows(lambda row: local(*row), memoryview(order)))


def _intervals_above(times, values, end):
    """Left and right ends, in time order, of the maximal nonempty
    intervals where the step values are > 0, the last one closed at
    ``end`` if still open.  A NaN neither opens nor closes one."""
    above = values > 0
    known = above | (values <= 0)
    # intervals open and close in turn where ``above`` flips
    edges = times[known][np.flatnonzero(np.diff(above[known], prepend=False))]
    if edges.size % 2:
        edges = np.concatenate((edges, [end]))
    ls, rs = edges[0::2], edges[1::2]
    return ls[rs > ls], rs[rs > ls]


def excursions_above_zero(h: StepFunction,
                          horizon: float | None = None) -> ExcursionDecomposition:
    """Maximal nonempty intervals where h > 0, canonically ordered; one
    still open at the end of h closes at ``horizon`` (default: h's last
    breakpoint)."""
    ls, rs = _intervals_above(h.times, h.values,
                              h.times[-1] if horizon is None else horizon)

    # an excursion opens at a breakpoint; its local coding path is h on
    # [l, r) shifted to 0, closed by a zero at r - l, its domain end (zeta)
    def _local(i):
        l, r = ls[i], rs[i]
        a, b = np.searchsorted(h.times, (l, r))
        return StepFunction(np.append(h.times[a:b] - l, r - l),
                            np.append(h.values[a:b], 0.0))
    return _canonical(ls, rs, rs - ls, _local)


def decompose_with_masses(y: CadlagStepPath) -> ExcursionDecomposition:
    """Excursion decomposition of a load path above its running infimum.
    An excursion opens at the first jump and at every jump whose left
    limit l_k = cum[k-1] - t_k is at most every earlier one, where
    R = Y - J has drifted down to 0 (for jumps at times >= 0); these are
    the roots of the LIFO replay of the path (``paths._drain``), which
    reads the same levels.  An excursion holds its run of jumps, its
    length is their exact fsum, and its local path, those jumps shifted
    to start at 0, is built when read."""
    times = y.times
    opens = _openings(y._cum[:-1] - times)
    bounds = np.concatenate((opens, [True])).nonzero()[0]
    lengths = _group_fsums(y.sizes, bounds)
    starts = times[bounds[:-1]]

    def _local(i):
        a, b = bounds[i], bounds[i + 1]
        return CadlagStepPath(times[a:b] - starts[i], y.sizes[a:b],
                              horizon=lengths[i])
    return _canonical(starts, starts + lengths, lengths, _local)


def assign_pinches(dec: ExcursionDecomposition, pinches) -> tuple:
    """Localize pinch points: per excursion, in canonical order, the tuple
    of (s_p - l_k, t_p - l_k, y_p) over the pinches whose t_p lies in its
    interval (the disjoint intervals' last to start by t_p), sorted by t."""
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
    return tuple(tuple(sorted(lst, key=lambda p: p[1])) for lst in local)
