"""Metric spaces coded by excursion functions.

A nonnegative coding function h on [0, zeta) defines the tree
pseudometric d_h(s,t) = h(s) + h(t) - 2*min over [s^t, s v t] of h.
Pinch pairs (s_i, t_i) add shortcuts of length min(eps, d_h(s_i, t_i)),
giving the pinched pseudometric (shortest paths through the shortcuts).
The coding-continuity bound dominates the Gromov-Hausdorff-Prokhorov
distance between two such spaces by uniform distance and modulus terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import (StepFunction, _check_memory, _write_csv,
                    modulus_of_continuity, uniform_distance)


def check_eps(eps) -> float:
    """The shortcut cap as a float: NaN or negative raise, +inf is allowed."""
    if not eps >= 0:
        raise ValueError(f"eps must be nonnegative, got {float(eps)!r}")
    return float(eps)


@dataclass(frozen=True)
class CodedSpace:
    h: StepFunction
    pinches: tuple            # ((s_i, t_i), ...)
    eps: float
    samples: np.ndarray       # sample times

    def __init__(self, h, pinches=(), eps=0.0, samples=()):
        eps = check_eps(eps)
        samples = np.asarray(samples, dtype=float)
        zeta = float(h.times[-1])
        if not ((samples >= 0) & (samples <= zeta)).all():
            raise ValueError("sample outside the coding domain")
        # one pass over the pinches, which may be an iterator
        pinches = tuple((float(s), float(t)) for s, t in pinches)
        if not all(0 <= s <= t <= zeta for s, t in pinches):
            raise ValueError("pinch outside the coding domain")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "pinches", pinches)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "samples", samples)


def tree_distance(h: StepFunction, s: float, t: float) -> float:
    """d_h(s, t) = h(s) + h(t) - 2*min of h over [min(s,t), max(s,t)]."""
    return float(h(s) + h(t) - 2.0 * h.min_on(s, t))


def pinched_matrix(space: CodedSpace) -> np.ndarray:
    """Pinched distances between sample points: shortest paths over the N
    samples and pinch endpoints, with tree-distance edges and shortcuts of
    length min(eps, d_h(s_i, t_i)), in O(N^2 (p+1)) time, O(N^2) memory.
    The tree matrix (one sweep over the points sorted by breakpoint index)
    equals tree_distance bit for bit; as the tree metric obeys the triangle
    inequality, the closure needs only the 2p pinch endpoints as waypoints."""
    h, m = space.h, space.samples.size
    pts = np.concatenate((space.samples, np.ravel(space.pinches)))
    n = pts.size
    # at its peak, four float64 arrays of n by n
    _check_memory(32 * n * n, f"a distance matrix over {n} points")
    # breakpoint index of each point, as StepFunction.__call__ and min_on
    k = np.maximum(h.times.searchsorted(pts, "right") - 1, 0)
    order = k.argsort(kind="stable")
    ks = k[order]
    hv = h.values[ks]
    # low[i, j], j > i: min of h from sorted point j-1 to j; the running
    # minimum along the row from the diagonal makes it min_on(i, j)
    gap = np.minimum.reduceat(h.values, ks)[:-1]
    step = np.concatenate((hv[:1], np.minimum(gap, hv[1:])))
    low = np.where(np.tri(n, k=-1, dtype=bool), np.inf, step)
    np.fill_diagonal(low, hv)
    np.minimum.accumulate(low, axis=1, out=low)
    low = np.minimum(low, low.T)
    d = np.empty((n, n))
    d[order[:, None], order] = hv[:, None] + hv[None, :] - 2.0 * low
    a = np.arange(m, n, 2)
    d[a, a + 1] = d[a + 1, a] = np.minimum(space.eps, d[a, a + 1])
    for e in range(m, n):
        np.minimum(d, d[:, e, None] + d[None, e, :], out=d)
    return d[:m, :m]


def ghp_upper_bound(h: StepFunction, h2: StepFunction, pinches, pinches2,
                    eps: float, eps2: float, delta: float) -> float:
    """Coding bound on the GHP distance between two pinched spaces:
    6(p+1)(sup|h - h'| + modulus_delta(h)) + 3p*max(eps, eps') + |zeta - zeta'|.

    Requires equal pinch counts and index-matched pinch times within delta
    (no bound is defined otherwise)."""
    p = len(pinches)
    if len(pinches2) != p:
        raise ValueError("pinch counts differ; the bound is undefined")
    gap = (np.asarray(pinches, dtype=float).reshape(p, 2)
           - np.asarray(pinches2, dtype=float).reshape(p, 2))
    if (np.abs(gap) > delta).any():
        raise ValueError("pinch times differ by more than delta")
    zeta, zeta2 = float(h.times[-1]), float(h2.times[-1])
    sup = uniform_distance(h, h2)
    omega = modulus_of_continuity(h, delta)
    return (6.0 * (p + 1) * (sup + omega) + 3.0 * p * max(eps, eps2)
            + abs(zeta - zeta2))


def write_matrix_csv(space: CodedSpace, matrix: np.ndarray, path):
    """Row i is sample time i, then row i of ``matrix``, written in blocks."""
    _write_csv(path, ["t", *space.samples.tolist()],
               [space.samples, *np.asarray(matrix, dtype=float).T])
