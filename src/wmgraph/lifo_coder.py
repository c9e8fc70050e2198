"""LIFO queue without repetition: load path, height path, tree, and pinches.

Each client j in 1..j_max arrives once, at an exponential time E_j with
mean sigma_1/w_j, and requests w_j units of service.  Service is LIFO
with preemption: a newcomer interrupts the client in service; a client
departs when the load returns to its pre-arrival level.  The load path
Y_t = -t + sum w_j 1{E_j <= t} and the stack-depth (height) path code a
forest; surplus "pinch" edges drawn from a Poisson field under the
reflected load profile complete the graph, whose law matches the direct
edge-coin sampler.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .direct_graph import AssembledGraph
from .markov_coder import _choice_cdf
from .paths import (CadlagStepPath, StepFunction, _drain, _group_fsums,
                    _id_tuple, _increasing, _Rows, _runs, _sorted_unique,
                    _write_csv, _write_trace_csv, height_of_path)
from .weights import WeightSeq


@dataclass(frozen=True)
class LifoTrace:
    """Full record of one LIFO simulation, or of ``replicas`` independent
    copies of it replayed one after another (``_replica_trace``).

    Client ids are 1-based; client r*n + j is client j of copy r, where
    j refers to a position in the weight vector of length n.
    ``parent[j] == 0`` means client j was served by an idle server (a tree
    root).  ``pre_level[j]`` is the load just before j arrived; the busy
    period containing j ends when the load next returns to that level.
    """

    weights: WeightSeq
    arrival: np.ndarray          # E_j per client id (index 0 unused)
    departure: np.ndarray
    pre_level: np.ndarray
    parent: np.ndarray           # parent client id, 0 for roots
    Y: CadlagStepPath
    H: StepFunction
    arrival_order: np.ndarray    # client ids sorted by arrival time
    event_order: np.ndarray      # paths._drain's, of arrival_order positions

    @property
    def replicas(self) -> int:
        """Number of copies of the queue in the trace."""
        return (self.arrival.size - 1) // self.weights.j_max

    @property
    def busy_periods(self) -> Sequence:
        """(start, work, member ids) per busy period, in time order, as a
        read-only sequence (``paths._Rows``) whose rows are built when read;
        the member tuples are sliced then from one tuple of ids, whose ints
        are the id table's (``paths._id_tuple``).

        Arrival order is depth-first order, so a busy period holds its
        root and every client arriving before the next root."""
        roots = self.parent[self.arrival_order] == 0
        bounds = np.concatenate((roots, [True])).nonzero()[0]
        ids, table = _id_tuple(self.arrival_order, self.arrival.size - 1)
        return _Rows(tuple, memoryview(self.Y.times[bounds[:-1]]),
                     memoryview(_group_fsums(self.Y.sizes, bounds)),
                     _runs(ids, bounds[:-1], bounds[1:]), ids=table)

    def write_csv(self, path):
        """Rows (time, event, client, Y, H); see ``_write_trace_csv``."""
        _write_trace_csv(path, self.arrival_order, self.event_order,
                         self.arrival, self.departure, self.Y, self.H)


@dataclass(frozen=True)
class PinchSetup:
    """Surplus-edge sample: points (t_p, y_p) under the reflected load with
    resolved start times s_p and endpoint clients (u at s_p, v at t_p)."""

    t: np.ndarray
    y: np.ndarray
    s: np.ndarray
    u: np.ndarray
    v: np.ndarray
    self_loop: np.ndarray    # bool: u == v
    boundary_tie: np.ndarray  # bool: y_p hit a load-band boundary exactly

    @property
    def size(self) -> int:
        return int(self.t.size)

    def write_csv(self, path):
        flag = np.where(self.self_loop, "self_loop",
                        np.where(self.boundary_tie, "boundary_tie", ""))
        _write_csv(path, ["t_p", "y_p", "s_p", "u", "v", "flag"],
                   [self.t, self.y, self.s, self.u, self.v, flag])


def simulate_lifo(w: WeightSeq, rng_seed=0,
                  forced_arrivals=None) -> LifoTrace:
    """Simulate the queue.  ``forced_arrivals`` (test hook) fixes the vector
    of arrival times E_j instead of drawing exponentials."""
    if forced_arrivals is None:
        E = _arrival_times(w, np.random.default_rng(rng_seed))
    else:
        E = np.asarray(forced_arrivals, dtype=float)
        if E.shape != (w.j_max,):
            raise ValueError("forced_arrivals must give one time per client")
    return _replica_trace(w, E[None])


def _arrival_times(w: WeightSeq, rng, size=None) -> np.ndarray:
    """Arrival times ``rng.exponential(sigma_1/w, size)``; raises, naming
    the smallest weight, if sigma_1/w or a drawn time overflows."""
    tiny = float(w.w[-1])
    if math.isfinite(w.sigma(1.0) / tiny):
        E = rng.exponential(w.sigma(1.0) / w.w, size)
        if math.isfinite(E.max()):
            return E
    raise ValueError(f"weight {tiny!r} is too small for the LIFO queue: "
                     f"its arrival time, sigma_1/w times an Exp(1) draw, "
                     f"overflows")


def _replica_trace(w: WeightSeq, E: np.ndarray) -> LifoTrace:
    """One replay of R independent queues on ``w``, queue r with arrival
    times ``E[r]`` (E has shape (R, n)), one after another.

    Queue r's arrivals are shifted by the sum over q < r of
    max E_q + 2 sigma_1.  A queue holds sigma_1 of work in all, so by
    work conservation it is empty by max E + sigma_1; the second sigma_1
    is slack for rounding and adds no pinch area, as the reflected load
    is 0 while the server idles.  So the trace is the R traces laid end
    to end, and sigma_1, the pinch rate's scale, is the same.  Raises
    unless each queue's first arrival finds the server idle, and for
    R > 1 unless the shifted arrival times are finite and distinct (a
    tiny weight's late arrival shifts the later queues so far that
    their times round together)."""
    R, n = E.shape
    with np.errstate(over="ignore"):    # checked on the sorted times
        shift = (E.max(axis=1) + 2.0 * w.sigma(1.0)).cumsum()
        T = (E + np.concatenate(([0.0], shift[:-1]))[:, None]).ravel()
    order = T.argsort(kind="stable") + 1
    times, sizes = T.take(order - 1), w.w.take((order - 1) % n)
    if R > 1 and not _increasing(times):
        raise ValueError(
            f"{R} replicas of the weights {float(w.w[-1])!r} to "
            f"{float(w.w[0])!r}, laid end to end, give equal or infinite "
            f"arrival times: the weights spread too far for this many "
            f"replicas")
    rep = _drain(times, np.concatenate(([0.0], sizes.cumsum())))
    if rep.parent[::n].any():
        raise ValueError("a replica's first arrival found the server busy")
    dep, pre = np.zeros((2, R * n + 1))
    par = np.zeros(R * n + 1, dtype=np.int64)
    dep[order], pre[order] = rep.departure, rep.pre_level
    par[order] = np.concatenate(([0], order))[rep.parent]
    return LifoTrace(
        weights=w, arrival=np.concatenate(([0.0], T)), departure=dep,
        pre_level=pre, parent=par,
        Y=CadlagStepPath(times, sizes, rep.H.times[-1]), H=rep.H,
        arrival_order=order, event_order=rep.event_order)


def _resolve_pinches(trace: LifoTrace, t: np.ndarray, y: np.ndarray):
    """Resolve pinch points (t, y), 0 < y < (Y-J)(t), by binary lifting.
    Returns arrays (s, u, v, self_loop, boundary_tie).

    The start time s = inf{s' <= t : inf_{[s',t]}(Y-J) > y} is the
    arrival time of the deepest queued ancestor whose load band contains
    y: up the stack at t, the infimum of Y over [arrival_k, t] equals the
    pre-arrival level of the next stack entry (or Y(t) at the top).

    Both endpoints are read off the levels (pre-arrival loads), as the
    replay decides who is queued.  v is the first client up the chain of
    the last arrival by t whose level is below Y(t) (0: idle): the client
    in service, the parent the replay would give an arrival of size 0 at
    t.  u is the first client up from v whose band floor (level less the
    busy period's root level j_exc) is at most y: the deepest band
    holding y.  A parent has a strictly lower level than its child, so
    both stop tests hold from the first client that meets them up to
    client 0 (level -inf); a jump of 2^k, k descending, is taken when the
    client it lands on does not stop."""
    order = trace.arrival_order
    i = trace.Y.times.searchsorted(t, side="right") - 1
    x = np.where(i >= 0, order[np.maximum(i, 0)], 0)
    pre = trace.pre_level.copy()
    pre[0] = -math.inf
    up = [trace.parent]  # up[k][j]: the 2^k-th ancestor of j (0 past a root)
    while up[-1][x].any():
        up.append(up[-1][up[-1]])

    def climb(j, stops):
        for a in up[::-1]:
            j = np.where(stops(pre[a[j]]), j, a[j])
        return np.where(stops(pre[j]), j, trace.parent[j])

    load = trace.Y.value(t)
    v = climb(x, lambda level: level < load)
    if (v == 0).any():
        raise ValueError("pinch time falls outside every busy period")
    # a busy period's root holds the least level so far: the excursion's floor
    j_exc = np.minimum.accumulate(trace.pre_level[order])[i]
    if not ((0.0 < y) & (y < load - j_exc)).all():
        raise ValueError("pinch level outside the reflected load at t_p")
    u = climb(v, lambda level: level - j_exc <= y)
    # boundary hit, assigned to the deeper ancestor; the root's floor is
    # 0 < y, so it never ties
    tie = trace.pre_level[u] - j_exc == y
    return trace.arrival[u], u, v, u == v, tie


def sample_pinches(trace: LifoTrace, rng_seed=0,
                   forced_points=None) -> PinchSetup:
    """Poisson surplus sample under the reflected load profile.

    The number of points is Poisson with mean area/sigma_1 where area is
    the integral of Y-J; each point is uniform under the profile.
    ``forced_points`` (test hook): iterable of (t_p, y_p) used verbatim.
    """
    w = trace.weights
    s1 = w.sigma(1.0)
    if forced_points is not None:
        pts = np.asarray([(float(t), float(y)) for t, y in forced_points],
                         dtype=float).reshape(-1, 2)
        t, y = pts[:, 0], pts[:, 1]
    else:
        rng = np.random.default_rng(rng_seed)
        t0, r0, areas = _profile_segments(trace)
        total = float(areas.sum())
        count = rng.poisson(total / s1)
        # segments as rng.choice(p=areas/total) draws them, without its checks
        which = _choice_cdf(areas / total).searchsorted(rng.random(count),
                                                        side="right")
        t0, r0, area = t0[which], r0[which], areas[which]
        # per point, two uniforms in turn: a triangular slice (density of
        # u on [0, live] prop. to r0-u), then a level under it
        uni = rng.random((count, 2))
        u = r0 - np.sqrt(r0 * r0 - 2.0 * (uni[:, 0] * area))
        t, y = t0 + u, uni[:, 1] * (r0 - u)
        by_time = np.lexsort((y, t))
        t, y = t[by_time], y[by_time]
    s, u, v, loop, tie = _resolve_pinches(trace, t, y)
    return PinchSetup(t=t, y=y, s=s, u=u, v=v, self_loop=loop,
                      boundary_tie=tie)


def _profile_segments(trace: LifoTrace):
    """Linear segments of the reflected load R = Y - J.

    Between consecutive arrivals R decreases at unit rate from its
    post-jump value until it hits 0 (end of a busy period); every arrival
    starts one.  Returns arrays (start_time, start_level, area) over
    segments, with area the integral of R over the segment.
    """
    times, r = trace.Y.times, trace.Y.reflected
    live = r.copy()  # the last segment lives until R hits 0
    np.minimum(r[:-1], times[1:] - times[:-1], out=live[:-1])
    return times, r, r * live - live * live / 2.0


def assemble_graph(trace: LifoTrace, pinches: PinchSetup | None = None) -> AssembledGraph:
    """Tree edges (parents, root edges dropped) unioned with pinch edges;
    self-loops and duplicates collapse with counts reported."""
    n = trace.parent.size - 1
    child = trace.parent.nonzero()[0]
    u, v = ((pinches.u, pinches.v) if pinches is not None
            else np.zeros((2, 0), dtype=np.int64))
    keep = u != v
    a = np.concatenate((child, u[keep]))
    b = np.concatenate((trace.parent[child], v[keep]))
    # one key per pair; tree pairs are distinct, so every repeat is a pinch's
    keys = np.minimum(a, b) * (n + 1) + np.maximum(a, b)
    edges = _sorted_unique(keys)
    w, R = trace.weights.w, trace.replicas
    return AssembledGraph(
        n=n, weights=w if R == 1 else w[None].repeat(R, axis=0).ravel(),
        edges=np.stack(np.divmod(edges, n + 1), axis=1),
        n_self_loops_dropped=len(u) - int(keep.sum()),
        n_duplicates_dropped=keys.size - edges.size)


__all__ = [
    "LifoTrace", "PinchSetup", "CadlagStepPath", "StepFunction",
    "simulate_lifo", "height_of_path", "sample_pinches", "assemble_graph",
]
