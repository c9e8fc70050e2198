"""Markovian LIFO queue, its forest coupling, and the blue/red split.

Clients arrive at unit-rate Poisson times with i.i.d. types drawn from
nu_w(j) = w_j/sigma_1 and request w_type units of service under LIFO
preemption.  The load path X and height path H code a forest of i.i.d.
trees whose offspring law is the Poisson mixture mu_w.  Colouring the
clients blue (first of their type, served in blue context) or red embeds
the queue without repetition: time-changing X by the blue clock
reproduces the load path Y of the lifo_coder module in law and, on a
common realization, pathwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .paths import (CadlagStepPath, StepFunction, _check_memory, _collapsed,
                    _drain, _openings, _sorted_unique, _write_trace_csv,
                    height_of_path)
from .weights import WeightSeq


@dataclass(frozen=True)
class MarkovTrace:
    """One Markov-queue realization; clients are arrival indices 1..K."""

    weights: WeightSeq
    tau: np.ndarray           # arrival times, index 0 unused
    types: np.ndarray         # type id per arrival
    departure: np.ndarray     # +inf if still queued at the horizon
    pre_level: np.ndarray
    parent: np.ndarray        # parent arrival index, 0 for tree roots
    X: CadlagStepPath
    H: StepFunction
    horizon: float
    empty_epochs: np.ndarray  # times at which a departure left the queue empty
    event_order: np.ndarray   # paths._drain's, of arrival indices less 1
    # filled by color_blue_red:
    color: np.ndarray | None = None          # "b"/"r" per arrival
    blue_side: np.ndarray | None = None      # arrivals whose jump is blue-side
    red_blocks: tuple | None = None          # (start, end) per red block
    blue_intervals: tuple | None = None
    A: StepFunction | None = None            # repeat-load A^w in the blue clock
    Y_emb: CadlagStepPath | None = None      # X read through the blue clock

    @property
    def n_arrivals(self) -> int:
        return int(self.tau.size - 1)

    def write_csv(self, path):
        """The LIFO trace columns, arrival index as client and X as Y,
        plus type and colour; a departure past the horizon has no row."""
        trace = self if self.color is not None else color_blue_red(self)
        _write_trace_csv(path, np.arange(1, trace.tau.size),
                         trace.event_order, trace.tau, trace.departure,
                         trace.X, trace.H, type=trace.types, color=trace.color)

    def events(self) -> np.ndarray:
        # H breaks at 0 and at every arrival and departure up to the end
        return _sorted_unique(np.concatenate((self.H.times, [self.horizon])))


def simulate_markov(w: WeightSeq, horizon: float = math.inf, rng_seed=0,
                    stop_at_empty: int | None = None,
                    forced_arrivals=None) -> MarkovTrace:
    """Simulate until ``horizon`` or until ``stop_at_empty`` empty-queue
    epochs, whichever comes first (at least one must be finite).

    Arrivals are drawn up to the first one past ``horizon`` or the
    (stop_at_empty + 1)-th root, an arrival that finds the queue empty;
    the ones before it are replayed once by ``paths._drain``, the kernel
    of the LIFO queue and of ``height_of_path`` too.  The trace ends at
    the stop_at_empty-th root's departure if that is at most ``horizon``,
    else at ``horizon``; a departure after the end is +inf.

    ``forced_arrivals`` (test hook): list of (time, type) pairs replacing
    the Poisson/type draws, times finite, nonnegative and increasing,
    types integers 1..j_max.
    """
    if not horizon > 0:     # NaN fails too; +inf is allowed
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    if not math.isfinite(horizon) and stop_at_empty is None \
            and forced_arrivals is None:
        raise ValueError("need a finite horizon or an empty-epoch target")
    if stop_at_empty is not None and not stop_at_empty >= 1:
        raise ValueError("stop_at_empty must be at least 1, "
                         f"got {stop_at_empty!r}")
    stop = math.inf if stop_at_empty is None else stop_at_empty
    if forced_arrivals is not None:
        times, types = np.array(forced_arrivals, dtype=float).reshape(
            len(forced_arrivals), 2).T
        if not (np.isfinite(times).all() and (times >= 0.0).all()
                and (np.diff(times) > 0.0).all() and (types % 1 == 0).all()
                and ((types >= 1) & (types <= w.j_max)).all()):
            raise ValueError("forced arrivals need finite, nonnegative, "
                             "strictly increasing times and integer types "
                             f"in 1..{w.j_max}")
        types = types.astype(np.int64)
        if math.isinf(horizon):
            # every forced client departs by last arrival + total work
            horizon = (float(times[-1]) + math.fsum(w.w[types - 1])
                       if times.size else 1.0)
        chunks = [(times, types)]
    else:
        chunks = _drawn_arrivals(w, rng_seed)
    # read chunks up to the first arrival past the horizon or the
    # (stop + 1)-th root, carrying the sum of sizes and the lowest level
    times, types, c, low, roots = [], [], 0.0, math.inf, 0
    for ts, js in chunks:
        cs = np.concatenate(([c], w.w.take(js - 1))).cumsum()
        levels = cs[:-1] - ts
        opens = _openings(levels, low).nonzero()[0]
        k = int(ts.searchsorted(horizon, "right"))
        if opens.size > stop - roots:
            k = min(k, int(opens[stop - roots]))
        times.append(ts[:k])
        types.append(js[:k])
        if k < ts.size:
            break
        c, low, roots = cs[-1], levels.min(initial=low), roots + opens.size
    times, types = np.concatenate(times), np.concatenate(([0], *types))
    sizes = w.w.take(types[1:] - 1)
    rep = _drain(times, np.concatenate(([0.0], sizes.cumsum())))
    empty = rep.departure[rep.parent == 0]
    end = float(horizon)
    if empty.size == stop and empty[-1] <= horizon:
        end = float(empty[-1])
    departure = np.concatenate(([0.0], rep.departure))
    departure[departure > end] = math.inf
    h = rep.H.times.searchsorted(end, "right")
    return MarkovTrace(
        weights=w, tau=np.concatenate(([0.0], times)), types=types,
        departure=departure, pre_level=np.concatenate(([0.0], rep.pre_level)),
        parent=np.concatenate(([0], rep.parent)),
        X=CadlagStepPath(times, sizes, end),
        H=StepFunction(rep.H.times[:h], rep.H.values[:h]),
        horizon=end, empty_epochs=empty[empty <= end],
        event_order=rep.event_order)


def _drawn_arrivals(w: WeightSeq, rng_seed):
    """Unit-rate Poisson arrival times and their types, in chunks of 16,
    32, ...: a chunk's exponential gaps, then its types by inverse CDF;
    the times add the gaps one at a time."""
    rng = np.random.default_rng(rng_seed)
    cdf = _choice_cdf(w.w / w.sigma(1.0))
    t, m = 0.0, 16
    while True:
        # a run peaks near 300 B an arrival; 2m - 16 are drawn with this chunk
        _check_memory(320 * (2 * m - 16), f"a replay of {2 * m - 16} arrivals")
        ts = np.concatenate(([t], rng.exponential(1.0, m))).cumsum()[1:]
        yield ts, cdf.searchsorted(rng.random(m), "right") + 1
        t, m = ts[-1], 2 * m


def mu_w_pmf(w: WeightSeq, k) -> float | np.ndarray:
    """Offspring pmf of the coupled forest: Poisson mixed over types,
    mu(k) = sum_j w_j^{k+1} e^{-w_j} / (sigma_1 * k!)."""
    k = np.asarray(k)
    s1 = w.sigma(1.0)
    lw = np.log(w.w)
    terms = ((kv + 1) * lw - w.w - math.lgamma(kv + 1) for kv in k.ravel())
    out = np.array([math.fsum(np.exp(t)) / s1 for t in terms],
                   dtype=float).reshape(k.shape)
    return float(out) if k.ndim == 0 else out


def _choice_cdf(p: np.ndarray) -> np.ndarray:
    """The CDF Generator.choice(p=p) draws through: the indices
    cdf.searchsorted(rng.random(size), side="right") are its draw, stream
    included, without its per-call argument checks."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def sample_offspring_counts(w: WeightSeq, n: int, rng_seed=0) -> np.ndarray:
    """n i.i.d. offspring counts of the coupled forest, drawn by the
    two-stage recipe: type from nu_w, then Poisson(w_type) children."""
    rng = np.random.default_rng(rng_seed)
    types = _choice_cdf(w.w / w.sigma(1.0)).searchsorted(
        rng.random(n), side="right")
    return rng.poisson(w.w[types])


def gw_generation_sizes(w: WeightSeq, z0: int, generations: int,
                        rng_seed=0) -> np.ndarray:
    """Population sizes Z_0..Z_g of the coupled branching process.

    Each individual draws a type from nu_w and then Poisson(w_type)
    children, so conditionally on the types the next generation is
    Poisson(sum of the drawn weights)."""
    rng = np.random.default_rng(rng_seed)
    nu = w.w / w.sigma(1.0)
    cdf = _choice_cdf(nu)
    sizes = [int(z0)]
    for _ in range(generations):
        z = sizes[-1]
        if z > w.j_max:     # cell counts keep time and memory at O(j_max)
            total = np.dot(rng.multinomial(z, nu), w.w)
        else:
            total = np.add.reduce(w.w.take(cdf.searchsorted(rng.random(z), "right")))
        sizes.append(int(rng.poisson(float(total))))
    return np.asarray(sizes, dtype=np.int64)


@dataclass(frozen=True)
class GwForestStats:
    """Coding paths of the completed part of the explored forest."""

    V: np.ndarray                 # Lukasiewicz path, V[0] = 0
    Hght: np.ndarray              # integer heights per explored vertex
    contour: tuple                # per completed tree: height sequence of the edge walk
    contour_visits: tuple         # per completed tree: vertex id per walk step
    offspring_counts: np.ndarray  # per departed client, arrival order
    tree_sizes: np.ndarray
    vertex_order: np.ndarray      # arrival indices included in V/Hght


def completed_clients(trace: MarkovTrace) -> np.ndarray:
    return np.flatnonzero(np.isfinite(trace.departure[1:])) + 1


def gw_forest_stats(trace: MarkovTrace) -> GwForestStats:
    """Lukasiewicz/height/contour over the completed trees of the trace.

    Arrival order is depth-first order: a tree runs from a root (parent 0)
    to the arrival before the next root, and it is complete when its root
    departed before the horizon.  V adds children - 1 along that order;
    heights and contours come from one walk per complete tree that keeps
    the ancestors of the current client on a stack."""
    parent = trace.parent.tolist()
    kids = np.bincount(trace.parent[1:], minlength=trace.tau.size)
    roots = (trace.parent[1:] == 0).nonzero()[0] + 1
    ends = np.concatenate((roots[1:], [trace.tau.size]))
    done = np.isfinite(trace.departure[roots])
    depth, order, walks = [0] * len(parent), [], []
    for r, e in zip(roots[done].tolist(), ends[done].tolist()):
        stack, walk = [r], [r]
        for c in range(r + 1, e):
            while stack[-1] != parent[c]:   # back up to c's parent
                stack.pop()
                walk.append(stack[-1])
            depth[c] = len(stack)
            stack.append(c)
            walk.append(c)
        walk.extend(reversed(stack[:-1]))   # and back up to the root
        order.extend(range(r, e))
        walks.append(np.asarray(walk, dtype=np.int64))
    depth = np.asarray(depth, dtype=np.int64)
    order = np.asarray(order, dtype=np.int64)
    return GwForestStats(
        V=np.concatenate(([0], (kids[order] - 1).cumsum())),
        Hght=depth[order], contour=tuple(depth[w] for w in walks),
        contour_visits=tuple(walks),
        offspring_counts=kids[completed_clients(trace)],
        tree_sizes=(ends - roots)[done], vertex_order=order)


def color_blue_red(trace: MarkovTrace) -> MarkovTrace:
    """Colour clients and build the blue clock.

    A client is red if its type already appeared among blue clients, or if
    the client in service at its arrival (idle counts as blue) is red;
    otherwise blue.  A red block runs from the arrival of a red client in
    blue context (a red root) to that client's departure; the red root's
    load jump is charged to the blue side.  Blue time is everything else.
    """
    # walk the clients in blue context, skipping each red root's block
    tau, types, dep = (a.tolist() for a in (trace.tau, trace.types, trace.departure))
    resume = trace.tau.searchsorted(trace.departure).tolist()
    blue, side, blue_types, red_blocks, i, n = [], [], set(), [], 1, len(tau)
    while i < n:
        side.append(i)
        if types[i] in blue_types:  # red root: opens a block
            red_blocks.append((tau[i], dep[i]))
            i = max(resume[i], i + 1)
        else:
            blue.append(i)
            blue_types.add(types[i])
            i += 1
    color, blue_side = np.full(n, "r"), np.zeros(n, dtype=bool)
    color[0], color[blue], blue_side[side] = "", "b", True

    end = trace.horizon
    red_blocks = [(a, min(b, end)) for a, b in red_blocks if a < end]
    # a block opens only after the last one closed: blue time is the gaps
    # of 0, a1, b1, a2, b2, ..., end
    cuts = [0.0, *(x for block in red_blocks for x in block), end]
    blue_intervals = [(a, b) for a, b in zip(cuts[::2], cuts[1::2]) if a < b]

    # blue-side jumps in the blue clock: blue ones make Y, the blue-side
    # repeats make A^w
    lam = _clock(blue_intervals)
    bt = lam(trace.tau[blue_side])
    sizes = trace.weights.w[trace.types[blue_side] - 1]
    is_blue = color[blue_side] == "b"
    return replace(trace, color=color, blue_side=blue_side,
                   red_blocks=tuple(red_blocks),
                   blue_intervals=tuple(blue_intervals),
                   A=_cum_steps(bt[~is_blue], sizes[~is_blue]),
                   Y_emb=CadlagStepPath(bt[is_blue], sizes[is_blue], lam(end)))


def _cum_steps(times: np.ndarray, sizes: np.ndarray) -> StepFunction:
    order = times.argsort()
    t = np.concatenate(([0.0], times.take(order)))
    v = np.concatenate(([0.0], sizes.take(order).cumsum()))
    return _collapsed(t, v)


def _clock(intervals):
    """Lambda(t) = measure of the (ordered, disjoint) intervals up to t."""
    ab = np.zeros((2, len(intervals) + 1))
    ab[:, :-1] = np.asarray(intervals, dtype=float).reshape(-1, 2).T
    ab[:, -1] = ab[0, 0]    # index -1, before every interval: an empty one
    starts, ends = ab
    cum = np.concatenate(([0.0], (ends - starts)[:-2].cumsum(), [0.0]))

    def lam(t):
        t = np.asarray(t, dtype=float)
        j = starts[:-1].searchsorted(t, "right") - 1
        out = cum.take(j) + np.maximum(np.minimum(t, ends.take(j)) - starts.take(j), 0.0)
        return float(out) if out.ndim == 0 else out
    return lam


@dataclass(frozen=True)
class IdentityReport:
    results: dict

    @property
    def passed(self) -> bool:
        return all(r["pass"] for r in self.results.values())

    def to_json(self) -> str:
        return json.dumps(self.results, indent=2)


TOL_IDENTITY = 1e-9


def _verdict(err: float, points: int, tol: float = TOL_IDENTITY) -> dict:
    return {"pass": bool(err < tol), "max_abs_err": err,
            "n_points": int(points)}


def verify_embedding(trace: MarkovTrace) -> IdentityReport:
    """Pathwise identity checks on a coloured trace.

    (a) the load reconstructed from the first blue arrival of each type,
        read at the blue clock Lambda(t), equals X(t) for t in blue time;
    (b) its height, recomputed independently, read the same way equals H;
    (c) X splits into blue and red parts composed with their clocks;
    (d) the H-jump counter M equals 2N - H at event times;
    (e) blue clients have pairwise distinct types.
    Blue intervals start and end at queue events, and between consecutive
    events the loads of (a) and (c) are linear with slope -1 and the
    heights of (b) constant.  So (a) and (b) are decided at the midpoint
    of every gap between events that lies in blue time, and (c) at the
    events.  (a) and (b) read forward through the clock: reading X at the
    inverse clock instead can land one ulp before a jump.  The loads of (a)
    and (c) sum at most one term per event, each below the total work plus
    the horizon, so they pass below TOL_IDENTITY plus 8 * events * eps
    times that bound; (b), (d) and (e) compare counts exactly.
    """
    if trace.color is None:
        trace = color_blue_red(trace)
    blue = np.asarray(trace.blue_intervals, dtype=float).reshape(-1, 2)
    lam_b = _clock(blue)
    end = trace.horizon
    blue_total = lam_b(end)
    ev = trace.events()
    ev = ev[:ev.searchsorted(end, "right")]

    # (a) queue-without-repetition reconstruction: first blue arrival per
    # type; the clock is nondecreasing, so its image comes first too
    w = trace.weights.w
    is_blue = trace.color == "b"
    blue_types = trace.types[is_blue]
    order = blue_types.argsort(kind="stable")   # a run's head: a type's first
    first, s = np.ones(blue_types.size, dtype=bool), blue_types.take(order)
    first[order[1:][s[1:] == s[:-1]]] = False
    Y_rec = CadlagStepPath(lam_b(trace.tau[is_blue][first]),
                           w.take(blue_types[first] - 1), blue_total)
    mids = (ev[:-1] + ev[1:]) / 2.0
    k = blue[:, 0].searchsorted(mids, "right") - 1
    tb = mids[(k >= 0) & (mids < blue[:, 1].take(k, mode="clip"))]
    sb = lam_b(tb)
    err_a = float(np.abs(Y_rec.value(sb) - trace.X.value(tb)).max(initial=0.0))

    # (b) height of the reconstructed path vs H through the blue clock
    err_b = float(np.abs(height_of_path(Y_rec)(sb) - trace.H(tb)).max(initial=0.0))

    # (c) X = X^b o Lambda^b + X^r o Lambda^r at event times
    lam_r = _clock(trace.red_blocks)
    tau, side = trace.tau[1:], trace.blue_side[1:]
    sizes = w.take(trace.types[1:] - 1)
    # jumps only; the drift is handled through the clocks
    Xb = _cum_steps(lam_b(tau[side]), sizes[side])
    Xr = _cum_steps(lam_r(tau[~side]), sizes[~side])
    lhs = trace.X.value(ev)
    lb, lr = lam_b(ev), lam_r(ev)
    rhs = (Xb(lb) - lb) + (Xr(lr) - lr)
    err_c = float(np.abs(lhs - rhs).max(initial=0.0))

    # (d) M = 2N - H: M counts jump times of H
    dep = trace.departure[1:]
    N = tau.searchsorted(ev, "right")     # tau is increasing
    M = N + np.sort(dep[np.isfinite(dep)]).searchsorted(ev, "right")
    err_d = float(np.abs(M - (2 * N - trace.H(ev))).max(initial=0.0))

    # (e) distinct iff every blue client is the first of its type
    err_e = 0.0 if first.all() else 1.0
    tol_load = TOL_IDENTITY + 8 * ev.size * np.finfo(float).eps * (sizes.sum() + end)
    return IdentityReport({
        "Y_equals_X_at_theta": _verdict(err_a, tb.size, tol_load),
        "height_through_blue_clock": _verdict(err_b, tb.size),
        "blue_red_decomposition": _verdict(err_c, ev.size, tol_load),
        "H_jump_counter": _verdict(err_d, ev.size),
        "blue_types_distinct": _verdict(err_e, blue_types.size)})
