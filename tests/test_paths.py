import contextlib
import csv
import math
import os
import subprocess
import sys
import warnings
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wmgraph
from wmgraph import (CadlagStepPath, StepFunction, WeightSeq, color_blue_red,
                     height_of_path, modulus_of_continuity, simulate_lifo,
                     simulate_markov)
from wmgraph.lifo_coder import _replica_trace
from wmgraph.paths import (_collapsed, _drain, _group_fsums,
                           _lower_neighbours, _runs, _sorted_unique,
                           _write_csv, uniform_distance)

from test_excursions import (_bits, _critical_load_path, _dyadic_load_path,
                             _dyadic_zero_hits_path, _pareto_load_path)


def test_cadlag_values():
    y = CadlagStepPath([0.2, 0.4], [1.0, 0.5], 2.0)
    assert y.value(0.1) == pytest.approx(-0.1)
    assert y.value(0.2) == pytest.approx(0.8)
    assert y.value_left(0.2) == pytest.approx(-0.2)
    assert y.value(0.5) == pytest.approx(1.0)


def _reference_reflected(y):
    """The per-jump loop of the old pinch profile, kept verbatim as the
    reference for ``CadlagStepPath.reflected``."""
    times = y.times
    levels = []
    r = 0.0
    prev_t = 0.0
    for t, x in zip(times.tolist(), y.sizes.tolist()):
        r = max(r - (t - prev_t), 0.0) + x
        levels.append(r)
        prev_t = t
    return np.array(levels)


@pytest.mark.parametrize("y", [
    _critical_load_path(3000, 0),
    _pareto_load_path(),
    _dyadic_load_path(),
    CadlagStepPath([], [], 1.0),
    CadlagStepPath([0.3], [0.5], 1.0),
    CadlagStepPath([0.0, 0.25, 2.0], [0.5, 1.0, 0.125], 3.0),
], ids=["unit", "pareto", "dyadic", "n0", "n1", "jump_at_0"])
def test_reflected_equals_profile_loop_reference(y):
    r = y.reflected
    assert r.dtype == np.float64 and r.shape == y.times.shape
    assert _bits(r) == _bits(_reference_reflected(y))
    assert y.reflected is r         # computed once and kept


def test_cadlag_validation():
    nan, inf = float("nan"), float("inf")
    for times, sizes, horizon in (
            ([0.2, 0.2], [1.0, 1.0], 1.0), ([0.2], [-1.0], 1.0),
            # NaN and inf fail the order, sign and finiteness tests
            ([0.0, nan, 2.0], [1.0, 1.0, nan], 3.0),
            ([0.0, nan], [1.0, 1.0], 3.0), ([0.0, 1.0], [1.0, nan], 3.0),
            ([0.0, 1.0], [1.0, inf], 3.0), ([0.0, inf], [1.0, 1.0], 3.0),
            ([-inf, 0.0], [1.0, 1.0], 3.0), ([0.0], [1.0], nan)):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            CadlagStepPath(times, sizes, horizon)
    assert CadlagStepPath([0.0], [1.0], inf).horizon == inf
    with pytest.raises(ValueError, match="1-d of equal length"):
        CadlagStepPath([0.2, 0.4], [1.0], 1.0)
    with pytest.raises(ValueError, match="1-d of equal length"):
        CadlagStepPath([[0.2]], [[1.0]], 1.0)
    for times, values in (([], []), ([0.0, 1.0], [1.0]), ([[0.0]], [[1.0]])):
        with pytest.raises(ValueError, match="nonempty 1-d of equal length"):
            StepFunction(times, values)
    for times in ([0.0, 0.0], [1.0, 0.0]):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            StepFunction(times, [1.0, 2.0])


def _reference_step_check(times, values):
    """StepFunction's checks as first written (np.isfinite, then np.diff):
    the ValueError message they raise, or None."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.shape != values.shape or times.size == 0:
        return "times and values must be nonempty 1-d of equal length"
    with np.errstate(invalid="ignore", over="ignore"):   # in np.diff
        if not (np.isfinite(times).all() and (np.diff(times) > 0).all()):
            return "times must be finite and strictly increasing"
    return None


def _reference_path_check(times, sizes, horizon):
    """CadlagStepPath's checks as first written, as _reference_step_check."""
    times = np.asarray(times, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    if times.shape != sizes.shape or times.ndim != 1:
        return "times and sizes must be 1-d of equal length"
    with np.errstate(invalid="ignore", over="ignore"):
        ok = (np.isfinite(times).all() and (np.diff(times) > 0).all()
              and ((sizes > 0) & (sizes < math.inf)).all())
    if not ok or math.isnan(horizon):
        return ("times must be finite and strictly increasing, sizes "
                "positive and finite, horizon not NaN")
    return None


def _reference_graph_check(n, weights, edges):
    """AssembledGraph's checks, as _reference_step_check: the message, or
    None."""
    if np.shape(weights) != (n,):
        return f"need one weight per vertex, n = {n}"
    a = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    a = np.empty((0, 2), np.int64) if a.shape == (0,) else a
    if a.ndim != 2 or a.shape[1] != 2:
        return "edges must be (u, v) pairs"
    if a.dtype.kind not in "biu":
        return "edge endpoints must be integers"
    e = np.asarray(sorted(map(tuple, a.astype(np.int64).tolist())))
    for k, (u, v) in enumerate(e.reshape(-1, 2).tolist()):
        if not (1 <= u < v <= n) or k and (u, v) == tuple(e[k - 1]):
            return f"invalid edge ({u}, {v})"
    return None


def _bad_times():
    """Times that break finiteness or strict increase: NaN and +-inf first,
    in the middle and last, ties, decreasing runs, and single entries."""
    base = [0.5, 1.0, 2.0, 3.5, 4.0]
    for bad in (math.nan, math.inf, -math.inf):
        for at in (0, 2, 4):
            yield base[:at] + [bad] + base[at + 1:]
        yield [bad]
    yield [0.5, 1.0, 1.0, 3.5, 4.0]     # a tie
    yield [4.0, 3.5, 2.0, 1.0, 0.5]     # decreasing
    yield [0.5, 2.0, 1.0, 3.5, 4.0]     # one step down
    yield [-math.inf, math.inf]
    yield [math.inf, math.inf]


def _good_times():
    yield from ([0.5, 1.0, 2.0, 3.5, 4.0], [0.0], [-3.0, -0.0, 5e-324],
                [-1e308, 1e308], [0, 1, 2], np.arange(200) / 7.0)


def _path_inputs():
    """(times, sizes, horizon) the path types must accept or reject."""
    for t in chain(_bad_times(), _good_times()):
        yield t, np.ones(len(t)), 10.0
    base = [0.5, 1.0, 2.0, 3.5, 4.0]
    for bad in (0.0, -0.0, -1.0, math.inf, math.nan, -math.inf):
        for at in (0, 2, 4):
            yield base, [1.0] * at + [bad] + [1.0] * (4 - at), 10.0
    yield base, [5e-324, 1e308, 1.0, 2.0, 3.0], 10.0
    for horizon in (math.nan, math.inf, -math.inf, 0.0):
        yield base, np.ones(5), horizon
    # empty, 2-d and mismatched shapes
    yield [], [], 1.0
    yield [[0.0, 1.0], [2.0, 3.0]], [[1.0, 1.0], [1.0, 1.0]], 1.0
    yield [[0.0]], [[1.0]], 1.0
    yield base, [1.0, 1.0], 1.0
    yield base[:2], np.ones(3), 1.0


def test_path_checks_equal_the_reference_checks():
    # the one-pass checks reject what np.isfinite and np.diff rejected,
    # with the same message, and accept the rest unchanged
    verdicts = {"step": set(), "path": set()}
    for times, sizes, horizon in _path_inputs():
        want = _reference_step_check(times, sizes)
        if want is None:
            h = StepFunction(times, sizes)
            assert _bits(h.times) == _bits(np.asarray(times, dtype=float))
        else:
            with pytest.raises(ValueError) as err:
                StepFunction(times, sizes)
            assert str(err.value) == want, (times, sizes)
        verdicts["step"].add(want)
        want = _reference_path_check(times, sizes, horizon)
        if want is None:
            y = CadlagStepPath(times, sizes, horizon)
            cum = np.concatenate(([0.0], np.cumsum(np.asarray(sizes, float))))
            assert _bits(y._cum) == _bits(cum)
        else:
            with pytest.raises(ValueError) as err:
                CadlagStepPath(times, sizes, horizon)
            assert str(err.value) == want, (times, sizes, horizon)
        verdicts["path"].add(want)
    assert all(len(v) == 3 for v in verdicts.values()), verdicts


def test_graph_checks_equal_the_reference_checks():
    from wmgraph.direct_graph import AssembledGraph
    cases = [(3, np.ones(3), [(1, 2), (2, 3)]), (3, np.ones(3), [(2, 3), (1, 2)]),
             (3, np.ones(3), []), (3, np.ones(3), np.empty((0, 2), np.int64)),
             (3, np.ones(2), [(1, 2)]), (3, np.ones((3, 1)), [(1, 2)]),
             (3, np.ones(3), [(1, 2), (1, 2)]), (3, np.ones(3), [(2, 2)]),
             (3, np.ones(3), [(3, 1)]), (3, np.ones(3), [(0, 1)]),
             (3, np.ones(3), [(1, 4)]), (3, np.ones(3), [(1.0, 2.0)]),
             (3, np.ones(3), [(1, math.nan)]), (3, np.ones(3), np.ones((2, 2, 2))),
             (3, np.ones(3), [(1, 2, 3)]), (3, np.ones(3), [1, 2]),
             (4, np.ones(4), np.array([[3, 4], [1, 2], [1, 3]], np.int32))]
    for n, weights, edges in cases:
        want = _reference_graph_check(n, weights, edges)
        if want is None:
            g = AssembledGraph(n=n, weights=weights, edges=edges)
            assert g.edges.tolist() == sorted(map(list, g.edges.tolist()))
        else:
            with pytest.raises(ValueError) as err:
                AssembledGraph(n=n, weights=weights, edges=edges)
            assert str(err.value) == want, (n, edges)


@pytest.mark.parametrize("make", [
    lambda: CadlagStepPath([0.2, 0.4], [1.0, 0.5], 2.0),
    lambda: StepFunction([0.0, 1.0], [0.0, 2.0]),
], ids=["CadlagStepPath", "StepFunction"])
def test_path_types_compare_by_identity(make):
    a, b = make(), make()
    assert a == a and not a != a
    assert a != b and not a == b   # equal arrays, distinct objects
    assert len({a, a, b}) == 2


def test_step_function_basics():
    h = StepFunction([0.0, 1.0, 2.0], [0.0, 2.0, 1.0])
    assert h(0.5) == 0.0
    assert h(1.0) == 2.0
    assert h(10.0) == 1.0
    assert h(-1.0) == 0.0
    assert h.min_on(0.5, 1.5) == 0.0 and h.min_on(1.5, 0.5) == 0.0
    assert h.min_on(1.5, 2.5) == 1.0 and h.min_on(2.5, 1.5) == 1.0
    for times in ([0.0, float("nan")], [float("nan"), 1.0],
                  [0.0, float("inf")], [float("-inf"), 0.0]):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            StepFunction(times, [1.0, 2.0])


def test_uniform_distance():
    f = StepFunction([0.0, 1.0], [0.0, 3.0])
    g = StepFunction([0.0, 1.5], [0.5, 2.0])
    assert uniform_distance(f, g) == pytest.approx(2.5)
    assert uniform_distance(f, f) == 0.0


def test_modulus_of_continuity_exact():
    h = StepFunction([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 3.0, 2.0])
    assert modulus_of_continuity(h, 0.0) == 0.0
    assert modulus_of_continuity(h, 0.5) == 2.0   # the 1 -> 3 jump
    assert modulus_of_continuity(h, 1.5) == 3.0   # window spans 0 and 3
    assert modulus_of_continuity(h, 10.0) == 3.0
    for delta in (-0.5, np.nan):
        with pytest.raises(ValueError, match="delta must be nonnegative"):
            modulus_of_continuity(h, delta)


@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1,
                max_size=12),
       st.floats(min_value=0.0, max_value=4.0))
@settings(max_examples=80, deadline=None)
def test_modulus_matches_brute_force(vals, delta):
    times = np.arange(len(vals), dtype=float)
    h = StepFunction(times, np.asarray(vals, dtype=float))
    # exact oracle: values v_i (on [t_i, t_{i+1})) and v_j (j > i) fit in a
    # closed window of width delta iff s can sit in segment i with t_j - s
    # <= delta, i.e. t_j - t_{i+1} < delta, or s = t_i with t_j - t_i <= delta
    best = 0.0
    n = len(vals)
    for i in range(n):
        for j in range(i + 1, n):
            if (times[j] - times[i + 1] < delta if i + 1 < n else False) \
                    or times[j] - times[i] <= delta:
                best = max(best, abs(float(vals[j] - vals[i])))
    assert modulus_of_continuity(h, delta) == pytest.approx(best)


def _reference_modulus_of_continuity(f, delta):
    """The per-window loop that ``modulus_of_continuity`` replaced by array
    passes, kept as the reference.  Its window ends and left-edge values
    are looked up for all ends at once; each window keeps its own
    ``seg.max()`` and ``seg.min()`` and the order of the float ``max`` and
    ``min``, which gave the verbatim per-end loop's bits on every case of
    ``test_modulus_equals_the_window_loop_bit_for_bit``."""
    if not delta >= 0:
        raise ValueError("delta must be nonnegative")
    t, v = f.times, f.values
    best = 0.0
    if delta > 0 and v.size > 1:
        best = float(np.max(np.abs(np.diff(v))))
    ends = _sorted_unique(np.concatenate((t, t + delta)))
    lo_edges = f(np.maximum(ends - delta, t[0])).tolist()
    starts = np.searchsorted(t, ends - delta, side="right").tolist()
    stops = np.searchsorted(t, ends, side="right").tolist()
    for lo_edge, i, j in zip(lo_edges, starts, stops):
        if i < j:
            seg = v[i:j]
            hi = max(float(seg.max()), lo_edge)
            lo = min(float(seg.min()), lo_edge)
            best = max(best, hi - lo)
    return float(best)


def _modulus_cases():
    # random, dyadic and integer-valued step functions on 1-40 breakpoints,
    # each with deltas below the ulp scale, at the domain end, past it and
    # infinite
    rng = np.random.default_rng(70)
    for r in range(1112):
        k = int(rng.integers(1, 41))
        if r % 3 == 0:
            t, v = np.sort(rng.uniform(0.0, 5.0, k)), rng.normal(size=k)
        elif r % 3 == 1:
            t = np.sort(rng.choice(np.arange(64) / 8.0, k, replace=False))
            v = rng.integers(-8, 9, k) / 4.0
        else:
            t = np.sort(rng.choice(np.arange(50.0), k, replace=False))
            v = rng.integers(0, 20, k).astype(float)
        f = StepFunction(t, v)
        yield f, (0.0, 1e-18, 0.125, rng.uniform(0.0, 6.0), 5 - 1e-15,
                  float(f.times[-1]), 10.0, 1e300, math.inf)


@pytest.fixture(scope="module")
def unit_height_path():
    # the height path of a unit-weight trace, 20,001 breakpoints
    return simulate_lifo(WeightSeq(np.ones(10_000)), rng_seed=71).H


def test_modulus_equals_the_window_loop_bit_for_bit(unit_height_path):
    # the reference warns at delta = inf (inf - inf is NaN), the breakpoint
    # windows never do
    cases = [(f, delta) for f, deltas in _modulus_cases() for delta in deltas]
    assert len(cases) >= 10_000
    H = unit_height_path
    cases += [(H, 1e-3), (H, 30.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, delta in cases:
            with np.errstate(invalid="ignore"):
                want = _reference_modulus_of_continuity(f, delta)
            assert _bits([modulus_of_continuity(f, delta)]) == _bits([want]), \
                (f, delta)


def test_modulus_past_the_domain_span_is_the_range(unit_height_path):
    # a window as wide as the domain holds every breakpoint value
    fs = [f for f, _ in _modulus_cases()] + [unit_height_path]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in fs:
            span = float(f.times[-1] - f.times[0])
            want = _bits([float(f.values.max() - f.values.min())])
            for delta in (span, 2 * span, 1e300, math.inf):
                assert _bits([modulus_of_continuity(f, delta)]) == want, \
                    (f, delta)


def test_height_of_path_hand_example():
    # two nested arrivals: heights 0,1,2,1,0 at 0,0.2,0.4,0.9,1.7
    y = CadlagStepPath([0.2, 0.4], [1.0, 0.5], 2.0)
    h = height_of_path(y)
    assert h.times == pytest.approx([0.0, 0.2, 0.4, 0.9, 1.7], abs=1e-12)
    assert h.values.tolist() == [0.0, 1.0, 2.0, 1.0, 0.0]


def _brute_height(y: CadlagStepPath, t: float) -> int:
    # count jump times s <= t whose pre-jump level is strictly below the
    # infimum of the path over (s, t]: the path drifts down between jumps,
    # so that is the least of Y(t) and the left limits at jumps in (s, t]
    count = 0
    for s in y.times:
        if s > t:
            break
        low = min([y.value(t)] + [y.value_left(u) for u in y.times if s < u <= t])
        if low > y.value_left(s):
            count += 1
    return count


@given(st.lists(st.tuples(st.floats(min_value=0.05, max_value=5.0),
                          st.floats(min_value=0.1, max_value=2.0)),
                min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_height_matches_direct_count(jumps):
    times = np.unique(np.round([t for t, _ in jumps], 3))
    if times.size == 0:
        return
    sizes = np.asarray([x for _, x in jumps])[:times.size]
    y = CadlagStepPath(times, sizes, float(times[-1]) + 1.0)
    h = height_of_path(y)
    for t in np.linspace(0.0, times[-1] + 0.5, 23):
        # at an exact breakpoint the oracle's strict comparison is subject
        # to one-ulp summation differences; test away from jump instants
        if np.min(np.abs(h.times - t)) < 1e-9:
            continue
        assert h(t) == _brute_height(y, float(t))


def _reference_replay(y, horizon=math.inf, stop_at_empty=math.inf):
    """Preemptive-LIFO stack replay of the load path -t + sum of sizes, one
    event at a time: the reference for ``paths._drain`` and for
    ``simulate_markov``'s replay.  Entry 0 of every array is unused (0)
    and client k is the k-th arrival kept.

    ``y`` is a CadlagStepPath or time-sorted (time, size) pairs, read
    lazily, one pair at a time.  A client departs when the load drifts
    back down to its pre-arrival level.  The replay stops at the first
    arrival past ``horizon`` (clients still queued there keep departure
    +inf) or at the ``stop_at_empty``-th departure that empties the stack,
    whichever comes first; with neither it drains the stack after the last
    arrival.  The end time is that empty epoch, else the horizon, else the
    last event.
    """
    if isinstance(y, CadlagStepPath):
        y = zip(y.times.tolist(), y.sizes.tolist())
    tau, parent, pre_level, departure = [0.0], [0], [0.0], [0.0]
    h_times, h_values = [0.0], [0]
    empty = []
    stack = []  # (client, pre-arrival level)
    cur_t, cur_v = 0.0, 0.0
    # a final pseudo-arrival at the horizon drains what departs by then
    for t, x in chain(y, ((horizon, None),)):
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
    return SimpleNamespace(
        tau=np.asarray(tau), parent=np.asarray(parent, dtype=np.int64),
        pre_level=np.asarray(pre_level), departure=np.asarray(departure),
        empty_epochs=np.asarray(empty), end=end,
        H=_collapsed(h_times[keep], np.asarray(h_values, dtype=float)[keep]))


def _departure_bound(y: CadlagStepPath) -> float:
    """How far the array replay's departure times may lie from the
    reference loop's (CHANGES.md derives it): with u = 2^-53, t_n the
    last arrival and W the total work, the array replay is within
    2 (n + 1) u (t_n + W) of the exact time and the loop within
    5 n u (t_n + W)."""
    n = y.times.size
    return 8 * n * 2.0 ** -53 * (abs(float(y.times[-1])) + float(y._cum[-1]))


@pytest.mark.parametrize("seed", range(4))
def test_height_matches_reference_replay(seed):
    # the array replay reads departures off the path's own sums, the
    # reference loop off one float chain through every event: the tree,
    # the H values and the breakpoint count are equal, the times within
    # the bound, and here rounding does move some of them
    rng = np.random.default_rng(seed)
    w = WeightSeq(1.0 + rng.pareto(2.5, size=3000))
    tr = simulate_lifo(w, rng_seed=seed)
    rep = _reference_replay(tr.Y)
    order = tr.arrival_order
    assert np.array_equal(tr.parent[order],
                          np.concatenate(([0], order))[rep.parent[1:]])
    bound = _departure_bound(tr.Y)
    assert np.all(np.abs(tr.departure[order] - rep.departure[1:]) <= bound)
    for h in (height_of_path(tr.Y), tr.H):
        assert np.array_equal(h.values, rep.H.values)
        assert np.all(np.abs(h.times - rep.H.times) <= bound)
    assert not np.array_equal(tr.H.times, rep.H.times)


def _equal_levels_path():
    """Client 2 departs at 1.5, exactly when client 3 arrives at its
    level, so client 3's parent is client 1."""
    return CadlagStepPath([0.0, 1.0, 1.5], [2.0, 0.5, 1.0], horizon=4.0)


@pytest.mark.parametrize("y", [
    _dyadic_load_path(), _dyadic_zero_hits_path(), _equal_levels_path(),
    CadlagStepPath([0.5], [2.0], horizon=3.0),
    CadlagStepPath([], [], horizon=1.0),
], ids=["dyadic", "dyadic_hits", "equal_levels", "one", "empty"])
def test_replay_exact_on_dyadic_paths(y):
    # every sum is exact, so the array replay equals the loop bit for bit
    got, rep = _drain(y.times, y._cum), _reference_replay(y)
    assert got.parent.tolist() == rep.parent[1:].tolist()
    assert _bits(got.departure) == _bits(rep.departure[1:])
    assert _bits(got.pre_level) == _bits(rep.pre_level[1:])
    for h in (got.H, height_of_path(y)):
        assert _bits(h.times) == _bits(rep.H.times)
        assert h.values.tolist() == rep.H.values.tolist()


def test_replay_at_equal_levels():
    y = _equal_levels_path()
    got = _drain(y.times, y._cum)
    assert got.parent.tolist() == [0, 1, 1]
    assert got.departure.tolist() == [3.5, 1.5, 2.5]
    assert got.H.times.tolist() == [0.0, 1.0, 1.5, 2.5, 3.5]
    assert got.H.values.tolist() == [1.0, 2.0, 2.0, 1.0, 0.0]


@pytest.mark.parametrize("seed", range(3))
def test_pre_level_is_the_left_limit(seed):
    # levels come off the path's own cumulative sums, bit for bit
    rng = np.random.default_rng(seed)
    w = WeightSeq(1.0 + rng.pareto(2.5, size=2000))
    tr = simulate_lifo(w, rng_seed=seed)
    assert _bits(tr.pre_level[tr.arrival_order]) \
        == _bits(tr.Y.value_left(tr.Y.times))


@pytest.mark.parametrize("n", [1, 2, 5, 64, 128, 129, 300, 5000])
def test_all_pairs_and_sparse_table_agree(n):
    # both neighbour searches against a stack over the same levels, on
    # levels with many exact ties
    rng = np.random.default_rng(n)
    lv = np.concatenate(([-np.inf], rng.integers(-20, 20, n) / 4.0, [-np.inf]))
    nxt, prev, stack = [0] * n, [0] * n, [0]
    for k in range(1, n + 2):
        while stack[-1] and lv[stack[-1]] >= lv[k]:
            nxt[stack.pop() - 1] = k
        if k <= n:
            prev[k - 1] = stack[-1]
            stack.append(k)
    last, parent = _lower_neighbours(lv)
    assert (last + 1).tolist() == nxt and parent.tolist() == prev


def test_writer_keeps_percent_signs_verbatim(tmp_path):
    # the array encoder copies string cells byte for byte and the header
    # goes through str: cells and header entries that hold % must come out
    # as the csv module writes them
    tokens = ["%s", "%%", "50%", "%(x)s", "%d", "%", "s%"]
    header = ["%s", "50%", "%%", "rank", 0.5]
    n = 23
    columns = [np.array([tokens[k % 7] for k in range(n)]),
               np.arange(1, n + 1),
               np.array([tokens[-k % 7] for k in range(n)]), np.arange(n) / 8.0,
               np.arange(n, dtype=np.int64) - 11]
    _write_csv(tmp_path / "new.csv", header, columns)
    with open(tmp_path / "old.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(zip(*(c.tolist() for c in columns)))
    assert (tmp_path / "new.csv").read_bytes() \
        == (tmp_path / "old.csv").read_bytes()
    assert (tmp_path / "new.csv").read_bytes().startswith(
        b"%s,50%,%%,rank,0.5\r\n%s,1,%s,0.0,-11\r\n%%,2,s%,0.125,-10\r\n")


def test_writer_takes_a_lone_rank_column(tmp_path):
    _write_csv(tmp_path / "r.csv", ["rank"], [np.arange(1, 4)])
    assert (tmp_path / "r.csv").read_bytes() == b"rank\r\n1\r\n2\r\n3\r\n"


@pytest.mark.parametrize("column", [
    range(1, 4), [1.0, 2.0, 3.0], np.array(["a", "b", "\u00e9"]),
    np.array([2 ** 63, 1, 2], dtype=np.uint64), np.array([1, None, 2]),
    np.array([True, False, True]), np.array([1j, 2j, 3j])],
    ids=["range", "list", "non-ASCII", "past-int64", "object", "bool",
         "complex"])
def test_writer_refuses_other_columns(tmp_path, column):
    # a column is an array of floats, of integers within int64 or of ASCII
    # tokens; anything else raises before a row is written
    with pytest.raises(TypeError, match="a result column is an array"):
        _write_csv(tmp_path / "x.csv", ["x", "y"], [np.arange(3.0), column])
    assert (tmp_path / "x.csv").read_bytes() == b"x,y\r\n"


# 1 + 2**-53 rounds to 1 (ties to even), so a left-to-right sum of
# [1, 2**-53, 2**-53] is 1 while the exact sum 1 + 2**-52 is a float
TINY = 2.0 ** -53


def test_group_fsums_are_exact_per_run():
    values = np.array([1.0, TINY, TINY, 0.1, 1.0, TINY, TINY, TINY, 0.3])
    bounds = [0, 3, 4, 8, 9]
    assert sum([1.0, TINY, TINY]) == 1.0   # the naive sum drops the tail
    sums = _group_fsums(values, np.array(bounds))
    want = [math.fsum(values[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]
    assert _bits(sums) == _bits(want)
    # 1 + 3 * 2**-53 lies halfway between floats and rounds to even
    assert sums.tolist() == [1.0 + 2.0 ** -52, 0.1, 1.0 + 2.0 ** -51, 0.3]
    # singletons are their value, bit for bit; the input stays as it was
    assert _bits(sums[[1, 3]]) == _bits([0.1, 0.3])
    assert values[3] == 0.1 and values.size == 9


def test_group_fsums_edge_cases():
    assert _group_fsums(np.empty(0), np.array([0])).size == 0
    one = _group_fsums(np.array([0.1]), np.array([0, 1]))
    assert one.dtype == float and _bits(one) == _bits([0.1])
    whole = _group_fsums(np.array([1.0, TINY, TINY]), np.array([0, 3]))
    assert whole.tolist() == [1.0 + 2.0 ** -52]


def _fsum_groups(rng, values):
    """Random group bounds over ``values``: runs of 1 to 5."""
    sizes = rng.choice([1, 2, 2, 2, 3, 5], size=values.size)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    return np.concatenate((bounds[bounds < values.size], [values.size]))


def test_group_fsums_equal_fsum_bit_for_bit():
    # each longer run is fsum's sum, each run of one its value
    rng = np.random.default_rng(12)
    big = sys.float_info.max
    m = 4000
    kinds = {
        "random": rng.standard_normal(m) * 10.0 ** rng.integers(-8, 9, m),
        "dyadic": rng.integers(-40, 41, m) / 8.0,   # exact cancellations
        "subnormal": rng.integers(-2 ** 20, 2 ** 20, m) * 5e-324,
        "signed_zero": rng.choice([0.0, -0.0, 1e-300, -1e-300], m),
        "near_overflow": rng.choice([-1.0, 1.0], m)
        * rng.uniform(0.2, 0.5, m) * big,
        "tie_at_the_top": np.tile([big, 2.0 ** 969, big, -(2.0 ** 970)],
                                  m // 4),
        "tail": np.tile([1.0, TINY, 1.0, TINY, TINY], m // 5),
    }
    for name, values in kinds.items():
        bounds = _fsum_groups(rng, values)
        want = []
        for a, b in zip(bounds.tolist(), bounds[1:].tolist()):
            run = values[a:b].tolist()
            with contextlib.suppress(OverflowError):
                want.append((a, b, run[0] if b - a == 1 else math.fsum(run)))
        # the runs fsum can sum, laid side by side
        keep = np.concatenate([values[a:b] for a, b, _ in want])
        cuts = np.cumsum([0] + [b - a for a, b, _ in want])
        got = _group_fsums(keep, cuts)
        assert _bits(got) == _bits([x for *_, x in want]), name


@pytest.mark.parametrize("pair, error", [
    ([1e308, 1e308], OverflowError),
    ([-1e308, -1e308], OverflowError),
    ([sys.float_info.max, 2.0 ** 970], OverflowError),  # rounds to inf
    ([math.inf, -math.inf], ValueError),
    ([-math.inf, math.inf], ValueError),
])
def test_group_fsums_raise_as_fsum_on_a_pair(pair, error):
    with pytest.raises(error) as want:
        math.fsum(pair)
    values = np.array([1.0, *pair, 2.0])
    with pytest.raises(error) as got:
        _group_fsums(values, np.array([0, 1, 3, 4]))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("pair", [
    [math.inf, 1.0], [-math.inf, -1e308], [math.inf, math.inf],
    [math.nan, 1.0], [-0.0, -0.0], [0.0, -0.0], [2.5, -2.5]])
def test_group_fsums_non_finite_and_zero_pairs_as_fsum(pair):
    got = _group_fsums(np.array(pair), np.array([0, 2]))
    assert _bits(got) == _bits([math.fsum(pair)])


def test_runs_iterate_as_slices_with_one_shared_empty_slice():
    base = np.arange(20, dtype=np.int64).reshape(10, 2).copy()
    base.flags.writeable = False
    starts = np.array([0, 2, 2, 5, 5, 9, 10, 3])
    ends = np.array([2, 2, 5, 5, 9, 10, 10, 3])
    runs = _runs(base, starts, ends)
    for _ in range(2):    # each pass slices anew
        got = list(runs)
        assert len(got) == 8
        for run, a, b in zip(got, starts.tolist(), ends.tolist()):
            want = base[a:b]
            assert type(run) is np.ndarray and run.dtype == np.int64
            assert run.shape == want.shape and run.tolist() == want.tolist()
            assert run.base is base    # a view, no copy
        empty = [run for run, a, b in zip(got, starts, ends) if a == b]
        assert len(empty) == 4 and all(e is empty[0] for e in empty)
    assert [runs[i].tolist() for i in range(8)] == [r.tolist() for r in got]
    assert ([r.tolist() for r in runs[1:-1:3]]
            == [r.tolist() for r in got[1:-1:3]])
    # on a tuple base: the tuples' slices
    ids = tuple(range(100, 110))
    starts, ends = np.array([0, 4, 4]), np.array([4, 4, 10])
    want = [ids[0:4], (), ids[4:10]]
    assert list(_runs(ids, starts, ends)) == want
    assert [_runs(ids, starts, ends)[i] for i in range(3)] == want
    none = np.zeros(0, np.int64)
    assert list(_runs(ids, none, none)) == []


def test_sorted_unique_equals_np_unique():
    rng = np.random.default_rng(6)
    cases = [np.empty(0, np.int64), np.array([5]), np.array([2, 2, 2]),
             rng.integers(0, 50, 1000), rng.integers(-2**62, 2**62, 100),
             np.empty(0), np.array([3.0, np.inf, 0.5, 3.0, np.inf]),
             rng.integers(0, 8, 500) / 4.0]
    for a in cases:
        got, want = _sorted_unique(a), np.unique(a)
        assert got.dtype == want.dtype and _bits(got) == _bits(want)
        assert got.tolist() == want.tolist()
    a = np.array([3, 1, 3])
    _sorted_unique(a)
    assert a.tolist() == [3, 1, 3]   # the input stays as it was


def test_breakpoint_grids_equal_union1d(monkeypatch):
    # dyadic breakpoints on a coarse grid: f and g share some, and t + delta
    # lands on others (dyadic deltas), so the unions hold ties
    rng = np.random.default_rng(8)
    cases = []
    for _ in range(200):
        f, g = (StepFunction(np.sort(rng.choice(np.arange(24) / 8.0, k,
                                                replace=False)),
                             rng.integers(-3, 4, k) / 2.0)
                for k in rng.integers(1, 12, 2))
        cases.append((f, g, rng.integers(0, 17) / 8.0))
    for f, g, delta in cases:
        assert _bits(_sorted_unique(np.concatenate((f.times, g.times)))) \
            == _bits(np.union1d(f.times, g.times))
        assert _bits(_sorted_unique(np.concatenate((f.times, f.times + delta)))) \
            == _bits(np.union1d(f.times, f.times + delta))
    got = [(uniform_distance(f, g), modulus_of_continuity(f, delta))
           for f, g, delta in cases]
    # the same functions on np.union1d's grids
    monkeypatch.setattr("wmgraph.paths._sorted_unique",
                        lambda a: np.union1d(a, a[:0]))
    want = [(uniform_distance(f, g), modulus_of_continuity(f, delta))
            for f, g, delta in cases]
    assert got == want


def test_ghp_upper_bound_leaves_numpy_ma_unloaded():
    # numpy 2.4's np.union1d imports numpy.ma on its first call, about
    # 16 ms a process
    paths = [str(Path(wmgraph.__file__).parents[1]),
             os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    script = (
        "import sys\n"
        "from wmgraph import StepFunction, ghp_upper_bound\n"
        "h = StepFunction([0.0, 1.0, 2.0], [0.0, 1.0, 0.5])\n"
        "h2 = StepFunction([0.0, 1.5, 2.5], [0.0, 2.0, 0.5])\n"
        "assert ghp_upper_bound(h, h2, [], [], 0.1, 0.1, 0.25) > 0\n"
        "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def _lexsort_events(clients, arrival, departure):
    """The order of the first vectorised trace writer: one lexsort over all
    2N (time, kind, id) triples, infinite and NaN times dropped after."""
    ids = np.tile(clients, 2)
    kind = np.repeat([0, 1], clients.size)
    time = np.where(kind, departure[ids], arrival[ids])
    order = np.lexsort((ids, kind, time))
    order = order[np.isfinite(time[order])]
    return ids[order], kind[order], time[order]


def _reference_trace_events(clients, arrival, departure):
    """The merge that ordered trace rows before they took ``_drain``'s
    event order: (ids, kind, time) of every arrival (kind 0) and finite
    departure (kind 1), by time, arrivals first, then by client.
    ``clients`` come in arrival order, ties by id, so only the departures
    are sorted: by one stable argsort of their times over ascending ids.
    Two ``searchsorted`` calls then place each sequence in the merged
    one."""
    ta = arrival[clients]
    a_ids, ta = clients[np.isfinite(ta)], ta[np.isfinite(ta)]
    d_ids = np.sort(clients)
    td = departure[d_ids]
    d_ids, td = d_ids[np.isfinite(td)], td[np.isfinite(td)]
    by_time = np.argsort(td, kind="stable")
    d_ids, td = d_ids[by_time], td[by_time]
    at_a = np.arange(ta.size) + np.searchsorted(td, ta, side="left")
    at_d = np.arange(td.size) + np.searchsorted(ta, td, side="right")
    ids = np.empty(ta.size + td.size, dtype=clients.dtype)
    time = np.empty(ids.size)
    kind = np.zeros(ids.size, dtype=np.int64)
    ids[at_a], ids[at_d] = a_ids, d_ids
    time[at_a], time[at_d] = ta, td
    kind[at_d] = 1
    return ids, kind, time


def _replay_traces():
    """(trace, clients in arrival order, arrival, departure) of LIFO and
    Markov replays: critical, Pareto, a departure on an arrival, a
    Markov trace cut at its horizon and 500 replicas end to end."""
    pareto = np.sort(np.random.default_rng(5).pareto(1.5, 3000) + 1.0)[::-1]
    lifo = [simulate_lifo(WeightSeq(np.ones(3000)), rng_seed=0),
            simulate_lifo(WeightSeq(pareto), rng_seed=2),
            # client 1 departs at 1, as client 2 arrives
            simulate_lifo(WeightSeq([1.0, 1.0]), forced_arrivals=[0.0, 1.0]),
            _replica_trace(WeightSeq([2.0, 1.0, 1.0, 0.5]),
                           np.random.default_rng(9).exponential(
                               2.25, size=(500, 4)))]
    for tr in lifo:
        yield tr, tr.arrival_order, tr.arrival, tr.departure
    mk = color_blue_red(simulate_markov(WeightSeq([2.0, 1.0, 1.0, 0.5]),
                                        horizon=12.0, rng_seed=1))
    assert np.isinf(mk.departure).any()
    yield mk, np.arange(1, mk.tau.size), mk.tau, mk.departure


def test_trace_rows_equal_the_reference_orders(tmp_path):
    # rows come in _drain's event order; in exact arithmetic no two
    # departures of a replay tie, so it equals the id-ordered merge and
    # the lexsort, which differ from it only on such ties
    for tr, clients, arrival, departure in _replay_traces():
        tr.write_csv(tmp_path / "trace.csv")
        with open(tmp_path / "trace.csv", newline="") as fh:
            got = [tuple(r[:3]) for r in csv.reader(fh)][1:]
        for ref in (_reference_trace_events, _lexsort_events):
            ids, kind, time = ref(clients, arrival, departure)
            assert got == [(repr(t), ("arrival", "departure")[k], str(j))
                           for t, k, j in zip(time.tolist(), kind.tolist(),
                                              ids.tolist())]


def _dyadic_replay_paths():
    yield _dyadic_load_path()
    yield _dyadic_zero_hits_path()
    yield _equal_levels_path()
    rng = np.random.default_rng(11)
    for n in (2, 10, 1000):
        # few distinct levels: many departures fall on arrivals
        times = np.sort(rng.choice(4 * n, n, replace=False)) / 4.0
        yield CadlagStepPath(times, rng.integers(1, 8, n) / 4.0,
                             horizon=math.inf)


def test_replay_departures_are_distinct_on_dyadic_paths():
    # if k is an ancestor of m, the path drains from l_m to l_k after m
    # departs; otherwise the earlier of the two departs by the other's
    # arrival: with exact sums no two departures share a time, so the
    # event order has no departure tie
    for y in _dyadic_replay_paths():
        dep = _drain(y.times, y._cum).departure
        assert _sorted_unique(dep).size == dep.size
