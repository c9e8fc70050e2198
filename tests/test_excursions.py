import math

import numpy as np
import pytest

from wmgraph import (
    CadlagStepPath,
    StepFunction,
    assign_pinches,
    decompose_with_masses,
    excursions_above_zero,
    limit_masses,
)
from wmgraph.continuum import GridPath
from wmgraph.excursions import TOL_EXC, _canonical, _intervals_above
from wmgraph.lifo_coder import PinchSetup
from wmgraph.paths import _drain


def _pinch_setup(rows):
    t, s, y, u, v = (np.asarray(col, dtype=float) for col in zip(*rows))
    return PinchSetup(t=t, y=y, s=s, u=u.astype(int), v=v.astype(int),
                      self_loop=u == v,
                      boundary_tie=np.zeros(len(rows), dtype=bool))


@pytest.mark.parametrize("horizon", [None, 1.0])
def test_no_zero_length_excursion_at_the_domain_end(horizon):
    # h turns positive at its last breakpoint: the interval (1.0, 1.0)
    # has no length, and its local path would repeat the breakpoint 0
    h = StepFunction([0.0, 1.0], [0.0, 1.0])
    dec = excursions_above_zero(h, horizon=horizon)
    assert dec.count == 0
    assert dec.local_paths[:] == ()
    h = StepFunction([0.0, 1.0, 2.0], [1.0, 0.0, 1.0])
    dec = excursions_above_zero(h, horizon=None if horizon is None else 2.0)
    assert dec.intervals.tolist() == [[0.0, 1.0]]
    assert dec.local_paths[0].times.tolist() == [0.0, 1.0]


def test_excursions_above_zero_hand_example():
    h = StepFunction([0.0, 2.0, 3.0, 4.0, 6.0, 7.0],
                     [1.0, 0.0, 2.0, 0.0, 1.0, 0.0])
    dec = excursions_above_zero(h)
    assert dec.count == 3
    assert dec.intervals.tolist() == [[0.0, 2.0], [3.0, 4.0], [6.0, 7.0]]
    assert dec.lengths.tolist() == [2.0, 1.0, 1.0]
    # equal lengths break ties by left endpoint
    assert dec.intervals[1][0] < dec.intervals[2][0]


def test_local_coding_paths_are_shifted_and_zero_terminated():
    h = StepFunction([0.0, 2.0, 3.0, 4.0], [1.0, 0.0, 2.0, 0.0])
    dec = excursions_above_zero(h)
    g = dec.local_paths[0]          # the (0, 2) excursion
    assert g.times[0] == 0.0
    assert g.times[-1] == 2.0       # terminal breakpoint at the length
    assert g.values[-1] == 0.0
    assert g(0.5) == 1.0
    g2 = dec.local_paths[1]         # the (3, 4) excursion, shifted to 0
    assert g2.times[0] == 0.0
    assert g2(0.5) == 2.0
    assert g2.times[-1] == 1.0


def test_open_final_excursion_uses_horizon():
    h = StepFunction([0.0, 1.0, 2.0], [0.0, 3.0, 1.0])
    dec = excursions_above_zero(h, horizon=5.0)
    assert dec.intervals.tolist() == [[1.0, 5.0]]
    assert dec.lengths.tolist() == [4.0]


def test_decompose_masses_exact_for_dyadic_jumps():
    # drift -1 path with dyadic jump sizes: excursion lengths are exact
    # sums of member jumps, so total mass equals the total work exactly
    times = np.array([0.0, 0.125, 0.5, 2.0, 2.25])
    sizes = np.array([0.25, 0.0625, 0.5, 0.125, 0.25])
    y = CadlagStepPath(times, sizes, horizon=4.0)
    dec = decompose_with_masses(y)
    assert math.fsum(dec.lengths) == math.fsum(sizes)
    assert np.all(np.diff(dec.lengths) <= 0)
    # the first busy period holds jumps 0 and 1: starts at 0, runs 0.3125
    idx = [k for k, (l, _) in enumerate(dec.intervals.tolist()) if l == 0.0]
    assert len(idx) == 1
    assert dec.lengths[idx[0]] == 0.25 + 0.0625


def test_empty_load_path_has_no_excursions():
    dec = decompose_with_masses(CadlagStepPath([], [], 0.0))
    assert dec.count == 0 and dec.lengths.dtype == float
    assert dec.intervals.shape == (0, 2)


def test_decomposition_compares_by_identity():
    y = CadlagStepPath([0.2, 0.4, 3.0], [1.0, 0.5, 0.25], 4.0)
    a, b = decompose_with_masses(y), decompose_with_masses(y)
    assert a == a and not a != a
    assert a != b and not a == b   # equal fields, distinct objects


def test_decompose_local_paths_close_at_their_length():
    rng = np.random.default_rng(3)
    times = np.sort(rng.uniform(0.0, 6.0, size=12))
    sizes = rng.uniform(0.05, 0.6, size=12)
    y = CadlagStepPath(times, sizes, horizon=20.0)
    dec = decompose_with_masses(y)
    for g, z in zip(dec.local_paths, dec.lengths):
        assert g.times[0] == 0.0
        assert g.horizon == pytest.approx(z)
        # the localized excursion ends exactly at level 0
        assert g.value_left(g.horizon) == pytest.approx(0.0, abs=1e-12)
        assert math.fsum(g.sizes) == pytest.approx(z)


def test_excursion_masses_step_and_grid_agree():
    times = np.array([0.2, 0.3, 1.5])
    sizes = np.array([0.5, 0.25, 0.75])
    y = CadlagStepPath(times, sizes, horizon=4.0)
    exact = decompose_with_masses(y).lengths
    grid = np.arange(0.0, 4.0, 1e-4)
    vals = np.zeros_like(grid) - grid
    for t, x in zip(times, sizes):
        vals[grid >= t] += x
    approx = limit_masses(GridPath(grid, vals, 0, 0.0))
    assert exact.size == approx.size
    assert approx == pytest.approx(exact, abs=5e-4)
    assert limit_masses(GridPath(grid, vals, 0, 0.0), top_k=1).tolist() \
        == [approx[0]]


def test_near_ties_reported():
    h = StepFunction([0.0, 1.0, 2.0, 3.0 + 1e-13, 4.0],
                     [1.0, 0.0, 1.0, 0.0, 0.0])
    dec = excursions_above_zero(h)
    assert dec.near_ties == ((0, 1),)


def test_assign_pinches_localizes():
    h = StepFunction([0.0, 1.5, 3.0, 5.0], [1.0, 0.0, 2.0, 0.0])
    dec = excursions_above_zero(h)
    # canonical order: (3, 5) first (length 2), then (0, 1.5)
    assert dec.intervals[0].tolist() == [3.0, 5.0]
    pin = _pinch_setup([(4.5, 3.5, 0.7, 1, 2), (1.0, 0.5, 0.3, 3, 4),
                        (4.0, 3.2, 0.1, 1, 2)])
    out = assign_pinches(dec, pin)
    flat = [x for p in out[0] for x in p]
    assert flat == pytest.approx([0.2, 1.0, 0.1, 0.5, 1.5, 0.7])
    assert out[1] == ((0.5, 1.0, 0.3),)


def test_assign_pinches_rejects_escapes():
    h = StepFunction([0.0, 1.5, 3.0, 5.0], [1.0, 0.0, 2.0, 0.0])
    dec = excursions_above_zero(h)
    with pytest.raises(ValueError, match="escapes"):
        assign_pinches(dec, _pinch_setup([(4.0, 1.0, 0.1, 1, 2)]))
    with pytest.raises(ValueError, match="outside"):
        assign_pinches(dec, _pinch_setup([(2.5, 2.5, 0.1, 1, 2)]))


def _reference_decompose(y):
    """The eager decomposition the lazy one replaced, kept as the
    reference: a jump-index list and a CadlagStepPath per excursion,
    ordered by a Python sort.  Returns (intervals, lengths, local paths,
    near ties)."""
    raw = []
    start, members, acc, run = None, [], [], 0.0
    for i, (t, x) in enumerate(zip(y.times, y.sizes)):
        if start is None or t >= start + run:
            if start is not None:
                raw.append((start, math.fsum(acc), members))
            start, members, acc, run = float(t), [], [], 0.0
        members.append(i)
        acc.append(float(x))
        run += x
    if start is not None:
        raw.append((start, math.fsum(acc), members))
    intervals = [(s, s + z) for s, z, _ in raw]
    lengths = [z for _, z, _ in raw]
    paths = [CadlagStepPath(y.times[m] - s, y.sizes[m], horizon=z)
             for s, z, m in raw]
    order = sorted(range(len(raw)), key=lambda k: (-lengths[k], intervals[k][0]))
    lengths = [lengths[k] for k in order]
    srt = sorted(range(len(lengths)), key=lambda k: lengths[k])
    ties = tuple((min(a, b), max(a, b)) for a, b in zip(srt, srt[1:])
                 if abs(lengths[a] - lengths[b]) < 10 * TOL_EXC and lengths[a] > 0)
    return (tuple(intervals[k] for k in order), np.asarray(lengths),
            [paths[k] for k in order], ties)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64).tolist()


def _critical_load_path(n, seed, weights=None):
    w = np.ones(n) if weights is None else weights
    rng = np.random.default_rng(seed)
    times = np.sort(rng.exponential(w.sum() / w))
    return CadlagStepPath(times, w, horizon=w.sum())


def _dyadic_load_path():
    """Dyadic sizes at dyadic times, mean work 3/4 of the gap: every sum
    is exact and many excursion lengths are exactly equal."""
    sizes = np.random.default_rng(7).integers(1, 12, 3000) / 32.0
    return CadlagStepPath(np.arange(3000) / 4.0, sizes, horizon=750.0)


def _criterion_7_load_path(r=0):
    """A load path of criterion 7: n = 1e4 unit jumps at sorted
    exponential times of mean n, observed up to n."""
    w = np.ones(10 ** 4)
    rng = np.random.default_rng(np.random.SeedSequence([11, r]))
    return CadlagStepPath(np.sort(rng.exponential(w.sum() / w)), w,
                          horizon=w.sum())


def _dyadic_zero_hits_path():
    """R hits 0 exactly at the next arrival: the jump at 0.5 opens an
    excursion, the one at 0.75 does not (R = 0.25 there)."""
    return CadlagStepPath([0.0, 0.5, 0.75, 1.0, 2.0],
                          [0.5, 0.5, 0.25, 0.5, 0.25], horizon=4.0)


def _pareto_load_path():
    w = np.sort(np.random.default_rng(5).pareto(1.5, 3000) + 1.0)[::-1]
    return _critical_load_path(3000, 2, w)


@pytest.mark.parametrize("y", [
    _critical_load_path(3000, 0),
    _critical_load_path(3000, 1),
    _pareto_load_path(),
    _dyadic_load_path(),
    _criterion_7_load_path(),
    _dyadic_zero_hits_path(),
], ids=["unit0", "unit1", "pareto", "dyadic", "criterion7", "dyadic_hits"])
def test_decompose_matches_reference(y):
    intervals, lengths, paths, ties = _reference_decompose(y)
    dec = decompose_with_masses(y)
    assert [_bits(iv) for iv in dec.intervals] == [_bits(iv) for iv in intervals]
    assert _bits(dec.lengths) == _bits(lengths)
    assert dec.near_ties == ties
    assert len(dec.local_paths) == len(paths) == dec.count
    for g, ref in zip(dec.local_paths, paths):
        assert _bits(g.times) == _bits(ref.times)
        assert _bits(g.sizes) == _bits(ref.sizes)
        assert _bits([g.horizon]) == _bits([ref.horizon])


def test_exact_zero_hits_open_an_excursion():
    # R just after a jump equals the gap to the next one, so R is exactly
    # 0 at that arrival: the arrival opens an excursion, as the old loop's
    # t >= start + run does
    for y in (_dyadic_zero_hits_path(), _dyadic_load_path()):
        assert np.any(y.reflected[:-1] == np.diff(y.times))
    dec = decompose_with_masses(_dyadic_zero_hits_path())
    assert sorted(dec.intervals.tolist()) == [[0.0, 0.5], [0.5, 1.75],
                                              [2.0, 2.25]]


@pytest.mark.parametrize("y", [
    _critical_load_path(3000, 0),
    _pareto_load_path(),
    _dyadic_load_path(),
    _criterion_7_load_path(),
    _dyadic_zero_hits_path(),
], ids=["unit0", "pareto", "dyadic", "criterion7", "dyadic_hits"])
def test_openings_are_the_replay_roots(y):
    # both read the same levels, so an excursion opens exactly at each
    # root of the LIFO replay, and the lengths are the busy periods' work
    roots = np.flatnonzero(_drain(y.times, y._cum).parent == 0)
    dec = decompose_with_masses(y)
    assert np.sort(dec.intervals[:, 0]).tolist() == y.times[roots].tolist()
    bounds = roots.tolist() + [y.times.size]
    assert sorted(dec.lengths.tolist()) == sorted(
        math.fsum(y.sizes[a:b].tolist()) for a, b in zip(bounds, bounds[1:]))


def test_dyadic_decomposition_has_exact_ties():
    dec = decompose_with_masses(_dyadic_load_path())
    assert len(dec.near_ties) > 100
    # tied lengths are ordered by their left endpoints
    for (l1, r1), (l2, r2) in zip(dec.intervals, dec.intervals[1:]):
        assert r1 - l1 > r2 - l2 or (r1 - l1 == r2 - l2 and l1 < l2)


def test_local_paths_are_a_lazy_read_only_sequence():
    y = CadlagStepPath([0.0, 0.5, 3.0], [1.0, 0.25, 0.5], horizon=4.0)
    paths = decompose_with_masses(y).local_paths
    assert len(paths) == 2
    assert paths[-1].times.tolist() == [0.0]      # the (3, 3.5) excursion
    assert paths[0].times.tolist() == [0.0, 0.5]
    assert [p.horizon for p in paths] == [1.25, 0.5]
    assert [p.horizon for p in paths[::-1]] == [0.5, 1.25]
    with pytest.raises(IndexError):
        paths[2]
    with pytest.raises(TypeError):
        paths[0] = None


def _reference_assign(dec, pinches):
    """The O(P*K) scan the binary search replaced."""
    local = [[] for _ in dec.intervals]
    for i in range(pinches.size):
        t_p, s_p, y_p = float(pinches.t[i]), float(pinches.s[i]), float(pinches.y[i])
        for k, (l, r) in enumerate(dec.intervals.tolist()):
            if l <= t_p < r:
                local[k].append((s_p - l, t_p - l, y_p))
                break
    return tuple(tuple(sorted(lst, key=lambda p: p[1])) for lst in local)


def test_assign_pinches_over_many_excursions():
    y = _critical_load_path(3000, 4)
    dec = decompose_with_masses(y)
    assert dec.count > 500
    rng = np.random.default_rng(9)
    rows = []
    for k in rng.integers(0, dec.count, size=400):
        l, r = dec.intervals[k]
        t = l + rng.random() * (r - l)
        rows.append((t, l + rng.random() * (t - l), rng.random(), 1, 2))
    rows.append((dec.intervals[0][0], dec.intervals[0][0], 0.5, 1, 1))
    pin = _pinch_setup(sorted(rows))
    out = assign_pinches(dec, pin)
    assert out == _reference_assign(dec, pin)
    assert sum(len(p) for p in out) == len(rows)
    # outside: past the last excursion, before the first, and at a right
    # end followed by an idle gap; escaping: a start before its excursion
    by_time = sorted(dec.intervals.tolist())
    r = next(r1 for (_, r1), (l2, _) in zip(by_time, by_time[1:]) if l2 > r1)
    for t in (by_time[-1][1] + 1.0, -1.0, r):
        with pytest.raises(ValueError, match="outside"):
            assign_pinches(dec, _pinch_setup([(t, t, 0.1, 1, 2)]))
    l, r = dec.intervals[0]
    with pytest.raises(ValueError, match="escapes"):
        assign_pinches(dec, _pinch_setup([((l + r) / 2, l - 1e-3, 0.1, 1, 2)]))


def _reference_excursions_above_zero(h, horizon=None, grid_tol=None):
    """The per-point loop the transition scan replaced, kept as the
    reference."""
    if isinstance(h, StepFunction):
        times, values = h.times, h.values
        thresh = 0.0
        end = float(times[-1]) if horizon is None else float(horizon)
    else:
        times, values = h
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        thresh = TOL_EXC if grid_tol is None else grid_tol
        step = times[1] - times[0] if times.size > 1 else 0.0
        end = float(times[-1] + step) if horizon is None else float(horizon)
    intervals = []
    open_at = None
    for t, v in zip(times.tolist(), values.tolist()):
        if v > thresh and open_at is None:
            open_at = t
        elif v <= thresh and open_at is not None:
            intervals.append((open_at, t))
            open_at = None
    if open_at is not None:
        intervals.append((open_at, end))
    # an interval that opens at or after ``end`` holds no excursion
    intervals = [(l, r) for l, r in intervals if r > l]
    ls, rs = np.asarray(intervals, dtype=float).reshape(-1, 2).T
    return _canonical(ls, rs, rs - ls, lambda i: None)


def _random_grid_values(rng, n):
    """Values on n grid points: signs mixed with exact threshold hits
    and NaN runs at the start, inside and at the end."""
    v = rng.choice([-1.0, 0.0, TOL_EXC, 2 * TOL_EXC, 0.5, 1.0], size=n)
    v *= rng.uniform(0.5, 2.0, size=n) ** (np.abs(v) > 1e-6)
    for _ in range(rng.integers(0, 4)):
        a = int(rng.integers(0, max(n, 1)))
        v[a:a + int(rng.integers(1, 6))] = math.nan
    if n and rng.random() < 0.3:
        v[:int(rng.integers(1, 4))] = math.nan
    if n and rng.random() < 0.3:
        v[-int(rng.integers(1, 4)):] = math.nan
    return v


def _assert_same_decomposition(dec, ref):
    assert dec.intervals.shape == ref.intervals.shape == (dec.count, 2)
    assert np.array_equal(dec.intervals, ref.intervals)
    assert _bits(dec.lengths) == _bits(ref.lengths)
    assert dec.near_ties == ref.near_ties


def _scan_grid(times, values, end, tol=TOL_EXC):
    """The scan on a grid, by value > tol as values - tol > 0 (the two
    agree on every float: x - tol rounds to 0 only when x == tol)."""
    ls, rs = _intervals_above(times, values - tol, end)
    return _canonical(ls, rs, rs - ls, None)


@pytest.mark.parametrize("seed", range(8))
def test_grid_scan_equals_per_point_reference(seed):
    rng = np.random.default_rng(seed)
    for n in [0, 1, 2, 3] + rng.integers(4, 400, size=40).tolist():
        dt = rng.choice([1e-3, 0.25, 1.0])
        times = np.arange(n) * dt
        values = _random_grid_values(rng, n)
        horizons = [None, n * dt + 0.5, 0.5 * n * dt] if n else [3.0]
        for horizon in horizons:
            end = times[-1] + (dt if n > 1 else 0.0) if horizon is None else horizon
            for grid_tol in (None, 0.0, 0.75):
                h = (times, values)
                ref = _reference_excursions_above_zero(h, horizon, grid_tol)
                tol = TOL_EXC if grid_tol is None else grid_tol
                _assert_same_decomposition(_scan_grid(times, values, end, tol),
                                           ref)
        if n:
            # limit_masses: the reference's lengths above the running
            # infimum, bit for bit
            drop = values - np.minimum.accumulate(values)
            want = _reference_excursions_above_zero((times, drop)).lengths
            g = GridPath(times, values, 0, 0.0)
            assert _bits(limit_masses(g, top_k=n)) == _bits(want)
            assert _bits(limit_masses(g, top_k=3)) == _bits(want[:3])


def test_grid_scan_closes_an_excursion_open_at_the_end():
    t, v = np.arange(5.0), np.array([0.0, 1.0, math.nan, 1.0, math.nan])
    assert _scan_grid(t, v, 5.0).intervals.tolist() == [[1.0, 5.0]]
    assert _scan_grid(t, v, 7.5).intervals.tolist() == [[1.0, 7.5]]
    assert limit_masses(GridPath(t, v, 0, 0.0)).tolist() == [4.0]
    # a value at the threshold closes; a NaN neither opens nor closes
    t, v = np.arange(4.0), np.array([math.nan, 1.0, TOL_EXC, math.nan])
    assert _scan_grid(t, v, 4.0).intervals.tolist() == [[1.0, 2.0]]


@pytest.mark.parametrize("seed", range(4))
def test_step_function_scan_equals_per_point_reference(seed):
    rng = np.random.default_rng(100 + seed)
    for n in [1, 2] + rng.integers(3, 200, size=30).tolist():
        times = np.cumsum(rng.uniform(0.1, 1.0, size=n))
        values = _random_grid_values(rng, n) * 1e12     # 0 is the threshold
        h = StepFunction(times, values)
        for horizon in (None, float(times[-1]) + 2.0):
            ref = _reference_excursions_above_zero(h, horizon)
            dec = excursions_above_zero(h, horizon)
            _assert_same_decomposition(dec, ref)
            for k, (l, r) in enumerate(dec.intervals):
                g = dec.local_paths[k]
                assert g.times[0] == 0.0 and g.times[-1] == r - l


def _reference_local_path(h, l, r):
    """Excursion [l, r)'s local path as the removed ``StepFunction``
    methods built it, ``h.restricted(l, r).shifted(-l)`` with a terminal
    zero at r - l, kept as the reference."""
    lo = np.searchsorted(h.times, l, side="right") - 1
    hi = np.searchsorted(h.times, r, side="left")
    times = h.times[max(lo, 0):hi].copy()
    values = h.values[max(lo, 0):hi].copy()
    if times.size == 0 or times[0] > l:
        times = np.concatenate(([l], times))
        values = np.concatenate(([h(l)], values))
    else:
        times[0] = l
    g = StepFunction(times, values)
    g = StepFunction(g.times + -l, g.values)
    return StepFunction(np.concatenate((g.times, [r - l])),
                        np.concatenate((g.values, [0.0])))


@pytest.mark.parametrize("kind", ["random", "dyadic", "nan_interior"])
def test_local_paths_equal_the_restrict_and_shift_reference(kind):
    rng = np.random.default_rng({"random": 110, "dyadic": 111,
                                 "nan_interior": 112}[kind])
    for n in [1, 2, 3] + rng.integers(4, 300, size=40).tolist():
        if kind == "dyadic":
            times = np.sort(rng.choice(np.arange(4 * n) / 8.0, n,
                                       replace=False))
            values = rng.integers(-2, 5, n) / 4.0
        else:
            times = np.cumsum(rng.uniform(0.1, 1.0, size=n))
            values = (rng.normal(size=n) if kind == "random"
                      else _random_grid_values(rng, n) * 1e12)
        h = StepFunction(times, values)
        end = float(times[-1])
        # horizons closing an excursion open at the end past, at and
        # before the last breakpoint
        for horizon in (None, end + 2.0, end + 0.125, (times[0] + end) / 2):
            dec = excursions_above_zero(h, horizon)
            assert len(dec.local_paths) == dec.count
            for k, (l, r) in enumerate(dec.intervals):
                g, ref = dec.local_paths[k], _reference_local_path(h, l, r)
                assert _bits(g.times) == _bits(ref.times), (kind, n, k)
                assert _bits(g.values) == _bits(ref.values), (kind, n, k)
