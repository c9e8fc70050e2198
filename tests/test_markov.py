import csv
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmgraph import (
    WeightSeq,
    chi_square_gof,
    color_blue_red,
    gw_forest_stats,
    gw_generation_sizes,
    mu_w_pmf,
    sample_offspring_counts,
    simulate_lifo,
    simulate_markov,
    verify_embedding,
)
from wmgraph.markov_coder import (GwForestStats, IdentityReport, MarkovTrace,
                                  TOL_IDENTITY, _choice_cdf, _clock,
                                  _cum_steps, completed_clients)
from wmgraph.paths import (CadlagStepPath, StepFunction, _drain, _openings,
                           _sorted_unique, height_of_path)

from test_excursions import _bits
from test_paths import _departure_bound, _reference_replay


def test_mu_pmf_oracle():
    # w = (2,1,1): sigma_1 = 4; mu(k) = sum_j w_j^{k+1} e^{-w_j} / (4 k!)
    w = WeightSeq([2.0, 1.0, 1.0])
    for k in range(6):
        expected = (2.0 ** (k + 1) * math.exp(-2.0)
                    + 2 * math.exp(-1.0)) / (4.0 * math.factorial(k))
        assert mu_w_pmf(w, k) == pytest.approx(expected, rel=1e-12)
    ks = np.arange(60)
    pk = mu_w_pmf(w, ks)
    assert pk.sum() == pytest.approx(1.0, abs=1e-12)
    assert (ks * pk).sum() == pytest.approx(w.sigma(2.0) / w.sigma(1.0),
                                            abs=1e-12)


def test_offspring_sampler_matches_pmf():
    w = WeightSeq([2.0, 1.0, 1.0])
    ks = sample_offspring_counts(w, 20000, rng_seed=3)
    kmax = int(ks.max())
    counts = np.bincount(ks, minlength=kmax + 1)
    probs = mu_w_pmf(w, np.arange(kmax + 1))
    probs = np.append(probs[:-1], 1.0 - probs[:-1].sum())  # close the tail
    stat, p = chi_square_gof(counts, probs)
    assert p > 1e-3


@pytest.mark.parametrize("w", [WeightSeq([2.0, 1.0, 1.0]),
                               WeightSeq([1.0, 0.75, 0.5, 0.25, 0.125]),
                               WeightSeq(np.linspace(2.0, 0.01, 1000))])
def test_type_draws_are_generator_choice(w):
    # the inverse-CDF type draw is rng.choice(p=nu_w), stream included
    nu = w.w / w.sigma(1.0)
    ks = sample_offspring_counts(w, 5000, rng_seed=11)
    rng = np.random.default_rng(11)
    assert np.array_equal(
        ks, rng.poisson(w.w[rng.choice(w.j_max, size=5000, p=nu)]))
    # offspring means 1.5, 0.72 and 1.33: 12 generations stay small
    # generations above j_max draw cell counts instead (the first weights)
    zs = gw_generation_sizes(w, 7, 12, rng_seed=12)
    rng = np.random.default_rng(12)
    ref = [7]
    for _ in range(12):
        z = ref[-1]
        if z > w.j_max:
            total = np.dot(rng.multinomial(z, nu), w.w)
        else:
            total = w.w[rng.choice(w.j_max, size=z, p=nu)].sum()
        ref.append(int(rng.poisson(float(total))))
    assert np.array_equal(zs, ref)
    # arrivals come in chunks of 16, 32, 64, ...: the chunk's unit
    # exponential gaps, then its types by rng.choice(p=nu_w); the times
    # are the gaps' running sum, one addition at a time
    tr = simulate_markov(w, horizon=50.0, rng_seed=13)
    assert tr.n_arrivals > 16 + 32      # at least three chunks are read
    rng = np.random.default_rng(13)
    t, tau, types, m = 0.0, [], [], 16
    while len(tau) < tr.n_arrivals + 1:     # and the first past the horizon
        for gap in rng.exponential(1.0, size=m).tolist():
            t += gap
            tau.append(t)
        types += (rng.choice(w.j_max, size=m, p=nu) + 1).tolist()
        m *= 2
    n = tr.n_arrivals
    assert tr.tau[1:].tolist() == tau[:n] and tr.types[1:].tolist() == types[:n]
    assert tau[n] > 50.0


def test_generation_sizes_absorb_at_zero():
    w = WeightSeq([0.5, 0.25])  # subcritical
    zs = gw_generation_sizes(w, 3, 40, rng_seed=5)
    assert zs[0] == 3
    hit = np.nonzero(zs == 0)[0]
    assert hit.size > 0
    assert np.all(zs[hit[0]:] == 0)


def test_forced_arrivals_replay():
    # deterministic two-client trace: type 1 then type 1 repeat
    w = WeightSeq([1.0])
    tr = simulate_markov(w, forced_arrivals=[(0.5, 1), (0.7, 1)])
    assert tr.departure[2] == pytest.approx(1.7)   # preempted block
    assert tr.departure[1] == pytest.approx(2.5)
    tr = color_blue_red(tr)
    assert tr.color[1] == "b" and tr.color[2] == "r"
    assert tr.blue_side[2]                         # red root charged blue side
    assert tr.red_blocks == ((0.7, 1.7),)
    assert tr.blue_intervals[0] == (0.0, 0.7)
    rep = verify_embedding(tr)
    assert rep.passed, rep.results


def test_identities_across_regimes():
    cases = [
        (WeightSeq([2.0, 1.0, 1.0, 1.0]), 40.0),   # supercritical
        (WeightSeq([1.0, 0.5]), 100.0),            # subcritical
        (WeightSeq([1.0, 1.0]), 50.0),             # critical
    ]
    for w, horizon in cases:
        for r in range(10):
            tr = simulate_markov(w, horizon=horizon, stop_at_empty=5,
                                 rng_seed=np.random.SeedSequence([21, r]))
            rep = verify_embedding(color_blue_red(tr))
            assert rep.passed, (w.w, r, rep.results)


def test_blue_types_distinct_and_repeat_jumps_counted():
    w = WeightSeq([1.0, 0.5])
    for r in range(10):
        tr = simulate_markov(w, horizon=200.0,
                             rng_seed=np.random.SeedSequence([23, r]))
        tr = color_blue_red(tr)
        blue_types = [int(tr.types[i]) for i in range(1, tr.n_arrivals + 1)
                      if tr.color[i] == "b"]
        assert len(blue_types) == len(set(blue_types))
        # A accumulates exactly the blue-side repeat jumps
        reds_on_blue = [i for i in range(1, tr.n_arrivals + 1)
                        if tr.blue_side[i] and tr.color[i] == "r"]
        total = math.fsum(float(w.w[tr.types[i] - 1]) for i in reds_on_blue)
        assert tr.A(tr.A.times[-1]) == pytest.approx(total, abs=1e-12)


def test_clock_pair_inverse():
    intervals = ((0.0, 1.0), (2.0, 2.5), (4.0, 10.0))
    lam = _clock(intervals)
    assert lam(0.5) == 0.5
    assert lam(1.5) == 1.0
    assert lam(2.25) == 1.25
    assert lam(11.0) == 7.5
    # one array call equals the scalar calls, element by element
    ts = np.linspace(-1.0, 11.0, 97)
    assert lam(ts).tolist() == [lam(float(t)) for t in ts]
    assert _clock(())(3.0) == 0.0


def _reference_color_blue_red(trace):
    """Per-arrival colouring and clock images, one scalar clock call per
    arrival: the colour fields, blue intervals, Y_emb and A."""
    n = trace.n_arrivals
    color = np.empty(n + 1, dtype="U1")
    color[0] = ""
    blue_side = np.zeros(n + 1, dtype=bool)
    blue_types: set = set()
    red_blocks = []
    open_block_end = -math.inf
    for i in range(1, n + 1):
        t = float(trace.tau[i])
        in_red = t < open_block_end
        if not in_red:
            blue_side[i] = True
        repeat = int(trace.types[i]) in blue_types
        if in_red or repeat:
            color[i] = "r"
            if not in_red:
                end = float(trace.departure[i])
                red_blocks.append((t, end))
                open_block_end = end
        else:
            color[i] = "b"
            blue_types.add(int(trace.types[i]))
    end = trace.horizon
    red_blocks = [(a, min(b, end)) for a, b in red_blocks if a < end]
    blue_intervals = []
    cursor = 0.0
    for a, b in red_blocks:
        if a > cursor:
            blue_intervals.append((cursor, a))
        cursor = max(cursor, b)
    if cursor < end:
        blue_intervals.append((cursor, end))
    lam = _clock(blue_intervals)
    a_times, a_sizes, y_times, y_sizes = [], [], [], []
    for i in range(1, n + 1):
        if not blue_side[i]:
            continue
        bt = lam(float(trace.tau[i]))
        wt = float(trace.weights.w[trace.types[i] - 1])
        if color[i] == "b":
            y_times.append(bt)
            y_sizes.append(wt)
        else:
            a_times.append(bt)
            a_sizes.append(wt)
    Y_emb = CadlagStepPath(np.asarray(y_times), np.asarray(y_sizes), lam(end))
    A = _cum_steps(np.asarray(a_times, dtype=float),
                   np.asarray(a_sizes, dtype=float))
    return replace(trace, color=color, blue_side=blue_side,
                   red_blocks=tuple(red_blocks),
                   blue_intervals=tuple(blue_intervals), A=A, Y_emb=Y_emb)


def _reference_verify_embedding(trace):
    """verify_embedding with one scalar clock call per arrival in (a) and
    (c) and a per-arrival type set in (e)."""
    results = {}
    lam_b = _clock(trace.blue_intervals)
    end = trace.horizon
    blue_total = lam_b(end)
    ev = trace.events()
    ev = ev[ev <= end]
    # (a) and (c) compare loads: rounding grows with events and load
    work = sum(float(trace.weights.w[trace.types[i] - 1])
               for i in range(1, trace.n_arrivals + 1))
    tol_load = TOL_IDENTITY + 8 * ev.size * np.finfo(float).eps * (work + end)
    first = {}
    for i in range(1, trace.n_arrivals + 1):
        if trace.color[i] == "b":
            j = int(trace.types[i])
            bt = lam_b(float(trace.tau[i]))
            if j not in first or bt < first[j]:
                first[j] = bt
    times = sorted(first.values())
    sizes = [trace.weights.w[j - 1] for j, bt in
             sorted(first.items(), key=lambda kv: kv[1])]
    Y_rec = CadlagStepPath(np.asarray(times), np.asarray(sizes), blue_total)
    mids = (ev[:-1] + ev[1:]) / 2.0
    blue = np.asarray(trace.blue_intervals, dtype=float).reshape(-1, 2)
    k = np.searchsorted(blue[:, 0], mids, side="right") - 1
    tb = mids[(k >= 0) & (mids < blue[np.maximum(k, 0), 1])]
    sb = lam_b(tb)
    err_a = float(np.max(np.abs(Y_rec.value(sb) - trace.X.value(tb)),
                         initial=0.0))
    results["Y_equals_X_at_theta"] = {
        "pass": bool(err_a < tol_load), "max_abs_err": err_a,
        "n_points": int(tb.size)}
    err_b = float(np.max(np.abs(height_of_path(Y_rec)(sb) - trace.H(tb)),
                         initial=0.0))
    results["height_through_blue_clock"] = {
        "pass": bool(err_b < TOL_IDENTITY), "max_abs_err": err_b,
        "n_points": int(tb.size)}
    lam_r = _clock(trace.red_blocks)
    xb_t, xb_s, xr_t, xr_s = [], [], [], []
    for i in range(1, trace.n_arrivals + 1):
        t = float(trace.tau[i])
        wt = float(trace.weights.w[trace.types[i] - 1])
        if trace.blue_side[i]:
            xb_t.append(lam_b(t))
            xb_s.append(wt)
        else:
            xr_t.append(lam_r(t))
            xr_s.append(wt)
    Xb = _cum_steps(np.asarray(xb_t, dtype=float),
                    np.asarray(xb_s, dtype=float))
    Xr = _cum_steps(np.asarray(xr_t, dtype=float),
                    np.asarray(xr_s, dtype=float))
    lhs = trace.X.value(ev)
    lb, lr = lam_b(ev), lam_r(ev)
    rhs = (Xb(lb) - lb) + (Xr(lr) - lr)
    err_c = float(np.max(np.abs(lhs - rhs), initial=0.0))
    results["blue_red_decomposition"] = {
        "pass": bool(err_c < tol_load), "max_abs_err": err_c,
        "n_points": int(ev.size)}
    dep = trace.departure[1:]
    dep = dep[np.isfinite(dep)]
    M = (np.searchsorted(np.sort(trace.tau[1:]), ev, side="right")
         + np.searchsorted(np.sort(dep), ev, side="right"))
    N = np.searchsorted(np.sort(trace.tau[1:]), ev, side="right")
    err_d = float(np.max(np.abs(M - (2 * N - trace.H(ev))), initial=0.0))
    results["H_jump_counter"] = {
        "pass": bool(err_d < TOL_IDENTITY), "max_abs_err": err_d,
        "n_points": int(ev.size)}
    blue_types = [int(trace.types[i]) for i in range(1, trace.n_arrivals + 1)
                  if trace.color[i] == "b"]
    distinct = len(blue_types) == len(set(blue_types))
    results["blue_types_distinct"] = {
        "pass": bool(distinct), "max_abs_err": 0.0 if distinct else 1.0,
        "n_points": len(blue_types)}
    return IdentityReport(results)


_DIFFERENTIAL_TRACES = (
    # the three regimes of test_identities_across_regimes
    [(WeightSeq([2.0, 1.0, 1.0, 1.0]), 40.0, 21, r) for r in range(10)]
    + [(WeightSeq([1.0, 0.5]), 100.0, 21, r) for r in range(10)]
    + [(WeightSeq([1.0, 1.0]), 50.0, 21, r) for r in range(10)]
    # the seeds at which an inverse clock lands one ulp below an arrival
    + [(WeightSeq(np.ones(1000)), 1000.0, 0, r) for r in (29, 30)])


def _assert_same_colouring(got, ref):
    assert np.array_equal(got.color, ref.color)
    assert np.array_equal(got.blue_side, ref.blue_side)
    assert got.red_blocks == ref.red_blocks
    assert got.blue_intervals == ref.blue_intervals
    assert np.array_equal(got.Y_emb.times, ref.Y_emb.times)
    assert np.array_equal(got.Y_emb.sizes, ref.Y_emb.sizes)
    assert got.Y_emb.horizon == ref.Y_emb.horizon
    assert np.array_equal(got.A.times, ref.A.times)
    assert np.array_equal(got.A.values, ref.A.values)


def test_colouring_and_identities_equal_per_arrival_reference():
    for w, horizon, seed, r in _DIFFERENTIAL_TRACES:
        tr = simulate_markov(w, horizon=horizon, stop_at_empty=5,
                             rng_seed=np.random.SeedSequence([seed, r]))
        assert np.array_equal(tr.events(), _reference_events(tr))
        got, ref = color_blue_red(tr), _reference_color_blue_red(tr)
        _assert_same_colouring(got, ref)
        assert (verify_embedding(got).to_json()
                == _reference_verify_embedding(ref).to_json()), (w.w, r)
    # a repeat type in blue context: one red block, one A jump
    tr = simulate_markov(WeightSeq([1.0]),
                         forced_arrivals=[(0.5, 1), (0.7, 1)])
    assert np.array_equal(tr.events(), _reference_events(tr))
    got, ref = color_blue_red(tr), _reference_color_blue_red(tr)
    _assert_same_colouring(got, ref)
    assert got.A.values.tolist() == [0.0, 1.0]
    assert (verify_embedding(got).to_json()
            == _reference_verify_embedding(ref).to_json())


def _reference_events(trace):
    """events() as the union of 0, the arrivals, the finite departures and
    the horizon."""
    dep = trace.departure[1:]
    return np.unique(np.concatenate(
        ([0.0], trace.tau[1:], dep[np.isfinite(dep)], [trace.horizon])))


def test_identity_reference_agrees_on_a_dropped_jump():
    # a failing report must fail the same way: one blue client recoloured
    # red leaves the type set distinct but drops a jump from Y_rec
    tr = color_blue_red(simulate_markov(
        WeightSeq(np.ones(1000)), horizon=1000.0, stop_at_empty=5,
        rng_seed=np.random.SeedSequence([0, 29])))
    color = tr.color.copy()
    color[np.flatnonzero(color == "b")[-1]] = "r"
    bad = replace(tr, color=color)
    got = verify_embedding(bad)
    assert not got.passed
    assert got.to_json() == _reference_verify_embedding(bad).to_json()
    # and a repeated blue type fails (e) the same way
    color = tr.color.copy()
    color[np.flatnonzero(color == "r")[0]] = "b"
    bad = replace(tr, color=color)
    assert (verify_embedding(bad).to_json()
            == _reference_verify_embedding(bad).to_json())


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, -math.inf])
def test_markov_horizon_must_be_positive(horizon):
    w = WeightSeq([1.0, 0.5])
    with pytest.raises(ValueError, match="horizon must be positive"):
        simulate_markov(w, horizon=horizon, stop_at_empty=5)
    with pytest.raises(ValueError, match="horizon must be positive"):
        simulate_markov(w, horizon=horizon, forced_arrivals=[(0.5, 1)])


@pytest.mark.parametrize("stop", [0, -1])
def test_markov_stop_at_empty_must_be_positive(stop):
    with pytest.raises(ValueError, match="stop_at_empty must be at least 1"):
        simulate_markov(WeightSeq([1.0, 0.5]), horizon=10.0,
                        stop_at_empty=stop)


def test_markov_infinite_horizon_needs_a_stop():
    with pytest.raises(ValueError, match="empty-epoch target"):
        simulate_markov(WeightSeq([1.0, 0.5]), horizon=math.inf)


def test_gw_forest_stats_consistency():
    w = WeightSeq([1.0, 0.5])
    tr = simulate_markov(w, stop_at_empty=30, horizon=1000.0, rng_seed=7)
    assert tr.empty_epochs.size == 30        # the horizon is not reached
    st = gw_forest_stats(tr)
    done = completed_clients(tr)
    assert st.offspring_counts.size == done.size
    assert st.tree_sizes.sum() == done.size
    # Lukasiewicz path: starts at 0, increments are children - 1 per vertex
    assert st.V[0] == 0
    incr = np.diff(st.V)
    assert sorted(incr.tolist()) == sorted(
        (st.offspring_counts - 1).tolist())
    # contour length: sum over trees of (2*size - 1) visits
    n_visits = sum(len(c) for c in st.contour_visits)
    assert n_visits == int((2 * st.tree_sizes - 1).sum())
    # height of each vertex = depth of its stack at arrival
    assert np.array_equal(st.Hght, tr.H(tr.tau[st.vertex_order]) - 1)


def test_luka_minimum_identity():
    # V_bar_l = min_{k <= l-1} V_k - 1 descends by exactly 1 at each
    # tree boundary of the forest
    w = WeightSeq([1.0, 1.0])
    tr = simulate_markov(w, stop_at_empty=20, horizon=50000.0, rng_seed=9)
    assert tr.empty_epochs.size == 20
    st = gw_forest_stats(tr)
    V = st.V
    vbar = np.minimum.accumulate(V)[:-1] - 1
    boundaries = np.cumsum(st.tree_sizes)
    for b in boundaries:
        assert V[b] == vbar[b - 1] + 0  # forest path hits a new minimum
    assert np.all(np.diff(np.minimum.accumulate(V)) >= -1)


def _reference_gw_forest_stats(trace):
    """gw_forest_stats by an explicit depth-first search over children
    lists, one depth dict per tree, vertices sorted into arrival order."""
    n = trace.n_arrivals
    children: dict = {i: [] for i in range(0, n + 1)}
    for i in range(1, n + 1):
        children[int(trace.parent[i])].append(i)
    done = set(completed_clients(trace).tolist())
    roots = [r for r in children[0] if r in done]
    offspring_all = np.asarray(
        [len(children[i]) for i in sorted(done)], dtype=np.int64)

    v = [0]
    hts = []
    order = []
    tree_sizes = []
    contours = []
    visits = []
    for r in roots:
        depth = {r: 0}
        stack = [(r, iter(children[r]))]
        cont = [0]
        cvis = [r]
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                stack.pop()
                if stack:
                    cont.append(depth[stack[-1][0]])
                    cvis.append(stack[-1][0])
                continue
            depth[nxt] = depth[node] + 1
            cont.append(depth[nxt])
            cvis.append(nxt)
            stack.append((nxt, iter(children[nxt])))
        # depth-first (= arrival) order within the tree
        for node in sorted(depth):
            order.append(node)
            hts.append(depth[node])
            v.append(v[-1] + len(children[node]) - 1)
        tree_sizes.append(len(depth))
        contours.append(np.asarray(cont, dtype=np.int64))
        visits.append(np.asarray(cvis, dtype=np.int64))
    return GwForestStats(
        V=np.asarray(v, dtype=np.int64),
        Hght=np.asarray(hts, dtype=np.int64),
        contour=tuple(contours), contour_visits=tuple(visits),
        offspring_counts=offspring_all,
        tree_sizes=np.asarray(tree_sizes, dtype=np.int64),
        vertex_order=np.asarray(order, dtype=np.int64))


def _assert_same_forest(got, ref):
    for f in fields(GwForestStats):
        a, b = getattr(got, f.name), getattr(ref, f.name)
        if isinstance(b, tuple):
            assert type(a) is tuple and len(a) == len(b), f.name
            pairs = zip(a, b)
        else:
            pairs = [(a, b)]
        for x, y in pairs:
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name


def test_gw_forest_stats_equals_children_list_reference():
    traces = [(w, horizon, 5, np.random.SeedSequence([seed, r]))
              for w, horizon, seed, r in _DIFFERENTIAL_TRACES]
    traces += [(WeightSeq([1.0, 0.5]), 1000.0, 30, 7),
               (WeightSeq([1.0, 1.0]), 50000.0, 20, 9)]
    for w, horizon, stop, seed in traces:
        tr = simulate_markov(w, horizon=horizon, stop_at_empty=stop,
                             rng_seed=seed)
        _assert_same_forest(gw_forest_stats(tr),
                            _reference_gw_forest_stats(tr))


def test_gw_forest_stats_by_hand():
    # tree 1: 1 -> {2 -> {3}, 4}; tree 2: 5; tree 3: 6 -> {7} is cut by
    # the horizon at 13.5 after 7 departs at 13.375 (dyadic, so exact)
    tr = simulate_markov(
        WeightSeq([4.0, 2.0, 1.0, 0.25]), horizon=13.5,
        forced_arrivals=[(1.0, 1), (2.0, 2), (2.5, 3), (6.0, 3),
                         (10.0, 2), (13.0, 3), (13.125, 4)])
    assert tr.parent[1:].tolist() == [0, 1, 2, 1, 0, 0, 6]
    assert tr.departure[1:].tolist() == [9.0, 5.0, 3.5, 7.0, 12.0,
                                         math.inf, 13.375]
    st = gw_forest_stats(tr)
    assert st.V.tolist() == [0, 1, 1, 0, -1, -2]
    assert st.Hght.tolist() == [0, 1, 2, 1, 0]
    assert [c.tolist() for c in st.contour] == [[0, 1, 2, 1, 0, 1, 0], [0]]
    assert [c.tolist() for c in st.contour_visits] == [
        [1, 2, 3, 2, 1, 4, 1], [5]]
    assert st.vertex_order.tolist() == [1, 2, 3, 4, 5]
    assert st.tree_sizes.tolist() == [4, 1]
    # every departed client, the cut tree's 7 included
    assert st.offspring_counts.tolist() == [2, 1, 0, 0, 0, 0]
    _assert_same_forest(st, _reference_gw_forest_stats(tr))


def test_offspring_mean_matches_criticality():
    w = WeightSeq([1.0, 1.0])
    tr = simulate_markov(w, stop_at_empty=300, horizon=50000.0, rng_seed=13)
    st = gw_forest_stats(tr)
    mean = st.offspring_counts.mean()
    se = st.offspring_counts.std() / math.sqrt(st.offspring_counts.size)
    assert abs(mean - 1.0) < 4 * max(se, 1e-3)


@pytest.mark.parametrize("forced", [
    [(0.5, 0), (0.7, 0)],       # type 0 took the last weight
    [(0.5, 1), (0.7, 3)],       # a type above n raised IndexError
    [(0.5, 1.7)],               # was truncated to type 1
    [(-0.5, 1), (0.7, 2)],      # a negative time was accepted
], ids=["type_0", "type_above_n", "fractional_type", "negative_time"])
def test_forced_arrivals_are_checked(forced):
    with pytest.raises(ValueError, match="forced arrival"):
        simulate_markov(WeightSeq([2.0, 1.0]), forced_arrivals=forced)


def _drawn_pairs(w, seed, types):
    """simulate_markov's arrival stream as (time, size) pairs, read lazily
    (chunks of 16, 32, ...: gaps, then types by rng.choice(p=nu_w)); the
    types of the chunks drawn so far are appended to ``types``."""
    rng = np.random.default_rng(seed)
    nu = w.w / w.sigma(1.0)
    t, m = 0.0, 16
    while True:
        gaps = rng.exponential(1.0, size=m).tolist()
        drawn = rng.choice(w.j_max, size=m, p=nu).tolist()
        types += [j + 1 for j in drawn]
        for gap, j in zip(gaps, drawn):
            t += gap
            yield t, float(w.w[j])
        m *= 2


def _assert_matches_loop(tr, ref, types):
    # the tree, types and H values are equal; departures, the end and the
    # empty epochs are within the rounding bound of the two replays; the
    # levels are X's left limits bit for bit
    n = ref.tau.size - 1
    assert _bits(tr.tau) == _bits(ref.tau)
    assert tr.types.tolist() == [0] + types[:n]
    assert tr.parent.tolist() == ref.parent.tolist()
    assert tr.H.values.tolist() == ref.H.values.tolist()
    assert tr.empty_epochs.size == ref.empty_epochs.size
    bound = _departure_bound(tr.X) if n else 0.0
    done = np.isfinite(ref.departure)
    assert np.array_equal(np.isfinite(tr.departure), done)
    assert np.all(np.abs(tr.departure[done] - ref.departure[done]) <= bound)
    assert abs(tr.horizon - ref.end) <= bound
    assert np.all(np.abs(tr.empty_epochs - ref.empty_epochs) <= bound)
    assert np.all(np.abs(tr.H.times - ref.H.times) <= bound)
    assert _bits(tr.pre_level[1:]) == _bits(tr.X.value_left(tr.tau[1:]))


@pytest.mark.parametrize("w, horizon, stop, seed, ends", [
    ((2.0, 1.0, 1.0, 1.0), 60.0, 5, 1, "horizon"),
    ((2.0, 1.0, 1.0, 1.0), 60.0, 5, 36, "stop"),
    ((2.0, 1.0, 1.0, 1.0), 60.0, 5, 0, "stop_past_horizon"),
    ((2.0, 1.0, 1.0, 1.0), 0.05, 5, 0, "empty"),
    ((1.0, 0.5), 20.0, 5, 1, "horizon"),
    ((1.0, 0.5), 20.0, 5, 4, "stop"),
    ((1.0, 0.5), 20.0, 5, 0, "stop_past_horizon"),
    ((1.0, 0.5), 200.0, None, 2, "horizon"),
    ((1.0, 0.5), math.inf, 30, 3, "stop"),
    ((1.0,) * 1000, 1000.0, 5, 0, "stop"),
])
def test_markov_replay_matches_reference_loop(w, horizon, stop, seed, ends):
    w = WeightSeq(w)
    tr = simulate_markov(w, horizon=horizon, stop_at_empty=stop,
                         rng_seed=seed)
    types = []
    ref = _reference_replay(_drawn_pairs(w, seed, types), horizon,
                            math.inf if stop is None else stop)
    _assert_matches_loop(tr, ref, types)
    assert _how_it_ends(tr, horizon, stop) == ends


def _how_it_ends(tr, horizon, stop):
    roots = np.count_nonzero(tr.parent[1:] == 0)
    if tr.n_arrivals == 0:
        return "empty"
    if tr.horizon < horizon:
        assert tr.empty_epochs.size == stop == roots
        assert tr.empty_epochs[-1] == tr.horizon
        return "stop"
    assert tr.horizon == horizon
    if roots == stop:
        assert tr.empty_epochs.size == stop - 1
        return "stop_past_horizon"
    return "horizon"


@pytest.mark.parametrize("forced, horizon, stop", [
    # client 3 arrives exactly at the horizon and is kept
    ([(0.5, 1), (1.0, 2), (1.25, 2)], 1.25, math.inf),
    # client 1 departs at 2.0, the queue's first empty epoch, exactly when
    # client 3 arrives at its level: a root, cut by a stop at one epoch
    ([(0.5, 1), (1.0, 2), (2.0, 2), (2.25, 1)], 10.0, 1),
    ([(0.5, 1), (1.0, 2), (2.0, 2), (2.25, 1)], 10.0, 2),
    ([(0.5, 1), (1.0, 2), (2.0, 2), (2.25, 1)], 2.0, 1),
    ([], 1.0, math.inf),
], ids=["arrival_at_horizon", "arrival_at_stop_epoch",
        "arrival_at_empty_epoch", "stop_epoch_at_horizon", "no_arrivals"])
def test_markov_replay_exact_on_dyadic_arrivals(forced, horizon, stop):
    # every sum is exact, so the replay equals the loop bit for bit
    w = WeightSeq([1.0, 0.5])
    tr = simulate_markov(w, horizon=horizon,
                         stop_at_empty=None if math.isinf(stop) else stop,
                         forced_arrivals=forced)
    ref = _reference_replay(((t, w.w[j - 1]) for t, j in forced),
                            horizon, stop)
    for got, want in ((tr.tau, ref.tau), (tr.departure, ref.departure),
                      (tr.pre_level, ref.pre_level), (tr.H.times, ref.H.times),
                      (tr.H.values, ref.H.values), ([tr.horizon], [ref.end]),
                      (tr.empty_epochs, ref.empty_epochs)):
        assert _bits(got) == _bits(want)
    assert tr.parent.tolist() == ref.parent.tolist()
    assert tr.types[1:].tolist() == [j for _, j in forced][:tr.n_arrivals]
    assert _bits(tr.pre_level[1:]) == _bits(tr.X.value_left(tr.tau[1:]))


@pytest.mark.parametrize("inf", [math.inf, float("inf")])
def test_forced_arrivals_default_horizon(inf):
    # last arrival 0.7 plus total work 2.0, however inf was spelled
    tr = simulate_markov(WeightSeq([1.0]), horizon=inf,
                         forced_arrivals=[(0.5, 1), (0.7, 1)])
    assert tr.horizon == pytest.approx(2.7)


@pytest.mark.parametrize("r", [29, 30])
def test_identities_read_forward_through_blue_clock(r):
    # at these seeds theta(Lambda(tau)) lands one ulp below an arrival tau,
    # so reading X at the inverse clock misses a jump
    tr = simulate_markov(WeightSeq(np.ones(1000)), horizon=1000.0,
                         stop_at_empty=5,
                         rng_seed=np.random.SeedSequence([0, r]))
    rep = verify_embedding(color_blue_red(tr))
    assert rep.passed, rep.results


def test_identities_catch_a_dropped_jump():
    tr = color_blue_red(simulate_markov(
        WeightSeq(np.ones(1000)), horizon=1000.0, stop_at_empty=5,
        rng_seed=np.random.SeedSequence([0, 29])))
    color = tr.color.copy()
    color[np.flatnonzero(color == "b")[-1]] = "r"  # its jump leaves Y_rec
    res = verify_embedding(replace(tr, color=color)).results
    assert not res["Y_equals_X_at_theta"]["pass"]
    assert res["Y_equals_X_at_theta"]["max_abs_err"] == pytest.approx(1.0)
    assert not res["height_through_blue_clock"]["pass"]


def test_load_identities_pass_at_large_loads_and_catch_a_unit_jump():
    # loads near 1e9 round by about 1e-5 over a few dozen events: the
    # absolute TOL_IDENTITY alone fails every replica of ``wmgraph verify
    # --horizon 50`` on these weights; the bound scaled by events and load
    # passes them, and a load path that lost a size-1 jump still fails
    w = WeightSeq([1e9, 1e9, 1.0, 1.0])
    worst = 0.0
    for r in range(20):
        tr = simulate_markov(w, horizon=50.0, stop_at_empty=5,
                             rng_seed=np.random.SeedSequence([0, r]))
        rep = verify_embedding(tr)
        assert rep.passed, r
        assert rep.to_json() == _reference_verify_embedding(
            color_blue_red(tr)).to_json()
        worst = max(worst, rep.results["blue_red_decomposition"]["max_abs_err"])
        # the same arrivals plus a unit client before the first one
        forced = [(float(tr.tau[1]) / 2, 3)] + list(zip(
            tr.tau[1:].tolist(), tr.types[1:].tolist()))
        tr = color_blue_red(simulate_markov(w, horizon=50.0,
                                            forced_arrivals=forced))
        assert verify_embedding(tr).passed, r
        k = int(np.flatnonzero(tr.types[1:] == 3)[0])
        lost = CadlagStepPath(np.delete(tr.X.times, k),
                              np.delete(tr.X.sizes, k), tr.X.horizon)
        res = verify_embedding(replace(tr, X=lost)).results
        assert not res["blue_red_decomposition"]["pass"], r
        assert res["blue_red_decomposition"]["max_abs_err"] \
            == pytest.approx(1.0, rel=1e-3)
    assert worst > TOL_IDENTITY


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=300),
                          st.integers(min_value=1, max_value=128)),
                min_size=1, max_size=15, unique_by=lambda a: a[0]))
@settings(max_examples=60, deadline=None)
def test_markov_replay_matches_lifo_on_distinct_types(clients):
    # dyadic times and sizes keep every sum exact, so the horizon (last
    # arrival + total work) lies past every departure
    times = [k / 16.0 for k, _ in clients]
    w = WeightSeq([x / 32.0 for _, x in clients])
    lifo = simulate_lifo(w, forced_arrivals=times)
    order = lifo.arrival_order
    mk = simulate_markov(w, forced_arrivals=[(times[j - 1], int(j))
                                             for j in order])
    assert mk.types[1:].tolist() == order.tolist()
    ids = np.concatenate(([0], order))
    assert np.array_equal(ids[mk.parent[1:]], lifo.parent[order])
    assert np.array_equal(mk.pre_level[1:], lifo.pre_level[order])
    assert np.array_equal(mk.departure[1:], lifo.departure[order])
    assert np.array_equal(mk.H.times, lifo.H.times)
    assert np.array_equal(mk.H.values, lifo.H.values)


@pytest.mark.parametrize("seed", range(4))
def test_markov_trace_csv_rows_match_the_trace(tmp_path, seed):
    # the LIFO columns with X as Y, plus type and colour; one row per
    # arrival and per departure before the horizon
    w = WeightSeq([2.0, 1.0, 1.0, 0.5])
    trace = color_blue_red(simulate_markov(w, horizon=12.0, rng_seed=seed))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["time", "event", "client", "Y", "H", "type",
                             "color"]
    dep = trace.departure[1:]
    assert len(rows) == trace.n_arrivals + np.count_nonzero(np.isfinite(dep))
    times = [float(r["time"]) for r in rows]
    assert times == sorted(times)
    for r in rows:
        t, j = float(r["time"]), int(r["client"])
        when = trace.tau if r["event"] == "arrival" else trace.departure
        assert t == when[j]
        assert float(r["Y"]) == trace.X.value(t)
        assert int(r["H"]) == trace.H(t)
        assert int(r["type"]) == trace.types[j]
        assert r["color"] == trace.color[j]
    assert {r["event"] for r in rows} == {"arrival", "departure"}


# The Markov identity path as first vectorised: numpy's function wrappers
# (np.searchsorted, np.clip, np.append, np.cumsum, np.unique), a colouring
# loop over every arrival, and a clock with an explicit empty case.  The
# leaner code must give the same trace, colouring, clocks and reports, bit
# for bit.

def _ref_drawn_arrivals(w, rng_seed):
    rng = np.random.default_rng(rng_seed)
    cdf = _choice_cdf(w.w / w.sigma(1.0))
    t, m = 0.0, 16
    while True:
        ts = np.cumsum(np.append(t, rng.exponential(1.0, m)))[1:]
        yield ts, cdf.searchsorted(rng.random(m), "right") + 1
        t, m = ts[-1], 2 * m


def _ref_simulate_markov(w, horizon=math.inf, rng_seed=0, stop_at_empty=None,
                         forced_arrivals=None):
    stop = math.inf if stop_at_empty is None else stop_at_empty
    if forced_arrivals is not None:
        times, types = np.array(forced_arrivals, dtype=float).reshape(
            len(forced_arrivals), 2).T
        types = types.astype(np.int64)
        if math.isinf(horizon):
            horizon = (float(times[-1]) + math.fsum(w.w[types - 1])
                       if times.size else 1.0)
        chunks = [(times, types)]
    else:
        chunks = _ref_drawn_arrivals(w, rng_seed)
    times, types, c, low, roots = [], [], 0.0, math.inf, 0
    for ts, js in chunks:
        cs = np.cumsum(np.append(c, w.w[js - 1]))
        levels = cs[:-1] - ts
        opens = np.flatnonzero(_openings(levels, low))
        k = int(ts.searchsorted(horizon, "right"))
        if opens.size > stop - roots:
            k = min(k, int(opens[stop - roots]))
        times.append(ts[:k])
        types.append(js[:k])
        if k < ts.size:
            break
        c, low, roots = cs[-1], levels.min(initial=low), roots + opens.size
    times, types = np.concatenate(times), np.concatenate(([0], *types))
    sizes = w.w[types[1:] - 1]
    rep = _drain(times, np.concatenate(([0.0], np.cumsum(sizes))))
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


def _ref_clock(intervals):
    starts = np.asarray([a for a, _ in intervals])
    ends = np.asarray([b for _, b in intervals])
    cum = np.concatenate(([0.0], np.cumsum(ends - starts)))

    def lam(t):
        t = np.asarray(t, dtype=float)
        if starts.size == 0:
            out = np.zeros_like(t)
            return float(out) if out.ndim == 0 else out
        i = np.searchsorted(starts, t, side="right")
        j = np.maximum(i - 1, 0)
        inside = np.clip(np.minimum(t, ends[j]) - starts[j], 0.0, None)
        out = cum[j] + np.where(i > 0, inside, 0.0)
        return float(out) if out.ndim == 0 else out
    return lam


def _ref_cum_steps(times, sizes):
    order = np.argsort(times)
    t = np.concatenate(([0.0], times[order]))
    v = np.concatenate(([0.0], np.cumsum(sizes[order])))
    keep = np.concatenate((np.diff(t) > 0, [True]))
    return StepFunction(t[keep], v[keep])


def _ref_color_blue_red(trace):
    color, blue_side = [""], [False]
    blue_types: set = set()
    red_blocks = []
    open_block_end = -math.inf
    for t, j, d in zip(trace.tau.tolist()[1:], trace.types.tolist()[1:],
                       trace.departure.tolist()[1:]):
        in_red = t < open_block_end
        blue_side.append(not in_red)
        if in_red or j in blue_types:
            color.append("r")
            if not in_red:
                red_blocks.append((t, d))
                open_block_end = d
        else:
            color.append("b")
            blue_types.add(j)
    color = np.asarray(color, dtype="U1")
    blue_side = np.asarray(blue_side)
    end = trace.horizon
    red_blocks = [(a, min(b, end)) for a, b in red_blocks if a < end]
    cuts = [0.0, *(x for block in red_blocks for x in block), end]
    blue_intervals = [(a, b) for a, b in zip(cuts[::2], cuts[1::2]) if a < b]
    lam = _ref_clock(blue_intervals)
    bt = lam(trace.tau[blue_side])
    sizes = trace.weights.w[trace.types[blue_side] - 1]
    is_blue = color[blue_side] == "b"
    return replace(trace, color=color, blue_side=blue_side,
                   red_blocks=tuple(red_blocks),
                   blue_intervals=tuple(blue_intervals),
                   A=_ref_cum_steps(bt[~is_blue], sizes[~is_blue]),
                   Y_emb=CadlagStepPath(bt[is_blue], sizes[is_blue], lam(end)))


def _ref_verify_embedding(trace):
    lam_b = _ref_clock(trace.blue_intervals)
    end = trace.horizon
    blue_total = lam_b(end)
    ev = _sorted_unique(np.append(trace.H.times, trace.horizon))
    ev = ev[ev <= end]
    w = trace.weights.w
    is_blue = trace.color == "b"
    blue_types = trace.types[is_blue]
    first = np.sort(np.unique(blue_types, return_index=True)[1])
    Y_rec = CadlagStepPath(lam_b(trace.tau[is_blue][first]),
                           w[blue_types[first] - 1], blue_total)
    mids = (ev[:-1] + ev[1:]) / 2.0
    blue = np.asarray(trace.blue_intervals, dtype=float).reshape(-1, 2)
    k = np.searchsorted(blue[:, 0], mids, side="right") - 1
    tb = mids[(k >= 0) & (mids < blue[np.maximum(k, 0), 1])]
    sb = lam_b(tb)
    err_a = float(np.max(np.abs(Y_rec.value(sb) - trace.X.value(tb)),
                         initial=0.0))
    err_b = float(np.max(np.abs(height_of_path(Y_rec)(sb) - trace.H(tb)),
                         initial=0.0))
    lam_r = _ref_clock(trace.red_blocks)
    tau, side = trace.tau[1:], trace.blue_side[1:]
    sizes = w[trace.types[1:] - 1]
    Xb = _ref_cum_steps(lam_b(tau[side]), sizes[side])
    Xr = _ref_cum_steps(lam_r(tau[~side]), sizes[~side])
    lhs = trace.X.value(ev)
    lb, lr = lam_b(ev), lam_r(ev)
    rhs = (Xb(lb) - lb) + (Xr(lr) - lr)
    err_c = float(np.max(np.abs(lhs - rhs), initial=0.0))
    dep = trace.departure[1:]
    N = np.searchsorted(tau, ev, side="right")
    M = N + np.searchsorted(np.sort(dep[np.isfinite(dep)]), ev, side="right")
    err_d = float(np.max(np.abs(M - (2 * N - trace.H(ev))), initial=0.0))
    err_e = 0.0 if first.size == blue_types.size else 1.0
    eps = np.finfo(float).eps
    tol_load = TOL_IDENTITY + 8 * ev.size * eps * (sizes.sum() + end)

    def verdict(err, points, tol=TOL_IDENTITY):
        return {"pass": bool(err < tol), "max_abs_err": err,
                "n_points": int(points)}
    return IdentityReport({
        "Y_equals_X_at_theta": verdict(err_a, tb.size, tol_load),
        "height_through_blue_clock": verdict(err_b, tb.size),
        "blue_red_decomposition": verdict(err_c, ev.size, tol_load),
        "H_jump_counter": verdict(err_d, ev.size),
        "blue_types_distinct": verdict(err_e, blue_types.size)})


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def _assert_same_trace(got, ref):
    """Every field bit for bit: arrays, paths, blocks, intervals, floats."""
    for f in fields(ref):
        a, b = getattr(got, f.name), getattr(ref, f.name)
        if isinstance(b, (CadlagStepPath, StepFunction)):
            assert type(a) is type(b), f.name
            for part in ("times", "sizes", "values", "_cum"):
                if hasattr(b, part):
                    assert _same_bits(getattr(a, part), getattr(b, part)), \
                        (f.name, part)
            if isinstance(b, CadlagStepPath):
                assert _bits([a.horizon]) == _bits([b.horizon]), f.name
        elif isinstance(b, np.ndarray):
            assert _same_bits(a, b), f.name
        elif isinstance(b, tuple):   # red blocks, blue intervals
            assert [tuple(map(type, p)) for p in a] \
                == [tuple(map(type, p)) for p in b], f.name
            assert _bits([x for p in a for x in p]) \
                == _bits([x for p in b for x in p]), f.name
        elif isinstance(b, float):
            assert _bits([a]) == _bits([b]), f.name
        else:
            assert a is b or a == b, f.name


def _assert_same_report(got, ref):
    assert got.results.keys() == ref.results.keys()
    for name, r in ref.results.items():
        g = got.results[name]
        assert g["pass"] is r["pass"] and g["n_points"] == r["n_points"], name
        assert type(g["max_abs_err"]) is float
        assert _bits([g["max_abs_err"]]) == _bits([r["max_abs_err"]]), name
    assert got.to_json() == ref.to_json()


def _certify_shaped_runs():
    """300 certify-shaped runs: (2, 1, 1, 1) to horizon 60 and ones(1000)
    to horizon 1000, both stopping at 5 empty epochs."""
    small, ones = WeightSeq([2.0, 1.0, 1.0, 1.0]), WeightSeq(np.ones(1000))
    for r in range(150):
        yield small, 60.0, np.random.SeedSequence([11, r, 0])
        yield ones, 1000.0, np.random.SeedSequence([11, r, 1])


def test_markov_path_equals_the_wrapper_reference_bit_for_bit():
    for w, horizon, seed in _certify_shaped_runs():
        tr = simulate_markov(w, horizon=horizon, stop_at_empty=5,
                             rng_seed=seed)
        ref = _ref_simulate_markov(w, horizon=horizon, stop_at_empty=5,
                                   rng_seed=seed)
        _assert_same_trace(tr, ref)
        got, want = color_blue_red(tr), _ref_color_blue_red(ref)
        _assert_same_trace(got, want)
        _assert_same_report(verify_embedding(got), _ref_verify_embedding(want))


@pytest.mark.parametrize("forced, horizon, red", [
    # repeated types: red roots, blocks and A jumps, a block past the end
    ([(0.5, 1), (0.7, 1), (0.9, 2), (1.5, 2), (1.6, 1), (4.0, 1)], math.inf,
     True),
    ([(0.25, 2), (0.5, 2), (0.75, 2), (1.0, 1), (1.25, 1)], 2.0, True),
    ([(0.1, 1), (0.2, 2), (0.3, 1), (0.4, 2), (5.0, 2), (5.1, 1)], 5.05, True),
    # distinct types: no red block at all
    ([(0.5, 1), (0.75, 2), (3.0, 3)], math.inf, False),
    ([], 1.0, False),
], ids=["repeats", "repeats_dyadic", "block_at_the_end", "no_red_block",
        "no_arrivals"])
def test_forced_markov_paths_equal_the_wrapper_reference(forced, horizon, red):
    w = WeightSeq([1.0, 0.5, 0.25])
    tr = simulate_markov(w, horizon=horizon, forced_arrivals=forced)
    ref = _ref_simulate_markov(w, horizon=horizon, forced_arrivals=forced)
    _assert_same_trace(tr, ref)
    got, want = color_blue_red(tr), _ref_color_blue_red(ref)
    _assert_same_trace(got, want)
    assert bool(got.red_blocks) is red
    _assert_same_report(verify_embedding(got), _ref_verify_embedding(want))


@pytest.mark.parametrize("intervals", [
    (), ((0.0, 1.0),), ((0.0, 1.0), (2.0, 2.5), (4.0, 10.0)),
    ((0.5, 0.5), (1.0, 3.0)), ((0.25, 1.0), (1.0, 1.0), (2.0, 2.0)),
    ((1e-300, 1e300),)])
def test_clock_equals_the_wrapper_reference(intervals):
    got, want = _clock(intervals), _ref_clock(intervals)
    ends = [x for p in intervals for x in p]
    rng = np.random.default_rng(len(intervals))
    t = np.concatenate((ends, np.nextafter(ends, -np.inf),
                        np.nextafter(ends, np.inf), [-0.0, 0.0, -1.0, 12.0],
                        [-np.inf, np.inf], rng.uniform(-1.0, 11.0, 200)))
    assert _same_bits(got(t), want(t))
    assert _same_bits(got(np.sort(t)), want(np.sort(t)))
    for x in t.tolist():
        assert _bits([got(x)]) == _bits([want(x)]), x
        assert type(got(x)) is float
