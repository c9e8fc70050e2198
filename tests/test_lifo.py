import csv
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmgraph import (
    AssembledGraph,
    WeightSeq,
    assemble_graph,
    connected_components,
    decompose_with_masses,
    gen_powerlaw_triple,
    height_of_path,
    powerlaw_alpha0,
    sample_pinches,
    simulate_lifo,
)
from wmgraph.lifo_coder import _replica_trace, _resolve_pinches

from test_paths import TINY, _reference_replay


def _reference_busy_periods(trace):
    """The old per-period comprehension, kept as the reference for
    ``LifoTrace.busy_periods``."""
    ids = trace.arrival_order.tolist()
    times, sizes = trace.Y.times.tolist(), trace.Y.sizes.tolist()
    starts = np.flatnonzero(trace.parent[trace.arrival_order] == 0).tolist()
    return tuple((times[a], math.fsum(sizes[a:b]), tuple(ids[a:b]))
                 for a, b in zip(starts, starts[1:] + [len(ids)]))


def _reference_service_intervals(trace):
    """Per client: its (start, end) service intervals.

    A client is served from its arrival until its first child arrives,
    from each child's departure until the next child arrives, and from
    its last child's departure until it departs."""
    arrival, departure = trace.arrival.tolist(), trace.departure.tolist()
    starts = [[t] for t in arrival]
    ends = [[] for _ in arrival]
    for c in trace.arrival_order.tolist():
        p = int(trace.parent[c])
        if p:
            ends[p].append(arrival[c])
            starts[p].append(departure[c])
    return tuple(tuple(zip(starts[j], ends[j] + [departure[j]]))
                 for j in range(1, len(arrival)))


def _reference_served_at(trace, t):
    """Client in service at time t (cadlag), 0 if the server is idle, by
    a walk up the parents.

    Clients nest: a child arrives after its parent and departs before
    it.  So the clients queued at t are the last arrival by t and its
    ancestors, less those departed by t, and the deepest is served."""
    i = int(np.searchsorted(trace.Y.times, t, side="right")) - 1
    j = int(trace.arrival_order[i]) if i >= 0 else 0
    while j and trace.departure[j] <= t:
        j = int(trace.parent[j])
    return j


def _reference_stack_at(trace, t):
    """Clients in queue at time t, bottom (oldest) first: the client in
    service and its ancestors."""
    stack = []
    j = _reference_served_at(trace, t)
    while j:
        stack.append(j)
        j = int(trace.parent[j])
    return stack[::-1]


def _resolve_pinch(trace, t_p, y_p):
    """The batch resolver on one point (t_p, y_p): (s_p, u, v, self_loop,
    boundary_tie) as Python scalars."""
    s, u, v, loop, tie = _resolve_pinches(trace, np.asarray([float(t_p)]),
                                          np.asarray([float(y_p)]))
    return float(s[0]), int(u[0]), int(v[0]), bool(loop[0]), bool(tie[0])


@pytest.fixture
def hand_trace():
    # client 1 (w=1) at 0.2, client 2 (w=0.5) at 0.4
    return simulate_lifo(WeightSeq([1.0, 0.5]), forced_arrivals=[0.2, 0.4])


def test_hand_example_schedule(hand_trace):
    tr = hand_trace
    assert tr.departure[2] == pytest.approx(0.9)   # preempts, leaves first
    assert tr.departure[1] == pytest.approx(1.7)
    assert tr.pre_level[1] == pytest.approx(-0.2)
    assert tr.pre_level[2] == pytest.approx(0.6)
    assert tr.parent.tolist() == [0, 0, 1]         # 2 served-at-arrival by 1
    assert tr.H.times == pytest.approx([0.0, 0.2, 0.4, 0.9, 1.7], abs=1e-12)
    assert tr.H.values.tolist() == [0.0, 1.0, 2.0, 1.0, 0.0]
    assert _reference_served_at(tr, 0.5) == 2
    assert _reference_served_at(tr, 1.0) == 1
    assert _reference_stack_at(tr, 0.5) == [1, 2]
    assert len(tr.busy_periods) == 1
    start, work, members = tr.busy_periods[0]
    assert (start, work, members) == (0.2, 1.5, (1, 2))


def test_load_path_and_height_agree(hand_trace):
    tr = hand_trace
    assert tr.Y.value(0.5) == pytest.approx(1.0)
    h2 = height_of_path(tr.Y)
    grid = np.linspace(0, 2.0, 101)
    assert np.all(h2(grid) == tr.H(grid))


def test_service_intervals_partition_busy_time(hand_trace):
    tr = hand_trace
    # client 1 serves [0.2,0.4) and [0.9,1.7); client 2 serves [0.4,0.9)
    intervals = _reference_service_intervals(tr)
    flat0 = [x for iv in intervals[0] for x in iv]
    assert flat0 == pytest.approx([0.2, 0.4, 0.9, 1.7], abs=1e-12)
    assert intervals[1] == ((0.4, 0.9),)
    total = sum(b - a for ivs in intervals for a, b in ivs)
    assert total == pytest.approx(tr.weights.sigma(1.0))


def test_pinch_resolution_examples(hand_trace):
    tr = hand_trace
    # low level: deepest band, endpoints are clients 1 (start) and 2 (serving)
    s, u, v, loop, tie = _resolve_pinch(tr, 0.5, 0.3)
    assert (s, u, v, loop, tie) == (0.2, 1, 2, False, False)
    # high level: inside client 2's band -> self loop starting at 0.4
    s, u, v, loop, tie = _resolve_pinch(tr, 0.5, 0.9)
    assert (s, u, v, loop) == (0.4, 2, 2, True)
    # exact band boundary flags a tie
    assert _resolve_pinch(tr, 0.5, 0.8)[4] is True


def test_forced_arrivals_need_one_time_per_client():
    for times in ([0.2], [0.2, 0.4, 0.6], [[0.2, 0.4]]):
        with pytest.raises(ValueError, match="one time per client"):
            simulate_lifo(WeightSeq([1.0, 0.5]), forced_arrivals=times)


def test_pinch_validation(hand_trace):
    with pytest.raises(ValueError):
        _resolve_pinch(hand_trace, 0.1, 0.1)   # idle server
    with pytest.raises(ValueError):
        _resolve_pinch(hand_trace, 0.5, 5.0)   # above the reflected load


def test_forced_pinches_assembly(hand_trace):
    ps = sample_pinches(hand_trace, forced_points=[(0.5, 0.3), (0.5, 0.9)])
    assert ps.size == 2
    g = assemble_graph(hand_trace, ps)
    assert g.edges.tolist() == [[1, 2]]
    assert g.n_self_loops_dropped == 1
    assert g.n_duplicates_dropped == 1   # (1,2) already a tree edge


def test_pinch_sampling_statistics():
    # expected pinch count = E[area under reflected load] / sigma_1;
    # for a single client of weight v arriving once, area = v^2/2
    w = WeightSeq([1.0])
    counts = []
    for r in range(4000):
        tr = simulate_lifo(w, forced_arrivals=[0.3])
        ps = sample_pinches(tr, rng_seed=np.random.SeedSequence([17, r]))
        counts.append(ps.size)
        assert np.all(ps.u == 1) and np.all(ps.v == 1)  # only one client
    mean = np.mean(counts)
    target = 0.5  # (v^2/2)/sigma_1 = 0.5
    assert abs(mean - target) < 4 * np.std(counts) / math.sqrt(len(counts))


def test_departures_after_arrivals_random():
    rng = np.random.default_rng(11)
    for r in range(25):
        n = int(rng.integers(1, 30))
        w = WeightSeq(rng.uniform(0.1, 3.0, size=n))
        tr = simulate_lifo(w, rng_seed=np.random.SeedSequence([13, r]))
        assert np.all(tr.departure[1:] > tr.arrival[1:])
        # LIFO nesting: interval [arrival, departure] of a child lies
        # inside its parent's interval
        for j in range(1, n + 1):
            p = int(tr.parent[j])
            if p:
                assert tr.arrival[p] < tr.arrival[j]
                assert tr.departure[j] < tr.departure[p]
        # busy-period work adds up to sigma_1 exactly (fsum over members)
        assert math.fsum(bp[1] for bp in tr.busy_periods) == pytest.approx(
            w.sigma(1.0), abs=1e-12)


def test_tree_edges_connect_busy_period():
    w = WeightSeq([2.0, 1.5, 1.0, 0.5])
    tr = simulate_lifo(w, forced_arrivals=[0.1, 0.2, 5.0, 5.1])
    g = assemble_graph(tr)
    # first busy period holds clients 1,2; second 3,4
    assert [1, 2] in g.edges.tolist() and [3, 4] in g.edges.tolist()
    assert len(g.edges) == 2


def test_trace_csv_roundtrip(tmp_path, hand_trace):
    path = tmp_path / "trace.csv"
    hand_trace.write_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "time,event,client,Y,H"
    assert len(rows) == 5  # header + 2 arrivals + 2 departures


def _reference_trace_rows(trace):
    """The per-event writer the vectorised one replaced, kept as the
    reference: rows by Python tuple sort, Y and H read one time at a
    time."""
    events = []
    for j in trace.arrival_order:
        events.append((trace.arrival[j], "arrival", int(j)))
        events.append((trace.departure[j], "departure", int(j)))
    events.sort()
    return [[repr(t), kind, str(j), repr(trace.Y.value(t)),
             str(int(trace.H(t)))] for t, kind, j in events]


def _csv_rows(trace, path):
    trace.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "event", "client", "Y", "H"]
    return rows[1:]


def _traces_n3000():
    yield simulate_lifo(WeightSeq(np.ones(3000)),
                        rng_seed=np.random.SeedSequence([81, 0]))
    yield simulate_lifo(WeightSeq(np.random.default_rng(3).pareto(2.5, 3000) + 0.2),
                        rng_seed=np.random.SeedSequence([81, 1]))
    # dyadic: each client departs exactly when the next one arrives, so
    # arrivals and departures tie in time
    yield simulate_lifo(WeightSeq(np.full(3000, 0.5)),
                        forced_arrivals=np.arange(3000) / 2.0)


def test_trace_csv_matches_reference_writer(tmp_path):
    for trace in _traces_n3000():
        rows = _csv_rows(trace, tmp_path / "trace.csv")
        ref = _reference_trace_rows(trace)
        assert [r[1:] for r in rows] == [r[1:] for r in ref]
        # the reference wrote the repr of a numpy scalar; the time column
        # is now the repr of the same float
        assert [r[0] for r in rows] == [
            repr(float(r[0].removeprefix("np.float64(").removesuffix(")")))
            for r in ref]


def test_trace_csv_columns_are_numeric(tmp_path):
    for trace in _traces_n3000():
        rows = _csv_rows(trace, tmp_path / "trace.csv")
        assert len(rows) == 2 * trace.weights.j_max
        seen = set()
        for t, kind, j, y, h in rows:
            t, j, y, h = float(t), int(j), float(y), int(h)
            when = trace.arrival if kind == "arrival" else trace.departure
            assert kind in ("arrival", "departure") and t == when[j]
            assert y == trace.Y.value(t) and h == trace.H(t) >= 0
            seen.add((kind, j))
        assert len(seen) == len(rows)


def _reference_resolve(trace, t_p, y_p):
    """The per-pinch resolver the batch one replaced: a bottom-up scan of
    the stack at t_p."""
    stack = _reference_stack_at(trace, t_p)
    j_exc = trace.pre_level[stack[0]]
    rel = [trace.pre_level[j] - j_exc for j in stack]
    assert 0.0 < y_p < trace.Y.value(t_p) - j_exc
    k, tie = 0, False
    for i, r in enumerate(rel):
        if r <= y_p:
            k = i
            if r == y_p and i > 0:
                tie = True
        else:
            break
    u, v = stack[k], _reference_served_at(trace, t_p)
    return float(trace.arrival[u]), int(u), int(v), bool(u == v), tie


def _reference_sample_pinches(trace, rng_seed=0, forced_points=None):
    """The per-point sampler and resolver, with its own segment scan:
    columns t, y, s, u, v, self_loop, boundary_tie."""
    if forced_points is not None:
        pts = [(float(t), float(y)) for t, y in forced_points]
    else:
        segs, r, prev_t = [], 0.0, 0.0
        for t, x in zip(trace.Y.times, trace.Y.sizes):
            gap = t - prev_t
            if r > 0:
                live = min(r, gap)
                segs.append((prev_t, r, live, r * live - live * live / 2.0))
            r = max(r - gap, 0.0) + x
            prev_t = t
        if r > 0:
            segs.append((prev_t, r, r, r * r / 2.0))
        rng = np.random.default_rng(rng_seed)
        areas = np.asarray([a for *_, a in segs])
        total = float(areas.sum())
        count = rng.poisson(total / trace.weights.sigma(1.0))
        pts = []
        if count:
            for i in rng.choice(len(segs), size=count, p=areas / total):
                t0, r0, live, _ = segs[i]
                uu = rng.random() * (r0 * live - live * live / 2.0)
                u = r0 - math.sqrt(r0 * r0 - 2.0 * uu)
                pts.append((t0 + u, rng.random() * (r0 - u)))
        pts.sort()
    return [list(col) for col in zip(*[
        (t, y) + _reference_resolve(trace, t, y) for t, y in pts])]


def _pinch_columns(ps):
    return [ps.t.tolist(), ps.y.tolist(), ps.s.tolist(), ps.u.tolist(),
            ps.v.tolist(), ps.self_loop.tolist(), ps.boundary_tie.tolist()]


def _powerlaw_traces(shift):
    """Seeded n = 3000 power-law traces, each with its pinch seed."""
    alpha = powerlaw_alpha0(2.5, 1.0, 1.0) + shift
    w = gen_powerlaw_triple(3000, rho=2.5, alpha=alpha).weights
    for r in range(2):
        yield (simulate_lifo(w, rng_seed=np.random.SeedSequence([91, r])),
               np.random.SeedSequence([92, r]))


@pytest.mark.parametrize("shift", [-0.9, 0.0, 0.9])
def test_pinches_match_stack_scan_reference(shift):
    for trace, seed in _powerlaw_traces(shift):
        ps = sample_pinches(trace, rng_seed=seed)
        assert ps.size > 50
        assert _pinch_columns(ps) == _reference_sample_pinches(trace, seed)
        assert ps.u.dtype == ps.v.dtype == np.int64


def _band_floor_points(trace, times=None):
    """At ``times`` (default: every arrival and departure time and between
    them), a level on each band floor above the root and one inside each
    band."""
    if times is None:
        events = np.concatenate((trace.arrival[1:], trace.departure[1:]))
        times = np.unique(np.concatenate((events, events[:-1] + 1.0 / 64)))
    pts = []
    for t in times.tolist():
        stack = _reference_stack_at(trace, t)
        if not stack:
            continue
        j_exc = trace.pre_level[stack[0]]
        floors = [trace.pre_level[j] - j_exc for j in stack]
        floors.append(trace.Y.value(t) - j_exc)
        for lo, hi in zip(floors, floors[1:]):
            if lo > 0:
                pts.append((t, lo))
            pts.append((t, (lo + hi) / 2.0))
    return pts


def _band_floor_traces():
    """Dyadic traces, each with its band-floor points: dyadic weights and
    arrival times keep every level exact, so points placed on band floors
    hit them."""
    rng = np.random.default_rng(5)
    for r in range(6):
        n = 40
        w = WeightSeq(np.sort(rng.choice([0.25, 0.5, 1.0, 2.0], n))[::-1])
        times = rng.choice(8 * n, n, replace=False) / 16.0
        trace = simulate_lifo(w, forced_arrivals=times)
        yield trace, _band_floor_points(trace)
    # a chain: each of 512 clients arrives before the one before it
    # departs, so the last arrival has 511 ancestors and the ancestor
    # table 10 levels.  Points at the last arrival, on all 512 bands, and
    # as client 2^k + 1 departs, k < 9 (at that time and just after): the
    # client in service, 2^k, is 512 - 2^k clients up from the last arrival
    n = 512
    trace = simulate_lifo(WeightSeq(np.ones(n)),
                          forced_arrivals=np.arange(n) / 2.0)
    leave = trace.departure[2 ** np.arange(9) + 1]
    yield trace, _band_floor_points(trace, np.concatenate(
        ([trace.arrival[n]], leave, leave + 1.0 / 64)))


def test_pinches_on_band_floors_match_reference():
    # points on band floors flag ties
    ties = loops = 0
    for trace, pts in _band_floor_traces():
        ps = sample_pinches(trace, forced_points=pts)
        assert _pinch_columns(ps) == _reference_sample_pinches(
            trace, forced_points=pts)
        ties += int(ps.boundary_tie.sum())
        loops += int(ps.self_loop.sum())
    assert ties > 100 and loops > 100


def test_pinch_resolution_holds_one_ancestor_table():
    """The resolver's memory peak on a 100-replica trace of N = n + 1
    entries per client array (client 0 included).

    With D the deepest stack, no last arrival has more than D - 1
    ancestors, so the ancestor table has at most L = bit_length(D - 1) + 1
    levels.  The resolver allocates L - 1 of them (level 0 is the trace's
    parent array), a copy of the levels, and, while it reads the busy
    period floors, the levels in arrival order and their running minimum:
    L + 2 arrays of N 8-byte entries.  The bound allows one array more,
    and 128 bytes a pinch point (sixteen 8-byte values) for the
    per-point work.  A
    resolver that also kept a table of departures and one of level minima
    per level would hold 3(L - 1) + 2 arrays."""
    w = WeightSeq(np.random.default_rng(4).pareto(2.5, 2000) + 0.2)
    rng = np.random.default_rng(np.random.SeedSequence([0, 1]))
    trace = _replica_trace(w, rng.exponential(w.sigma(1.0) / w.w,
                                              size=(100, w.j_max)))
    ps = sample_pinches(trace, rng_seed=np.random.SeedSequence([0, 2]))
    levels = (int(trace.H.values.max()) - 1).bit_length() + 1
    N = trace.parent.size
    assert levels >= 6 and ps.size > 1000
    tracemalloc.start()
    try:
        got = _resolve_pinches(trace, ps.t, ps.y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * N * (levels + 3) + 128 * ps.size
    assert np.array_equal(got[1], ps.u) and np.array_equal(got[2], ps.v)


def _reference_assemble_graph(trace, pinches=None):
    """The per-pinch loop that the set arithmetic replaced, kept as the
    reference."""
    n = trace.weights.j_max
    edges = {(min(j, p), max(j, p))
             for j, p in enumerate(trace.parent.tolist()) if p}
    loops = dups = 0
    if pinches is not None:
        for u, v in zip(pinches.u.tolist(), pinches.v.tolist()):
            if u == v:
                loops += 1
                continue
            e = (min(u, v), max(u, v))
            if e in edges:
                dups += 1
            else:
                edges.add(e)
    return AssembledGraph(n=n, weights=trace.weights.w, edges=frozenset(edges),
                          n_self_loops_dropped=loops,
                          n_duplicates_dropped=dups)


def _assembly_fields(g):
    return (g.edges.tolist(), g.n_self_loops_dropped,
            g.n_duplicates_dropped)


def test_assembly_matches_loop_reference():
    powerlaw = [(trace, sample_pinches(trace, rng_seed=seed))
                for shift in (-0.9, 0.0, 0.9)
                for trace, seed in _powerlaw_traces(shift)]
    floors = [(trace, sample_pinches(trace, forced_points=pts))
              for trace, pts in _band_floor_traces()]
    trace = powerlaw[0][0]
    empty = [(trace, None), (trace, sample_pinches(trace, forced_points=[]))]
    for trace, ps in powerlaw + floors + empty:
        assert _assembly_fields(assemble_graph(trace, ps)) == _assembly_fields(
            _reference_assemble_graph(trace, ps))
    # the band-floor points drop both self-loops and duplicates
    graphs = [assemble_graph(trace, ps) for trace, ps in floors]
    assert sum(g.n_self_loops_dropped for g in graphs) > 100
    assert sum(g.n_duplicates_dropped for g in graphs) > 100


def test_replica_trace_matches_separate_replays():
    # dyadic weights, arrivals and shifts: every time and level is exact,
    # so the one replay must equal the separate ones after undoing the
    # time shift, the load offset and the id offset
    rng = np.random.default_rng(11)
    n, R = 40, 7
    w = WeightSeq(np.sort(rng.choice([0.25, 0.5, 1.0, 2.0], n))[::-1])
    s1 = w.sigma(1.0)
    E = np.stack([rng.choice(8 * n, n, replace=False) / 16.0
                  for _ in range(R)])
    batch = _replica_trace(w, E)
    assert batch.replicas == R and batch.weights is w
    shift = np.concatenate(([0.0], np.cumsum(E.max(axis=1) + 2.0 * s1)[:-1]))
    floors, locals_ = [], []
    for r in range(R):
        trace = simulate_lifo(w, forced_arrivals=E[r])
        ids = np.arange(1, n + 1) + r * n
        par = batch.parent[ids]
        assert (np.where(par > 0, par - r * n, 0) == trace.parent[1:]).all()
        assert (batch.arrival[ids] - shift[r] == trace.arrival[1:]).all()
        assert (batch.departure[ids] - shift[r] == trace.departure[1:]).all()
        level = r * s1 - shift[r]  # load carried over from earlier replicas
        assert (batch.pre_level[ids] - level == trace.pre_level[1:]).all()
        pts = _band_floor_points(trace)
        floors += [(t + shift[r], y) for t, y in pts]
        locals_.append(sample_pinches(trace, forced_points=pts))
    ps = sample_pinches(batch, forced_points=floors)
    first = 0
    for r, local in enumerate(locals_):
        got = slice(first, first + local.size)
        first += local.size
        assert (ps.s[got] - shift[r] == local.s).all()
        assert (ps.u[got] - r * n == local.u).all()
        assert (ps.v[got] - r * n == local.v).all()
        assert (ps.self_loop[got] == local.self_loop).all()
        assert (ps.boundary_tie[got] == local.boundary_tie).all()
    assert first == ps.size and ps.boundary_tie.sum() > 20
    g = assemble_graph(batch, ps)
    assert g.n == R * n and g.weights.tolist() == np.tile(w.w, R).tolist()


def test_replica_trace_tree_matches_reference_replay():
    # random weights and arrivals: the one replay of five queues has the
    # reference loop's tree and H values on the same path, each queue's
    # first arrival is a root, and every level is Y's left limit
    rng = np.random.default_rng(12)
    n, R = 50, 5
    w = WeightSeq(np.sort(rng.uniform(0.5, 3.0, n))[::-1])
    E = rng.exponential(w.sigma(1.0) / w.w, size=(R, n))
    tr = _replica_trace(w, E)
    order = tr.arrival_order
    ref = _reference_replay(tr.Y)
    assert tr.replicas == R
    assert np.array_equal(tr.parent[order],
                          np.concatenate(([0], order))[ref.parent[1:]])
    assert np.array_equal(tr.H.values, ref.H.values)
    assert (tr.parent[order[::n]] == 0).all()
    assert np.array_equal(tr.pre_level[order], tr.Y.value_left(tr.Y.times))
    assert np.all(tr.departure[order] >= tr.Y.times)


def test_replica_trace_rejects_a_busy_first_arrival():
    # shifted by 5 + 2, a time of -1.5 puts replica 1's arrival inside
    # replica 0's busy period [5, 6)
    with pytest.raises(ValueError, match="found the server busy"):
        _replica_trace(WeightSeq([1.0]), np.array([[5.0], [-1.5]]))


def test_batch_resolution_rejects_any_bad_point(hand_trace):
    good = (0.5, 0.3)
    with pytest.raises(ValueError, match="busy period"):
        sample_pinches(hand_trace, forced_points=[good, (0.1, 0.1)])
    with pytest.raises(ValueError, match="reflected load"):
        sample_pinches(hand_trace, forced_points=[good, (0.5, 5.0)])
    with pytest.raises(ValueError, match="reflected load"):
        sample_pinches(hand_trace, forced_points=[good, (0.5, 0.0)])
    empty = sample_pinches(hand_trace, forced_points=[])
    assert empty.size == 0 and empty.u.dtype == np.int64


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=400),
                          st.floats(min_value=0.1, max_value=3.0)),
                min_size=1, max_size=12, unique_by=lambda a: a[0]),
       st.lists(st.floats(min_value=0.0, max_value=20.0), max_size=8))
@settings(max_examples=80, deadline=None)
def test_stack_queries_match_definition(clients, extra_times):
    times = [k / 37.0 for k, _ in clients]
    tr = simulate_lifo(WeightSeq([x for _, x in clients]),
                       forced_arrivals=times)
    ids = tr.arrival_order.tolist()
    # query at every arrival and departure, just around them, and at random
    queries = [q for j in ids for t in (tr.arrival[j], tr.departure[j])
               for q in (t, np.nextafter(t, -1.0), np.nextafter(t, 99.0))]
    for t in queries + extra_times:
        want = [j for j in ids if tr.arrival[j] <= t < tr.departure[j]]
        assert _reference_stack_at(tr, t) == want
        assert _reference_served_at(tr, t) == (want[-1] if want else 0)


def _tiny_tail_trace():
    """Clients 1, 2 (weight 1) each open a busy period that clients 4, 5
    and 6, 7 (weight 2**-53) join; client 3 (weight 0.1) is alone.  Each
    long period's exact work 1 + 2**-52 is not its left-to-right sum."""
    w = WeightSeq([1.0, 1.0, 0.1] + [TINY] * 4)
    return simulate_lifo(w, forced_arrivals=[1.0, 4.0, 8.0, 1.25, 1.5,
                                             4.25, 4.5])


def test_group_sums_exact_and_equal_across_layers():
    # excursion lengths, busy-period work and component masses are each
    # the fsum of their members' weights, and so equal one another
    tr = _tiny_tail_trace()
    periods = tr.busy_periods
    assert tuple(periods) == _reference_busy_periods(tr)
    assert [m for *_, m in periods] == [(1, 4, 5), (2, 6, 7), (3,)]
    w = tr.weights.w
    want = [math.fsum(w[v - 1] for v in m) for *_, m in periods]
    assert want == [1.0 + 2.0 ** -52] * 2 + [0.1]
    assert sum([1.0, TINY, TINY]) != want[0]
    assert [work for _, work, _ in periods] == want
    dec = decompose_with_masses(tr.Y)
    comps = connected_components(assemble_graph(tr))
    assert dec.lengths.tolist() == sorted(want, reverse=True)
    assert [c.mass for c in comps] == sorted(want, reverse=True)
    assert [c.vertices for c in comps] == [(1, 4, 5), (2, 6, 7), (3,)]
    # the singleton's mass is its weight, bit for bit
    assert comps[-1].mass.hex() == (0.1).hex() == dec.lengths[-1].hex()


@pytest.mark.parametrize("seed", range(4))
def test_busy_periods_match_reference_comprehension(seed):
    rng = np.random.default_rng(seed)
    n, R = 60, 6
    w = WeightSeq(np.concatenate((rng.pareto(1.5, n // 2) + 1.0,
                                  rng.uniform(0.01, 0.1, n // 2))))
    tr = _replica_trace(w, rng.exponential(w.sigma(1.0) / w.w, size=(R, n)))
    periods = tr.busy_periods
    assert tr.replicas == R and len(periods) > R
    assert tuple(periods) == _reference_busy_periods(tr)
    for _, work, members in periods:
        assert type(work) is float and type(members) is tuple


def test_busy_periods_equal_the_reference_on_the_component_fixtures():
    # the traces behind test_direct_graph's n = 3000 graphs: each member
    # tuple equals the plain tuple of its ids
    weights = (np.ones(3000), np.random.default_rng(1).pareto(2.5, 3000) + 0.2,
               np.random.default_rng(2).integers(1, 9, 3000) / 8.0)
    for w in map(WeightSeq, weights):
        for seed in range(2):
            tr = simulate_lifo(w, rng_seed=np.random.SeedSequence([71, seed]))
            periods = tr.busy_periods
            assert tuple(periods) == _reference_busy_periods(tr)
            assert all(type(v) is int for *_, m in periods for v in m)


def test_busy_period_sequence_equals_the_reference():
    # len, indices, slices and repeated passes of the read-only sequence,
    # on the traces of the test above
    weights = (np.ones(3000), np.random.default_rng(1).pareto(2.5, 3000) + 0.2,
               np.random.default_rng(2).integers(1, 9, 3000) / 8.0)
    for w in map(WeightSeq, weights):
        for seed in range(2):
            tr = simulate_lifo(w, rng_seed=np.random.SeedSequence([71, seed]))
            got, want = tr.busy_periods, _reference_busy_periods(tr)
            k = len(want)
            assert len(got) == k
            assert tuple(got) == want
            assert tuple(got) == want    # a second pass, equal rows
            for i in (0, -1, k // 2, -k):
                assert got[i] == want[i]
            for s in (slice(3), slice(-2, None), slice(None, None, -2),
                      slice(1, -1, 3), slice(k, None)):
                assert type(got[s]) is tuple and got[s] == want[s]
            for i in (k, -k - 1):
                with pytest.raises(IndexError):
                    got[i]


def test_one_replica_graph_keeps_the_trace_weights():
    w = WeightSeq([2.0, 1.0, 0.5])
    tr = simulate_lifo(w, rng_seed=3)
    assert assemble_graph(tr).weights is w.w
    rng = np.random.default_rng(4)
    tr = _replica_trace(w, rng.exponential(w.sigma(1.0) / w.w, size=(3, 3)))
    g = assemble_graph(tr)
    assert g.n == 9 and g.weights.tolist() == np.tile(w.w, 3).tolist()


@pytest.mark.parametrize("tiny, seed", [(1e-310, 0), (1e-308, 12)])
def test_lifo_rejects_a_weight_whose_arrival_overflows(tiny, seed):
    # at 1e-310 sigma_1/w overflows; at 1e-308 it is 1e308, and seed 12's
    # Exp(1) draw for the tiny weight passes 1.8
    w = WeightSeq([tiny, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match=f"^weight {tiny!r} is too small"):
            simulate_lifo(w, rng_seed=seed)
    # forced arrivals draw nothing
    assert simulate_lifo(w, forced_arrivals=[3.0, 1.0]).arrival_order.tolist() \
        == [2, 1]


@pytest.mark.parametrize("tiny, seed", [(1e-300, 0), (1e-307, 0),
                                        (1e-308, 0)])
def test_lifo_runs_a_tiny_weight_whose_arrival_is_finite(tiny, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = simulate_lifo(WeightSeq([tiny, 1.0]), rng_seed=seed)
    assert np.isfinite(tr.arrival).all() and tr.arrival[2] > 1e-3 / tiny


@pytest.mark.parametrize("E", [
    # replica 1's arrivals land on sums past 2**53 of replica 0's shift
    np.array([[1e17, 1.0, 2.0], [1e17, 1.0, 1.5]]),
    # replica 1's shift overflows
    np.array([[1e308, 1.0, 2.0], [1e308, 1.0, 1.5]]),
], ids=["equal", "infinite"])
def test_replica_layout_rejects_equal_or_infinite_arrival_times(E):
    w = WeightSeq([1e-17, 1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=(
                r"^2 replicas of the weights 1e-17 to 1.0, laid end to end, "
                r"give equal or infinite arrival times")):
            _replica_trace(w, E)
    # each replica alone runs
    for e in E:
        assert _replica_trace(w, e[None]).arrival[1:].tolist() == e.tolist()
