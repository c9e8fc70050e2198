import gc
import math
import weakref
from itertools import chain

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph

from wmgraph import (
    WeightSeq,
    assemble_graph,
    connected_components,
    edge_probability,
    graph_distances,
    sample_direct,
    sample_pinches,
    simulate_lifo,
)
from wmgraph import direct_graph, paths
from wmgraph.direct_graph import AssembledGraph, ComponentView
from wmgraph.paths import _group_fsums


def test_edge_probability_functions():
    x = np.asarray([0.0, 0.5, 2.0])
    assert np.allclose(edge_probability(x), 1.0 - np.exp(-x))


def _replica_edges(w, rng_seed, replicas):
    """``replicas`` draws of ``sample_direct``'s law from one
    ``_direct_edges`` call: columns replica, u, v, with u < v the
    replica's own 1-based vertices."""
    e = direct_graph._direct_edges(w, rng_seed, replicas=replicas) - 1
    return np.column_stack((e[:, 0] // w.j_max, e % w.j_max + 1))


def test_single_pair_frequency():
    # w = (2, 1): P(edge) = 1 - exp(-2/3) ~ 0.486583
    w = WeightSeq([2.0, 1.0])
    R = 4000
    _, u, v = _replica_edges(w, 41, R).T
    hits = np.count_nonzero((u == 1) & (v == 2))
    p = 1 - math.exp(-2.0 / 3.0)
    assert abs(hits / R - p) < 4 * math.sqrt(p * (1 - p) / R)


def test_pair_marginals_match_edge_probability():
    w = WeightSeq([8.0, 6.0, 3.0, 1.0, 1.0, 1.0])
    iu, iv = np.triu_indices(w.j_max, k=1)
    probs = edge_probability(w.w[iu] * w.w[iv] / w.sigma(1.0))
    index = {(int(a) + 1, int(b) + 1): k for k, (a, b) in enumerate(zip(iu, iv))}
    R = 4000
    counts = np.zeros(iu.size)
    for e in map(tuple, _replica_edges(w, 47, R)[:, 1:].tolist()):
        counts[index[e]] += 1
    band = 4 * np.sqrt(probs * (1 - probs) / R)
    assert np.all(np.abs(counts / R - probs) <= band)


def test_certain_pair_appears_in_every_draw():
    # sigma_1 = 204: the pair {1, 2} has x = 100*100/204 ~ 49 and
    # h(x) == 1.0 in floating point, so its row takes the no-skip branch
    w = WeightSeq([100.0, 100.0, 1.0, 1.0, 1.0, 1.0])
    assert edge_probability(w.w[0] * w.w[1] / w.sigma(1.0)) == 1.0
    R = 2000
    r, u, v = _replica_edges(w, 47, R).T
    assert r[(u == 1) & (v == 2)].tolist() == list(range(R))


def test_single_vertex_has_no_edges():
    g = sample_direct(WeightSeq([5.0]), rng_seed=0)
    assert g.n == 1 and g.edges.shape == (0, 2)


def test_unit_weight_edge_count_is_binomial():
    # unit weights: every pair has p = h(1/n), so the edge count is
    # Binomial(C(n, 2), p)
    n = 4000
    pairs = n * (n - 1) // 2
    p = edge_probability(1.0 / n)
    for seed in range(3):
        g = sample_direct(WeightSeq(np.ones(n)),
                          rng_seed=np.random.SeedSequence([53, seed]))
        assert g.provenance == "direct"
        assert abs(len(g.edges) - pairs * p) < 4 * math.sqrt(pairs * p * (1 - p))


def test_components_ordering_and_mass():
    g = AssembledGraph(n=6, weights=np.asarray([3., 2., 2., 1., 1., 1.]),
                       edges=frozenset({(4, 5), (2, 3)}), provenance="test",
                       n_self_loops_dropped=0, n_duplicates_dropped=0)
    comps = connected_components(g)
    # masses: {2,3} -> 4, {1} -> 3, {4,5} -> 2, {6} -> 1
    assert [c.mass for c in comps] == [4.0, 3.0, 2.0, 1.0]
    assert comps[0].root == 2 and comps[1].root == 1


def test_component_mass_is_exact_sum():
    # dyadic weights: fsum of members must be exact
    w = np.asarray([0.5, 0.25, 0.125, 0.0625])
    g = AssembledGraph(n=4, weights=w, edges=frozenset({(1, 2), (3, 4)}),
                       provenance="test", n_self_loops_dropped=0,
                       n_duplicates_dropped=0)
    comps = connected_components(g)
    assert comps[0].mass == 0.75
    assert comps[1].mass == 0.1875


def _bfs_oracle(n, edges, src):
    adj = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def _oracle_graphs():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        edges = set()
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < 0.4:
                    edges.add((u, v))
        yield AssembledGraph(n=n, weights=np.ones(n), edges=frozenset(edges),
                             provenance="test", n_self_loops_dropped=0,
                             n_duplicates_dropped=0)


def test_graph_distances_vs_bfs_oracle():
    for g in _oracle_graphs():
        for comp in connected_components(g):
            d = graph_distances(comp)
            verts = list(comp.vertices)
            for i, u in enumerate(verts):
                oracle = _bfs_oracle(g.n, g.edges, u)
                for j, v in enumerate(verts):
                    assert d[i, j] == oracle[v]


def test_graph_distances_rejects_a_disconnected_view():
    view = ComponentView(vertices=(1, 2, 3), mass=3.0, edges=np.array([[1, 2]]))
    with pytest.raises(ValueError, match="not connected"):
        graph_distances(view)


def test_assembled_graph_rejects_invalid_edges():
    # a repeated pair, given as a list, would count one edge twice
    for edges in ([(2, 1)], [(1, 1)], [(0, 1)], [(1, 4)], [(1, 2), (1, 2)]):
        with pytest.raises(ValueError, match="invalid edge"):
            AssembledGraph(n=3, weights=np.ones(3), edges=edges,
                           provenance="test")


def _reference_validate(n, edges):
    """The constructor's per-pair check when edges were a tuple, kept as
    the reference: the sorted pairs, or the ValueError naming the first
    invalid pair in sorted order."""
    edges = tuple(sorted(edges))
    for prev, (u, v) in zip(((0, 0),) + edges, edges):
        if not (1 <= u < v <= n and (u, v) > prev):  # no repeats
            raise ValueError(f"invalid edge ({u}, {v})")
    return edges


def _verdict(check):
    try:
        return check()
    except ValueError as err:
        return str(err)


def _random_edge_lists():
    """Valid edge lists, sorted and shuffled, and lists made invalid by a
    repeat, u = 0, u = v, u > v or v > n."""
    rng = np.random.default_rng(23)
    for _ in range(600):
        n = int(rng.integers(1, 9))
        iu, iv = np.triu_indices(n, k=1)
        pick = rng.random(iu.size) < rng.random()
        edges = list(zip(iu[pick] + 1, iv[pick] + 1))
        if rng.random() < 0.5:
            edges = [edges[i] for i in rng.permutation(len(edges))]
        for _ in range(int(rng.integers(0, 3))):
            kind = rng.integers(0, 5)
            if kind == 0 and edges:   # a repeat
                edges.append(edges[int(rng.integers(0, len(edges)))])
            else:                     # endpoints anywhere in 0..n+1
                edges.append(tuple(rng.integers(0, n + 2, size=2)))
            edges.insert(int(rng.integers(0, len(edges))), edges.pop())
        yield n, [(int(u), int(v)) for u, v in edges]


def test_assembled_graph_validation_matches_reference():
    verdicts = set()
    for n, edges in _random_edge_lists():
        want = _verdict(lambda: [list(e) for e in _reference_validate(n, edges)])
        got = _verdict(lambda: AssembledGraph(
            n=n, weights=np.ones(n), edges=edges,
            provenance="test").edges.tolist())
        assert got == want, (n, edges)
        verdicts.add(isinstance(want, str))
    assert verdicts == {False, True}


def test_assembled_graph_rejects_malformed_input():
    with pytest.raises(ValueError, match="one weight per vertex"):
        AssembledGraph(n=3, weights=np.ones(2), edges=[(1, 2)],
                       provenance="test")
    with pytest.raises(ValueError, match="one weight per vertex"):
        AssembledGraph(n=3, weights=np.ones(4), edges=[(1, 2)],
                       provenance="test")
    for edges in ([(1.5, 2)], [(1, math.nan)], [(1, math.inf)], [("1", "2")],
                  [(2.0, 3.0)], np.ones((1, 2))):
        with pytest.raises(ValueError, match="must be integers"):
            AssembledGraph(n=3, weights=np.ones(3), edges=edges,
                           provenance="test")
    # [(1, 2, 3, 4)] must not be read as the two edges (1, 2) and (3, 4)
    for edges in ([(1, 2, 3, 4)], [(1,)], [()], [1, 2], np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match="pairs"):
            AssembledGraph(n=4, weights=np.ones(4), edges=edges,
                           provenance="test")
    with pytest.raises(ValueError):
        AssembledGraph(n=4, weights=np.ones(4), edges=[(1, 2), (3,)],
                       provenance="test")
    g = AssembledGraph(n=3, weights=np.ones(3), edges=np.array([[2, 3]]),
                       provenance="test")
    assert g.edges.tolist() == [[2, 3]] and not g.edges.flags.writeable


def test_assembled_graph_keeps_one_edge_order():
    pairs = [(1, 2), (1, 4), (2, 3), (3, 4)]
    for edges in ([pairs[i] for i in (2, 0, 3, 1)], set(pairs),
                  (e for e in reversed(pairs))):
        g = AssembledGraph(n=4, weights=np.ones(4), edges=edges,
                           provenance="test")
        assert g.edges.dtype == np.int64
        assert g.edges.tolist() == [list(e) for e in pairs]


def test_component_view_fields():
    c = ComponentView(vertices=(2, 5, 7), mass=3.0, edges=((2, 5), (5, 7)))
    assert c.root == c.vertices[0] == 2 and c.count == len(c.vertices) == 3
    assert c == ComponentView((2, 5, 7), 3.0, ((2, 5), (5, 7)))
    assert c != c._replace(mass=4.0)


def test_determinism():
    w = WeightSeq([3.0, 2.0, 2.0, 1.0, 1.0, 1.0])
    g1 = sample_direct(w, rng_seed=np.random.SeedSequence([9, 9]))
    g2 = sample_direct(w, rng_seed=np.random.SeedSequence([9, 9]))
    assert np.array_equal(g1.edges, g2.edges)


def _reference_components(g):
    """The union-find components the csgraph labels replaced, kept as the
    reference."""
    parent = list(range(g.n + 1))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for u, v in g.edges.tolist():
        ru, rv = sorted((find(u), find(v)))
        if ru != rv:
            parent[rv] = ru
    members, local_edges = {}, {}
    for v in range(1, g.n + 1):
        members.setdefault(find(v), []).append(v)
    for u, v in sorted(g.edges.tolist()):
        local_edges.setdefault(find(u), []).append((u, v))
    views = [ComponentView(
        vertices=tuple(verts),
        mass=math.fsum(float(g.weights[v - 1]) for v in verts),
        edges=tuple(local_edges.get(root, ())))
        for root, verts in members.items()]
    return sorted(views, key=lambda c: (-c.mass, c.root))


def _reference_graph_distances(c):
    """The per-source BFS over a numpy matrix that the list BFS replaced,
    kept as the reference."""
    index = {v: i for i, v in enumerate(c.vertices)}
    n = len(c.vertices)
    adj = [[] for _ in range(n)]
    for u, v in c.edges:
        adj[index[u]].append(index[v])
        adj[index[v]].append(index[u])
    dist = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        dist[s, s] = 0
        queue = [s]
        while queue:
            nxt = []
            for x in queue:
                for y in adj[x]:
                    if dist[s, y] < 0:
                        dist[s, y] = dist[s, x] + 1
                        nxt.append(y)
            queue = nxt
    if np.any(dist < 0):
        raise ValueError("component is not connected")
    return dist


def _component_fields(views):
    return [(c.vertices, c.root, np.float64(c.mass).view(np.int64), c.count,
             np.asarray(c.edges).tolist()) for c in views]


def _graphs_n3000():
    unit = WeightSeq(np.ones(3000))
    pareto = WeightSeq(np.random.default_rng(1).pareto(2.5, 3000) + 0.2)
    # multiples of 1/8: many components of exactly equal mass
    dyadic = WeightSeq(np.random.default_rng(2).integers(1, 9, 3000) / 8.0)
    for w in (unit, pareto, dyadic):
        for seed in range(2):
            trace = simulate_lifo(w, rng_seed=np.random.SeedSequence([71, seed]))
            pinches = sample_pinches(
                trace, rng_seed=np.random.SeedSequence([72, seed]))
            yield assemble_graph(trace, pinches)
            yield sample_direct(w, rng_seed=np.random.SeedSequence([73, seed]))


def _graphs_small():
    """n = 1, and n = 2 with and without its one edge."""
    yield sample_direct(WeightSeq([5.0]), rng_seed=0)
    for edges in (frozenset(), frozenset({(1, 2)})):
        yield AssembledGraph(n=2, weights=np.asarray([2.0, 1.0]), edges=edges,
                             provenance="test")


def test_components_match_union_find_reference():
    for g in chain(_graphs_n3000(), _graphs_small()):
        got = connected_components(g)
        assert _component_fields(got) == _component_fields(_reference_components(g))
        assert sum(c.count for c in got) == g.n
        for c in got:
            assert all(a < b for a, b in zip(c.vertices, c.vertices[1:]))
            assert c.edges.dtype == np.int64 and c.edges.shape[1:] == (2,)
            assert c.edges.tolist() == sorted(c.edges.tolist())
            assert all(u < v for u, v in c.edges.tolist())
            assert c.root == min(c.vertices) and c.count == len(c.vertices)
            assert type(c.root) is int and type(c.mass) is float
            assert all(type(v) is int for v in c.vertices)


def _reference_eager_components(g):
    """The eager list of views that ``connected_components`` returned
    before its views were built when read, kept as the reference."""
    u, v = g.edges[:, 0] - 1, g.edges[:, 1] - 1
    lab = direct_graph._root_labels(g.n, u, v)
    is_root = lab == np.arange(g.n)
    k, labels = int(is_root.sum()), (np.cumsum(is_root) - 1)[lab]
    by_label = np.argsort(labels, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(labels, minlength=k))))
    cuts = bounds.tolist()
    edge_label = labels[u]
    edge_cuts = [0] + np.cumsum(np.bincount(edge_label, minlength=k)).tolist()
    edges = g.edges[np.argsort(edge_label, kind="stable")]
    verts = tuple((by_label + 1).tolist())
    masses = _group_fsums(np.asarray(g.weights, dtype=float)[by_label], bounds)
    order = np.lexsort((by_label[bounds[:-1]], -masses)).tolist()
    masses = masses.tolist()
    none = edges[:0]
    return [tuple.__new__(ComponentView, (
        verts[cuts[i]:cuts[i + 1]], masses[i],
        edges[edge_cuts[i]:edge_cuts[i + 1]]
        if edge_cuts[i] < edge_cuts[i + 1] else none)) for i in order]


def test_component_sequence_equals_the_eager_list():
    for g in chain(_graphs_n3000(), _graphs_small(), _oracle_graphs()):
        got, want = connected_components(g), _reference_eager_components(g)
        k = len(want)
        assert len(got) == k
        fields = _component_fields(want)
        assert _component_fields(got) == fields
        assert _component_fields(got) == fields   # a second pass, equal rows
        for c in got:
            assert type(c) is ComponentView and type(c.mass) is float
            assert c.edges.dtype == np.int64 and c.edges.shape[1:] == (2,)
        for i in (0, -1, k // 2, -k):
            assert _component_fields([got[i]]) == _component_fields([want[i]])
        for s in (slice(3), slice(-2, None), slice(None, None, -2),
                  slice(1, -1, 3), slice(k, None)):
            assert type(got[s]) is tuple
            assert _component_fields(got[s]) == _component_fields(want[s])
        for i in (k, -k - 1):
            with pytest.raises(IndexError):
                got[i]


def test_holding_the_components_adds_few_tracked_objects():
    # the views are built when read, and the vertex tuples hold ints only,
    # so the collector stops tracking them; an eager list would keep one
    # tracked view per component, about 5,000 here
    trace = simulate_lifo(WeightSeq(np.ones(10_000)),
                          rng_seed=np.random.SeedSequence([74, 0]))
    g = assemble_graph(trace)
    gc.collect()
    before = len(gc.get_objects())
    comps = connected_components(g)
    gc.collect()
    assert len(gc.get_objects()) - before < 100
    assert len(comps) > 1000


def _one_replica(n, seed):
    """The trace, LIFO graph and direct graph of one replica on unit
    weights, drawn as the benchmark's critical workload draws them."""
    w = WeightSeq(np.ones(n))
    trace = simulate_lifo(w, rng_seed=np.random.SeedSequence([seed, 0]))
    g = assemble_graph(trace, sample_pinches(
        trace, rng_seed=np.random.SeedSequence([seed, 1])))
    return trace, g, sample_direct(w, rng_seed=np.random.SeedSequence([seed, 2]))


def test_partitions_alive_together_share_one_int_per_vertex():
    # the two component results and the busy periods of one replica hold
    # the same int object for each id (ints above 256 are not cached)
    n = 10_000
    trace, g, gd = _one_replica(n, 75)
    comps, dcomps = connected_components(g), connected_components(gd)
    periods = trace.busy_periods
    first = {v: v for c in comps for v in c.vertices}
    assert sorted(first) == list(range(1, n + 1))
    for tuples in ([c.vertices for c in dcomps], [m for *_, m in periods]):
        ints = [v for t in tuples for v in t]
        assert sorted(ints) == list(range(1, n + 1))
        assert all(first[v] is v for v in ints)
    # still computed on their own: equal partitions, no shared tuple
    assert {c.vertices for c in comps} == {tuple(sorted(m))
                                           for *_, m in periods}
    assert not {id(c.vertices) for c in comps} & {id(m) for *_, m in periods}


def test_no_id_table_outlives_its_results():
    n = 3_001     # no other test keeps a result on this many vertices
    trace, g, gd = _one_replica(n, 76)
    assert n not in paths._ID_TABLES
    comps = connected_components(g)
    table = weakref.ref(paths._ID_TABLES[n])
    periods, dcomps = trace.busy_periods, connected_components(gd)
    assert paths._ID_TABLES[n] is table()
    del comps, dcomps
    gc.collect()
    assert table() is not None    # the busy periods hold it
    del periods
    gc.collect()
    assert table() is None and n not in paths._ID_TABLES
    # a new result makes a new table, and holds it alone
    comps = connected_components(g)
    assert comps[0].vertices[0] is paths._ID_TABLES[n][comps[0].root]
    del comps
    gc.collect()
    assert n not in paths._ID_TABLES


def _csgraph_distances(g):
    """Hop counts between all vertex pairs of g by scipy's BFS (inf
    across components); row and column v - 1 are vertex v."""
    u, v = np.asarray(g.edges, dtype=np.intp).reshape(-1, 2).T - 1
    adj = sparse.coo_array((np.ones(u.size), (u, v)), shape=(g.n, g.n))
    return csgraph.shortest_path(adj, directed=False, unweighted=True)


def test_graph_distances_equal_matrix_bfs_reference():
    # at n = 3000 scipy's BFS is the reference, the matrix BFS being slow
    for g in _graphs_n3000():
        dist = _csgraph_distances(g)
        for c in connected_components(g):
            got = graph_distances(c)
            assert got.dtype == np.int64
            idx = np.asarray(c.vertices) - 1
            assert np.array_equal(got, dist[np.ix_(idx, idx)])
    for g in chain(_oracle_graphs(), _graphs_small()):
        for c in connected_components(g):
            got = graph_distances(c)
            assert got.dtype == np.int64
            assert np.array_equal(got, _reference_graph_distances(c))


def _reference_sample_direct(w, rng_seed=0, replicas=1):
    """``_direct_edges`` as a plain-float loop over its rounds, kept as
    the reference: each round draws one (2, rows, 2**k) block of
    uniforms, and the live rows, in ascending order, read their skip and
    keep uniforms from it landing by landing.  It reads
    ``wmgraph.direct_graph.h`` when called, and takes numpy's log1p on
    each float, as ``math.log1p`` can differ from it in the last bit."""
    rng = np.random.default_rng(rng_seed)
    n, s1 = w.j_max, w.sigma(1.0)
    ws = w.w.tolist() * replicas
    h = direct_graph.h
    rows = []   # [u, one past its last pair, last landing, p]
    for u in range(len(ws) - 1):
        stop = (u // n + 1) * n
        if u + 1 < stop:
            rows.append((u, stop, u, float(h(ws[u] * ws[u + 1] / s1))))
    edges, k = [], 1
    while True:
        rows = [r for r in rows if r[3] > 0]
        if not rows:
            break
        skips, keeps = rng.random((2, len(rows), k)).tolist()
        going = []
        for (u, stop, v, p), row_skips, row_keeps in zip(rows, skips, keeps):
            for a, b in zip(row_skips, row_keeps):
                skip = 0.0 if p == 1 else (float(np.log1p(-a))
                                           / float(np.log1p(-p)))
                if skip >= stop - v - 1:
                    break
                v += int(skip) + 1
                q = float(h(ws[u] * ws[v] / s1))
                if b * p < q:
                    edges.append((u + 1, v + 1))
            else:
                going.append((u, stop, v, q))
        rows, k = going, 2 * k
    return sorted(edges)


def _hub(n):
    """One vertex of weight 1e6 beside n - 1 of weight 1: the hub's row
    lands on about 0.6 n pairs, the others on almost none."""
    return WeightSeq(np.r_[1e6, np.ones(n - 1)])


def _sampler_cases():
    n = 3000
    unit = WeightSeq(np.ones(n))
    pareto = WeightSeq(np.random.default_rng(1).pareto(2.5, n) + 0.2)
    dyadic = WeightSeq(np.random.default_rng(2).integers(1, 9, n) / 8.0)
    for w in (unit, pareto, dyadic, _hub(n)):
        for seed in range(5):
            yield w, np.random.SeedSequence([61, seed])
    # h(x) == 1.0 on the pair {1, 2}: the no-skip branch
    certain = WeightSeq([100.0, 100.0, 1.0, 1.0, 1.0, 1.0])
    for seed in range(50):
        yield certain, np.random.SeedSequence([62, seed])


def _assert_sampler_matches_reference(cases):
    for w, seed in cases:
        g = sample_direct(w, rng_seed=seed)
        want = _reference_sample_direct(w, rng_seed=seed)
        assert g.edges.dtype == np.int64 and g.edges.shape == (len(want), 2)
        assert g.edges.tolist() == [list(e) for e in want]


def test_sampler_matches_tuple_loop_reference():
    _assert_sampler_matches_reference(_sampler_cases())


def test_sampler_reads_the_edge_law_when_called(monkeypatch):
    w = WeightSeq(np.random.default_rng(1).pareto(2.5, 3000) + 0.2)
    seeds = [np.random.SeedSequence([63, r]) for r in range(3)]
    plain = [sample_direct(w, rng_seed=s).edges for s in seeds]
    monkeypatch.setattr("wmgraph.direct_graph.h", lambda x: x / (1.0 + x))
    _assert_sampler_matches_reference([(w, s) for s in seeds])
    mutant = [sample_direct(w, rng_seed=s).edges for s in seeds]
    assert not any(np.array_equal(a, b) for a, b in zip(plain, mutant))


def test_sampler_rounds_grow_with_log_n(monkeypatch):
    # h is called once before the first round and once per round; the hub
    # row's chunks double, so its ~0.6 n landings take about log2(n)
    # rounds, where one landing per round would take 0.6 n
    calls = [0]
    orig = direct_graph.h

    def counted(x):
        calls[0] += 1
        return orig(x)

    monkeypatch.setattr("wmgraph.direct_graph.h", counted)
    for n in (1000, 10_000, 100_000):
        calls[0] = 0
        g = sample_direct(_hub(n), rng_seed=np.random.SeedSequence([64, n]))
        assert len(g.edges) > 0.5 * n
        assert 2 <= calls[0] <= math.log2(n) + 4, (n, calls[0])


@pytest.mark.parametrize("w", [
    WeightSeq([3.0, 2.0, 2.0, 1.0, 1.0, 1.0]),
    WeightSeq([100.0, 100.0, 1.0, 1.0, 1.0, 1.0]),
    WeightSeq(np.random.default_rng(3).pareto(2.5, 40) + 0.2),
    WeightSeq([5.0]),
])
def test_replica_rows_stay_in_their_blocks(w):
    n = w.j_max
    seed = np.random.SeedSequence([65, n])
    one = direct_graph._direct_edges(w, seed, replicas=1)
    assert np.array_equal(one, sample_direct(w, rng_seed=seed).edges)
    e = direct_graph._direct_edges(w, seed, replicas=300)
    assert e.dtype == np.int64 and e.shape[1:] == (2,)
    assert e.tolist() == [list(x) for x in
                          _reference_sample_direct(w, seed, replicas=300)]
    assert ((e[:, 0] - 1) // n == (e[:, 1] - 1) // n).all()
    assert e[:, 1].max(initial=0) <= 300 * n
    assert e.tolist() == sorted(e.tolist())


def _labelling_cases():
    """(name, n, u, v): 0-based edge lists in any order, as the labelling
    takes them."""
    rng = np.random.default_rng(66)
    for n in (2, 1000, 100_000):
        p = rng.permutation(n)
        yield "random path", n, p[:-1], p[1:]
        yield "sorted path", n, np.arange(n - 1), np.arange(1, n)
        yield "reversed path", n, np.arange(n - 1)[::-1], np.arange(1, n)[::-1]
    yield "star hubbed at the largest id", 500, np.arange(499), np.full(499, 499)
    yield "one vertex", 1, np.arange(0), np.arange(0)
    yield "no edges", 50, np.arange(0), np.arange(0)
    u, v = np.triu_indices(60, 1)
    yield "complete graph", 60, u, v
    for m in (100, 2000, 20_000):
        u, v = rng.integers(0, 20_000, (2, m))
        yield "many components", 20_000, u, v
    # 40 cliques of 25 on shuffled ids, edges both ways and repeated
    ids = rng.permutation(1000).reshape(40, 25)
    i, j = np.triu_indices(25, 1)
    u, v = ids[:, i].ravel(), ids[:, j].ravel()
    yield "cliques", 1000, np.concatenate((u, v, u)), np.concatenate((v, u, v))


def _csgraph_root_labels(n, u, v):
    """Each vertex's smallest component-mate, from scipy's labelling."""
    adj = sparse.coo_array((np.ones(u.size), (u, v)), shape=(n, n))
    k, labels = csgraph.connected_components(adj, directed=False)
    smallest = np.full(k, n)
    np.minimum.at(smallest, labels, np.arange(n))
    return smallest[labels]


def test_root_labels_match_csgraph(monkeypatch):
    # the labelling calls np.maximum once per hook round; count the rounds
    rounds, orig = [0], np.maximum

    def counted(*args, **kwargs):
        rounds[0] += 1
        return orig(*args, **kwargs)

    for name, n, u, v in _labelling_cases():
        want = _csgraph_root_labels(n, u, v)
        rounds[0] = 0
        with monkeypatch.context() as m:
            m.setattr(np, "maximum", counted)
            got = direct_graph._root_labels(n, u, v)
        assert got.tolist() == want.tolist(), name
        if name in ("sorted path", "reversed path"):
            # every vertex hooks under its predecessor in one round
            assert rounds[0] == 1, (name, n)
        elif name == "random path":
            # the roots left are local minima of the contracted path, so
            # each round at least halves them: 11 rounds at n = 1e5
            assert rounds[0] <= math.log2(n) + 1, (name, n, rounds[0])
        elif name == "star hubbed at the largest id":
            assert rounds[0] == 2
        elif name in ("one vertex", "no edges"):
            assert rounds[0] == 0


def _reference_root_labels(n, u, v):
    """The labelling before ``np.minimum.at``: each round takes the least
    neighbouring root of each root by one sort of bit-packed keys (root,
    neighbour) and a first-of-group scan.  Kept as the reference."""
    lab, s = np.arange(n), (n - 1).bit_length()
    a, b = u, v
    while a.size:
        key = np.sort(np.maximum(a, b) << s | np.minimum(a, b))
        hi = key >> s
        first = np.concatenate(([True], hi[1:] != hi[:-1]))
        hooked, up = hi[first], key[first] & ((1 << s) - 1)
        lab[hooked] = up
        while True:
            jumped = lab[up]
            if np.array_equal(jumped, up):
                break
            lab[hooked] = up = jumped
        a, b = lab[a], lab[b]
        keep = a != b
        a, b = a[keep], b[keep]
    while True:
        jumped = lab[lab]
        if np.array_equal(jumped, lab):
            return lab
        lab = jumped


def _certify_graphs():
    """(name, n, u, v) of LIFO graphs shaped like the acceptance suite's
    metric criterion: 2-50 weights from U(0.5, 3), pinches sampled."""
    for r in range(300):
        rng = np.random.default_rng([72, r])
        w = WeightSeq(np.sort(rng.uniform(0.5, 3.0, rng.integers(2, 51)))[::-1])
        trace = simulate_lifo(w, rng_seed=np.random.SeedSequence([72, r, 0]))
        g = assemble_graph(trace, sample_pinches(
            trace, rng_seed=np.random.SeedSequence([72, r, 1])))
        yield "certify-shaped", g.n, g.edges[:, 0] - 1, g.edges[:, 1] - 1


def test_root_labels_equal_the_sort_based_reference():
    for name, n, u, v in chain(_labelling_cases(), _certify_graphs()):
        got = direct_graph._root_labels(n, u, v)
        assert got.dtype == np.intp, name
        assert got.tolist() == _reference_root_labels(n, u, v).tolist(), name
