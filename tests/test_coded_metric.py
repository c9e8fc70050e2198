import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmgraph import (
    CodedSpace,
    StepFunction,
    WeightSeq,
    assemble_graph,
    connected_components,
    gen_powerlaw_triple,
    ghp_upper_bound,
    graph_distances,
    pinched_matrix,
    sample_pinches,
    simulate_lifo,
    tree_distance,
    write_matrix_csv,
)

H = StepFunction([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 1.0, 3.0, 0.0])


def test_tree_distance_hand_values():
    assert tree_distance(H, 0.5, 0.5) == 0.0
    assert tree_distance(H, 0.5, 1.5) == 1.0      # 1 + 2 - 2*min(1,2)
    assert tree_distance(H, 1.5, 3.5) == 3.0      # 2 + 3 - 2*1
    assert tree_distance(H, 3.5, 1.5) == 3.0      # symmetric
    assert tree_distance(H, 0.5, 3.5) == 2.0      # 1 + 3 - 2*1


@given(st.lists(st.floats(min_value=0.0, max_value=4.0),
                min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_four_point_inequality(pts):
    s, t, u, v = pts
    d = lambda a, b: tree_distance(H, a, b)
    # in a tree metric the two largest of the three pairings coincide
    sums = sorted([d(s, t) + d(u, v), d(s, u) + d(t, v), d(s, v) + d(t, u)])
    assert sums[2] == pytest.approx(sums[1], abs=1e-9)


def test_pinched_matrix_no_pinches_is_tree_matrix():
    space = CodedSpace(H, samples=[0.5, 1.5, 3.5])
    m = pinched_matrix(space)
    expect = np.array([[0.0, 1.0, 2.0],
                       [1.0, 0.0, 3.0],
                       [2.0, 3.0, 0.0]])
    assert m == pytest.approx(expect)


def test_pinched_matrix_beyond_physical_memory_raises(monkeypatch):
    # a host with 1 MiB of memory: the matrix peaks at 32 N^2 bytes, so 182
    # points are too many and 181 are not
    monkeypatch.setattr(os, "sysconf",
                        {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}.get)
    pinches = ((1.5, 3.5),)
    space = CodedSpace(H, pinches=pinches, samples=np.linspace(0.0, 4.0, 180))
    with pytest.raises(ValueError, match="^a distance matrix over 182 points "
                       "needs 0.000987 GiB, more than the 0.000977 GiB of "
                       "physical memory$"):
        pinched_matrix(space)
    space = CodedSpace(H, pinches=pinches, samples=np.linspace(0.0, 4.0, 179))
    assert pinched_matrix(space).shape == (179, 179)


def test_pinch_glue_examples():
    # gluing the two deep points at eps = 0 identifies them
    space = CodedSpace(H, pinches=((1.5, 3.5),), eps=0.0,
                       samples=[1.5, 3.5])
    m = pinched_matrix(space)
    assert m[0, 1] == 0.0
    # eps = 0.3 caps the shortcut at 0.3
    space = CodedSpace(H, pinches=((1.5, 3.5),), eps=0.3,
                       samples=[1.5, 3.5])
    assert pinched_matrix(space)[0, 1] == pytest.approx(0.3)
    # a shortcut longer than the tree path changes nothing
    space = CodedSpace(H, pinches=((1.5, 3.5),), eps=10.0,
                       samples=[1.5, 3.5])
    assert pinched_matrix(space)[0, 1] == pytest.approx(3.0)


def test_pinched_matrix_properties():
    rng = np.random.default_rng(7)
    samples = rng.uniform(0.0, 4.0, size=8)
    space = CodedSpace(H, pinches=((0.5, 2.5), (1.2, 3.8)), eps=0.4,
                       samples=samples)
    m = pinched_matrix(space)
    tre = np.array([[tree_distance(H, a, b) for b in samples]
                    for a in samples])
    assert np.all(m <= tre + 1e-12)              # shortcuts only shrink
    assert m == pytest.approx(m.T)
    assert np.all(np.diag(m) == 0.0)
    # triangle inequality over all sample triples
    for i in range(8):
        for j in range(8):
            for k in range(8):
                assert m[i, j] <= m[i, k] + m[k, j] + 1e-12


def test_pinch_endpoints_within_eps():
    space = CodedSpace(H, pinches=((0.5, 2.5),), eps=0.4,
                       samples=[0.5, 2.5])
    m = pinched_matrix(space)
    assert m[0, 1] <= 0.4 + 1e-12


def test_coded_space_validation():
    with pytest.raises(ValueError, match="eps"):
        CodedSpace(H, eps=-1.0)
    with pytest.raises(ValueError, match="eps"):
        CodedSpace(H, eps=float("nan"))
    with pytest.raises(ValueError, match="domain"):
        CodedSpace(H, pinches=((0.5, 9.0),))
    with pytest.raises(ValueError, match="domain"):
        CodedSpace(H, pinches=((2.0, 1.0),))
    for bad in ([0.5, 9.0], [0.5, float("nan")], [-0.5], [float("inf")]):
        with pytest.raises(ValueError, match="sample outside"):
            CodedSpace(H, samples=bad)
    space = CodedSpace(H, eps=float("inf"), samples=[0.0, 4.0])
    assert space.eps == float("inf")


def test_coded_space_keeps_pinches_from_any_iterable():
    # validation and storage share one pass over an iterator
    want = ((0.5, 2.5), (1.0, 3.0))
    for pinches in (zip([0.5, 1.0], [2.5, 3.0]), (p for p in want),
                    iter([[0.5, 2.5], [1, 3]])):
        space = CodedSpace(H, pinches=pinches, eps=1.0)
        assert space.pinches == want
        assert all(type(x) is float for p in space.pinches for x in p)
    with pytest.raises(ValueError, match="domain"):
        CodedSpace(H, pinches=(p for p in ((0.5, 9.0),)))


def _reference_pinched_matrix(space):
    """The O(N^2) Python-loop tree matrix and the min-plus closure over all
    N points that pinched_matrix replaced."""
    m = space.samples.size
    endpoints = [x for st in space.pinches for x in st]
    pts = np.concatenate((space.samples, np.asarray(endpoints, dtype=float)))
    n = pts.size
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = tree_distance(space.h, float(pts[i]),
                                              float(pts[j]))
    for i, (s, t) in enumerate(space.pinches):
        a, b = m + 2 * i, m + 2 * i + 1
        cut = min(space.eps, tree_distance(space.h, s, t))
        d[a, b] = d[b, a] = min(d[a, b], cut)
    if space.pinches:
        for k in range(n):
            d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d[:m, :m]


def _random_space(rng, dyadic):
    """Nonnegative step function with samples and pinches on its domain;
    dyadic inputs put breakpoints on a 1/8 grid, values and eps on a 1/64
    grid, and draw points from the breakpoints, the grid and each other."""
    b = int(rng.integers(1, 30))
    if dyadic:
        times = np.unique(rng.integers(1, 200, size=b)) / 8.0
        values = rng.integers(0, 512, size=times.size + 1) / 64.0
        eps = float(rng.integers(0, 128)) / 64.0
    else:
        times = np.unique(rng.uniform(0.0, 25.0, size=b))
        values = rng.uniform(0.0, 5.0, size=times.size + 1)
        eps = float(rng.uniform(0.0, 2.0))
    times = np.concatenate(([0.0], times))
    h = StepFunction(times, values)
    zeta = float(times[-1])
    pool = np.concatenate((times, rng.integers(0, 8 * int(zeta) + 1,
                                               size=20) / 8.0))
    pool = pool[pool <= zeta]
    pts = rng.choice(pool, size=60) if dyadic else np.concatenate(
        (rng.choice(times, size=20), rng.uniform(0.0, zeta, size=40)))
    m, p = int(rng.integers(0, 30)), int(rng.integers(0, 8))
    samples = rng.choice(pts, size=m)
    pinches = [tuple(sorted(rng.choice(pts, size=2))) for _ in range(p)]
    return CodedSpace(h, pinches=pinches, eps=eps, samples=samples)


def test_pinched_matrix_equals_reference_on_integer_traces():
    # criterion 3 shape: LIFO height functions are integer valued, eps = 1
    rng = np.random.default_rng(3)
    for r in range(40):
        n = int(rng.integers(2, 51))
        w = WeightSeq(np.sort(rng.uniform(0.5, 3.0, size=n))[::-1])
        trace = simulate_lifo(w, rng_seed=np.random.SeedSequence([30, r]))
        pinches = sample_pinches(trace,
                                 rng_seed=np.random.SeedSequence([31, r]))
        space = CodedSpace(trace.H, pinches=tuple(zip(pinches.s, pinches.t)),
                           eps=1.0, samples=trace.arrival[1:])
        assert np.array_equal(pinched_matrix(space),
                              _reference_pinched_matrix(space)), r


def test_pinched_matrix_equals_reference_on_dyadic_inputs():
    rng = np.random.default_rng(5)
    for r in range(150):
        space = _random_space(rng, dyadic=True)
        assert np.array_equal(pinched_matrix(space),
                              _reference_pinched_matrix(space)), r


@pytest.mark.parametrize("w, seeds", [
    (WeightSeq(np.ones(3000)), range(10)),
    # 34-62 pinches in the largest busy period
    (gen_powerlaw_triple(500, 2.5).weights, range(3)),
], ids=["unit3000", "powerlaw500"])
def test_component_metric_read_off_the_coding(w, seeds):
    # the largest busy period is a component of the assembled graph; its
    # members' arrival times in H, pinched by the pinches that fall
    # inside it at eps = 1, give its hop counts exactly
    for seed in seeds:
        trace = simulate_lifo(w, rng_seed=seed)
        pinches = sample_pinches(trace, rng_seed=seed)
        _, _, members = max(trace.busy_periods, key=lambda b: b[1])
        root, vertices = members[0], np.sort(members)
        inside = ((trace.arrival[root] <= pinches.t)
                  & (pinches.t <= trace.departure[root]))
        space = CodedSpace(trace.H, eps=1.0, samples=trace.arrival[vertices],
                           pinches=tuple(zip(pinches.s[inside],
                                             pinches.t[inside])))
        comp = next(c for c in connected_components(
            assemble_graph(trace, pinches)) if c.root == vertices[0])
        assert comp.vertices == tuple(vertices.tolist()), seed
        assert np.array_equal(pinched_matrix(space),
                              graph_distances(comp)), seed


def test_pinched_matrix_within_ulp_bound_of_reference():
    # Both are float sums along paths over the same edge weights, so they
    # differ only where rounding makes a sample a shortcut for the
    # reference (CHANGES.md derives the bound): never below the reference,
    # and at most (N + 2p) * 2^-52 * (ref + 4 max h) above it
    rng = np.random.default_rng(9)
    differed = 0
    for r in range(150):
        space = _random_space(rng, dyadic=False)
        new, ref = pinched_matrix(space), _reference_pinched_matrix(space)
        p = len(space.pinches)
        n = space.samples.size + 2 * p
        bound = (n + 2 * p) * 2.0 ** -52 * (ref + 4.0 * space.h.values.max())
        assert np.all(new >= ref) and np.all(new - ref <= bound), r
        differed += not np.array_equal(new, ref)
    assert differed > 0     # the inputs do exercise rounding


def test_pinched_matrix_edge_cases():
    assert pinched_matrix(CodedSpace(H)).shape == (0, 0)
    assert pinched_matrix(CodedSpace(H, pinches=((0.5, 3.5),))).shape \
        == (0, 0)
    assert pinched_matrix(CodedSpace(H, samples=[2.5])).tolist() == [[0.0]]
    # repeated samples and samples on breakpoints, the domain ends and
    # pinch endpoints: identical rows, distance 0 between copies
    samples = [1.0, 1.5, 1.0, 0.0, 4.0, 3.5, 3.0]
    tree = np.array([[tree_distance(H, a, b) for b in samples]
                     for a in samples])
    assert np.array_equal(pinched_matrix(CodedSpace(H, samples=samples)),
                          tree)
    # eps = inf and a pinch with s == t leave the tree metric alone
    for pinches, eps in ((((1.5, 3.5),), float("inf")),
                         (((1.5, 1.5), (3.5, 3.5)), 0.0)):
        space = CodedSpace(H, pinches=pinches, eps=eps, samples=samples)
        assert np.array_equal(pinched_matrix(space), tree)
    # eps = 0 identifies 1.5 with 3.5, and so the steps of H they lie on:
    # distance 0 between them, shortcuts through them where shorter
    space = CodedSpace(H, pinches=((1.5, 3.5),), eps=0.0, samples=samples)
    m = pinched_matrix(space)
    assert m[1, 5] == m[1, 6] == m[0, 5] == 0.0
    assert m[3, 5] == 1.0 < tree[3, 5] == 2.0     # 0.0 -> 1.5 ~ 3.5
    assert m[4, 1] == tree[4, 1] == 2.0           # the glue is no shorter
    assert np.array_equal(m, _reference_pinched_matrix(space))
    assert np.array_equal(m, m.T)


def test_pinched_matrix_memory_is_quadratic():
    # no N x N x N intermediate: 600 points would need 1.7 GB for one
    rng = np.random.default_rng(2)
    times = np.arange(0.0, 500.0)
    h = StepFunction(times, rng.integers(0, 50, size=times.size) / 1.0)
    space = CodedSpace(h, pinches=((10.5, 400.5), (20.5, 300.5),
                                   (0.0, 499.0)),
                       eps=0.5, samples=rng.uniform(0.0, 499.0, size=594))
    tracemalloc.start()
    try:
        pinched_matrix(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 600 * 600 * 8


def test_ghp_bound_examples():
    z = StepFunction([0.0, 4.0], [0.0, 0.0])
    # identical spaces with no pinches at delta = 0: the bound vanishes
    assert ghp_upper_bound(H, H, (), (), 0.0, 0.0, 0.0) == 0.0
    # one pinch pair, eps = 1, identical codings, delta = 0: 3*p*eps = 3
    assert ghp_upper_bound(H, H, ((1.0, 2.0),), ((1.0, 2.0),),
                           1.0, 1.0, 0.0) == pytest.approx(3.0)
    # sup distance 0.1, no pinches: 6*(0+1)*0.1 = 0.6
    h2 = StepFunction(H.times, H.values + 0.1)
    assert ghp_upper_bound(H, h2, (), (), 0.0, 0.0, 0.0) == pytest.approx(0.6)
    # domain length mismatch enters additively
    assert ghp_upper_bound(H, z, (), (), 0.0, 0.0, 0.0) >= 0.0


def test_ghp_bound_dominates_length_gap_and_grows_with_eps():
    short = StepFunction([0.0, 2.0], [1.0, 0.0])
    val = ghp_upper_bound(H, short, (), (), 0.0, 0.0, 0.0)
    assert val >= abs(4.0 - 2.0)
    lo = ghp_upper_bound(H, H, ((1.0, 2.0),), ((1.0, 2.0),), 0.1, 0.1, 0.0)
    hi = ghp_upper_bound(H, H, ((1.0, 2.0),), ((1.0, 2.0),), 0.5, 0.2, 0.0)
    assert hi > lo


def test_ghp_bound_rejects_mismatched_pinches():
    with pytest.raises(ValueError, match="pinch counts"):
        ghp_upper_bound(H, H, ((1.0, 2.0),), (), 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="more than delta"):
        ghp_upper_bound(H, H, ((1.0, 2.0),), ((1.0, 3.0),), 0.0, 0.0, 0.1)


def test_write_matrix_csv(tmp_path):
    space = CodedSpace(H, samples=[0.5, 1.5])
    m = pinched_matrix(space)
    out = tmp_path / "matrix.csv"
    write_matrix_csv(space, m, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,0.5,1.5"
    assert lines[1] == "0.5,0.0,1.0"
