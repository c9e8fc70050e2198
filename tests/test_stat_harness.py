import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

import wmgraph
from wmgraph import (
    EdgeCompareReport,
    WeightSeq,
    chi_square_gof,
    edge_marginal_compare,
    ks_two_sample,
)
from wmgraph.direct_graph import edge_probability
from wmgraph.stat_harness import (FAMILY_LEVEL, _binomial_p_min, _chi2_sf,
                                  _edge_tally, _fold_hits, _hist_compare)

# the suite's two levels: the family level of the edge certificate, and
# the per-seed level of criterion 4's chi-square tests
VERDICT_LEVELS = (FAMILY_LEVEL, 1e-3)


def _assert_close_same_verdicts(p, want, rel):
    """p within ``rel`` of the scipy reference ``want`` (a subnormal tail
    within the least normal float), with equal verdicts at every level."""
    assert math.isclose(p, want, rel_tol=rel,
                        abs_tol=sys.float_info.min), (p, want)
    assert [p > a for a in VERDICT_LEVELS] == \
        [want > a for a in VERDICT_LEVELS]


def test_chi_square_matches_scipy_without_merging():
    counts = np.array([52.0, 48.0, 95.0, 105.0])
    probs = np.array([0.15, 0.15, 0.35, 0.35])
    stat, p = chi_square_gof(counts, probs)
    ref = stats.chisquare(counts, counts.sum() * probs)
    assert stat == pytest.approx(ref.statistic)
    assert p == pytest.approx(ref.pvalue)


def test_chi_square_merges_small_cells():
    # expected counts 90, 9, 1: both small cells pool into one of size 10
    counts = np.array([88.0, 9.0, 3.0])
    probs = np.array([0.90, 0.09, 0.01])
    stat, p = chi_square_gof(counts, probs)
    ref = stats.chisquare([88.0, 12.0], [90.0, 10.0])
    assert stat == pytest.approx(ref.statistic)
    assert p == pytest.approx(ref.pvalue)


def test_chi_square_pool_falls_back_to_smallest_cell():
    # expected 96, 3, 1: the pool (4) still falls short and merges into
    # the only other cell
    counts = np.array([95.0, 4.0, 1.0])
    probs = np.array([0.96, 0.03, 0.01])
    with pytest.raises(ValueError, match="degenerate"):
        chi_square_gof(counts, probs)
    # with two large cells the pool lands in the smaller of them
    counts = np.array([60.0, 36.0, 3.0, 1.0])
    probs = np.array([0.60, 0.36, 0.03, 0.01])
    stat, _ = chi_square_gof(counts, probs)
    ref = stats.chisquare([60.0, 40.0], [60.0, 40.0])
    assert stat == pytest.approx(ref.statistic)


def test_chi_square_p_matches_chi2_sf_within_1e_12():
    # every expected count is at least 5, so no cells merge and the
    # statistic has k - 1 degrees of freedom
    rng = np.random.default_rng(11)
    for _ in range(400):
        k = int(rng.integers(2, 40))
        probs = 0.5 + rng.random(k)
        probs /= probs.sum()
        total = int(rng.integers(15 * k, 5000))
        drift = rng.dirichlet(np.ones(k)) * rng.choice([0.0, 0.1, 1.0])
        counts = rng.multinomial(total, (probs + drift) / (1.0 + drift.sum()))
        stat, p = chi_square_gof(counts, probs)
        _assert_close_same_verdicts(p, float(stats.chi2.sf(stat, k - 1)),
                                    1e-12)
    # the series itself, over dof k = 1-59, 100, 300 and 1000 and
    # statistics uniform on [0, 3k + 30]
    for k in [*range(1, 60), 100, 300, 1000]:
        for x in rng.uniform(0.0, 3 * k + 30, 60):
            assert math.isclose(_chi2_sf(k, x), special.chdtrc(k, x),
                                rel_tol=1e-12, abs_tol=sys.float_info.min)
    assert _chi2_sf(7, 0.0) == 1.0 and _chi2_sf(7, math.inf) == 0.0
    # a NaN statistic is a NaN p-value, never a pass
    assert math.isnan(_chi2_sf(7, math.nan))
    assert math.isnan(chi_square_gof([np.nan, 50.0], [0.5, 0.5])[1])


def test_chi_square_validation():
    with pytest.raises(ValueError, match="align"):
        chi_square_gof([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="sum to 1"):
        chi_square_gof([10.0, 10.0], [0.5, 0.4])


def test_ks_two_sample():
    rng = np.random.default_rng(0)
    a = rng.normal(size=400)
    b = rng.normal(size=400)
    c = rng.normal(loc=1.0, size=400)
    _, p_same = ks_two_sample(a, b)
    _, p_diff = ks_two_sample(a, c)
    assert p_same > 0.01
    assert p_diff < 1e-6
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


def _report_json(rep, tmp_path):
    rep.write_json(tmp_path / "compare.json")
    return json.loads((tmp_path / "compare.json").read_text())


def test_edge_marginal_compare_small(tmp_path):
    rep = edge_marginal_compare(WeightSeq([2.0, 1.0, 1.0]), replicas=3000,
                                seed=0)
    assert rep.passed
    assert rep.marginals_pass
    assert rep.joint_pass is not None            # 3 clients: joint test runs
    for freq in (rep.freq_direct, rep.freq_lifo):
        assert np.all(np.abs(freq - rep.edge_probs) <= rep.band_4sigma)
    d = _report_json(rep, tmp_path)
    assert d["passed"] is True
    assert len(d["edge_probs"]) == 3


def test_edge_marginal_compare_deterministic():
    a = edge_marginal_compare(WeightSeq([1.0, 1.0]), replicas=500, seed=5)
    b = edge_marginal_compare(WeightSeq([1.0, 1.0]), replicas=500, seed=5)
    assert a.freq_direct.tolist() == b.freq_direct.tolist()
    assert a.freq_lifo.tolist() == b.freq_lifo.tolist()


def test_familywise_verdict_on_many_pairs(tmp_path):
    # 44,850 pairs: a few frequencies of two exact samplers fall outside
    # their own 4-sigma bands, while Holm's control over all 89,700 exact
    # binomial tests finds nothing
    w = WeightSeq(2.0 ** -np.floor(np.arange(300) / 100))
    rep = edge_marginal_compare(w, replicas=300, seed=0)
    assert not rep.marginals_pass
    assert rep.marginals_familywise_pass and rep.marginals_holm_p > 0.01
    assert rep.passed
    d = _report_json(rep, tmp_path)
    assert d["marginals_holm_p"] == rep.marginals_holm_p
    assert d["marginals_familywise_pass"] is True


def test_familywise_verdict_is_exact_and_rejects_a_wrong_target(monkeypatch):
    rep = edge_marginal_compare(WeightSeq([1.0, 1.0]), replicas=400, seed=3)
    hits = np.round(np.concatenate((rep.freq_direct, rep.freq_lifo)) * 400)
    p = np.tile(rep.edge_probs, 2)
    tail = np.minimum(stats.binom.cdf(hits, 400, p),
                      stats.binom.sf(hits - 1, 400, p)).min()
    # two tests, each p-value twice the smaller tail
    assert rep.marginals_holm_p == pytest.approx(2 * 2 * tail, rel=1e-9)
    assert 0.01 < rep.marginals_holm_p < 1
    # the same samplers against targets 20% too high
    monkeypatch.setattr("wmgraph.stat_harness.edge_probability",
                        lambda x: 1.2 * edge_probability(x))
    bad = edge_marginal_compare(WeightSeq([2.0, 1.0, 1.0]), replicas=3000,
                                seed=0)
    assert bad.marginals_holm_p < 1e-3
    assert not bad.marginals_familywise_pass and not bad.passed


@pytest.mark.parametrize("replicas", [0, -1])
def test_edge_marginal_compare_needs_a_replica(replicas):
    with pytest.raises(ValueError, match="replicas must be at least 1"):
        edge_marginal_compare(WeightSeq([2.0, 1.0, 1.0]), replicas=replicas)


@pytest.mark.parametrize("w,replicas", [([1.0], 50), ([1.0, 1.0], 400),
                                        ([2.0, 1.0, 1.0], 1)])
def test_edge_marginal_compare_edge_cases(tmp_path, w, replicas):
    rep = edge_marginal_compare(WeightSeq(w), replicas=replicas, seed=3)
    pairs = len(w) * (len(w) - 1) // 2
    assert rep.edge_probs.shape == rep.freq_lifo.shape == (pairs,)
    assert rep.passed and rep.joint_pass
    assert _report_json(rep, tmp_path)["passed"] is True
    if pairs == 0:
        assert rep.marginals_holm_p == rep.count_hist_p == 1.0


def _report(n, rng):
    """A report on n vertices with random columns, NaN and +-inf among
    them."""
    pairs = n * (n - 1) // 2
    cols = [rng.random(pairs) for _ in range(4)]
    for col in cols:
        if pairs:
            col[rng.integers(0, pairs, size=3)] = [np.nan, np.inf, -np.inf]
    return EdgeCompareReport(
        replicas=7, seed=3, edge_probs=cols[0],
        freq_direct=cols[1], freq_lifo=cols[2], band_4sigma=cols[3],
        marginals_pass=False, marginals_holm_p=float(rng.random()),
        marginals_familywise_pass=True, count_hist_p=np.nan,
        count_hist_pass=False, joint_p=None if n > 5 else np.inf,
        joint_pass=None if n > 5 else True)


@pytest.mark.parametrize("block", [None, 1, 7])
def test_report_json_equals_the_json_module(tmp_path, monkeypatch, block):
    if block is not None:   # several blocks per column
        monkeypatch.setattr("wmgraph.stat_harness._BLOCK_CELLS", block)
    rng = np.random.default_rng(block or 0)
    for n in (1, 2, 60):
        rep = _report(n, rng)
        rep.write_json(tmp_path / "compare.json")
        with open(tmp_path / "want.json", "w") as fh:
            json.dump(rep._fields(), fh, indent=2, default=np.ndarray.tolist)
        got = (tmp_path / "compare.json").read_bytes()
        assert got == (tmp_path / "want.json").read_bytes()
        assert (b"NaN" in got) and (n == 1 or b"-Infinity" in got)


def test_edge_tally_counts_and_codes():
    # two replicas of 3 vertices; vertex r*3 + j is vertex j of replica r
    hits, counts, codes = _edge_tally(3, 2, [(1, 2), (2, 3), (4, 6)])
    assert hits.tolist() == [1, 1, 1]   # pairs 1-2, 1-3, 2-3
    assert counts.tolist() == [2, 1]
    assert codes.tolist() == [0b101, 0b010]
    with pytest.raises(ValueError, match="two replicas"):
        _edge_tally(3, 2, [(3, 4)])


def _reference_hist_compare(x, y):
    """The harness's contingency test before it computed the statistic
    itself: one scan per cell value and ``stats.chi2_contingency``."""
    values = np.union1d(np.unique(x), np.unique(y))
    cx = np.asarray([(x == v).sum() for v in values], dtype=float)
    cy = np.asarray([(y == v).sum() for v in values], dtype=float)
    while True:
        tot = cx + cy
        exp_min = tot.min() * min(cx.sum(), cy.sum()) / (cx.sum() + cy.sum())
        if exp_min >= 5 or tot.size <= 2:
            break
        i = int(np.argmin(tot))
        j = i + 1 if i + 1 < tot.size else i - 1
        cx[j] += cx[i]
        cy[j] += cy[i]
        cx = np.delete(cx, i)
        cy = np.delete(cy, i)
    table = np.vstack((cx, cy))
    table = table[:, table.sum(axis=0) > 0]
    if table.shape[1] < 2:
        return 1.0
    return float(stats.chi2_contingency(table).pvalue)


@pytest.mark.parametrize("seed", range(6))
def test_hist_compare_equals_chi2_contingency(seed):
    rng = np.random.default_rng(seed)
    dofs = set()
    for _ in range(60):
        support = int(rng.choice([1, 2, 3, 8, 40, 1 << 10]))
        nx, ny = rng.integers(1, 400, size=2)
        p = rng.dirichlet(np.ones(support))
        x = rng.choice(support, size=nx, p=p)
        y = rng.choice(support, size=ny, p=np.roll(p, int(rng.integers(0, 2))))
        if support == 1 << 10:      # sparse codes, as in the joint test
            x, y = x * 37 + 5, y * 37 + 5
        _assert_close_same_verdicts(_hist_compare(x, y),
                                    _reference_hist_compare(x, y), 1e-12)
        dofs.add(np.union1d(x, y).size)
    # single-cell tables (p = 1) and two-cell tables (Yates) occur
    assert 1 in dofs and 2 in dofs


def test_hist_compare_pools_two_by_two_tables_with_yates():
    x = np.array([0] * 30 + [1] * 2)
    y = np.array([0] * 20 + [1] * 12)
    want = stats.chi2_contingency([[30, 2], [20, 12]], correction=True).pvalue
    _assert_close_same_verdicts(_hist_compare(x, y), want, 1e-12)
    # small samples pool down to two cells; a single value is one cell
    _assert_close_same_verdicts(
        _hist_compare(np.array([3, 3, 4]), np.array([5])),
        _reference_hist_compare(np.array([3, 3, 4]), np.array([5])), 1e-12)
    assert _hist_compare(np.array([7, 7]), np.array([7])) == 1.0


def _reference_binomial_p_min(hits, replicas, probs):
    """The smallest exact two-sided binomial p-value of the hit counts by
    scipy's tails, over every pair: twice the smaller tail, capped at 1."""
    lower = special.bdtr(hits, replicas, probs).min(initial=1.0)
    upper = special.bdtrc(hits - 1, replicas, probs).min(initial=1.0)
    return min(1.0, 2.0 * float(min(lower, upper)))


@pytest.mark.parametrize("replicas,rel,draws", [
    (1, 1e-14, 200), (20, 1e-14, 300), (100, 2e-13, 300),
    (20_000, 1e-10, 40)])
def test_binomial_p_min_matches_scipy(replicas, rel, draws):
    rng = np.random.default_rng(replicas)
    for _ in range(draws):
        n = int(rng.choice([1, 2, 6, 40]))       # n = 1: no pairs
        pairs = n * (n - 1) // 2
        probs = rng.random(pairs) ** rng.choice([1, 3, 10])
        probs[rng.random(pairs) < 0.05] = 1.0
        probs[rng.random(pairs) < 0.05] = 1e-12
        if rng.random() < 0.3:                   # a group of equal p
            probs[:pairs // 2] = probs[pairs // 2:pairs // 2 + 1]
        hits = rng.binomial(replicas, np.minimum(
            1.0, probs * rng.choice([1.0, 1.05, 1.2])))
        if rng.random() < 0.1:                   # a sure edge missed once
            hits[probs == 1.0] = replicas - 1
        extremes = np.full((2, replicas + 1), np.nan)
        for half in np.array_split(np.arange(pairs), 2):   # two sides
            _fold_hits(extremes, hits[half], probs[half])
        got = _binomial_p_min(extremes)
        want = _reference_binomial_p_min(hits, replicas, probs)
        _assert_close_same_verdicts(got, want, rel)
        # scipy's capped 1 and its 0 are ours exactly
        assert (got == 1.0 or want < 1.0) and (got == 0.0 or want > 0.0)


def test_package_import_leaves_scipy_stats_and_integrate_unloaded():
    # both cost about half a second to import; only ks_two_sample uses
    # scipy.stats, and the package uses no scipy.integrate
    paths = [str(Path(wmgraph.__file__).parents[1]),
             os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, wmgraph; print(sorted({'scipy.stats', "
         "'scipy.integrate'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("statement", [
    "import wmgraph",
    "import wmgraph.cli",
    "import wmgraph.cli; code = wmgraph.cli.main(['simulate', '--mode', "
    "'lifo', '--weights', sys.argv[1], '--out', sys.argv[2]]); "
    "assert code == 0, code",
    "import wmgraph.cli; code = wmgraph.cli.main(['compare', '--weights', "
    "sys.argv[1], '--replicas', '200', '--out', sys.argv[2]]); "
    "assert code == 0, code",
    "from wmgraph import check_regime, gen_er_triple; "
    "family = [gen_er_triple(n, 1.0 / n) for n in (10**3, 10**4, 10**5)]; "
    "check_regime(family, family[-1].declared_limit)",
])
def test_package_and_cli_load_no_scipy_submodule(tmp_path, statement):
    # any scipy submodule costs an import of wmgraph 0.2-0.5 s: only
    # ks_two_sample imports one (scipy.stats), where it is used
    weights = tmp_path / "w.json"
    weights.write_text('{"schema": 1, "w": [2, 1, 1]}')
    paths = [str(Path(wmgraph.__file__).parents[1]),
             os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    script = (f"import sys\n{statement}\n"
              "print(sorted(m for m in sys.modules "
              "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run(
        [sys.executable, "-c", script, str(weights), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"     # after compare's verdict
    if "simulate" in statement:
        assert (tmp_path / "out" / "components.csv").is_file()
    if "compare" in statement:
        assert (tmp_path / "out" / "compare.json").is_file()
