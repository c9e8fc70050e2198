import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import wmgraph
from wmgraph import (
    EdgeCompareReport,
    WeightSeq,
    chi_square_gof,
    edge_marginal_compare,
    ks_two_sample,
)
from wmgraph.direct_graph import edge_probability
from wmgraph.stat_harness import _edge_tally, _hist_compare


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


def test_chi_square_p_equals_chi2_sf_bit_for_bit():
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
        assert p == float(stats.chi2.sf(stat, k - 1))


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
    assert np.all(np.abs(rep.freq_direct - rep.edge_probs) <= rep.band)
    assert np.all(np.abs(rep.freq_lifo - rep.edge_probs) <= rep.band)
    d = _report_json(rep, tmp_path)
    assert d["passed"] is True
    assert len(d["edge_probs"]) == 3
    text = "\n".join(rep.summary_lines())
    assert "1-2" in text and "marginals_pass=True" in text


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
    assert len(list(rep.summary_lines())) == pairs + 2
    if pairs == 0:
        assert rep.marginals_holm_p == rep.count_hist_p == 1.0


def _reference_summary_lines(rep):
    """The summary formatted from numpy scalars, kept as the reference."""
    yield f"{'pair':>8} {'target':>10} {'direct':>10} {'lifo':>10} {'band':>10}"
    n = rep.w.size
    pairs = ((i, j) for i in range(1, n) for j in range(i + 1, n + 1))
    for (i, j), p, fd, fl, b in zip(pairs, rep.edge_probs, rep.freq_direct,
                                    rep.freq_lifo, rep.band):
        yield (f"{f'{i}-{j}':>8} {p:>10.6f} {fd:>10.6f} {fl:>10.6f} "
               f"{b:>10.6f}")
    yield (f"marginals_pass={rep.marginals_pass} "
           f"marginals_holm_p={rep.marginals_holm_p:.5g} "
           f"count_hist_p={rep.count_hist_p:.5f} "
           f"joint_p={rep.joint_p}")


def _report(n, rng):
    """A report on n vertices with random columns, NaN and +-inf among
    them."""
    pairs = n * (n - 1) // 2
    cols = [rng.random(pairs) for _ in range(4)]
    for col in cols:
        if pairs:
            col[rng.integers(0, pairs, size=3)] = [np.nan, np.inf, -np.inf]
    return EdgeCompareReport(
        w=np.ones(n), replicas=7, seed=3, edge_probs=cols[0],
        freq_direct=cols[1], freq_lifo=cols[2], band=cols[3],
        marginals_pass=False, marginals_holm_p=float(rng.random()),
        marginals_familywise_pass=True, count_hist_p=np.nan,
        count_hist_pass=False, joint_p=None if n > 5 else np.inf,
        joint_pass=None if n > 5 else True)


@pytest.mark.parametrize("block", [None, 1, 7])
def test_report_json_and_summary_equal_the_json_module(tmp_path, monkeypatch,
                                                       block):
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
        assert list(rep.summary_lines()) == list(_reference_summary_lines(rep))


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
        assert _hist_compare(x, y) == _reference_hist_compare(x, y)
        dofs.add(np.union1d(x, y).size)
    # single-cell tables (p = 1) and two-cell tables (Yates) occur
    assert 1 in dofs and 2 in dofs


def test_hist_compare_pools_two_by_two_tables_with_yates():
    x = np.array([0] * 30 + [1] * 2)
    y = np.array([0] * 20 + [1] * 12)
    want = stats.chi2_contingency([[30, 2], [20, 12]], correction=True).pvalue
    assert _hist_compare(x, y) == want
    # small samples pool down to two cells; a single value is one cell
    assert _hist_compare(np.array([3, 3, 4]), np.array([5])) == \
        _reference_hist_compare(np.array([3, 3, 4]), np.array([5]))
    assert _hist_compare(np.array([7, 7]), np.array([7])) == 1.0


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
])
def test_package_and_cli_load_no_scipy_submodule(tmp_path, statement):
    # any of these costs an import of wmgraph about 0.3 s, so each is
    # imported where it is used
    weights = tmp_path / "w.json"
    weights.write_text('{"schema": 1, "w": [2, 1, 1]}')
    paths = [str(Path(wmgraph.__file__).parents[1]),
             os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    script = (f"import sys\n{statement}\n"
              "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
              "[['scipy', s] for s in ('sparse', 'special', 'stats', "
              "'integrate')]))")
    out = subprocess.run(
        [sys.executable, "-c", script, str(weights), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
    if "main" in statement:
        assert (tmp_path / "out" / "components.csv").is_file()
