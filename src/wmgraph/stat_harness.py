"""Statistical certification: chi-square, KS, and the two-construction
comparison of the edge-coin sampler against the queue-assembled graph."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .direct_graph import edge_probability, sample_direct
from .lifo_coder import assemble_graph, sample_pinches, simulate_lifo
from .weights import WeightSeq

# per-family multiple-testing level
FAMILY_LEVEL = 1e-3


def chi_square_gof(counts, probs):
    """Pearson goodness of fit with tail-cell merging.

    Cells with expected count below 5 are pooled into a single cell; if
    the pool still falls short it is merged with the smallest retained
    cell.  Returns (statistic, p_value)."""
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if counts.shape != probs.shape:
        raise ValueError("counts and probs must align")
    if not math.isclose(float(probs.sum()), 1.0, rel_tol=0, abs_tol=1e-9):
        raise ValueError("probs must sum to 1")
    total = counts.sum()
    expected = total * probs
    small = expected < 5
    keep_c = list(counts[~small])
    keep_e = list(expected[~small])
    if small.any():
        keep_c.append(counts[small].sum())
        keep_e.append(expected[small].sum())
        if keep_e[-1] < 5 and len(keep_e) > 1:
            i = int(np.argmin(keep_e[:-1]))
            keep_c[i] += keep_c.pop()
            keep_e[i] += keep_e.pop()
    if len(keep_c) < 2:
        raise ValueError("degenerate single-cell input after merging")
    keep_c, keep_e = np.asarray(keep_c), np.asarray(keep_e)
    stat = float(((keep_c - keep_e) ** 2 / keep_e).sum())
    dof = len(keep_c) - 1
    return stat, float(special.chdtrc(dof, stat))


def ks_two_sample(a, b):
    """Two-sample Kolmogorov-Smirnov (asymptotic p-value)."""
    # imported here, the one use of scipy.stats: importing it costs about
    # 0.5 s and 25 MB
    from scipy.stats import ks_2samp

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    res = ks_2samp(a, b, method="asymp")
    return float(res.statistic), float(res.pvalue)


@dataclass(frozen=True)
class EdgeCompareReport:
    w: np.ndarray
    replicas: int
    seed: int
    edge_probs: np.ndarray       # per-pair target probabilities
    freq_direct: np.ndarray
    freq_lifo: np.ndarray
    band: np.ndarray             # 4-sigma binomial half-widths
    marginals_pass: bool
    count_hist_p: float
    count_hist_pass: bool
    joint_p: float | None        # full graph-distribution test, j_max <= 5
    joint_pass: bool | None

    @property
    def passed(self) -> bool:
        return (self.marginals_pass and self.count_hist_pass
                and self.joint_pass is not False)

    def to_json(self) -> str:
        d = {
            "replicas": self.replicas, "seed": self.seed,
            "edge_probs": list(map(float, self.edge_probs)),
            "freq_direct": list(map(float, self.freq_direct)),
            "freq_lifo": list(map(float, self.freq_lifo)),
            "band_4sigma": list(map(float, self.band)),
            "marginals_pass": self.marginals_pass,
            "count_hist_p": self.count_hist_p,
            "count_hist_pass": self.count_hist_pass,
            "joint_p": self.joint_p, "joint_pass": self.joint_pass,
            "passed": self.passed,
        }
        return json.dumps(d, indent=2)

    def summary(self) -> str:
        lines = [f"{'pair':>8} {'target':>10} {'direct':>10} {'lifo':>10} {'band':>10}"]
        pairs = zip(*np.triu_indices(self.w.size, 1))
        lines += [f"{f'{i + 1}-{j + 1}':>8} {self.edge_probs[k]:>10.6f} "
                  f"{self.freq_direct[k]:>10.6f} {self.freq_lifo[k]:>10.6f} "
                  f"{self.band[k]:>10.6f}" for k, (i, j) in enumerate(pairs)]
        lines.append(f"marginals_pass={self.marginals_pass} "
                     f"count_hist_p={self.count_hist_p:.5f} "
                     f"joint_p={self.joint_p}")
        return "\n".join(lines)


def _hist_compare(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample contingency chi-square over pooled small cells."""
    values, cell = np.unique(np.concatenate((x, y)), return_inverse=True)
    table = np.stack([np.bincount(c, minlength=values.size)
                      for c in (cell[:x.size], cell[x.size:])]).astype(float)
    # pool cells until every expected count is at least 5
    while True:
        tot = table.sum(axis=0)
        exp_min = tot.min() * table.sum(axis=1).min() / tot.sum()
        if exp_min >= 5 or tot.size <= 2:
            break
        i = int(np.argmin(tot))
        j = i + 1 if i + 1 < tot.size else i - 1
        table[:, j] += table[:, i]
        table = np.delete(table, i, axis=1)
    if tot.size < 2:
        return 1.0      # no degree of freedom
    # chi2_contingency(table).pvalue, computed as it computes it
    expected = np.outer(table.sum(axis=1), tot) / table.sum()
    if tot.size == 2:   # Yates' correction
        diff = expected - table
        table = table + np.minimum(0.5, np.abs(diff)) * np.sign(diff)
    stat = ((table - expected) ** 2 / expected).sum()
    return float(special.chdtrc(tot.size - 1, stat))


def edge_marginal_compare(w: WeightSeq, replicas: int = 20000,
                          seed: int = 0) -> EdgeCompareReport:
    """Run ``replicas`` of each construction and compare edge statistics.

    (a) every per-pair edge frequency, for both constructions, must lie
        within 4 binomial standard deviations of the target probability
        1 - exp(-w_i*w_j/sigma_1);
    (b) the two total-edge-count histograms are compared by contingency
        chi-square at the family level;
    (c) for j_max <= 5, the full distributions over all graphs are
        compared the same way.
    """
    n = w.j_max
    s1 = w.sigma(1.0)
    iu, iv = np.triu_indices(n, k=1)
    probs = edge_probability(w.w[iu] * w.w[iv] / s1, "exp")
    npairs = iu.size

    pair_index = {(int(iu[k]) + 1, int(iv[k]) + 1): k for k in range(npairs)}
    direct_ind = np.zeros((replicas, npairs), dtype=bool)
    lifo_ind = np.zeros((replicas, npairs), dtype=bool)
    for r in range(replicas):
        gd = sample_direct(w, rng_seed=np.random.SeedSequence([seed, 0, r]))
        trace = simulate_lifo(w, rng_seed=np.random.SeedSequence([seed, 1, r]))
        pinches = sample_pinches(trace, rng_seed=np.random.SeedSequence([seed, 2, r]))
        for ind, g in ((direct_ind, gd), (lifo_ind, assemble_graph(trace, pinches))):
            for u, v in g.edges:
                ind[r, pair_index[(u, v)]] = True

    fd = direct_ind.mean(axis=0)
    fl = lifo_ind.mean(axis=0)
    band = 4.0 * np.sqrt(probs * (1.0 - probs) / replicas)
    marg = bool(np.all(np.abs(fd - probs) <= band)
                and np.all(np.abs(fl - probs) <= band))
    p_hist = _hist_compare(direct_ind.sum(axis=1), lifo_ind.sum(axis=1))
    joint_p = joint_pass = None
    if n <= 5:
        weights2 = 1 << np.arange(npairs)
        joint_p = _hist_compare(direct_ind @ weights2, lifo_ind @ weights2)
        joint_pass = bool(joint_p > FAMILY_LEVEL)
    return EdgeCompareReport(
        w=w.w, replicas=replicas, seed=seed, edge_probs=np.atleast_1d(probs),
        freq_direct=np.atleast_1d(fd), freq_lifo=np.atleast_1d(fl),
        band=np.atleast_1d(band), marginals_pass=marg,
        count_hist_p=p_hist, count_hist_pass=bool(p_hist > FAMILY_LEVEL),
        joint_p=joint_p, joint_pass=joint_pass)
