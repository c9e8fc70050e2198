"""Statistical certification: chi-square, KS, and the two-construction
comparison of the edge-coin sampler against the queue-assembled graph."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .direct_graph import _direct_edges, edge_probability
from .lifo_coder import (_arrival_times, _replica_trace, assemble_graph,
                         sample_pinches)
from .paths import _BLOCK_CELLS, _sorted_unique, _text_block
from .weights import WeightSeq

# per-family multiple-testing level
FAMILY_LEVEL = 1e-3


def chi_square_gof(counts, probs):
    """Pearson goodness of fit with tail-cell merging.

    Cells with expected count below 5 are pooled into a single cell; if
    the pool still falls short it is merged with the smallest retained
    cell.  Returns (statistic, p_value)."""
    # scipy.special is imported where it is used, as is scipy.stats:
    # either costs ``import wmgraph`` about 0.3 s
    from scipy import special

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
    marginals_pass: bool         # every frequency within its band
    marginals_holm_p: float      # smallest Holm-adjusted exact binomial p
    marginals_familywise_pass: bool
    count_hist_p: float
    count_hist_pass: bool
    joint_p: float | None        # full graph-distribution test, j_max <= 5
    joint_pass: bool | None

    @property
    def passed(self) -> bool:
        return (self.marginals_familywise_pass and self.count_hist_pass
                and self.joint_pass is not False)

    def _fields(self) -> dict:
        return {
            "replicas": self.replicas, "seed": self.seed,
            "edge_probs": self.edge_probs, "freq_direct": self.freq_direct,
            "freq_lifo": self.freq_lifo, "band_4sigma": self.band,
            "marginals_pass": self.marginals_pass,
            "marginals_holm_p": self.marginals_holm_p,
            "marginals_familywise_pass": self.marginals_familywise_pass,
            "count_hist_p": self.count_hist_p,
            "count_hist_pass": self.count_hist_pass,
            "joint_p": self.joint_p, "joint_pass": self.joint_pass,
            "passed": self.passed,
        }

    def write_json(self, path):
        """The report as ``json.dump(..., indent=2)`` writes it, byte for
        byte, with each per-pair array encoded a block of floats at a time
        by the result-file encoder (``paths._text_block``); a float it
        leaves is spelled by ``json.dumps``, so NaN and Infinity too."""
        with open(path, "wb") as fh:
            for i, (key, value) in enumerate(self._fields().items()):
                fh.write(f"{',' if i else '{'}\n  {json.dumps(key)}: ".encode())
                if not isinstance(value, np.ndarray):
                    fh.write(json.dumps(value).encode())
                    continue
                for a in range(0, value.size, _BLOCK_CELLS):
                    cells = _text_block([value[a:a + _BLOCK_CELLS]],
                                        b",\n    ", json.dumps)
                    fh.write((b"," if a else b"[") + b"\n    " + cells[:-6])
                fh.write(b"\n  ]" if value.size else b"[]")
            fh.write(b"\n}")

    def summary_lines(self):
        """The text summary one line at a time: a row per pair, then the
        verdicts.  The columns are read as Python floats a block at a
        time."""
        yield f"{'pair':>8} {'target':>10} {'direct':>10} {'lifo':>10} {'band':>10}"
        n = self.w.size
        pairs = ((i, j) for i in range(1, n) for j in range(i + 1, n + 1))
        cols = (self.edge_probs, self.freq_direct, self.freq_lifo, self.band)
        for a in range(0, self.edge_probs.size, _BLOCK_CELLS):
            # pairs last: zip stops on the block before drawing a pair
            for p, fd, fl, b, (i, j) in zip(
                    *(c[a:a + _BLOCK_CELLS].tolist() for c in cols), pairs):
                yield (f"{f'{i}-{j}':>8} {p:>10.6f} {fd:>10.6f} {fl:>10.6f} "
                       f"{b:>10.6f}")
        yield (f"marginals_pass={self.marginals_pass} "
               f"marginals_holm_p={self.marginals_holm_p:.5g} "
               f"count_hist_p={self.count_hist_p:.5f} "
               f"joint_p={self.joint_p}")


def _hist_compare(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample contingency chi-square over pooled small cells."""
    from scipy import special

    both = np.concatenate((x, y))
    cell = _sorted_unique(both).searchsorted(both)
    # pool cells until every expected count is at least 5, on exact ints
    rows = [np.bincount(c, minlength=cell.max() + 1).tolist()
            for c in (cell[:x.size], cell[x.size:])]
    tot = [a + b for a, b in zip(*rows)]
    while min(tot) * min(x.size, y.size) / both.size < 5 and len(tot) > 2:
        i = tot.index(min(tot))
        j = i + 1 if i + 1 < len(tot) else i - 1
        for c in (tot, *rows):
            c[j] += c[i]
            del c[i]
    if len(tot) < 2:
        return 1.0      # no degree of freedom
    table, tot = np.array(rows, dtype=float), np.array(tot, dtype=float)
    # chi2_contingency(table).pvalue, computed as it computes it
    expected = np.outer(table.sum(axis=1), tot) / table.sum()
    if tot.size == 2:   # Yates' correction
        diff = expected - table
        table = table + np.minimum(0.5, np.abs(diff)) * np.sign(diff)
    stat = ((table - expected) ** 2 / expected).sum()
    return float(special.chdtrc(tot.size - 1, stat))


def _binomial_p_min(hits: np.ndarray, replicas: int,
                    probs: np.ndarray) -> float:
    """Smallest exact two-sided binomial p-value of the hit counts, a
    p-value being twice the smaller tail, capped at 1 (1 for no
    counts)."""
    from scipy import special

    lower = special.bdtr(hits, replicas, probs).min(initial=1.0)
    upper = special.bdtrc(hits - 1, replicas, probs).min(initial=1.0)
    return min(1.0, 2.0 * float(min(lower, upper)))


def _within(freq: np.ndarray, probs: np.ndarray, band: np.ndarray) -> bool:
    """Every |freq - probs| <= band, with one temporary."""
    dev = freq - probs
    np.abs(dev, out=dev)
    return bool((dev <= band).all())


def _edge_tally(n: int, replicas: int, edges):
    """Per-pair hit counts, per-replica edge counts and, for n <= 5,
    per-replica graph codes (bit k set when pair k is an edge) of
    ``replicas`` graphs on n vertices, given as the edges of one graph
    whose vertex r*n + j is vertex j of replica r.  Pairs are numbered in
    ``np.triu_indices`` order."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2) - 1
    rep = e[:, 0] // n
    if (e[:, 1] // n != rep).any():
        raise ValueError("an edge joins two replicas")
    u, v = e.T % n
    k = u * (2 * n - u - 1) // 2 + (v - u - 1)
    hits = np.bincount(k, minlength=n * (n - 1) // 2)
    counts = np.bincount(rep, minlength=replicas)
    codes = None
    if n <= 5:   # codes below 2**10, exact in the float weights
        codes = np.bincount(rep, weights=np.left_shift(1, k),
                            minlength=replicas).astype(np.int64)
    return hits, counts, codes


def _queue_graph(w: WeightSeq, replicas: int, seed: int):
    """The queue's graphs of ``replicas`` replicas from one replay
    (``_replica_trace``), as one graph whose vertex r*n + j is vertex j
    of replica r.  The arrivals come from SeedSequence([seed, 1]), the
    pinches from SeedSequence([seed, 2])."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    trace = _replica_trace(w, _arrival_times(w, rng, (replicas, w.j_max)))
    return assemble_graph(trace, sample_pinches(
        trace, rng_seed=np.random.SeedSequence([seed, 2])))


def edge_marginal_compare(w: WeightSeq, replicas: int = 20000,
                          seed: int = 0) -> EdgeCompareReport:
    """Run ``replicas`` of each construction and compare edge statistics.

    (a) every per-pair edge frequency, for both constructions, is tested
        against the target probability 1 - exp(-w_i*w_j/sigma_1) by its
        exact two-sided binomial p-value, with Holm's family-wise control
        at the family level over all 2*C(n, 2) tests; the older check,
        each frequency within 4 binomial standard deviations of its
        target, is kept as ``marginals_pass``;
    (b) the two total-edge-count histograms are compared by contingency
        chi-square at the family level;
    (c) for j_max <= 5, the full distributions over all graphs are
        compared the same way.

    Seeds: the direct side draws all its replicas in one call of the
    sampler from SeedSequence([seed, 0]), as one graph whose vertex
    r*n + j is vertex j of replica r; the queue side is ``_queue_graph``,
    on SeedSequence([seed, 1]) and SeedSequence([seed, 2]).  Memory is
    O(C(n, 2) + replicas) beside the edges.
    """
    if not replicas >= 1:
        raise ValueError(f"replicas must be at least 1, got {replicas!r}")
    n = w.j_max
    iu, iv = np.triu_indices(n, k=1)
    probs = edge_probability(w.w[iu] * w.w[iv] / w.sigma(1.0))
    del iu, iv    # 16 bytes a pair, held through the samplers otherwise
    # each side's hit counts are judged, turned into frequencies and
    # dropped before the other side is drawn: one count array at a time
    hits, counts_d, codes_d = _edge_tally(n, replicas, _direct_edges(
        w, np.random.SeedSequence([seed, 0]), replicas=replicas))
    p_min = _binomial_p_min(hits, replicas, probs)
    fd = hits / replicas
    del hits
    hits, counts_l, codes_l = _edge_tally(
        n, replicas, _queue_graph(w, replicas, seed).edges)
    p_min = min(p_min, _binomial_p_min(hits, replicas, probs))
    fl = hits / replicas
    del hits

    band = 1.0 - probs      # 4 sqrt(p (1 - p) / replicas), in place
    band *= probs
    band /= replicas
    np.sqrt(band, out=band)
    band *= 4.0
    marg = all(_within(f, probs, band) for f in (fd, fl))
    # Holm's first step is Bonferroni's: the smallest adjusted p-value is
    # the number of tests times the smallest p, and the family rejects
    # exactly when that is at most the level
    tests = 2 * probs.size
    holm_p = min(1.0, tests * p_min) if tests else 1.0
    p_hist = _hist_compare(counts_d, counts_l)
    joint_p = joint_pass = None
    if n <= 5:
        joint_p = _hist_compare(codes_d, codes_l)
        joint_pass = bool(joint_p > FAMILY_LEVEL)
    return EdgeCompareReport(
        w=w.w, replicas=replicas, seed=seed, edge_probs=np.atleast_1d(probs),
        freq_direct=np.atleast_1d(fd), freq_lifo=np.atleast_1d(fl),
        band=np.atleast_1d(band), marginals_pass=marg,
        marginals_holm_p=holm_p,
        marginals_familywise_pass=bool(holm_p > FAMILY_LEVEL),
        count_hist_p=p_hist, count_hist_pass=bool(p_hist > FAMILY_LEVEL),
        joint_p=joint_p, joint_pass=joint_pass)
