"""Statistical certification: chi-square, KS, and the two-construction
comparison of the edge-coin sampler against the queue-assembled graph."""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .direct_graph import _direct_edges, edge_probability
from .lifo_coder import (_arrival_times, _replica_trace, assemble_graph,
                         sample_pinches)
from .paths import _BLOCK_CELLS, _sorted_unique, _text_block
from .weights import WeightSeq

# per-family multiple-testing level
FAMILY_LEVEL = 1e-3


def _chi2_sf(dof: int, x: float) -> float:
    """P(X > x) for X chi-square with an integer ``dof`` >= 1: Q(dof/2,
    x/2) as the finite series of Abramowitz and Stegun 26.4.4-26.4.5,

        even dof: e^(-x/2) sum_{j < dof/2} (x/2)^j / j!,
        odd dof:  erfc(sqrt(x/2))
                  + e^(-x/2) sum_{j < (dof-1)/2} (x/2)^(j+1/2) / Gamma(j+3/2),

    each term exponentiated from its log and the positive terms summed by
    ``math.fsum``, so nothing cancels.  x = 0 gives 1; NaN (or a negative
    x) gives NaN, as scipy's ``chdtrc`` does, never a silent pass."""
    if not x > 0:
        return 1.0 if x == 0 else math.nan
    if x == math.inf:
        return 0.0
    h = 0.5 * x
    lh = math.log(h)
    s = 0.5 * (dof % 2)
    terms = [math.exp((j + s) * lh - h - math.lgamma(j + s + 1.0))
             for j in range(dof // 2)]
    if s:
        terms.append(math.erfc(math.sqrt(h)))
    return min(1.0, math.fsum(terms))


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
    return stat, _chi2_sf(dof, stat)


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
    replicas: int
    seed: int
    edge_probs: np.ndarray       # per-pair target probabilities
    freq_direct: np.ndarray
    freq_lifo: np.ndarray
    band_4sigma: np.ndarray      # 4-sigma binomial half-widths
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
        """The JSON keys and values: every field in declaration order, then
        ``passed``."""
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "passed": self.passed}

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


def _hist_compare(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample contingency chi-square over pooled small cells."""
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
    # the statistic of chi2_contingency(table), computed as it computes it
    expected = np.outer(table.sum(axis=1), tot) / table.sum()
    if tot.size == 2:   # Yates' correction
        diff = expected - table
        table = table + np.minimum(0.5, np.abs(diff)) * np.sign(diff)
    stat = ((table - expected) ** 2 / expected).sum()
    return _chi2_sf(tot.size - 1, float(stat))


def _fold_hits(extremes: np.ndarray, hits: np.ndarray,
               probs: np.ndarray) -> None:
    """Fold one side's per-pair hit counts into ``extremes``, of shape
    (2, replicas + 1) and NaN where no pair has that count: row 0 keeps,
    per hit count h, the largest target probability of a pair hit h
    times, row 1 the smallest."""
    np.fmax.at(extremes[0], hits, probs)
    np.fmin.at(extremes[1], hits, probs)


@functools.lru_cache(maxsize=4)
def _log_binomials(replicas: int):
    """The tables ``_binomial_p_min`` reads at R = ``replicas``: its
    window, 10 standard deviations of the widest binomial (sqrt(R)/2)
    plus 20 terms, at most R; log C(R, k) for k = -window..R + window from
    one ``math.lgamma`` table, -inf off 0..R; and the offsets of a lower
    (row 0) and an upper (row 1) tail's terms from the hit count, far end
    first.  Read-only, and cached: every replica of a certificate has
    the same R, and building them costs as much as the tails at
    certify's shape."""
    window = min(replicas, 20 + math.ceil(5.0 * math.sqrt(replicas)))
    lg = np.array(list(map(math.lgamma, range(1, replicas + 2))))
    lc = np.full(replicas + 1 + 2 * window, -np.inf)
    lc[window:window + replicas + 1] = lg[-1] - lg - lg[::-1]
    off = np.arange(window, -1, -1)
    offsets = np.stack((-off, off))
    lc.flags.writeable = offsets.flags.writeable = False
    return window, lc, offsets


def _binomial_p_min(extremes: np.ndarray) -> float:
    """Smallest exact two-sided binomial p-value of the pairs folded into
    ``extremes`` (``_fold_hits``), a p-value being twice the smaller of
    P(X <= h) and P(X >= h) for X ~ Bin(R, p), capped at 1 (1 for no
    pairs).

    Only the minimum is needed, so most tails are never evaluated:

    - Bin(R, p) grows stochastically in p, so among the pairs hit h
      times the largest p has the smallest P(X <= h) and the smallest p
      the smallest P(X >= h): at most R + 1 tails a side, row 0 and
      row 1 of ``extremes``, whatever the number of pairs;
    - a binomial's median is the floor or the ceiling of its mean R p
      (Kaas and Buhrman, Statist. Neerl. 34, 1980), so a tail that
      contains the mean is at least 1/2 and its capped p-value is 1.
      Only P(X <= h) with h < R p and P(X >= h) with h > R p are
      evaluated.

    Each of these sums its pmf terms from the far end over the window of
    ``_log_binomials``, beyond which the terms fall below 2^-53 of the
    sum.  The lgamma table's rounding leaves the result within about
    1e-10 relative of scipy's ``bdtr``/``bdtrc`` at R = 20,000 (1e-14 at
    R = 20).  A pair with p = 1 and h < R gives 0, as ``bdtr`` does."""
    replicas = extremes.shape[1] - 1
    # positive on the far side of the mean: R p - h in row 0, h - R p in
    # row 1 (NaN, no pair with h hits, compares false)
    far = np.arange(replicas + 1.0) - replicas * extremes
    far[0] *= -1.0
    side, hits = np.nonzero(far > 0)
    if not hits.size:
        return 1.0
    p = extremes[side, hits]
    window, lc, offsets = _log_binomials(replicas)
    k = hits[:, None] + offsets[side]
    # log 0 = -inf for p = 0 or 1: a term it reaches is exactly 0.  A row
    # of p = 0 has k >= 1 and one of p = 1 has k < R, so no 0 * -inf
    with np.errstate(divide="ignore"):
        lp, lq = np.log(p)[:, None], np.log1p(-p)[:, None]
    tails = np.exp(lc[k + window] + k * lp + (replicas - k) * lq).sum(axis=1)
    return min(1.0, 2.0 * float(tails.min()))


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
    # each side's hit counts are folded into the per-count extremes of
    # the binomial tests, turned into frequencies and dropped before the
    # other side is drawn: one count array at a time
    extremes = np.full((2, replicas + 1), np.nan)
    hits, counts_d, codes_d = _edge_tally(n, replicas, _direct_edges(
        w, np.random.SeedSequence([seed, 0]), replicas=replicas))
    _fold_hits(extremes, hits, probs)
    fd = hits / replicas
    del hits
    hits, counts_l, codes_l = _edge_tally(
        n, replicas, _queue_graph(w, replicas, seed).edges)
    _fold_hits(extremes, hits, probs)
    fl = hits / replicas
    del hits
    p_min = _binomial_p_min(extremes)

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
        replicas=replicas, seed=seed, edge_probs=probs, freq_direct=fd,
        freq_lifo=fl, band_4sigma=band, marginals_pass=marg,
        marginals_holm_p=holm_p,
        marginals_familywise_pass=bool(holm_p > FAMILY_LEVEL),
        count_hist_p=p_hist, count_hist_pass=bool(p_hist > FAMILY_LEVEL),
        joint_p=joint_p, joint_pass=joint_pass)
