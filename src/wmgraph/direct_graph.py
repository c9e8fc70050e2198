"""Direct sampler of the weight-multiplicative graph by independent edge coins.

Vertices 1..j carry weights w_1 >= ... >= w_j; the unordered pair {i, k}
is an edge independently with probability h(w_i*w_k/sigma_1), where
h(x) = 1 - e^{-x}.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .paths import _group_fsums, _id_tuple, _Rows, _runs, _write_csv
from .weights import WeightSeq


def h(x):
    """The edge law h(x) = 1 - e^{-x}, for a float or an array; the sampler
    and ``edge_probability`` look it up when called."""
    return -np.expm1(-x)


def edge_probability(x):
    """h(x), elementwise."""
    out = h(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class AssembledGraph:
    """Simple graph on vertices 1..n with per-vertex weights; compared by
    identity (eq=False), as a field-wise == on its arrays raises."""

    n: int
    weights: np.ndarray   # one per vertex
    edges: np.ndarray     # (m, 2) int64, rows u < v ascending; from pairs
    provenance: str       # "direct" or "lifo"
    n_self_loops_dropped: int = 0
    n_duplicates_dropped: int = 0

    def __post_init__(self):
        if np.shape(self.weights) != (self.n,):
            raise ValueError(f"need one weight per vertex, n = {self.n}")
        a = self.edges
        a = np.asarray(a if isinstance(a, np.ndarray) else list(a))
        a = np.empty((0, 2), np.int64) if a.shape == (0,) else a
        if a.ndim != 2 or a.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        if a.dtype.kind not in "biu":
            raise ValueError("edge endpoints must be integers")
        e = a.astype(np.int64)
        u, v = e[:, 0], e[:, 1]
        rises = (u[1:] > u[:-1]) | (u[1:] == u[:-1]) & (v[1:] > v[:-1])
        if not rises.all():   # sorted only when the pairs do not ascend
            e = e[np.lexsort((v, u))]   # as tuples sort
            u, v = e[:, 0], e[:, 1]
            rises = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
        ok = (1 <= u) & (u < v) & (v <= self.n)
        ok[1:] &= rises   # no repeats
        if not ok.all():
            raise ValueError("invalid edge ({}, {})".format(*e[ok.argmin()]))
        e.flags.writeable = False   # the graph's own copy, frozen like it
        object.__setattr__(self, "edges", e)

    def write_edge_csv(self, path):
        _write_csv(path, ["u", "v"], list(self.edges.T))


class ComponentView(NamedTuple):
    """One connected component; vertices ascend, so the first is the root,
    the smallest vertex.  ``edges`` holds its rows of the graph's edges."""

    vertices: tuple
    mass: float
    edges: np.ndarray

    @property
    def root(self) -> int:
        return self.vertices[0]

    @property
    def count(self) -> int:
        return len(self.vertices)


def sample_direct(w: WeightSeq, rng_seed=0) -> AssembledGraph:
    """Draw one graph in O(n + m) by geometric skipping (Miller and
    Hagberg, WAW 2011; Batagelj and Brandes, Phys. Rev. E 2005).

    The weights are nonincreasing and h is nondecreasing, so in row u the
    edge probability p_v of the pair {u, v} is nonincreasing in v > u.
    Each row lands on pairs a geometric number of pairs apart, with the
    probability p of the last pair it landed on (no skip when p = 1),
    and keeps the pair v it lands on with probability p_v/p; every pair
    is then an edge independently with probability exactly p_v.  All
    rows advance at once (``_direct_edges``).
    """
    return AssembledGraph(n=w.j_max, weights=w.w,
                          edges=_direct_edges(w, rng_seed), provenance="direct")


def _direct_edges(w: WeightSeq, rng_seed=0, replicas: int = 1) -> np.ndarray:
    """The edges ``sample_direct`` draws, as an (m, 2) int64 array.  Rows
    ascend in u and each row in v, so the pairs come sorted.

    ``replicas`` = R draws R independent graphs as one graph whose vertex
    r*n + j is vertex j of replica r: a row's pairs end with its block.

    Every live row advances in the same round of array passes.  In round
    k (k = 0, 1, ...) the live rows draw a chunk of 2**k landings each:
    one ``rng.random((2, rows, 2**k))`` call gives the skip uniforms, then
    the keep uniforms, row by row.  The whole chunk skips with the p of
    the row's last landing before the round, which bounds every p_v of
    the chunk as h does not increase along the row; the row then goes on
    from its last landing with that landing's p_v, or stops when a
    landing passes its last pair or p_v = 0.  A row with L landings
    inside its pairs draws at most 2L + 1, in at most log2(L + 1) + 1
    rounds.
    """
    n, s1 = w.j_max, w.sigma(1.0)
    ws = w.w[None].repeat(replicas, axis=0).ravel()
    u = np.arange(ws.size)
    u = u[u % n < n - 1]               # a block's last vertex has no pair
    stop = (u // n + 1) * n            # one past the row's last pair
    p = h(ws[u] * ws[u + 1] / s1)
    rng = np.random.default_rng(rng_seed)
    at, k, found = u.astype(float), 1, []
    while True:
        live = p > 0
        u, stop, p, at = u[live], stop[live], p[live], at[live]
        if not u.size:
            break
        skips, keeps = rng.random((2, u.size, k))
        # p = 1 gives log1p(-p) = -inf and no skip
        with np.errstate(divide="ignore", over="ignore"):
            v = np.log1p(-skips) / np.log1p(-p)[:, None]
        np.floor(v, out=v)
        v += 1.0
        v.cumsum(axis=1, out=v)
        v += at[:, None]    # exact integers below the row's stop
        inside = v < stop[:, None]    # a prefix of each row
        row = inside.nonzero()[0]
        ui, vi = u[row], v[inside].astype(np.int64)
        q = h(ws[ui] * ws[vi] / s1)
        kept = keeps[inside] * p[row] < q
        found.append((ui[kept], vi[kept]))
        # the rows whose chunk stayed inside go on from its last landing
        full = inside[:, -1]
        u, stop, at = u[full], stop[full], v[full, -1]
        p = q[inside.sum(axis=1).cumsum()[full] - 1]
        k *= 2
    e = (np.stack([np.concatenate(c) for c in zip(*found)], axis=1) + 1
         if found else np.empty((0, 2), np.int64))
    # each round's pairs ascend; a stable sort by u merges the rounds
    return e[e[:, 0].argsort(kind="stable")]


def _root_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Label each of the vertices 0..n-1 of the edges (u, v) with the
    smallest vertex of its component, by hooking and shortcutting
    (Shiloach and Vishkin, J. Algorithms 1982).

    The edges are kept as pairs of roots.  Each round hooks every root
    that has a smaller neighbouring root under the smallest such root,
    jumps the hooked roots' pointers until each points to a root, moves
    the edges onto their ends' roots and drops those inside one root; it
    ends when no edge is left.  The vertices then jump to their roots.
    Labels only fall along edges, so a component's smallest vertex is
    never hooked and ends as its one root.  One ``np.minimum.at`` a
    round takes the minimum per root."""
    lab = np.arange(n)

    def jump(at):   # until each of lab[at] points to a root
        up = lab[at]
        while ((jumped := lab.take(up)) != up).any():
            lab[at] = up = jumped

    a, b = u, v
    while a.size:
        hooked = np.maximum(a, b)
        np.minimum.at(lab, hooked, np.minimum(a, b))
        jump(hooked)
        a, b = lab[a], lab[b]
        keep = a != b
        a, b = a[keep], b[keep]
    jump(slice(None))
    return lab


def connected_components(g: AssembledGraph) -> Sequence:
    """Components sorted nonincreasing by mass; ties broken by the smaller
    root.  A read-only sequence (``paths._Rows``) whose views are built
    when read, from the vertex tuples, the masses and the edge rows it
    keeps grouped in that order, and the id table (``paths._id_tuple``)
    of its vertex ints."""
    u, v = g.edges[:, 0] - 1, g.edges[:, 1] - 1
    lab = _root_labels(g.n, u, v)
    # roots number the components in ascending order of their root
    is_root = lab == np.arange(g.n)
    k, labels = int(is_root.sum()), (is_root.cumsum() - 1)[lab]
    # a stable sort keeps ids ascending within a label, so each group
    # starts at its root
    by_label = labels.argsort(kind="stable")
    bounds = np.concatenate(([0], np.bincount(labels, minlength=k).cumsum()))
    masses = _group_fsums(np.asarray(g.weights, dtype=float)[by_label], bounds)
    order = np.lexsort((by_label[bounds[:-1]], -masses))
    # the vertex tuples are slices of one tuple of ids: tuples of ints,
    # which the collector stops tracking at its first pass; the ints are
    # the id table's, shared with the other partitions alive
    ids, table = _id_tuple(by_label + 1, g.n)
    vertices = list(_runs(ids, bounds[:-1][order], bounds[1:][order]))
    # the sorted edges are grouped the same way
    edge_label = labels[u]
    edge_cuts = np.concatenate(
        ([0], np.bincount(edge_label, minlength=k).cumsum()))
    edges = g.edges[edge_label.argsort(kind="stable")]
    # tuple.__new__ builds a view at C level; ComponentView's own __new__
    # is a Python function
    return _Rows(partial(tuple.__new__, ComponentView), vertices,
                 memoryview(masses[order]),
                 _runs(edges, edge_cuts[:-1][order], edge_cuts[1:][order]),
                 ids=table)


def graph_distances(c: ComponentView) -> np.ndarray:
    """All-pairs hop counts by per-source BFS; rows/columns follow c.vertices."""
    index = {v: i for i, v in enumerate(c.vertices)}
    n = len(c.vertices)
    adj = [[] for _ in range(n)]
    for u, v in np.asarray(c.edges).tolist():
        adj[index[u]].append(index[v])
        adj[index[v]].append(index[u])
    rows = []
    for s in range(n):
        row = [-1] * n
        row[s] = 0
        queue = [s]
        for x in queue:     # the queue grows while it is scanned
            for y in adj[x]:
                if row[y] < 0:
                    row[y] = row[x] + 1
                    queue.append(y)
        if len(queue) < n:
            raise ValueError("component is not connected")
        rows.append(row)
    return np.asarray(rows, dtype=np.int64)


def write_component_csv(views: Sequence, path):
    """Rows (rank, mass, count, root) of ``connected_components``' sequence,
    read off its vertex and mass columns without building a view."""
    vertices, masses, _ = views.columns
    _write_csv(path, ["rank", "mass", "count", "root"],
               [range(1, len(views) + 1), np.asarray(masses),
                np.fromiter(map(len, vertices), np.int64, len(vertices)),
                np.fromiter(map(itemgetter(0), vertices), np.int64,
                            len(vertices))])
