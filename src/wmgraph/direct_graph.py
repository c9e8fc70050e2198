"""Direct sampler of the weight-multiplicative graph by independent edge coins.

Vertices 1..j carry weights w_1 >= ... >= w_j; the unordered pair {i, k}
is an edge independently with probability h(w_i*w_k/sigma_1), where
h(x) = 1 - e^{-x}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np
from scipy.sparse import csgraph, csr_array

from .paths import _write_csv
from .weights import WeightSeq


def h(x):
    """The edge law h(x) = 1 - e^{-x}, for a float or an array; the sampler
    and ``edge_probability`` look it up when called."""
    return -np.expm1(-x)


def edge_probability(x):
    """h(x), elementwise."""
    out = h(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class AssembledGraph:
    """Simple graph on vertices 1..n with per-vertex weights."""

    n: int
    weights: np.ndarray
    edges: tuple      # (u, v) pairs, u < v, from any iterable; kept sorted
    provenance: str   # "direct" or "lifo"
    n_self_loops_dropped: int = 0
    n_duplicates_dropped: int = 0

    def __post_init__(self):
        edges = tuple(sorted(self.edges))
        for prev, (u, v) in zip(((0, 0),) + edges, edges):
            if not (1 <= u < v <= self.n and (u, v) > prev):  # no repeats
                raise ValueError(f"invalid edge ({u}, {v})")
        object.__setattr__(self, "edges", edges)

    def write_edge_csv(self, path):
        _write_csv(path, ["u", "v"], _edge_columns(self.edges))


def _edge_columns(edges) -> np.ndarray:
    """The (u, v) pairs as a (2, m) int64 array: a u row and a v row."""
    return np.fromiter(chain.from_iterable(edges), np.int64,
                       2 * len(edges)).reshape(-1, 2).T


class ComponentView(NamedTuple):
    """One connected component; vertices ascend, so the first is the root,
    the first-explored (smallest) vertex."""

    vertices: tuple
    mass: float
    edges: tuple

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
    Each row skips ahead a geometric number of pairs with the probability
    p of the last pair it landed on (no skip when p = 1), and keeps the
    pair it lands on with probability p_v/p; every pair is then an edge
    independently with probability exactly p_v.
    """
    rng = np.random.default_rng(rng_seed)
    n = w.j_max
    s1 = w.sigma(1.0)
    ws = w.w.tolist()
    uniforms = _uniforms(rng, n)
    edges = []
    for u in range(n - 1):
        v, p = u + 1, h(ws[u] * ws[u + 1] / s1)
        while v < n and p > 0:
            if p < 1:
                skip = math.log1p(-next(uniforms)) / math.log1p(-p)
                if skip >= n - v:
                    break
                v += int(skip)
            q = h(ws[u] * ws[v] / s1)
            if next(uniforms) * p < q:
                edges.append((u + 1, v + 1))
            v, p = v + 1, q
    # rows ascend in u and each row in v, so the pairs come sorted
    return AssembledGraph(n=n, weights=w.w, edges=edges, provenance="direct")


def _uniforms(rng, size: int):
    """Endless U[0, 1) stream, drawn ``size`` at a time."""
    while True:
        yield from rng.random(size).tolist()


def connected_components(g: AssembledGraph) -> list:
    """Components sorted nonincreasing by mass; ties broken by the smallest
    first-explored vertex id."""
    u, v = _edge_columns(g.edges) - 1
    adj = csr_array((np.ones(u.size, dtype=np.int8), (u, v)), shape=(g.n, g.n))
    k, labels = csgraph.connected_components(adj, directed=False)
    # a stable sort keeps ids ascending within a label, so each group
    # starts at its root; the sorted edges are grouped the same way
    by_label = np.argsort(labels, kind="stable")
    cuts = [0] + np.cumsum(np.bincount(labels, minlength=k)).tolist()
    edge_label = labels[u]
    edge_cuts = [0] + np.cumsum(np.bincount(edge_label, minlength=k)).tolist()
    edges = tuple(map(g.edges.__getitem__,
                      np.argsort(edge_label, kind="stable").tolist()))
    verts = tuple((by_label + 1).tolist())
    ws = np.asarray(g.weights, dtype=float)[by_label].tolist()
    masses = [math.fsum(ws[a:b]) for a, b in zip(cuts, cuts[1:])]
    order = np.lexsort((by_label[cuts[:-1]], -np.asarray(masses))).tolist()
    # tuple.__new__ skips the named tuple's Python-level constructor
    return [tuple.__new__(ComponentView, (verts[cuts[i]:cuts[i + 1]], masses[i],
                                          edges[edge_cuts[i]:edge_cuts[i + 1]]))
            for i in order]


def graph_distances(c: ComponentView) -> np.ndarray:
    """All-pairs hop counts by per-source BFS; rows/columns follow c.vertices."""
    index = {v: i for i, v in enumerate(c.vertices)}
    n = len(c.vertices)
    adj = [[] for _ in range(n)]
    for u, v in c.edges:
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


def write_component_csv(views: list, path):
    _write_csv(path, ["rank", "mass", "count", "root"],
               [range(1, len(views) + 1), [c.mass for c in views],
                [c.count for c in views], [c.root for c in views]])
