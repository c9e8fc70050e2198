"""Grid simulation of the limit load process and its excursion masses.

Y_t = -alpha*t - (kappa*beta/2)*t^2 + sqrt(beta)*B_t
      + sum_j c_j*(1{E_j <= t} - c_j*kappa*t),  E_j ~ Exp(rate kappa*c_j).

The excursion lengths of Y above its running infimum are the continuum
analogues of the rescaled component masses of the discrete graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .excursions import TOL_EXC, _intervals_above
from .paths import _check_memory, _write_csv
from .weights import LimitParams

TRUNC_TARGET = 1e-3


@dataclass(frozen=True)
class GridPath:
    t: np.ndarray
    values: np.ndarray
    truncation_J: int
    truncation_bound: float

    def write_csv(self, path):
        _write_csv(path, ["t", "Y"], [self.t, self.values])


def default_truncation(p: LimitParams, T: float) -> int:
    """Smallest J with (kappa/2)*T^2*sum_{j>J} c_j^2 below TRUNC_TARGET."""
    if len(p.c) == 0:
        return 0
    tail = 0.5 * p.kappa * T * T * np.cumsum((p.c ** 2)[::-1])[::-1]
    # tail[j] bounds the contribution of entries j..end
    keep = np.nonzero(tail >= TRUNC_TARGET)[0]
    return int(keep[-1] + 1) if keep.size else 0


def simulate_limit_Y(p: LimitParams, dt: float | None = None, T: float = 1.0,
                     rng_seed=0, forced_E=None) -> GridPath:
    """Simulate Y on a uniform grid of step dt (default T*1e-4).

    Brownian increments are N(0, beta*dt); jump times are drawn exactly
    and snapped to the containing cell; the per-jump compensator
    -c_j^2*kappa*t is applied continuously.  c is cut at
    ``default_truncation(p, T)``, unless ``forced_E`` (test hook) fixes
    the jump time of every entry of c; an entry of +inf never lands.  A
    grid larger than physical memory is rejected before it is allocated."""
    if dt is None:
        dt = 1e-4 * T
    for name, value in (("T", T), ("dt", dt)):
        if not 0 < value < math.inf:    # NaN fails too
            raise ValueError(f"{name} must be finite and positive, "
                             f"got {value!r}")
    if not T / dt < np.iinfo(np.intp).max:    # T / dt may overflow to inf
        raise ValueError(f"T / dt = {T / dt!r} grid cells cannot be indexed")
    n = int(round(T / dt))
    # at its peak, five float64 arrays of n + 1
    _check_memory(5 * 8 * (n + 1), f"a grid of {n + 1} points")
    J = len(p.c) if forced_E is not None else default_truncation(p, T)
    rng = np.random.default_rng(rng_seed)
    t = np.arange(n + 1) * dt
    y = -p.alpha * t - 0.5 * p.kappa * p.beta * t * t
    if p.beta > 0:
        incr = rng.normal(0.0, math.sqrt(p.beta * dt), size=n)
        y = y + np.concatenate(([0.0], incr.cumsum()))
    c = p.c[:J]
    if c.size:
        if forced_E is not None:
            E = np.asarray(forced_E, dtype=float)
            if E.shape != c.shape or not np.all(E >= 0):    # NaN fails
                raise ValueError("forced_E must give one nonnegative time "
                                 "per c entry")
        else:
            E = rng.exponential(1.0 / (p.kappa * c))
        y = y - t * math.fsum((c * c * p.kappa).tolist())   # compensator
        # jump sums by cell, cumulated from the first landed cell on (so
        # y[0] keeps its sign); a cell past the last grid point drops it
        k = np.ceil(E / dt - 1e-12)
        keep = (E <= T) & (k <= n)
        if keep.any():
            k = k[keep].astype(np.intp)
            y[k.min():] += np.cumsum(np.bincount(k - k.min(), weights=c[keep],
                                                 minlength=n + 1 - k.min()))
    bound = 0.5 * p.kappa * T * T * float(np.sum(p.c[J:] ** 2))
    return GridPath(t=t, values=y, truncation_J=J, truncation_bound=bound)


def limit_masses(g: GridPath, top_k: int = 50) -> np.ndarray:
    """Top-K lengths, nonincreasing, of the maximal runs of grid cells
    where Y exceeds its running infimum by more than TOL_EXC.  Each value
    holds for its cell [t_i, t_i + dt); a run open at the last point
    closes one step after it."""
    t, y = g.t, g.values
    end = t[-1] + (t[1] - t[0] if t.size > 1 else 0.0)
    ls, rs = _intervals_above(t, y - np.minimum.accumulate(y) - TOL_EXC, end)
    return -np.sort(ls - rs)[:top_k]
