"""Weight sequences, their moments, criticality, and scaling-family generators.

A weight sequence is a finite nonincreasing vector of positive reals
``w = (w_1, ..., w_j)``.  It drives every sampler in this package: the
edge-coin graph, the LIFO queue, and the Markovian queue.  Scaling
families ``(a_n, b_n, w_n)`` connect the discrete objects to a continuum
limit described by parameters ``(alpha, beta, kappa, c)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np


def _schema_fields(d, *keys) -> dict:
    """``d`` if it is a schema-1 JSON object holding ``keys``, else
    ValueError (a missing schema reads as 1)."""
    if not isinstance(d, dict):
        raise ValueError("expected a JSON object")
    if d.get("schema", 1) != 1:
        raise ValueError(f"unsupported schema {d['schema']!r}")
    missing = [k for k in keys if k not in d]
    if missing:
        raise ValueError(f"missing key(s): {', '.join(missing)}")
    return d


def _number(x, key: str):
    """``x`` if it is a JSON number that a float can hold, else ValueError."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"{key} must be a number, not {json.dumps(x)}")
    try:
        float(x)
    except OverflowError:
        raise ValueError(
            f"{key} must be a number within the float range") from None
    return x


def _numbers(xs, key: str) -> list:
    """``xs`` if it is a JSON list of numbers, else ValueError."""
    if not isinstance(xs, list):
        raise ValueError(f"{key} must be a list of numbers")
    return [_number(x, f"each entry of {key}") for x in xs]


@dataclass(frozen=True)
class WeightSeq:
    """Nonincreasing positive weight vector with cached power sums; ``w``
    is the object's own read-only copy, so the cached sums stay valid."""

    w: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __init__(self, w):
        w = np.array(w, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d vector")
        if not (0 < np.minimum.reduce(w) and np.maximum.reduce(w) < math.inf):
            raise ValueError("weights must be positive and finite")
        if (w[1:] > w[:-1]).any():
            w = np.sort(w)[::-1]
        w.flags.writeable = False
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "_cache", {})
        # loads stay below sigma_1 and pinch areas square them
        try:
            s1 = self.sigma(1.0)
        except OverflowError:   # fsum past the largest float
            s1 = math.inf
        if not math.isfinite(s1 * s1):
            raise ValueError("the square of the weight sum must be finite")

    @property
    def j_max(self) -> int:
        return int(self.w.size)

    def sigma(self, r: float) -> float:
        key = float(r)
        if key not in self._cache:
            self._cache[key] = sigma_r(self, r)
        return self._cache[key]

    def to_json(self) -> str:
        return json.dumps({"schema": 1, "w": list(self.w)})

    @classmethod
    def from_json(cls, text: str) -> "WeightSeq":
        """Read ``{"schema": 1, "w": [...]}`` or the legacy bare list."""
        d = json.loads(text)
        return cls(_numbers(d if isinstance(d, list)
                            else _schema_fields(d, "w")["w"], "w"))


@dataclass(frozen=True)
class LimitParams:
    """Continuum parameters (alpha, beta, kappa, c) with sum(c_j^3) finite.

    ``c`` is the object's own read-only copy, so the values
    ``wmgraph.scaling`` memoizes in ``_cache`` cannot go stale."""

    alpha: float
    beta: float
    kappa: float
    c: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __init__(self, alpha, beta, kappa, c=()):
        c = np.array(c, dtype=float)
        if not (np.all(np.isfinite([alpha, beta, kappa]))
                and np.all(np.isfinite(c))):
            raise ValueError("alpha, beta, kappa and c must be finite")
        if beta < 0:
            raise ValueError("beta must be nonnegative")
        if kappa <= 0:
            raise ValueError("kappa must be positive")
        if c.size:
            if np.any(c < 0) or np.any(np.diff(c) > 0):
                raise ValueError("c must be nonnegative and nonincreasing")
            with np.errstate(over="ignore"):
                if not np.isfinite(np.sum(c ** 3)):
                    raise ValueError("sum of c_j^3 must be finite")
        object.__setattr__(self, "alpha", float(alpha))
        object.__setattr__(self, "beta", float(beta))
        object.__setattr__(self, "kappa", float(kappa))
        c.flags.writeable = False
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "_cache", {})

    def to_json(self) -> str:
        return json.dumps(
            {"schema": 1, "alpha": self.alpha, "beta": self.beta,
             "kappa": self.kappa, "c": list(self.c)})

    @classmethod
    def from_json(cls, text: str) -> "LimitParams":
        d = _schema_fields(json.loads(text), "alpha", "beta", "kappa")
        return cls(*(_number(d[k], k) for k in ("alpha", "beta", "kappa")),
                   _numbers(d.get("c", []), "c"))


@dataclass(frozen=True)
class ScalingTriple:
    """One member (a_n, b_n, w_n) of a scaling family."""

    n: int
    a: float
    b: float
    weights: WeightSeq
    declared_limit: LimitParams | None = None

    def __post_init__(self):
        if not (self.a > 0 and math.isfinite(self.a)):
            raise ValueError("a_n must be finite and positive")
        if not (self.b > 0 and math.isfinite(self.b)):
            raise ValueError("b_n must be finite and positive")

    def matched_limit(self) -> LimitParams:
        """The limit at this member's own parameters: alpha_n =
        (b/a)(1 - sigma_2/sigma_1), beta = 0, kappa_n = a*b/sigma_1 and
        c = w/a.  Its psi is the discrete exponent psi_n."""
        s1, s2 = self.weights.sigma(1.0), self.weights.sigma(2.0)
        return LimitParams(alpha=(self.b / self.a) * (1.0 - s2 / s1),
                           beta=0.0, kappa=self.a * self.b / s1,
                           c=self.weights.w / self.a)


def sigma_r(w: WeightSeq, r: float) -> float:
    """Power sum sum_j w_j^r over the positive entries."""
    if r <= 0:
        raise ValueError("r must be positive")
    return math.fsum(map(pow, w.w.tolist(), repeat(r)))


def er_limit_params(n: int, p: float) -> LimitParams:
    """Limit parameters matching gen_er_triple: beta = kappa = 1, no c part."""
    # weight value is -n*log(1-p); alpha is the drift gap (b/a)(1 - value)
    alpha = (n ** (1.0 / 3)) * (1.0 + n * math.log1p(-p))
    return LimitParams(alpha=alpha, beta=1.0, kappa=1.0, c=())


def gen_er_triple(n: int, p: float) -> ScalingTriple:
    """Homogeneous family: constant weights n*log(1/(1-p)), a_n = n^(1/3), b_n = n^(2/3).

    In this normalization b_n/a_n^2 = 1 exactly at every n.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if n < 1:
        raise ValueError("n must be at least 1")
    value = -n * math.log1p(-p)
    weights = WeightSeq(np.full(n, value))
    a = float(n) ** (1.0 / 3)
    return ScalingTriple(n=n, a=a, b=a * a, weights=weights,
                         declared_limit=er_limit_params(n, p))


def _zeta_em(s: float, n: int = 1000) -> float:
    """Riemann zeta on 0 < s < 1 by Euler-Maclaurin (error far below 1e-15
    at n = 1000 for s bounded away from 0)."""
    k = np.arange(1, n)
    head = math.fsum(k ** (-s))
    tail = (n ** (1.0 - s) / (s - 1.0) - 0.5 * n ** (-s)
            + s / 12.0 * n ** (-s - 1.0)
            - s * (s + 1.0) * (s + 2.0) / 720.0 * n ** (-s - 3.0)
            + s * (s + 1.0) * (s + 2.0) * (s + 3.0) * (s + 4.0)
            / 30240.0 * n ** (-s - 5.0))
    return head + n ** (-s) + tail


def powerlaw_alpha0(rho: float, q: float, kappa: float) -> float:
    """Centering constant 2*kappa*q^2*(int_0^1 y*frac(y^-rho) dy + 1/(rho-2)).

    Substituting x = y^(-rho) turns the fractional-part integral into
    (1/rho) int_1^inf frac(x) x^(-2/rho - 1) dx, and the classical zeta
    representation int_1^inf frac(x) x^(-s-1) dx = 1/(s-1) - zeta(s)/s at
    s = 2/rho makes the 1/(rho-2) terms cancel, leaving the closed form
    alpha_0 = -kappa * q^2 * zeta(2/rho).
    """
    if not 2.0 < rho < 3.0:
        raise ValueError("rho must lie in (2, 3)")
    return -kappa * q * q * _zeta_em(2.0 / rho)


def gen_powerlaw_triple(n: int, rho: float, q: float = 1.0,
                        kappa: float = 1.0,
                        alpha: float | None = None) -> ScalingTriple:
    """Power-law family w_j = G(j/n) with the drift-centering tilt.

    ``G`` is the pure tail quantile G(y) = y^(-1/rho), y <= 1.  Weights
    are multiplied by (1 - (a_n/b_n)(alpha - alpha_0)); when ``alpha`` is
    omitted it defaults to the centering constant alpha_0 so the tilt
    factor is 1.
    Normalization: a_n = G(1/n)/q, b_n = kappa*sigma_1(w_n)/a_n.
    """
    if not 2.0 < rho < 3.0:
        raise ValueError("rho must lie in (2, 3)")
    if n < 1:
        raise ValueError("n must be at least 1")
    raw = (np.arange(1, n + 1) / n) ** (-1.0 / rho)
    a = raw[0] / q
    s1 = math.fsum(raw.tolist())
    b = kappa * s1 / a
    alpha0 = powerlaw_alpha0(rho, q, kappa)
    if alpha is None:
        alpha = alpha0
    tilt = 1.0 - (a / b) * (alpha - alpha0)
    if tilt <= 0:
        raise ValueError("tilt factor is nonpositive; alpha too large for this n")
    w = WeightSeq(raw * tilt)
    b = kappa * w.sigma(1.0) / a
    # limit of w_j/a_n: the n-dependence cancels, leaving q*j^(-1/rho)
    limit_c = q * np.arange(1, n + 1, dtype=float) ** (-1.0 / rho)
    limit = LimitParams(alpha=float(alpha), beta=0.0, kappa=kappa, c=limit_c)
    return ScalingTriple(n=n, a=a, b=b, weights=w, declared_limit=limit)
