"""Laplace-exponent family psi: evaluation, largest root, extinction profile,
and scaling-regime diagnostics (the discrete exponent psi_n is psi of a
family member's matched limit).

psi(lambda) = alpha*lambda + (beta/2)*lambda^2
              + sum_j kappa*c_j*(e^{-lambda c_j} - 1 + lambda c_j).

The largest root rho of psi is positive exactly when alpha < 0; the
extinction profile v(t) solves int_{v}^infty d(lambda)/psi(lambda) = t and
exists when the tail integral converges (the "grey" case).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weights import LimitParams

TOL_INV = 1e-10
MAX_BISECT = 200
LADDER_STEP = math.log(4.0)    # extinction-profile panel width in log(u - rho)
# the 8-point Gauss-Legendre rule on [-1, 1]: nodes -x and x, weights w
_GL_X = np.array([0.1834346424956498, 0.525532409916329,
                  0.7966664774136267, 0.9602898564975363])
_GL_W = np.array([0.362683783378362, 0.31370664587788727,
                  0.22238103445337448, 0.10122853629037626])
_GL_X, _GL_W = np.r_[-_GL_X, _GL_X], np.r_[_GL_W, _GL_W]
PSI_BLOCK = 1 << 15            # lambda x c products per block: <= 256 KB


def psi_eval(p: LimitParams, lam):
    """psi(lambda), a float for a scalar lambda, else an array of its shape."""
    lam = np.asarray(lam, dtype=float)
    c = p.c
    out = p.alpha * lam + 0.5 * p.beta * lam * lam
    if c.size:
        flat, rows = lam.reshape(-1), max(1, PSI_BLOCK // c.size)
        jumps, kc = np.empty(flat.size), p.kappa * c
        # a row's pairwise sum is the same in any block: bit-identical
        for i in range(0, flat.size, rows):
            x = np.multiply.outer(flat[i:i + rows], c)
            e = np.negative(x)
            np.expm1(e, out=e)     # two block-sized temporaries, not three
            e += x
            e *= kc
            jumps[i:i + rows] = e.sum(axis=-1)
        out = out + jumps.reshape(lam.shape)
    return float(out) if out.ndim == 0 else out


def largest_root(p: LimitParams) -> float:
    """Largest root rho of the convex function psi; 0 when alpha >= 0.
    Past it psi > 0, so rho = inf{u > 0 : psi(u) > 0}: double from 1, then
    bisect until the bracket is narrower than TOL_INV or its midpoint
    rounds to an end (no float lies between them: the bracket cannot
    change again)."""
    if p.alpha >= 0:
        return 0.0
    lo, hi, it = 0.0, 1.0, 0
    # -inf (hugely negative alpha) and NaN (-inf + inf) never bracket
    with np.errstate(over="ignore", invalid="ignore"):
        while not psi_eval(p, hi) > 0.0:
            hi *= 2.0
            it += 1
            if it > MAX_BISECT:
                raise RuntimeError("could not bracket the largest root of psi")
    for _ in range(MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if psi_eval(p, mid) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < TOL_INV:
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class PsiReport:
    root: float
    grey_integral_tail: float   # estimate of int_{Lambda}^infty d(lambda)/psi
    is_grey: bool
    lambda_max: float


def psi_report(p: LimitParams) -> PsiReport:
    """Root and a numerical verdict on the tail integral of 1/psi.

    Convergence is judged by the local growth exponent of psi at the
    cutoff: the tail converges iff psi grows superlinearly there, and the
    tail value is then estimated under the quadratic-envelope model
    psi(lambda) ~= psi(L)*(lambda/L)^2; a psi(L) or psi(10L) that
    overflows is a ValueError.  The report and psi(L) are memoized in
    ``p._cache``."""
    if "psi_report" not in p._cache:
        rho = largest_root(p)
        L = max(1e6, 1e3 * rho)
        with np.errstate(over="ignore", invalid="ignore"):
            v1, v2 = psi_eval(p, L), psi_eval(p, 10 * L)
        if not (math.isfinite(v1) and math.isfinite(v2)):
            raise ValueError(f"psi overflows at the cutoff lambda = {L:g}")
        # psi(L) > 0 past the root unless psi == 0, whose tail diverges
        growth = math.log(v2 / v1) / math.log(10.0) if v1 > 0 else 1.0
        grey = growth > 1.0 + 1e-6
        tail = L / (v1 * (growth - 1.0)) if grey else math.inf
        p._cache["psi_L"] = v1
        p._cache["psi_report"] = PsiReport(
            root=rho, grey_integral_tail=tail, is_grey=grey, lambda_max=L)
    return p._cache["psi_report"]


def _ladder_integral(p: LimitParams, rho: float, a: float, b: float):
    """(int_a^b g by the 8-point rule, g(a)), g(s) = e^s/psi(rho + e^s)."""
    half = 0.5 * (b - a)
    s = np.append(0.5 * (a + b) + half * _GL_X, a)
    g = np.exp(s) / psi_eval(p, rho + np.exp(s))
    return half * float(_GL_W @ g[:-1]), float(g[-1])


def _ladder_panels(p: LimitParams):
    """The extinction profile's panels (lo, hi, F(hi), int_lo^hi g, g(lo)),
    walked down from hi = log(L - rho) with F(hi) summed panel by panel.
    They are memoized in ``p._cache`` and extended only as far as a
    caller walks, so every call sees the same floats in any order; they
    end where rho + e^lo == rho."""
    rep = psi_report(p)
    rho, panels = rep.root, p._cache.setdefault("ladder", [])
    yield from panels   # only this generator appends, after its loop
    lo, f_lo = ((panels[-1][0], panels[-1][2] + panels[-1][3]) if panels else
                (math.log(rep.lambda_max - rho),
                 rep.lambda_max / p._cache["psi_L"]))
    while rho + math.exp(lo - LADDER_STEP) != rho:
        hi, lo = lo, lo - LADDER_STEP
        part, g = _ladder_integral(p, rho, lo, hi)
        panels.append((lo, hi, f_lo, part, g))
        yield panels[-1]
        f_lo += part


def extinction_profile(p: LimitParams, t: float) -> float:
    """v(t) with int_{v(t)}^infty d(lambda)/psi = t; requires the grey case.

    The tail beyond L = lambda_max follows the quadratic envelope
    psi(u) ~= psi(L)*(u/L)^2, so F(v) = int_v^L d(lambda)/psi + L/psi(L)
    below L, and v(t) = L^2/(psi(L)*t) once t <= L/psi(L).  Below L, F is
    integrated in s = log(u - rho), smooth at the root, on Gauss-Legendre
    panels walked down from s = log(L - rho) until F > t (or until
    rho + e^s == rho: rho is returned); the panels are memoized per
    limit (``_ladder_panels``).  In that panel, bracketed Newton steps
    with F'(s) = -e^s/psi(rho + e^s) stop on a step <= TOL_INV*v."""
    if not t > 0:
        raise ValueError("t must be positive")
    rep = psi_report(p)
    if not rep.is_grey:
        raise ValueError("tail integral of 1/psi diverges; no profile")
    L, psi_L = rep.lambda_max, p._cache["psi_L"]
    if t <= L / psi_L:
        return L * L / (psi_L * t)
    rho = rep.root
    for lo, hi, f_hi, part, g in _ladder_panels(p):
        if f_hi + part > t:
            break
    else:
        return rho
    a, b, s = lo, hi, lo
    for _ in range(MAX_BISECT):
        f = f_hi + part
        a, b = (s, b) if f > t else (a, s)
        new = s + (f - t) / g if g > 0 else math.nan
        if not a <= new <= b:    # new == s once the step is below ulp(s)
            new = 0.5 * (a + b)
        v, v_new = rho + math.exp(s), rho + math.exp(new)
        if abs(v_new - v) <= TOL_INV * v:
            return v_new
        s = new
        part, g = _ladder_integral(p, rho, s, hi)
    raise RuntimeError("extinction profile did not converge")


@dataclass(frozen=True)
class RegimeReport:
    c1: np.ndarray             # alpha of each member's matched limit
    beta0_proxy: np.ndarray    # b/a^2
    c4_integrals: np.ndarray   # (members, len(C4_Y)) of int_y^{a_n} 1/psi_n
    verdicts: dict


# report window for the per-j weight limits; the full quantified family
# cannot be tabulated
C3_WINDOW = 20
C4_Y = (1.0, 4.0, 16.0)        # lower ends y of the C4 integrals


def _c2(p: LimitParams) -> float:
    """beta + kappa*sigma_3(c): C2 of a matched limit, or its target."""
    return p.beta + p.kappa * float(np.sum(p.c ** 3))


def _integral_above_root(p: LimitParams, rho: float, y: float,
                         top: float) -> float:
    """int_y^top d(lambda)/psi in s = log(lambda - rho), smooth at the root
    rho, on equal extinction-profile panels no wider than LADDER_STEP.
    rho is known only to TOL_INV: a y not above it reads as the root,
    where 1/psi is not integrable, so the integral is inf."""
    if not y > rho:
        return math.inf
    lo, hi = math.log(y - rho), math.log(top - rho)
    edges = np.linspace(lo, hi, 1 + max(1, math.ceil((hi - lo) / LADDER_STEP)))
    return math.fsum(_ladder_integral(p, rho, a, b)[0]
                     for a, b in zip(edges[:-1].tolist(), edges[1:].tolist()))


def check_regime(family: list, p: LimitParams) -> RegimeReport:
    """Regime quantities of a scaling family, read off each member's
    matched limit (``ScalingTriple.matched_limit``, whose psi is psi_n),
    with convergence verdicts against the declared limit ``p``.

    Verdicts are diagnostics only: C1 -> alpha, C2 -> beta + kappa*sigma_3(c),
    C3_j -> c_j, and the height-scale condition is reported as satisfied
    when beta0 > 0, otherwise through the finite-n integrals
    int_y^{a_n} d(lambda)/psi_n, y in C4_Y (their decay in y must be
    extrapolated; no finite-n certificate exists).  psi_n(a_n) =
    (b/sigma_1) sum_j w_j e^{-w_j} > 0, so psi_n(y) <= 0 puts a root in
    [y, a_n]: the integral diverges, it reads inf, and the decay verdict
    fails."""
    if not family:
        raise ValueError("family must be nonempty")
    c1, c2, beta0 = (np.zeros(len(family)) for _ in range(3))
    c4 = np.zeros((len(family), len(C4_Y)))
    for i, tr in enumerate(family):
        lim = tr.matched_limit()
        c1[i], c2[i], rho = lim.alpha, _c2(lim), None
        beta0[i] = tr.b / (tr.a * tr.a)
        for k, y in enumerate(C4_Y):
            if y < tr.a:
                if psi_eval(lim, y) <= 0:
                    c4[i, k] = math.inf
                else:   # the root is below y: bisect it at its first use
                    rho = largest_root(lim) if rho is None else rho
                    c4[i, k] = _integral_above_root(lim, rho, y, tr.a)
    J = min(C3_WINDOW, min(tr.weights.j_max for tr in family))
    cJ = np.pad(p.c[:J], (0, J - len(p.c[:J])))
    verdicts = {
        "c1_to_alpha": _trendy(c1, p.alpha),
        "c2_to_beta_plus_kappa_sigma3": _trendy(c2, _c2(p)),
        # lim: the last member's matched limit
        "c3_to_c": bool(np.all(np.abs(lim.c[:J] - cJ)
                               <= np.maximum(0.05 * np.abs(cJ), 0.05))),
        "height_scale_via_beta0": bool(beta0[-1] > 1e-9),
        "c4_integrals_decreasing_in_y": bool(
            np.all(np.isfinite(c4[-1])) and np.all(np.diff(c4[-1]) <= 1e-12)),
    }
    return RegimeReport(c1=c1, beta0_proxy=beta0, c4_integrals=c4,
                        verdicts=verdicts)


def _trendy(traj: np.ndarray, target: float) -> bool:
    """Last value closer to the target than the first, or already close."""
    return bool(abs(traj[-1] - target)
                <= max(abs(traj[0] - target), 0.05 * max(1.0, abs(target))))
