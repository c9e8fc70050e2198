import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import wmgraph.scaling
from wmgraph import (
    LimitParams,
    ScalingTriple,
    WeightSeq,
    check_regime,
    extinction_profile,
    gen_er_triple,
    gen_powerlaw_triple,
    largest_root,
    psi_eval,
    psi_report,
    powerlaw_alpha0,
)
from wmgraph.scaling import (C4_Y, MAX_BISECT, PSI_BLOCK, TOL_INV,
                             _integral_above_root)

BM = LimitParams(alpha=0.0, beta=1.0, kappa=1.0)          # psi = lam^2/2
SUP = LimitParams(alpha=-1.0, beta=1.0, kappa=1.0)        # root at 2
JUMPY = LimitParams(alpha=-1.0, beta=1.0, kappa=1.0, c=(0.5,))


def test_psi_quadratic_case():
    v = psi_eval(BM, 2.0)
    assert v == 2.0
    lam = np.array([0.0, 1.0, 3.0])
    vals = psi_eval(BM, lam)
    assert vals == pytest.approx([0.0, 0.5, 4.5])


def test_psi_jump_term_hand_value():
    # kappa*c*(e^{-lam*c} - 1 + lam*c) at lam = 2, c = 0.5, on top of
    # -lam + lam^2/2
    expect = -2.0 + 2.0 + 1.0 * 0.5 * (math.exp(-1.0) - 1.0 + 1.0)
    v = psi_eval(JUMPY, 2.0)
    assert v == pytest.approx(expect)


def _reference_psi_eval(p, lam):
    """psi_eval before it formed the lambda x J products in row blocks."""
    lam = np.asarray(lam, dtype=float)
    out = p.alpha * lam + 0.5 * p.beta * lam * lam
    if p.c.size:
        x = np.multiply.outer(lam, p.c)
        out = out + (p.kappa * p.c * (np.expm1(-x) + x)).sum(axis=-1)
    return out


@pytest.mark.parametrize("J", [0, 3, 10_000])
def test_psi_eval_blocks_are_bit_identical(J):
    # one block holds at most PSI_BLOCK products: 3 rows at J = 1e4,
    # 10,922 at J = 3
    rng = np.random.default_rng(J)
    p = LimitParams(-0.7, 1.3, 0.9, np.sort(rng.pareto(1.5, J))[::-1])
    rows = PSI_BLOCK // max(J, 1)
    lam = np.geomspace(1e-4, 1e7, min(2 * rows + 5, 25_000))
    vals = psi_eval(p, lam)
    assert np.array_equal(vals, _reference_psi_eval(p, lam))
    ones = [psi_eval(p, x) for x in lam]
    assert all(type(v) is float for v in ones)
    assert np.array_equal(ones, vals)
    grid = psi_eval(p, lam[:6].reshape(2, 3))
    assert np.array_equal(grid, vals[:6].reshape(2, 3))


def test_largest_root():
    assert largest_root(BM) == 0.0
    assert largest_root(SUP) == pytest.approx(2.0, abs=1e-8)
    rho = largest_root(JUMPY)
    assert psi_eval(JUMPY, rho) == pytest.approx(0.0, abs=1e-8)
    assert psi_eval(JUMPY, rho + 0.1) > 0


def _reference_largest_root(p):
    """The root bisection as first written, kept as the reference for
    ``largest_root``."""
    if p.alpha >= 0:
        return 0.0
    hi = 1.0
    it = 0
    with np.errstate(over="ignore"):
        while psi_eval(p, hi) <= 0:
            hi *= 2.0
            it += 1
            if it > MAX_BISECT:
                raise RuntimeError("could not bracket the root of psi")
    lo = 0.0
    for _ in range(MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if psi_eval(p, mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < TOL_INV:
            break
    return 0.5 * (lo + hi)


def _outcome(f, *args):
    try:
        return f(*args)
    except (RuntimeError, ValueError) as exc:
        return type(exc)


@pytest.mark.parametrize("seed", range(10))
def test_roots_equal_the_two_bisections_they_replace(seed):
    # hugely negative alpha, or beta = 0 with a linear tail: brackets
    # fail, and must fail alike.  Fixed edge: a bracket found on the
    # last doubling allowed (root near 2^199.5)
    rng = np.random.default_rng(seed)
    edges = [LimitParams(-1.0, 2.0 ** -198.5, 1.0)]
    for _ in range(12):
        alpha = rng.choice([3.0 * rng.normal(), -1e3 * rng.exponential(),
                            -1e300, 0.0])
        c = np.sort(rng.exponential(size=rng.integers(0, 6))
                    * rng.choice([1.0, 100.0]))[::-1]
        p = LimitParams(alpha, rng.choice([0.0, rng.exponential(), 1e-300]),
                        rng.exponential() + 0.01, c)
        edges.append(p)
    for p in edges:
        with np.errstate(over="ignore"):
            assert (_outcome(largest_root, p)
                    == _outcome(_reference_largest_root, p))
    # psi(hi) = -inf + inf = NaN from hi = 2^178 on, before psi turns
    # positive (true root 2e100): no bracket, where the old doubling
    # stopped on the NaN and returned 3.06e54, a point where psi is NaN
    nan_edge = LimitParams(-1e300, 1e200, 1.0)
    with pytest.raises(RuntimeError, match="could not bracket"):
        largest_root(nan_edge)


def test_root_bisection_stops_when_the_bracket_cannot_shrink(monkeypatch):
    # at rho = 1e6 an ulp (1.2e-10) exceeds TOL_INV, so the width test
    # never fires; the bisection must stop once lo and hi are adjacent
    p = LimitParams(alpha=-5e5, beta=1.0, kappa=1.0)    # root -2*alpha/beta
    expect = _reference_largest_root(p)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return psi_eval(*args, **kwargs)

    monkeypatch.setattr(wmgraph.scaling, "psi_eval", counted)
    rho = largest_root(p)
    assert rho == expect
    assert len(calls) <= 80
    assert rho == pytest.approx(-2.0 * p.alpha / p.beta, rel=1e-15)


@given(st.floats(min_value=0.0, max_value=10.0),
       st.floats(min_value=0.0, max_value=10.0),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_psi_convex(x, y, lam):
    m = lam * x + (1 - lam) * y
    fm = psi_eval(JUMPY, m)
    bound = lam * psi_eval(JUMPY, x) + (1 - lam) * psi_eval(JUMPY, y)
    assert fm <= bound + 1e-9 * max(1.0, abs(bound))


def test_extinction_profile_quadratic_closed_form():
    # psi = lam^2/2 gives int_v^inf 2/lam^2 = 2/v, so v(t) = 2/t exactly
    assert extinction_profile(BM, 0.5) == pytest.approx(4.0, rel=1e-6)
    assert extinction_profile(BM, 2.0) == pytest.approx(1.0, rel=1e-6)
    assert extinction_profile(BM, 1.0) == pytest.approx(2.0, rel=1e-6)


def test_extinction_profile_stays_above_root():
    v = extinction_profile(SUP, 3.0)
    assert v > largest_root(SUP)
    rep = psi_report(SUP)
    assert rep.is_grey
    for t in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="t must be positive"):
            extinction_profile(SUP, t)


@pytest.mark.parametrize("alpha,beta,t", [
    (5.0, 1.0, 4.0), (3.0, 2.0, 6.0),          # v(t) of order 1e-8
    (0.0, 1.0, 0.5), (0.0, 1.0, 2.0), (0.0, 1.0, 1e-9),
    (-1.0, 1.0, 1.0), (-1.0, 1.0, 3.0),
])
def test_extinction_profile_closed_forms(alpha, beta, t):
    # psi = alpha*lam + beta*lam^2/2 gives v(t) = (2a/b)/expm1(a*t): 2/t at
    # a = 0, and 2/(1 - e^{-t}) at a = -1, b = 1 (root 2)
    if alpha == 0.0:
        exact = 2.0 / t
    else:
        exact = (2.0 * alpha / beta) / math.expm1(alpha * t)
    v = extinction_profile(LimitParams(alpha, beta, 1.0), t)
    assert abs(v - exact) <= 1e-9 * exact


def test_gauss_legendre_table():
    # the profile's 8-point rule: numpy's nodes and weights, and exact on
    # every polynomial of degree <= 15
    x, w = np.polynomial.legendre.leggauss(8)
    order = np.argsort(wmgraph.scaling._GL_X)
    assert np.allclose(wmgraph.scaling._GL_X[order], x, rtol=0, atol=1e-15)
    assert np.allclose(wmgraph.scaling._GL_W[order], w, rtol=0, atol=1e-15)
    for k in range(16):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        rule = wmgraph.scaling._GL_W @ wmgraph.scaling._GL_X ** k
        assert rule == pytest.approx(exact, abs=1e-15)


@pytest.mark.parametrize("t", [8.0, 20.0, 30.0])
def test_extinction_profile_near_the_root(t):
    # v(t) - 2 = 2/expm1(t) is 1.9e-13 at t = 30, below the 5e-11 to which
    # the root bisection places rho = 2: the ladder walks down until
    # rho + e^s == rho and returns rho, still within 1e-9 of v
    exact = 2.0 / -math.expm1(-t)
    v = extinction_profile(SUP, t)
    assert abs(v - exact) <= 1e-9 * exact
    assert v >= largest_root(SUP)


def test_extinction_profile_closed_form_branch_is_exact():
    # for t <= L/psi(L) the profile is the envelope value L^2/(psi(L)*t)
    # itself, with no quadrature
    p = gen_powerlaw_triple(1000, rho=2.5,
                            alpha=powerlaw_alpha0(2.5, 1.0, 1.0)).declared_limit
    for q, t in ((BM, 1e-9), (SUP, 1e-7), (p, 1e-7)):
        L = psi_report(q).lambda_max
        psi_L = psi_eval(q, L)
        assert t <= L / psi_L
        assert extinction_profile(q, t) == L * L / (psi_L * t)


def _reference_extinction_profile(p, t):
    """The bisection solver the Newton solve replaced: every bracket step
    integrates 1/psi over the whole geometric ladder up to lambda_max."""
    rep = psi_report(p)
    L = rep.lambda_max
    base = psi_eval(p, L)

    def f(v):
        total = 0.0
        if v < L:
            knots = [v]
            while knots[-1] < L:
                knots.append(min(knots[-1] * 4.0, L))
            for a, b in zip(knots, knots[1:]):
                total += quad(lambda u: 1.0 / psi_eval(p, u), a, b,
                              limit=200)[0]
        return total + L ** 2 / (base * max(v, L))

    lo = rep.root
    hi = max(2.0 * rep.root, 1.0)
    while f(hi) > t:
        hi *= 2.0
    for _ in range(MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if f(mid) > t:
            lo = mid
        else:
            hi = mid
        if hi - lo < TOL_INV * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


POWERLAW_TIMES = (0.25, 0.5, 1.0, 2.0, 4.0)


@pytest.mark.parametrize("shift", [-0.9, 0.0, 0.9])
def test_extinction_profile_matches_bisection_reference(shift):
    # the three power-law limits across the critical window; the reference
    # stops on an absolute bracket width below v = 1
    alpha = powerlaw_alpha0(2.5, 1.0, 1.0) + shift
    p = gen_powerlaw_triple(1000, rho=2.5, alpha=alpha).declared_limit
    for t in POWERLAW_TIMES:
        v = extinction_profile(p, t)
        ref = _reference_extinction_profile(p, t)
        assert abs(v - ref) <= TOL_INV * max(1.0, v) + 1e-8 * v, (t, v, ref)


def test_extinction_profile_matches_reference_above_a_positive_root():
    # rho = 0.667 > 0 with jumps: the ladder in log(u - rho) starts at the
    # root, where 1/psi has its pole
    p = LimitParams(alpha=-0.5, beta=1.0, kappa=1.0, c=(0.8, 0.4, 0.2))
    rho = largest_root(p)
    assert rho > 0.5
    prev = math.inf
    for t in POWERLAW_TIMES + (8.0,):
        v = extinction_profile(p, t)
        ref = _reference_extinction_profile(p, t)
        assert abs(v - ref) <= TOL_INV * max(1.0, v) + 1e-8 * v, (t, v, ref)
        assert rho < v <= prev
        prev = v


def test_extinction_profile_psi_eval_budget(monkeypatch):
    # counted as the benchmark counts them: scaling looks psi_eval up at
    # call time.  The bisection solver made 5,614-12,931 calls here, the
    # adaptive quad ladder 302-1,033 calls of one lambda each
    orig = wmgraph.scaling.psi_eval
    calls = [0]
    points = [0]

    def counted(p, lam, *args, **kwargs):
        calls[0] += 1
        points[0] += np.size(lam)
        return orig(p, lam, *args, **kwargs)

    monkeypatch.setattr(wmgraph.scaling, "psi_eval", counted)
    for shift in (-0.9, 0.0, 0.9):
        p = gen_powerlaw_triple(
            10_000, rho=2.5,
            alpha=powerlaw_alpha0(2.5, 1.0, 1.0) + shift).declared_limit
        for t in POWERLAW_TIMES:
            calls[0] = points[0] = 0
            extinction_profile(p, t)
            assert 0 < calls[0] <= 2500, (shift, t, calls[0])
            assert points[0] <= 400, (shift, t, points[0])


def test_psi_eval_call_counts_are_pinned(monkeypatch):
    # the benchmark's psi_evals counter patches the module global, so every
    # call inside scaling must go through it; a change in these counts
    # moves that per-layer counter
    orig = wmgraph.scaling.psi_eval
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(wmgraph.scaling, "psi_eval", counted)
    p = LimitParams(-2.0, 2.0, 1.0, c=(1e-3,) * 10_000)
    psi_report(p)
    assert calls[0] == 39
    # the report, psi(L) and the ladder panels are memoized on p: each
    # profile pays only the panels below the deepest walked so far and
    # its own Newton steps
    for t, expect in zip(POWERLAW_TIMES, (15, 3, 4, 5, 5)):
        calls[0] = 0
        extinction_profile(p, t)
        assert calls[0] == expect, t
    calls[0] = 0
    psi_report(p)
    assert calls[0] == 0


def _profile_limits():
    alpha0 = powerlaw_alpha0(2.5, 1.0, 1.0)
    for shift in (-0.9, 0.9):
        yield lambda: gen_powerlaw_triple(
            1000, rho=2.5, alpha=alpha0 + shift).declared_limit
    yield lambda: LimitParams(-2.0, 2.0, 1.0, c=(1e-3,) * 1000)
    yield lambda: LimitParams(-0.5, 1.0, 1.0, c=(0.8, 0.4, 0.2))
    yield lambda: LimitParams(-1.0, 1.0, 1.0)    # SUP: t = 30 hits rho
    yield lambda: LimitParams(0.0, 1.0, 1.0)


@pytest.mark.parametrize("make", list(_profile_limits()))
def test_extinction_profile_is_the_same_in_any_call_order(make):
    # the memoized ladder grows with the deepest t asked; values must not
    # depend on the order in which the panels were built
    times = (1e-9,) + POWERLAW_TIMES + (8.0, 30.0)
    forward = [extinction_profile(make(), t) for t in times]   # fresh each
    p = make()
    walked = [extinction_profile(p, t) for t in times]
    q = make()
    backward = [extinction_profile(q, t) for t in reversed(times)][::-1]
    for want, a, b in zip(forward, walked, backward):
        assert want.hex() == a.hex() == b.hex()
    assert q._cache["ladder"] == p._cache["ladder"]


def test_limit_params_hold_a_read_only_copy_of_c():
    c = np.array([0.8, 0.4, 0.2])
    p = LimitParams(-0.5, 1.0, 1.0, c=c)
    v = extinction_profile(p, 1.0)
    c[0] = 5.0     # the caller's array is not the limit's
    assert p.c[0] == 0.8 and not p.c.flags.writeable
    with pytest.raises(ValueError):
        p.c[0] = 5.0
    assert extinction_profile(p, 1.0) == v
    assert repr(p) == ("LimitParams(alpha=-0.5, beta=1.0, kappa=1.0, "
                       "c=array([0.8, 0.4, 0.2]))")


def test_grey_verdict_fails_without_curvature():
    # alpha = -1, one jump of size 1 at kappa = 2: psi crosses zero but is
    # asymptotically linear, so the tail integral of 1/psi diverges
    p = LimitParams(alpha=-1.0, beta=0.0, kappa=2.0, c=(1.0,))
    rep = psi_report(p)
    assert not rep.is_grey
    with pytest.raises(ValueError, match="diverges"):
        extinction_profile(p, 1.0)


@pytest.mark.parametrize("c", [(), (0.0, 0.0)])
def test_zero_psi_has_no_grey_tail(c):
    # alpha = beta = 0 with no jumps, or with jumps of size 0: psi == 0,
    # so psi(L) = 0 and the tail integral of 1/psi diverges
    p = LimitParams(alpha=0.0, beta=0.0, kappa=1.0, c=c)
    rep = psi_report(p)
    assert (rep.root, rep.is_grey, rep.grey_integral_tail) == (
        0.0, False, math.inf)
    with pytest.raises(ValueError, match="diverges"):
        extinction_profile(p, 1.0)


@pytest.mark.parametrize("text", [
    '{"schema":1,"alpha":0,"beta":1,"kappa":1e300,"c":[1e9]}',
    '{"schema":1,"alpha":0,"beta":1e300,"kappa":1}',
])
def test_psi_overflowing_at_the_cutoff_is_refused(text):
    # kappa*c_j overflows; or beta*L^2/2 does, though this quadratic psi's
    # tail converges: either way an overflow, not a divergent tail
    p = LimitParams.from_json(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            psi_report(p)
    assert "psi overflows at the cutoff lambda = 1e+06" in str(exc.value)
    assert "diverges" not in str(exc.value)


def test_psi_n_hand_value():
    tr = ScalingTriple(a=1.0, b=1.0, weights=WeightSeq([1.0]))
    # drift vanishes (sigma_2 = sigma_1); curve = e^{-lam} - 1 + lam
    lim = tr.matched_limit()
    assert (lim.alpha, lim.beta, lim.kappa, lim.c.tolist()) == (
        0.0, 0.0, 1.0, [1.0])
    assert psi_eval(lim, 1.0) == pytest.approx(math.exp(-1.0))
    vals = psi_eval(lim, np.array([0.0, 1.0]))
    assert vals == pytest.approx([0.0, math.exp(-1.0)])


def test_psi_n_converges_to_er_limit():
    lam = np.array([0.5, 1.0, 2.0])
    gaps = []
    for n in (10 ** 3, 10 ** 5):
        tr = gen_er_triple(n, 1.0 / n)
        target = psi_eval(tr.declared_limit, lam)
        gaps.append(np.max(np.abs(psi_eval(tr.matched_limit(), lam) - target)))
    assert gaps[1] < gaps[0]
    # convergence rate is of order a_n^{-1} = n^{-1/3}
    assert gaps[1] < 5e-2


def test_check_regime_er_family():
    family = [gen_er_triple(n, 1.0 / n) for n in (10 ** 3, 10 ** 4, 10 ** 5)]
    rep = check_regime(family, family[-1].declared_limit)
    assert all(rep.verdicts.values()), rep.verdicts
    assert rep.beta0_proxy == pytest.approx(np.ones(3))
    assert np.all(rep.c4_integrals >= 0)


def test_check_regime_rejects_empty():
    with pytest.raises(ValueError):
        check_regime([], BM)


def test_check_regime_powerlaw_family():
    # every psi_n here dips below 0 and turns positive before a_n: the
    # integrals run across a root, where 1/psi_n is not integrable
    family = [gen_powerlaw_triple(n, 2.5) for n in (10 ** 4, 10 ** 5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_regime(family, family[-1].declared_limit)
    assert np.all(np.isinf(rep.c4_integrals))
    assert not rep.verdicts["c4_integrals_decreasing_in_y"]
    assert np.all(rep.c1 < 0)    # C1 diverges from the declared alpha > 0


def _critical_powerlaw_family(rho):
    """Critical power laws: raw weights (j/n)^(-1/rho) times
    (rho - 2)/(rho - 1), a = w_1 and b = sigma_1/a, against alpha_0, beta
    = 0, kappa = 1 and c_j = j^(-1/rho)."""
    family = []
    for n in (10 ** 3, 10 ** 4, 10 ** 5):
        w = WeightSeq((np.arange(1, n + 1) / n) ** (-1.0 / rho)
                      * ((rho - 2.0) / (rho - 1.0)))
        a = float(w.w[0])
        limit = LimitParams(alpha=powerlaw_alpha0(rho, 1.0, 1.0), beta=0.0,
                            kappa=1.0, c=np.arange(1.0, n + 1) ** (-1.0 / rho))
        family.append(ScalingTriple(a=a, b=w.sigma(1.0) / a, weights=w,
                                    declared_limit=limit))
    return family


@pytest.mark.parametrize("rho, c1", [(2.5, (4.227, 4.353, 4.404)),
                                     (2.2, (10.10, 10.31, 10.39))])
def test_check_regime_critical_powerlaw_family(rho, c1):
    # the first power-law family whose C4 integrals are finite: no psi_n
    # has a root past 0, and C1 rises toward alpha_0
    family = _critical_powerlaw_family(rho)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_regime(family, family[-1].declared_limit)
    assert all(rep.verdicts.values()), rep.verdicts
    # finite and decreasing in y; a y >= a_n (at n = 1e3, 1e4) reads 0
    assert np.all(np.isfinite(rep.c4_integrals))
    assert np.all(np.diff(rep.c4_integrals[-1]) < 0)
    assert np.all(rep.c4_integrals[-1] > 0)
    assert rep.c1 == pytest.approx(c1, abs=5e-3)
    assert rep.c1[-1] < family[-1].declared_limit.alpha


def _reference_psi_n(tr, lam):
    """The retired psi_n_eval: drift (b/a)(1 - sigma_2/sigma_1)*lambda plus
    (a*b/sigma_1) * sum_j (w_j/a)(e^{-lambda w_j/a} - 1 + lambda w_j/a)."""
    lam = np.asarray(lam, dtype=float)
    w = tr.weights
    s1, s2 = w.sigma(1.0), w.sigma(2.0)
    u = w.w / tr.a
    x = np.multiply.outer(lam, u)
    drift = (tr.b / tr.a) * (1.0 - s2 / s1) * lam
    return drift + (tr.a * tr.b / s1) * (u * (np.expm1(-x) + x)).sum(axis=-1)


def _reference_check_regime(family, p):
    """The retired check_regime on its own formulas: C1 to C3 from the
    power sums, C4 by adaptive quad on psi_n."""
    a = np.asarray([tr.a for tr in family])
    b = np.asarray([tr.b for tr in family])
    s1, s2, s3 = (np.asarray([tr.weights.sigma(q) for tr in family])
                  for q in (1.0, 2.0, 3.0))
    c1 = (b / a) * (1.0 - s2 / s1)
    c2 = (b / a ** 2) * (s3 / s1)
    J = min(20, min(tr.weights.j_max for tr in family))
    c3 = family[-1].weights.w[:J] / family[-1].a
    c4 = np.zeros((len(family), len(C4_Y)))
    for i, tr in enumerate(family):
        psi_y = _reference_psi_n(tr, np.append(C4_Y, tr.a))
        for k in np.flatnonzero(np.asarray(C4_Y) < tr.a):
            c4[i, k] = (math.inf if psi_y[k] <= 0 <= psi_y[-1] else
                        quad(lambda u: 1.0 / _reference_psi_n(tr, u),
                             C4_Y[k], tr.a, limit=200)[0])
    beta0 = b / a ** 2
    cJ = np.pad(p.c[:J], (0, J - len(p.c[:J])))
    verdicts = {
        "c1_to_alpha": wmgraph.scaling._trendy(c1, p.alpha),
        "c2_to_beta_plus_kappa_sigma3": wmgraph.scaling._trendy(
            c2, p.beta + p.kappa * float(np.sum(p.c ** 3))),
        "c3_to_c": bool(np.all(np.abs(c3 - cJ)
                               <= np.maximum(0.05 * np.abs(cJ), 0.05))),
        "height_scale_via_beta0": bool(beta0[-1] > 1e-9),
        "c4_integrals_decreasing_in_y": bool(
            np.all(np.isfinite(c4[-1])) and np.all(np.diff(c4[-1]) <= 1e-12)),
    }
    return c1, beta0, c4, verdicts


_NS = (10 ** 3, 10 ** 4, 10 ** 5)
REGIME_FAMILIES = {
    "er": lambda: [gen_er_triple(n, 1.0 / n) for n in _NS],
    "er-above": lambda: [gen_er_triple(n, (1 + 2 * n ** (-1 / 3)) / n)
                         for n in _NS],
    "er-below": lambda: [gen_er_triple(n, (1 - 2 * n ** (-1 / 3)) / n)
                         for n in _NS],
    "powerlaw": lambda: [gen_powerlaw_triple(n, 2.5)
                         for n in (10 ** 4, 10 ** 5)],
    "critical-powerlaw-2.5": lambda: _critical_powerlaw_family(2.5),
    "critical-powerlaw-2.2": lambda: _critical_powerlaw_family(2.2),
}


def _eager_c4(family):
    """C4 as check_regime took it when it bisected every member's root
    first, read or not; and the number of members whose panels read it."""
    c4, readers = np.zeros((len(family), len(C4_Y))), 0
    for i, tr in enumerate(family):
        lim = tr.matched_limit()
        rho = largest_root(lim)
        for k, y in enumerate(C4_Y):
            if y < tr.a:
                c4[i, k] = (math.inf if psi_eval(lim, y) <= 0 else
                            _integral_above_root(lim, rho, y, tr.a))
        readers += any(y < tr.a and psi_eval(lim, y) > 0 for y in C4_Y)
    return c4, readers


@pytest.mark.parametrize("make", REGIME_FAMILIES.values(),
                         ids=REGIME_FAMILIES.keys())
def test_check_regime_matches_retired_formulas(make, monkeypatch):
    # psi of the matched limit against the retired psi_n formula, and the
    # panel C4 against adaptive quad: measured 4.0e-15 and 1.6e-14 relative
    family = make()
    p = family[-1].declared_limit
    eager, readers = _eager_c4(family)
    roots = []
    monkeypatch.setattr(wmgraph.scaling, "largest_root",
                        lambda lim: roots.append(lim) or largest_root(lim))
    rep = check_regime(family, p)
    # a root is bisected once for each member whose panels read it (none
    # on the power-law family), and C4 keeps the eager bisection's bits
    assert len(roots) == readers
    assert np.array_equal(rep.c4_integrals.view(np.int64),
                          eager.view(np.int64))
    c1, beta0, c4, verdicts = _reference_check_regime(family, p)
    assert rep.verdicts == verdicts
    assert np.array_equal(rep.c1, c1)
    assert np.array_equal(rep.beta0_proxy, beta0)
    assert np.array_equal(np.isinf(rep.c4_integrals), np.isinf(c4))
    finite = np.isfinite(c4)
    assert np.allclose(rep.c4_integrals[finite], c4[finite], rtol=1e-13,
                       atol=0.0)
    for tr in family:
        lim = tr.matched_limit()
        lam = np.array([*C4_Y, tr.a])
        assert np.allclose(psi_eval(lim, lam), _reference_psi_n(tr, lam),
                           rtol=1e-14, atol=0.0)
        # psi_n(a_n) = (b/sigma_1) sum_j w_j e^{-w_j} > 0
        w = tr.weights.w
        assert psi_eval(lim, tr.a) > 0
        assert psi_eval(lim, tr.a) == pytest.approx(
            tr.b / tr.weights.sigma(1.0) * math.fsum(w * np.exp(-w)),
            rel=1e-12)


def test_c4_panels_read_a_y_not_above_the_root_as_inf():
    # psi = lambda^2/2 - lambda: root 2, and int_y^top du/psi =
    # log((top - 2)/top) - log((y - 2)/y).  rho is known to TOL_INV only,
    # so a y at or below it reads as the root, even where psi(y) > 0
    rho = largest_root(SUP)
    assert abs(rho - 2.0) < TOL_INV
    assert _integral_above_root(SUP, rho, 3.0, 16.0) == pytest.approx(
        math.log(14.0 / 16.0) - math.log(1.0 / 3.0), rel=1e-13)
    for y in (rho, math.nextafter(rho, 0.0), rho - 0.5 * TOL_INV):
        assert _integral_above_root(SUP, rho, y, 16.0) == math.inf
    assert math.isfinite(_integral_above_root(SUP, rho, rho + TOL_INV, 16.0))
