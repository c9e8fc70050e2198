import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmgraph import (
    LimitParams,
    ScalingTriple,
    WeightSeq,
    er_limit_params,
    gen_er_triple,
    gen_powerlaw_triple,
    powerlaw_alpha0,
    sigma_r,
)
from wmgraph.weights import _zeta_em

weight_vectors = st.lists(
    st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
    min_size=1, max_size=30)


def test_weights_sorted_and_positive():
    w = WeightSeq([1.0, 3.0, 2.0])
    assert np.all(w.w == [3.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        WeightSeq([1.0, 0.0])
    with pytest.raises(ValueError):
        WeightSeq([])
    with pytest.raises(ValueError):
        WeightSeq([math.inf, 1.0])
    # sigma_1 overflows, or its square does
    with pytest.raises(ValueError, match="square of the weight sum"):
        WeightSeq([1e308, 1e308])
    with pytest.raises(ValueError, match="square of the weight sum"):
        WeightSeq([1e200, 1.0])


def test_sigma_hand_values():
    w = WeightSeq([3.0, 2.0, 2.0, 1.0, 1.0, 1.0])
    assert w.sigma(1.0) == 10.0
    assert w.sigma(2.0) == 20.0
    assert w.sigma(3.0) == 46.0
    assert sigma_r(WeightSeq([2.0, 1.0]), 2.0) == 5.0


def _reference_sigma_r(w, r):
    """The old generator over numpy scalars, kept as the reference for
    ``sigma_r``."""
    return math.fsum(float(x) ** r for x in w.w)


@pytest.mark.parametrize("r", [0.7, 1, 1.0, 2, 2.0, 3.0])
def test_sigma_r_matches_scalar_generator_bit_for_bit(r):
    pareto = np.random.default_rng(3).pareto(1.5, 5000) + 1.0
    for w in (WeightSeq(np.ones(5000)), gen_powerlaw_triple(5000, 2.5).weights,
              WeightSeq(pareto), WeightSeq([0.1, 2.0 ** -53, 1e-300])):
        assert sigma_r(w, r).hex() == _reference_sigma_r(w, r).hex()


def test_sigma_fsum_exactness():
    # dyadic weights sum exactly in float arithmetic
    w = WeightSeq([0.5, 0.25, 0.125] * 100)
    assert w.sigma(1.0) == 100 * 0.875


@given(weight_vectors, st.floats(min_value=0.5, max_value=4.0))
@settings(max_examples=50, deadline=None)
def test_sigma_homogeneity(ws, lam):
    w = WeightSeq(ws)
    w2 = WeightSeq(lam * np.asarray(sorted(ws, reverse=True)))
    for r in (1.0, 2.0, 3.0):
        assert sigma_r(w2, r) == pytest.approx(lam ** r * sigma_r(w, r),
                                               rel=1e-12)


@given(weight_vectors)
@settings(max_examples=50, deadline=None)
def test_sigma_monotone_in_extension(ws):
    w = WeightSeq(ws)
    w2 = WeightSeq(list(ws) + [1.0])
    for r in (1.0, 2.0, 3.0):
        assert sigma_r(w2, r) > sigma_r(w, r)


def test_json_roundtrips():
    w = WeightSeq([2.0, 1.0])
    assert WeightSeq.from_json(w.to_json()).w.tolist() == [2.0, 1.0]
    assert json.loads(w.to_json()) == {"schema": 1, "w": [2.0, 1.0]}
    assert WeightSeq.from_json("[1, 2]").w.tolist() == [2.0, 1.0]
    p = LimitParams(-1.0, 2.0, 3.0, c=(0.5, 0.25))
    p2 = LimitParams.from_json(p.to_json())
    assert (p2.alpha, p2.beta, p2.kappa) == (-1.0, 2.0, 3.0)
    assert p2.c.tolist() == [0.5, 0.25]
    assert json.loads(p.to_json())["schema"] == 1
    tr = gen_er_triple(100, 0.01)
    tr2 = ScalingTriple.from_json(tr.to_json())
    assert tr2.n == 100 and tr2.a == tr.a and tr2.b == tr.b


_HUGE = "1" + "0" * 400    # a JSON integer beyond the float range


@pytest.mark.parametrize("loader,text", [
    (WeightSeq.from_json, '{"schema": 1, "w": [{"a": 1}]}'),
    (WeightSeq.from_json, '{"schema": 1, "w": "2, 1"}'),
    (WeightSeq.from_json, '[1, null]'),
    (WeightSeq.from_json, '["2", 1]'),
    (LimitParams.from_json, '{"schema": 1, "alpha": null, "beta": 1, "kappa": 1}'),
    (LimitParams.from_json, '{"schema": 1, "alpha": 0, "beta": true, "kappa": 1}'),
    (LimitParams.from_json, '{"schema": 1, "alpha": 0, "beta": 1, "kappa": "1"}'),
    (LimitParams.from_json,
     '{"schema": 1, "alpha": 0, "beta": 1, "kappa": 1, "c": [[1]]}'),
    (ScalingTriple.from_json,
     '{"schema": 1, "n": 2.5, "a": 1, "b": 1, "weights": [1, 1]}'),
    (ScalingTriple.from_json,
     '{"schema": 1, "n": 2, "a": [1], "b": 1, "weights": [1, 1]}'),
    (ScalingTriple.from_json,
     '{"schema": 1, "n": 2, "a": 1, "b": 1, "weights": {"w": [1, 1]}}'),
    # integers too large for a float
    pytest.param(WeightSeq.from_json,
                 f'{{"schema": 1, "w": [{_HUGE}, 1]}}',
                 id="WeightSeq-huge-w"),
    pytest.param(LimitParams.from_json,
                 f'{{"schema": 1, "alpha": 0, "beta": {_HUGE}, "kappa": 1}}',
                 id="LimitParams-huge-beta"),
    pytest.param(LimitParams.from_json,
                 f'{{"schema": 1, "alpha": 0, "beta": 1, "kappa": 1, "c": [{_HUGE}]}}',
                 id="LimitParams-huge-c"),
    pytest.param(ScalingTriple.from_json,
                 f'{{"schema": 1, "n": 2, "a": {_HUGE}, "b": 1, "weights": [1, 1]}}',
                 id="ScalingTriple-huge-a"),
    pytest.param(ScalingTriple.from_json,
                 f'{{"schema": 1, "n": 2, "a": 1, "b": 1, "weights": [{_HUGE}, 1]}}',
                 id="ScalingTriple-huge-weights"),
])
def test_loaders_reject_wrong_value_types(loader, text):
    with pytest.raises(ValueError, match="must be a"):
        loader(text)


def test_limit_params_validation():
    with pytest.raises(ValueError):
        LimitParams(0.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        LimitParams(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        LimitParams(0.0, 1.0, 1.0, c=(0.25, 0.5))
    with pytest.raises(ValueError, match="c_j\\^3 must be finite"):
        LimitParams(0.0, 1.0, 1.0, c=(1e200,))
    with pytest.raises(ValueError, match="c_j\\^3 must be finite"):
        LimitParams(0.0, 1.0, 1.0, c=(5e102, 5e102))


def test_scaling_family_validation():
    w = WeightSeq([2.0, 1.0])
    for a, b in ((0.0, 1.0), (math.inf, 1.0), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="a_n must be"):
            ScalingTriple(n=2, a=a, b=b, weights=w)
        with pytest.raises(ValueError, match="b_n must be"):
            ScalingTriple(n=2, a=b, b=a, weights=w)
    for r in (0.0, -1.0):
        with pytest.raises(ValueError, match="r must be positive"):
            sigma_r(w, r)
    for p in (0.0, 1.0, -0.5, math.nan):
        with pytest.raises(ValueError, match="p must lie"):
            gen_er_triple(10, p)
    with pytest.raises(ValueError, match="n must be at least 1"):
        gen_er_triple(0, 0.5)
    for rho in (2.0, 3.0, math.nan):
        with pytest.raises(ValueError, match="rho must lie"):
            powerlaw_alpha0(rho, 1.0, 1.0)
    with pytest.raises(ValueError, match="n must be at least 1"):
        gen_powerlaw_triple(0, 2.5)
    with pytest.raises(ValueError, match="tilt factor is nonpositive"):
        gen_powerlaw_triple(100, 2.5, alpha=1e6)


def test_er_triple_normalization():
    n = 1000
    p = 1 - math.exp(-1 / n)
    tr = gen_er_triple(n, p)
    assert tr.a == pytest.approx(n ** (1 / 3))
    assert tr.b == tr.a * tr.a  # exact by construction
    assert np.all(tr.weights.w == tr.weights.w[0])
    # alpha = 0 exactly at this p
    assert tr.weights.w[0] == pytest.approx(1.0, rel=1e-12)
    assert er_limit_params(n, p).alpha == pytest.approx(0.0, abs=1e-9)


def test_zeta_euler_maclaurin():
    assert _zeta_em(2.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-14)
    # reference value of zeta(1/2)
    assert _zeta_em(0.5) == pytest.approx(-1.4603545088095868, rel=1e-12)


def test_powerlaw_alpha0_oracle():
    # frozen from the closed form -kappa*q^2*zeta(2/rho), cross-checked
    # against partial sums of int_1^inf frac(x) x^(-2/rho-1) dx / rho
    assert powerlaw_alpha0(2.5, 1.0, 1.0) == pytest.approx(
        4.437538415895549, rel=1e-12)
    assert powerlaw_alpha0(2.5, 2.0, 3.0) == pytest.approx(
        12 * 4.437538415895549, rel=1e-12)


def test_powerlaw_alpha0_vs_quadrature():
    # independent oracle: partial sums with a mean-1/2 tail correction
    from scipy.integrate import quad
    rho = 2.7
    expo = -2.0 / rho - 1.0
    tot = 0.0
    K = 4000
    for k in range(1, K):
        piece, _ = quad(lambda x: (x - k) * x ** expo, k, k + 1)
        tot += piece
    # remaining tail: frac averages 1/2, first-order correction negligible
    tot += 0.5 * K ** (expo + 1.0) / (-expo - 1.0)
    integral = tot / rho
    expected = 2.0 * (integral + 1.0 / (rho - 2.0))
    assert powerlaw_alpha0(rho, 1.0, 1.0) == pytest.approx(expected, rel=1e-4)


def test_powerlaw_triple_shape():
    tr = gen_powerlaw_triple(1000, 2.5)
    w = tr.weights.w
    assert w[0] / tr.a == pytest.approx(1.0, rel=1e-12)  # tilt is exactly 1
    assert np.all(np.diff(w) < 0)
    assert tr.b == pytest.approx(tr.declared_limit.kappa * tr.weights.sigma(1.0) / tr.a)
    assert tr.declared_limit.beta == 0.0
    # the declared jump sizes are q*j^(-1/rho), independent of n
    c = tr.declared_limit.c
    assert c[:5] == pytest.approx(np.arange(1.0, 6.0) ** (-1.0 / 2.5))
    c2 = gen_powerlaw_triple(2000, 2.5).declared_limit.c
    assert c2[:c.size] == pytest.approx(c)
    with pytest.raises(ValueError):
        gen_powerlaw_triple(100, 3.5)
