import math

import numpy as np
import pytest

from wmgraph import (
    LimitParams,
    default_truncation,
    gen_powerlaw_triple,
    limit_masses,
    powerlaw_alpha0,
    simulate_limit_Y,
)

PURE_JUMP = LimitParams(alpha=0.5, beta=0.0, kappa=1.0, c=(0.8, 0.4))


def test_forced_jumps_exact_on_grid():
    # beta = 0 removes the Brownian part: the path is deterministic given
    # the jump times.  Y_t = -alpha*t - sum_j c_j^2*kappa*t + jumps.
    g = simulate_limit_Y(PURE_JUMP, dt=0.01, T=1.0, forced_E=(0.25, 0.6))
    drift = 0.5 + 0.8 ** 2 + 0.4 ** 2
    t = g.t
    expect = -drift * t + 0.8 * (t >= 0.25) + 0.4 * (t >= 0.6)
    assert g.values == pytest.approx(expect, abs=1e-12)
    assert g.truncation_J == 2
    assert g.truncation_bound == 0.0


def test_forced_jump_snaps_into_containing_cell():
    g = simulate_limit_Y(PURE_JUMP, dt=0.1, T=1.0, forced_E=(0.25, 2.0))
    # the jump at 0.25 lands at the grid point 0.3 (end of its cell);
    # the jump past T never lands
    k = np.searchsorted(g.t, 0.3)
    assert g.values[k] - g.values[k - 1] == pytest.approx(
        0.8 - (0.5 + 0.8 ** 2 + 0.4 ** 2) * 0.1)
    assert np.max(g.values + (0.5 + 0.8 ** 2 + 0.4 ** 2) * g.t) \
        == pytest.approx(0.8)


def test_default_truncation_meets_target():
    c = 1.0 / np.arange(1.0, 2000.0) ** 0.9
    p = LimitParams(alpha=0.0, beta=1.0, kappa=1.0, c=c)
    J = default_truncation(p, T=2.0)
    assert 0 < J < c.size
    tail = 0.5 * p.kappa * 4.0 * np.sum(c[J:] ** 2)
    assert tail < 1e-3
    tail_prev = 0.5 * p.kappa * 4.0 * np.sum(c[J - 1:] ** 2)
    assert tail_prev >= 1e-3
    g = simulate_limit_Y(p, dt=0.01, T=2.0, rng_seed=0)
    assert g.truncation_J == J
    assert g.truncation_bound < 1e-3


def test_truncation_trivial_cases():
    assert default_truncation(LimitParams(0.0, 1.0, 1.0), 1.0) == 0
    tiny = LimitParams(0.0, 1.0, 1.0, c=(1e-6,))
    assert default_truncation(tiny, 1.0) == 0


def test_determinism_and_seed_sensitivity():
    p = LimitParams(alpha=-1.0, beta=1.0, kappa=1.0, c=(0.5,))
    a = simulate_limit_Y(p, dt=0.001, T=1.0, rng_seed=42)
    b = simulate_limit_Y(p, dt=0.001, T=1.0, rng_seed=42)
    c = simulate_limit_Y(p, dt=0.001, T=1.0, rng_seed=43)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_limit_masses_of_deterministic_path():
    # with a single forced jump the path rises by c at E and drifts down;
    # the excursion above the running infimum has length c/drift
    p = LimitParams(alpha=1.0, beta=0.0, kappa=1.0, c=(0.5,))
    g = simulate_limit_Y(p, dt=1e-4, T=2.0, forced_E=(0.5,))
    masses = limit_masses(g)
    drift = 1.0 + 0.5 ** 2
    assert masses[0] == pytest.approx(0.5 / drift, abs=5e-4)
    assert np.all(np.diff(masses) <= 0)


def test_grid_csv_roundtrip(tmp_path):
    g = simulate_limit_Y(PURE_JUMP, dt=0.25, T=1.0, rng_seed=1)
    out = tmp_path / "limit_path.csv"
    g.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,Y"
    assert len(lines) == g.t.size + 1
    back = np.loadtxt(out, delimiter=",", skiprows=1)
    assert back[:, 1] == pytest.approx(g.values)


def _reference_simulate_limit_Y(p, dt, T, rng_seed=0, forced_E=None):
    """The grid simulation with the compensator of one (grid x J) outer
    product, as before the row blocks."""
    J = len(p.c) if forced_E is not None else default_truncation(p, T)
    rng = np.random.default_rng(rng_seed)
    n = int(round(T / dt))
    t = np.arange(n + 1) * dt
    y = -p.alpha * t - 0.5 * p.kappa * p.beta * t * t
    if p.beta > 0:
        incr = rng.normal(0.0, math.sqrt(p.beta * dt), size=n)
        y = y + np.concatenate(([0.0], np.cumsum(incr)))
    c = p.c[:J]
    if c.size:
        if forced_E is not None:
            E = np.asarray(forced_E, dtype=float)
        else:
            E = rng.exponential(1.0 / (p.kappa * c))
        y = y - np.outer(t, c * c * p.kappa).sum(axis=1)
        for cj, ej in zip(c, E):
            if ej <= T:
                k = int(math.ceil(ej / dt - 1e-12))
                y[k:] += cj
    return y


POWERLAW_LIMIT = gen_powerlaw_triple(
    10_000, rho=2.5, alpha=powerlaw_alpha0(2.5, 1.0, 1.0)).declared_limit


@pytest.mark.parametrize("p,dt,T,seed,forced_E", [
    (LimitParams(alpha=0.0, beta=1.0, kappa=1.0), 1e-3, 2.0, 5, None),
    (LimitParams(alpha=-1.0, beta=1.0, kappa=1.0, c=(0.5,)), 1e-3, 1.0, 6,
     None),
    (LimitParams(alpha=0.5, beta=0.0, kappa=2.0, c=1.0 / np.arange(1, 3001)),
     1e-3, 3.0, 7, None),
    (PURE_JUMP, 1e-3, 1.0, 8, (0.25, 0.6)),
    # a grid of 1001 rows over J near 1e4: many row blocks, a ragged last
    (POWERLAW_LIMIT, 1e-3, 1.0, 9, None),
])
def test_compensator_matches_outer_product_reference(p, dt, T, seed,
                                                     forced_E):
    g = simulate_limit_Y(p, dt=dt, T=T, rng_seed=seed, forced_E=forced_E)
    ref = _reference_simulate_limit_Y(p, dt, T, rng_seed=seed,
                                      forced_E=forced_E)
    if len(p.c) <= 1:
        # no jumps, or one: the same roundings in the same order
        assert np.array_equal(g.values, ref)
        return
    # first-order bound on the moved low bits (derived in CHANGES.md):
    # the reference's pairwise row sums against one correctly rounded
    # fsum, and m_i sequential jump additions against a bincount+cumsum
    J = g.truncation_J
    cells, sizes = _landed_jumps(p, dt, T, J, seed, forced_E)
    n = g.t.size
    m = np.cumsum(np.bincount(cells, minlength=n))
    landed = np.cumsum(np.bincount(cells, weights=sizes, minlength=n))
    comp = g.t * math.fsum((p.c[:J] ** 2 * p.kappa).tolist())
    bound = ((math.ceil(math.log2(J)) + 2 * m + 20) * 2.0 ** -53
             * (np.abs(ref) + 2.0 * (comp + landed)))
    assert np.all(np.abs(g.values - ref) <= bound)


def _landed_jumps(p, dt, T, J, seed, forced_E):
    """Grid cell and size of each jump that lands on the grid, with the
    jump times drawn from the stream as ``simulate_limit_Y`` draws them."""
    rng = np.random.default_rng(seed)
    n = int(round(T / dt))
    if p.beta > 0:
        rng.normal(0.0, math.sqrt(p.beta * dt), size=n)
    c = p.c[:J]
    E = (np.asarray(forced_E, dtype=float) if forced_E is not None
         else rng.exponential(1.0 / (p.kappa * c)))
    k = np.ceil(E / dt - 1e-12)
    keep = (E <= T) & (k <= n)
    return k[keep].astype(np.intp), c[keep]


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("seed", range(20))
def test_dyadic_limit_path_equals_reference(seed, forced):
    # every partial sum is exact on dyadic alpha, kappa, c, dt and T with
    # beta = 0, so any summation order gives the reference bit for bit
    rng = np.random.default_rng(seed)
    c = np.sort(rng.integers(1, 33, size=rng.integers(2, 40)) / 16.0)[::-1]
    p = LimitParams(alpha=rng.integers(-16, 17) / 8.0, beta=0.0,
                    kappa=2.0 ** rng.integers(-2, 3), c=c)
    dt = 2.0 ** -rng.integers(3, 9)
    T = float(rng.integers(1, 9)) / 4.0
    forced_E = None
    if forced:
        # cell ends, times past T, +inf and 0 among them
        forced_E = rng.choice([0.0, dt, 3 * dt, 0.3, 0.7 * T, T, T + dt,
                               math.inf], size=c.size)
    g = simulate_limit_Y(p, dt=dt, T=T, rng_seed=seed, forced_E=forced_E)
    ref = _reference_simulate_limit_Y(p, dt, T, rng_seed=seed,
                                      forced_E=forced_E)
    assert np.array_equal(g.values, ref)


def test_jump_past_the_last_grid_point_is_dropped():
    # E = 0.95 <= T lands in the cell ending at 1.2, past the grid's 0.9;
    # E = 0.25 lands at 0.3
    p = LimitParams(alpha=0.0, beta=0.0, kappa=1.0, c=(0.5, 0.25))
    g = simulate_limit_Y(p, dt=0.3, T=1.0, forced_E=(0.95, 0.25))
    assert g.t[-1] == pytest.approx(0.9)
    assert g.values == pytest.approx(-0.3125 * g.t + 0.25 * (g.t > 0.2),
                                     abs=1e-15)
    assert np.array_equal(g.values, _reference_simulate_limit_Y(
        p, 0.3, 1.0, forced_E=(0.95, 0.25)))


def test_jump_after_the_horizon_never_lands():
    # dt = 0.28 rounds to 4 cells, a grid out to 1.12 > T; E = 1.05 would
    # snap to its last point, but only times up to T land
    p = LimitParams(alpha=0.0, beta=0.0, kappa=1.0, c=(0.5,))
    g = simulate_limit_Y(p, dt=0.28, T=1.0, forced_E=(1.05,))
    assert g.t[-1] > 1.05
    assert np.array_equal(g.values, -0.25 * g.t)


def test_start_of_path_keeps_its_sign():
    # with beta = 0 and alpha > 0, Y_0 = -alpha*0 = -0.0; no jump lands
    # in cell 0, so nothing is added to it
    g = simulate_limit_Y(PURE_JUMP, dt=0.1, T=1.0, forced_E=(0.25, 0.6))
    assert math.copysign(1.0, g.values[0]) == -1.0
    g = simulate_limit_Y(PURE_JUMP, dt=0.1, T=1.0, forced_E=(0.0, 0.6))
    assert g.values[0] == 0.8


@pytest.mark.parametrize("bad", [-0.25, -math.inf, math.nan])
def test_forced_jump_time_must_be_nonnegative(bad):
    # a negative time would index the grid from its end (y[-5:] at
    # dt = 0.1), and a NaN would be dropped without a word
    with pytest.raises(ValueError, match="forced_E must give one nonnegative time"):
        simulate_limit_Y(PURE_JUMP, dt=0.1, T=1.0, forced_E=(bad, 2.0))


def test_forced_jump_time_inf_never_lands():
    g = simulate_limit_Y(PURE_JUMP, dt=0.1, T=1.0, forced_E=(math.inf, 0.25))
    drift = 0.5 + 0.8 ** 2 + 0.4 ** 2
    assert g.values == pytest.approx(-drift * g.t + 0.4 * (g.t >= 0.3),
                                     abs=1e-12)


def test_grid_csv_is_repr_of_each_value(tmp_path):
    g = simulate_limit_Y(LimitParams(alpha=-1.0, beta=1.0, kappa=1.0,
                                     c=(0.5, 0.25)),
                         dt=1e-3, T=1.0, rng_seed=3)
    out = tmp_path / "limit_path.csv"
    g.write_csv(out)
    want = ["t,Y"] + [f"{float(t)!r},{float(v)!r}"
                      for t, v in zip(g.t, g.values)]
    assert out.read_text().splitlines() == want


@pytest.mark.parametrize("dt,T,name", [
    (None, 0.0, "T"), (None, -1.0, "T"), (None, math.nan, "T"),
    (None, math.inf, "T"), (0.0, 1.0, "dt"), (-0.1, 1.0, "dt"),
    (math.inf, 1.0, "dt"), (math.nan, 1.0, "dt")])
def test_grid_step_and_horizon_must_be_finite_and_positive(dt, T, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
        simulate_limit_Y(PURE_JUMP, dt=dt, T=T)


@pytest.mark.parametrize("dt", [5e-324, 1e-300])
def test_grid_that_cannot_be_indexed_is_rejected(dt):
    # T / dt overflows to inf, or is finite but past the index range
    with pytest.raises(ValueError, match="grid cells cannot be indexed"):
        simulate_limit_Y(PURE_JUMP, dt=dt, T=1.0)
