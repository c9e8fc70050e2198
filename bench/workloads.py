"""The benchmark's workloads: what one replica does, and its exact checks.

Every stage is a call into a public ``wmgraph`` function, wrapped in a
span named ``<module>.<function>``.  Replica ``r`` of workload seed ``s``
draws stage ``k`` from ``SeedSequence([s, r, k])``, so the program only
ever receives generated inputs.  Each check is an exact identity that
holds whatever the random stream; a check that fails is a defect of the
program, never noise.

Why these three workloads:

* ``critical_n1e5`` is the large-n ``wmgraph simulate`` path at
  criticality: replay, excursions, the direct sampler, components and
  result files do the work, and only a few pinches occur, so pinch
  resolution is idle.
* ``powerlaw_n1e4`` is supercritical: deep stacks and about a thousand
  pinches per replica make pinch resolution, the continuum jump sum and
  the quadrature in the extinction profile dominate.
* ``certify_replicas`` runs many tiny replicas shaped like the
  acceptance suite, so per-call cost dominates, not asymptotics.
"""

from __future__ import annotations

import contextlib
import math
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import wmgraph.scaling
from wmgraph import (CodedSpace, LimitParams, WeightSeq, assemble_graph,
                     color_blue_red, connected_components,
                     decompose_with_masses, edge_marginal_compare,
                     extinction_profile, gen_powerlaw_triple,
                     graph_distances, gw_forest_stats, gw_generation_sizes,
                     height_of_path, limit_masses, pinched_matrix,
                     powerlaw_alpha0, psi_report, sample_direct,
                     sample_pinches, simulate_limit_Y, simulate_lifo,
                     simulate_markov, verify_embedding)
from wmgraph.direct_graph import write_component_csv
from wmgraph.markov_coder import TOL_IDENTITY


@dataclass(frozen=True)
class Run:
    """What every replica of one run shares."""

    seed: int
    replicas: int
    work_dir: Path     # scratch space for result files, inside the checkout


@dataclass
class Outcome:
    checks: dict       # check name -> bool
    digest: list       # (label, ndarray) pairs hashed into the output digest
    # verdict name -> bool for verdicts that carry the known defect; they
    # are reported, and the identities they judge are among ``checks``
    known_defect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    replica_s: float   # replica cost on an uncontended core; sets the count
    checks: tuple      # names of the checks every replica makes
    setup: Callable    # () -> fixed inputs
    replica: Callable  # (fixed, run, r, tracer) -> Outcome


def _streams(seed: int, r: int):
    return lambda stage: np.random.SeedSequence([seed, r, stage])


def _f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


@contextlib.contextmanager
def counting_psi_evals(tr):
    """Count calls of ``wmgraph.scaling.psi_eval`` against the open span.

    The scaling module looks ``psi_eval`` up at call time, so replacing
    the module attribute sees every evaluation without a source change.
    """
    orig = wmgraph.scaling.psi_eval

    def psi_eval(*args, **kwargs):
        tr.count_in_open_span("psi_evals")
        return orig(*args, **kwargs)

    wmgraph.scaling.psi_eval = psi_eval
    try:
        yield
    finally:
        wmgraph.scaling.psi_eval = orig


# --- the shared LIFO / direct pipeline ---------------------------------

PIPELINE_CHECKS = (
    "excursion_lengths_equal_component_masses",
    "height_of_path_equals_trace_H",
    "components_equal_busy_periods",
    "edge_accounting_balances",
    "direct_component_counts_sum_to_n",
)


def _write_simulate_outputs(out: Path, trace, pinches, g, comps, dec):
    """The writer calls ``wmgraph simulate --mode lifo`` makes."""
    trace.write_csv(out / "trace.csv")
    pinches.write_csv(out / "pinches.csv")
    g.write_edge_csv(out / "graph.csv")
    write_component_csv(comps, out / "components.csv")
    dec.write_masses_csv(out / "masses.csv", top_k=50)


def _two_constructions(w: WeightSeq, stream, tr, out_root: Path | None):
    """Queue construction with its exact checks, then the direct sampler.

    Uses stages 0-2 of ``stream``.  With ``out_root`` the five result
    files of ``simulate --mode lifo`` are written under it."""
    with tr.span("lifo_coder.simulate_lifo"):
        trace = simulate_lifo(w, rng_seed=stream(0))
    with tr.span("lifo_coder.sample_pinches"):
        pinches = sample_pinches(trace, rng_seed=stream(1))
    with tr.span("lifo_coder.assemble_graph"):
        g = assemble_graph(trace, pinches)
    with tr.span("direct_graph.connected_components"):
        comps = connected_components(g)
    with tr.span("excursions.decompose_with_masses"):
        dec = decompose_with_masses(trace.Y)
    with tr.span("paths.height_of_path"):
        h = height_of_path(trace.Y)
    if out_root is not None:
        with tempfile.TemporaryDirectory(dir=out_root) as d:
            with tr.span("cli.simulate_outputs"):
                _write_simulate_outputs(Path(d), trace, pinches, g, comps, dec)
            if tr.on:
                tr.count("cli.simulate_outputs.bytes",
                         sum(f.stat().st_size for f in Path(d).iterdir()))
    with tr.span("direct_graph.sample_direct"):
        gd = sample_direct(w, rng_seed=stream(2))
    with tr.span("direct_graph.connected_components"):
        dcomps = connected_components(gd)

    n = w.j_max
    masses = _f64([c.mass for c in comps])
    tree_edges = int(np.count_nonzero(trace.parent[1:]))
    loops = int(np.count_nonzero(pinches.self_loop))
    dropped = g.n_self_loops_dropped + g.n_duplicates_dropped
    checks = {
        "excursion_lengths_equal_component_masses":
            np.array_equal(np.sort(dec.lengths), np.sort(masses)),
        "height_of_path_equals_trace_H":
            np.array_equal(h.times, trace.H.times)
            and np.array_equal(h.values, trace.H.values),
        "components_equal_busy_periods":
            {c.vertices for c in comps}
            == {tuple(sorted(m)) for *_, m in trace.busy_periods},
        "edge_accounting_balances":
            len(g.edges) + dropped == tree_edges + pinches.size
            and g.n_self_loops_dropped == loops,
        "direct_component_counts_sum_to_n":
            sum(c.count for c in dcomps) == n,
    }
    if tr.on:
        tr.count("lifo_coder.simulate_lifo.clients", n)
        tr.count("lifo_coder.sample_pinches.pinches", pinches.size)
        if pinches.size:
            tr.count_max("lifo_coder.sample_pinches.stack_depth_max",
                         float(np.max(trace.H(pinches.t))))
        tr.count("lifo_coder.assemble_graph.dropped", dropped)
        tr.count("lifo_coder.assemble_graph.pinches_in", pinches.size)
        tr.count("paths.height_of_path.breakpoints", h.times.size)
        tr.count("excursions.decompose_with_masses.excursions", dec.count)
        tr.count("direct_graph.sample_direct.edges", len(gd.edges))
        tr.count("direct_graph.connected_components.components",
                 len(comps) + len(dcomps))
    digest = [
        ("lifo_component_masses", masses),
        ("direct_component_masses", _f64([c.mass for c in dcomps])),
        ("excursion_lengths", _f64(dec.lengths)),
        ("pinch_pairs", np.stack((pinches.u, pinches.v)).astype(np.int64)),
    ]
    return checks, digest, dec


# --- critical_n1e5 ------------------------------------------------------

def critical_setup(n: int = 100_000):
    w = WeightSeq(np.ones(n))
    w.sigma(1.0)
    return w


def critical_replica(w: WeightSeq, run: Run, r: int, tr) -> Outcome:
    checks, digest, dec = _two_constructions(w, _streams(run.seed, r), tr,
                                             out_root=run.work_dir)
    checks["unit_mass_sum_equals_sigma1"] = \
        math.fsum(dec.lengths) == w.sigma(1.0)
    return Outcome(checks, digest)


# --- powerlaw_n1e4 ------------------------------------------------------

EXTINCTION_TIMES = (0.25, 0.5, 1.0, 2.0, 4.0)   # `wmgraph scaling` grid


@dataclass(frozen=True)
class PowerlawInputs:
    n: int
    alpha0: float


def powerlaw_setup(n: int = 10_000) -> PowerlawInputs:
    return PowerlawInputs(n=n, alpha0=powerlaw_alpha0(2.5, 1.0, 1.0))


def powerlaw_replica(fixed: PowerlawInputs, run: Run, r: int, tr) -> Outcome:
    """Replica r scans the critical window at alpha_0 + U(-1, 1).

    The window is cut into one stratum per replica and replica r draws
    its offset uniformly inside stratum r, so every run covers the whole
    window evenly and no two replicas share deterministic work."""
    stream = _streams(run.seed, r)
    u = float(np.random.default_rng(stream(3)).random())
    alpha = fixed.alpha0 - 1.0 + 2.0 * (r + u) / run.replicas
    with tr.span("weights.gen_powerlaw_triple"):
        triple = gen_powerlaw_triple(fixed.n, rho=2.5, alpha=alpha)
    checks, digest, _ = _two_constructions(triple.weights, stream, tr,
                                           out_root=None)
    lim = triple.declared_limit
    # `wmgraph continuum` defaults: horizon 1, dt = 1e-4 * horizon
    with tr.span("continuum.simulate_limit_Y"):
        path = simulate_limit_Y(lim, dt=None, T=1.0, rng_seed=stream(4))
    with tr.span("continuum.limit_masses"):
        lm = limit_masses(path, top_k=50)
    with tr.span("scaling.psi_report"):
        psi_report(lim)
    profile = []
    for t in EXTINCTION_TIMES:
        with tr.span("scaling.extinction_profile"):
            profile.append(extinction_profile(lim, t))
    checks["limit_masses_nonincreasing"] = bool(np.all(np.diff(lm) <= 0))
    checks["extinction_profile_nonincreasing"] = \
        bool(np.all(np.diff(profile) <= 0))
    if tr.on:
        tr.count("continuum.simulate_limit_Y.grid_cells",
                 path.t.size * path.truncation_J)
    digest += [("limit_masses", _f64(lm)),
               ("extinction_profile", _f64(profile))]
    return Outcome(checks, digest)


# --- certify_replicas ---------------------------------------------------

@dataclass(frozen=True)
class CertifyInputs:
    small: WeightSeq      # (a) criterion-2 weights
    verify: WeightSeq     # (b) weights for the `verify` CLI defaults
    gw: WeightSeq         # (c) criterion-5 branching weights
    edge: WeightSeq       # (f) criterion-1 weights
    brownian: LimitParams  # (g) criterion-7 limit


def certify_setup() -> CertifyInputs:
    fixed = CertifyInputs(
        small=WeightSeq([2.0, 1.0, 1.0, 1.0]),
        verify=WeightSeq(np.ones(1000)),
        gw=WeightSeq(np.ones(10_000)),
        edge=WeightSeq([3.0, 2.0, 2.0, 1.0, 1.0, 1.0]),
        brownian=LimitParams(alpha=0.0, beta=1.0, kappa=1.0))
    for w in (fixed.small, fixed.verify, fixed.gw, fixed.edge):
        w.sigma(1.0)
    return fixed


# The identities ``verify_embedding`` checks.  Its verdicts on the first
# two carry a known defect of the program, the blue-clock round trip:
# theta(Lambda(tau)) can land one ulp below tau, so X (or H) is read
# before its jump and the verdict fails by exactly one weight (or one
# level).  The benchmark decides those two identities itself, forward
# through the clock (``_blue_time_identities``), and reports the
# verdicts of ``verify_embedding`` on them by name as the known defect.
ROUND_TRIP_IDENTITIES = ("Y_equals_X_at_theta", "height_through_blue_clock")
GATED_IDENTITIES = ("blue_red_decomposition", "H_jump_counter",
                    "blue_types_distinct")
MARKOV_CHECKS = ("Y_emb_equals_X_in_blue_time",
                 "height_of_Y_emb_equals_H_in_blue_time") + GATED_IDENTITIES


def _blue_time_identities(trace) -> dict:
    """Identities (a) and (b) of ``verify_embedding``, read forward.

    ``Y_emb`` read at Lambda(t) equals X at t, and the height of
    ``Y_emb`` read at Lambda(t) equals H at t, for every t in blue time.
    Between consecutive queue events both sides are linear with slope -1
    (loads) or constant (heights), so comparing them at the midpoint of
    every gap between events that lies in blue time decides each identity,
    and no time passes through the inverse clock.
    """
    ev = trace.events()
    mids = (ev[:-1] + ev[1:]) / 2.0
    blue = np.asarray(trace.blue_intervals, dtype=np.float64).reshape(-1, 2)
    i = np.searchsorted(blue[:, 0], mids, side="right") - 1
    inside = (i >= 0) & (mids < blue[np.maximum(i, 0), 1])
    t, i = mids[inside], i[inside]
    done = np.concatenate(([0.0], np.cumsum(blue[:, 1] - blue[:, 0])))
    s = done[i] + (t - blue[i, 0])
    err_y = np.max(np.abs(trace.Y_emb.value(s) - trace.X.value(t)),
                   initial=0.0)
    err_h = np.max(np.abs(height_of_path(trace.Y_emb)(s) - trace.H(t)),
                   initial=0.0)
    return {"Y_emb_equals_X_in_blue_time": bool(err_y < TOL_IDENTITY),
            "height_of_Y_emb_equals_H_in_blue_time":
                bool(err_h < TOL_IDENTITY)}


def _markov_identities(w, horizon, seed, tr):
    with tr.span("markov_coder.simulate_markov"):
        trace = simulate_markov(w, horizon=horizon, stop_at_empty=5,
                                rng_seed=seed)
    with tr.span("markov_coder.color_blue_red"):
        trace = color_blue_red(trace)
    with tr.span("markov_coder.verify_embedding"):
        rep = verify_embedding(trace)
    if tr.on:
        tr.count("markov_coder.simulate_markov.arrivals", trace.n_arrivals)
        tr.count("markov_coder.color_blue_red.red",
                 int(np.count_nonzero(trace.color[1:] == "r")))
        tr.count("markov_coder.color_blue_red.clients", trace.n_arrivals)
        tr.count("markov_coder.verify_embedding.points",
                 sum(v["n_points"] for v in rep.results.values()))
    checks = _blue_time_identities(trace)
    checks.update((name, rep.results[name]["pass"])
                  for name in GATED_IDENTITIES)
    known = {name: rep.results[name]["pass"]
             for name in ROUND_TRIP_IDENTITIES}
    errors = _f64([rep.results[name]["max_abs_err"]
                   for name in ROUND_TRIP_IDENTITIES + GATED_IDENTITIES])
    return trace, checks, known, errors


def _masses_are_fsums(w: WeightSeq, comps) -> bool:
    return all(c.mass == math.fsum(w.w[v - 1] for v in c.vertices)
               for c in comps)


def certify_replica(fixed: CertifyInputs, run: Run, r: int, tr) -> Outcome:
    stream = _streams(run.seed, r)
    # (a) criterion 2: identities for w = (2, 1, 1, 1)
    _, checks_a, known_a, err_a = _markov_identities(fixed.small, 60.0,
                                                     stream(0), tr)
    # (b) `wmgraph verify` defaults on w = ones(1000), then forest stats
    trace_b, checks_b, known_b, err_b = _markov_identities(
        fixed.verify, 1000.0, stream(1), tr)
    with tr.span("markov_coder.gw_forest_stats"):
        gw_forest_stats(trace_b)
    # (c) criterion 5: one branching-process replica
    with tr.span("markov_coder.gw_generation_sizes"):
        sizes = gw_generation_sizes(fixed.gw, z0=21, generations=43,
                                    rng_seed=stream(2))
    # (d) criterion 3: pinched metric against graph distances
    rng = np.random.default_rng(stream(3))
    n = int(rng.integers(2, 51))
    w_d = WeightSeq(np.sort(rng.uniform(0.5, 3.0, size=n))[::-1])
    with tr.span("lifo_coder.simulate_lifo"):
        trace = simulate_lifo(w_d, rng_seed=stream(4))
    with tr.span("lifo_coder.sample_pinches"):
        pinches = sample_pinches(trace, rng_seed=stream(5))
    with tr.span("lifo_coder.assemble_graph"):
        g = assemble_graph(trace, pinches)
    with tr.span("direct_graph.connected_components"):
        comps_d = connected_components(g)
    space = CodedSpace(trace.H, pinches=tuple(zip(pinches.s, pinches.t)),
                       eps=1.0, samples=trace.arrival[1:])
    with tr.span("coded_metric.pinched_matrix"):
        pm = pinched_matrix(space)
    metric_ok = True
    for c in comps_d:
        with tr.span("direct_graph.graph_distances"):
            gd = graph_distances(c)
        idx = np.asarray(c.vertices) - 1
        metric_ok = metric_ok and np.array_equal(pm[np.ix_(idx, idx)], gd)
    # (e) criterion 6: dyadic weights make every partial sum exact
    rng = np.random.default_rng(stream(6))
    n_e = int(rng.integers(2, 40))
    w_e = WeightSeq(np.sort(rng.integers(1, 256, size=n_e))[::-1] / 64.0)
    with tr.span("lifo_coder.simulate_lifo"):
        trace_e = simulate_lifo(w_e, rng_seed=stream(7))
    with tr.span("excursions.decompose_with_masses"):
        dec_e = decompose_with_masses(trace_e.Y)
    with tr.span("lifo_coder.assemble_graph"):
        g_e = assemble_graph(trace_e)
    with tr.span("direct_graph.connected_components"):
        comps_e = connected_components(g_e)
    # (f) criterion 1 at 20 replicas; its verdict is statistical, so it
    # is timed but not counted as a check
    edge_seed = int(stream(8).generate_state(1)[0])
    with tr.span("stat_harness.edge_marginal_compare"):
        edge_marginal_compare(fixed.edge, replicas=20, seed=edge_seed)
    # (g) criterion 7: Brownian limit, no jumps to sum
    with tr.span("continuum.simulate_limit_Y"):
        path = simulate_limit_Y(fixed.brownian, dt=1e-3, T=15.0,
                                rng_seed=stream(9))
    with tr.span("continuum.limit_masses"):
        lm = limit_masses(path, top_k=1)

    checks = {
        **{f"a_{name}": ok for name, ok in checks_a.items()},
        **{f"b_{name}": ok for name, ok in checks_b.items()},
        "d_pinched_metric_equals_graph_distances": metric_ok,
        "e_dyadic_mass_sum_equals_sigma1":
            math.fsum(dec_e.lengths) == w_e.sigma(1.0),
        "de_component_masses_are_fsums":
            _masses_are_fsums(w_d, comps_d) and _masses_are_fsums(w_e, comps_e),
    }
    if tr.on:
        tr.count("markov_coder.gw_generation_sizes.individuals",
                 int(sizes.sum()))
        tr.count("lifo_coder.simulate_lifo.clients", n + n_e)
        tr.count("lifo_coder.sample_pinches.pinches", pinches.size)
        if pinches.size:
            tr.count_max("lifo_coder.sample_pinches.stack_depth_max",
                         float(np.max(trace.H(pinches.t))))
        tr.count("lifo_coder.assemble_graph.dropped",
                 g.n_self_loops_dropped + g.n_duplicates_dropped)
        tr.count("lifo_coder.assemble_graph.pinches_in", pinches.size)
        tr.count("excursions.decompose_with_masses.excursions", dec_e.count)
        tr.count("direct_graph.connected_components.components",
                 len(comps_d) + len(comps_e))
        points = space.samples.size + 2 * len(space.pinches)
        tr.count("coded_metric.pinched_matrix.points", points)
        if space.pinches:   # the min-plus closure runs only with pinches
            tr.count("coded_metric.pinched_matrix.closure_ops", points ** 3)
        tr.count("stat_harness.edge_marginal_compare.graphs", 2 * 20)
        tr.count("continuum.simulate_limit_Y.grid_cells",
                 path.t.size * path.truncation_J)
    digest = [
        ("identity_max_errors", np.concatenate((err_a, err_b))),
        ("component_masses",
         _f64([c.mass for c in comps_d] + [c.mass for c in comps_e])),
        ("excursion_lengths", _f64(dec_e.lengths)),
        ("pinch_pairs", np.stack((pinches.u, pinches.v)).astype(np.int64)),
        ("limit_masses", _f64(lm)),
    ]
    known = {**{f"a_{name}": ok for name, ok in known_a.items()},
             **{f"b_{name}": ok for name, ok in known_b.items()}}
    return Outcome(checks, digest, known)


WORKLOADS = {
    wl.name: wl for wl in (
        Workload(
            name="critical_n1e5",
            replica_s=9.0,
            checks=PIPELINE_CHECKS + ("unit_mass_sum_equals_sigma1",),
            setup=critical_setup, replica=critical_replica),
        Workload(
            name="powerlaw_n1e4",
            replica_s=5.0,
            checks=PIPELINE_CHECKS + ("limit_masses_nonincreasing",
                                      "extinction_profile_nonincreasing"),
            setup=powerlaw_setup, replica=powerlaw_replica),
        Workload(
            name="certify_replicas",
            replica_s=0.07,
            checks=tuple(f"{part}_{name}" for part in "ab"
                         for name in MARKOV_CHECKS)
            + ("d_pinched_metric_equals_graph_distances",
               "e_dyadic_mass_sum_equals_sigma1",
               "de_component_masses_are_fsums"),
            setup=certify_setup, replica=certify_replica),
    )
}
