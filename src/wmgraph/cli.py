"""Batch command line entry point.

Subcommands:
  simulate   run one construction and write trace/graph CSVs
  verify     check the pathwise clock identities over many replicas
  scaling    drift-function report and extinction profile for limit params
  metric     pinched distance matrix for a coded LIFO trace
  continuum  grid simulation of the limit load path and its masses
  compare    statistical comparison of the two graph constructions

Exit codes: 0 success, 1 verification or statistical failure, 2 usage error.
Seeds: verify's replica r of master seed s draws from SeedSequence([s, r]);
simulate, metric and continuum draw from SeedSequence([s, 0]), pinches from
SeedSequence([s, 1]); compare's scheme is in edge_marginal_compare.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

import numpy as np

from .coded_metric import (CodedSpace, check_eps, pinched_matrix,
                           write_matrix_csv)
from .continuum import limit_masses, simulate_limit_Y
from .direct_graph import connected_components, sample_direct, write_component_csv
from .excursions import _write_masses_csv, decompose_with_masses
from .lifo_coder import assemble_graph, sample_pinches, simulate_lifo
from .markov_coder import simulate_markov, verify_embedding
from .scaling import extinction_profile, psi_report
from .stat_harness import edge_marginal_compare
from .weights import LimitParams, WeightSeq

# Markov runs stop at this many empty-queue epochs unless the horizon
# comes first; on supercritical weights the epochs may never come, so
# the default horizon is finite
STOP_AT_EMPTY = 5
DEFAULT_HORIZON = 1000.0


def _positive_int(text: str) -> int:
    if not (text.isdecimal() and int(text) > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return int(text)


def _positive_float(text: str) -> float:
    with contextlib.suppress(ValueError):
        if 0 < float(text) < np.inf:    # NaN fails too
            return float(text)
    raise argparse.ArgumentTypeError(
        f"must be a finite positive number, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """Usage errors print one ``error:`` line, as run-time errors do."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _load_weights(path: str) -> WeightSeq:
    return WeightSeq.from_json(Path(path).read_text())


def _load_limit(path: str) -> LimitParams:
    return LimitParams.from_json(Path(path).read_text())


def _outdir(args) -> Path:
    """The output directory, made once the run has nothing left to reject."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(args) -> int:
    w = _load_weights(args.weights)
    if args.mode == "lifo":
        trace = simulate_lifo(w, rng_seed=np.random.SeedSequence([args.seed, 0]))
        pinches = sample_pinches(trace, rng_seed=np.random.SeedSequence([args.seed, 1]))
        out = _outdir(args)
        trace.write_csv(out / "trace.csv")
        pinches.write_csv(out / "pinches.csv")
        g = assemble_graph(trace, pinches)
        g.write_edge_csv(out / "graph.csv")
        write_component_csv(connected_components(g), out / "components.csv")
        decompose_with_masses(trace.Y).write_masses_csv(out / "masses.csv",
                                                        top_k=args.topk)
    elif args.mode == "markov":
        trace = simulate_markov(w, horizon=args.horizon,
                                stop_at_empty=STOP_AT_EMPTY,
                                rng_seed=np.random.SeedSequence([args.seed, 0]))
        trace.write_csv(_outdir(args) / "trace.csv")   # coloured there
    else:  # direct
        g = sample_direct(w, rng_seed=np.random.SeedSequence([args.seed, 0]))
        out = _outdir(args)
        g.write_edge_csv(out / "graph.csv")
        write_component_csv(connected_components(g), out / "components.csv")
    return 0


def _cmd_verify(args) -> int:
    w = _load_weights(args.weights)
    reports = []
    all_ok = True
    for r in range(args.replicas):
        trace = simulate_markov(w, horizon=args.horizon,
                                stop_at_empty=STOP_AT_EMPTY,
                                rng_seed=np.random.SeedSequence([args.seed, r]))
        rep = verify_embedding(trace)   # coloured there
        reports.append(rep.results)
        all_ok = all_ok and rep.passed
    (_outdir(args) / "identities.json").write_text(
        json.dumps({"schema": 1, "seed": args.seed,
                    "replicas": args.replicas, "passed": all_ok,
                    "reports": reports}, indent=2))
    print(f"identities: {'pass' if all_ok else 'FAIL'} "
          f"({args.replicas} replicas)")
    return 0 if all_ok else 1


def _cmd_scaling(args) -> int:
    p = _load_limit(args.limit)
    rep = psi_report(p)
    prof = {f"{t:g}": extinction_profile(p, t)
            for t in (0.25, 0.5, 1.0, 2.0, 4.0)}
    (_outdir(args) / "scaling.json").write_text(json.dumps(
        {"schema": 1, "largest_root": rep.root, "is_grey": rep.is_grey,
         "grey_integral_tail": rep.grey_integral_tail,
         "extinction_profile": prof}, indent=2))
    print(f"root={rep.root:.6g} grey={rep.is_grey}")
    return 0


def _cmd_metric(args) -> int:
    check_eps(args.eps)
    w = _load_weights(args.weights)
    trace = simulate_lifo(w, rng_seed=np.random.SeedSequence([args.seed, 0]))
    pinches = sample_pinches(trace, rng_seed=np.random.SeedSequence([args.seed, 1]))
    pairs = list(zip(pinches.s, pinches.t))
    samples = trace.arrival[1:]
    space = CodedSpace(trace.H, pinches=pairs, eps=args.eps, samples=samples)
    write_matrix_csv(space, pinched_matrix(space),
                     _outdir(args) / "matrix.csv")
    return 0


def _cmd_continuum(args) -> int:
    p = _load_limit(args.limit)
    g = simulate_limit_Y(p, dt=args.dt, T=args.horizon,
                         rng_seed=np.random.SeedSequence([args.seed, 0]))
    out = _outdir(args)
    g.write_csv(out / "limit_path.csv")
    _write_masses_csv(out / "limit_masses.csv",
                      limit_masses(g, top_k=args.topk))
    return 0


def _cmd_compare(args) -> int:
    w = _load_weights(args.weights)
    rep = edge_marginal_compare(w, replicas=args.replicas, seed=args.seed)
    rep.write_json(_outdir(args) / "compare.json")
    sys.stdout.writelines(line + "\n" for line in rep.summary_lines())
    return 0 if rep.passed else 1


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="wmgraph")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, weights=False, limit=False, seed=True):
        if weights:
            sp.add_argument("--weights", required=True,
                            help="JSON weight sequence {schema, w}")
        if limit:
            sp.add_argument("--limit", required=True,
                            help="JSON limit params {schema, alpha, beta, kappa, c}")
        if seed:    # scaling is deterministic
            sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=".")

    sp = sub.add_parser("simulate", help="run one construction")
    common(sp, weights=True)
    sp.add_argument("--mode", choices=("lifo", "markov", "direct"),
                    default="lifo")
    sp.add_argument("--horizon", type=_positive_float,
                    default=DEFAULT_HORIZON, help="markov mode only")
    sp.add_argument("--topk", type=_positive_int, default=50)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("verify", help="check pathwise clock identities")
    common(sp, weights=True)
    sp.add_argument("--replicas", type=_positive_int, default=100)
    sp.add_argument("--horizon", type=_positive_float, default=DEFAULT_HORIZON)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("scaling", help="drift-function diagnostics")
    common(sp, limit=True, seed=False)
    sp.set_defaults(func=_cmd_scaling)

    sp = sub.add_parser("metric", help="pinched distance matrix")
    common(sp, weights=True)
    sp.add_argument("--eps", type=float, default=0.0)
    sp.set_defaults(func=_cmd_metric)

    sp = sub.add_parser("continuum", help="limit load path simulation")
    common(sp, limit=True)
    sp.add_argument("--horizon", type=_positive_float, default=1.0)
    sp.add_argument("--dt", type=_positive_float, default=None)
    sp.add_argument("--topk", type=_positive_int, default=50)
    sp.set_defaults(func=_cmd_continuum)

    sp = sub.add_parser("compare", help="direct vs queue-assembled graphs")
    common(sp, weights=True)
    sp.add_argument("--replicas", type=_positive_int, default=20000)
    sp.set_defaults(func=_cmd_compare)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        # RuntimeError: a root bisection found no bracket (scaling.py);
        # MemoryError: a continuum grid larger than memory can hold
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
