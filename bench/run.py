"""Benchmark of wmgraph: end-to-end metrics, or per-layer metrics from a
traced run, for one workload.

    python3 bench/run.py --workload critical_n1e5 --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Each workload runs in this single process with BLAS threads pinned to 1.
``--seconds`` fixes the replica set: ``round(seconds / replica_s)``
replicas, where ``replica_s`` is the replica cost on an uncontended core
when the workload was defined, so a run measures about ``--seconds``
seconds and two versions of the program always do the same work.

With ``--trace 0`` the run reports the end-to-end metrics.  The wall
time of the replica set and the median replica time are reported as
measured (``wall_s``, ``replica_p50_s``) and, as the gated ``*_norm_s``
metrics, scaled by the speed of the core during the run (see
``HostSpeed``), because the speed of a shared core varies by more than
any useful bound.  Set-up time (``setup_s``) is scaled the same way: it
is the median over fresh ``setup_probe.py`` processes, each timed from
its start to the moment its fixed inputs are built and normalized by the
speed its own core had meanwhile.  With ``--trace 1`` the same replica
set runs untraced and then traced, and the run reports the per-layer
metrics, the traced wall time as measured (which the span self times
account for), both wall times normalized, and the tracing overhead
computed from the normalized pair; the spans are written to
``.bench_work/``.

Metric names and units come from ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (exact checks attempted and failed)
and ``metrics``.  The lines before it give the metrics by name with their
units, the check counts, the verdicts that carry the known
``verify_embedding`` defect (reported, not checks; see ``workloads.py``),
the output digest and the machine facts.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

from hostspeed import HostSpeed
from tracing import NULL, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
SETUP_PROBES = 3

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def import_workloads():
    """Import the workloads against this checkout's ``src/``, never an
    installed copy of the package."""
    if not (SRC / "wmgraph" / "__init__.py").is_file():
        raise RuntimeError(f"no wmgraph sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wmgraph
    import workloads
    if Path(wmgraph.__file__).resolve().parent != SRC / "wmgraph":
        raise RuntimeError(f"wmgraph imported from {wmgraph.__file__}")
    return workloads


def machine_facts() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
    }


def probe_setup(workload: str) -> tuple:
    """Seconds from the start of a fresh process to its built inputs:
    host-normalized, and as measured."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent
                             / "setup_probe.py"), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    built, factor = map(float, proc.stdout.split()[-2:])
    return (built - start) * factor, built - start


def execute(wl, fixed, run, tr) -> dict:
    """Run the replica set once; replica r's checks all fail if it raises."""
    digest = hashlib.sha256()
    intervals = []
    passed, failed = Counter(), Counter()
    known_seen, known_failed = Counter(), Counter()
    start = time.perf_counter()
    with tr.span("bench.workload"):
        for r in range(run.replicas):
            t0 = time.perf_counter()
            try:
                with tr.span("bench.replica"):
                    out = wl.replica(fixed, run, r, tr)
                checks = out.checks
            except Exception:
                traceback.print_exc(file=sys.stderr)
                out, checks = None, {}
            intervals.append((t0, time.perf_counter()))
            for name in wl.checks:
                (passed if checks.get(name) else failed)[name] += 1
            if out is None:
                digest.update(b"replica raised")
                continue
            for name, ok in out.known_defect.items():
                known_seen[name] += 1
                known_failed[name] += not ok
            for label, arr in out.digest:
                digest.update(label.encode())
                digest.update(np.ascontiguousarray(arr).tobytes())
    end = time.perf_counter()
    return {"wall_s": end - start, "span": (start, end),
            "intervals": intervals, "passed": passed,
            "failed": failed, "digest": digest.hexdigest(),
            "known_defect": {name: {"verdicts": known_seen[name],
                                    "failed": known_failed[name]}
                             for name in known_seen}}


def layer_metrics(tr, traced: float, traced_norm: float,
                  untraced_norm: float) -> dict:
    busy = tr.self_times()
    counts = dict(tr.counts)
    counts.update(tr.maxima)

    def ratio(num, den):
        return counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0

    values = {}
    for name in PER_LAYER:
        if name.endswith(".busy_s"):
            values[name] = busy.get(name[:-len(".busy_s")], 0.0)
        else:
            values[name] = counts.get(name, 0.0)
    values["lifo_coder.assemble_graph.dropped_frac"] = ratio(
        "lifo_coder.assemble_graph.dropped",
        "lifo_coder.assemble_graph.pinches_in")
    values["markov_coder.color_blue_red.red_frac"] = ratio(
        "markov_coder.color_blue_red.red",
        "markov_coder.color_blue_red.clients")
    values["continuum.simulate_limit_Y.computed_mb"] = \
        8.0 * counts.get("continuum.simulate_limit_Y.grid_cells", 0.0) / 1e6
    values["bench.replica.glue_s"] = busy.get("bench.replica", 0.0)
    values["bench.workload.glue_s"] = busy.get("bench.workload", 0.0)
    values["bench.traced_wall_s"] = traced
    values["bench.traced_wall_norm_s"] = traced_norm
    values["bench.untraced_wall_norm_s"] = untraced_norm
    values["bench.trace_overhead_frac"] = \
        (traced_norm - untraced_norm) / untraced_norm
    return values


def run_workload(wl, seed: int, replicas: int, trace: bool) -> dict:
    """One benchmark run; returns the result line and the details."""
    import workloads   # importable once import_workloads() has run

    load_before = os.getloadavg()[0]
    setup = [probe_setup(wl.name)
             for _ in range(0 if trace else SETUP_PROBES)]
    fixed = wl.setup()
    WORK_DIR.mkdir(exist_ok=True)
    run = workloads.Run(seed=seed, replicas=replicas, work_dir=WORK_DIR)
    with HostSpeed() as host:
        plain = execute(wl, fixed, run, NULL)
    plain_norm = host.normalized(*plain["span"])
    details = {"workload": wl.name, "seed": seed, "replicas": replicas,
               "trace": int(trace),
               "host_speed_factor": plain_norm / plain["wall_s"]}
    if trace:
        tr = Tracer()
        with HostSpeed() as host_traced, workloads.counting_psi_evals(tr):
            traced = execute(wl, fixed, run, tr)
        tr.write(WORK_DIR / f"spans-{wl.name}-seed{seed}.json")
        traced_norm = host_traced.normalized(*traced["span"])
        values = layer_metrics(tr, traced["wall_s"], traced_norm, plain_norm)
        units = PER_LAYER
        checked = traced
        details["traced_host_speed_factor"] = traced_norm / traced["wall_s"]
        details["untraced_digest"] = plain["digest"]
        consistent = plain["digest"] == traced["digest"]
    else:
        times = [b - a for a, b in plain["intervals"]]
        norm = [host.normalized(a, b) for a, b in plain["intervals"]]
        values = {
            "setup_s": statistics.median(s for s, _ in setup),
            "wall_norm_s": plain_norm,
            "replica_p50_norm_s": statistics.median(norm),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        checked = plain
        consistent = True
        details["setup_norm_samples_s"] = [s for s, _ in setup]
        details["setup_samples_s"] = [s for _, s in setup]
        details["wall_s"] = plain["wall_s"]
        details["replica_p50_s"] = statistics.median(times)
        details["replica_times_s"] = times
        if len(times) >= 100:
            details["replica_p90_s"] = statistics.quantiles(times, n=10)[-1]
            details["replica_p90_norm_s"] = \
                statistics.quantiles(norm, n=10)[-1]
    attempted = sum(checked["passed"].values()) + sum(checked["failed"].values())
    failed = sum(checked["failed"].values())
    details.update({
        "checks": {name: {"attempted": checked["passed"][name]
                          + checked["failed"][name],
                          "failed": checked["failed"][name]}
                   for name in wl.checks},
        "check_fail_frac": failed / attempted,
        "known_defect": checked["known_defect"],
        "digest": checked["digest"],
        "load_1min_before": load_before,
        "load_1min_after": os.getloadavg()[0],
        "machine": machine_facts(),
    })
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return {"result": result, "details": details}


def report(out: dict) -> None:
    d, res = out["details"], out["result"]
    print(f"workload {d['workload']}  seed {d['seed']}  "
          f"replicas {d['replicas']}  trace {d['trace']}")
    for name, m in res["metrics"].items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    for name in ("wall_s", "replica_p50_s", "replica_p90_s",
                 "replica_p90_norm_s"):
        if name in d:
            print(f"  {name:<48} {d[name]:.6g} s ({d['replicas']} replicas)")
    print(f"  {'host_speed_factor':<48} {d['host_speed_factor']:.6g} 1")
    print(f"  {'check_fail_frac':<48} {d['check_fail_frac']:.6g} 1 "
          f"({res['failed']} failed of {res['attempted']} checks)")
    for name, k in d["known_defect"].items():
        print(f"  known defect: verify_embedding {name} failed "
              f"{k['failed']} of {k['verdicts']} verdicts")
    print("details " + json.dumps(d))


def run_all(args, names) -> int:
    """Every workload in turn, each in its own process."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, capture_output=True,
            text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        workloads = import_workloads()
    except (RuntimeError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    replicas = max(1, round(args.seconds / wl.replica_s))
    out = run_workload(wl, args.seed, replicas, bool(args.trace))
    report(out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
