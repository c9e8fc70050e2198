"""Smoke test of the benchmark itself: each workload for one replica at
reduced n, with tracing off and on.

    python3 -m pytest -q bench/test_smoke.py
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

workloads = run.import_workloads()

import numpy as np  # noqa: E402
from wmgraph import (CadlagStepPath, color_blue_red,  # noqa: E402
                     simulate_markov)

REDUCED_SETUP = {
    "critical_n1e5": lambda: workloads.critical_setup(n=2000),
    "powerlaw_n1e4": lambda: workloads.powerlaw_setup(n=500),
    "certify_replicas": workloads.certify_setup,
}

# a metric per workload that is nonzero only if its layer ran
LAYER_RAN = {
    "critical_n1e5": "cli.simulate_outputs.bytes",
    "powerlaw_n1e4": "scaling.extinction_profile.psi_evals",
    "certify_replicas": "markov_coder.simulate_markov.arrivals",
}


@pytest.fixture(params=list(workloads.WORKLOADS))
def reduced(request):
    return dataclasses.replace(workloads.WORKLOADS[request.param],
                               setup=REDUCED_SETUP[request.param])


def _units(result):
    return {k: m["unit"] for k, m in result["metrics"].items()}


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in run.SPEC["workloads"]] \
        == list(workloads.WORKLOADS)


def test_end_to_end_metrics_emitted(reduced):
    res = run.run_workload(reduced, seed=0, replicas=1,
                           trace=False)["result"]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert _units(res) == run.END_TO_END
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert res["attempted"] == len(reduced.checks)
    assert 0 <= res["failed"] <= res["attempted"]


def test_traced_run_spans_nest(reduced):
    res = run.run_workload(reduced, seed=0, replicas=1, trace=True)["result"]
    assert _units(res) == run.PER_LAYER
    assert res["metrics"][LAYER_RAN[reduced.name]]["value"] > 0

    dump = json.loads(
        (run.WORK_DIR / f"spans-{reduced.name}-seed0.json").read_text())
    spans = {s["id"]: s for s in dump["spans"]}
    (top,) = [s for s in spans.values() if s["parent"] is None]
    assert top["name"] == "bench.workload"
    for s in spans.values():
        if s is top:
            continue
        parent = spans[s["parent"]]
        want = "bench.workload" if s["name"] == "bench.replica" \
            else "bench.replica"
        assert parent["name"] == want, s
        assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
    # stage self times plus glue account for the traced wall time
    busy = sum(m["value"] for k, m in res["metrics"].items()
               if k.endswith(".busy_s") or k.endswith(".glue_s"))
    assert math.isclose(busy, top["end"] - top["start"], rel_tol=1e-9)


def test_blue_time_identities_catch_a_lost_jump():
    trace = color_blue_red(simulate_markov(
        workloads.certify_setup().verify, horizon=1000.0, stop_at_empty=5,
        rng_seed=3))
    assert all(workloads._blue_time_identities(trace).values())
    y = trace.Y_emb
    k = y.times.size // 2
    lost = CadlagStepPath(np.delete(y.times, k), np.delete(y.sizes, k),
                          y.horizon)
    broken = dataclasses.replace(trace, Y_emb=lost)
    assert not any(workloads._blue_time_identities(broken).values())


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable] + run.SPEC["command"][1:] + [
            "--workload", "certify_replicas", "--seed", "0", "--seconds", "1",
            "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
