import json
import os

import numpy as np
import pytest

from wmgraph import LimitParams, WeightSeq, simulate_markov, verify_embedding
from wmgraph.cli import main


@pytest.fixture
def weights_file(tmp_path):
    path = tmp_path / "weights.json"
    path.write_text(WeightSeq([2.0, 1.0, 1.0]).to_json())
    return str(path)


@pytest.fixture
def limit_file(tmp_path):
    path = tmp_path / "limit.json"
    path.write_text(LimitParams(alpha=-1.0, beta=1.0, kappa=1.0).to_json())
    return str(path)


def test_simulate_lifo_writes_artifacts(tmp_path, weights_file):
    out = tmp_path / "run"
    rc = main(["simulate", "--mode", "lifo", "--weights", weights_file,
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    for name in ("trace.csv", "pinches.csv", "graph.csv",
                 "components.csv", "masses.csv"):
        assert (out / name).exists(), name
    assert (out / "trace.csv").read_text().splitlines()[0] \
        == "time,event,client,Y,H"
    assert (out / "masses.csv").read_text().splitlines()[0] == "rank,mass"


def test_simulate_markov_and_direct(tmp_path, weights_file):
    out1 = tmp_path / "m"
    rc = main(["simulate", "--mode", "markov", "--weights", weights_file,
               "--horizon", "30.0", "--out", str(out1)])
    assert rc == 0
    assert (out1 / "trace.csv").exists()
    out2 = tmp_path / "d"
    rc = main(["simulate", "--mode", "direct", "--weights", weights_file,
               "--out", str(out2)])
    assert rc == 0
    assert (out2 / "graph.csv").exists()
    assert (out2 / "components.csv").exists()


def test_simulate_markov_default_horizon(tmp_path):
    # no --horizon: the run stops at its empty-queue epoch target
    weights = tmp_path / "weights.json"
    weights.write_text(WeightSeq([1.0, 0.5]).to_json())
    out = tmp_path / "m"
    rc = main(["simulate", "--mode", "markov", "--weights", str(weights),
               "--out", str(out)])
    assert rc == 0
    assert (out / "trace.csv").read_text().splitlines()[0] \
        == "time,event,client,Y,H,type,color"


def test_simulate_deterministic(tmp_path, weights_file):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["simulate", "--mode", "lifo", "--weights", weights_file,
              "--seed", "9", "--out", str(out)])
        outs.append((out / "trace.csv").read_text())
    assert outs[0] == outs[1]


def test_verify_passes_and_writes_report(tmp_path, weights_file, capsys):
    out = tmp_path / "v"
    rc = main(["verify", "--weights", weights_file,
               "--replicas", "5", "--horizon", "40.0", "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    assert "identities: pass" in capsys.readouterr().out
    d = json.loads((out / "identities.json").read_text())
    assert d["passed"] is True
    # the reports are the verifier's own results, as they read in memory
    assert d["reports"] == [verify_embedding(simulate_markov(
        WeightSeq([2.0, 1.0, 1.0]), horizon=40.0, stop_at_empty=5,
        rng_seed=np.random.SeedSequence([1, r]))).results for r in range(5)]


def test_scaling_report(tmp_path, limit_file):
    out = tmp_path / "s"
    rc = main(["scaling", "--limit", limit_file, "--out", str(out)])
    assert rc == 0
    d = json.loads((out / "scaling.json").read_text())
    assert d["largest_root"] == pytest.approx(2.0, abs=1e-6)
    assert d["is_grey"] is True
    assert set(d["extinction_profile"]) == {"0.25", "0.5", "1", "2", "4"}


def test_metric_matrix(tmp_path, weights_file):
    out = tmp_path / "mm"
    rc = main(["metric", "--weights", weights_file, "--eps", "0.5",
               "--out", str(out)])
    assert rc == 0
    rows = (out / "matrix.csv").read_text().splitlines()
    assert rows[0].startswith("t,")
    n = len(rows) - 1
    mat = np.array([[float(x) for x in r.split(",")[1:]] for r in rows[1:]])
    assert mat.shape == (n, n)
    assert mat == pytest.approx(mat.T)
    assert np.all(np.diag(mat) == 0.0)


def test_continuum_outputs(tmp_path, limit_file):
    out = tmp_path / "c"
    rc = main(["continuum", "--limit", limit_file, "--horizon", "1.0",
               "--dt", "0.001", "--topk", "5", "--out", str(out)])
    assert rc == 0
    lines = (out / "limit_path.csv").read_text().splitlines()
    assert lines[0] == "t,Y"
    assert len(lines) == 1002
    masses = (out / "limit_masses.csv").read_text().splitlines()
    assert masses[0] == "rank,mass"
    assert 1 <= len(masses) - 1 <= 5


def _is_number(cell, parse):
    try:
        parse(cell)
    except ValueError:
        return False
    return True


def test_every_csv_result_file_has_one_format(tmp_path):
    """Every CSV the subcommands write on the CI inputs: CRLF rows, each
    integer cell the text of its int and each other number the ``repr`` of
    its float."""
    w = tmp_path / "w.json"
    w.write_text('{"schema": 1, "w": [2, 1, 1]}')
    limit = tmp_path / "limit.json"
    limit.write_text('{"schema": 1, "alpha": 0, "beta": 1, "kappa": 1}')
    jumps = tmp_path / "jumps.json"
    jumps.write_text('{"schema": 1, "alpha": 0.5, "beta": 0, "kappa": 1, '
                     '"c": [0.8, 0.4, 0.2]}')
    runs = {
        "lifo": ["simulate", "--mode", "lifo", "--weights", w],
        "markov": ["simulate", "--mode", "markov", "--horizon", "40",
                   "--weights", w],
        "direct": ["simulate", "--mode", "direct", "--weights", w],
        "metric": ["metric", "--weights", w],
        "continuum": ["continuum", "--limit", limit],
        "jumps": ["continuum", "--horizon", "1", "--dt", "0.3",
                  "--limit", jumps],
    }
    for name, argv in runs.items():
        assert main([*map(str, argv), "--out", str(tmp_path / name)]) == 0
    files = sorted(tmp_path.glob("*/*.csv"))
    assert len(files) == 13
    for path in files:
        rows = path.read_bytes().split(b"\r\n")
        assert rows.pop() == b"" and b"\n" not in b"".join(rows), path
        for cell in b",".join(rows[1:]).decode().split(","):
            if _is_number(cell, int):
                assert cell == str(int(cell)), (path, cell)
            elif _is_number(cell, float):
                assert cell == repr(float(cell)), (path, cell)


def test_compare_small(tmp_path, weights_file, capsys):
    out = tmp_path / "cmp"
    rc = main(["compare", "--weights", weights_file,
               "--replicas", "1500", "--out", str(out)])
    captured = capsys.readouterr().out
    assert "marginals_pass=" in captured
    d = json.loads((out / "compare.json").read_text())
    assert rc == (0 if d["passed"] else 1)
    assert d["passed"] is True


def test_usage_errors(tmp_path, weights_file):
    assert main(["simulate", "--mode", "bogus", "--weights", weights_file,
                 "--out", str(tmp_path)]) == 2
    assert main(["nosuchcommand"]) == 2
    assert main(["simulate", "--mode", "lifo", "--weights",
                 str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 2


def test_simulate_markov_default_horizon_supercritical(tmp_path, weights_file):
    # sigma_2/sigma_1 = 1.5 on (2, 1, 1): the queue may never empty five
    # times, so only the finite default horizon ends the run
    for seed in ("0", "1"):
        out = tmp_path / seed
        rc = main(["simulate", "--mode", "markov", "--weights", weights_file,
                   "--seed", seed, "--out", str(out)])
        assert rc == 0
        assert (out / "trace.csv").exists()


@pytest.mark.parametrize("text", ['{"schema": 1, "w": [2, 1, 1]}',
                                  "[2, 1, 1]"])
def test_weights_file_forms(tmp_path, text):
    path = tmp_path / "w.json"
    path.write_text(text)
    out = tmp_path / "d"
    assert main(["simulate", "--mode", "direct", "--weights", str(path),
                 "--out", str(out)]) == 0
    assert (out / "graph.csv").exists()


_HUGE = "1" + "0" * 400    # a JSON integer beyond the float range
_PSI_OVERFLOWS = {
    "jump-rate": '{"schema":1,"alpha":0,"beta":1,"kappa":1e300,"c":[1e9]}',
    "drift": '{"schema":1,"alpha":0,"beta":1e300,"kappa":1e300}',
    "quadratic": '{"schema":1,"alpha":0,"beta":1e300,"kappa":1}',
}


@pytest.mark.parametrize("command,flag,text", [
    ("simulate", "--weights", "[Infinity, 1]"),
    ("simulate", "--weights", '{"schema": 1}'),
    ("simulate", "--weights", '{"schema": 2, "w": [1]}'),
    ("simulate", "--weights", '{"schema": 1, "w": [{"a": 1}]}'),
    # the weight sum and its square must be finite
    ("simulate", "--weights", '{"schema": 1, "w": [1e308, 1e308]}'),
    ("simulate", "--weights", '{"schema": 1, "w": [1e200, 1]}'),
    ("scaling", "--limit", '{"schema": 1, "beta": 1, "kappa": 1}'),
    ("scaling", "--limit", '{"schema": 1, "alpha": null, "beta": 1, "kappa": 1}'),
    # psi(lambda) = alpha*lambda is negative at every lambda: no root
    ("scaling", "--limit", '{"schema": 1, "alpha": -1e308, "beta": 0, "kappa": 1}'),
    # json reads the NaN and Infinity literals; limits must be finite
    ("scaling", "--limit", '{"schema": 1, "alpha": NaN, "beta": 1, "kappa": 1}'),
    ("scaling", "--limit", '{"schema": 1, "alpha": 0, "beta": Infinity, "kappa": 1}'),
    ("scaling", "--limit", '{"schema": 1, "alpha": -Infinity, "beta": 1, "kappa": 1}'),
    ("continuum", "--limit", '{"schema": 1, "alpha": NaN, "beta": 1, "kappa": 1}'),
    ("continuum", "--limit", '{"schema": 1, "alpha": 0, "beta": 1, "kappa": Infinity}'),
    ("continuum", "--limit", '{"schema": 1, "alpha": 0, "beta": 1, "kappa": 1, "c": [-Infinity]}'),
    ("continuum", "--limit", "[1, 1, 1]"),
    ("continuum", "--limit", '{"schema": 1, "alpha": 0, "beta": 1, "kappa": 1, "c": [1e200]}'),
    ("continuum", "--limit", '{"schema": 1, "alpha": 0, "beta": 1, "kappa": "1"}'),
    ("metric", "--weights", '{"schema": 1}'),
    ("metric", "--weights", "[1, null]"),
    ("metric", "--weights", "[1e308, 1e308]"),
    ("verify", "--weights", "[-1, 1]"),
    ("verify", "--weights", "[1e308, 1e308]"),
    ("verify", "--weights", "[1e200, 1]"),
    ("verify", "--weights", '{"schema": 1, "w": "1, 1"}'),
    ("compare", "--weights", "not json"),
    ("compare", "--weights", '{"schema": 1, "w": [{"a": 1}]}'),
    # integers too large for a float
    pytest.param("simulate",
                 "--weights", f'{{"schema": 1, "w": [{_HUGE}, 1]}}',
                 id="simulate-huge-w"),
    pytest.param("metric", "--weights", f"[{_HUGE}, 1]", id="metric-huge-w"),
    pytest.param("verify", "--weights", f"[{_HUGE}, 1]", id="verify-huge-w"),
    pytest.param("compare", "--weights", f"[{_HUGE}, 1]", id="compare-huge-w"),
    pytest.param("scaling",
                 "--limit", f'{{"schema": 1, "alpha": 0, "beta": {_HUGE}, "kappa": 1}}',
                 id="scaling-huge-beta"),
    pytest.param("continuum",
                 "--limit", f'{{"schema": 1, "alpha": 0, "beta": {_HUGE}, "kappa": 1}}',
                 id="continuum-huge-beta"),
    pytest.param("continuum",
                 "--limit", f'{{"schema": 1, "alpha": 0, "beta": 1, "kappa": 1, "c": [{_HUGE}]}}',
                 id="continuum-huge-c"),
    # kappa*c_j and kappa*c_j^2 overflow: the path would read NaN, then -inf
    pytest.param("continuum",
                 "--limit", '{"schema":1,"alpha":0,"beta":1,"kappa":1e300,"c":[1e9]}',
                 id="continuum-overflowing-jump-rate"),
    # kappa*beta overflows: Y(0) would be inf*0 = NaN
    pytest.param("continuum",
                 "--limit", '{"schema":1,"alpha":0,"beta":1e300,"kappa":1e300}',
                 id="continuum-overflowing-drift"),
    # psi overflows at the cutoff: an overflow, not a divergent tail (the
    # quadratic psi's tail converges)
    *(pytest.param("scaling", "--limit", text, id=f"scaling-overflowing-{name}")
      for name, text in _PSI_OVERFLOWS.items()),
])
def test_malformed_input_exits_2(tmp_path, capsys, command, flag, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = [command, flag, str(path), "--out", str(tmp_path)]
    if command == "simulate":
        argv += ["--mode", "direct"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "diverges" not in err
    if command == "scaling" and text in _PSI_OVERFLOWS.values():
        assert "psi overflows at the cutoff" in err, err
    assert [p.name for p in tmp_path.iterdir()] == ["input.json"]


_TINY_RUNS = {
    "simulate_lifo": ["simulate", "--mode", "lifo"],
    "simulate_direct": ["simulate", "--mode", "direct"],
    "simulate_markov": ["simulate", "--mode", "markov", "--horizon", "10"],
    "metric": ["metric"],
    "verify": ["verify", "--replicas", "2", "--horizon", "10"],
    "compare": ["compare", "--replicas", "20"],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("weights, fail", [
    # sigma_1/w overflows: no LIFO queue can draw the arrival
    ([1e-310, 1], {"simulate_lifo", "metric", "compare"}),
    # one queue runs; 20 laid end to end round arrival times together
    ([1e-300, 1], {"compare"}),
    ([1e-15, 1, 1], {"compare"}),
    ([1e-12, 1, 1], set()),
], ids=["1e-310", "1e-300", "1e-15", "1e-12"])
@pytest.mark.parametrize("run", _TINY_RUNS)
def test_tiny_weights_run_or_exit_2_naming_the_weight(tmp_path, capsys,
                                                      weights, fail, run):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"schema": 1, "w": weights}))
    out = tmp_path / "out"
    rc = main([*_TINY_RUNS[run], "--weights", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    if run in fail:
        assert rc == 2 and err.count("\n") == 1, err
        assert err.startswith("error: ") and repr(weights[0]) in err, err
        assert not out.exists()
    else:
        assert rc == 0 and err == "", err


@pytest.mark.parametrize("command", ["scaling", "continuum"])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_limit_named_in_error(tmp_path, capsys, command, value):
    path = tmp_path / "limit.json"
    path.write_text(f'{{"schema": 1, "alpha": {value}, "beta": 1, "kappa": 1}}')
    assert main([command, "--limit", str(path), "--out", str(tmp_path)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "limit_path.csv").exists()


@pytest.mark.parametrize("c", ["", ', "c": [0, 0]'], ids=["no_c", "zero_c"])
def test_scaling_on_zero_psi_exits_2(tmp_path, capsys, c):
    path = tmp_path / "limit.json"
    path.write_text(f'{{"schema": 1, "alpha": 0, "beta": 0, "kappa": 1{c}}}')
    out = tmp_path / "out"
    assert main(["scaling", "--limit", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: tail integral of 1/psi diverges; no profile\n")
    assert not out.exists()


@pytest.mark.parametrize("eps", ["nan", "-1"])
def test_metric_bad_eps_exits_2(tmp_path, capsys, weights_file, eps):
    out = tmp_path / "mm"
    assert main(["metric", "--weights", weights_file, "--eps", eps,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: eps must be nonnegative")
    assert err.count("\n") == 1
    assert not out.exists()   # rejected before the simulation runs


# horizons and grid steps are finite and positive: an infinite Markov
# horizon on supercritical weights need not end
_NOT_POSITIVE = "argument --horizon: must be a finite positive number"
_BAD_ARGUMENTS = [
    (["simulate", "--mode", "markov", "--horizon", "0"], _NOT_POSITIVE),
    (["simulate", "--mode", "markov", "--horizon", "-1"], _NOT_POSITIVE),
    (["simulate", "--mode", "markov", "--horizon", "nan"], _NOT_POSITIVE),
    (["simulate", "--mode", "markov", "--horizon", "inf"], _NOT_POSITIVE),
    (["verify", "--horizon", "0"], _NOT_POSITIVE),
    (["verify", "--horizon", "-1"], _NOT_POSITIVE),
    (["verify", "--horizon", "nan"], _NOT_POSITIVE),
    (["verify", "--horizon", "inf"], _NOT_POSITIVE),
    (["continuum", "--horizon", "0"], _NOT_POSITIVE),
    (["continuum", "--horizon", "nan"], _NOT_POSITIVE),
    (["continuum", "--horizon", "inf"], _NOT_POSITIVE),
    (["continuum", "--dt", "0"], "argument --dt: must be a finite positive number"),
    (["continuum", "--dt", "inf"], "argument --dt: must be a finite positive number"),
    (["continuum", "--dt=-inf"], "argument --dt: must be a finite positive number"),
    (["continuum", "--dt", "tiny"], "argument --dt: must be a finite positive number"),
    (["continuum", "--dt", "5e-324"], "T / dt = inf grid cells cannot be indexed"),
    (["continuum", "--horizon", "1e300", "--dt", "1"],
     "T / dt = 1e+300 grid cells cannot be indexed"),
    # 1e15 cells: rejected before any allocation, as more than the host has
    (["continuum", "--dt", "1e-15"], "a grid of 1000000000000001 points needs"),
    (["continuum", "--topk", "0"], "argument --topk: must be a positive integer"),
    (["verify", "--replicas", "-3"], "argument --replicas: must be a positive integer"),
    (["verify", "--replicas", "two"], "argument --replicas: must be a positive integer"),
    (["compare", "--replicas", "0"], "argument --replicas: must be a positive integer"),
    (["simulate", "--topk", "-1"], "argument --topk: must be a positive integer"),
    # retired no-op flags
    (["verify", "--identities"], "unrecognized arguments: --identities"),
    (["compare", "--edge-law"], "unrecognized arguments: --edge-law"),
    # scaling is deterministic: it takes no seed
    (["scaling", "--seed", "3"], "unrecognized arguments: --seed 3"),
]


@pytest.mark.parametrize("argv,message", _BAD_ARGUMENTS,
                         ids=[" ".join(argv) for argv, _ in _BAD_ARGUMENTS])
def test_bad_argument_exits_2(tmp_path, capsys, weights_file, limit_file,
                              argv, message):
    out = tmp_path / "out"
    inputs = (["--limit", limit_file] if argv[0] in ("continuum", "scaling")
              else ["--weights", weights_file])
    assert main(argv + inputs + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", [["simulate", "--mode", "markov"],
                                     ["verify", "--replicas", "2"]])
def test_markov_run_beyond_physical_memory_exits_2(tmp_path, capsys,
                                                   weights_file, monkeypatch,
                                                   command):
    # a host with 1 MiB of memory: w = (2, 1, 1) is supercritical, so the
    # queue does not empty five times and the arrivals outgrow the host
    # long before the horizon
    monkeypatch.setattr(os, "sysconf",
                        {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}.get)
    def run(horizon, out):
        return main([*command, "--weights", weights_file, "--horizon",
                     horizon, "--out", str(tmp_path / out)])
    assert run("1e308", "big") == 2
    assert capsys.readouterr().err == (
        "error: a replay of 4080 arrivals needs 0.00122 GiB, more than the "
        "0.000977 GiB of physical memory\n")
    assert not (tmp_path / "big").exists()
    assert run("10", "small") == 0


def test_continuum_grid_beyond_physical_memory_exits_2(tmp_path, capsys,
                                                       limit_file, monkeypatch):
    # a host with 1 MiB of memory: 100,001 points need 3.8 MiB at the peak
    monkeypatch.setattr(os, "sysconf",
                        {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}.get)
    def run(dt, out):
        return main(["continuum", "--limit", limit_file, "--dt", dt,
                     "--out", str(tmp_path / out)])
    assert run("1e-5", "big") == 2
    assert capsys.readouterr().err == (
        "error: a grid of 100001 points needs 0.00373 GiB, more than the "
        "0.000977 GiB of physical memory\n")
    assert not (tmp_path / "big").exists()
    assert run("1e-3", "small") == 0        # 40 kB
    # where the platform reports no memory size, an allocation that
    # fails at once is still a usage error (1e15 cells, beyond any
    # address space)
    monkeypatch.delattr(os, "sysconf")
    assert run("1e-15", "huge") == 2
    assert capsys.readouterr().err.startswith("error: Unable to allocate")
    assert not (tmp_path / "huge").exists()
