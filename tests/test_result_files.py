"""Every result file, byte for byte, from small dyadic or hand-built
inputs: a header row, CRLF line ends, floats by repr, integers in
decimal."""

import csv
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from wmgraph import (
    AssembledGraph,
    CodedSpace,
    LimitParams,
    WeightSeq,
    connected_components,
    decompose_with_masses,
    pinched_matrix,
    sample_pinches,
    simulate_limit_Y,
    simulate_lifo,
    simulate_markov,
    write_matrix_csv,
)
from wmgraph.direct_graph import write_component_csv
from wmgraph.paths import _BLOCK_CELLS, _text_block, _write_csv

# clients 1, 2, 3 (w = 1, 1/2, 1/4) arrive at 1/4, 1/2, 3/4, each
# preempting the last; 3 leaves at 1, 2 at 5/4, 1 at 2; client 4
# (w = 1/8) is alone at 4.  At t = 7/8 the reflected load is 9/8, and
# the bands of clients 2 and 3 start at 3/4 and 1: level 1/2 joins
# clients 1 and 3, 3/4 is a band boundary (a tie joining 2 and 3),
# 17/16 a self-loop
W = WeightSeq([1.0, 0.5, 0.25, 0.125])
POINTS = [(0.875, 0.5), (0.875, 0.75), (0.875, 1.0625), (4.0625, 0.03125)]


def _lifo():
    return simulate_lifo(W, forced_arrivals=[0.25, 0.5, 0.75, 4.0])


def _graph():
    return AssembledGraph(n=5, weights=np.array([1.0, 0.5, 0.25, 0.125, 0.1]),
                          edges=frozenset({(1, 3), (3, 4), (1, 2)}))


def _matrix(path):
    trace = _lifo()
    pinches = sample_pinches(trace, forced_points=POINTS[:1])
    space = CodedSpace(trace.H, pinches=list(zip(pinches.s, pinches.t)),
                       eps=0.25, samples=[0.25, 0.5, 0.75, 1.5])
    write_matrix_csv(space, pinched_matrix(space), path)


WRITERS = {
    "trace.csv": lambda path: _lifo().write_csv(path),
    "markov_trace.csv": lambda path: simulate_markov(
        W, forced_arrivals=[(0.25, 1), (0.5, 2), (0.75, 1), (4.0, 3)]
    ).write_csv(path),
    "pinches.csv": lambda path: sample_pinches(
        _lifo(), forced_points=POINTS).write_csv(path),
    "graph.csv": lambda path: _graph().write_edge_csv(path),
    "components.csv": lambda path: write_component_csv(
        connected_components(_graph()), path),
    "masses.csv": lambda path: decompose_with_masses(
        _lifo().Y).write_masses_csv(path),
    "limit_path.csv": lambda path: simulate_limit_Y(
        LimitParams(alpha=0.5, beta=0.0, kappa=1.0, c=(0.5, 0.25)),
        dt=0.25, T=1.0, forced_E=[0.25, 0.5]).write_csv(path),
    "matrix.csv": _matrix,
}

EXPECTED = {
    "components.csv": (
        "rank,mass,count,root\r\n"
        "1,1.875,4,1\r\n"
        "2,0.1,1,5\r\n"
    ),
    "graph.csv": (
        "u,v\r\n"
        "1,2\r\n"
        "1,3\r\n"
        "3,4\r\n"
    ),
    "limit_path.csv": (
        "t,Y\r\n"
        "0.0,-0.0\r\n"
        "0.25,0.296875\r\n"
        "0.5,0.34375\r\n"
        "0.75,0.140625\r\n"
        "1.0,-0.0625\r\n"
    ),
    "markov_trace.csv": (
        "time,event,client,Y,H,type,color\r\n"
        "0.25,arrival,1,0.75,1,1,b\r\n"
        "0.5,arrival,2,1.0,2,2,b\r\n"
        "0.75,arrival,3,1.75,3,1,r\r\n"
        "1.75,departure,3,0.75,2,1,r\r\n"
        "2.0,departure,2,0.5,1,2,b\r\n"
        "2.75,departure,1,-0.25,0,1,b\r\n"
        "4.0,arrival,4,-1.25,1,3,b\r\n"
        "4.25,departure,4,-1.5,0,3,b\r\n"
    ),
    "masses.csv": (
        "rank,mass\r\n"
        "1,1.75\r\n"
        "2,0.125\r\n"
    ),
    "matrix.csv": (
        "t,0.25,0.5,0.75,1.5\r\n"
        "0.25,0.0,1.0,0.25,0.0\r\n"
        "0.5,1.0,0.0,1.0,1.0\r\n"
        "0.75,0.25,1.0,0.0,0.25\r\n"
        "1.5,0.0,1.0,0.25,0.0\r\n"
    ),
    "pinches.csv": (
        "t_p,y_p,s_p,u,v,flag\r\n"
        "0.875,0.5,0.25,1,3,\r\n"
        "0.875,0.75,0.5,2,3,boundary_tie\r\n"
        "0.875,1.0625,0.75,3,3,self_loop\r\n"
        "4.0625,0.03125,4.0,4,4,self_loop\r\n"
    ),
    "trace.csv": (
        "time,event,client,Y,H\r\n"
        "0.25,arrival,1,0.75,1\r\n"
        "0.5,arrival,2,1.0,2\r\n"
        "0.75,arrival,3,1.0,3\r\n"
        "1.0,departure,3,0.75,2\r\n"
        "1.25,departure,2,0.5,1\r\n"
        "2.0,departure,1,-0.25,0\r\n"
        "4.0,arrival,4,-2.125,1\r\n"
        "4.125,departure,4,-2.25,0\r\n"
    ),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_result_file_bytes(tmp_path, name):
    path = tmp_path / name
    WRITERS[name](path)
    assert path.read_bytes() == EXPECTED[name].encode()


FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-05, 1e-4,
          1e16, 1e15 + 0.5, 0.1 + 0.2, 1.7976931348623157e308, -2.5, 3.0]
INTS = [-7, -(2 ** 53) - 1, 0, 2 ** 53 + 1, 2 ** 63 - 1, 12, -(2 ** 63)]
TOKENS = ["arrival", "departure", "self_loop", "boundary_tie", "", "b", "r"]


def _csv_module_bytes(path, header, rows):
    """The result-file format as the ``csv`` module writes it."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)
    return path.read_bytes()


def _cycle(values, n):
    return [values[i % len(values)] for i in range(n)]


# row counts around the first and second block boundaries of 6 columns
STEP = _BLOCK_CELLS // 6


@pytest.mark.parametrize("n", [0, 1, 2, STEP - 1, STEP, STEP + 1, 2 * STEP + 3])
def test_writer_matches_csv_module(tmp_path, n):
    floats, ints, tokens = _cycle(FLOATS, n), _cycle(INTS, n), _cycle(TOKENS, n)
    big = [2 ** 70 + k for k in range(n)]    # past int64: a Python list only
    header = ["t", 0.25, 1e-05, "C4_integral_y=1", "mass", "flag"]  # matrix.csv
    # each kind of cell as a numpy array and as a Python sequence
    columns = [np.array(floats), np.array(ints, dtype=np.int64),
               np.array(tokens), big, floats, tokens]
    _write_csv(tmp_path / "new.csv", header, columns)
    rows = zip(floats, ints, tokens, big, floats, tokens)
    assert (tmp_path / "new.csv").read_bytes() == _csv_module_bytes(
        tmp_path / "old.csv", header, rows)


def test_writer_matches_csv_module_on_wide_rows(tmp_path):
    # more columns than a block holds rows: matrix.csv at large n
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, _BLOCK_CELLS // 3)) * 10.0 ** rng.integers(
        -20, 20, (5, _BLOCK_CELLS // 3))
    header = ["t", *m[0].tolist()]
    _write_csv(tmp_path / "new.csv", header, [m[:, 0], *m.T])
    rows = ([r[0], *r] for r in m.tolist())
    assert (tmp_path / "new.csv").read_bytes() == _csv_module_bytes(
        tmp_path / "old.csv", header, rows)


def test_matrix_writer_holds_one_block(tmp_path):
    """write_matrix_csv never holds the matrix as Python floats (32 bytes
    per cell with the list slot), only a block of cells at a time."""
    n = 600
    m = np.random.default_rng(1).random((n, n))
    space = SimpleNamespace(samples=np.arange(1.0, n + 1))
    tracemalloc.start()
    try:
        write_matrix_csv(space, m, tmp_path / "matrix.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 32
    assert (tmp_path / "matrix.csv").read_text().count("\n") == n + 1


# Named for the two-process writer they once held to the serial one: with
# one writer left they hold its bytes fixed across block boundaries, with
# blocks of a few rows, which the split on a block boundary relied on.
SPLIT_WRITERS = {
    **WRITERS,
    "pinches_empty.csv": lambda path: sample_pinches(
        _lifo(), forced_points=[]).write_csv(path),
    "trace_n300.csv": lambda path: simulate_lifo(
        WeightSeq(np.ones(300)), rng_seed=3).write_csv(path),
    "markov_trace_n300.csv": lambda path: simulate_markov(
        WeightSeq(np.linspace(0.5, 1.5, 300)), horizon=40.0,
        rng_seed=3).write_csv(path),
}


@pytest.mark.parametrize("n", [0, 3, 8, 12, 13, 19],
                         ids=["0rows", "lt1block", "2blocks", "3blocks",
                              "4blocks_partial", "5blocks_partial"])
def test_two_process_writer_equals_serial(monkeypatch, tmp_path, n):
    floats, ints, tokens = _cycle(FLOATS, n), _cycle(INTS, n), _cycle(TOKENS, n)
    columns = [np.array(floats), np.array(ints, dtype=np.int64),
               np.array(tokens), [2 ** 70 + k for k in range(n)], floats,
               range(n)]
    header = ["t", 0.25, 1e-05, "C4_integral_y=1", "mass", "flag"]
    _write_csv(tmp_path / "one.csv", header, columns)
    monkeypatch.setattr("wmgraph.paths._BLOCK_CELLS", 6 * 4)   # 4 rows
    _write_csv(tmp_path / "blocks.csv", header, columns)
    assert (tmp_path / "blocks.csv").read_bytes() \
        == (tmp_path / "one.csv").read_bytes() == _csv_module_bytes(
            tmp_path / "old.csv", header, zip(*(list(c) for c in columns)))


@pytest.mark.parametrize("rows", [1, 2, 3, 5])
@pytest.mark.parametrize("name", sorted(SPLIT_WRITERS))
def test_two_process_result_files_equal_serial(monkeypatch, tmp_path, name,
                                               rows):
    path = tmp_path / name
    SPLIT_WRITERS[name](path)
    header = path.read_bytes().split(b"\r\n")[0]
    monkeypatch.setattr("wmgraph.paths._BLOCK_CELLS",
                        rows * (header.count(b",") + 1))
    SPLIT_WRITERS[name](tmp_path / "blocks.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == path.read_bytes()


def _reference_csv_blocks(columns, blocks):
    """The CSV text of each block of rows, as the writer formatted it
    before its array encoder: a block starts at each item of the range
    ``blocks`` and holds ``blocks.step`` rows, and one ``%`` fills a
    template of ``"%s"`` rows with its cells, interleaved row by row."""
    m = len(columns)
    row = ",".join(["%s"] * m) + "\r\n"
    for a in blocks:
        parts = [c[a:a + blocks.step] for c in columns]
        cells = [None] * (m * len(parts[0]))
        for j, p in enumerate(parts):
            cells[j::m] = p.tolist() if isinstance(p, np.ndarray) else p
        yield row * len(parts[0]) % tuple(cells)


def _reference_csv(header, columns, step=7):
    return (",".join(map(str, header)) + "\r\n" + "".join(
        _reference_csv_blocks(columns, range(0, len(columns[0]), step)))
    ).encode()


def _random_floats(rng, n):
    """Floats of every kind the encoder treats apart: log-uniform over its
    range and past it, short decimals and their neighbours, integers,
    powers of 2 and 10, subnormals, extremes, zeros, inf and nan."""
    x = np.concatenate([
        10.0 ** rng.uniform(-9, 19, n) * rng.choice([-1.0, 1.0], n),
        rng.uniform(-1e3, 1e3, n).round(rng.integers(0, 16)),
        rng.integers(-10 ** 6, 10 ** 6, n).astype(float),
        2.0 ** rng.integers(-1074, 1024, n), 10.0 ** rng.integers(-8, 20, n),
        rng.choice([0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                    1.7976931348623157e308, np.inf, -np.inf, np.nan], n)])
    with np.errstate(over="ignore"):
        x = np.concatenate((x, np.nextafter(x, np.inf),
                            np.nextafter(x, -np.inf)))
    return rng.permutation(x)[:n]


@pytest.mark.parametrize("seed", range(4))
def test_random_mixed_files_equal_the_reference_across_blocks(
        monkeypatch, tmp_path, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    ints = rng.integers(-2 ** 63, 2 ** 63 - 1, n, endpoint=True) \
        >> rng.integers(0, 64, n)
    columns = [_random_floats(rng, n), ints,
               rng.integers(0, 10 ** 6, n, dtype=np.int32),
               rng.choice(np.array([b"arrival", b"departure", b""]), n),
               rng.choice(["self_loop", "boundary_tie", "", "b"], n),
               _random_floats(rng, n), range(5, 5 + 3 * n, 3),
               _random_floats(rng, n).tolist(), ints.tolist(),
               [2 ** 70 - k for k in range(n)]]
    order = rng.permutation(len(columns))
    columns = [columns[j] for j in order]
    header = [f"c{j}" for j in order]
    # byte-string cells are written as they are, not as str of bytes
    want = _reference_csv(header, [
        c.astype(str) if getattr(c, "dtype", None) == "S9" else c
        for c in columns])
    for cells in (1, len(columns) - 1, 3 * len(columns) + 1, 1 << 16):
        monkeypatch.setattr("wmgraph.paths._BLOCK_CELLS", cells)
        _write_csv(tmp_path / "x.csv", header, columns)
        assert (tmp_path / "x.csv").read_bytes() == want, cells


def _lines(values, encode):
    """``encode``'s text of ``values``, one per line, and the text of
    ``str``."""
    return (encode(values), "".join(f"{v}\n" for v in values.tolist()))


def _assert_lines_equal(got, want):
    if got != want.encode():
        got, want = got.decode().split("\n"), want.split("\n")
        i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        raise AssertionError(f"line {i}: {got[i]!r} != {want[i]!r}")


def test_float_encoder_equals_repr_on_a_million_values():
    rng = np.random.default_rng(2024)
    n = 200_000
    decimals = np.array([round(v, d) for v, d in zip(
        rng.uniform(-1e4, 1e4, n).tolist(), rng.integers(0, 16, n).tolist())])
    loguniform = 10.0 ** rng.uniform(-6, 17, n) * rng.choice([-1.0, 1.0], n)
    powers = np.concatenate((2.0 ** np.arange(-1074, 1024),
                             10.0 ** np.arange(-323, 309)))
    x = np.concatenate([
        loguniform, decimals, np.nextafter(decimals, np.inf),
        np.nextafter(decimals, -np.inf), powers, np.nextafter(powers, 0.0),
        np.nextafter(powers, np.inf), -powers,
        rng.integers(-2 ** 53, 2 ** 53, n).astype(float),
        np.nextafter(0.0, 1.0) * rng.integers(1, 2 ** 52, 1000),   # subnormals
        [0.0, -0.0, 5e-324, 1.7976931348623157e308, np.inf, -np.inf, np.nan,
         1e-6, 1e16, 1e17, 9999999999999998.0, 0.1 + 0.2]])
    assert x.size >= 10 ** 6
    # floats: repr; json's spelling passes through the same encoder
    _assert_lines_equal(*_lines(x, lambda v: _text_block([v], b"\n")))
    _assert_lines_equal(
        _text_block([x[-12:]], b"\n", json.dumps),
        "".join(json.dumps(v) + "\n" for v in x[-12:].tolist()))
    # the exact path decides nearly every cell in its range
    left = []
    _text_block([loguniform], b"\n", lambda v: left.append(v) or repr(v))
    assert len(left) < n // 100, len(left)


def test_int_encoder_equals_str():
    rng = np.random.default_rng(7)
    n = 100_000
    v = rng.integers(-2 ** 63, 2 ** 63 - 1, n, endpoint=True) \
        >> rng.integers(0, 64, n)
    tens = 10 ** np.arange(19, dtype=np.int64)
    v = np.concatenate((v, tens, tens - 1, -tens, 1 - tens, [
        0, 1, -1, 2 ** 63 - 1, -2 ** 63, -2 ** 63 + 1, 99999999, 100000000]))
    _assert_lines_equal(*_lines(v, lambda v: _text_block([v], b"\n")))
    _assert_lines_equal(*_lines(v.astype(np.int32),
                                lambda v: _text_block([v], b"\n")))
