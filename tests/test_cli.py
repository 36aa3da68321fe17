"""Command-line front-end: exit codes, JSON outputs, pipelines between
subcommands, config merging, and the density sweep."""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lincyc
from lincyc import (
    LinearHypergraph,
    cli,
    engine,
    enumerate_cycles,
    generators,
    greedy_partial_steiner,
)
from lincyc.core import MAX_PARSED_VERTICES
from lincyc.oracle import DEFAULT_BUDGET, short_cycle_starts
from conftest import FANO_LINES


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- gen ---------------------------------------------------------------------------------


def test_gen_planted_writes_parseable_graph(tmp_path, capsys):
    out = tmp_path / "g.txt"
    wits = tmp_path / "w.json"
    code, _, err = run(
        ["gen", "--n", "24", "--r", "3", "--mode", "planted", "--lengths", "3",
         "--out", str(out), "--witnesses-out", str(wits), "--seed", "1"],
        capsys,
    )
    assert code == 0
    assert "# seed 1" in err
    g = LinearHypergraph.from_text(out.read_text())
    assert enumerate_cycles(g, 6).lengths == {3}
    payload = json.loads(wits.read_text())
    assert len(payload) == 1 and len(payload[0]) == 3


def test_parser_defaults_are_the_library_defaults():
    gen = cli.build_parser().parse_args(["gen", "--n", "5"])
    spec = generators.GenSpec(n=5)
    for key in ("r", "mode", "d", "girth_floor", "background_density"):
        assert getattr(gen, key) == getattr(spec, key)
    spectrum = cli.build_parser().parse_args(["spectrum", "--input", "g.txt"])
    assert spectrum.budget == DEFAULT_BUDGET


def test_gen_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 24, "mode": "planted", "lengths": "4"}))
    out = tmp_path / "g.txt"
    # --n on the command line must beat the config value
    code, _, _ = run(
        ["gen", "--n", "30", "--config", str(cfg), "--out", str(out), "--seed", "0"],
        capsys,
    )
    assert code == 0
    g = LinearHypergraph.from_text(out.read_text())
    assert g.n == 30
    assert enumerate_cycles(g, 6).lengths == {4}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--mode", "sparsified", "--d", "-1"], "target degree d=-1.0 must be positive"),
        (["--mode", "sparsified", "--d", "0"], "target degree d=0.0 must be positive"),
        (["--mode", "planted", "--lengths", "3", "--background-density", "-5"],
         "background density -5.0 must be at least 0"),
        (["--r", "1"], "uniformity r=1 below 2"),
    ],
    ids=["sparsified-d-negative", "sparsified-d-zero", "background-density", "r-one"],
)
def test_gen_rejects_bad_values(capsys, argv, message):
    code, out, err = run(["gen", "--n", "24", "--seed", "0"] + argv, capsys)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_gen_refuses_a_graph_the_parsers_would_refuse(tmp_path, capsys):
    out = tmp_path / "big.txt"
    code, stdout, err = run(
        ["gen", "--n", str(MAX_PARSED_VERTICES + 1), "--mode", "planted", "--lengths", "4",
         "--seed", "0", "--out", str(out)],
        capsys,
    )
    assert code == 1 and stdout == "" and not out.exists()
    assert err == (f"error: vertex count n = {MAX_PARSED_VERTICES + 1} "
                   f"exceeds the cap {MAX_PARSED_VERTICES}\n")


def test_gen_huge_girth_floor_exits_without_traceback(capsys):
    code, out, err = run(
        ["gen", "--n", "30", "--mode", "sparsified", "--d", "1",
         "--girth-floor", "100000", "--seed", "0"],
        capsys,
    )
    assert code == 0 and "Traceback" not in err
    lines = out.splitlines()
    r, n, m = map(int, lines[0].split())
    assert (r, n) == (3, 30) and len(lines) == m + 1


def test_gen_sparsifier_budget_stop_is_one_error_line(capsys, monkeypatch):
    monkeypatch.setattr(generators, "short_cycle_starts",
                        functools.partial(short_cycle_starts, budget=1))
    code, out, err = run(
        ["gen", "--n", "40", "--mode", "sparsified", "--d", "2", "--girth-floor", "5",
         "--seed", "3"],
        capsys,
    )
    assert code == 1 and out == ""
    assert err == "error: node budget 1 exceeded\n"


@pytest.mark.parametrize(
    "config",
    [
        {"func": 1},
        [1, 2],
        {"seed": "abc"},
        {"mode": "bogus"},
        {"best_effort": True, "epsilon": 0.1},
        {"k": [2]},
    ],
    ids=["not-a-flag", "list", "bad-int", "bad-choice", "removed-flags", "list-value"],
)
def test_bad_config_exits_one(tmp_path, capsys, config):
    graph = tmp_path / "g.txt"
    graph.write_text("3 3 1\n0 1 2\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(
        ["find", "--input", str(graph), "--k", "2", "--config", str(cfg)], capsys
    )
    assert code == 1 and out == ""
    assert "Traceback" not in err


def test_sweep_config_rejects_nan_bound(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d_to": float("nan")}))
    code, out, err = run(
        ["sweep", "--n", "20", "--d-from", "1", "--d-to", "2", "--config", str(cfg)], capsys
    )
    assert code == 1 and out == ""
    assert "argument --d-to:" in err and "Traceback" not in err


def test_config_supplies_required_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d_from": 1, "d_to": 2}))
    code, out, err = run(
        ["sweep", "--n", "20", "--points", "2", "--trials", "1", "--seed", "0",
         "--config", str(cfg)],
        capsys,
    )
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == "d,trials,successes,mean_shortest,mean_bound"
    assert [row.split(",")[:2] for row in lines[1:]] == [["1", "1"], ["2", "1"]]


def test_config_switch_and_value_apply_like_flags(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("3 3 1\n0 1 2\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"json": True, "strict": False, "seed": 5}))
    code, out, _ = run(
        ["find", "--input", str(graph), "--k", "2", "--config", str(cfg)], capsys
    )
    assert code == 2
    assert json.loads(out)["seed"] == 5


# -- find / verify -----------------------------------------------------------------------


@pytest.fixture()
def planted_file(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code, _, _ = run(
        ["gen", "--n", "40", "--r", "3", "--mode", "planted", "--lengths", "4",
         "--background-density", "0.5", "--out", str(out), "--seed", "1"],
        capsys,
    )
    assert code == 0
    return out


def test_find_exact_length_four(planted_file, capsys):
    code, out, _ = run(
        ["find", "--input", str(planted_file), "--k", "2", "--mode", "c2k",
         "--seed", "0"],
        capsys,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["outcome"] == "success" and obj["length"] == 4


def test_find_exact_length_cut_off_by_its_budget_is_an_error(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "g.txt"
    graph.write_text(greedy_partial_steiner(35, 3, seed=0, effort=1.0).to_text())
    # too few expansions to reach a chain of 7 edges, so no C8 can close
    monkeypatch.setattr(engine, "C2K_BUDGET", 6)
    code, out, err = run(
        ["find", "--input", str(graph), "--k", "4", "--mode", "c2k", "--seed", "0"], capsys
    )
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert err.startswith("error: search for a linear cycle of length 8 stopped at its budget")
    assert "incomplete" in err


def test_find_exact_length_longer_than_any_linear_cycle_fails_at_once(tmp_path, capsys):
    # a linear cycle of length 80 in a 3-graph needs 160 vertices: the answer
    # is a complete "none", given before any search
    graph = tmp_path / "g.txt"
    code, _, _ = run(["gen", "--n", "30", "--out", str(graph), "--seed", "0"], capsys)
    assert code == 0
    start = time.perf_counter()
    code, out, err = run(
        ["find", "--input", str(graph), "--k", "40", "--mode", "c2k", "--seed", "0"], capsys
    )
    assert time.perf_counter() - start < 10
    assert (code, err) == (2, "")
    assert json.loads(out) == {"outcome": "failure", "seed": 0,
                               "reason": "no linear cycle of length 80 found"}


def test_find_exact_length_below_four_is_an_error(planted_file, capsys):
    # nothing is searched for k = 1, so there is no honest failure to report
    code, out, err = run(
        ["find", "--input", str(planted_file), "--k", "1", "--mode", "c2k", "--seed", "0"],
        capsys,
    )
    assert (code, out) == (1, "")
    assert err == "error: need k >= 2 for a cycle of length 2k\n"


def test_find_then_verify_round_trip(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    code, _, _ = run(
        ["gen", "--n", "150", "--r", "3", "--out", str(graph), "--seed", "0"], capsys
    )
    assert code == 0
    code, out, _ = run(
        ["find", "--input", str(graph), "--k", "2", "--mode", "even", "--json",
         "--seed", "0"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == "success"
    cycles = tmp_path / "c.json"
    cycles.write_text(json.dumps({"cycles": report["cycles"]}))
    code, out, _ = run(
        ["verify", "--input", str(graph), "--cycles", str(cycles)], capsys
    )
    assert code == 0 and "verify" in out


def test_find_failure_exits_two(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("3 3 1\n0 1 2\n")
    code, out, _ = run(
        ["find", "--input", str(graph), "--k", "2", "--mode", "even", "--seed", "0"],
        capsys,
    )
    assert code == 2 and "failure" in out


def test_verify_tampered_cycle(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("3 8 4\n0 1 4\n1 2 5\n2 3 6\n0 3 7\n")
    cycles = tmp_path / "c.json"
    cycles.write_text(json.dumps([[[0, 1, 4], [1, 2, 5], [2, 3, 6]]]))  # open chain
    code, out, _ = run(["verify", "--input", str(graph), "--cycles", str(cycles)], capsys)
    assert code == 2 and "cycle 0" in out


def test_missing_input_exits_one(tmp_path, capsys):
    code, _, err = run(
        ["find", "--input", str(tmp_path / "nope.txt"), "--k", "2"], capsys
    )
    assert code == 1 and "input error" in err


def test_malformed_graph_exits_one(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("3 7 7\n0 1 2\n0 3 4\n")
    code, _, err = run(["find", "--input", str(graph), "--k", "2"], capsys)
    assert code == 1 and err.startswith("error: line 1:")
    assert "Traceback" not in err


def test_oversized_vertex_count_exits_one(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text(f"3 {MAX_PARSED_VERTICES + 1} 0\n")
    code, _, err = run(["find", "--input", str(graph), "--k", "2"], capsys)
    assert code == 1 and err.startswith("error: vertex count")
    assert err.count("\n") == 1


def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    def exhausted(text):
        raise MemoryError

    monkeypatch.setattr(LinearHypergraph, "from_text", exhausted)
    graph = tmp_path / "g.txt"
    graph.write_text("3 3 1\n0 1 2\n")
    assert run(["find", "--input", str(graph), "--k", "2"], capsys) == (
        1, "", "error: out of memory\n")


# Measured on Linux x86-64 with Python 3.11: `find --mode all` on a one-edge
# graph runs under an address-space limit of 24 MB, and on an edgeless graph
# at the parser's cap of 10**6 vertices it needs 88 MB, nearly all of it the
# vertex set that parsing builds (a 70 MB tracemalloc peak, the same for the
# parse alone).  `--mode all` runs no partite reduction, so the big run
# fails on the graph's own size.  The limit sits about halfway, in ratio,
# between the two and binds the child alone.
AS_LIMIT = 48 << 20


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS is enforced on Linux")
def test_out_of_memory_in_a_child_is_one_error_line(tmp_path):
    resource = pytest.importorskip("resource")

    def find(text):
        graph = tmp_path / "g.txt"
        graph.write_text(text)
        return subprocess.run(
            [sys.executable, "-m", "lincyc.cli", "find", "--mode", "all", "--input", str(graph),
             "--k", "2", "--seed", "0"],
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT)),
            env={**os.environ, "PYTHONPATH": str(Path(lincyc.__file__).parents[1])},
            capture_output=True, text=True, timeout=120,
        )

    small = find("3 3 1\n0 1 2\n")  # the limit leaves room for a small run
    assert small.returncode == 2 and small.stderr == ""
    big = find(f"3 {MAX_PARSED_VERTICES} 0\n")
    assert (big.returncode, big.stdout, big.stderr) == (1, "", "error: out of memory\n")


# the header's r: thresholds such as c1 = 128 r^(2r+3) would not fit a float
@pytest.mark.parametrize("text", [
    "1000 5 0\n",
    "1000 1000 1\n" + " ".join(map(str, range(1000))) + "\n",
    "1000000000 5 0\n",
], ids=["r1000-empty", "r1000-one-edge", "r1e9-empty"])
@pytest.mark.parametrize("mode", ["all", "even"])
def test_uniformity_past_a_float_exits_one(tmp_path, capsys, text, mode):
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    code, out, err = run(["find", "--input", str(graph), "--k", "2", "--mode", mode, "--json"],
                         capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: uniformity r=") and err.count("\n") == 1


def test_undecodable_config_exits_one(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("3 3 1\n0 1 2\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe{}")
    code, out, err = run(["find", "--input", str(graph), "--k", "2", "--config", str(cfg)],
                         capsys)
    assert code == 1 and out == ""
    assert f"--config {cfg}: 'utf-8' codec can't decode" in err and "Traceback" not in err


def test_usage_error_exits_one(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("3 3 1\n0 1 2\n")
    code, _, err = run(
        ["find", "--input", str(graph), "--k", "2", "--best-effort"], capsys
    )
    assert code == 1 and "unrecognized arguments: --best-effort" in err
    assert run(["find", "--k", "2"], capsys)[0] == 1
    assert run(["find", "--help"], capsys)[0] == 0


@pytest.mark.parametrize(
    "payload",
    [[1, 2], {"cycles": 5}, {"foo": 1}, [[[0, 1, "a"], [1, 3, 5], [0, 3, 4]]], [[0, 1, 2]]],
    ids=["list-of-ints", "cycles-not-a-list", "no-cycles-key", "string-vertex", "cycle-of-ints"],
)
def test_verify_malformed_cycles_exits_one(tmp_path, capsys, fano, payload):
    graph = tmp_path / "g.txt"
    graph.write_text(fano.to_text())
    cycles = tmp_path / "c.json"
    cycles.write_text(json.dumps(payload))
    code, out, err = run(["verify", "--input", str(graph), "--cycles", str(cycles)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: cycles JSON") and "Traceback" not in err


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20,
)
# mostly the graph's own lines, so payloads that verify, fail and are malformed all occur
cycle_lists = st.lists(
    st.lists(st.sampled_from(FANO_LINES).map(list) | st.lists(st.integers(-2, 8), max_size=4),
             max_size=5),
    max_size=3,
)
payloads = (cycle_lists | cycle_lists.map(lambda c: {"cycles": c}) | json_values
            | st.dictionaries(st.sampled_from(["cycles", "x"]), cycle_lists | json_values))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payloads)
def test_verify_any_cycles_payload_exits_cleanly(tmp_path, capsys, fano, payload):
    graph = tmp_path / "g.txt"
    graph.write_text(fano.to_text())
    cycles = tmp_path / "c.json"
    cycles.write_text(json.dumps(payload))
    code, out, err = run(["verify", "--input", str(graph), "--cycles", str(cycles)], capsys)
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 0:
        assert out.endswith("cycles verify\n") and err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--input", "{graph}", "--max-len", "2"],
        ["find", "--input", "{graph}", "--k", "0"],
        ["find", "--input", "{graph}", "--mode", "all", "--k", "-1"],
        ["gen", "--n", "24", "--mode", "planted", "--lengths", "3,x"],
        ["sweep", "--n", "20", "--d-from", "1", "--d-to", "2", "--trials", "0"],
        ["sweep", "--n", "20", "--d-from", "1", "--d-to", "2", "--k", "0"],
        ["sweep", "--n", "20", "--d-from", "1", "--d-to", "2", "--points", "0"],
        ["sweep", "--n", "20", "--d-from", "1", "--d-to", "2", "--jobs", "0"],
        ["spectrum", "--input", "{graph}", "--budget", "-1"],
        ["sweep", "--n", "20", "--d-to", "2", "--d-from", "nan"],
        ["sweep", "--n", "20", "--d-from", "1", "--d-to", "inf"],
        ["sweep", "--n", "20", "--d-to", "2", "--d-from", "-5"],
        ["sweep", "--n", "20", "--d-from", "1", "--d-to", "0"],
        ["sweep", "--n", "20", "--d-from", "1", "--d-to", "2", "--r", "1"],
        ["sweep", "--n", "20", "--d-from", "1", "--d-to", "2", "--r", "0"],
    ],
    ids=["spectrum-max-len", "find-k-zero", "find-k-negative", "gen-lengths",
         "sweep-trials", "sweep-k", "sweep-points", "sweep-jobs", "spectrum-budget",
         "sweep-d-nan", "sweep-d-inf", "sweep-d-negative", "sweep-d-zero",
         "sweep-r-1", "sweep-r-0"],
)
def test_bad_argument_value_is_a_usage_error(tmp_path, capsys, fano, argv):
    graph = tmp_path / "g.txt"
    graph.write_text(fano.to_text())
    code, out, err = run([a.format(graph=graph) for a in argv], capsys)
    assert code == 1 and out == ""
    assert f"argument --{argv[-2][2:]}:" in err and "Traceback" not in err


def test_edgeless_graph_fails_without_traceback(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("3 5 0\n")
    code, out, _ = run(
        ["find", "--input", str(graph), "--k", "2", "--mode", "even", "--seed", "0"],
        capsys,
    )
    assert code == 2 and "failure stage=setup" in out
    code, _, err = run(["mert", "--input", str(graph), "--seed", "0"], capsys)
    assert code == 1 and err.startswith("error: ")


def test_mert_refuses_an_edgeless_graph_before_the_reduction(tmp_path, capsys):
    # r = n = 3000 would give the partite reduction 3000 x 3000 tallies
    graph = tmp_path / "g.txt"
    graph.write_text("3000 3000 0\n")
    tracemalloc.start()
    try:
        code, out, err = run(["mert", "--input", str(graph), "--seed", "0"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (1, "", "error: no vertex to root at: the graph is empty\n")
    assert peak < 2**20


def test_mert_refuses_an_r_that_find_refuses(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("100 100 1\n" + " ".join(map(str, range(100))) + "\n")
    for command in (["find", "--k", "1"], ["mert"]):
        code, out, err = run(command + ["--input", str(graph), "--seed", "0"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: uniformity r=100 puts the thresholds past a float\n"


# -- spectrum / mert -----------------------------------------------------------------------


def test_spectrum_json(planted_file, capsys):
    code, out, _ = run(
        ["spectrum", "--input", str(planted_file), "--max-len", "6"], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert 4 in obj["lengths"] and obj["complete"]


def test_spectrum_budget_exit(planted_file, capsys):
    code, out, err = run(
        ["spectrum", "--input", str(planted_file), "--max-len", "6",
         "--budget", "3"],
        capsys,
    )
    assert code == 1
    assert json.loads(out)["complete"] is False
    assert err.startswith("error:") and err.count("\n") == 1


def test_mert_dump(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    code, _, _ = run(
        ["gen", "--n", "60", "--r", "3", "--out", str(graph), "--seed", "3"], capsys
    )
    assert code == 0
    code, out, _ = run(["mert", "--input", str(graph), "--seed", "3"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert {"root", "height", "levels", "parent", "chi", "matching"} <= set(obj)


# -- sweep ----------------------------------------------------------------------------------


def spearman(xs, ys):
    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        out = [0.0] * len(vals)
        for rank, i in enumerate(order):
            out[i] = float(rank)
        return out

    rx, ry = ranks(xs), ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = (
        sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)
    ) ** 0.5
    return num / den if den else 0.0


def test_sweep_csv_and_monotone_smoke(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, err = run(
        ["sweep", "--n", "80", "--r", "3", "--k", "2", "--d-from", "1",
         "--d-to", "16", "--points", "10", "--trials", "3", "--jobs", "4",
         "--seed", "42", "--out", str(out)],
        capsys,
    )
    assert code == 0 and "# seed 42" in err
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "d,trials,successes,mean_shortest,mean_bound"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 10
    ds = [float(r[0]) for r in rows]
    succ = [int(r[2]) for r in rows]
    # success rate rises with density, up to sampling noise
    assert spearman(ds, succ) > 0


# -- any argv ------------------------------------------------------------------------------
#
# argv for each subcommand, drawn from its flag grammar with edge values: 0,
# negative and huge numbers, NaN and infinities, ids out of range, and empty,
# one-edge, malformed and undecodable graphs.  Whatever the draw, the CLI exits 0, 1 or 2 and
# prints no traceback.  n stays at 40 or below, --jobs at 1, and every search
# budget is small, so no example starts a process or runs long.

HUGE = str(10**30)
PAST_A_FLOAT = str(10**400)
# mostly values the parser accepts, so most draws reach the program itself
FLOATS = ["1", "2.5", "0.5", "6", "1e308", "0", "-0.5", "nan", "inf"]
SEEDS = ["0", "7", "-3", HUGE, "x"]
GRAPHS = {
    "fano": LinearHypergraph(7, 3, FANO_LINES).to_text(),
    "fano-json": LinearHypergraph(7, 3, FANO_LINES).to_json(),
    "packing": greedy_partial_steiner(40, 3, seed=0).to_text(),
    "empty": "3 5 0\n",
    "one-edge": "3 3 1\n0 1 2\n",
    "stray-id": "3 4 1\n0 1 7\n",
    "negative-id": "3 4 1\n-1 1 2\n",
    "huge-n": f"3 {HUGE} 0\n",
    "huge-r": "1000 5 0\n",
    "r-past-n": "1000000000 5 0\n",
    "header-only": "3 7\n",
    "undecodable": b"\xff\xfe3 3 1\n0 1 2\n",
}
CYCLES = {
    "cycles-fano-triangle": [[[0, 1, 2], [2, 3, 6], [0, 3, 4]]],
    "cycles-out-of-range": [[[0, 1, 2], [2, 3, 10**30], [0, 3, -4]]],
    "cycles-none": [],
    "cycles-one-edge": [[[0, 1, 2]]],
    "cycles-ragged": [[[0, 1], [1, 2, 3, 4], []]],
    "cycles-undecodable": b"\xff\xfe[]",
}


def _given(name, values):
    return st.sampled_from(values).map(lambda v: [name, v])


def _maybe(name, values):
    return st.just([]) | _given(name, values)


def _argv(command, *parts):
    return st.tuples(st.just([command]), *parts).map(lambda ps: [a for p in ps for a in p])


def _files(flag, names):
    return st.sampled_from(sorted(names) + ["missing"]).map(lambda f: [flag, "{%s}" % f])


seeds = _maybe("--seed", SEEDS)
cli_argv = st.one_of(
    _argv("find", _files("--input", GRAPHS),
          _given("--k", ["2", "3", "1", "4", "0", "-1", HUGE, PAST_A_FLOAT]),
          _maybe("--mode", ["all", "even", "c2k"]),
          st.sampled_from([[], ["--strict"]]), st.sampled_from([[], ["--json"]]), seeds),
    _argv("spectrum", _files("--input", GRAPHS),
          _maybe("--max-len", ["3", "6", "10", HUGE, "2", "-1"]),
          _given("--budget", ["1", "50", "2000", "0"]), seeds),
    _argv("gen", _given("--n", ["24", "40", "7", "3", "0", "-1", "1"]),
          _maybe("--r", ["3", "4", "2", "1", "0", "-7", "41", HUGE]),
          _maybe("--mode", ["steiner", "sparsified", "planted"]),
          _maybe("--d", FLOATS), _maybe("--girth-floor", ["3", "5", "2", "0", "-1", HUGE]),
          _maybe("--lengths", ["3", "3,5", "4,4", "", "0", "-3", "100", HUGE]),
          _maybe("--background-density", FLOATS), seeds),
    _argv("sweep", _given("--n", ["24", "40", "7", "0", "-1", "1", "10000000"]),
          _maybe("--r", ["3", "4", "2", "1", "-1", HUGE]),
          _maybe("--k", ["2", "1", "3", "0", HUGE, PAST_A_FLOAT]),
          _given("--d-from", FLOATS), _given("--d-to", FLOATS),
          _given("--points", ["1", "2", "3", "0"]), _given("--trials", ["1", "2", "0"]),
          _given("--jobs", ["1"]), _maybe("--mode", ["all", "even"]), seeds),
    _argv("verify", _files("--input", GRAPHS), _files("--cycles", CYCLES), seeds),
    _argv("mert", _files("--input", GRAPHS), _maybe("--root", ["0", "3", "-1", "40", HUGE]), seeds),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cli_argv)
def test_any_argv_exits_cleanly(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(engine, "C2K_BUDGET", 2000)
    monkeypatch.setattr(generators, "short_cycle_starts",
                        functools.partial(short_cycle_starts, budget=20000))
    paths = {"missing": str(tmp_path / "missing")}
    for name, text in GRAPHS.items():
        paths[name] = str(tmp_path / f"{name}.txt")
        data = text if isinstance(text, bytes) else text.encode()
        (tmp_path / f"{name}.txt").write_bytes(data)
    for name, payload in CYCLES.items():
        paths[name] = str(tmp_path / f"{name}.json")
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        (tmp_path / f"{name}.json").write_bytes(data)
    code, _, err = run([a.format(**paths) for a in argv], capsys)
    assert code in (0, 1, 2) and "Traceback" not in err
