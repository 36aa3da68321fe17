"""Command-line front-end: exit codes, JSON outputs, pipelines between
subcommands, config merging, and the density sweep."""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lincyc import LinearHypergraph, cli, engine, enumerate_cycles, greedy_partial_steiner
from lincyc.core import MAX_PARSED_VERTICES
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
    monkeypatch.setattr(engine, "C2K_BUDGET", 10**4)
    code, out, err = run(
        ["find", "--input", str(graph), "--k", "4", "--mode", "c2k", "--seed", "0"], capsys
    )
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert err.startswith("error: search for a linear cycle of length 8 stopped at its budget")
    assert "incomplete" in err


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
    ],
    ids=["spectrum-max-len", "find-k-zero", "find-k-negative", "gen-lengths",
         "sweep-trials", "sweep-k", "sweep-points", "sweep-jobs", "spectrum-budget",
         "sweep-d-nan", "sweep-d-inf"],
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
