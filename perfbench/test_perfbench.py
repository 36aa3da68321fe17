"""Tests of the benchmark itself: span arithmetic, patch restoration, tracing
that changes no behaviour, and a tiny run of each workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench

bench.load_lincyc()

import tracer as tracing  # noqa: E402  (needs lincyc on the path)
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent


def test_self_times_subtract_children_on_nested_spans():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("a.inner", 2.0, 3.0, 1, 0),
        ("b", 5.0, 9.0, 0, 0),
        ("root", 20.0, 21.5, -1, 1),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.5]
    tr = tracing.Tracer()
    tr.spans = spans
    tr.counts["a.edges"] = 7
    layers = tracing.layer_metrics(tr)
    assert layers["root.calls"] == 2 and layers["root.self_s"] == 4.5
    assert layers["a.self_s"] == 2.0 and layers["a.edges"] == 7


def test_harrell_davis_estimates_the_named_order_statistic():
    assert bench.median([4.0]) == 4.0
    assert bench.median([7.0] * 9) == pytest.approx(7.0)
    assert bench.median([3.0, 1.0, 2.0]) == pytest.approx(2.0)
    # symmetric samples: the estimate sits on the centre
    assert bench.median(list(range(40))) == pytest.approx(19.5)
    value, pct, beyond = bench.tail([float(i) for i in range(100)])
    assert (pct, beyond) == (90.0, 10)
    assert 88.0 < value < 90.0
    # one straggler far out moves the tail estimate only a little
    moved, _, _ = bench.tail([float(i) for i in range(99)] + [10_000.0])
    assert moved - value < 1.0
    assert bench.tail([5.0, 1.0]) == (pytest.approx(2.0), 50.0, 1)


def _bindings():
    from lincyc.core import LinearHypergraph

    out = {("LinearHypergraph", "__init__"): LinearHypergraph.__init__}
    for key, mod in sys.modules.items():
        if key == "lincyc" or key.startswith("lincyc."):
            for name, value in vars(mod).items():
                if callable(value):
                    out[key, name] = value
    return out


def test_tracer_patches_every_binding_and_restores_all():
    import lincyc.engine
    import lincyc.pathfinder

    before = _bindings()
    original = lincyc.pathfinder.anchored_subgraph
    with tracing.Tracer():
        wrapped = lincyc.pathfinder.anchored_subgraph
        assert wrapped is not original
        assert lincyc.engine.anchored_subgraph is wrapped
        assert sys.modules["lincyc"].anchored_subgraph is wrapped
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def _run(workload, trace, tmp_path, seconds=0.5):
    return bench.run(workload, seed=3, seconds=seconds, trace=trace, setups=1, out_dir=tmp_path)


def test_traced_and_untraced_runs_give_the_same_digest(tmp_path):
    plain = _run("even-sparse", False, tmp_path)
    traced = _run("even-sparse", True, tmp_path)
    assert plain["meta"]["digest"] == traced["meta"]["digest"]
    assert traced["result"]["correct"], traced["errors"]
    metrics = traced["result"]["metrics"]
    assert metrics["reductions.d_minimal.calls"]["value"] > 0
    assert metrics["pathfinder.pan_connected.calls"]["value"] == 0
    assert (tmp_path / "spans-even-sparse-seed3.jsonl.gz").exists()


def test_all_dense_trace_never_reaches_the_even_pipeline(tmp_path):
    metrics = _run("all-dense", True, tmp_path)["result"]["metrics"]
    assert metrics["pathfinder.anchored_subgraph.calls"]["value"] > 0
    assert metrics["reductions.d_minimal.calls"]["value"] == 0
    assert metrics["mert.build_mert.calls"]["value"] == 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run(workload, tmp_path):
    out = _run(workload, False, tmp_path)
    result = out["result"]
    assert result["correct"], out["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert all(m["value"] > 0 for k, m in result["metrics"].items() if k != "success_rate")


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_without_lincyc_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "even-sparse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
