#!/usr/bin/env python3
"""Outside-in benchmark for lincyc: one process, one thread, one caller in a
closed loop (the next call starts when the previous one returns).

    python3 perfbench/run.py --workload even-sparse --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it sets up the workload three times (``setup_s`` is the
median), times one pass over the batch and prints the end-to-end metrics.
With ``--trace 1`` it sets up once, times an untraced pass, then a pass with
every layer wrapped, and prints the per-layer metrics and the tracing
overhead; the spans go to ``perfbench/out/``.  Either way every output is
re-checked outside the timed region, and the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

lincyc is imported from ``src/`` of the checkout this file sits in, never
from an installed copy; without it the run exits with code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUPS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "call_ms_p50": "ms",
    "call_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

_TIMED = ["calls", "self_s"]
PER_LAYER_FIELDS = {
    "generators.greedy_partial_steiner": _TIMED + ["edges"],
    "generators.high_girth_sparsify": _TIMED + ["attempts"],
    "generators.plant_cycles": _TIMED,
    "core.graph_build": _TIMED + ["edges"],
    "core.verify": _TIMED,
    "core.project": _TIMED,
    "reductions.r_partite_reduction": _TIMED,
    "reductions.d_minimal": _TIMED + ["removed"],
    "reductions.min_degree_subgraph": _TIMED,
    "reductions.degenerate_ordering": _TIMED,
    "reductions.bfs_layers": _TIMED,
    "mert.build_mert": _TIMED + ["height"],
    "mert.anchor_and_label": _TIMED,
    "mert.expand_tree_path": _TIMED,
    "engine.layer_scan": _TIMED,
    "engine.cycles_from_boundary": _TIMED + ["fired"],
    "engine.cycles_from_internal": _TIMED + ["fired"],
    "engine.transversal_cleanup": _TIMED,
    "engine.dense_connected": _TIMED,
    "engine.find_c2k": _TIMED,
    "pathfinder.anchored_subgraph": _TIMED + ["failed"],
    "pathfinder.dense_layer_subgraph": _TIMED,
    "pathfinder.pan_connected": _TIMED + ["failed"],
    "pathfinder.path_with_part": _TIMED,
    "pathfinder.rainbow_special_path": _TIMED,
    "pathfinder.rainbow_dfs": ["calls"],
    "oracle.enumerate_cycles": _TIMED + ["budget_exceeded"],
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer, fields in PER_LAYER_FIELDS.items():
        for f in fields:
            units[f"{layer}.{f}"] = "s" if f == "self_s" else "count"
        if layer == "engine.find_c2k":
            units["engine.layer_yield"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


def load_lincyc():
    """Import lincyc from this checkout's src/ or exit with code 1."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import lincyc
    except ImportError as err:
        sys.exit(f"perfbench: cannot import lincyc from {src}: {err}")
    if src not in Path(lincyc.__file__).resolve().parents:
        sys.exit(f"perfbench: lincyc resolved to {lincyc.__file__}, not under {src}")
    return lincyc


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: run metadata that tells sandbox
    noise apart from a change in the program."""
    start = perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - start


def harrell_davis(xs: list[float], rank: int) -> float:
    """Harrell-Davis estimate of the rank-th smallest of the sorted ``xs``
    (1-based): the mean of all order statistics, the i-th weighted by the
    chance that a Beta(rank, n + 1 - rank) variable falls in ((i-1)/n, i/n].
    The rank-th statistic gets the largest weight and its neighbours the
    rest, so the estimate does not jump with whichever single call lands on
    that rank."""
    n = len(xs)

    def beta_cdf(x: float) -> float:
        # I_x(a, b) for whole a, b is the chance of at least a successes in
        # a + b - 1 = n trials of probability x
        if x <= 0.0 or x >= 1.0:
            return min(max(x, 0.0), 1.0)
        lx, l1x = math.log(x), math.log1p(-x)
        lgn = math.lgamma(n + 1)
        return sum(math.exp(lgn - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                            + j * lx + (n - j) * l1x) for j in range(rank, n + 1))

    cdf = [beta_cdf(i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def median(latencies: list[float]) -> float:
    """Harrell-Davis median: for an even count, the mean of the estimates
    of the two middle order statistics."""
    xs = sorted(latencies)
    n = len(xs)
    return (harrell_davis(xs, (n + 1) // 2) + harrell_davis(xs, n // 2 + 1)) / 2


def tail(latencies: list[float], beyond: int = 10) -> tuple[float, float, int]:
    """(value, percentile, samples above it) for the highest order statistic
    with at least ``beyond`` samples above it (the minimum when there are
    too few samples); the value is its Harrell-Davis estimate."""
    xs = sorted(latencies)
    rank = max(len(xs) - beyond, 1)
    return harrell_davis(xs, rank), 100.0 * rank / len(xs), len(xs) - rank


def timed_pass(calls, tracer=None):
    """Run every call once, in order; returns (wall seconds, latencies, outcomes)."""
    from workloads import Crash

    latencies, outcomes = [], []
    start = perf_counter()
    for call in calls:
        t0 = perf_counter()
        try:
            out = call.run() if tracer is None else tracer.call("bench.call", call.run)
        except Exception:
            out = Crash(traceback.format_exc())
        latencies.append(perf_counter() - t0)
        outcomes.append(out)
    return perf_counter() - start, latencies, outcomes


def set_up(workload: str, seed: int, seconds: float):
    """Build the batch; returns (calls, seconds taken).  The collection and
    freeze keep the instances out of the collector's work during timing."""
    import workloads

    gc.unfreeze()
    gc.collect()
    start = perf_counter()
    calls = workloads.build(workload, seed, seconds)
    gc.collect()
    gc.freeze()
    return calls, perf_counter() - start


def run(workload: str, seed: int, seconds: float, trace: bool,
        setups: int = SETUPS, out_dir: Path = OUT) -> dict:
    """One benchmark run; returns the result object plus a ``report`` of
    human-readable lines and a ``meta`` dict."""
    import tracer as tracing
    import workloads

    calib_start = calibrate()
    setup_times = []
    for _ in range(1 if trace else setups):
        calls = None
        calls, took = set_up(workload, seed, seconds)
        setup_times.append(took)

    wall, latencies, outcomes = timed_pass(calls)
    successes, errors, digest = workloads.judge(calls, outcomes)
    lines = [f"batch: {len(calls)} calls, one caller, closed loop"]
    meta = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "calls": len(calls), "python": sys.version.split()[0], "digest": digest}

    if not trace:
        tail_s, pct, beyond = tail(latencies)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "call_ms_p50": 1000 * median(latencies),
            "call_ms_tail": 1000 * tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": successes / len(calls),
        }
        notes = {
            "setup_s": f"median of {len(setup_times)} set-ups",
            "call_ms_p50": "Harrell-Davis",
            "call_ms_tail": f"p{pct:.1f} of {len(calls)} samples, {beyond} beyond, Harrell-Davis",
            "success_rate": f"{successes} of {len(calls)}",
        }
        units = dict(END_TO_END)
        printed = dict(metrics, op_error_rate=len(errors) / len(calls))
        units["op_error_rate"] = "ratio"
        notes["op_error_rate"] = f"{len(errors)} of {len(calls)}"
        meta["call_ms_tail_percentile"] = pct
    else:
        out_dir.mkdir(parents=True, exist_ok=True)
        with tracing.Tracer() as tr:
            traced_wall, _, traced_outcomes = timed_pass(calls, tr)
        t_successes, t_errors, t_digest = workloads.judge(calls, traced_outcomes)
        if (t_successes, t_digest) != (successes, digest):
            t_errors.append(f"traced pass digest {t_digest} differs from untraced {digest}")
        errors = t_errors
        spans_path = out_dir / f"spans-{workload}-seed{seed}.jsonl.gz"
        tr.write(spans_path)
        layers = tracing.layer_metrics(tr)
        units = per_layer_units()
        metrics = {name: layers.get(name, 0) for name in units}
        attempts = metrics["engine.cycles_from_boundary.calls"] + \
            metrics["engine.cycles_from_internal.calls"]
        fired = metrics["engine.cycles_from_boundary.fired"] + \
            metrics["engine.cycles_from_internal.fired"]
        metrics["engine.layer_yield"] = fired / attempts if attempts else 0.0
        metrics["trace.overhead_s"] = traced_wall - wall
        printed = metrics
        notes = {"trace.overhead_s": f"traced {traced_wall:.3f} s - untraced {wall:.3f} s"}
        meta["spans"] = os.path.relpath(spans_path, ROOT)
        meta["span_count"] = len(tr.spans)
        lines.append(f"spans: {len(tr.spans)} written to {meta['spans']}")

    meta["calibration_s"] = [calib_start, calibrate()]
    for name, value in printed.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name:42s} {value:14.6g} {units[name]}{note}")
    result = {
        "correct": not errors,
        "attempted": len(calls),
        "failed": min(len(errors), len(calls)),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    return {"result": result, "report": lines, "meta": meta, "errors": errors}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["even-sparse", "all-dense", "gen-oracle"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="sets the batch size: about this long at the reference speed")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    load_lincyc()
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for err in out["errors"][:5]:
        print(f"perfbench: {err}", file=sys.stderr)
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for line in out["report"]:
        print(line)
    print("meta " + json.dumps(out["meta"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
