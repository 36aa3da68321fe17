"""Span tracer that wraps lincyc's layer functions from outside the package.

Each wrapped call records one span (name, start, end, parent span, call id)
in memory; the benchmark writes the spans out when the run ends.  Wrapping
replaces a function in every lincyc module that binds it, because modules call
each other through their own globals (``pan_connected`` reaches
``anchored_subgraph`` through ``pathfinder``'s binding, ``engine`` binds it
again), so patching one module alone would leave nested calls untimed.
Leaving the ``with`` block puts every original back.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter
from time import perf_counter


def _fired(counts, name, args, result):
    counts[name + ".fired"] += 1


def _failed(counts, name, exc):
    counts[name + ".failed"] += 1


# span name -> (module, attribute, counter on return, counter on raise).
# "core.verify" deliberately covers both witness checkers.
LAYERS = [
    ("generators.greedy_partial_steiner", "lincyc.generators", "greedy_partial_steiner",
     lambda c, n, a, res: c.update({n + ".edges": len(res.edges)}), None),
    ("generators.high_girth_sparsify", "lincyc.generators", "high_girth_sparsify",
     lambda c, n, a, res: c.update({n + ".attempts": res.attempts}),
     lambda c, n, exc: c.update({n + ".attempts": getattr(exc, "attempts", 0)})),
    ("generators.plant_cycles", "lincyc.generators", "plant_cycles", None, None),
    ("core.verify", "lincyc.core", "verify_cycle", None, None),
    ("core.verify", "lincyc.core", "verify_path", None, None),
    ("core.project", "lincyc.core", "project", None, None),
    ("reductions.r_partite_reduction", "lincyc.reductions", "r_partite_reduction", None, None),
    ("reductions.d_minimal", "lincyc.reductions", "d_minimal",
     lambda c, n, a, res: c.update({n + ".removed": len(a[0].vertices) - len(res.vertices)}),
     None),
    ("reductions.min_degree_subgraph", "lincyc.reductions", "min_degree_subgraph", None, None),
    ("reductions.degenerate_ordering", "lincyc.reductions", "degenerate_ordering", None, None),
    ("reductions.bfs_layers", "lincyc.reductions", "bfs_layers", None, None),
    ("mert.build_mert", "lincyc.mert", "build_mert",
     lambda c, n, a, res: c.update({n + ".height": res.height}), None),
    ("mert.anchor_and_label", "lincyc.mert", "anchor_and_label", None, None),
    ("mert.expand_tree_path", "lincyc.mert", "expand_tree_path", None, None),
    ("engine.layer_scan", "lincyc.engine", "_layer_candidates", None, None),
    ("engine.cycles_from_boundary", "lincyc.engine", "cycles_from_boundary", _fired, None),
    ("engine.cycles_from_internal", "lincyc.engine", "cycles_from_internal", _fired, None),
    ("engine.transversal_cleanup", "lincyc.engine", "transversal_cleanup", None, None),
    ("engine.dense_connected", "lincyc.engine", "dense_connected", None, None),
    ("engine.find_c2k", "lincyc.engine", "find_c2k", None, None),
    ("pathfinder.anchored_subgraph", "lincyc.pathfinder", "anchored_subgraph", None, _failed),
    ("pathfinder.dense_layer_subgraph", "lincyc.pathfinder", "dense_layer_subgraph", None, None),
    ("pathfinder.pan_connected", "lincyc.pathfinder", "pan_connected", None, _failed),
    ("pathfinder.path_with_part", "lincyc.pathfinder", "path_with_part", None, None),
    ("pathfinder.rainbow_special_path", "lincyc.pathfinder", "rainbow_special_path", None, None),
    ("pathfinder.rainbow_dfs", "lincyc.pathfinder", "_rainbow_dfs", None, None),
    ("oracle.enumerate_cycles", "lincyc.oracle", "enumerate_cycles", None,
     lambda c, n, exc: c.update({n + ".budget_exceeded": type(exc).__name__ == "BudgetExceeded"})),
]

GRAPH_BUILD = "core.graph_build"


class Tracer:
    """Context manager: installs span-recording wrappers on enter, restores
    the originals on exit.  One caller, one thread."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, call id)
        self.counts: Counter = Counter()
        self.call_id = -1
        self._stack: list[int] = []
        self._patched: list = []  # (namespace dict or class, key, original)

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, on_return, on_raise):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                spans[sid] = (name, start, perf_counter(), parent, self.call_id)
                stack.pop()
                if on_raise is not None:
                    on_raise(counts, name, exc)
                raise
            spans[sid] = (name, start, perf_counter(), parent, self.call_id)
            stack.pop()
            if on_return is not None:
                on_return(counts, name, args, result)
            return result

        return wrapper

    def call(self, name: str, fn, *args):
        """Run one benchmark call as a top-level span with a fresh call id."""
        self.call_id += 1
        return self._wrap(name, fn, None, None)(*args)

    # -- patching ------------------------------------------------------------

    def __enter__(self):
        from lincyc.core import LinearHypergraph

        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "lincyc" or key.startswith("lincyc.")]
        for name, modname, attr, on_return, on_raise in LAYERS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original, on_return, on_raise)
            for mod in modules:
                ns = vars(mod)
                for key, value in list(ns.items()):
                    if value is original:
                        self._patched.append((ns, key, original))
                        ns[key] = wrapper
        init = LinearHypergraph.__init__
        self._patched.append((LinearHypergraph, "__init__", init))
        LinearHypergraph.__init__ = self._wrap(
            GRAPH_BUILD, init,
            lambda c, n, a, res: c.update({n + ".edges": len(a[0].edges)}), None)
        return self

    def __exit__(self, *exc_info):
        while self._patched:
            target, key, original = self._patched.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        return False

    # -- results ---------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: [index, name, start, end, parent, call]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, (name, start, end, parent, call) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, call]) + "\n")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it covered by child spans."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """calls and self_s per layer name, plus the counters, over all spans."""
    out: dict[str, float] = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name = span[0]
        out[name + ".calls"] = out.get(name + ".calls", 0) + 1
        out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + own
    for key, value in tracer.counts.items():
        out[key] = out.get(key, 0) + int(value)
    return out
