"""Cycle assembly: threshold constants, transversal cleanup, dense connected
cores, both pipelines, exact even-length extraction, and report plumbing."""

from __future__ import annotations

import json
import math

import pytest

from lincyc import (
    Constants,
    CycleFamily,
    LinearCycle,
    NotFound,
    PreconditionFailed,
    RPartition,
    build,
    consecutive_cycles,
    even_consecutive_cycles,
    find_c2k,
    greedy_partial_steiner,
    plant_cycles,
    transversal_cleanup,
    verify_cycle,
)
from lincyc.engine import _even_subfamily, bound_all, bound_even, dense_connected, layer_cap
from conftest import difference_projection


@pytest.fixture(scope="module")
def packing150():
    return greedy_partial_steiner(150, 3, seed=0)


# -- constants and bound arithmetic -----------------------------------------------------


def test_constants_r3_k2():
    c = Constants(3, 2)
    assert c.c1_all == 2**20 * 27
    assert c.c3_all == 2**16 * 243
    assert c.c2_all == pytest.approx(math.log2(2**16 * 243), abs=1e-12)
    assert c.c1_even == 128 * 3**9
    assert c.c2_even == pytest.approx(math.log2(64 * 2 * 3**8), abs=1e-12)
    assert c.c3_part == 128 * 3**6
    assert c.c4_part == pytest.approx(math.log2(64 * 2 * 3**5), abs=1e-12)


def test_layer_cap_arithmetic():
    c = Constants(3, 2)
    n, d = 2**20, 2 * 2**18  # d/k = 2^18
    want = math.ceil(20 / (18 - math.log2(64 * 2 * 3**5)))
    assert layer_cap(n, d, 2, c) == want


def test_bounds_none_below_gap():
    c = Constants(3, 2)
    assert bound_even(1000, 2.0, 2, c) is None
    assert bound_all(1000, 2.0, 2, c) is None
    assert layer_cap(1000, 0.0, 2, c) is None


def test_bounds_in_regime():
    c = Constants(3, 2)
    d = 2 * 2**25
    assert bound_even(10**6, d, 2, c) == 2 * math.ceil(
        math.log2(10**6) / (25 - c.c2_even)
    )
    assert bound_all(10**6, d, 2, c) == 6 * math.ceil(
        math.log2(10**6) / (25 - c.c2_all)
    ) + 6


# -- transversal_cleanup -----------------------------------------------------------------


PART12 = RPartition(
    (
        frozenset({0, 3, 6, 9}),
        frozenset({1, 4, 7, 10}),
        frozenset({2, 5, 8, 11}),
    )
)


def test_cleanup_empty_matching_is_identity():
    h = build(12, 3, [(0, 1, 2), (3, 4, 5)])
    assert transversal_cleanup(h, PART12, []) is h


def test_cleanup_untouched_matching_is_identity():
    h = build(12, 3, [(0, 1, 2), (3, 4, 5)])
    assert transversal_cleanup(h, PART12, [(7, 8)]) is h


def test_cleanup_postconditions():
    h = build(12, 3, [(0, 1, 2), (3, 4, 5)])
    out = transversal_cleanup(h, PART12, [(1, 8)], seed=0)
    assert out.num_edges() >= (1 / 2) ** 2 * 2
    assert len(out.vertices & {1, 8}) <= 1


def test_cleanup_rejects_overlapping_members():
    h = build(12, 3, [(0, 1, 2)])
    with pytest.raises(PreconditionFailed):
        transversal_cleanup(h, PART12, [(1, 2), (2, 5)])


def test_cleanup_rejects_mismatched_classes():
    h = build(12, 3, [(0, 1, 2)])
    with pytest.raises(PreconditionFailed):
        transversal_cleanup(h, PART12, [(1, 2), (4, 7)])


# -- dense_connected ------------------------------------------------------------------------


def test_dense_connected_regular_graph():
    h = difference_projection(6, seed=0)
    core = dense_connected(h)
    assert core.min_degree() >= core.average_degree() / 2
    assert core.edges


def test_dense_connected_picks_a_component():
    from lincyc import ColoredGraph

    edges = ((0, 1), (1, 2), (0, 2), (3, 4))
    h = ColoredGraph(
        frozenset(range(5)), edges, {e: frozenset({10 + i}) for i, e in enumerate(edges)}
    )
    core = dense_connected(h)
    assert set(core.vertices) == {0, 1, 2}


# -- pipelines -------------------------------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3])
def test_even_pipeline_success(packing150, k):
    report = even_consecutive_cycles(packing150, k, seed=0)
    assert report.success
    fam = report.outcome
    fam.validate()
    assert fam.parity == "EVEN" and len(fam.cycles) == k
    for c in fam.cycles:
        verify_cycle(packing150, c.edges)
    assert any(t.get("status") == "fired" for t in report.trace)


@pytest.mark.parametrize("k", [2, 3])
def test_all_pipeline_success(packing150, k):
    report = consecutive_cycles(packing150, k, seed=0)
    assert report.success
    fam = report.outcome
    fam.validate()
    assert fam.parity == "ALL" and len(fam.cycles) == k
    for c in fam.cycles:
        verify_cycle(packing150, c.edges)
    closing = next(t for t in report.trace if t.get("stage") == "closure")
    # shortest-length certificate recomputed from the trace
    assert fam.shortest <= 2 * closing["m"] + closing["t"] + 3


def test_pipelines_at_uniformity_four():
    g = greedy_partial_steiner(300, 4, seed=0)
    for runner, parity in ((even_consecutive_cycles, "EVEN"), (consecutive_cycles, "ALL")):
        report = runner(g, 2, seed=0)
        assert report.success and report.outcome.parity == parity
        for c in report.outcome.cycles:
            verify_cycle(g, c.edges)


def test_strict_mode_fails_cleanly_below_regime(packing150):
    report = consecutive_cycles(packing150, 2, seed=0, strict=True)
    assert not report.success and report.outcome.stage == "regime"
    report = even_consecutive_cycles(packing150, 2, seed=0, strict=True)
    assert not report.success
    assert report.regime["in_regime"] is False


def test_failure_report_shape():
    tiny = build(3, 3, [(0, 1, 2)])
    report = even_consecutive_cycles(tiny, 2, seed=0)
    assert not report.success
    obj = json.loads(report.to_json())
    assert obj["outcome"] == "failure"
    assert obj["lengths"] == [] and obj["shortest"] is None
    assert {"stage", "reason", "bound", "regime", "trace", "seed"} <= set(obj)


@pytest.mark.parametrize("pipeline,stage", [
    (even_consecutive_cycles, "setup"),
    (consecutive_cycles, "core"),
])
def test_edgeless_input_fails_honestly(pipeline, stage):
    report = pipeline(build(5, 3, []), 2, seed=0)
    assert not report.success and report.outcome.stage == stage


def test_report_schema_and_determinism(packing150):
    a = even_consecutive_cycles(packing150, 2, seed=5).to_json()
    b = even_consecutive_cycles(packing150, 2, seed=5).to_json()
    assert a == b
    obj = json.loads(a)
    assert {"outcome", "lengths", "shortest", "parity", "cycles",
            "bound", "regime", "trace", "seed"} <= set(obj)
    assert obj["seed"] == 5
    c = consecutive_cycles(packing150, 2, seed=5).to_json()
    d = consecutive_cycles(packing150, 2, seed=5).to_json()
    assert c == d


# -- exact even length -------------------------------------------------------------------------


def test_find_exact_even_length():
    g, _ = plant_cycles(40, 3, [4], background_density=0.5, seed=1)
    c = find_c2k(g, 2, seed=0)
    assert c.length == 4
    verify_cycle(g, c.edges)


def test_find_exact_even_length_via_pipeline(packing150):
    c = find_c2k(packing150, 2, seed=0)
    assert c.length == 4


def loose_cycle(length: int) -> LinearCycle:
    return LinearCycle(tuple(
        tuple(sorted((2 * i, 2 * i + 1, (2 * i + 2) % (2 * length)))) for i in range(length)
    ))


@pytest.mark.parametrize("t,k", [(1, 2), (5, 2), (4, 3)])
def test_even_subfamily_of_internal_family_at_m_equal_t(t, k):
    # cycles_from_internal returns lengths 2m+1..2m+2k (m <= t) under bound
    # 2t+1; at m = t the even members run from 2t+2
    fam = CycleFamily([loose_cycle(2 * t + i) for i in range(1, 2 * k + 1)], "ALL",
                      bound=2 * t + 1)
    fam.validate()
    even = _even_subfamily(fam, k)
    assert even.parity == "EVEN"
    assert even.lengths == list(range(2 * t + 2, 2 * t + 2 * k + 1, 2))
    assert even.bound == 2 * t + 2


def test_find_exact_even_length_missing():
    g, _ = plant_cycles(30, 3, [5], seed=0)
    with pytest.raises(NotFound):
        find_c2k(g, 2, seed=0)
    with pytest.raises(PreconditionFailed):
        find_c2k(g, 1, seed=0)
