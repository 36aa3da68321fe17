"""Cycle assembly: threshold constants, transversal cleanup, dense connected
cores, both pipelines, exact even-length extraction, and report plumbing."""

from __future__ import annotations

import copy
import json
import math

import pytest

import lincyc.core
import lincyc.reductions
from lincyc import (
    BudgetExceeded,
    Constants,
    CycleFamily,
    InvalidWitness,
    InvariantViolation,
    LinearCycle,
    NotFound,
    PanConnectedFamily,
    PreconditionFailed,
    RPartition,
    build,
    consecutive_cycles,
    engine,
    enumerate_cycles,
    even_consecutive_cycles,
    find_c2k,
    greedy_partial_steiner,
    plant_cycles,
    transversal_cleanup,
    verify_cycle,
)
from lincyc.engine import _anchor_density, _even_subfamily, dense_connected, log_ratio_cap
from lincyc.oracle import DEFAULT_BUDGET
from conftest import FANO_LINES, difference_projection


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


def test_constants_need_k_at_least_one():
    for k in (0, -1):
        with pytest.raises(PreconditionFailed, match="need k >= 1"):
            Constants(3, k)


def test_constants_need_thresholds_that_fit_a_float():
    c = Constants(79, 1)  # c1_even = 128 * 79^161, about 2^1022
    assert [float(x) for x in (c.c1_all, c.c3_all, c.c1_even, c.c3_part)]
    for r in (80, 255, 256, 10**9, 10**400):
        with pytest.raises(PreconditionFailed, match=f"uniformity r={r} "):
            Constants(r, 1)


def test_constants_need_a_k_whose_thresholds_fit_a_float():
    # the regime thresholds c1 * k: c1_all * k = 2^24.75 k at r = 3, and
    # c1_even * k = 2^1021.9 k at r = 79
    for r, k in ((3, 2**999), (79, 2)):
        c = Constants(r, k)
        assert float(max(c.c1_all, c.c1_even) * k) < math.inf
    for r, k in ((3, 2**1000), (3, 10**400), (2, 2**1005), (79, 8)):
        with pytest.raises(PreconditionFailed, match="^k = 2\\^[0-9.]+ puts the thresholds"):
            Constants(r, k)


def test_layer_cap_arithmetic():
    c = Constants(3, 2)
    n, d = 2**20, 2 * 2**18  # d/k = 2^18
    want = math.ceil(20 / (18 - math.log2(64 * 2 * 3**5)))
    assert log_ratio_cap(n, d, 2, c.c4_part) == want


def test_bounds_none_below_gap():
    c = Constants(3, 2)
    assert log_ratio_cap(1000, 2.0, 2, c.c2_even) is None
    assert log_ratio_cap(1000, 2.0, 2, c.c2_all) is None
    assert log_ratio_cap(1000, 0.0, 2, c.c4_part) is None
    assert log_ratio_cap(1, 2 * 2**25, 2, c.c2_even) is None  # n < 2


def test_bounds_in_regime():
    # the pipelines' bounds: twice the even cap, six times the all cap plus 6
    c = Constants(3, 2)
    d = 2 * 2**25
    assert 2 * log_ratio_cap(10**6, d, 2, c.c2_even) == 2 * math.ceil(
        math.log2(10**6) / (25 - c.c2_even)
    )
    assert 6 * log_ratio_cap(10**6, d, 2, c.c2_all) + 6 == 6 * math.ceil(
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


@pytest.mark.parametrize("anchors_in_f", ["x", "none"])
def test_closure_refuses_a_last_edge_without_one_other_anchor(monkeypatch, packing150,
                                                              anchors_in_f):
    # the nested family's last edge f lies in F, so it holds exactly one
    # anchor (P1), and at layer >= 1 from x (P2), so not x: a family breaking
    # either is an invariant violation, not an anchor to skip
    def broken(f, x, k, d, seed):
        last = (x,) if anchors_in_f == "x" else ()
        return PanConnectedFamily(1, (), last, {})

    monkeypatch.setattr(engine, "pan_connected", broken)
    with pytest.raises(InvariantViolation, match="not one other than"):
        consecutive_cycles(packing150, 2, seed=0)


def test_a_failed_closure_is_an_invariant_violation(monkeypatch, packing150):
    # P1 and P3 make every closure a linear cycle, so a closure that fails its
    # check is a bug to report, not an anchor to skip
    def refuse(g, edges):
        raise InvalidWitness("refused")

    monkeypatch.setattr(engine, "verify_cycle", refuse)
    with pytest.raises(InvariantViolation, match="closure at anchor") as caught:
        consecutive_cycles(packing150, 2, seed=0)
    assert isinstance(caught.value.__cause__, InvalidWitness)


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("pipeline", [even_consecutive_cycles, consecutive_cycles])
def test_pipelines_refuse_k_below_one(packing150, pipeline, k):
    # checked before the bound arithmetic, which has no value at k < 1
    with pytest.raises(PreconditionFailed, match=r"^need k >= 1$"):
        pipeline(packing150, k, seed=0)


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


def test_anchor_density_takes_the_target_up_to_half_delta():
    for strict in (False, True):
        assert _anchor_density(4.5, 9, strict) == 4.5
        assert _anchor_density(9216, 18432, strict) == 9216
    assert _anchor_density(9216, 18431, True) is None
    assert _anchor_density(9216, 18431, False) == 18431 / 2
    assert _anchor_density(9216, 1, False) == 1.0


def test_strict_nested_refusal_is_one_stage_failure(monkeypatch, packing150):
    # no graph that fits in memory gets a strict run past the regime check, so
    # the outer density is let through here; F's density d' = 2 * 9 * 2^8 is
    # then refused once, before any nested search runs
    density, asked = engine._anchor_density, []

    def outer_passes(target, delta, strict):
        asked.append(target)
        return density(target, delta, strict and len(asked) > 1)

    def unreachable(*args):
        raise AssertionError("a refused density ran a nested search")

    monkeypatch.setattr(engine, "_anchor_density", outer_passes)
    monkeypatch.setattr(engine, "pan_connected", unreachable)
    report = consecutive_cycles(packing150, 2, seed=0, strict=True)
    assert asked[1] == 4608
    assert not report.success and report.outcome.stage == "pan-connected"
    assert report.outcome.reason.endswith("below 2d' = 9216")
    assert [step["stage"] for step in report.trace] == ["core", "anchored", "pan-connected"]


@pytest.mark.parametrize(
    "runner,scale,shift", [(even_consecutive_cycles, 2, 0), (consecutive_cycles, 6, 6)]
)
def test_in_regime_success_carries_the_theorem_bound(monkeypatch, packing150, runner,
                                                     scale, shift):
    # c1 = 0 puts every input in regime, and c2 = log2(d/k) - log2(n)/n makes
    # the log-ratio cap about n, a bound the family's shortest cycle meets
    n, d, k = len(packing150.vertices), packing150.average_degree(), 2
    c2 = math.log2(d / k) - math.log2(n) / n

    class InRegime(Constants):
        c1_even = c1_all = 0.0
        c2_even = c2_all = c2

    monkeypatch.setattr(engine, "Constants", InRegime)
    report = runner(packing150, k, seed=0)
    assert report.success and report.regime == {"in_regime": True, "c1": 0.0, "c2": c2}
    assert report.bound == scale * log_ratio_cap(n, d, k, c2) + shift
    assert report.outcome.bound == report.bound
    assert json.loads(report.to_json())["bound"] == report.bound


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


def test_even_setup_indexes_each_graph_once(monkeypatch):
    """When d_minimal peels nothing it returns the partite subgraph itself, so
    build_mert reads the incidence the peel built: the input and the partite
    subgraph are each indexed once, and nothing else is indexed for them."""
    g = copy.copy(greedy_partial_steiner(30, 3, seed=0))  # indexed inside the call
    indexed, minimal = [], []

    def recording(edges):
        indexed.append(tuple(edges))
        return incidence(edges)

    def spying(h, d):
        minimal.append((h, d_minimal(h, d)))
        return minimal[-1][1]

    incidence, d_minimal = lincyc.core._incidence, engine.d_minimal
    monkeypatch.setattr(lincyc.core, "_incidence", recording)
    monkeypatch.setattr(lincyc.reductions, "_incidence", recording)
    monkeypatch.setattr(engine, "d_minimal", spying)
    assert even_consecutive_cycles(g, 2, seed=0).success
    ((sub, gd),) = minimal
    assert gd is sub
    assert indexed[:2] == [g.edges, sub.edges]
    assert indexed.count(g.edges) == indexed.count(sub.edges) == 1


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


def test_find_exact_even_length_in_a_packing(packing150):
    c = find_c2k(packing150, 2, seed=0)
    assert c.length == 4


def no_pipeline_search(*args, **kwargs):
    raise AssertionError("find_c2k ran a pipeline")


@pytest.mark.parametrize("seed", range(4))
def test_find_exact_even_length_in_a_packing_is_the_first_oracle_witness(
    monkeypatch, packing150, seed
):
    # find_c2k is one oracle search: no pipeline runs, and its answer is the
    # oracle's first witness of length 2k whatever the seed.  The packing's
    # complete list is far too long to hold; its first 10^3 expansions, a
    # prefix of it, already close cycles of both lengths
    monkeypatch.setattr(engine, "even_consecutive_cycles", no_pipeline_search)
    monkeypatch.setattr(engine, "consecutive_cycles", no_pipeline_search)
    for k in (2, 3):
        want = first_witness_of_length(packing150, 2 * k, budget=10**3)
        assert find_c2k(packing150, k, seed=seed) == want


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


def test_find_exact_even_length_beyond_every_linear_cycle_is_answered_at_once(monkeypatch):
    # a linear cycle of length L in a 3-graph has 2L vertices, L of them of
    # degree >= 2.  A linear C4 has 8 vertices, 4 of degree 2: length 4 is
    # found, and length 6 is refused before the oracle runs.
    # The Fano plane has 7 vertices of degree 3, too few vertices for length 4.
    g = build(8, 3, loose_cycle(4).edges)
    assert find_c2k(g, 2, seed=0).length == 4

    def no_search(*args):
        raise AssertionError("searched for an impossible length")

    monkeypatch.setattr(engine, "_starts", no_search)
    with pytest.raises(NotFound, match=r"^no linear cycle of length 6 found$"):
        find_c2k(g, 3, seed=0)
    with pytest.raises(NotFound, match=r"^no linear cycle of length 4 found$"):
        find_c2k(build(7, 3, FANO_LINES), 2, seed=0)


def first_witness_of_length(g, length, budget=DEFAULT_BUDGET):
    witnesses: list[LinearCycle] = []
    try:
        enumerate_cycles(g, length, budget=budget, witnesses=witnesses)
    except BudgetExceeded:
        pass
    return next(c for c in witnesses if c.length == length)


@pytest.mark.parametrize("seed", range(4))
def test_find_exact_even_length_returns_the_first_oracle_witness(seed):
    # the search stops at its first closure of length 2k: the first witness
    # of that length in the complete list
    g, _ = plant_cycles(70, 3, [4, 6, 8], background_density=0.5, seed=seed)
    for k in (2, 3, 4):
        assert find_c2k(g, k, seed=0) == first_witness_of_length(g, 2 * k)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_find_exact_even_length_returns_a_closure_found_within_its_budget(monkeypatch, seed):
    # these packings hold a C8 that the oracle reaches within 10^4 expansions
    # (the budgeted list is a prefix of the complete one): no NotFound
    g = greedy_partial_steiner(35, 3, seed=seed, effort=1.0)
    monkeypatch.setattr(engine, "C2K_BUDGET", 10**4)
    assert find_c2k(g, 4, seed=0) == first_witness_of_length(g, 8, budget=10**4)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_find_exact_even_length_reports_an_incomplete_search(monkeypatch, seed):
    # every one of these packings holds a C8, but a closure of length 2k comes
    # at the earliest at expansion 2k - 1, the chain's last edge: a budget of
    # 2k - 2 stops first, and the NotFound must say the search stopped, not
    # that no cycle exists
    g = greedy_partial_steiner(35, 3, seed=seed, effort=1.0)
    monkeypatch.setattr(engine, "C2K_BUDGET", 6)
    with pytest.raises(NotFound, match="stopped at its budget of 6 expansions; "
                                       "the search is incomplete"):
        find_c2k(g, 4, seed=0)
