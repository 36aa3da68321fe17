"""Instance factories: greedy pair-disjoint packings, sparsify-and-delete, and
planted cycles."""

from __future__ import annotations

from itertools import combinations

import pytest

from lincyc import (
    GenSpec,
    Infeasible,
    LinearHypergraph,
    PreconditionFailed,
    enumerate_cycles,
    generate,
    girth,
    greedy_partial_steiner,
    high_girth_sparsify,
    plant_cycles,
    verify_cycle,
)


# -- greedy_partial_steiner ------------------------------------------------------------


def test_packing_minimum_size():
    g = greedy_partial_steiner(3, 3, seed=0)
    assert g.num_edges() == 1


def test_packing_on_seven_points():
    for seed in range(10):
        g = greedy_partial_steiner(7, 3, seed=seed)
        assert 4 <= g.num_edges() <= 7
        # maximality: no addable triple remains
        for cand in combinations(range(7), 3):
            pairs = list(combinations(cand, 2))
            if cand not in g.edge_set:
                assert any(g.edge_through(*p) is not None for p in pairs)


def test_packing_density_floor():
    for seed in range(20):
        g = greedy_partial_steiner(99, 3, seed=seed)
        assert g.num_edges() >= 0.5 * (99 * 98 / 2) / 3


def test_packing_determinism():
    a = greedy_partial_steiner(50, 3, seed=11)
    b = greedy_partial_steiner(50, 3, seed=11)
    assert a.edges == b.edges


def test_packing_rejects_tiny_n():
    with pytest.raises(Infeasible):
        greedy_partial_steiner(2, 3)


# -- high_girth_sparsify -----------------------------------------------------------------


def test_sparsify_floor_keeps_all_survivors():
    base = greedy_partial_steiner(200, 3, seed=0)
    report = high_girth_sparsify(base, 2.0, 2, seed=0)
    assert report.deleted_edges == []
    assert report.graph.average_degree() >= 2.0
    assert report.expected_short_cycles_bound == 2 * (2 * 3 * 2.0) ** 2


def test_sparsify_removes_short_cycles():
    base = greedy_partial_steiner(400, 3, seed=1)
    report = high_girth_sparsify(base, 3.0, 3, seed=1)
    assert report.average_degree >= 3.0
    assert girth(report.graph, 3) is None
    # every recorded deletion was a base-kept edge no longer present
    for e in report.deleted_edges:
        assert e in base.edge_set
        assert e not in report.graph.edge_set


def test_sparsify_rejects_heavy_probability():
    base = greedy_partial_steiner(20, 3, seed=0)
    with pytest.raises(PreconditionFailed):
        high_girth_sparsify(base, 10.0, 3)  # p = 2rd/n = 3 > 1
    with pytest.raises(PreconditionFailed):
        high_girth_sparsify(base, 1.0, 1)


def test_sparsify_determinism():
    base = greedy_partial_steiner(300, 3, seed=2)
    a = high_girth_sparsify(base, 3.0, 3, seed=9)
    b = high_girth_sparsify(base, 3.0, 3, seed=9)
    assert a.graph.edges == b.graph.edges


# -- plant_cycles -------------------------------------------------------------------------


def test_plant_single_square():
    g, wits = plant_cycles(20, 3, [4], seed=0)
    assert [w.length for w in wits] == [4]
    assert enumerate_cycles(g, 10).lengths == {4}


def test_plant_three_lengths():
    g, wits = plant_cycles(60, 3, [4, 6, 8], seed=0)
    spec = enumerate_cycles(g, 10)
    assert {4, 6, 8} <= spec.lengths
    for w in wits:
        verify_cycle(g, w.edges)


def test_plant_infeasible():
    with pytest.raises(Infeasible):
        plant_cycles(5, 3, [3])
    with pytest.raises(Infeasible):
        plant_cycles(30, 3, [2])


def test_plant_background_keeps_linearity():
    g, wits = plant_cycles(80, 3, [4, 5], background_density=1.0, seed=3)
    assert isinstance(g, LinearHypergraph)
    spec = enumerate_cycles(g, 6)
    assert {4, 5} <= spec.lengths
    for w in wits:
        verify_cycle(g, w.edges)


# -- generate dispatch ---------------------------------------------------------------------


def test_generate_modes():
    g, wits = generate(GenSpec(n=30, r=3, mode="steiner", seed=0))
    assert g.num_edges() > 0 and wits == []
    g, wits = generate(GenSpec(n=24, r=3, mode="planted", lengths=[4], seed=0))
    assert len(wits) == 1
    g, wits = generate(GenSpec(n=400, r=3, mode="sparsified", d=3.0, girth_floor=3, seed=0))
    assert g.average_degree() >= 3.0


def test_genspec_validation():
    with pytest.raises(Infeasible):
        GenSpec(n=2, r=3).validate()
    with pytest.raises(Infeasible):
        GenSpec(n=10, r=3, mode="sparsified", d=10.0).validate()
    with pytest.raises(Infeasible):
        GenSpec(n=100, r=3, mode="sparsified", d=2.0, girth_floor=1).validate()


def test_genspec_rejects_nan():
    with pytest.raises(Infeasible):
        GenSpec(n=100, r=3, mode="sparsified", d=float("nan")).validate()
    with pytest.raises(Infeasible):
        GenSpec(n=100, r=3, mode="planted", background_density=float("nan")).validate()
