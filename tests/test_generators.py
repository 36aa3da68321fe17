"""Instance factories: greedy pair-disjoint packings, sparsify-and-delete, and
planted cycles."""

from __future__ import annotations

import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# -- the packing against the plain sampler and sweep it replaced --------------------------
#
# greedy_partial_steiner inlines randrange(n) as CPython's getrandbits loop and
# sweeps by a pruned backtrack.  The reference below is the function as first
# written: randrange draws, then a scan of every r-set in lexicographic order.
# The edge lists must be identical.


def inlined_randbelow(getrandbits, n):
    bits = n.bit_length()
    v = getrandbits(bits)
    while v >= n:
        v = getrandbits(bits)
    return v


DRAW_SIZES = sorted(
    set(range(1, 2101)) | {2**j + o for j in range(1, 41) for o in (-1, 0, 1)}
)


def test_inlined_draw_consumes_the_randrange_stream():
    for n in DRAW_SIZES:
        plain, inlined = random.Random(n), random.Random(n)
        expected = [plain.randrange(n) for _ in range(50)]
        assert [inlined_randbelow(inlined.getrandbits, n) for _ in range(50)] == expected, n
        assert inlined.getrandbits(32) == plain.getrandbits(32), n


def naive_greedy_partial_steiner(n, r, seed=0, effort=2.0):
    rng = random.Random(seed)
    used_pairs = set()
    edges = []

    def pair_key(u, v):
        return u * n + v if u < v else v * n + u

    def try_add(cand):
        keys = [pair_key(u, v) for u, v in combinations(cand, 2)]
        if any(k in used_pairs for k in keys):
            return False
        used_pairs.update(keys)
        edges.append(tuple(sorted(cand)))
        return True

    budget = max(1, int(effort * n * (n - 1) / 2))
    for _ in range(budget):
        cand = {rng.randrange(n) for _ in range(r)}
        if len(cand) != r:
            continue
        try_add(tuple(sorted(cand)))
    if math.comb(n, r) <= 500_000:
        for cand in combinations(range(n), r):
            try_add(cand)
    return LinearHypergraph(n, r, edges)


# the last n whose r-sets are all swept; r = 2 (up to n = 1000) stays well inside
SWEEP_EDGE = {2: 150, 3: 145, 4: 60, 5: 37}


@st.composite
def packing_cases(draw):
    r = draw(st.sampled_from([2, 3, 4, 5]))
    top = SWEEP_EDGE[r] + 5
    n = draw(st.integers(min_value=r, max_value=top) | st.integers(top - 10, top))
    effort = draw(st.floats(min_value=0.01, max_value=2.0))
    return n, r, draw(st.integers(0, 2**32)), effort


@settings(max_examples=50, deadline=None)
@given(packing_cases())
def test_packing_matches_the_plain_sampler_and_sweep(case):
    assert greedy_partial_steiner(*case).edges == naive_greedy_partial_steiner(*case).edges


@pytest.mark.parametrize("n, r", [(30, 27), (60, 58)])
def test_packing_at_large_r_matches_the_plain_sampler_and_sweep(n, r):
    for seed in range(3):
        for effort in (0.01, 2.0):
            case = (n, r, seed, effort)
            assert greedy_partial_steiner(*case).edges == naive_greedy_partial_steiner(*case).edges


@pytest.mark.parametrize("r", [998, 999, 1000])
def test_sweep_runs_past_the_recursion_limit(r):
    # The one draw repeats a vertex, so the sweep takes the first r-set,
    # which blocks every other.  The plain scan is too slow to compare here.
    assert greedy_partial_steiner(1000, r, seed=0, effort=1e-6).edges == (tuple(range(r)),)


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


def test_sparsify_bound_saturates_on_a_huge_girth_floor():
    base = greedy_partial_steiner(30, 3, seed=0)
    report = high_girth_sparsify(base, 1.0, 100_000, seed=0)
    assert report.expected_short_cycles_bound == math.inf


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
