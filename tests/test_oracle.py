"""Brute-force ground truth: cycle enumeration, girth, budget handling, and an
independent subset-based recount on tiny instances."""

from __future__ import annotations

import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lincyc import (
    BudgetExceeded,
    LinearCycle,
    LinearHypergraph,
    PreconditionFailed,
    Spectrum,
    TooLarge,
    build,
    enumerate_cycles,
    girth,
    greedy_partial_steiner,
    plant_cycles,
    rainbow_path_exists,
    verify_cycle,
)
from lincyc.errors import InvalidWitness
from lincyc.oracle import DEFAULT_BUDGET
from conftest import difference_projection, planted_c4, split_edges


def subsets_spectrum(g: LinearHypergraph, max_len: int) -> set[int]:
    """Second, structurally different enumeration: try every edge subset of
    size 3..max_len in every cyclic order."""
    found: set[int] = set()
    for t in range(3, max_len + 1):
        for subset in combinations(g.edges, t):
            if t in found:
                break
            first, rest = subset[0], subset[1:]
            for perm in permutations(rest):
                try:
                    verify_cycle(g, (first,) + perm)
                except InvalidWitness:
                    continue
                found.add(t)
                break
    return found


# -- enumerate_cycles ----------------------------------------------------------------


def test_single_square():
    g, _ = planted_c4()
    spec = enumerate_cycles(g, 10)
    assert spec.lengths == {4} and spec.complete


def test_fano_contains_triangle(fano):
    spec = enumerate_cycles(fano, 7, count=True)
    assert 3 in spec.lengths
    assert subsets_spectrum(fano, 5) == {l for l in spec.lengths if l <= 5}


def test_empty_graph():
    g = build(6, 3, [])
    spec = enumerate_cycles(g, 8)
    assert spec.lengths == set() and spec.complete


def test_witness_soundness(fano):
    wits = []
    enumerate_cycles(fano, 7, witnesses=wits)
    assert wits
    for c in wits:
        verify_cycle(fano, c.edges)


def test_spectrum_monotone_in_cap():
    g, _ = plant_cycles(40, 3, [3, 5, 6], seed=0)
    prev: set[int] = set()
    for cap in range(3, 9):
        cur = enumerate_cycles(g, cap).lengths
        assert prev <= cur
        prev = cur


@pytest.mark.parametrize("seed", range(6))
def test_agrees_with_subset_recount(seed):
    rng = random.Random(seed)
    # small random linear graphs with at most 12 edges
    base = greedy_partial_steiner(12, 3, seed=seed, effort=2.0)
    kept = [e for e in base.edges if rng.random() < 0.9][:12]
    g = LinearHypergraph(12, 3, kept)
    fast = enumerate_cycles(g, 6).lengths
    slow = subsets_spectrum(g, 6)
    assert fast == slow


def test_budget_exhaustion_carries_partial(fano):
    with pytest.raises(BudgetExceeded) as err:
        enumerate_cycles(fano, 7, budget=5)
    assert err.value.partial is not None
    assert not err.value.partial.complete


def test_rejects_small_cap(fano):
    with pytest.raises(PreconditionFailed):
        enumerate_cycles(fano, 2)


def test_spectrum_json(fano):
    import json

    obj = json.loads(enumerate_cycles(fano, 5).to_json())
    assert set(obj) == {"L", "lengths", "counts", "complete"}
    assert obj["complete"] is True


# -- enumerate_cycles against the scan it replaced ------------------------------------
#
# enumerate_cycles looks the closing edge up instead of scanning for it, and skips
# the scan at the last depth.  The reference below is the loop as first written:
# every incident edge is scanned, for closing and extending alike.  Witness order,
# counts and the budget's stopping point must be identical.


def naive_enumerate_cycles(g, max_len, budget=DEFAULT_BUDGET, count=False, witnesses=None):
    if max_len < 3:
        raise PreconditionFailed("max_len must be at least 3")
    lengths: set[int] = set()
    counts: dict[int, int] = {}
    expansions = 0
    edges = g.edges
    for start in range(len(edges)):
        e1 = edges[start]
        e1_set = set(e1)
        for a in e1:
            for w in e1:
                if w == a:
                    continue
                stack = [(w, [start], e1_set.copy())]
                while stack:
                    pivot, chain, used = stack.pop()
                    expansions += 1
                    if expansions > budget:
                        raise BudgetExceeded(
                            f"node budget {budget} exceeded",
                            partial=Spectrum(max_len, lengths, counts, complete=False),
                        )
                    depth = len(chain)
                    for eid in g.incident.get(pivot, ()):
                        if eid <= start or eid in chain:
                            continue
                        f = set(edges[eid])
                        inter = f & used
                        if depth >= 2 and inter == {pivot, a} and depth + 1 >= 3:
                            if chain[1] < eid:
                                t = depth + 1
                                if t <= max_len:
                                    lengths.add(t)
                                    counts[t] = counts.get(t, 0) + 1
                                    if witnesses is not None:
                                        witnesses.append(LinearCycle(
                                            tuple(edges[i] for i in chain) + (edges[eid],)
                                        ))
                            continue
                        if inter != {pivot}:
                            continue
                        if depth + 1 >= max_len:
                            continue
                        for new_pivot in [v for v in f if v != pivot]:
                            stack.append((new_pivot, chain + [eid], used | f))
    return Spectrum(max_len, lengths, counts if count else {}, complete=True)


def outcome(enumerate, g, max_len, budget):
    """Everything observable: spectrum or budget partial, and the witnesses."""
    found: list[LinearCycle] = []
    try:
        spec = enumerate(g, max_len, budget=budget, count=True, witnesses=found)
        stopped = False
    except BudgetExceeded as err:
        spec, stopped = err.partial, True
    return stopped, spec.to_json(), found


@st.composite
def oracle_cases(draw):
    r = draw(st.sampled_from([3, 4, 5]))
    seed = draw(st.integers(0, 2**32))
    if draw(st.booleans()):
        lengths = draw(st.lists(st.integers(3, 8), min_size=1, max_size=2))
        n = sum((r - 1) * t for t in lengths) + draw(st.integers(0, 20))
        density = draw(st.sampled_from([0.0, 0.3, 0.6]))
        g, _ = plant_cycles(n, r, lengths, background_density=density, seed=seed)
    else:
        n = draw(st.integers(r + 1, 40))
        base = greedy_partial_steiner(n, r, seed=seed, effort=1.0)
        keep = draw(st.floats(0.1, 1.0))
        rng = random.Random(seed)
        g = LinearHypergraph(n, r, [e for e in base.edges if rng.random() < keep][:40])
    max_len = draw(st.integers(3, 8))
    budget = draw(st.just(DEFAULT_BUDGET) | st.integers(1, 3000))
    return g, max_len, budget


@settings(max_examples=200, deadline=None)
@given(oracle_cases())
def test_lookup_enumeration_matches_the_scan(case):
    assert outcome(enumerate_cycles, *case) == outcome(naive_enumerate_cycles, *case)


# -- girth ---------------------------------------------------------------------------


def test_girth_of_pentagon():
    g, wits = plant_cycles(20, 3, [5], seed=0)
    assert girth(g, 8) == 5
    verify_cycle(g, wits[0].edges)


def test_girth_of_forest():
    g = build(9, 3, [(0, 1, 2), (2, 3, 4), (4, 5, 6)])
    assert girth(g, 8) is None


# -- rainbow existence oracle -----------------------------------------------------------


def test_rainbow_exists_length_one():
    h = difference_projection(4, seed=0)
    e1, e2 = split_edges(h, seed=0)
    assert rainbow_path_exists(h, e1, e2, 1)


def test_rainbow_single_edge_cannot_extend():
    from lincyc import ColoredGraph

    h = ColoredGraph(frozenset({0, 1}), ((0, 1),), {(0, 1): frozenset({9})})
    assert not rainbow_path_exists(h, [(0, 1)], [], 2)


def test_rainbow_oracle_rejects_length_zero():
    h = difference_projection(4, seed=0)
    e1, e2 = split_edges(h, seed=0)
    with pytest.raises(PreconditionFailed, match="length must be at least 1"):
        rainbow_path_exists(h, e1, e2, 0)


def test_rainbow_oracle_size_cap():
    h = difference_projection(16, seed=0)  # 32 vertices
    with pytest.raises(TooLarge):
        rainbow_path_exists(h, [h.edges[0]], h.edges[1:], 2)
