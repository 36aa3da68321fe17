"""Brute-force ground truth: cycle enumeration, girth, budget handling, and an
independent subset-based recount on tiny instances."""

from __future__ import annotations

import json
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
from lincyc.oracle import DEFAULT_BUDGET, short_cycle_starts
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
    obj = json.loads(enumerate_cycles(fano, 5).to_json())
    assert set(obj) == {"L", "lengths", "counts", "complete"}
    assert obj["complete"] is True


# -- enumerate_cycles against the scan it replaced ------------------------------------
#
# enumerate_cycles looks the closing edge up instead of scanning for it, skips the
# subtrees that cannot close and tries last-depth states in place.  The reference
# below is the loop as first written: every incident edge is scanned, for closing
# and extending alike.  With prune=True it also skips what the oracle skips: a
# closing edge holds a and comes after the second edge, so a first edge with no
# later edge at a, or a second edge at or above the last edge at a, closes nothing.
# Nor does it grow a chain past the longest cycle g can hold: one of length L has
# L(r-1) vertices, L of them of degree >= 2.  Complete runs must be identical to the plain scan: witness order and counts.
# Pruned subtrees spend no budget, so a budgeted run records a prefix of the
# complete list at least as long as the plain scan's, and exactly the pruned
# scan's, which counts one expansion per popped state as the oracle does.


def naive_enumerate_cycles(g, max_len, budget=DEFAULT_BUDGET, count=False, witnesses=None,
                           prune=False):
    if max_len < 3:
        raise PreconditionFailed("max_len must be at least 3")
    lengths: set[int] = set()
    counts: dict[int, int] = {}
    expansions = 0
    edges = g.edges
    reach = max_len
    if prune:
        support = {v for e in edges for v in e}
        connectors = [v for v in support if len(g.incident[v]) >= 2]
        reach = min(max_len, len(connectors), len(support) // (g.r - 1))
        if reach < 3:
            return Spectrum(max_len, lengths, {}, complete=True)
    for start in range(len(edges)):
        e1 = edges[start]
        e1_set = set(e1)
        for a in e1:
            last = max(g.incident[a])
            if prune and last <= start:
                continue
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
                        if depth + 1 >= reach:
                            continue
                        if prune and depth == 1 and eid >= last:
                            continue
                        for new_pivot in [v for v in f if v != pivot]:
                            stack.append((new_pivot, chain + [eid], used | f))
    return Spectrum(max_len, lengths, counts if count else {}, complete=True)


def outcome(enumerate, g, max_len, budget=DEFAULT_BUDGET, **kw):
    """Everything observable: spectrum or budget partial, and the witnesses."""
    found: list[LinearCycle] = []
    try:
        spec = enumerate(g, max_len, budget=budget, count=True, witnesses=found, **kw)
        stopped = False
    except BudgetExceeded as err:
        spec, stopped = err.partial, True
    return stopped, spec.to_json(), found


def assert_budgeted_prefix(g, max_len, budget, complete):
    """The budgeted oracle equals the pruned scan, and its witnesses are a
    prefix of ``complete`` at least as long as the plain scan's."""
    got = outcome(enumerate_cycles, g, max_len, budget)
    assert got == outcome(naive_enumerate_cycles, g, max_len, budget, prune=True)
    stopped, _, found = got
    assert found == (complete[:len(found)] if stopped else complete)
    assert len(found) >= len(outcome(naive_enumerate_cycles, g, max_len, budget)[2])
    return found


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
    budget = draw(st.integers(1, 3000))
    return g, max_len, budget


@settings(max_examples=200, deadline=None)
@given(oracle_cases())
def test_lookup_enumeration_matches_the_scan(case):
    g, max_len, budget = case
    complete = outcome(naive_enumerate_cycles, g, max_len)
    assert outcome(enumerate_cycles, g, max_len) == complete
    assert outcome(naive_enumerate_cycles, g, max_len, prune=True) == complete
    assert_budgeted_prefix(g, max_len, budget, complete[2])


# -- short_cycle_starts --------------------------------------------------------------
#
# A cycle's least edge is the first edge it is grown from, so the edges that are
# the least edge of a short cycle are the first edges of the witnesses.


@settings(max_examples=100, deadline=None)
@given(oracle_cases())
def test_short_cycle_starts_are_the_first_edges_of_the_witnesses(case):
    g, max_len, budget = case
    ids = {e: i for i, e in enumerate(g.edges)}
    complete = outcome(naive_enumerate_cycles, g, max_len)[2]
    firsts = sorted({ids[c.edges[0]] for c in complete})
    assert short_cycle_starts(g, max_len) == firsts
    try:
        assert short_cycle_starts(g, max_len, budget) == firsts
    except BudgetExceeded:
        pass


def least_budget(search):
    """The least budget under which ``search(budget)`` completes, and its
    result; every smaller budget raises BudgetExceeded."""
    budget = 1
    while True:
        try:
            return budget, search(budget)
        except BudgetExceeded:
            budget += 1


def test_short_cycle_starts_stop_at_the_first_closure(fano):
    # any three lines of the Fano plane without a common point form a
    # triangle, so each of the first five lines is the least edge of one
    spent, starts = least_budget(lambda budget: short_cycle_starts(fano, 7, budget))
    assert starts == [0, 1, 2, 3, 4]
    # every start is left at its first closure: less than the full list costs
    assert spent < least_budget(lambda budget: enumerate_cycles(fano, 7, budget))[0]


def test_short_cycle_starts_below_three_is_empty(fano):
    assert short_cycle_starts(fano, 2) == []
    assert short_cycle_starts(fano, -1) == []


def test_the_search_stops_at_the_longest_cycle_the_graph_can_hold():
    # a triangle with a pendant edge: three vertices of degree 2 or more, so
    # no cycle is longer than 3, and a search to 10 spends what one to 3 does;
    # past length 3 it would spend 12 expansions, not 10
    g = build(9, 3, [(0, 1, 3), (0, 2, 5), (1, 2, 4), (2, 7, 8)])
    for budget in range(1, 14):
        stopped, spec, found = outcome(enumerate_cycles, g, 10, budget)
        short = outcome(enumerate_cycles, g, 3, budget)
        assert (stopped, found) == (short[0], short[2])
        assert json.loads(spec) == {**json.loads(short[1]), "L": 10}
        assert stopped == (budget < 10)


def test_a_graph_too_small_for_any_cycle_spends_no_budget():
    # two edges at one vertex: one vertex of degree 2, so no cycle at all
    g = build(5, 3, [(0, 1, 2), (2, 3, 4)])
    spec = enumerate_cycles(g, 10, budget=1)
    assert (spec.max_len, spec.lengths, spec.complete) == (10, set(), True)
    assert girth(g, 8) is None


@pytest.mark.parametrize("n", [25, 30, 35])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_budgeted_enumeration_records_a_prefix_on_packings(n, seed):
    # the plain scan spends its first 2*10^5 expansions here in subtrees that
    # cannot close and records nothing, so the complete list is too long to
    # build; the pruned scan, equal to it on complete runs above, stands in
    g = greedy_partial_steiner(n, 3, seed=seed, effort=1.0)
    reference = outcome(naive_enumerate_cycles, g, 8, 6000, prune=True)[2]
    assert assert_budgeted_prefix(g, 8, 3000, reference)


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
