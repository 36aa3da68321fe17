"""Instance factories: greedy pair-disjoint packings, sparsify-and-delete, and
planted cycles."""

from __future__ import annotations

import math
import random
import sys
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lincyc import (
    GenSpec,
    Infeasible,
    LinearHypergraph,
    NonUniformEdge,
    PreconditionFailed,
    RetriesExhausted,
    TooLarge,
    enumerate_cycles,
    generate,
    girth,
    greedy_partial_steiner,
    high_girth_sparsify,
    plant_cycles,
    verify_cycle,
)
from lincyc import cli, generators
from lincyc.core import MAX_PARSED_VERTICES
from lincyc.generators import SWEEP_LIMIT


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


# -- the table rule --------------------------------------------------------------------
#
# greedy_partial_steiner keeps its used pairs in a byte table or in a set, by
# the table rule in its docstring.  Both containers must give the plain
# sampler's edges, and the table may replace only a set that would be larger.

# sampling-only sizes: past SWEEP_EDGE, so only the budget picks the container
RULE_SIZES = [(146, 3), (400, 3), (61, 4), (200, 4)]


def table_budget(n, r):
    """The least budget at which the rule picks the table for a sampling-only n."""
    return -(-n * n // (16 * math.comb(r, 2)))


def effort_for(n, budget):
    effort = (budget + 0.5) / (n * (n - 1) / 2)
    assert max(1, int(effort * n * (n - 1) / 2)) == budget
    return effort


def spy_on_the_rule(monkeypatch):
    rule, chosen = generators._uses_table, []

    def spy(*args):
        chosen.append(rule(*args))
        return chosen[-1]

    monkeypatch.setattr(generators, "_uses_table", spy)
    return chosen


@pytest.mark.parametrize("side", ["set", "table"])
@pytest.mark.parametrize("n, r", RULE_SIZES)
def test_packing_matches_the_plain_sampler_on_both_sides_of_the_table_rule(
    n, r, side, monkeypatch
):
    assert n > SWEEP_EDGE[r]
    effort = effort_for(n, table_budget(n, r) - (side == "set"))
    chosen = spy_on_the_rule(monkeypatch)
    for seed in range(3):
        case = (n, r, seed, effort)
        assert greedy_partial_steiner(*case).edges == naive_greedy_partial_steiner(*case).edges
    assert chosen == [side == "table"] * 3


@pytest.mark.parametrize("case", [
    (146, 3, 0, 0.02), (400, 3, 1, 0.3), (61, 4, 2, 1.0), (40, 5, 3, 0.5),  # sampling only
    (145, 3, 4, 0.01), (60, 4, 5, 1.0), (30, 27, 6, 2.0),  # swept
])
def test_both_containers_give_the_same_packing(case, monkeypatch):
    packings = []
    for table in (False, True):
        monkeypatch.setattr(generators, "_uses_table", lambda *args: table)
        packings.append(greedy_partial_steiner(*case).edges)
    assert packings[0] == packings[1]


def set_bytes(keys):
    return sys.getsizeof(keys) + sum(sys.getsizeof(k) for k in keys if k > 256)


@pytest.mark.parametrize("n, r", RULE_SIZES + [(300, 5), (300, 7)])
def test_the_table_replaces_only_a_larger_set(n, r, monkeypatch):
    # at the least budget that picks the table, the sampler's own set
    # would already take more than the table's n * n bytes
    sets = []

    class RecordedPairSet(generators._PairSet):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            sets.append(self)

    monkeypatch.setattr(generators, "_uses_table", lambda *args: False)
    monkeypatch.setattr(generators, "_PairSet", RecordedPairSet)
    for seed in range(3):
        greedy_partial_steiner(n, r, seed, effort_for(n, table_budget(n, r)))
        assert set_bytes(sets[-1]) > n * n


def test_the_table_rule_keeps_the_set_for_a_huge_n_or_a_large_r():
    # the rule alone: a table of 10**12 bytes is never allocated here
    assert not generators._uses_table(10**6, 3, 10**6, False)
    assert generators._uses_table(10**6, 3, table_budget(10**6, 3), False)
    assert not generators._uses_table(300, 8, 10**9, False)
    assert generators._uses_table(30, 27, 1, True)


def test_a_pair_table_that_cannot_be_allocated_is_too_large(monkeypatch, capsys):
    # bytearray looked up in the module, as the packing allocates its table
    def no_memory(size):
        raise MemoryError

    monkeypatch.setattr(generators, "bytearray", no_memory, raising=False)
    with pytest.raises(TooLarge, match="pair table"):
        greedy_partial_steiner(60, 3, seed=0)
    assert cli.main(["gen", "--n", "60", "--seed", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: no memory for the 60 x 60 pair table of the packing\n"


# -- generated graphs are assembled, not validated ------------------------------------
#
# greedy_partial_steiner and high_girth_sparsify skip the validating
# constructor and rely on their own invariants.  Rebuilding their output
# through the constructor must give the same graph: a reused pair would raise
# DuplicatePair here, and an unsorted or repeated edge would differ.


def assert_same_as_validated(g):
    rebuilt = LinearHypergraph(g.n, g.r, g.edges)
    assert g == rebuilt
    assert g.incident == rebuilt.incident
    assert g.edge_set == rebuilt.edge_set


def last_swept(r):
    """The largest n whose r-sets are all swept."""
    n = r
    while math.comb(n + 1, r) <= SWEEP_LIMIT:
        n += 1
    return n


@st.composite
def trusted_packing_cases(draw):
    r = draw(st.integers(2, 6))
    edge = last_swept(r)
    swept = draw(st.booleans())
    if swept:
        top = min(edge, 150)
        n = draw(st.integers(r, top) | st.integers(max(r, top - 5), top))
        effort = draw(st.floats(min_value=0.0, max_value=2.0))
    else:  # sampling alone; keep the draw count small at r = 2
        n = draw(st.integers(edge + 1, edge + 20))
        effort = draw(st.floats(min_value=0.0, max_value=0.5 if r > 2 else 0.05))
    return (n, r, draw(st.integers(0, 2**32)), effort), swept


@settings(max_examples=40, deadline=None)
@given(trusted_packing_cases())
def test_packing_equals_its_validated_rebuild(case_and_path):
    case, swept = case_and_path
    n, r = case[:2]
    assert (math.comb(n, r) <= SWEEP_LIMIT) == swept
    g = greedy_partial_steiner(*case)
    assert (g.n, g.r, g.vertices) == (n, r, frozenset(range(n)))
    assert_same_as_validated(g)


@pytest.mark.parametrize("r", [1, 0, -1])
def test_packing_rejects_uniformity_below_two(r):
    with pytest.raises(NonUniformEdge):
        greedy_partial_steiner(5, r)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(20, 120),
    seed=st.integers(0, 2**32),
    d=st.floats(min_value=0.2, max_value=2.0),
    m=st.integers(2, 5),
)
def test_sparsified_graph_equals_its_validated_rebuild(n, seed, d, m):
    base = greedy_partial_steiner(n, 3, seed=seed, effort=0.5)
    try:  # p = 6d/n stays at most 0.6
        report = high_girth_sparsify(base, d, m, seed=seed)
    except RetriesExhausted as err:
        report = err.best
    assert report.graph.vertices == frozenset(range(n))
    assert report.graph.edge_set <= base.edge_set
    assert_same_as_validated(report.graph)


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


# -- high_girth_sparsify against the witness replay it replaced --------------------------
#
# The sparsifier asks the oracle for one closure per start.  The reference is
# the loop as first written: list every linear cycle of length <= m, then walk
# the list and delete the least edge of each cycle that has lost none yet.


def reference_sparsify(base, d, m, seed):
    """(exhausted, (attempts, deleted edges, edges, average degree)) of the
    returned report, or of the best one when every attempt falls short."""
    n, r = base.n, base.r
    p = 2 * r * d / n
    rng = random.Random(seed)
    best = None
    for attempt in range(1, generators.SPARSIFY_ATTEMPTS + 1):
        kept = [e for e in base.edges if rng.random() < p]
        deleted = []
        if m >= 3:
            witnesses = []
            enumerate_cycles(LinearHypergraph(n, r, kept), m, witnesses=witnesses)
            gone = set()
            for cyc in witnesses:
                if any(e in gone for e in cyc.edges):
                    continue
                victim = min(cyc.edges)
                gone.add(victim)
                deleted.append(victim)
            kept = [e for e in kept if e not in gone]
        g = LinearHypergraph(n, r, kept)
        outcome = (attempt, deleted, g.edges, g.average_degree())
        if best is None or outcome[3] > best[3]:
            best = outcome
        if outcome[3] >= d:
            return False, outcome
    return True, best


def sparsify_outcome(base, d, m, seed):
    try:
        report = high_girth_sparsify(base, d, m, seed=seed)
        exhausted = False
    except RetriesExhausted as err:
        assert err.attempts == generators.SPARSIFY_ATTEMPTS
        report, exhausted = err.best, True
    return exhausted, (report.attempts, report.deleted_edges, report.graph.edges,
                       report.average_degree)


@st.composite
def sparsify_cases(draw):
    n = draw(st.integers(20, 120))
    r = draw(st.sampled_from([3, 4]))
    m = draw(st.sampled_from([6, 5, 4, 3, 2]))
    # the reference lists every cycle: at m = 6 and n = 120 a 3-graph with
    # d = 1.2 takes it past a second, so the densest corner is kept lower
    d = draw(st.sampled_from([0.9, 0.6, 0.3]) if m == 6 else st.sampled_from([1.5, 1.1, 0.7]))
    d += draw(st.floats(min_value=0.0, max_value=0.1))
    # a thin base falls short of d and returns the best report in the error
    effort = draw(st.sampled_from([1.0, 0.5, 0.1]))
    seed = draw(st.integers(0, 2**32))
    return greedy_partial_steiner(n, r, seed=seed, effort=effort), d, m, seed


@settings(max_examples=100, deadline=None)
@given(sparsify_cases())
def test_sparsify_matches_the_witness_replay(case):
    assert sparsify_outcome(*case) == reference_sparsify(*case)


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


@pytest.mark.parametrize("density", [1e308, math.inf])
def test_plant_background_past_what_a_linear_graph_holds_is_capped(density):
    # C(24,2)/C(3,2) = 92 edges, background degree 23/2, is all a linear
    # 3-graph on 24 vertices can hold: a larger density asks for that many
    at_cap = plant_cycles(24, 3, [4], background_density=23 / 2, seed=1)
    assert plant_cycles(24, 3, [4], background_density=density, seed=1) == at_cap


# -- one int object per vertex --------------------------------------------------------------
#
# The greedy packing builds the edges it keeps from one table of range(n), so
# every edge at a vertex holds the same int.  Ints up to 256 are shared by CPython
# anyway, so each case reaches well past that.


def assert_one_int_per_vertex(g):
    vertices = {v for e in g.edges for v in e}
    assert max(vertices) > 256
    assert len({id(v) for e in g.edges for v in e}) == len(vertices)


@pytest.mark.parametrize("table", [False, True], ids=["set", "table"])
@pytest.mark.parametrize("case", [(400, 3, 1, 0.3), (300, 4, 2, 1.0)], ids=["r3", "r4"])
def test_packing_edges_share_one_int_per_vertex(case, table, monkeypatch):
    monkeypatch.setattr(generators, "_uses_table", lambda *args: table)
    g = greedy_partial_steiner(*case)
    assert g.edges == naive_greedy_partial_steiner(*case).edges
    assert_one_int_per_vertex(g)


def test_swept_edges_share_one_int_per_vertex():
    # at so low an effort the r = 2 sweep adds most of the edges: every pair
    g = greedy_partial_steiner(300, 2, seed=3, effort=0.01)
    assert g.num_edges() == math.comb(300, 2)
    assert_one_int_per_vertex(g)


# -- one vertex set per n ------------------------------------------------------------------
#
# Generated graphs span all of range(n), so they hold the one set the constructor
# gives every graph of that n.


def test_generated_graphs_of_one_n_share_one_vertex_set(monkeypatch):
    n = 200
    seen = []  # the sweep trial's graph, caught at its runner

    def runner(g, k, seed):
        seen.append(g)
        return SimpleNamespace(success=False)

    monkeypatch.setattr(cli, "even_consecutive_cycles", runner)
    cli._sweep_trial((n, 3, 2, 4.0, "even", 5))
    base = greedy_partial_steiner(n, 3, seed=1, effort=0.5)
    graphs = [LinearHypergraph(n, 3, []), base, *seen,
              plant_cycles(n, 3, [4, 5], 0.3, seed=2)[0],
              high_girth_sparsify(base, 1.0, 3, seed=3).graph]
    assert len(graphs) == 5 and all(g.vertices is base.vertices for g in graphs)
    assert base.vertices == frozenset(range(n))
    assert greedy_partial_steiner(n + 1, 3, seed=1).vertices is not base.vertices


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


def test_genspec_refuses_a_graph_the_parsers_would_refuse():
    spec = GenSpec(n=MAX_PARSED_VERTICES + 1, r=3, mode="planted", lengths=[4])
    with pytest.raises(TooLarge, match="exceeds the cap"):
        spec.validate()
    with pytest.raises(TooLarge, match="exceeds the cap"):
        generate(spec)
    GenSpec(n=MAX_PARSED_VERTICES, r=3).validate()


def test_genspec_rejects_nan():
    with pytest.raises(Infeasible):
        GenSpec(n=100, r=3, mode="sparsified", d=float("nan")).validate()
    with pytest.raises(Infeasible):
        GenSpec(n=100, r=3, mode="planted", background_density=float("nan")).validate()
