"""Preprocessing: peeling cores, degenerate orderings, layer decomposition,
first-order density-minimal subgraphs, and the r-partite reduction."""

from __future__ import annotations

import functools
import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lincyc import (
    EmptyCore,
    LincycError,
    LinearHypergraph,
    PreconditionFailed,
    RetriesExhausted,
    RPartition,
    bfs_layers,
    build,
    d_minimal,
    degenerate_ordering,
    greedy_partial_steiner,
    min_degree_subgraph,
    r_partite_reduction,
)
from lincyc.reductions import PeelResult, min_degree_core
from conftest import FANO_LINES


# -- min_degree_subgraph ---------------------------------------------------------


def test_core_of_single_triple():
    g = build(3, 3, [(0, 1, 2)])
    assert min_degree_subgraph(g, 1.0).edges == g.edges


def test_core_of_fano_is_fano(fano):
    assert min_degree_subgraph(fano, 3.0).edges == fano.edges


def test_core_of_triple_star():
    g = build(9, 3, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (0, 7, 8)])
    core = min_degree_subgraph(g, g.average_degree())
    assert core.num_edges() >= 1
    assert core.min_degree() * 3 >= g.average_degree()


def test_core_rejects_threshold_above_average(fano):
    with pytest.raises(EmptyCore):
        min_degree_subgraph(fano, 4.0)


def test_core_idempotent(fano):
    core = min_degree_subgraph(fano, 2.0)
    assert min_degree_subgraph(core, 2.0).edges == core.edges


# -- degenerate_ordering ---------------------------------------------------------


def _forward_check(edges, peel, d):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    position = {v: i for i, v in enumerate(peel.ordering)}
    for i, v in enumerate(peel.ordering[: peel.cut]):
        forward = sum(1 for w in adj[v] if position[w] > i)
        assert forward < d, f"prefix vertex {v} has {forward} forward neighbors"


def test_degenerate_ordering_k5():
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    peel = degenerate_ordering(edges, 2)
    assert peel.cut == 0
    assert peel.core_vertices == frozenset(range(5))


def test_degenerate_ordering_path():
    peel = degenerate_ordering([(0, 1), (1, 2)], 1)
    _forward_check([(0, 1), (1, 2)], peel, 1)
    deg = {}
    for u, v in peel.core_edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    assert peel.core_vertices and min(deg.get(v, 0) for v in peel.core_vertices) >= 1


def test_degenerate_ordering_star():
    edges = [(0, i) for i in range(1, 10)]
    peel = degenerate_ordering(edges, 1)
    assert peel.core_vertices
    deg = {}
    for u, v in peel.core_edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    assert min(deg[v] for v in peel.core_vertices) >= 1


def test_degenerate_ordering_empty_core():
    with pytest.raises(EmptyCore):
        degenerate_ordering([(0, 1), (1, 2)], 5)


def test_degenerate_ordering_rejects_a_loop():
    with pytest.raises(PreconditionFailed, match="no loop"):
        degenerate_ordering([(0, 1), (2, 2)], 1)


# -- bfs_layers -------------------------------------------------------------------


def test_layers_of_triangle_cycle():
    g = build(6, 3, [(0, 1, 2), (2, 3, 4), (0, 4, 5)])
    lay = bfs_layers(g, 0)
    assert lay.layer(0) == frozenset({0})
    assert lay.layer(1) == frozenset({1, 2, 4, 5})
    assert lay.layer(2) == frozenset({3})


def test_layers_of_fano(fano):
    for root in range(7):
        lay = bfs_layers(fano, root)
        assert lay.layer(1) == frozenset(range(7)) - {root}


def test_layers_skip_unreachable():
    g = build(6, 3, [(0, 1, 2), (3, 4, 5)])
    lay = bfs_layers(g, 0)
    assert set(lay.dist) == {0, 1, 2}


def test_layer_paths_are_shortest():
    g = build(6, 3, [(0, 1, 2), (2, 3, 4), (0, 4, 5)])
    lay = bfs_layers(g, 0)
    for v, dist in lay.dist.items():
        p = lay.path_to(v)
        assert p.length == dist
        if dist:
            assert v in p.edges[-1] and 0 in p.edges[0]


def test_layers_require_valid_root(fano):
    with pytest.raises(PreconditionFailed):
        bfs_layers(fano, 99)


# -- d_minimal --------------------------------------------------------------------


def test_fano_is_density_minimal(fano):
    out = d_minimal(fano, 3.0)
    assert out.edges == fano.edges
    # removing any single vertex drops the average degree below 3
    for v in range(7):
        rest = fano.induced(frozenset(range(7)) - {v})
        assert rest.average_degree() < 3.0


def test_single_triple_minimal():
    g = build(3, 3, [(0, 1, 2)])
    assert d_minimal(g, 1.0).edges == g.edges


def test_pendant_triple_is_peeled_off(fano):
    g = build(9, 3, FANO_LINES + [(0, 7, 8)])
    out = d_minimal(g, 2.5)
    assert out.vertices == frozenset(range(7))
    assert out.num_edges() == 7


def test_precondition_on_sparse_input():
    g = build(6, 3, [(0, 1, 2), (3, 4, 5)])
    with pytest.raises(PreconditionFailed):
        d_minimal(g, 3.0)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=9, max_value=40),
    st.integers(min_value=0, max_value=500),
)
def test_first_order_minimality_property(n, seed):
    g = greedy_partial_steiner(n, 3, seed=seed, effort=2.0)
    if g.num_edges() == 0:
        return
    d = g.average_degree()
    out = d_minimal(g, d)
    assert out.average_degree() >= d
    for v in sorted(out.vertices):
        if len(out.vertices) == 1:
            break
        rest = out.induced(out.vertices - {v})
        assert rest.average_degree() < d


# -- boundary_lower_bound_check ---------------------------------------------------


def boundary_lower_bound_check(g, subset, d):
    """Test oracle for d-minimality: edges touching a proper vertex subset S
    must number at least d|S|/r."""
    s = frozenset(subset)
    if not s < g.vertices:
        raise PreconditionFailed("S must be a proper subset of the vertex set")
    touching = sum(1 for e in g.edges if s.intersection(e))
    return touching >= d * len(s) / g.r


def test_boundary_single_point(fano):
    assert boundary_lower_bound_check(fano, {0}, 3.0)


def test_boundary_one_line(fano):
    # every line meets {0,1,2}: 3 through each point minus double counting = 7
    assert boundary_lower_bound_check(fano, {0, 1, 2}, 3.0)
    touching = sum(1 for e in fano.edges if {0, 1, 2}.intersection(e))
    assert touching == 7


def test_boundary_rejects_full_set(fano):
    with pytest.raises(PreconditionFailed):
        boundary_lower_bound_check(fano, range(7), 3.0)


def test_boundary_random_subsets_of_minimal_graph():
    import random

    g = greedy_partial_steiner(30, 3, seed=7, effort=2.0)
    d = g.average_degree()
    out = d_minimal(g, d)
    rng = random.Random(0)
    verts = sorted(out.vertices)
    for _ in range(200):
        size = rng.randrange(1, len(verts))
        s = rng.sample(verts, size)
        assert boundary_lower_bound_check(out, s, d)


# -- r_partite_reduction -----------------------------------------------------------


def test_partite_reduction_fano(fano):
    sub, part = r_partite_reduction(fano, seed=0)
    assert sub.num_edges() >= math.factorial(3) / 27 * 7
    part.check(sub)


def test_partite_reduction_random_triples():
    for seed in range(10):
        g = greedy_partial_steiner(15, 3, seed=seed, effort=2.0)
        sub, part = r_partite_reduction(g, seed=seed)
        assert sub.num_edges() >= (2.0 / 9.0) * g.num_edges()
        part.check(sub)


# -- the shared peel against a naive rescan -----------------------------------------
#
# The reference below is the rule all three routines state: rescan every live
# vertex after each deletion and delete the least (live degree, id) vertex that
# fails the stop rule.  _rainbow_by_proof reads the deletion order through its
# positions, so the ordering itself is compared, not just a property of it.


def naive_peel(edges, vertices, stop):
    alive, live, order = set(vertices), [True] * len(edges), []

    def degree(v):
        return sum(1 for i, e in enumerate(edges) if live[i] and v in e)

    while alive:
        e_count = sum(live)
        cands = [v for v in alive if not stop(degree(v), len(alive), e_count)]
        if not cands:
            break
        v = min(cands, key=lambda v: (degree(v), v))
        alive.discard(v)
        order.append(v)
        for i, e in enumerate(edges):
            if v in e:
                live[i] = False
    return order, alive, live


def outcome(fn, *args):
    try:
        return fn(*args)
    except LincycError as err:
        return type(err), str(err)


@st.composite
def linear_graphs(draw):
    """A greedy packing, thinned by a drawn mask, on a vertex range with up
    to three more vertices that no edge touches."""
    r = draw(st.sampled_from([3, 4]))
    n = draw(st.integers(min_value=r, max_value=14))
    base = greedy_partial_steiner(n, r, seed=draw(st.integers(0, 10**6)), effort=2.0)
    keep = draw(st.lists(st.booleans(), min_size=base.num_edges(), max_size=base.num_edges()))
    edges = [e for e, k in zip(base.edges, keep) if k]
    g = build(n + draw(st.integers(min_value=0, max_value=3)), r, edges)
    # thresholds at the average degree, on a quarter grid, and at d = r*k where
    # a vertex of degree exactly k sits on the stop rule's boundary
    quarter = draw(st.integers(min_value=0, max_value=4 * (r + 2))) / 4
    boundary = r * draw(st.integers(min_value=1, max_value=3))
    return g, draw(st.sampled_from([g.average_degree(), quarter, boundary]))


@settings(max_examples=300, deadline=None)
@given(linear_graphs())
def test_hypergraph_peels_match_naive_rescan(case):
    g, d = case

    def naive_core():
        if d > g.average_degree():
            raise EmptyCore(f"threshold {d} exceeds average degree {g.average_degree()}")
        support = {v for e in g.edges for v in e}
        _, _, live = naive_peel(g.edges, support, lambda k, a, e: k * g.r >= d)
        kept = [e for e, ok in zip(g.edges, live) if ok]
        if not kept:
            raise EmptyCore("peeling removed every edge")
        return g.induced(frozenset(v for e in kept for v in e))

    got, want = outcome(min_degree_subgraph, g, d), outcome(naive_core)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.edges == want.edges

    if g.average_degree() < d:
        with pytest.raises(PreconditionFailed):
            d_minimal(g, d)
        return
    _, alive, _ = naive_peel(
        g.edges, g.vertices, lambda k, a, e: a <= 1 or g.r * (e - k) < d * (a - 1)
    )
    got = d_minimal(g, d)
    assert got.vertices == frozenset(alive)
    assert got.edges == g.induced(alive).edges


def naive_core(edges, r, d):
    """Drop every edge at a vertex of degree below d/r, all at once, until
    none is left; the kept edges in input order and their minimum degree."""
    kept = list(edges)
    while True:
        deg = Counter(v for e in kept for v in e)
        low = {v for v, k in deg.items() if k * r < d}
        if not low:
            return kept, min(deg.values(), default=0)
        kept = [e for e in kept if not low.intersection(e)]


@st.composite
def edge_lists(draw):
    """A bare edge list on at most 12 vertices, linear or not, with a
    threshold: its average degree, a quarter grid that runs past r times every
    degree, d = r*k where a vertex of degree k sits on the stop rule's
    boundary, or just above r times the largest degree."""
    r = draw(st.sampled_from([2, 3, 4]))
    edge = st.sets(st.integers(0, 11), min_size=r, max_size=r).map(lambda s: tuple(sorted(s)))
    edges = draw(st.lists(edge, max_size=30))
    deg = Counter(v for e in edges for v in e)
    top = max(deg.values(), default=0)
    average = r * len(edges) / len(deg) if deg else 0.0
    quarter = draw(st.integers(min_value=0, max_value=4 * r * (top + 1))) / 4
    boundary = r * draw(st.integers(min_value=1, max_value=4))
    return edges, r, draw(st.sampled_from([average, quarter, boundary, r * top + 0.5]))


@settings(max_examples=300, deadline=None)
@given(edge_lists())
@example(([], 3, 0.0))
@example(([], 2, 1.5))
@example(([(0, 1, 2), (0, 3, 4)], 3, 7.0))
def test_min_degree_core_matches_naive_rescan(case):
    edges, r, d = case
    assert min_degree_core(edges, r, d) == naive_core(edges, r, d)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 19), st.integers(0, 19)).filter(lambda p: p[0] != p[1]),
        max_size=60,
    ),
    st.integers(min_value=0, max_value=24).map(lambda x: x / 4),
)
def test_degenerate_ordering_matches_naive_rescan(pairs, d):
    es = sorted({(min(p), max(p)) for p in pairs})
    vertices = {v for e in es for v in e}
    order, alive, live = naive_peel(es, vertices, lambda k, a, e: k >= d)
    got = outcome(degenerate_ordering, pairs, d)
    if not alive:
        assert got == (EmptyCore, f"no core of minimum degree {d}")
        return
    core_edges = tuple(e for e, ok in zip(es, live) if ok)
    assert got == PeelResult(order + sorted(alive), len(order), frozenset(alive), core_edges)


# -- the partite climb against a naive re-pricing ---------------------------------
#
# The reference below is the climb as first written: for each vertex and each
# other class, move the vertex there and recount the transversal edges at it.


def naive_partite(g, seed=0, restarts=64):
    r = g.r

    def count_at(eids, part_of):
        return sum(1 for eid in eids if len({part_of[u] for u in g.edges[eid]}) == r)

    def finish(part_of):
        kept = [e for e in g.edges if len({part_of[v] for v in e}) == r]
        parts = tuple(frozenset(v for v, p in part_of.items() if p == i) for i in range(r))
        sub = g.edge_induced(kept) if kept else LinearHypergraph(g.n, r, [], vertices=frozenset())
        return sub, RPartition(parts)

    target = math.factorial(r) / r**r * len(g.edges)
    verts = sorted(g.vertices)
    rng = random.Random(seed)
    for _ in range(restarts):
        labels = [i % r for i in range(len(verts))]
        rng.shuffle(labels)
        part_of = dict(zip(verts, labels))
        count = count_at(range(len(g.edges)), part_of)
        improved = True
        while improved:
            improved = False
            for v in verts:
                base = part_of[v]
                best_gain, best_part = 0, base
                local = g.incident.get(v, ())
                before = count_at(local, part_of)
                for p in range(r):
                    if p == base:
                        continue
                    part_of[v] = p
                    after = count_at(local, part_of)
                    if after - before > best_gain:
                        best_gain, best_part = after - before, p
                part_of[v] = best_part
                if best_gain > 0:
                    count += best_gain
                    improved = True
        if count >= target:
            return finish(part_of)
    raise RetriesExhausted("r-partite reduction below the r!/r^r guarantee", restarts)


@st.composite
def partite_cases(draw):
    """A thinned greedy packing at r in {3, 4, 5} with up to three isolated
    vertices, and a call seed."""
    r = draw(st.sampled_from([3, 4, 5]))
    n = draw(st.integers(min_value=r, max_value=24))
    base = greedy_partial_steiner(n, r, seed=draw(st.integers(0, 10**6)), effort=2.0)
    keep = draw(st.lists(st.booleans(), min_size=base.num_edges(), max_size=base.num_edges()))
    g = build(n + draw(st.integers(min_value=0, max_value=3)), r,
              [e for e, k in zip(base.edges, keep) if k])
    return g, draw(st.integers(0, 10**6))


def assert_same_climb(g, seed):
    got = outcome(r_partite_reduction, g, seed)
    want = outcome(naive_partite, g, seed)
    if isinstance(want, tuple):
        assert got == want
        return
    (sub, partition), (want_sub, want_partition) = got, want
    assert sub.edges == want_sub.edges
    assert sub.vertices == want_sub.vertices
    assert partition.parts == want_partition.parts


@settings(max_examples=300, deadline=None)
@given(partite_cases())
def test_partite_reduction_matches_naive_climb(case):
    assert_same_climb(*case)


@functools.lru_cache(maxsize=None)
def thinned_packing(n: int, r: int, d: float) -> LinearHypergraph:
    """The acceptance suite's recipe at seed 1: a greedy packing at effort
    1.0 with each edge kept so that the average degree is about d."""
    rng = random.Random(1)
    base = greedy_partial_steiner(n, r, seed=1, effort=1.0)
    p = min(1.0, d * n / max(1, r * base.num_edges()))
    return build(n, r, [e for e in base.edges if rng.random() < p])


# the benchmark's sizes, where the first climb takes three to five sweeps and
# most vertices are clean when a later sweep reaches them
@pytest.mark.parametrize("n,r", [(2000, 3), (200, 4)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_partite_reduction_matches_naive_climb_at_workload_scale(n, r, seed):
    assert_same_climb(thinned_packing(n, r, 6.0), seed)
