"""Path machinery: layer-dense subgraphs, anchored subgraphs with witness
paths, transversal-part paths, length-indexed path families, and the two-class
rainbow path search."""

from __future__ import annotations

import copy
import math
import random
from collections import Counter
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lincyc.core
import lincyc.pathfinder
import lincyc.reductions
from lincyc import (
    ColoredGraph,
    EmptyCore,
    LincycError,
    NotFound,
    PreconditionFailed,
    RetriesExhausted,
    anchored_subgraph,
    bfs_layers,
    build,
    degenerate_ordering,
    dense_layer_subgraph,
    greedy_partial_steiner,
    min_degree_subgraph,
    pan_connected,
    path_with_part,
    rainbow_path_exists,
    rainbow_special_path,
    verify_path,
)
from lincyc.engine import _anchor_density
from lincyc.pathfinder import (
    ANCHOR_ATTEMPTS,
    AnchoredSubgraph,
    check_rainbow_special,
)
from lincyc.reductions import degeneracy, log_ratio_cap, max_degree_root
from conftest import FANO_LINES, difference_projection, split_edges, transversal_regular_instance


@pytest.fixture(scope="module")
def packing_core():
    g = greedy_partial_steiner(150, 3, seed=0)
    return min_degree_subgraph(g, g.average_degree())


# -- dense_layer_subgraph ----------------------------------------------------------


def test_layer_subgraph_fano(fano):
    for x in range(7):
        m, h, _ = dense_layer_subgraph(fano, x, 1.0)
        assert m in (0, 1)
        assert h.average_degree() >= 0.25
        lay = bfs_layers(fano, x)
        lm = lay.layer(m)
        early = {v for v, i in lay.dist.items() if i < m}
        for e in h.edges:
            assert lm.intersection(e)
            assert not early.intersection(e)


def test_layer_subgraph_precondition(fano):
    with pytest.raises(PreconditionFailed):
        dense_layer_subgraph(fano, 0, 2.0)  # above half the minimum degree


def test_layer_index_respects_log_bound(packing_core):
    g = packing_core
    import math

    d = g.min_degree() / 2
    x = min(g.vertices)
    m, _, _ = dense_layer_subgraph(g, x, d)
    cap = math.ceil(math.log2(len(g.vertices)) / math.log2(g.min_degree() / d))
    assert m <= cap


def test_layer_search_walks_only_the_ball_it_needs():
    """The layer search stops its BFS at the layer it returns.  On the scale
    recipe's core at n = 2000, d = 8, it stops at m = 1 holding three of the
    five layers, with the full BFS's distances and parents on those."""
    n, d = 2000, 8
    base = greedy_partial_steiner(n, 3, seed=1, effort=min(1, 4 * d / (3 * (n - 1))))
    rng = random.Random(1)
    p = d * n / (3 * base.num_edges())
    g = build(n, 3, [e for e in base.edges if rng.random() < p])
    core = min_degree_subgraph(g, g.average_degree())
    x = max_degree_root(core)
    m, _, lay = dense_layer_subgraph(core, x, core.min_degree() / 2)
    full = bfs_layers(core, x)
    depth = len(lay.layers)
    assert lay.layers == full.layers[:depth]
    assert lay.dist == {v: i for v, i in full.dist.items() if i < depth}
    assert lay.parent_vertex == {v: full.parent_vertex[v] for v in lay.dist if v != x}
    assert lay.parent_edge == {v: full.parent_edge[v] for v in lay.dist if v != x}
    assert depth <= m + 3
    assert depth < len(full.layers)


# -- anchored_subgraph --------------------------------------------------------------


def test_anchored_postconditions(packing_core):
    g = packing_core
    x = min(g.vertices, key=lambda v: (-g.degree(v), v))
    d = g.min_degree() / 2
    anc = anchored_subgraph(g, x, d, seed=0)
    f = anc.subgraph
    # each edge holds exactly one anchor and avoids all earlier layers
    early = {v for v, i in anc.layers.dist.items() if i < anc.m}
    for e in f.edges:
        assert len(anc.anchors.intersection(e)) == 1
        assert not early.intersection(e)
    # minimum-degree floor
    assert f.min_degree() >= d / (g.r * 2 ** (2 * g.r + 1))
    # witness paths touch the subgraph only at their endpoint
    assert anc.witness_paths
    for v, p in anc.witness_paths.items():
        assert v in anc.anchors
        assert (p.vertex_set() or {v}) & f.vertices == {v}
        verify_path(g, p.edges)


def test_anchored_call_reads_delta_once_and_runs_one_bfs(monkeypatch, packing_core):
    """The layer search holds the density check and the BFS: one anchored
    call reads g's minimum degree once and runs one BFS, and a density it
    refuses runs no BFS."""
    g = packing_core
    x, delta = max_degree_root(g), g.min_degree()
    calls: Counter = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(lincyc.core.LinearHypergraph, "min_degree",
                        counted("min_degree", lincyc.core.LinearHypergraph.min_degree))
    monkeypatch.setattr(lincyc.pathfinder, "bfs_rounds",
                        counted("bfs_rounds", lincyc.pathfinder.bfs_rounds))
    anchored_subgraph(g, x, delta / 2, seed=0)
    assert calls == {"min_degree": 1, "bfs_rounds": 1}
    calls.clear()
    with pytest.raises(PreconditionFailed):
        anchored_subgraph(g, x, delta / 2 + 1, seed=0)
    assert calls == {"min_degree": 1}


def test_anchored_is_deterministic(packing_core):
    g = packing_core
    x = min(g.vertices, key=lambda v: (-g.degree(v), v))
    a1 = anchored_subgraph(g, x, g.min_degree() / 2, seed=7)
    a2 = anchored_subgraph(g, x, g.min_degree() / 2, seed=7)
    assert a1.subgraph.edges == a2.subgraph.edges
    assert a1.anchors == a2.anchors


# -- the draws against the graph-per-draw code they replaced -----------------------------
#
# The reference below is the layer and anchored search as first written: every
# candidate edge list is cut into a subgraph with edge_induced, each draw is
# peeled as a graph, and the core comes from a rescan that drops every vertex
# of degree below d/r at once until none is left.  The result must be the same
# object, or the same exception type and message.


def naive_min_degree_subgraph(g, d):
    if d > g.average_degree():
        raise EmptyCore(f"threshold {d} exceeds average degree {g.average_degree()}")
    kept = list(g.edges)
    while True:
        deg = Counter(v for e in kept for v in e)
        low = {v for v, k in deg.items() if k * g.r < d}
        if not low:
            break
        kept = [e for e in kept if not low.intersection(e)]
    if not kept:
        raise EmptyCore("peeling removed every edge")
    core = g.induced(frozenset(v for e in kept for v in e))
    assert core.min_degree() * g.r >= d
    return core


def naive_layer_condition(h, lay, m):
    lm = lay.layer(m)
    early = {v for v, i in lay.dist.items() if i < m}
    return all(any(v in lm for v in e) and not any(v in early for v in e) for e in h.edges)


def naive_dense_layer_subgraph(g, x, d, lay=None):
    delta = g.min_degree()
    if not (1 <= d <= delta / 2):
        raise PreconditionFailed(f"need 1 <= d <= delta/2, got d={d}, delta={delta}")
    lay = lay if lay is not None else bfs_layers(g, x)
    t_cap = log_ratio_cap(len(g.vertices), delta / d, 1, 0)
    all_layers = lay.layers
    for i in range(1, min(t_cap, len(all_layers) - 1) + 1):
        li = lay.layer(i)
        if not li:
            break
        gi_edges = [e for e in g.edges if any(v in li for v in e)]
        if not gi_edges:
            continue
        gi = g.edge_induced(gi_edges)
        if gi.average_degree() < d / 2:
            continue
        prev = lay.layer(i - 1)
        with_prev = [e for e in gi_edges if any(v in prev for v in e)]
        without = [e for e in gi_edges if not any(v in prev for v in e)]
        candidates = []
        if len(with_prev) * 2 >= len(gi_edges) and with_prev:
            candidates.append((i - 1, with_prev))
        if without:
            candidates.append((i, without))
        for m, es in sorted(candidates, key=lambda c: -c[0]):
            h = g.edge_induced(es)
            if h.average_degree() >= d / 4 and naive_layer_condition(h, lay, m):
                return m, h
    raise NotFound("no dense layer subgraph; check preconditions")


def naive_anchored_ok(f, anchors, lay, m):
    early = {v for v, i in lay.dist.items() if i < m}
    return all(len(anchors.intersection(e)) == 1 and not any(v in early for v in e)
               for e in f.edges)


def naive_anchored_subgraph(g, x, d, seed=0, log=None):
    """log, when given, gets [attempt, repaired, min degree] for each draw
    whose first peel leaves a core: repaired when the draw's repair set is
    non-empty, and the min degree None when the repair empties the core."""
    lay = bfs_layers(g, x)
    m, h = naive_dense_layer_subgraph(g, x, d, lay)
    v_m = sorted(h.vertices & lay.layer(m))
    rng = random.Random(seed)
    threshold = d / (g.r * 2 ** (2 * g.r + 1))
    good_enough = max(4.0, threshold)
    best: Optional[AnchoredSubgraph] = None
    schedule = [(0.5, 0.5), (1.0 / g.r, 1.0), (0.25, 1.0), (0.35, 0.7)]
    for attempt in range(ANCHOR_ATTEMPTS):
        px, py = schedule[attempt % len(schedule)]
        xs = {v for v in v_m if rng.random() < px}
        good = [e for e in h.edges if len(xs.intersection(e)) == 1]
        if not good:
            continue
        ys = {v for v in xs if rng.random() < py}
        nice = []
        for e in good:
            (vf,) = xs.intersection(e)
            if vf not in ys:
                continue
            if m > 0 and ys.intersection(lay.parent_edge[vf]) != {vf}:
                continue
            nice.append(e)
        if not nice:
            continue
        h2 = g.edge_induced(nice)
        try:
            f = naive_min_degree_subgraph(h2, h2.average_degree())
        except EmptyCore:
            continue
        anchors = frozenset(ys)
        bad = set()
        for v in sorted(f.vertices & anchors):
            bad |= (lay.path_to(v).vertex_set() - {v}) & f.vertices
        if log is not None:
            log.append([attempt, bool(bad), None])
        if bad:
            keep = [e for e in f.edges if not bad.intersection(e)]
            if not keep:
                continue
            f = g.edge_induced(keep)
            try:
                f = naive_min_degree_subgraph(f, f.average_degree())
            except EmptyCore:
                continue
        if log is not None:
            log[-1][2] = f.min_degree()
        if f.min_degree() < threshold:
            continue
        if not naive_anchored_ok(f, anchors, lay, m):
            continue
        paths = {}
        ok = True
        for v in sorted(f.vertices & anchors):
            p = lay.path_to(v)
            hits = (p.vertex_set() or {v}) & f.vertices
            if hits != {v}:
                ok = False
                break
            paths[v] = p
        if not ok or not paths:
            continue
        cand = AnchoredSubgraph(m, anchors, f, paths, lay)
        if f.min_degree() >= good_enough:
            return cand
        if best is None or f.min_degree() > best.subgraph.min_degree():
            best = cand
        if best is not None and attempt >= 60:
            break
    if best is not None:
        return best
    raise RetriesExhausted("anchored subgraph draws kept failing P1-P3", ANCHOR_ATTEMPTS)


def settle(fn, *args):
    """The fields a caller reads from a result, or the exception's type and
    message."""
    try:
        result = fn(*args)
    except LincycError as err:
        return type(err), str(err)
    if isinstance(result, AnchoredSubgraph):
        return result.m, result.anchors, result.subgraph, result.witness_paths
    return result


@st.composite
def layered_cases(draw):
    """A thinned greedy packing peeled to minimum degree at least 2, a root, a
    density d on a quarter grid that strays past delta/2, and a call seed."""
    r = draw(st.sampled_from([3, 4]))
    n = draw(st.integers(min_value=3 * r, max_value=90))
    base = greedy_partial_steiner(n, r, seed=draw(st.integers(0, 10**6)), effort=2.0)
    coins = draw(st.lists(st.integers(0, 9), min_size=base.num_edges(),
                          max_size=base.num_edges()))
    thinned = build(n, r, [e for e, c in zip(base.edges, coins) if c])
    try:
        g = min_degree_subgraph(thinned, 2 * r)
    except EmptyCore:
        g = base
    x = draw(st.sampled_from(sorted(g.vertices)))
    d = 1 + draw(st.integers(min_value=0, max_value=2 * g.min_degree())) / 4
    return g, x, d, draw(st.integers(0, 10**6))


@settings(max_examples=150, deadline=None)
@given(layered_cases())
def test_draws_match_the_graph_per_draw_reference(case):
    g, x, d, seed = case
    assert settle(dense_layer_subgraph, g, x, d)[:2] == settle(naive_dense_layer_subgraph, g, x, d)
    assert (settle(anchored_subgraph, g, x, d, seed)
            == settle(naive_anchored_subgraph, g, x, d, seed))


# dense_layer_subgraph files each edge under its least BFS distance, as an edge
# of at most two consecutive layers, and skips an edge whose first vertex the
# BFS did not reach.  Both rest on this premise.


@settings(max_examples=100, deadline=None)
@given(layered_cases())
def test_an_edge_spans_at_most_two_consecutive_layers(case):
    g, x, _, _ = case
    dist = bfs_layers(g, x).dist
    for e in g.edges:
        ds = [dist.get(v) for v in e]
        if None in ds:
            assert ds == [None] * len(e)
        else:
            assert max(ds) - min(ds) <= 1


def test_layer_subgraph_of_two_fano_planes_matches_the_reference():
    # every BFS leaves the other plane's seven edges unreached
    g = build(14, 3, FANO_LINES + [tuple(v + 7 for v in e) for e in FANO_LINES])
    for x in range(14):
        for d in (1, 1.5):
            assert (settle(dense_layer_subgraph, g, x, d)[:2]
                    == settle(naive_dense_layer_subgraph, g, x, d))


# The property above stops at n <= 90.  These cases are the all-lengths
# pipeline's own first call at the benchmark's sizes: a greedy packing
# sparsified to average degree about d, its core, the density d_eff that
# consecutive_cycles picks at k = 2 and its max-degree root.  Every case lands
# on m = 1, has edges with two or more layer-m vertices (the draw index's
# multi list), and has draws whose witness paths run into V(F) (a non-empty
# repair set); so does the property.  m = 0 is out of reach for any input that
# passes dense_layer_subgraph's precondition 1 <= d <= delta/2: the edges at
# the root would have to be half of those meeting L_1, and then the others
# meeting L_1 already reach average degree (delta - 1)/2 > d/4 and win as m = 1.


def _pipeline_case(n, d, seed):
    base = greedy_partial_steiner(n, 3, seed=seed)
    rng = random.Random(seed)
    p = min(1.0, d * n / (3 * base.num_edges()))
    g = build(n, 3, [e for e in base.edges if rng.random() < p])
    core = min_degree_subgraph(g, g.average_degree())
    delta = core.min_degree()
    theory_d = 3**1.5 * 2 ** (2 * 3 + 2) * math.sqrt(delta * 2)
    d_eff = theory_d if theory_d <= delta / 2 else max(1.0, delta / 2)
    return core, max_degree_root(core), d_eff


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("d", [18, 36])
@pytest.mark.parametrize("n", [150, 300])
def test_draws_match_the_reference_at_workload_scale(n, d, seed):
    g, x, d_eff = _pipeline_case(n, d, seed)
    got = settle(anchored_subgraph, g, x, d_eff, seed)
    assert got == settle(naive_anchored_subgraph, g, x, d_eff, seed)
    m, h, _ = dense_layer_subgraph(g, x, d_eff)
    assert got[0] == m == 1
    lm = bfs_layers(g, x).layer(m)
    assert any(len(lm.intersection(e)) >= 2 for e in h.edges)


def test_draws_index_only_g_and_h(monkeypatch):
    """One anchored call indexes g and its layer subgraph h, and nothing per
    draw: the draws and the degeneracy ceiling peel on h's incidence."""
    g, x, d_eff = _pipeline_case(300, 36, 0)
    _, h, _ = dense_layer_subgraph(g, x, d_eff)
    g = copy.copy(g)  # a copy builds its indexes again, inside the call
    indexed = []

    def recording(edges):
        indexed.append(list(edges))
        return incidence(edges)

    incidence = lincyc.core._incidence
    monkeypatch.setattr(lincyc.core, "_incidence", recording)
    monkeypatch.setattr(lincyc.reductions, "_incidence", recording)
    anchored_subgraph(g, x, d_eff, 0)
    assert sorted(indexed) == sorted([list(g.edges), list(h.edges)])


# pan_connected roots anchored_subgraph again at each anchor of the first
# call's F, at its best-effort density.  There h is often 1-degenerate, so the
# first draw that keeps a core already reaches h's degeneracy and ends the
# loop, with draws left unspent.  Each case has such a call in which a draw up
# to that one had a non-empty repair set.


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nested_draws_match_the_reference_at_workload_scale(seed):
    g, x, d_eff = _pipeline_case(300, 18, seed)
    top = anchored_subgraph(g, x, d_eff, seed)
    f, k = top.subgraph, 2
    r = f.r
    d_prime = k * r * r * 2 ** (2 * r + 2)
    delta = f.min_degree()
    d = d_prime if delta >= 2 * d_prime else max(1.0, delta / 2)
    good_enough = max(4.0, d / (r * 2 ** (2 * r + 1)))
    stopped_after_a_repair = False
    for a in sorted(f.vertices & top.anchors):
        anc, log = anchored_subgraph(f, a, d, seed), []
        assert ((anc.m, anc.anchors, anc.subgraph, anc.witness_paths)
                == settle(naive_anchored_subgraph, f, a, d, seed, log))
        _, h, _ = dense_layer_subgraph(f, a, d)
        ceiling = degeneracy(h.edges, r, good_enough)
        if anc.subgraph.min_degree() == ceiling < good_enough:
            reached = next(i for i, (_, _, low) in enumerate(log) if low == ceiling)
            stopped_after_a_repair |= any(repaired for _, repaired, _ in log[: reached + 1])
    assert stopped_after_a_repair


# -- path_with_part -----------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_transversal_path(k):
    f, anchors = transversal_regular_instance(3 * k, seed=k)
    p = path_with_part(f, anchors, k)
    assert p.length >= k + 2
    # anchor vertices must have degree one on the path
    connectors = set(p.connectors())
    assert not connectors & anchors
    for e in p.edges:
        assert len(anchors.intersection(e)) == 1


def test_transversal_path_requires_degree():
    from lincyc import build

    f = build(3, 3, [(0, 1, 2)])
    with pytest.raises(PreconditionFailed):
        path_with_part(f, {0}, 1)


def test_transversal_path_rejects_two_anchors():
    from lincyc import build

    f = build(3, 3, [(0, 1, 2)])
    with pytest.raises(PreconditionFailed):
        path_with_part(f, {0, 1}, 1)


# -- pan_connected ------------------------------------------------------------------


def test_pan_connected_family(packing_core):
    g = packing_core
    x = min(g.vertices, key=lambda v: (-g.degree(v), v))
    anc = anchored_subgraph(g, x, g.min_degree() / 2, seed=0)
    start = sorted(anc.subgraph.vertices & anc.anchors)[0]
    k = 2
    d = _anchor_density(k * 9 * 2**8, anc.subgraph.min_degree(), strict=False)
    fam = pan_connected(anc.subgraph, start, k, d, seed=0)
    want = set(range(fam.t + 3, fam.t + k + 3))
    assert set(fam.paths) == want
    for ln, p in fam.paths.items():
        assert p.length == ln
        assert p.edges[-2] == fam.e and p.edges[-1] == fam.f
        assert start in p.edges[0]
        verify_path(anc.subgraph, p.edges)


def test_pan_connected_strict_precondition(packing_core):
    g = packing_core
    x = min(g.vertices)
    with pytest.raises(PreconditionFailed):
        pan_connected(g, x, 2, 2 * 9 * 2**8, seed=0)


# -- rainbow_special_path ------------------------------------------------------------


def test_rainbow_length_one_returns_first_class_edge():
    h = difference_projection(12, seed=0)
    e1, e2 = split_edges(h, seed=0)
    u, v = rainbow_special_path(h, e1, e2, 1)
    assert tuple(sorted((u, v))) in {tuple(sorted(e)) for e in e1}


def test_rainbow_requires_nonempty_classes():
    h = difference_projection(6, seed=0)
    with pytest.raises(PreconditionFailed):
        rainbow_special_path(h, [], list(h.edges), 2)


def test_rainbow_requires_partition():
    h = difference_projection(6, seed=0)
    e1, e2 = split_edges(h, seed=0)
    with pytest.raises(PreconditionFailed):
        rainbow_special_path(h, e1, e2[:-1], 2)


def test_rainbow_strict_rejects_large_first_class():
    h = difference_projection(24, seed=1)
    e1, e2 = split_edges(h, seed=2)
    with pytest.raises(PreconditionFailed):
        rainbow_special_path(h, e2, e1, 2)  # |E1| > |E2|


def test_rainbow_at_threshold_degree():
    for ell, q in ((2, 24), (4, 48)):
        h = difference_projection(q, seed=ell)
        assert h.min_degree() >= 4 * 3 * ell
        e1, e2 = split_edges(h, seed=ell + 10)
        path = rainbow_special_path(h, e1, e2, ell)
        check_rainbow_special(h, {tuple(sorted(e)) for e in e1}, path, ell)


def test_rainbow_checker_rejects_tampering():
    h = difference_projection(24, seed=1)
    e1, e2 = split_edges(h, seed=2)
    path = rainbow_special_path(h, e1, e2, 2)
    with pytest.raises(PreconditionFailed):
        check_rainbow_special(h, {tuple(sorted(e)) for e in e2}, path, 2)
    with pytest.raises(PreconditionFailed):
        check_rainbow_special(h, {tuple(sorted(e)) for e in e1}, path[:2], 2)


def test_rainbow_agrees_with_exhaustive_search():
    hits = 0
    for seed in range(15):
        h = difference_projection(8, seed=seed)  # 16 vertices: exhaustible
        e1, e2 = split_edges(h, seed=seed + 100)
        try:
            path = rainbow_special_path(h, e1, e2, 3, best_effort=True)
        except NotFound:
            continue
        hits += 1
        check_rainbow_special(h, {tuple(sorted(e)) for e in e1}, path, 3)
        assert rainbow_path_exists(h, e1, e2, 3)
    assert hits > 0


# -- the proof-based search peels once -------------------------------------------------------


def halving_peel(edges, tau):
    """The proof-based search's earlier peel, kept as the reference: halve tau
    from r*length until a core of minimum degree tau is left."""
    while True:
        try:
            return tau, degenerate_ordering(edges, tau)
        except EmptyCore:
            tau //= 2


def assert_single_peel(h, e1, e2, length):
    calls = []

    def recording(edges, d):
        calls.append((list(edges), d))
        return degenerate_ordering(edges, d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lincyc.pathfinder, "degenerate_ordering", recording)
        try:
            rainbow_special_path(h, e1, e2, length, best_effort=True)
        except NotFound:
            pass
    assert len(calls) == 1
    edges, d = calls[0]
    r = len(next(iter(h.color.values()))) + 2
    assert (d, degenerate_ordering(edges, d)) == halving_peel(edges, r * length)


@pytest.mark.parametrize("q,length,seed", [(8, 3, 0), (8, 2, 5), (12, 4, 1), (24, 2, 2)])
def test_proof_search_peels_once_at_the_halving_tau(q, length, seed):
    # tau starts at r*length = 3*length: the cases at q = 8 and 12 halve it
    # (to 4, 3 and 6), and the one at q = 24 keeps 6
    h = difference_projection(q, seed=seed)
    e1, e2 = split_edges(h, seed=seed + 10)
    assert_single_peel(h, e1, e2, length)


@st.composite
def colored_splits(draw):
    n = draw(st.integers(3, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=2, unique=True))
    color = {e: frozenset({draw(st.integers(n, n + 3))}) for e in edges}
    h = ColoredGraph(frozenset(v for e in edges for v in e), tuple(sorted(edges)), color)
    shuffled = draw(st.permutations(edges))
    cut = draw(st.integers(1, len(edges) - 1))
    return h, shuffled[:cut], shuffled[cut:], draw(st.integers(2, 4))


@settings(max_examples=150, deadline=None)
@given(colored_splits())
def test_proof_search_peels_once_on_random_graphs(case):
    assert_single_peel(*case)
