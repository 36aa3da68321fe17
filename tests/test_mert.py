"""Layered expanded trees: hand-traced constructions, invariants, path
expansion, and anchor/label bundles."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lincyc import (
    Mert,
    PreconditionFailed,
    RPartition,
    SingletonS,
    anchor_and_label,
    build,
    build_mert,
    cycles_from_boundary,
    cycles_from_internal,
    expand_tree_path,
    greedy_partial_steiner,
    r_partite_reduction,
)
from lincyc.core import _pair
from lincyc.engine import _boundary_edges, _internal_edges
from lincyc.errors import SingletonS as SingletonSErr
from lincyc.reductions import rotate_to_root


def sunflower():
    g = build(7, 3, [(0, 1, 2), (0, 3, 4), (0, 5, 6)])
    part = RPartition((frozenset({0}), frozenset({1, 3, 5}), frozenset({2, 4, 6})))
    return g, part


def two_level():
    g = build(7, 3, [(0, 1, 2), (1, 3, 4), (1, 5, 6)])
    part = RPartition((frozenset({0, 3, 5}), frozenset({1}), frozenset({2, 4, 6})))
    return g, part


def conflicting_residues():
    g = build(8, 3, [(0, 1, 2), (0, 3, 4), (1, 5, 6), (3, 6, 7)])
    part = RPartition((frozenset({0, 5, 7}), frozenset({1, 3}), frozenset({2, 4, 6})))
    return g, part


# -- hand traces --------------------------------------------------------------------


def test_sunflower_trace():
    g, part = sunflower()
    m = build_mert(g, part, 0)
    assert m.height == 1
    assert m.levels == (frozenset({0}), frozenset({1, 3, 5}))
    assert [g.edges[i] for i in m.segments[1]] == sorted(g.edges)
    assert m.matchings == {}
    # star tree: every level-1 vertex hangs off the root
    assert m.parent == {1: 0, 3: 0, 5: 0}
    assert m.chi[(0, 1)] == frozenset({2})
    assert m.chi[(0, 3)] == frozenset({4})
    assert m.chi[(0, 5)] == frozenset({6})


def test_single_edge_trace():
    g = build(3, 3, [(0, 1, 2)])
    part = RPartition((frozenset({0}), frozenset({1}), frozenset({2})))
    m = build_mert(g, part, 0)
    assert m.height == 1
    assert m.levels[1] == frozenset({1})
    assert m.part_of_level == (0, 1)


def test_two_level_trace():
    g, part = two_level()
    m = build_mert(g, part, 0)
    assert m.height == 2
    assert m.levels == (frozenset({0}), frozenset({1}), frozenset({3, 5}))
    assert m.matchings == {1: ((3, 4), (5, 6))}
    assert m.parent == {1: 0, 3: 1, 5: 1}
    assert m.part_of_level == (0, 1, 0)


def test_greedy_matching_skips_overlapping_residue():
    g, part = conflicting_residues()
    m = build_mert(g, part, 0)
    # residues (5,6) and (6,7) collide at 6; ascending-id greedy keeps (5,6)
    assert m.matchings[1] == ((5, 6),)
    assert m.segments == ((), (0, 1), (2,))
    assert m.levels == (frozenset({0}), frozenset({1, 3}), frozenset({5}))


def test_root_must_be_in_first_part():
    g, part = sunflower()
    with pytest.raises(PreconditionFailed):
        build_mert(g, part, 1)


# -- invariants on random inputs ------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_invariants_and_determinism_on_random_inputs(seed):
    g = greedy_partial_steiner(60, 3, seed=seed, effort=2.0)
    sub, part = r_partite_reduction(g, seed=seed)
    if sub.num_edges() == 0:
        pytest.skip("empty partite subgraph")
    root = min(sub.vertices, key=lambda v: (-sub.degree(v), v))
    idx = next(i for i, p in enumerate(part.parts) if root in p)
    parts = [frozenset(p & sub.vertices) for p in part.parts]
    rotated = RPartition(tuple([parts[idx]] + [p for i, p in enumerate(parts) if i != idx]))
    m1 = build_mert(sub, rotated, root)
    m2 = build_mert(sub, rotated, root)
    assert m1.to_json() == m2.to_json()
    # coloring pairwise disjoint and off the tree
    seen = set()
    for c in m1.chi.values():
        assert not (c & m1.tree_vertices)
        assert not (c & seen)
        seen |= c
    # matchings pair with the following segment
    for i, match in m1.matchings.items():
        assert len(match) == len(m1.segments[i + 1])
    pm = rotated.index_map()
    for i, lvl in enumerate(m1.levels):
        assert len({pm[v] for v in lvl}) <= 1


# -- D- and F-edges filed by level ---------------------------------------------------


def filed_case():
    """Star (0,1,2), (0,3,4) at the root; (1,6,7) and (3,6,9) attach at level
    1 but share 6, so the matching keeps (1,6,7) only; (1,4,5) holds two
    segment-1 vertices; (2,8,9) attaches at 2, outside the chosen class."""
    g = build(10, 3, [(0, 1, 2), (0, 3, 4), (1, 4, 5), (1, 6, 7), (2, 8, 9), (3, 6, 9)])
    part = RPartition((frozenset({0, 5, 7, 9}), frozenset({1, 3, 8}), frozenset({2, 4, 6})))
    return g, part


def test_filed_edges_trace():
    g, part = filed_case()
    m = build_mert(g, part, 0)
    assert m.levels == (frozenset({0}), frozenset({1, 3}), frozenset({7}))
    assert m.segments == ((), (0, 1), (3,))
    # level 1: the star joins L_0 to the rest of segment 1; (1,4,5) avoids
    # the root and meets segment 1 at 1 and 4
    assert m.d_edges[1] == ((0, 1, 2), (0, 3, 4))
    assert m.f_edges[1] == ((1, 4, 5),)
    # level 2: (3,6,9) lost the matching yet joins L_1 to segment 2 at 6;
    # (2,8,9) meets the tree only at 2, which is not a level vertex
    assert m.d_edges[2] == ((1, 6, 7), (3, 6, 9))
    assert m.f_edges[2] == ()
    assert m.d_edges[0] == m.f_edges[0] == ()
    assert _boundary_edges(m, 2, 1) == (m.d_edges[2], 8 * 3 * 2 * 3)
    assert _internal_edges(m, 1, 1) == (m.f_edges[1], 8 * 3**5 * 2)


def test_constructions_reject_a_level_past_the_tree():
    g, part = filed_case()
    m = build_mert(g, part, 0)
    for construct in (cycles_from_boundary, cycles_from_internal):
        with pytest.raises(PreconditionFailed, match="outside"):
            construct(m, m.height + 1, 1)


def test_partition_indexes_its_classes_once():
    _, part = filed_case()
    assert part.index_map() is part.index_map()
    assert part.index_map() == {v: i for i, p in enumerate(part.parts) for v in p}


# The reference below is build_mert as it stood when every level rescanned all
# edges against set-algebra vertex sets, and the D/F filters as they read then.


def naive_build_mert(g, partition, x):
    pm = partition.index_map()
    r = g.r
    star = sorted(g.incident.get(x, ()))
    segments = [tuple(), tuple(star)]
    seg_vsets = [frozenset({x})]
    seg_vsets.append(frozenset(v for eid in star for v in g.edges[eid]) | {x})
    levels = [frozenset({x})]
    part_of_level = [0]
    parent, tree_edge, chi, matchings = {}, {}, {}, {}
    pending = {}
    for eid in star:
        for v in g.edges[eid]:
            if v != x and v not in pending:
                pending[v] = (x, g.edges[eid])
    cum = seg_vsets[0] | seg_vsets[1]
    i = 1
    while True:
        fresh = seg_vsets[i] - seg_vsets[i - 1]
        attach = []
        for eid, e in enumerate(g.edges):
            hit = [v for v in e if v in cum]
            if len(hit) == 1 and hit[0] in fresh:
                attach.append((eid, hit[0]))
        if not attach:
            ell = part_of_level[i - 1]
            cand = frozenset(v for v in fresh if pm[v] == 1)
            part = 1
            if not cand:
                by_part = sorted({pm[v] for v in fresh if pm[v] != ell})
                if by_part:
                    part = by_part[0]
                    cand = frozenset(v for v in fresh if pm[v] == part)
            levels.append(cand)
            part_of_level.append(part)
            for v in sorted(cand):
                p, disc = pending[v]
                parent[v] = p
                tree_edge[v] = disc
                chi[_pair(p, v)] = frozenset(disc) - {p, v}
            height = i
            break
        ell = part_of_level[i - 1]
        groups = {}
        for eid, v in attach:
            groups.setdefault(pm[v], []).append((eid, v))
        groups.pop(ell, None)
        if not groups:
            levels.append(frozenset())
            part_of_level.append((ell + 1) % r)
            height = i
            break
        s = max(sorted(groups), key=lambda j: (len(groups[j]), -j))
        chosen = sorted(groups[s])
        level = frozenset(v for _, v in chosen)
        levels.append(level)
        part_of_level.append(s)
        for v in sorted(level):
            p, disc = pending[v]
            parent[v] = p
            tree_edge[v] = disc
            chi[_pair(p, v)] = frozenset(disc) - {p, v}
        used, m_list, next_ids, new_pending = set(), [], [], {}
        for eid, v in chosen:
            residue = tuple(sorted(u for u in g.edges[eid] if u != v))
            if any(u in used for u in residue):
                continue
            used.update(residue)
            m_list.append(residue)
            next_ids.append(eid)
            for u in residue:
                new_pending[u] = (v, g.edges[eid])
        matchings[i] = tuple(m_list)
        segments.append(tuple(next_ids))
        vset = frozenset(v for eid in next_ids for v in g.edges[eid])
        seg_vsets.append(vset)
        cum = cum | vset
        pending = new_pending
        i += 1
    return Mert(x, height, g, partition, tuple(segments[: height + 1]), tuple(levels),
                matchings, parent, tree_edge, chi, tuple(part_of_level), (), ())


def naive_segment_vertices(m, i):
    if i == 0:
        return frozenset({m.root})
    return frozenset(v for eid in m.segments[i] for v in m.graph.edges[eid])


def naive_cumulative_vertices(m, i):
    out = set()
    for j in range(min(i, m.height) + 1):
        out |= naive_segment_vertices(m, j)
    return frozenset(out)


def naive_d_edges(m, t):
    lt1 = m.levels[t - 1]
    inner = naive_segment_vertices(m, t) - lt1
    early = naive_cumulative_vertices(m, t - 1) - lt1
    return tuple(e for e in m.graph.edges
                 if lt1.intersection(e) and inner.intersection(e)
                 and not early.intersection(e))


def naive_f_edges(m, t):
    vht = naive_segment_vertices(m, t)
    early = naive_cumulative_vertices(m, t - 1)
    return tuple(e for e in m.graph.edges
                 if not early.intersection(e) and len(vht.intersection(e)) >= 2)


@st.composite
def rooted_partite_cases(draw):
    """The partite part of a thinned greedy packing, with its partition
    rotated to the root: a drawn vertex or one of lowest degree, so rarely
    the max-degree root the pipeline takes."""
    r = draw(st.sampled_from([3, 4, 5]))
    n = draw(st.integers(min_value=3 * r, max_value=80))
    base = greedy_partial_steiner(n, r, seed=draw(st.integers(0, 10**6)), effort=2.0)
    coins = draw(st.lists(st.integers(0, 3), min_size=base.num_edges(),
                          max_size=base.num_edges()))
    thinned = build(n, r, [e for e, c in zip(base.edges, coins) if c])
    sub, part = r_partite_reduction(thinned, seed=draw(st.integers(0, 10**6)))
    if not sub.edges:
        sub, part = r_partite_reduction(base, seed=0)
    touched = sorted({v for e in sub.edges for v in e})
    if draw(st.booleans()):
        root = draw(st.sampled_from(touched))
    else:
        root = min(touched, key=lambda v: (sub.degree(v), v))
    return sub, rotate_to_root(sub, part, root), root


@settings(max_examples=120, deadline=None)
@given(rooted_partite_cases())
def test_build_mert_matches_the_rescanning_reference(case):
    g, part, root = case
    m = build_mert(g, part, root)
    ref = naive_build_mert(g, part, root)
    assert m.to_json() == ref.to_json()
    assert len(m.d_edges) == len(m.f_edges) == m.height + 1
    assert m.d_edges[0] == m.f_edges[0] == ()
    for t in range(1, m.height + 1):
        assert m.d_edges[t] == naive_d_edges(ref, t)
        assert m.f_edges[t] == naive_f_edges(ref, t)


# -- tree path expansion --------------------------------------------------------------


def test_expand_empty_and_single_vertex_paths():
    g, part = sunflower()
    m = build_mert(g, part, 0)
    assert expand_tree_path(m, []).length == 0
    assert expand_tree_path(m, [0]).length == 0


def test_expand_root_to_leaf():
    g, part = two_level()
    m = build_mert(g, part, 0)
    p = expand_tree_path(m, [0, 1, 3])
    assert p.edges == ((0, 1, 2), (1, 3, 4))
    assert p.endpoints == (0, 3)
    # reversed orientation also expands
    q = expand_tree_path(m, [3, 1, 0])
    assert q.edges == ((1, 3, 4), (0, 1, 2))


def test_expand_rejects_non_tree_step():
    g, part = two_level()
    m = build_mert(g, part, 0)
    with pytest.raises(PreconditionFailed):
        expand_tree_path(m, [3, 5])


# -- anchors and labels ----------------------------------------------------------------


def test_anchor_of_sunflower_leaves():
    g, part = sunflower()
    m = build_mert(g, part, 0)
    bundle = anchor_and_label(m, {1, 3})
    assert bundle.anchor == 0 and bundle.level == 0
    assert bundle.labels == {1: 1, 3: 2}
    assert bundle.union_path(1, 3) == [1, 0, 3]


def test_anchor_of_deeper_level():
    g, part = two_level()
    m = build_mert(g, part, 0)
    bundle = anchor_and_label(m, {3, 5})
    assert bundle.anchor == 1 and bundle.level == 1
    path = bundle.union_path(3, 5)
    assert path == [3, 1, 5]
    # length matches twice the depth gap: both endpoints sit at depth 2
    assert len(path) - 1 == 2 * (2 - bundle.level)


def test_anchor_union_path_avoids_other_members():
    g, part = sunflower()
    m = build_mert(g, part, 0)
    bundle = anchor_and_label(m, {1, 3, 5})
    u = next(v for v, l in bundle.labels.items() if l == 1)
    w = next(v for v, l in bundle.labels.items() if l == 2)
    inner = set(bundle.union_path(u, w)[1:-1])
    assert not inner & {1, 3, 5}


def test_anchor_rejects_singleton():
    g, part = sunflower()
    m = build_mert(g, part, 0)
    with pytest.raises(SingletonSErr):
        anchor_and_label(m, {1})


def test_anchor_rejects_mixed_levels():
    g, part = two_level()
    m = build_mert(g, part, 0)
    with pytest.raises(PreconditionFailed):
        anchor_and_label(m, {1, 3})


def test_union_path_needs_both_labels():
    g, part = sunflower()
    m = build_mert(g, part, 0)
    bundle = anchor_and_label(m, {1, 3})
    with pytest.raises(PreconditionFailed):
        bundle.union_path(3, 1)


def test_json_dump_shape():
    import json

    g, part = two_level()
    m = build_mert(g, part, 0)
    obj = json.loads(m.to_json())
    assert obj["root"] == 0 and obj["height"] == 2
    assert obj["matching"] == "greedy-maximal"
    assert set(obj) >= {"segments", "levels", "matchings", "parent", "chi"}
