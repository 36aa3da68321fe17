"""Layered expanded trees: hand-traced constructions, invariants, path
expansion, and anchor/label bundles."""

from __future__ import annotations

import pytest

from lincyc import (
    PreconditionFailed,
    RPartition,
    SingletonS,
    anchor_and_label,
    build,
    build_mert,
    expand_tree_path,
    greedy_partial_steiner,
    r_partite_reduction,
)
from lincyc.errors import SingletonS as SingletonSErr


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
