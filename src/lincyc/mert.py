"""Layered expanded-tree construction for r-partite linear hypergraphs.

`build_mert` grows a rooted tree level by level: each level's vertices sit in
a single partite class, each tree edge expands to a full hyperedge, and the
induced coloring (hyperedge minus its two tree endpoints) is strongly rainbow.
It also files the graph's edges under the levels where the boundary (D-edge)
and internal (F-edge) constructions can use them.  The companion utilities
expand tree paths back into hyperedge paths and anchor/label vertex sets for
cycle pasting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Edge, LinearHypergraph, LinearPath, Pair, RPartition, _pair, verify_path
from .errors import InvariantViolation, PreconditionFailed, SingletonS


@dataclass
class Mert:
    """Root, height, per-level segments/matchings, parent map, the rainbow
    tree coloring chi, and the graph's edges filed by level.  segments[i]
    holds edge ids of the i-th segment; levels[i] the tree vertices at depth
    i; matchings[i] the (r-1)-sets whose expansion forms segment i+1.

    d_edges[t] holds the D-edges at level t: those meeting L_{t-1} and the
    rest of segment t and avoiding every earlier segment elsewhere.
    f_edges[t] holds the F-edges at level t: those avoiding segments
    0..t-1 and meeting segment t at least twice.  Both are in edge-id order
    for t in 1..height, and empty at t = 0."""

    root: int
    height: int
    graph: LinearHypergraph
    partition: RPartition
    segments: tuple[tuple[int, ...], ...]
    levels: tuple[frozenset[int], ...]
    matchings: dict[int, tuple[tuple[int, ...], ...]]
    parent: dict[int, int]
    tree_edge: dict[int, tuple[int, ...]]
    chi: dict[Pair, frozenset[int]]
    part_of_level: tuple[int, ...]
    d_edges: tuple[tuple[Edge, ...], ...]
    f_edges: tuple[tuple[Edge, ...], ...]

    def segment_edges(self, i: int) -> list[tuple[int, ...]]:
        return [self.graph.edges[eid] for eid in self.segments[i]]

    def segment_vertices(self, i: int) -> frozenset[int]:
        if i == 0:
            return frozenset({self.root})
        return frozenset(v for e in self.segment_edges(i) for v in e)

    def cumulative_vertices(self, i: int) -> frozenset[int]:
        out: set[int] = set()
        for j in range(0, min(i, self.height) + 1):
            out |= self.segment_vertices(j)
        return frozenset(out)

    @property
    def tree_vertices(self) -> frozenset[int]:
        return frozenset(v for lvl in self.levels for v in lvl)

    def tree_path(self, v: int) -> list[int]:
        """Vertex list from the root down to v."""
        out = [v]
        while v != self.root:
            v = self.parent[v]
            out.append(v)
        out.reverse()
        return out

    def to_json_obj(self) -> dict:
        return {
            "root": self.root,
            "height": self.height,
            "segments": [list(s) for s in self.segments],
            "levels": [sorted(l) for l in self.levels],
            "matchings": {str(i): [list(t) for t in m] for i, m in self.matchings.items()},
            "parent": {str(v): p for v, p in sorted(self.parent.items())},
            "chi": {f"{u},{v}": sorted(c) for (u, v), c in sorted(self.chi.items())},
            "part_of_level": list(self.part_of_level),
            "matching": "greedy-maximal",
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)


def build_mert(g: LinearHypergraph, partition: RPartition, x: int) -> Mert:
    """Deterministic layered expansion rooted at x (x must lie in the first
    part).  Level class s(i) maximizes the number of attachable edges, ties to
    the smallest class index; matchings are greedy maximal scanning edges in
    ascending id order.

    Attachable edges at step i are those meeting the tree in exactly one
    vertex, that vertex fresh to segment i; this keeps every later segment
    disjoint from all earlier ones except at its level vertices.  So the
    growth keeps one map, first[v], the index of the first segment holding
    v: an attachable edge lies at a fresh vertex, and its other vertices are
    not in the map.  One pass over the edges then files them by level.
    """
    partition.check(g)
    pm = partition.index_map()
    if pm.get(x) != 0:
        raise PreconditionFailed(f"root {x} must lie in the first part")

    star = sorted(g.incident.get(x, ()))
    segments: list[tuple[int, ...]] = [tuple(), tuple(star)]
    first = {x: 0}
    levels: list[frozenset[int]] = [frozenset({x})]
    part_of_level = [0]
    parent: dict[int, int] = {}
    tree_edge: dict[int, tuple[int, ...]] = {}
    chi: dict[Pair, frozenset[int]] = {}
    matchings: dict[int, tuple[tuple[int, ...], ...]] = {}
    # p_v and the hyperedge that introduced v, for the vertices fresh to the
    # current segment
    pending: dict[int, tuple[int, tuple[int, ...]]] = {}
    for eid in star:
        for v in g.edges[eid]:
            if v != x and v not in pending:
                pending[v] = (x, g.edges[eid])

    i = 1
    while True:
        for v in pending:
            first[v] = i
        attach = sorted(  # (edge id, attachment vertex)
            (eid, v)
            for v in pending
            for eid in g.incident[v]
            if len(first.keys() & g.edges[eid]) == 1
        )
        # a fresh vertex shares an edge with a level-(i-1) vertex, so no
        # candidate lies in that level's class
        if attach:
            groups: dict[int, list[tuple[int, int]]] = {}
            for eid, v in attach:
                groups.setdefault(pm[v], []).append((eid, v))
            part = max(groups, key=lambda j: (len(groups[j]), -j))
            level = frozenset(v for _, v in groups[part])
        else:
            classes = {pm[v] for v in pending}
            part = 1 if 1 in classes else min(classes, default=1)
            level = frozenset(v for v in pending if pm[v] == part)
        levels.append(level)
        part_of_level.append(part)
        for v in sorted(level):
            p, disc = pending[v]
            parent[v] = p
            tree_edge[v] = disc
            chi[_pair(p, v)] = frozenset(disc) - {p, v}
        if not attach:
            break

        used: set[int] = set()
        m_list: list[tuple[int, ...]] = []
        next_ids: list[int] = []
        new_pending: dict[int, tuple[int, tuple[int, ...]]] = {}
        for eid, v in groups[part]:
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
        pending = new_pending
        i += 1

    # A segment meets the earlier ones only in level vertices, so with lo the
    # smallest first index on an edge: it is an F-edge at lo when it holds two
    # or more vertices of index lo, and a D-edge at lo + 1 when it holds one,
    # a level vertex, and also a vertex of index lo + 1.  (An edge has one
    # vertex per class and a level lies in one class, so an edge with two
    # vertices of index lo is never a D-edge.)  A vertex off the tree reads
    # index i + 2, past every segment, so neither test counts it.
    d_edges: list[list[Edge]] = [[] for _ in range(i + 1)]
    f_edges: list[list[Edge]] = [[] for _ in range(i + 1)]
    for e in g.edges:
        idx = [first.get(v, i + 2) for v in e]
        lo = min(idx)
        if lo > i:
            continue
        if idx.count(lo) >= 2:
            f_edges[lo].append(e)
        elif lo + 1 in idx and e[idx.index(lo)] in levels[lo]:
            d_edges[lo + 1].append(e)

    out = Mert(
        root=x,
        height=i,
        graph=g,
        partition=partition,
        segments=tuple(segments),
        levels=tuple(levels),
        matchings=matchings,
        parent=parent,
        tree_edge=tree_edge,
        chi=chi,
        part_of_level=tuple(part_of_level),
        d_edges=tuple(map(tuple, d_edges)),
        f_edges=tuple(map(tuple, f_edges)),
    )
    _check_invariants(out)
    return out


def _check_invariants(m: Mert) -> None:
    tv = m.tree_vertices
    seen: set[int] = set()
    for p, c in m.chi.items():
        if c & tv:
            raise InvariantViolation("tree coloring touches a tree vertex")
        if c & seen:
            raise InvariantViolation("tree coloring is not rainbow")
        seen |= c
    pm = m.partition.index_map()
    for i, lvl in enumerate(m.levels):
        if len({pm[v] for v in lvl}) > 1:
            raise InvariantViolation(f"level {i} spans two classes")
        if lvl and pm[min(lvl)] != m.part_of_level[i]:
            raise InvariantViolation(f"level {i} is not in its recorded class")
    for i, match in m.matchings.items():
        flat: set[int] = set()
        for t in match:
            if set(t) & flat:
                raise InvariantViolation(f"matching {i} members overlap")
            flat |= set(t)
    early: set[int] = set()
    for i in range(2, m.height + 1):
        prev_level = m.levels[i - 1]
        early |= m.segment_vertices(i - 2)
        for e in m.segment_edges(i):
            if len(prev_level.intersection(e)) != 1:
                raise InvariantViolation("segment edge misses its level")
            if early.intersection(e):
                raise InvariantViolation("segment edge reaches back")


def expand_tree_path(m: Mert, q: Sequence[int]) -> LinearPath:
    """Expand a tree path (vertex list) into the hyperedge path it encodes."""
    verts = list(q)
    if len(verts) <= 1:
        return LinearPath((), None)
    edges = []
    for u, v in zip(verts, verts[1:]):
        if m.parent.get(v) == u:
            child = v
        elif m.parent.get(u) == v:
            child = u
        else:
            raise PreconditionFailed(f"{u},{v} is not a tree edge")
        edges.append(m.tree_edge[child])
    return verify_path(m.graph, edges, (verts[0], verts[-1]))


@dataclass
class TreePathBundle:
    """Closest common ancestor of a level set S, plus labels splitting S by
    whether its tree path passes through the designated first child."""

    anchor: int
    level: int
    labels: dict[int, int]
    paths: dict[int, list[int]]  # v -> vertex list anchor..v

    def union_path(self, u: int, v: int) -> list[int]:
        """Vertex list u .. anchor .. v for a label-1 u and label-2 v; meets
        the labelled set only at its two endpoints."""
        if self.labels[u] != 1 or self.labels[v] != 2:
            raise PreconditionFailed("union path needs labels 1 and 2")
        left = list(reversed(self.paths[u]))
        out = left + self.paths[v][1:]
        inner = set(out[1:-1])
        if inner & set(self.labels):
            raise InvariantViolation("union path re-enters S")
        return out


def anchor_and_label(m: Mert, s: Iterable[int]) -> TreePathBundle:
    sv = sorted(set(s))
    if len(sv) < 2:
        raise SingletonS(f"need at least two vertices, got {sv}")
    root_paths = {v: m.tree_path(v) for v in sv}
    depths = {len(p) for p in root_paths.values()}
    if len(depths) != 1:
        raise PreconditionFailed("anchored set spans several levels")
    first = root_paths[sv[0]]
    j = 0
    while all(len(p) > j and p[j] == first[j] for p in root_paths.values()):
        j += 1
    j -= 1  # index of the closest common ancestor along the root path
    anchor = first[j]
    paths = {v: p[j:] for v, p in root_paths.items()}
    children = {p[1] for p in paths.values() if len(p) > 1}
    if len(children) < 2:
        raise SingletonS("all vertices descend through one child")
    x1 = min(children)
    labels = {v: (1 if paths[v][1] == x1 else 2) for v in sv}
    if set(labels.values()) != {1, 2}:
        raise InvariantViolation("labels do not split S into two classes")
    return TreePathBundle(anchor, j, labels, paths)
