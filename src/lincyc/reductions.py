"""Preprocessing reductions: degree peeling, degenerate orderings, BFS layers
by linear-path distance, first-order d-minimal subgraphs, and the random
r-partite reduction.

All randomized operations take an explicit seed and are deterministic given
it.  The two peels whose deletion order is part of the result, `d_minimal`
and `degenerate_ordering`, share one rule, `_peel`: delete the live vertex of
least (live degree, id) until it meets a stop rule.  Each stop rule is
monotone in the degree, so the least vertex can go exactly when any vertex
can, and a lazy min-heap deletes the same vertices in the same order as a
rescan of every live vertex (Matula-Beck smallest-last, Batagelj-Zaversnik).
`min_degree_core` needs no order: the core of minimum degree at least d/r is
unique, so a worklist deletes each vertex once it falls below d/r, with no
heap.  It peels a bare edge list, so the anchored draws in `pathfinder` build
no graph per draw.

The r-partite reduction (Erdős–Kleitman) hill-climbs a random balanced
r-partition one vertex at a time until the transversal edges reach r!/r^r of
e(G).  One tally over a vertex's edges prices its moves to every class, and a
vertex none of whose neighbours moved since it was last priced is skipped, so
the climb takes the same steps as re-pricing every vertex on every sweep.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .core import Edge, LinearHypergraph, LinearPath, Pair, RPartition, _pair
from .errors import EmptyCore, InvariantViolation, PreconditionFailed, RetriesExhausted


# -- smallest-last peeling and the minimum-degree core -------------------------


def _peel(edges, vertices, stop) -> tuple[list[int], set[int], list[bool]]:
    """Delete the live vertex of least (live degree, id), with its edges,
    until stop(degree, alive count, live edge count) holds for it.  vertices
    must hold every vertex of an edge; None means exactly those.  Returns the
    deletion order, the survivors and a live-edge mask."""
    incident: dict[int, list[int]] = {}
    for eid, e in enumerate(edges):
        for v in e:
            incident.setdefault(v, []).append(eid)
    deg = {v: len(incident.get(v, ())) for v in (incident if vertices is None else vertices)}
    alive = set(deg)
    live = [True] * len(edges)
    e_count = len(edges)
    heap = [(k, v) for v, k in deg.items()]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        k, v = heapq.heappop(heap)
        if v not in alive or k != deg[v]:
            continue  # stale: v was deleted or its degree has dropped since
        if stop(k, len(alive), e_count):
            break
        alive.discard(v)
        order.append(v)
        for eid in incident.get(v, ()):
            if live[eid]:
                live[eid] = False
                e_count -= 1
                for u in edges[eid]:
                    if u != v:
                        deg[u] -= 1
                        heapq.heappush(heap, (deg[u], u))
    return order, alive, live


def min_degree_core(edges: Sequence[Edge], r: int, d: float) -> tuple[list[Edge], int]:
    """The edges left after peeling every vertex of degree below d/r, in
    input order, and their minimum degree (0 when none is left).  The
    survivors are the unique such core, whatever the deletion order, so a
    vertex joins the worklist once, when its degree first drops below d/r."""
    incident: dict[int, list[int]] = {}
    for eid, e in enumerate(edges):
        for v in e:
            incident.setdefault(v, []).append(eid)
    deg = {v: len(eids) for v, eids in incident.items()}
    live = [True] * len(edges)
    # a vertex stays while k * r >= d; the negated form deletes every vertex
    # for a NaN d, as the smallest-last peel did
    work = [v for v, k in deg.items() if not k * r >= d]
    while work:
        v = work.pop()
        deg[v] = 0  # every edge at v dies now, so nothing lowers deg[v] again
        for eid in incident[v]:
            if live[eid]:
                live[eid] = False
                for u in edges[eid]:
                    if u != v:
                        k = deg[u]
                        deg[u] = k - 1
                        if k * r >= d and not (k - 1) * r >= d:
                            work.append(u)
    kept = [e for e, ok in zip(edges, live) if ok]
    low = min((k for k in deg.values() if k), default=0)
    if kept and low * r < d:
        raise InvariantViolation("core minimum degree below the peeling threshold")
    return kept, low


def min_degree_subgraph(g: LinearHypergraph, d: float) -> LinearHypergraph:
    """Induced subgraph of minimum degree >= d/r, nonempty whenever
    d <= d(g).  A deleted vertex keeps no live edge, so the core's edges are
    exactly those induced by its vertices."""
    if d > g.average_degree():
        raise EmptyCore(f"threshold {d} exceeds average degree {g.average_degree()}")
    kept, _ = min_degree_core(g.edges, g.r, d)
    if not kept:
        raise EmptyCore("peeling removed every edge")
    return g._cut(tuple(kept), frozenset(v for e in kept for v in e))


# -- degenerate ordering (2-graphs) ------------------------------------------


@dataclass
class PeelResult:
    """Ordering x_1..x_n with cut m: each x_i (i <= m) has fewer than d
    neighbors among x_{i+1}..x_n, and the core on x_{m+1}..x_n has minimum
    degree >= d."""

    ordering: list[int]
    cut: int
    core_vertices: frozenset[int]
    core_edges: tuple[Pair, ...]


def degenerate_ordering(edges: Iterable[Pair], d: float) -> PeelResult:
    """Smallest-last ordering of a 2-graph: peel while the least vertex has
    fewer than d live neighbors, then append the core in id order."""
    es = sorted(set(_pair(*e) for e in edges))
    if any(u == v for u, v in es):
        raise PreconditionFailed("a 2-graph has no loop (v, v)")
    deleted, alive, live = _peel(es, None, lambda k, a, e: k >= d)
    if not alive:
        raise EmptyCore(f"no core of minimum degree {d}")
    ordering = deleted + sorted(alive)
    core_edges = tuple(e for e, ok in zip(es, live) if ok)
    return PeelResult(ordering, len(deleted), frozenset(alive), core_edges)


# -- BFS layers by linear-path distance ---------------------------------------


@dataclass
class BfsLayers:
    """Levels L_0, L_1, ... from a root, with one fixed shortest linear path
    per reachable vertex.

    A shortest edge-walk in a linear hypergraph cannot have two non-consecutive
    edges meeting (that would shortcut it), so plain BFS over vertex -> edges ->
    new vertices computes exact linear-path distances and its parent chains are
    themselves linear paths.
    """

    root: int
    dist: dict[int, int]
    parent_vertex: dict[int, int]
    parent_edge: dict[int, tuple[int, ...]]

    @cached_property
    def layers(self) -> tuple[frozenset[int], ...]:
        """Built once per instance; dist is not changed after bfs_layers."""
        if not self.dist:
            return ()
        out: list[set[int]] = [set() for _ in range(max(self.dist.values()) + 1)]
        for v, i in self.dist.items():
            out[i].add(v)
        return tuple(frozenset(s) for s in out)

    def layer(self, i: int) -> frozenset[int]:
        ls = self.layers
        return ls[i] if 0 <= i < len(ls) else frozenset()

    def path_to(self, v: int) -> LinearPath:
        edges = []
        cur = v
        while cur != self.root:
            edges.append(self.parent_edge[cur])
            cur = self.parent_vertex[cur]
        edges.reverse()
        path = LinearPath(tuple(edges), (self.root, v) if edges else None)
        if path.length != self.dist[v]:
            raise InvariantViolation(f"path to {v} does not match its BFS distance")
        return path


def bfs_layers(g: LinearHypergraph, x: int) -> BfsLayers:
    if x not in g.vertices:
        raise PreconditionFailed(f"root {x} is not a vertex")
    dist = {x: 0}
    parent_vertex: dict[int, int] = {}
    parent_edge: dict[int, tuple[int, ...]] = {}
    q = deque([x])
    while q:
        u = q.popleft()
        for eid in g.incident.get(u, ()):
            e = g.edges[eid]
            for w in e:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent_vertex[w] = u
                    parent_edge[w] = e
                    q.append(w)
    return BfsLayers(x, dist, parent_vertex, parent_edge)


# -- d-minimal subgraphs ------------------------------------------------------


def d_minimal(g: LinearHypergraph, d: float) -> LinearHypergraph:
    """First-order d-minimal induced subgraph: average degree >= d, and
    removing any single vertex drops the average degree below d.

    Peels the vertex set while deleting the least-degree vertex keeps the
    average degree at d or above, that is while r(e - deg) >= d(alive - 1).
    """
    if g.average_degree() < d:
        raise PreconditionFailed(f"average degree {g.average_degree()} below {d}")
    _, alive, _ = _peel(g.edges, g.vertices,
                        lambda k, a, e: a <= 1 or g.r * (e - k) < d * (a - 1))
    out = g.induced(frozenset(alive))
    if out.average_degree() < d:
        raise InvariantViolation("d-minimal subgraph has average degree below d")
    return out


def boundary_lower_bound_check(g: LinearHypergraph, subset: Iterable[int], d: float) -> bool:
    """Test oracle for d-minimality: edges touching a proper vertex subset S
    must number at least d|S|/r."""
    s = frozenset(subset)
    if not s < g.vertices:
        raise PreconditionFailed("S must be a proper subset of the vertex set")
    touching = sum(1 for e in g.edges if s.intersection(e))
    return touching >= d * len(s) / g.r


# -- r-partite reduction (Erdős–Kleitman) -------------------------------------

RESTARTS = 64


def _transversals(g: LinearHypergraph, part_of: dict[int, int]) -> list[tuple[int, ...]]:
    """The edges that meet every class of part_of exactly once."""
    r = g.r
    return [e for e in g.edges if len({part_of[v] for v in e}) == r]


def r_partite_reduction(
    g: LinearHypergraph,
    seed: int = 0,
    partition_hint: Optional[RPartition] = None,
) -> tuple[LinearHypergraph, RPartition]:
    """Random balanced r-partition plus single-vertex hill climbing until the
    partite subgraph keeps at least (r!/r^r) e(G) edges.

    A hint that covers V(g) and already meets the target is used as it is.
    Otherwise each of up to RESTARTS attempts shuffles a balanced labelling
    and sweeps the vertices in id order until a sweep moves none.  A sweep
    moves v to the first class that gains the most transversal edges at v,
    if any class gains at least one.

    Moving v changes only v's edges, and an edge at v is a transversal with v
    in class p exactly when its other r - 1 vertices sit in distinct classes
    none of which is p.  Distinct classes from 0..r-1 miss exactly one, whose
    index is r(r-1)/2 minus their sum, so each edge adds one to the tally of
    at most one class, and the gain of class p is tally[p] - tally[v's class]:
    one pass over v's edges prices every move.  The tally depends only on the
    classes of v's neighbours, so a vertex that stayed put stays put until a
    neighbour moves; such clean vertices are skipped, which leaves the order
    of moves, and so the result, that of re-evaluating every vertex.
    """
    r = g.r
    target = math.factorial(r) / r**r * len(g.edges)
    verts = sorted(g.vertices)
    rng = random.Random(seed)

    if partition_hint is not None:
        part_of = partition_hint.index_map()
        if all(v in part_of for v in verts) and len(_transversals(g, part_of)) >= target:
            return _finish_partition(g, part_of)

    # the other r - 1 vertices of each edge at v
    others: dict[int, list[tuple[int, ...]]] = {v: [] for v in verts}
    for e in g.edges:
        for i, v in enumerate(e):
            others[v].append(e[:i] + e[i + 1 :])
    full = r * (r - 1) // 2
    for _ in range(RESTARTS):
        labels = [i % r for i in range(len(verts))]
        rng.shuffle(labels)
        part_of = dict(zip(verts, labels))
        count = len(_transversals(g, part_of))
        dirty = set(verts)
        improved = True
        # climb to a local maximum even after clearing the target: partite
        # edges are scarce at higher r and downstream stages want every one
        while improved:
            improved = False
            for v in verts:
                if v not in dirty:
                    continue
                dirty.discard(v)
                tally = [0] * r
                if r == 3:  # the same rule unrolled for pairs, the common case
                    for a, b in others[v]:
                        pa, pb = part_of[a], part_of[b]
                        if pa != pb:
                            tally[full - pa - pb] += 1
                else:
                    for rest in others[v]:
                        classes = {part_of[u] for u in rest}
                        if len(classes) == r - 1:
                            tally[full - sum(classes)] += 1
                here = tally[part_of[v]]
                best_gain, best_part = 0, None
                for p in range(r):
                    if tally[p] - here > best_gain:
                        best_gain, best_part = tally[p] - here, p
                if best_gain:
                    part_of[v] = best_part
                    count += best_gain
                    improved = True
                    for rest in others[v]:
                        dirty.update(rest)
        if count >= target:
            return _finish_partition(g, part_of)
    raise RetriesExhausted("r-partite reduction below the r!/r^r guarantee", RESTARTS)


def _finish_partition(g: LinearHypergraph, part_of: dict[int, int]):
    kept = _transversals(g, part_of)
    parts = tuple(
        frozenset(v for v, p in part_of.items() if p == i) for i in range(g.r)
    )
    return g.edge_induced(kept), RPartition(parts)


def max_degree_root(g: LinearHypergraph) -> int:
    """The default root of a tree or an anchored search: a vertex of maximum
    degree, ties to the lowest id."""
    if not g.vertices:
        raise EmptyCore("no vertex to root at: the graph is empty")
    degs = {v: g.degree(v) for v in g.vertices}
    return min(g.vertices, key=lambda v: (-degs[v], v))


def rotate_to_root(g: LinearHypergraph, partition: RPartition, root: int) -> RPartition:
    """The partition restricted to V(g), with the class of root moved to the
    front, as build_mert requires."""
    parts = [p & g.vertices for p in partition.parts]
    idx = next(i for i, p in enumerate(parts) if root in p)
    return RPartition(tuple([parts[idx]] + parts[:idx] + parts[idx + 1 :]))
