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
The heap peel serves only these callers that read the deletion order:
`d_minimal` and the rainbow proof search's `degenerate_ordering`.  Order-free
cores, among them `engine.dense_connected`'s, use `min_degree_core`: the core
of minimum degree at least d/r is unique, so a worklist deletes each vertex
once it falls below d/r, with no heap.  It counts the degrees first and returns at once when every degree
already meets d/r, as most anchored draws do.  Its peel, `_counted_core`,
takes a subset of an edge list's ids and a caller's incidence over the whole
list, and skips every id that is not live: the anchored draws in
`pathfinder` peel on one incidence of the layer subgraph h, built once per
call, and build no graph or index per draw.  `degeneracy` bounds what any of
their draws can reach, and peels its nested cores on the same incidence.

The r-partite reduction (Erdős–Kleitman) hill-climbs a random balanced
r-partition one vertex at a time until the transversal edges reach r!/r^r of
e(G).  It keeps, for every vertex of an edge and every class, the number of
edges at the vertex that would be transversal with it in that class.  A move
re-prices only the other vertices of the mover's edges, so a sweep reads each
vertex's best move off its tally.  The transversals are collected once,
after the climb, and checked against the tallies and the target there.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .core import Edge, LinearHypergraph, LinearPath, Pair, RPartition, _incidence, _pair
from .errors import EmptyCore, InvariantViolation, PreconditionFailed, RetriesExhausted


# -- smallest-last peeling and the minimum-degree core -------------------------


def _peel(incident, edges, vertices, stop) -> tuple[list[int], set[int], list[bool]]:
    """Delete the live vertex of least (live degree, id), with its edges,
    until stop(degree, alive count, live edge count) holds for it.  incident
    maps each vertex to the ids of its edges; vertices must hold every vertex
    of an edge, and None means exactly those.  Returns the deletion order,
    the survivors and a live-edge mask."""
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
    deg = Counter(chain.from_iterable(edges))
    kept, low = _counted_core(edges, range(len(edges)), None, deg, r, d)
    return list(map(edges.__getitem__, kept)), low


def _counted_core(edges: Sequence[Edge], ids: Sequence[int], incident: Optional[Mapping],
                  deg: Counter, r: int, d: float) -> tuple[list[int], int]:
    """min_degree_core of the edges whose ids are ids: the surviving ids, in
    the order of ids, and their minimum degree.  deg holds the degree of every
    vertex of those edges and is left holding the core's: a deleted vertex
    loses its key.  incident maps each such vertex to the ids of its edges
    among edges, ids or not; the peel skips an id that is not live, so one
    incidence serves every subset.  None builds it over edges, and only when
    a vertex has to go."""
    low = min(deg.values(), default=0)
    # a vertex stays while k * r >= d, a test every k fails for a NaN d, so
    # a NaN d deletes every vertex, as the smallest-last peel did
    if low * r >= d:
        return list(ids), low  # every degree meets the threshold: no peel
    if incident is None:
        incident = _incidence(edges)
    live = set(ids)
    work = [v for v, k in deg.items() if not k * r >= d]
    while work:
        v = work.pop()
        del deg[v]  # every edge at v dies now, so nothing reads deg[v] again
        for eid in incident[v]:
            if eid in live:
                live.remove(eid)
                for u in edges[eid]:
                    if u != v:
                        k = deg[u]
                        deg[u] = k - 1
                        if k * r >= d and not (k - 1) * r >= d:
                            work.append(u)
    kept = [i for i in ids if i in live]
    low = min(deg.values(), default=0)
    if kept and low * r < d:
        raise InvariantViolation("core minimum degree below the peeling threshold")
    return kept, low


def degeneracy(edges: Sequence[Edge], r: int, cap: float,
               incident: Optional[Mapping] = None) -> int:
    """The degeneracy of the edges, capped at ceil(cap): the largest k for
    which they have a non-empty core of minimum degree k (0 for no edges),
    so no subset of them has a larger minimum degree.  Cores nest, so each
    step peels the last core to one above its minimum degree, on one
    incidence of the edges (built here when None) and one degree count."""
    if incident is None:
        incident = _incidence(edges)
    deg = Counter(chain.from_iterable(edges))
    k, kept = 0, range(len(edges))
    while k < cap:
        kept, low = _counted_core(edges, kept, incident, deg, r, r * (k + 1))
        if not kept:
            break
        k = low
    return min(k, math.ceil(cap))


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
    deleted, alive, live = _peel(_incidence(es), es, None, lambda k, a, e: k >= d)
    if not alive:
        raise EmptyCore(f"no core of minimum degree {d}")
    ordering = deleted + sorted(alive)
    core_edges = tuple(e for e, ok in zip(es, live) if ok)
    return PeelResult(ordering, len(deleted), frozenset(alive), core_edges)


# -- BFS layers by linear-path distance ---------------------------------------


@dataclass
class BfsLayers:
    """Levels L_0, L_1, ... from a root, with one fixed shortest linear path
    per placed vertex; bfs_rounds stopped after round i holds L_0 to L_{i+1}.

    A shortest edge-walk in a linear hypergraph cannot have two non-consecutive
    edges meeting (that would shortcut it), so plain BFS over vertex -> edges ->
    new vertices computes exact linear-path distances and its parent chains are
    themselves linear paths.
    """

    root: int
    dist: dict[int, int]
    parent_vertex: dict[int, int]
    parent_edge: dict[int, tuple[int, ...]]
    layers: list[frozenset[int]]

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


def bfs_rounds(g: LinearHypergraph, x: int) -> Iterator[tuple[BfsLayers, list[int]]]:
    """The BFS from x, one layer per round.  Round i pops L_i in discovery
    (FIFO) order, places L_{i+1} in the BfsLayers it yields, and yields with
    it the ascending ids of the edges first met at L_i, whose least distance
    is i.  An edge met before has every vertex placed, so it is skipped."""
    if x not in g.vertices:
        raise PreconditionFailed(f"root {x} is not a vertex")
    lay = BfsLayers(x, {x: 0}, {}, {}, [frozenset((x,))])
    dist, parent_vertex, parent_edge = lay.dist, lay.parent_vertex, lay.parent_edge
    edges, incident = g.edges, g.incident
    met: set[int] = set()
    frontier, i = [x], 0
    while frontier:
        nxt: list[int] = []
        ids: list[int] = []
        for u in frontier:
            for eid in incident.get(u, ()):
                if eid in met:
                    continue
                met.add(eid)
                ids.append(eid)
                e = edges[eid]
                for w in e:
                    if w not in dist:
                        dist[w] = i + 1
                        parent_vertex[w] = u
                        parent_edge[w] = e
                        nxt.append(w)
        if nxt:
            lay.layers.append(frozenset(nxt))
        yield lay, sorted(ids)
        frontier, i = nxt, i + 1


def bfs_layers(g: LinearHypergraph, x: int) -> BfsLayers:
    """The whole BFS from x; bfs_rounds always yields round 0."""
    for lay, _ in bfs_rounds(g, x):
        pass
    return lay


def log_ratio_cap(n: int, d: float, k: int, c: float) -> Optional[int]:
    """ceil(log2 n / (log2(d/k) - c)), or None when that gap is not positive
    or n < 2.  Both theorems' bounds, the even pipeline's layer cap and the
    dense layer's index bound are instances of it."""
    gap = math.log2(d / k) - c if d > 0 else 0.0
    if gap <= 0 or n < 2:
        return None
    return math.ceil(math.log2(n) / gap)


# -- d-minimal subgraphs ------------------------------------------------------


def d_minimal(g: LinearHypergraph, d: float) -> LinearHypergraph:
    """First-order d-minimal induced subgraph: average degree >= d, and
    removing any single vertex drops the average degree below d.

    Peels the vertex set while deleting the least-degree vertex keeps the
    average degree at d or above, that is while r(e - deg) >= d(alive - 1).
    A peel that deletes nothing returns g itself, with its built indexes.
    """
    if g.average_degree() < d:
        raise PreconditionFailed(f"average degree {g.average_degree()} below {d}")
    deleted, alive, live = _peel(g.incident, g.edges, g.vertices,
                                 lambda k, a, e: a <= 1 or g.r * (e - k) < d * (a - 1))
    out = g
    if deleted:  # an edge stays live exactly when none of its vertices was deleted
        out = g._cut(tuple(e for e, ok in zip(g.edges, live) if ok), frozenset(alive))
    if out.average_degree() < d:
        raise InvariantViolation("d-minimal subgraph has average degree below d")
    return out


# -- r-partite reduction (Erdős–Kleitman) -------------------------------------

RESTARTS = 64


def _credits(e: Edge, classes: list[int], r: int):
    """The (vertex, class) tallies that edge e adds with its vertices in
    classes.  A vertex is credited when the other r - 1 classes are distinct;
    they then miss one class, r(r-1)/2 minus their sum.  So r distinct
    classes credit each vertex its own class, r - 1 credit the two vertices
    of the repeated class with the missing one, and fewer credit nothing."""
    distinct = set(classes)
    if len(distinct) == r:
        return zip(e, classes)
    if len(distinct) == r - 1:
        repeated = sum(classes) - sum(distinct)
        missing = r * (r - 1) // 2 - sum(distinct)
        return [(u, missing) for u, c in zip(e, classes) if c == repeated]
    return ()


def r_partite_reduction(
    g: LinearHypergraph, seed: int = 0
) -> tuple[LinearHypergraph, RPartition]:
    """Random balanced r-partition plus single-vertex hill climbing until the
    partite subgraph keeps at least (r!/r^r) e(G) edges.

    Each of up to RESTARTS attempts shuffles a balanced labelling of all the
    vertices and sweeps the vertices of edges in id order until a sweep moves
    none.  A sweep moves v to the first class that gains the most transversal
    edges at v, if any class gains at least one.  The transversal edges are
    collected once, after the climb, and the attempt stands if they reach the
    target.

    tally[v][p] counts the edges at v that would be transversal with v in
    class p, so the gain of moving v to p is tally[v][p] - tally[v][part[v]].
    The tallies are seeded in one pass over the edges.  v's tally does not
    depend on v's own class, so a move of v re-prices only the other vertices
    of v's edges, and every tally a sweep reads equals a recount.  Only a
    transversal edge credits a vertex with its own class, once for each of
    its r vertices, so the tallies of the classes held sum to r times the
    transversal count; that is checked after each climb.
    """
    r = g.r
    target = math.factorial(r) / r**r * len(g.edges)
    verts = sorted(g.vertices)
    # a local incidence, like min_degree_core's, leaves none on the caller's g
    edges, incident = g.edges, _incidence(g.edges)
    # an isolated vertex would have an all-zero tally and never move, so
    # only the vertices of an edge get a row and are swept
    support = sorted(incident)
    rng = random.Random(seed)
    for _ in range(RESTARTS):
        labels = [i % r for i in range(len(verts))]
        rng.shuffle(labels)
        part = [0] * g.n
        for v, p in zip(verts, labels):
            part[v] = p
        tally: list = [None] * g.n
        for v in support:
            tally[v] = [0] * r
        if r == 3:  # the same rule unrolled for pairs, the common case
            for a, b, c in edges:
                pa, pb, pc = part[a], part[b], part[c]
                if pb != pc:
                    tally[a][3 - pb - pc] += 1
                if pa != pc:
                    tally[b][3 - pa - pc] += 1
                if pa != pb:
                    tally[c][3 - pa - pb] += 1
        else:
            for e in edges:
                for u, c in _credits(e, [part[u] for u in e], r):
                    tally[u][c] += 1
        # climb to a local maximum even after clearing the target: partite
        # edges are scarce at higher r and downstream stages want every one
        moved = True
        while moved:
            moved = False
            for v in support:
                row = tally[v]
                best, p = max(row), part[v]
                if best <= row[p]:
                    continue
                q = row.index(best)
                moved = True
                if r == 3:
                    for eid in incident[v]:
                        x, y, z = edges[eid]
                        a, b = (y, z) if x == v else (x, z) if y == v else (x, y)
                        pa, pb = part[a], part[b]
                        ta, tb = tally[a], tally[b]
                        if pb != p:
                            ta[3 - p - pb] -= 1
                        if pb != q:
                            ta[3 - q - pb] += 1
                        if pa != p:
                            tb[3 - p - pa] -= 1
                        if pa != q:
                            tb[3 - q - pa] += 1
                else:
                    for eid in incident[v]:
                        e = edges[eid]
                        classes = [part[u] for u in e]
                        for u, c in _credits(e, classes, r):
                            if u != v:
                                tally[u][c] -= 1
                        classes[e.index(v)] = q
                        for u, c in _credits(e, classes, r):
                            if u != v:
                                tally[u][c] += 1
                part[v] = q
        if r == 3:
            t = tuple(e for e in edges
                      if part[e[0]] != part[e[1]] != part[e[2]] != part[e[0]])
        else:
            t = tuple(e for e in edges if len({part[v] for v in e}) == r)
        if sum(tally[v][part[v]] for v in support) != r * len(t):
            raise InvariantViolation("partite tallies disagree with the transversal count")
        if len(t) >= target:
            parts = tuple(frozenset(v for v in verts if part[v] == i) for i in range(r))
            return g._cut(t, frozenset(v for e in t for v in e)), RPartition(parts)
    raise RetriesExhausted("r-partite reduction below the r!/r^r guarantee", RESTARTS)


def max_degree_root(g: LinearHypergraph) -> int:
    """The default root of a tree or an anchored search: a vertex of maximum
    degree, ties to the lowest id."""
    if not g.vertices:
        raise EmptyCore("no vertex to root at: the graph is empty")
    incident = g.incident
    degs = {v: len(incident.get(v, ())) for v in g.vertices}
    return min(g.vertices, key=lambda v: (-degs[v], v))


def rotate_to_root(g: LinearHypergraph, partition: RPartition, root: int) -> RPartition:
    """The partition restricted to V(g), with the class of root moved to the
    front, as build_mert requires."""
    parts = [p & g.vertices for p in partition.parts]
    idx = next(i for i, p in enumerate(parts) if root in p)
    return RPartition(tuple([parts[idx]] + parts[:idx] + parts[idx + 1 :]))
