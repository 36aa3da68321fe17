"""Special-path machinery: dense layer subgraphs, anchored subgraphs with
disjoint witness paths, greedy long paths through a transversal part,
pan-connected path families, and the strongly rainbow E1/E2 path search.

Randomized constructions draw seeded subsamples and verify their full
postcondition before returning, retrying on failure.  Every returned path
re-validates through the core witness checkers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .core import ColoredGraph, Edge, LinearHypergraph, LinearPath, Pair, _pair, verify_path
from .errors import (
    EmptyCore,
    InvariantViolation,
    NotFound,
    PreconditionFailed,
    RetriesExhausted,
)
from .reductions import BfsLayers, bfs_layers, degenerate_ordering, min_degree_core


# -- dense layer subgraph ------------------------------------------------------


def layer_index_bound(n: int, ratio: float) -> int:
    if ratio <= 1 or n <= 1:
        return max(1, n)
    return max(1, math.ceil(math.log2(max(n, 2)) / math.log2(ratio)))


def dense_layer_subgraph(
    g: LinearHypergraph, x: int, d: float, layers: Optional[BfsLayers] = None
) -> tuple[int, LinearHypergraph]:
    """A subgraph H of average degree >= d/4 whose edges all touch layer
    L_m(x) and avoid every earlier layer, with m bounded by
    ceil(log n / log(delta/d)).

    When the majority split at i=1 would give m=0 (every edge through x), the
    minority branch is preferred whenever it still meets the density bound, so
    downstream anchored constructions get a usable positive m.
    """
    delta = g.min_degree()
    if not (1 <= d <= delta / 2):
        raise PreconditionFailed(f"need 1 <= d <= delta/2, got d={d}, delta={delta}")
    lay = layers if layers is not None else bfs_layers(g, x)
    t_cap = layer_index_bound(len(g.vertices), delta / d)
    all_layers = lay.layers
    for i in range(1, min(t_cap, len(all_layers) - 1) + 1):
        li = lay.layer(i)
        if not li:
            break
        gi_edges = [e for e in g.edges if any(v in li for v in e)]
        if _average_degree(gi_edges, g.r) < d / 2:
            continue
        prev = lay.layer(i - 1)
        with_prev = [e for e in gi_edges if any(v in prev for v in e)]
        without = [e for e in gi_edges if not any(v in prev for v in e)]
        candidates: list[tuple[int, list]] = []
        if len(with_prev) * 2 >= len(gi_edges) and with_prev:
            candidates.append((i - 1, with_prev))
        if without:
            candidates.append((i, without))
        # prefer the larger m when both halves are dense enough
        for m, es in sorted(candidates, key=lambda c: -c[0]):
            if _average_degree(es, g.r) >= d / 4 and _layer_condition(es, lay, m):
                return m, g.edge_induced(es)
    raise NotFound("no dense layer subgraph; check preconditions")


def _average_degree(edges: Sequence[Edge], r: int) -> float:
    """Average degree over the vertices an edge list touches; 0 when empty."""
    verts = {v for e in edges for v in e}
    return r * len(edges) / len(verts) if verts else 0.0


def _layer_condition(edges: Sequence[Edge], lay: BfsLayers, m: int) -> bool:
    lm = lay.layer(m)
    return all(any(v in lm for v in e) for e in edges) and _avoids_earlier_layers(edges, lay, m)


def _avoids_earlier_layers(edges: Sequence[Edge], lay: BfsLayers, m: int) -> bool:
    early = frozenset().union(*lay.layers[:m])
    return not any(v in early for e in edges for v in e)


# -- anchored subgraph (random subsampling with verify-and-retry) --------------

ANCHOR_ATTEMPTS = 200


@dataclass
class AnchoredSubgraph:
    """Layer index m, anchor set A in L_m(x), a subgraph F in which every edge
    holds exactly one anchor, and for each anchored vertex a fixed shortest
    path from x meeting V(F) only in that vertex."""

    m: int
    anchors: frozenset[int]
    subgraph: LinearHypergraph
    witness_paths: dict[int, LinearPath]
    layers: BfsLayers


def anchored_subgraph(
    g: LinearHypergraph,
    x: int,
    d: float,
    seed: int = 0,
) -> AnchoredSubgraph:
    lay = bfs_layers(g, x)
    m, h = dense_layer_subgraph(g, x, d, lay)
    v_m = sorted(h.vertices & lay.layer(m))
    rng = random.Random(seed)
    threshold = d / (g.r * 2 ** (2 * g.r + 1))
    # keep drawing past the first valid candidate until one has a workably
    # large minimum degree; downstream constructions need room to peel again
    good_enough = max(4.0, threshold)
    best: Optional[AnchoredSubgraph] = None
    best_low = 0  # a kept core has minimum degree at least 1
    # the draw index, built once per call: the draws pick anchors from v_m only,
    # so an edge's layer-m vertices decide whether it holds exactly one.  own[v]
    # lists the edges whose one layer-m vertex is v; multi keeps the rest (every
    # edge of h meets layer m), which a draw intersects with its anchors.  For
    # m > 0 an anchor is admissible only if no other vertex of its parent edge
    # is drawn, and only the parent-edge vertices in v_m can be drawn.
    in_m = set(v_m)
    own: dict[int, list[Edge]] = {v: [] for v in v_m}
    multi: list[Edge] = []
    for e in h.edges:
        hits = [v for v in e if v in in_m]
        if len(hits) == 1:
            own[hits[0]].append(e)
        else:
            multi.append(e)
    del h  # the draws read only the index; free h's incidence maps before them
    siblings = {v: [u for u in lay.parent_edge[v] if u != v and u in in_m]
                for v in v_m} if m > 0 else {}
    # witness cache, filled as anchors reach V(F): the vertices of each
    # anchor's BFS path other than the anchor, which must stay out of V(F).
    # The paths themselves are rebuilt only for a draw that is kept.
    passengers: dict[int, tuple[int, ...]] = {}

    # the even draw is the analysable one; the skewed draws keep far more
    # edges when most of an edge's vertices sit in the target layer
    schedule = [(0.5, 0.5), (1.0 / g.r, 1.0), (0.25, 1.0), (0.35, 0.7)]
    for attempt in range(ANCHOR_ATTEMPTS):
        px, py = schedule[attempt % len(schedule)]
        xs = {v for v in v_m if rng.random() < px}
        # ys is drawn only when some edge holds exactly one vertex of xs
        if not (any(own[v] for v in xs) or any(len(xs.intersection(e)) == 1 for e in multi)):
            continue
        ys = {v for v in xs if rng.random() < py}
        ok_ys = {v for v in ys if ys.isdisjoint(siblings[v])} if m > 0 else ys
        nice = [e for v in ok_ys for e in own[v]]
        for e in multi:
            inx = xs.intersection(e)
            if len(inx) == 1 and inx.pop() in ok_ys:
                nice.append(e)
        kept, low = min_degree_core(nice, g.r, _average_degree(nice, g.r))
        anchors = frozenset(ys)
        # witness paths may carry passengers into V(F); one repair pass drops
        # every edge touching such a passenger, after which no hit can remain
        fv = {v for e in kept for v in e}
        for v in (fv & anchors) - passengers.keys():
            passengers[v] = tuple(lay.path_to(v).vertex_set() - {v})
        bad = {u for v in fv & anchors for u in passengers[v] if u in fv}
        if bad:
            kept = [e for e in kept if not bad.intersection(e)]
            kept, low = min_degree_core(kept, g.r, _average_degree(kept, g.r))
            fv = {v for e in kept for v in e}
        if not kept or low < threshold:
            continue
        hit = sorted(fv & anchors)
        if not hit or any(not fv.isdisjoint(passengers[v]) for v in hit):
            continue
        # only a draw that is kept or returned becomes a graph, and is checked
        # for P1 and P2; best_low stays below good_enough, so a draw that
        # reaches it is always kept
        if low > best_low:
            if not _anchored_ok(kept, anchors, lay, m):
                raise InvariantViolation("an anchored draw breaks P1 or P2")
            best, best_low = AnchoredSubgraph(
                m, anchors, g.edge_induced(kept), {v: lay.path_to(v) for v in hit}, lay), low
            if low >= good_enough:
                return best
        if attempt >= 60:
            break
    if best is not None:
        return best
    raise RetriesExhausted("anchored subgraph draws kept failing P1-P3", ANCHOR_ATTEMPTS)


def _anchored_ok(edges: Sequence[Edge], anchors: frozenset[int], lay: BfsLayers, m: int) -> bool:
    """P1 and P2: each edge holds exactly one anchor and avoids every layer
    before m."""
    return (all(len(anchors.intersection(e)) == 1 for e in edges)
            and _avoids_earlier_layers(edges, lay, m))


# -- long path with a transversal part ----------------------------------------


def path_with_part(
    f: LinearHypergraph, anchors: Iterable[int], k: int, enforce: bool = True
) -> LinearPath:
    """Greedy linear path of length >= k+2 in which every anchor vertex has
    degree one.  Requires each edge to hold exactly one anchor; the degree
    bound delta(F) >= r*k guarantees the greedy extension never gets stuck
    before the target length."""
    a = frozenset(anchors)
    for e in f.edges:
        if len(a.intersection(e)) != 1:
            raise PreconditionFailed(f"edge {e} holds {len(a.intersection(e))} anchors")
    if enforce and f.min_degree() < f.r * k:
        raise PreconditionFailed(
            f"min degree {f.min_degree()} below r*k = {f.r * k}"
        )
    target = k + 2

    def extend(path: list[tuple[int, ...]], at_back: bool) -> bool:
        edge = path[-1] if at_back else path[0]
        other = path[-2] if at_back and len(path) > 1 else (
            path[1] if not at_back and len(path) > 1 else None
        )
        connector = set(edge) & set(other) if other else set()
        on_path = {v for e in path for v in e}
        for v in sorted(set(edge) - a - connector):
            for eid in f.incident.get(v, ()):
                cand = f.edges[eid]
                if cand in path:
                    continue
                if set(cand) & on_path != {v}:
                    continue
                if at_back:
                    path.append(cand)
                else:
                    path.insert(0, cand)
                return True
        return False

    for start in f.edges:
        path = [start]
        while len(path) < target:
            if not extend(path, True) and not extend(path, False):
                break
        if len(path) >= target:
            lp = verify_path(f, path)
            connectors = set(lp.connectors())
            if connectors & a:
                raise InvariantViolation("anchor with path degree two")
            return lp
    raise NotFound(f"no anchored path of length {target} found")


# -- pan-connected family ------------------------------------------------------


@dataclass
class PanConnectedFamily:
    """Paths from x of every length in {t+3, ..., t+k+2}, all sharing the same
    final two edges e then f."""

    start: int
    t: int
    e: tuple[int, ...]
    f: tuple[int, ...]
    paths: dict[int, LinearPath]


def pan_connected(
    f: LinearHypergraph,
    x: int,
    k: int,
    seed: int = 0,
    best_effort: bool = False,
) -> PanConnectedFamily:
    r = f.r
    d_prime = k * r * r * 2 ** (2 * r + 2)
    delta = f.min_degree()
    if delta < 2 * d_prime and not best_effort:
        raise PreconditionFailed(f"min degree {delta} below 2d' = {2 * d_prime}")
    d_eff = d_prime if delta >= 2 * d_prime else max(1.0, delta / 2)
    anchored = anchored_subgraph(f, x, d_eff, seed)
    sub = anchored.subgraph
    path = path_with_part(sub, anchored.anchors, k, enforce=not best_effort)
    edges = list(path.edges[: k + 2])
    *head, e, last = edges
    t = anchored.m
    fam: dict[int, LinearPath] = {}
    for i in range(1, k + 1):
        ei = edges[i - 1]
        (vi,) = anchored.anchors.intersection(ei)
        prefix = anchored.witness_paths[vi].edges
        combined = list(prefix) + edges[i - 1 :]
        lp = verify_path(f, combined)
        fam[lp.length] = lp
    want = set(range(t + 3, t + k + 3))
    if set(fam) != want:
        raise NotFound(f"family lengths {sorted(fam)} != expected {sorted(want)}")
    return PanConnectedFamily(x, t, e, last, fam)


# -- strongly rainbow E1/E2 path -----------------------------------------------

RAINBOW_DFS_BUDGET = 500_000  # node expansions of the fallback DFS


def _components(adj: dict[int, list[int]]) -> list[set[int]]:
    seen: set[int] = set()
    comps = []
    for v in sorted(adj):
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def check_rainbow_special(
    h: ColoredGraph, e1: set[Pair], path: Sequence[int], length: int
) -> None:
    """Recompute every property of a claimed witness: vertex-simple, first
    edge in E1, remaining edges in E(H)\\E1, pairwise disjoint colors."""
    if len(path) < length + 1 or len(set(path)) != len(path):
        raise PreconditionFailed(f"witness {path} is not a simple path of length {length}")
    edge_set = set(h.edges)
    colors: list[frozenset[int]] = []
    for idx, (u, v) in enumerate(zip(path, path[1:])):
        p = _pair(u, v)
        if p not in edge_set:
            raise PreconditionFailed(f"{p} is not an edge")
        if idx == 0 and p not in e1:
            raise PreconditionFailed(f"first edge {p} not in E1")
        if idx > 0 and p in e1:
            raise PreconditionFailed(f"later edge {p} in E1")
        colors.append(h.color[p])
    seen: set[int] = set()
    for c in colors:
        if c & seen:
            raise PreconditionFailed("colors along the path are not pairwise disjoint")
        seen |= c


def rainbow_special_path(
    h: ColoredGraph,
    e1: Iterable[Pair],
    e2: Iterable[Pair],
    length: int,
    best_effort: bool = False,
) -> list[int]:
    """A strongly rainbow path of the requested length whose first edge lies
    in E1 and all later edges in E2.

    Constructive strategy: pick a dense component L of the E2-subgraph,
    peel it to a core F of minimum degree r*length, walk an increasing rainbow
    path to F minimizing its first vertex, attach an E1 edge with fresh
    colors, then grow greedily inside F.  A budgeted DFS serves as fallback.
    """
    set1 = {_pair(*e) for e in e1}
    set2 = {_pair(*e) for e in e2}
    if length < 1:
        raise PreconditionFailed("length must be at least 1")
    if not set1 or not set2:
        raise PreconditionFailed("E1 and E2 must both be nonempty")
    if set1 & set2 or set1 | set2 != set(h.edges):
        raise PreconditionFailed("E1, E2 must partition E(H)")
    r = len(next(iter(h.color.values()))) + 2
    if not best_effort:
        if len(set1) > len(set2):
            raise PreconditionFailed("|E1| must be at most |E2|")
        if h.min_degree() < 4 * r * length:
            raise PreconditionFailed(
                f"min degree {h.min_degree()} below 4*r*length = {4 * r * length}"
            )
        if not h.is_strongly_proper():
            raise PreconditionFailed("coloring is not strongly proper")

    if length == 1:
        u, v = min(set1)
        return [u, v]

    witness = _rainbow_by_proof(h, set1, set2, length, r)
    if witness is None:
        witness = _rainbow_dfs(h, set1, set2, length)
    if witness is None:
        raise NotFound(f"no strongly rainbow E1/E2 path of length {length} found")
    check_rainbow_special(h, set1, witness, length)
    return witness


def _rainbow_by_proof(h, set1, set2, length, r) -> Optional[list[int]]:
    adj2: dict[int, list[int]] = {}
    for u, v in sorted(set2):
        adj2.setdefault(u, []).append(v)
        adj2.setdefault(v, []).append(u)
    if not adj2:
        return None
    comps = _components(adj2)

    def comp_avg(comp: set[int]) -> float:
        es = sum(1 for u, v in set2 if u in comp)
        return 2 * es / len(comp)

    comp = max(comps, key=lambda c: (comp_avg(c), -min(c)))
    l_edges = [p for p in set2 if p[0] in comp]
    tau = r * length
    core: Optional[frozenset[int]] = None
    order: Optional[list[int]] = None
    while tau >= 1:
        try:
            peel = degenerate_ordering(l_edges, tau)
            core, order = peel.core_vertices, peel.ordering
            break
        except EmptyCore:
            tau //= 2
    if core is None:
        return None
    pos = {v: i for i, v in enumerate(order)}
    adj_l: dict[int, list[int]] = {v: [] for v in comp}
    for u, v in l_edges:
        adj_l[u].append(v)
        adj_l[v].append(u)
    for v in adj_l:
        adj_l[v].sort(key=lambda w: pos[w])

    def increasing_path_from(s: int) -> Optional[list[int]]:
        # first increasing rainbow path ending in the core or of length-1 edges
        stack: list[tuple[list[int], frozenset[int]]] = [([s], frozenset())]
        while stack:
            path, colors = stack.pop()
            last = path[-1]
            if last in core or len(path) == length:
                return path
            for w in reversed(adj_l[last]):
                if pos[w] <= pos[last] or w in path:
                    continue
                c = h.color[_pair(last, w)]
                if c & colors:
                    continue
                stack.append((path + [w], colors | c))
        return None

    base: Optional[list[int]] = None
    for s in order:
        base = increasing_path_from(s)
        if base is not None:
            break
    if base is None:
        return None

    adj_h = h.adjacency()
    for v in adj_h:
        adj_h[v].sort()

    for _ in range(len(order) + 1):
        colors = set()
        for u, v in zip(base, base[1:]):
            colors |= h.color[_pair(u, v)]
        first = base[0]
        # try attaching an E1 edge with fresh colors outside the path
        for w in adj_h[first]:
            p = _pair(first, w)
            if p in set1 and w not in base and not (h.color[p] & colors):
                good = [w] + base
                return _grow_good_path(h, set2, core, adj_l, good, length)
        # otherwise push the first index down inside L and try again
        moved = False
        for w in adj_l[first]:
            if pos[w] >= pos[first] or w in base:
                continue
            p = _pair(first, w)
            if h.color[p] & colors:
                continue
            if len(base) == length:
                base = [w] + base[:-1]
            else:
                base = [w] + base
            moved = True
            break
        if not moved:
            return None
    return None


def _grow_good_path(h, set2, core, adj_l, path: list[int], length: int) -> Optional[list[int]]:
    colors: set[int] = set()
    for u, v in zip(path, path[1:]):
        colors |= h.color[_pair(u, v)]
    while len(path) - 1 < length:
        last = path[-1]
        picked = None
        cands = adj_l.get(last, [])
        for prefer_core in (True, False):
            for w in sorted(cands):
                if w in path:
                    continue
                if prefer_core and w not in core:
                    continue
                c = h.color[_pair(last, w)]
                if c & colors:
                    continue
                picked = w
                break
            if picked is not None:
                break
        if picked is None:
            return None
        colors |= h.color[_pair(last, picked)]
        path.append(picked)
    return path


def _rainbow_dfs(h, set1, set2, length) -> Optional[list[int]]:
    adj = h.adjacency()
    for v in adj:
        adj[v].sort()
    spent = 0
    for p in sorted(set1):
        for u, w in (p, p[::-1]):
            stack = [([u, w], frozenset(h.color[p]))]
            while stack:
                spent += 1
                if spent > RAINBOW_DFS_BUDGET:
                    return None
                path, colors = stack.pop()
                if len(path) - 1 == length:
                    return path
                last = path[-1]
                for nxt in reversed(adj[last]):
                    if nxt in path:
                        continue
                    q = _pair(last, nxt)
                    if q not in set2:
                        continue
                    c = h.color[q]
                    if c & colors:
                        continue
                    stack.append((path + [nxt], colors | c))
    return None
