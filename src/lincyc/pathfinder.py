"""Special-path machinery: dense layer subgraphs, anchored subgraphs with
disjoint witness paths, greedy long paths through a transversal part,
pan-connected path families, and the strongly rainbow E1/E2 path search.

Randomized constructions draw seeded subsamples and verify their full
postcondition before returning, retrying on failure.  Every returned path
re-validates through the core witness checkers.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Mapping, Optional, Sequence

from .core import ColoredGraph, Edge, LinearHypergraph, LinearPath, Pair, _pair, verify_path
from .errors import (
    InvariantViolation,
    NotFound,
    PreconditionFailed,
    RetriesExhausted,
)
from .reductions import (
    BfsLayers,
    _counted_core,
    bfs_rounds,
    degenerate_ordering,
    degeneracy,
    log_ratio_cap,
)


# -- dense layer subgraph ------------------------------------------------------


def dense_layer_subgraph(
    g: LinearHypergraph, x: int, d: float
) -> tuple[int, LinearHypergraph, BfsLayers]:
    """A subgraph H of average degree >= d/4 whose edges all touch layer
    L_m(x) and avoid every earlier layer, with m bounded by
    ceil(log n / log(delta/d)), returned as (m, H, the BFS walk from x).
    A density outside 1 <= d <= delta/2 is refused before the BFS runs.

    The walk (bfs_rounds) stops at the first layer i that qualifies, or at
    the bound, so it reads only the ball of radius i + 1 and holds layers 0
    to i + 1.  An edge spans at most two consecutive layers, so the edges
    meeting L_i are those of round i (m = i) and those of round i - 1 that
    reach L_i (m = i - 1, only when they are at least half of them).

    Under the precondition the result always has m >= 1.  At i=1 the edges
    through x are a candidate (m=0) only when deg(x) >= |W|, W the other
    edges meeting L_1, and the larger m is tried first.  Each of the
    (r-1)deg(x) vertices of L_1 has at least delta-1 edges in W and an edge
    holds at most r of them, so m=0 needs (r-1)(delta-1) <= r, that is
    delta <= 2 and d = 1; then W has average degree at least 1 > d/4 and
    wins as m=1.
    """
    delta = g.min_degree()
    if not (1 <= d <= delta / 2):
        raise PreconditionFailed(f"need 1 <= d <= delta/2, got d={d}, delta={delta}")
    # the precondition gives delta/d >= 2, and g has an edge, so n >= 2: the
    # cap is a positive int, the same as ceil(log2 n / log2(delta/d))
    cap = log_ratio_cap(len(g.vertices), delta / d, 1, 0)
    edges, r = g.edges, g.r
    without: list[Edge] = []
    for i, (lay, ids) in enumerate(islice(bfs_rounds(g, x), cap + 1)):
        li = lay.layer(i)
        with_prev = [e for e in without if not li.isdisjoint(e)]  # round i - 1's, meeting L_i
        without = [edges[eid] for eid in ids]
        if i and _average_degree(without + with_prev, r) >= d / 2:
            candidates = [(i, without)]
            if len(with_prev) >= len(without):
                candidates.append((i - 1, with_prev))
            for m, es in candidates:  # the larger m first
                if _average_degree(es, r) >= d / 4:
                    return m, g._cut(tuple(es), frozenset(chain.from_iterable(es))), lay
    raise NotFound("no dense layer subgraph; check preconditions")


def _average_degree(edges: Sequence[Edge], r: int) -> float:
    """Average degree over the vertices an edge list touches; 0 when empty."""
    verts = {v for e in edges for v in e}
    return r * len(edges) / len(verts) if verts else 0.0


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
    """Layer m, anchors and a subgraph F of the dense layer subgraph h with
    P1 (each edge of F holds exactly one anchor), P2 (F avoids every layer
    before m) and P3 (each anchor in F has a shortest path from x meeting
    V(F) only in that anchor), found by seeded random draws.

    A draw picks anchors at random in layer m, keeps the edges holding
    exactly one of them, and peels those to their core at their own average
    degree.  The loop keeps the first draw of the highest core minimum
    degree and ends in one of four ways:

    - a draw reaches good_enough, which leaves downstream constructions room
      to peel again;
    - a draw reaches h's degeneracy, which no later draw can beat;
    - a draw at attempt 60 or later keeps a core that meets the threshold;
    - all ANCHOR_ATTEMPTS draws are spent.

    The first three return the kept draw; the last returns it too, or raises
    RetriesExhausted if no draw was kept.  The draws the first three skip
    would only have advanced the call's own random generator.
    """
    m, h, lay = dense_layer_subgraph(g, x, d)
    v_m = sorted(h.vertices & lay.layer(m))
    h_edges, h_incident = h.edges, h.incident
    rng = random.Random(seed)
    threshold = d / (g.r * 2 ** (2 * g.r + 1))
    # keep drawing past the first valid candidate until one has a workably
    # large minimum degree; downstream constructions need room to peel again
    good_enough = max(4.0, threshold)
    # a draw keeps a subset of h's edges, so its minimum degree is at most
    # h's degeneracy; the loop stops once best_low reaches that or good_enough
    ceiling = degeneracy(h_edges, g.r, good_enough, h_incident)
    best: Optional[AnchoredSubgraph] = None
    best_low = 0  # a kept core has minimum degree at least 1
    # the draw index, built once per call over the ids of h's edges: the draws
    # pick anchors from v_m only, so an edge's layer-m vertices decide whether
    # it holds exactly one.  own[v] lists the edges whose one layer-m vertex is
    # v; multi_at[v] lists the other edges at v (every edge of h meets layer
    # m), and a draw counts the anchors each of those holds.  An anchor is
    # admissible only if no other vertex of its parent edge is drawn, and
    # only the parent-edge vertices in v_m can be drawn.
    in_m = set(v_m)
    own: dict[int, list[int]] = {v: [] for v in v_m}
    multi_at: dict[int, list[int]] = {v: [] for v in v_m}
    for eid, e in enumerate(h_edges):
        hits = [v for v in e if v in in_m]
        if len(hits) == 1:
            own[hits[0]].append(eid)
        else:
            for v in hits:
                multi_at[v].append(eid)
    # an anchor's BFS path must meet V(F) only in the anchor (P3).  BFS
    # distances count edges, so the first m - 1 edges of the path lie in
    # layers below m and V(F), inside V(h), lies in layers m and above: the
    # path can meet V(F) only in its last edge, the parent edge, and there
    # only in the anchor's siblings, the parent edge's other vertices in v_m
    siblings = {v: [u for u in lay.parent_edge[v] if u != v and u in in_m] for v in v_m}

    # the even draw is the analysable one; the skewed draws keep far more
    # edges when most of an edge's vertices sit in the target layer
    schedule = [(0.5, 0.5), (1.0 / g.r, 1.0), (0.25, 1.0), (0.35, 0.7)]
    for attempt in range(ANCHOR_ATTEMPTS):
        px, py = schedule[attempt % len(schedule)]
        xs = {v for v in v_m if rng.random() < px}
        held = Counter(chain.from_iterable(multi_at[v] for v in xs))
        # ys is drawn only when some edge holds exactly one vertex of xs
        if not (any(own[v] for v in xs) or 1 in held.values()):
            continue
        ys = {v for v in xs if rng.random() < py}
        ok_ys = [v for v in ys if ys.isdisjoint(siblings[v])]
        nice = [eid for v in ok_ys for eid in own[v]]
        nice += [eid for v in ok_ys for eid in multi_at[v] if held[eid] == 1]
        kept, low, deg = _own_core(h_edges, h_incident, nice, g.r)
        fv = deg.keys()  # a live view: it follows deg through the repair
        anchors = frozenset(ys)
        # one repair pass drops every edge at a sibling in V(F) of an anchor
        # in V(F), after which none is left (P3).  deg holds the core's
        # degrees, so taking the dropped edges off it counts what is left
        bad = {u for v in fv & anchors for u in siblings[v] if u in fv}
        if bad:
            live = set(kept)
            for u in bad:
                for eid in h_incident[u]:
                    if eid in live:
                        live.remove(eid)
                        for w in h_edges[eid]:
                            deg[w] -= 1
                            if not deg[w]:
                                del deg[w]
            kept = [eid for eid in kept if eid in live]
            kept, low, _ = _own_core(h_edges, h_incident, kept, g.r, deg)
        if not kept or low < threshold:
            continue
        # only a draw that is kept or returned becomes a graph, and is checked
        # for P1-P3 against the BFS paths themselves; best_low stays below the
        # ceiling, so a draw that reaches it is always kept
        if low > best_low:
            # h's edges are a sorted sub-list of g's, so sorted ids cut F from g
            f_edges = tuple(h_edges[eid] for eid in sorted(kept))
            paths = {v: lay.path_to(v) for v in sorted(fv & anchors)}
            if not (_anchored_ok(f_edges, anchors, lay, m)
                    and all(fv.isdisjoint(p.vertex_set() - {v}) for v, p in paths.items())):
                raise InvariantViolation("an anchored draw breaks P1, P2 or P3")
            f = g._cut(f_edges, frozenset(chain.from_iterable(f_edges)))
            best, best_low = AnchoredSubgraph(m, anchors, f, paths, lay), low
            if low >= ceiling:
                return best
        if attempt >= 60:
            break
    if best is not None:
        return best
    raise RetriesExhausted("anchored subgraph draws kept failing P1-P3", ANCHOR_ATTEMPTS)


def _own_core(edges: Sequence[Edge], incident: Mapping[int, Sequence[int]], ids: list[int],
              r: int, deg: Optional[Counter] = None) -> tuple[list[int], int, Counter]:
    """The core of the edges with ids ids at their own average degree, its
    ids, its minimum degree and its degrees, keyed by its vertex set, from a
    peel on the incidence of all of edges.  deg, the degrees of the edges
    with ids ids, is counted when None and is peeled in place."""
    if deg is None:
        deg = Counter(chain.from_iterable(map(edges.__getitem__, ids)))
    if not deg:
        return ids, 0, deg
    kept, low = _counted_core(edges, ids, incident, deg, r, r * len(ids) / len(deg))
    return kept, low, deg


def _anchored_ok(edges: Sequence[Edge], anchors: frozenset[int], lay: BfsLayers, m: int) -> bool:
    """P1 and P2: each edge holds exactly one anchor and avoids every layer
    before m; a vertex the BFS did not reach fails P2."""
    dist = lay.dist
    return all(len(anchors.intersection(e)) == 1 and all(dist.get(v, -1) >= m for v in e)
               for e in edges)


# -- long path with a transversal part ----------------------------------------


def path_with_part(
    f: LinearHypergraph, anchors: Iterable[int], k: int, enforce: bool = True
) -> LinearPath:
    """Greedy linear path of length >= k+2 in which every anchor vertex has
    degree one.  Requires each edge to hold exactly one anchor; the degree
    bound delta(F) >= r*k guarantees the greedy extension never gets stuck
    before the target length."""
    a = frozenset(anchors)
    edges, incident = f.edges, f.incident
    for e in edges:
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
            for eid in incident.get(v, ()):
                cand = edges[eid]
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

    for start in edges:
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

    t: int
    e: tuple[int, ...]
    f: tuple[int, ...]
    paths: dict[int, LinearPath]


def pan_connected(
    f: LinearHypergraph, x: int, k: int, d: float, seed: int = 0
) -> PanConnectedFamily:
    """Paths in f from x of the k lengths t+3..t+k+2 ending in the same two
    edges, through an anchored subgraph of f rooted at x at density d.  The
    caller picks d and checks delta(f) >= 2d' for d' = k r^2 2^(2r+2); at
    d = d' every kept draw has minimum degree d'/(r 2^(2r+1)) = 2rk > rk, so
    the path search skips that check."""
    anchored = anchored_subgraph(f, x, d, seed)
    path = path_with_part(anchored.subgraph, anchored.anchors, k, enforce=False)
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
    return PanConnectedFamily(t, e, last, fam)


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
    peel it to a core F of minimum degree r*length, halved until L has such
    a core, walk an increasing rainbow path to F minimizing its first vertex,
    attach an E1 edge with fresh colors, then grow greedily inside F.  A
    budgeted DFS serves as fallback.
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

    # one adjacency per class, built from sorted pairs: every neighbour list
    # is in id order, which both searches' tie-breaks read
    adj1: dict[int, list[int]] = {}
    adj2: dict[int, list[int]] = {}
    for adj, pairs in ((adj1, set1), (adj2, set2)):
        for u, v in sorted(pairs):
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
    witness = _rainbow_by_proof(h, adj1, adj2, length, r)
    if witness is None:
        witness = _rainbow_dfs(h, adj2, set1, length)
    if witness is None:
        raise NotFound(f"no strongly rainbow E1/E2 path of length {length} found")
    check_rainbow_special(h, set1, witness, length)
    return witness


def _rainbow_by_proof(h, adj1, adj2, length, r) -> Optional[list[int]]:
    comps = _components(adj2)

    def comp_avg(comp: set[int]) -> float:
        return sum(len(adj2[v]) for v in comp) / len(comp)

    comp = max(comps, key=lambda c: (comp_avg(c), -min(c)))
    l_edges = [(u, v) for u in comp for v in adj2[u] if u < v]
    # halve tau to the first value with a core of minimum degree tau: one at
    # most L's degeneracy, which is at least 1 since L has an edge
    top = degeneracy(l_edges, 2, r * length)
    tau = r * length
    while tau > top:
        tau //= 2
    peel = degenerate_ordering(l_edges, tau)
    core, order = peel.core_vertices, peel.ordering
    pos = {v: i for i, v in enumerate(order)}
    # comp is a component of adj2, so L's neighbors of v are all of adj2[v]
    adj_l = {v: sorted(adj2[v], key=pos.__getitem__) for v in comp}

    def increasing_path_from(s: int) -> Optional[tuple[list[int], frozenset[int]]]:
        # first increasing rainbow path ending in the core or of length-1
        # edges, with its colors
        stack: list[tuple[list[int], frozenset[int]]] = [([s], frozenset())]
        while stack:
            path, colors = stack.pop()
            last = path[-1]
            if last in core or len(path) == length:
                return path, colors
            for w in reversed(adj_l[last]):
                if pos[w] <= pos[last] or w in path:
                    continue
                c = h.color[_pair(last, w)]
                if c & colors:
                    continue
                stack.append((path + [w], colors | c))
        return None

    # a core vertex s yields [s], and the core is non-empty
    base, colors = next(p for p in map(increasing_path_from, order) if p is not None)
    first = base[0]
    # attach an E1 edge with fresh colors outside the path.  Pushing the
    # first index down inside L instead cannot help: an earlier L-neighbor w
    # of first with fresh colors would make [w] + base an increasing rainbow
    # path from w, which the exhaustive search from w, run before first's,
    # would have found.
    for w in adj1.get(first, ()):
        c = h.color[_pair(first, w)]
        if w not in base and not (c & colors):
            return _grow_good_path(h, core, adj_l, [w] + base, colors | c, length)
    return None


def _grow_good_path(h, core, adj_l, path: list[int], colors: frozenset[int],
                    length: int) -> Optional[list[int]]:
    """Extend path inside L to the given length, each step to the first
    neighbour by (outside the core, id) that is off the path and brings fresh
    colors; colors are those of path's edges."""
    while len(path) - 1 < length:
        last = path[-1]
        fresh = (w for w in adj_l[last]
                 if w not in path and not (h.color[_pair(last, w)] & colors))
        picked = min(fresh, key=lambda w: (w not in core, w), default=None)
        if picked is None:
            return None
        colors |= h.color[_pair(last, picked)]
        path.append(picked)
    return path


def _rainbow_dfs(h, adj2, set1, length) -> Optional[list[int]]:
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
                for nxt in reversed(adj2.get(last, ())):
                    if nxt in path:
                        continue
                    c = h.color[_pair(last, nxt)]
                    if c & colors:
                        continue
                    stack.append((path + [nxt], colors | c))
    return None
