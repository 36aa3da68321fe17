"""Cycle assembly: transversal cleanup, the two tree-pasting constructions
(boundary and internal), and the top-level pipelines that search a layered
expansion for a place to fire them.

Every assembled cycle re-verifies through verify_cycle before it is reported;
stage failures are collected into traces instead of raised, so callers can
bisect density thresholds empirically.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Optional, Sequence, Union

from .core import (
    ColoredGraph,
    CycleFamily,
    LinearCycle,
    LinearHypergraph,
    RPartition,
    _pair,
    project,
    verify_cycle,
)
from .errors import (
    BudgetExceeded,
    EmptyCore,
    InvalidWitness,
    InvariantViolation,
    LincycError,
    NotEnoughDensity,
    NotFound,
    PreconditionFailed,
    RetriesExhausted,
    SingletonS,
    TheoremContradictionTrace,
)
from .mert import Mert, anchor_and_label, build_mert, expand_tree_path
from .oracle import _cycle_length_cap, _starts
from .pathfinder import _components, anchored_subgraph, pan_connected, rainbow_special_path
from .reductions import (
    bfs_layers,
    d_minimal,
    log_ratio_cap,
    max_degree_root,
    min_degree_core,
    min_degree_subgraph,
    r_partite_reduction,
    rotate_to_root,
)

import random


@dataclass(frozen=True)
class Constants:
    """Threshold constants, recomputed from (r, k) on demand."""

    r: int
    k: int

    def __post_init__(self) -> None:
        # the c2 constants take log2 of a multiple of k
        if self.k < 1:
            raise PreconditionFailed("need k >= 1")
        # thresholds must fit a float: checked by log2; 2^(4r) is past one from r = 256
        r, lr = self.r, math.log2(max(self.r, 1))
        if r >= 256 or max(4 * r + 8 + 3 * lr, 4 * r + 4 + 5 * lr, 7 + (2 * r + 3) * lr) >= 1024:
            raise PreconditionFailed(f"uniformity r={r} puts the thresholds past a float")
        # so must the regime thresholds c1 * k, the largest products with k
        lk = math.log2(self.k)
        if lk + max(4 * r + 8 + 3 * lr, 7 + (2 * r + 3) * lr) >= 1024:
            raise PreconditionFailed(f"k = 2^{lk:.1f} puts the thresholds past a float")

    @property
    def c1_all(self) -> float:
        return 2 ** (4 * self.r + 8) * self.r**3

    @property
    def c3_all(self) -> float:
        return 2 ** (4 * self.r + 4) * self.r**5

    @property
    def c2_all(self) -> float:
        return math.log2(self.c3_all)

    @property
    def c1_even(self) -> float:
        return 128 * self.r ** (2 * self.r + 3)

    @property
    def c2_even(self) -> float:
        return math.log2(64 * self.k * self.r ** (2 * self.r + 2))

    @property
    def c3_part(self) -> float:
        return 128 * self.r ** (self.r + 3)

    @property
    def c4_part(self) -> float:
        return math.log2(64 * self.k * self.r ** (self.r + 2))


@dataclass
class FailureTrace:
    stage: str
    reason: str


@dataclass
class EngineReport:
    outcome: Optional[Union[CycleFamily, FailureTrace]]
    trace: list[dict]
    seed: int
    regime: dict
    bound: Optional[float]

    @property
    def success(self) -> bool:
        return isinstance(self.outcome, CycleFamily)

    def fail(self, stage: str, reason: str) -> EngineReport:
        self.trace.append({"stage": stage, "status": "failed", "reason": reason})
        self.outcome = FailureTrace(stage, reason)
        return self

    def succeed(self, fam: CycleFamily) -> EngineReport:
        """Report fam, validated under its own bound and then, for an input in
        regime with a bound, under the theorem's bound."""
        fam.validate()
        if self.bound is not None and self.regime["in_regime"]:
            fam.bound = self.bound
            fam.validate()
        self.outcome = fam
        return self

    def to_json_obj(self) -> dict:
        if self.success:
            fam = self.outcome
            out = {
                "outcome": "success",
                "lengths": fam.lengths,
                "shortest": fam.shortest,
                "parity": fam.parity,
                "cycles": [[list(e) for e in c.edges] for c in fam.cycles],
            }
        else:
            out = {
                "outcome": "failure",
                "lengths": [],
                "shortest": None,
                "stage": self.outcome.stage,
                "reason": self.outcome.reason,
            }
        out["bound"] = self.bound
        out["regime"] = self.regime
        out["trace"] = self.trace
        out["seed"] = self.seed
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)


def _start(g: LinearHypergraph, k: int, seed: int, c1: float, c2: float,
           scale: int, shift: int) -> EngineReport:
    """A report without its outcome: the regime d(g) >= c1*k, and the bound
    scale * log_ratio_cap(n, d, k, c2) + shift (None when the cap is)."""
    d = g.average_degree()
    regime = {"in_regime": bool(d >= c1 * k), "c1": c1, "c2": c2}
    cap = log_ratio_cap(len(g.vertices), d, k, c2)
    bound = None if cap is None else scale * cap + shift
    return EngineReport(None, [], seed, regime, bound)


# -- transversal cleanup -------------------------------------------------------

CLEANUP_ATTEMPTS = 400


def transversal_cleanup(
    h: LinearHypergraph,
    partition: RPartition,
    matching: Sequence[Sequence[int]],
    seed: int = 0,
) -> LinearHypergraph:
    """Subgraph H' keeping at least a (1/(r-1))^{r-1} fraction of the edges in
    which every matching member meets V(H') in at most one vertex.

    Picks one surviving vertex per member at random and drops every edge
    touching an unselected member vertex; retries the draw until the edge
    count clears the bound.
    """
    members = [tuple(sorted(m)) for m in matching]
    if not members:
        return h
    pm = partition.index_map()
    flat: set[int] = set()
    part_sets = []
    for m in members:
        if set(m) & flat:
            raise PreconditionFailed("matching members overlap")
        flat |= set(m)
        part_sets.append(frozenset(pm[v] for v in m))
    if len(set(part_sets)) != 1 or len(part_sets[0]) != len(members[0]):
        raise PreconditionFailed("members must cover the same r-1 classes")

    target = (1.0 / (h.r - 1)) ** (h.r - 1) * h.num_edges()
    if not any(flat.intersection(e) for e in h.edges):
        return h
    rng = random.Random(seed)
    best = -1
    for _ in range(CLEANUP_ATTEMPTS):
        banned: set[int] = set()
        for m in members:
            keep = rng.choice(m)
            banned.update(v for v in m if v != keep)
        kept = [e for e in h.edges if not banned.intersection(e)]
        best = max(best, len(kept))
        if len(kept) >= target and kept:
            out = h.edge_induced(kept)
            for m in members:
                if len(out.vertices & set(m)) > 1:
                    raise InvariantViolation(f"cleanup kept two vertices of {sorted(m)}")
            return out
    raise RetriesExhausted(
        f"cleanup kept at most {best} edges, needed {target:.1f}", CLEANUP_ATTEMPTS
    )


# -- dense connected subgraph of a projection ----------------------------------


def dense_connected(b: ColoredGraph) -> ColoredGraph:
    """Connected subgraph of minimum degree at least half the average degree:
    peel below the half-average threshold, keep the component of the
    lowest-indexed surviving vertex.  The peel never empties a non-empty b:
    each deleted vertex has degree below e/|V|, so the peel removes fewer than e
    edges."""
    if not b.edges:
        raise EmptyCore("projection has no edges")
    kept, _ = min_degree_core(b.edges, 2, b.average_degree())
    core = b.restrict(kept)
    comp = _components(core.adjacency())[0]
    return core.restrict(e for e in core.edges if e[0] in comp)


# -- shared pasting helper -----------------------------------------------------


def _expand_projection(colored: ColoredGraph, verts: Sequence[int]) -> list:
    return [colored.source[_pair(u, v)] for u, v in zip(verts, verts[1:])]


def _paste_internal(mert, bundle, colored, sub, owner, vof) -> LinearCycle:
    """Close a projection path through the tree and the two hooking edges."""
    u, w = sub[0], sub[-1]
    vu, vw = vof[u], vof[w]
    if bundle.labels[vu] == 1:
        q = bundle.union_path(vu, vw)
    else:
        q = list(reversed(bundle.union_path(vw, vu)))
    q_edges = list(expand_tree_path(mert, q).edges)
    p_edges = _expand_projection(colored, sub)
    seq = q_edges + [owner[w]] + list(reversed(p_edges)) + [owner[u]]
    return verify_cycle(mert.graph, seq)


# -- layer filters, shared by the layer scan and both constructions -------------


def _filed_level(mert: Mert, t: int) -> None:
    if not (1 <= t <= mert.height):
        raise PreconditionFailed(f"t={t} outside 1..{mert.height}")


def _boundary_edges(mert: Mert, t: int, k: int) -> tuple[tuple, int]:
    """The D-edges at level t, which meet L_{t-1} and the rest of segment t
    and avoid the earlier segments, and the count 8k r(r-1)(|L_{t-1}|+|L_t|)
    the boundary construction needs."""
    _filed_level(mert, t)
    r = mert.graph.r
    size = len(mert.levels[t - 1]) + len(mert.levels[t])
    return mert.d_edges[t], 8 * k * r * (r - 1) * size


def _internal_edges(mert: Mert, t: int, k: int) -> tuple[tuple, int]:
    """The F-edges at level t, which avoid the earlier segments and meet
    segment t at least twice, and the count 8k r^(r+2)|L_t| the internal
    construction needs."""
    _filed_level(mert, t)
    r = mert.graph.r
    return mert.f_edges[t], 8 * k * r ** (r + 2) * len(mert.levels[t])


# -- boundary construction (even lengths) --------------------------------------


def cycles_from_boundary(mert: Mert, t: int, k: int) -> tuple[CycleFamily, dict]:
    """k cycles of consecutive even lengths 2m+2..2m+2k (m <= t-1) from the
    edges crossing between level t-1 and the rest of segment t of the tree's
    graph."""
    g, partition = mert.graph, mert.partition
    d_edges, threshold = _boundary_edges(mert, t, k)
    info = {"t": t, "e_D": len(d_edges), "threshold": threshold}
    if not d_edges:
        raise NotEnoughDensity(0, threshold, "boundary D-subgraph")

    lt1 = mert.levels[t - 1]
    vht = mert.segment_vertices(t)
    inner = vht - lt1
    pm = partition.index_map()
    ell = mert.part_of_level[t - 1]
    counts = Counter(pm[v] for e in d_edges for v in e if v in inner)
    side = min(counts, key=lambda c: (-counts[c], c))
    ys = frozenset(v for v in partition.parts[side] if v in vht)
    # every D-edge meets L_{t-1}: build_mert files it only then
    dprime = [e for e in d_edges if ys.intersection(e)]
    b = project(g.edge_induced(dprime), partition, ell, side)
    bprime = dense_connected(b)
    s = sorted(bprime.vertices & lt1)
    if len(s) < 2:
        raise SingletonS(f"boundary anchor set {s}")
    bundle = anchor_and_label(mert, s)
    e1 = [p for p in bprime.edges if bundle.labels[_x_side(p, lt1)] == 1]
    e2 = [p for p in bprime.edges if bundle.labels[_x_side(p, lt1)] == 2]
    if len(e1) > len(e2):
        bundle.labels = {v: 3 - lbl for v, lbl in bundle.labels.items()}
        e1, e2 = e2, e1
    if not e1 or not e2:
        raise NotFound("a label class has no projection edges")
    path = rainbow_special_path(bprime, e1, e2, 2 * k, best_effort=True)
    a1 = path[0]
    if a1 not in lt1 or bundle.labels[a1] != 1:
        raise InvariantViolation(f"rainbow path starts at {a1}, not a label-1 anchor")
    cycles = []
    for i in range(2, k + 2):
        ai = path[2 * (i - 1)]
        if bundle.labels[ai] != 2:
            raise InvariantViolation(f"rainbow path vertex {ai} is not labelled 2")
        p_edges = _expand_projection(bprime, path[: 2 * (i - 1) + 1])
        q_edges = list(expand_tree_path(mert, bundle.union_path(a1, ai)).edges)
        cycles.append(verify_cycle(g, q_edges + list(reversed(p_edges))))
    fam = CycleFamily(cycles, "EVEN", bound=2 * t)
    fam.validate()
    info.update({"j": bundle.level, "m": t - 1 - bundle.level, "e_B": len(bprime.edges)})
    return fam, info


def _x_side(p, xs) -> int:
    u, v = p
    return u if u in xs else v


# -- internal construction (all lengths) ---------------------------------------


def cycles_from_internal(mert: Mert, t: int, k: int, seed: int = 0) -> tuple[CycleFamily, dict]:
    """2k cycles of consecutive lengths 2m+1..2m+2k (m <= t) from edges of
    the tree's graph that avoid all earlier segments and meet segment t at
    least twice."""
    g, partition = mert.graph, mert.partition
    f_edges, threshold = _internal_edges(mert, t, k)
    info = {"t": t, "e_F": len(f_edges), "threshold": threshold}
    if not f_edges:
        raise NotEnoughDensity(0, threshold, "internal F-subgraph")

    lt1 = mert.levels[t - 1]
    owner: dict[int, tuple[int, ...]] = {}
    vof: dict[int, int] = {}
    mt = []
    for e in mert.segment_edges(t):
        (anchor,) = lt1.intersection(e)
        residue = tuple(sorted(v for v in e if v != anchor))
        mt.append(residue)
        for v in residue:
            owner[v] = e
            vof[v] = anchor

    fprime = transversal_cleanup(g.edge_induced(f_edges), partition, mt, seed)
    vmt = frozenset(owner)
    pm = partition.index_map()
    # fprime's edges are partite, so an edge's classes in V(M_t) are distinct
    parts = {e: sorted(pm[v] for v in e if v in vmt) for e in fprime.edges}
    pair_count = Counter(chain.from_iterable(combinations(ps, 2) for ps in parts.values()))
    if not pair_count:
        raise NotEnoughDensity(0, threshold, "internal class-pair subgraph")
    pi, pj = min(pair_count, key=lambda c: (-pair_count[c], c))
    f2 = [e for e in fprime.edges if pi in parts[e] and pj in parts[e]]
    b = project(g.edge_induced(f2), partition, pi, pj)
    bstar = dense_connected(b)
    s = sorted({vof[y] for y in bstar.vertices})
    if len(s) < 2:
        raise SingletonS(f"internal anchor set {s}")
    bundle = anchor_and_label(mert, s)

    same = [p for p in bstar.edges if bundle.labels[vof[p[0]]] == bundle.labels[vof[p[1]]]]
    mixed = [p for p in bstar.edges if bundle.labels[vof[p[0]]] != bundle.labels[vof[p[1]]]]
    if not same or not mixed:
        raise NotFound("label classes on the projection are degenerate")
    cycles: list[LinearCycle] = []
    if len(same) >= len(mixed):
        path = rainbow_special_path(bstar, mixed, same, 2 * k, best_effort=True)
        for i in range(1, 2 * k + 1):
            cycles.append(
                _paste_internal(mert, bundle, bstar, path[: i + 1], owner, vof)
            )
        case = 1
    else:
        path = rainbow_special_path(bstar, same, mixed, 2 * k, best_effort=True)
        for i in range(1, k + 1):
            cycles.append(
                _paste_internal(mert, bundle, bstar, path[1 : 2 * i + 1], owner, vof)
            )
            cycles.append(
                _paste_internal(mert, bundle, bstar, path[: 2 * i + 1], owner, vof)
            )
        case = 2
    fam = CycleFamily(cycles, "ALL", bound=2 * t + 1)
    fam.validate()
    info.update(
        {"j": bundle.level, "m": t - bundle.level, "e_B": len(bstar.edges), "case": case}
    )
    return fam, info


# -- pipeline: consecutive even lengths ----------------------------------------


def even_consecutive_cycles(
    g: LinearHypergraph, k: int, seed: int = 0, strict: bool = False
) -> EngineReport:
    cons = Constants(g.r, k)
    report = _start(g, k, seed, cons.c1_even, cons.c2_even, 2, 0)
    trace = report.trace
    try:
        sub, partition = r_partite_reduction(g, seed)
        trace.append({"stage": "partite", "edges": sub.num_edges()})
        gd = d_minimal(sub, sub.average_degree())
        trace.append({"stage": "d-minimal", "edges": gd.num_edges(),
                      "avg_degree": gd.average_degree()})
        root = max_degree_root(gd)
        mert = build_mert(gd, rotate_to_root(gd, partition, root), root)
    except LincycError as err:
        return report.fail("setup", str(err))
    ledger = [len(lvl) for lvl in mert.levels]
    d = g.average_degree()
    growth = d / (64 * k * g.r ** (g.r + 2))
    cap = log_ratio_cap(len(g.vertices), d, k, cons.c4_part)
    trace.append({"stage": "mert", "height": mert.height, "levels": ledger,
                  "growth_factor": growth, "layer_cap": cap})

    for ratio, kind, t in _layer_candidates(mert, k, strict):
        try:
            if kind == "boundary":
                fam, info = cycles_from_boundary(mert, t, k)
            else:
                fam, info = cycles_from_internal(mert, t, k, seed)
                fam = _even_subfamily(fam, k)
        except LincycError as err:
            trace.append({"stage": kind, "t": t, "status": "failed", "reason": str(err)})
            continue
        trace.append({"stage": kind, "status": "fired", **info})
        return report.succeed(fam)

    if strict and report.regime["in_regime"] and cap is not None and mert.height >= cap:
        raise TheoremContradictionTrace(
            "in-regime input with no layer firing by the cap", ledger
        )
    return report.fail("layer-scan", "no layer produced a verified family")


def _even_subfamily(fam: CycleFamily, k: int) -> CycleFamily:
    """The k even members of an internal family.  Its lengths 2m+1..2m+2k
    (m <= t) start by its bound 2t+1, so the even ones start by 2t+2."""
    evens = sorted((c for c in fam.cycles if c.length % 2 == 0), key=lambda c: c.length)
    out = CycleFamily(evens[:k], "EVEN", bound=fam.bound + 1)
    out.validate()
    return out


def _layer_candidates(mert: Mert, k: int, strict: bool):
    """(|edges|/threshold, kind, t) per layer with edges, densest first; strict
    keeps those at their threshold, by t.  The constructions refuse only an empty layer."""
    out = []
    for t in range(1, mert.height + 1):
        for kind, select in (("boundary", _boundary_edges), ("internal", _internal_edges)):
            edges, threshold = select(mert, t, k)
            if edges:
                out.append((len(edges) / max(threshold, 1), kind, t))
    if strict:
        qualifying = [c for c in out if c[0] >= 1]
        return sorted(qualifying, key=lambda c: (c[2], c[1]))
    return sorted(out, key=lambda c: (-c[0], c[2], c[1]))


# -- pipeline: consecutive lengths ---------------------------------------------


def _anchor_density(target: float, delta: int, strict: bool) -> Optional[float]:
    """An anchored search's density: target if it is at most delta/2, else
    None (a refusal) in strict mode or max(1, delta/2) in best effort."""
    if target <= delta / 2:
        return target
    return None if strict else max(1.0, delta / 2)


def consecutive_cycles(
    g: LinearHypergraph, k: int, seed: int = 0, strict: bool = False
) -> EngineReport:
    cons = Constants(g.r, k)
    report = _start(g, k, seed, cons.c1_all, cons.c2_all, 6, 6)
    trace = report.trace
    try:
        core = min_degree_subgraph(g, g.average_degree())
    except LincycError as err:
        return report.fail("core", str(err))
    delta = core.min_degree()
    theory_d = g.r**1.5 * 2 ** (2 * g.r + 2) * math.sqrt(max(delta, 1) * k)
    d_eff = _anchor_density(theory_d, delta, strict)
    if d_eff is None:
        return report.fail("regime", f"anchor density {theory_d:.1f} exceeds delta/2 = {delta / 2}")
    trace.append({"stage": "core", "delta": delta, "d_eff": d_eff})
    try:
        anc = anchored_subgraph(core, max_degree_root(core), d_eff, seed)
    except LincycError as err:
        return report.fail("anchored", str(err))
    trace.append({"stage": "anchored", "m": anc.m,
                  "anchors": len(anc.subgraph.vertices & anc.anchors)})

    d_prime = k * g.r**2 * 2 ** (2 * g.r + 2)
    f_delta = anc.subgraph.min_degree()
    d_f = _anchor_density(d_prime, f_delta, strict)
    if d_f is None:
        return report.fail("pan-connected", f"min degree {f_delta} below 2d' = {2 * d_prime}")
    for x in sorted(anc.subgraph.vertices & anc.anchors):
        try:
            fam = pan_connected(anc.subgraph, x, k, d_f, seed)
        except LincycError as err:
            trace.append({"stage": "pan-connected", "x": x, "status": "failed",
                          "reason": str(err)})
            continue
        # f is an edge of F, so it holds exactly one anchor (P1), and the
        # nested search's edges lie at layer >= 1 from x (P2), so not x
        ys = anc.anchors & set(fam.f)
        if len(ys) != 1 or x in ys:
            raise InvariantViolation(
                f"edge {list(fam.f)} holds anchors {sorted(ys)}, not one other than {x}"
            )
        (y,) = ys
        union = set(anc.witness_paths[x].edges) | set(anc.witness_paths[y].edges)
        lay = bfs_layers(core.edge_induced(union), x)
        # both witness paths start at the root and m >= 1, so y is reachable
        if y not in lay.dist:
            raise InvariantViolation(f"anchor {y} is unreachable from {x} in their witness paths")
        pxy = lay.path_to(y)
        y_in_e = y in set(fam.e)
        back = list(reversed(pxy.edges))
        # each body lies in V(F), which the x-y path meets only in x and y
        # (P3); its first edge holds x and not y, its last y and not x (P1),
        # so every closure is a linear cycle
        cycles = []
        try:
            for ln in sorted(fam.paths):
                body = list(fam.paths[ln].edges)
                if y_in_e:
                    body = body[:-1]
                cycles.append(verify_cycle(g, body + back))
        except InvalidWitness as err:
            raise InvariantViolation(f"closure at anchor {x} through {y} failed: {err}") from err
        shortest_cert = 2 * anc.m + fam.t + 3
        trace.append({"stage": "closure", "x": x, "y": y, "t": fam.t,
                      "m": anc.m, "q": pxy.length, "status": "fired"})
        return report.succeed(CycleFamily(cycles, "ALL", bound=shortest_cert))
    return report.fail("pan-connected", "no anchor vertex yielded a closed family")


# -- exact even length ----------------------------------------------------------


# DFS node expansions find_c2k's oracle search may spend
C2K_BUDGET = 5 * 10**7


def find_c2k(g: LinearHypergraph, k: int, seed: int = 0) -> LinearCycle:
    """A linear cycle of length exactly 2k: the oracle's first witness of
    length 2k, found within C2K_BUDGET expansions; the search stops there.
    A length no linear cycle of g can have is answered before any search.
    The answer depends on (g, k) alone: seed is accepted for the callers that
    pass one and is unused by the search.

    NotFound means no such cycle exists, unless the search ran out of budget:
    then the NotFound says the search is incomplete and chains the
    BudgetExceeded as its cause."""
    if k < 2:
        raise PreconditionFailed("need k >= 2 for a cycle of length 2k")
    if 2 * k > _cycle_length_cap(g):
        raise NotFound(f"no linear cycle of length {2 * k} found")
    edges = g.edges
    try:
        for path, eid in chain.from_iterable(_starts(g, 2 * k, C2K_BUDGET)):
            if len(path) + 1 == 2 * k:
                return verify_cycle(g, tuple(edges[i] for i in path) + (edges[eid],))
    except BudgetExceeded as stopped:
        raise NotFound(
            f"search for a linear cycle of length {2 * k} stopped at its budget of "
            f"{C2K_BUDGET} expansions; the search is incomplete"
        ) from stopped
    raise NotFound(f"no linear cycle of length {2 * k} found")
