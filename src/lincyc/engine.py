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
from dataclasses import dataclass, field
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
from .oracle import enumerate_cycles
from .pathfinder import _components, anchored_subgraph, pan_connected, rainbow_special_path
from .reductions import (
    bfs_layers,
    d_minimal,
    degenerate_ordering,
    max_degree_root,
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


def bound_even(n: int, d: float, k: int, cons: Constants) -> Optional[int]:
    gap = math.log2(d / k) - cons.c2_even if d > 0 else 0.0
    if gap <= 0 or n < 2:
        return None
    return 2 * math.ceil(math.log2(n) / gap)


def bound_all(n: int, d: float, k: int, cons: Constants) -> Optional[int]:
    gap = math.log2(d / k) - cons.c2_all if d > 0 else 0.0
    if gap <= 0 or n < 2:
        return None
    return 6 * math.ceil(math.log2(n) / gap) + 6


def layer_cap(n: int, d: float, k: int, cons: Constants) -> Optional[int]:
    gap = math.log2(d / k) - cons.c4_part if d > 0 else 0.0
    if gap <= 0 or n < 2:
        return None
    return math.ceil(math.log2(n) / gap)


@dataclass
class FailureTrace:
    stage: str
    reason: str
    details: dict = field(default_factory=dict)


@dataclass
class EngineReport:
    outcome: Union[CycleFamily, FailureTrace]
    trace: list[dict]
    seed: int
    regime: dict
    bound: Optional[float]

    @property
    def success(self) -> bool:
        return isinstance(self.outcome, CycleFamily)

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
    lowest-indexed surviving vertex."""
    if not b.edges:
        raise EmptyCore("projection has no edges")
    peel = degenerate_ordering(b.edges, b.average_degree() / 2)
    core = b.restrict(peel.core_edges)
    comp = _components(core.adjacency())[0]
    return core.restrict(e for e in core.edges if e[0] in comp)


# -- shared pasting helper -----------------------------------------------------


def _expand_projection(colored: ColoredGraph, verts: Sequence[int]) -> list:
    return [colored.source[_pair(u, v)] for u, v in zip(verts, verts[1:])]


def _paste_internal(g, mert, bundle, colored, sub, owner, vof) -> LinearCycle:
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
    return verify_cycle(g, seq)


# -- layer filters, shared by the layer scan and both constructions -------------


def _boundary_edges(g: LinearHypergraph, mert: Mert, t: int, k: int) -> tuple[list, int]:
    """The D-edges at level t, which meet L_{t-1} and the rest of segment t
    and avoid the earlier segments, and the count 8k r(r-1)(|L_{t-1}|+|L_t|)
    the boundary construction needs."""
    if not (1 <= t <= mert.height):
        raise PreconditionFailed(f"t={t} outside 1..{mert.height}")
    lt1 = mert.levels[t - 1]
    inner = mert.segment_vertices(t) - lt1
    early = mert.cumulative_vertices(t - 1) - lt1
    d_edges = [
        e
        for e in g.edges
        if lt1.intersection(e) and inner.intersection(e) and not early.intersection(e)
    ]
    return d_edges, 8 * k * g.r * (g.r - 1) * (len(lt1) + len(mert.levels[t]))


def _internal_edges(g: LinearHypergraph, mert: Mert, t: int, k: int) -> tuple[list, int]:
    """The F-edges at level t, which avoid the earlier segments and meet
    segment t at least twice, and the count 8k r^(r+2)|L_t| the internal
    construction needs."""
    if not (1 <= t <= mert.height):
        raise PreconditionFailed(f"t={t} outside 1..{mert.height}")
    vht = mert.segment_vertices(t)
    early = mert.cumulative_vertices(t - 1)
    f_edges = [
        e
        for e in g.edges
        if not early.intersection(e) and len(vht.intersection(e)) >= 2
    ]
    return f_edges, 8 * k * g.r ** (g.r + 2) * len(mert.levels[t])


# -- boundary construction (even lengths) --------------------------------------


def cycles_from_boundary(
    g: LinearHypergraph,
    partition: RPartition,
    mert: Mert,
    t: int,
    k: int,
    best_effort: bool = False,
) -> tuple[CycleFamily, dict]:
    """k cycles of consecutive even lengths 2m+2..2m+2k (m <= t-1) from the
    edges crossing between level t-1 and the rest of segment t."""
    d_edges, threshold = _boundary_edges(g, mert, t, k)
    info = {"t": t, "e_D": len(d_edges), "threshold": threshold}
    if not d_edges or (len(d_edges) < threshold and not best_effort):
        raise NotEnoughDensity(len(d_edges), threshold, "boundary D-subgraph")

    lt1 = mert.levels[t - 1]
    vht = mert.segment_vertices(t)
    inner = vht - lt1
    pm = partition.index_map()
    ell = mert.part_of_level[t - 1]
    counts: dict[int, int] = {}
    for e in d_edges:
        for v in e:
            if v in inner:
                counts[pm[v]] = counts.get(pm[v], 0) + 1
    side = max(sorted(counts), key=lambda j: (counts[j], -j))
    ys = frozenset(v for v in partition.parts[side] if v in vht)
    dprime = [e for e in d_edges if lt1.intersection(e) and ys.intersection(e)]
    b = project(g.edge_induced(dprime), partition, ell, side)
    if len(b.edges) != len(dprime):
        raise InvariantViolation("boundary projection lost edges")
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


def cycles_from_internal(
    g: LinearHypergraph,
    partition: RPartition,
    mert: Mert,
    t: int,
    k: int,
    seed: int = 0,
    best_effort: bool = False,
) -> tuple[CycleFamily, dict]:
    """2k cycles of consecutive lengths 2m+1..2m+2k (m <= t) from edges that
    avoid all earlier segments and meet segment t at least twice."""
    f_edges, threshold = _internal_edges(g, mert, t, k)
    info = {"t": t, "e_F": len(f_edges), "threshold": threshold}
    if not f_edges or (len(f_edges) < threshold and not best_effort):
        raise NotEnoughDensity(len(f_edges), threshold, "internal F-subgraph")

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
    pair_count: dict[tuple[int, int], int] = {}
    eligible: dict[tuple[int, ...], list[int]] = {}
    for e in fprime.edges:
        parts = sorted(pm[v] for v in e if v in vmt)
        parts = [p for p in parts if parts.count(p) == 1]
        eligible[e] = parts
        for a in range(len(parts)):
            for b in range(a + 1, len(parts)):
                key = (parts[a], parts[b])
                pair_count[key] = pair_count.get(key, 0) + 1
    if not pair_count:
        raise NotEnoughDensity(0, threshold, "internal class-pair subgraph")
    pi, pj = max(sorted(pair_count), key=lambda key: (pair_count[key], (-key[0], -key[1])))
    f2 = [e for e in fprime.edges if pi in eligible[e] and pj in eligible[e]]
    b = project(g.edge_induced(f2), partition, pi, pj)
    if len(b.edges) != len(f2):
        raise InvariantViolation("internal projection lost edges")
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
                _paste_internal(g, mert, bundle, bstar, path[: i + 1], owner, vof)
            )
        case = 1
    else:
        path = rainbow_special_path(bstar, same, mixed, 2 * k, best_effort=True)
        for i in range(1, k + 1):
            cycles.append(
                _paste_internal(g, mert, bundle, bstar, path[1 : 2 * i + 1], owner, vof)
            )
            cycles.append(
                _paste_internal(g, mert, bundle, bstar, path[: 2 * i + 1], owner, vof)
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
    n = len(g.vertices)
    d = g.average_degree()
    regime = {"in_regime": bool(d >= cons.c1_even * k), "c1": cons.c1_even, "c2": cons.c2_even}
    bound = bound_even(n, d, k, cons)
    trace: list[dict] = []

    def failure(stage: str, reason: str) -> EngineReport:
        trace.append({"stage": stage, "status": "failed", "reason": reason})
        return EngineReport(FailureTrace(stage, reason), trace, seed, regime, bound)

    try:
        sub, partition = r_partite_reduction(g, seed)
        trace.append({"stage": "partite", "edges": sub.num_edges()})
        gd = d_minimal(sub, sub.average_degree())
        trace.append({"stage": "d-minimal", "edges": gd.num_edges(),
                      "avg_degree": gd.average_degree()})
        root = max_degree_root(gd)
        partition = rotate_to_root(gd, partition, root)
        mert = build_mert(gd, partition, root)
    except LincycError as err:
        return failure("setup", str(err))
    ledger = [len(lvl) for lvl in mert.levels]
    growth = d / (64 * k * g.r ** (g.r + 2))
    cap = layer_cap(n, d, k, cons)
    trace.append({"stage": "mert", "height": mert.height, "levels": ledger,
                  "growth_factor": growth, "layer_cap": cap})

    candidates = _layer_candidates(gd, mert, k, strict)
    for ratio, kind, t in candidates:
        try:
            if kind == "boundary":
                fam, info = cycles_from_boundary(
                    gd, partition, mert, t, k, best_effort=not strict
                )
            else:
                fam, info = cycles_from_internal(
                    gd, partition, mert, t, k, seed, best_effort=not strict
                )
                fam = _even_subfamily(fam, k)
        except LincycError as err:
            trace.append({"stage": kind, "t": t, "status": "failed", "reason": str(err)})
            continue
        trace.append({"stage": kind, "status": "fired", **info})
        fam.validate()
        if bound is not None and regime["in_regime"]:
            fam.bound = bound
            fam.validate()
        return EngineReport(fam, trace, seed, regime, bound)

    if strict and regime["in_regime"] and cap is not None and mert.height >= cap:
        raise TheoremContradictionTrace(
            "in-regime input with no layer firing by the cap", ledger
        )
    return failure("layer-scan", "no layer produced a verified family")


def _even_subfamily(fam: CycleFamily, k: int) -> CycleFamily:
    """The k even members of an internal family.  Its lengths 2m+1..2m+2k
    (m <= t) start by its bound 2t+1, so the even ones start by 2t+2."""
    evens = sorted((c for c in fam.cycles if c.length % 2 == 0), key=lambda c: c.length)
    out = CycleFamily(evens[:k], "EVEN", bound=fam.bound + 1)
    out.validate()
    return out


def _layer_candidates(g, mert: Mert, k: int, strict: bool):
    out = []
    for t in range(1, mert.height + 1):
        for kind, select in (("boundary", _boundary_edges), ("internal", _internal_edges)):
            edges, threshold = select(g, mert, t, k)
            if edges:
                out.append((len(edges) / max(threshold, 1), kind, t))
    if strict:
        qualifying = [c for c in out if c[0] >= 1]
        return sorted(qualifying, key=lambda c: (c[2], c[1]))
    return sorted(out, key=lambda c: (-c[0], c[2], c[1]))


# -- pipeline: consecutive lengths ---------------------------------------------


def consecutive_cycles(
    g: LinearHypergraph, k: int, seed: int = 0, strict: bool = False
) -> EngineReport:
    cons = Constants(g.r, k)
    n = len(g.vertices)
    d = g.average_degree()
    regime = {"in_regime": bool(d >= cons.c1_all * k), "c1": cons.c1_all, "c2": cons.c2_all}
    bound = bound_all(n, d, k, cons)
    trace: list[dict] = []

    def failure(stage: str, reason: str) -> EngineReport:
        trace.append({"stage": stage, "status": "failed", "reason": reason})
        return EngineReport(FailureTrace(stage, reason), trace, seed, regime, bound)

    try:
        core = min_degree_subgraph(g, d)
    except LincycError as err:
        return failure("core", str(err))
    delta = core.min_degree()
    theory_d = g.r**1.5 * 2 ** (2 * g.r + 2) * math.sqrt(max(delta, 1) * k)
    if theory_d <= delta / 2:
        d_eff = theory_d
    elif strict:
        return failure("regime", f"anchor density {theory_d:.1f} exceeds delta/2 = {delta / 2}")
    else:
        d_eff = max(1.0, delta / 2)
    trace.append({"stage": "core", "delta": delta, "d_eff": d_eff})
    try:
        anc = anchored_subgraph(core, max_degree_root(core), d_eff, seed)
    except LincycError as err:
        return failure("anchored", str(err))
    trace.append({"stage": "anchored", "m": anc.m,
                  "anchors": len(anc.subgraph.vertices & anc.anchors)})

    for x in sorted(anc.subgraph.vertices & anc.anchors):
        try:
            fam = pan_connected(anc.subgraph, x, k, seed, best_effort=not strict)
        except LincycError as err:
            trace.append({"stage": "pan-connected", "x": x, "status": "failed",
                          "reason": str(err)})
            continue
        ys = anc.anchors & set(fam.f)
        if len(ys) != 1:
            continue
        (y,) = ys
        if y == x:
            continue
        union = set(anc.witness_paths[x].edges) | set(anc.witness_paths[y].edges)
        try:
            lay = bfs_layers(core.edge_induced(union), x)
            pxy = lay.path_to(y)
        except (LincycError, KeyError):
            continue
        y_in_e = y in set(fam.e)
        cycles = []
        try:
            for ln in sorted(fam.paths):
                body = list(fam.paths[ln].edges)
                if y_in_e:
                    body = body[:-1]
                cycles.append(verify_cycle(g, body + list(reversed(list(pxy.edges)))))
        except InvalidWitness as err:
            trace.append({"stage": "closure", "x": x, "status": "failed",
                          "reason": str(err)})
            continue
        shortest_cert = 2 * anc.m + fam.t + 3
        family = CycleFamily(cycles, "ALL", bound=shortest_cert)
        family.validate()
        trace.append({"stage": "closure", "x": x, "y": y, "t": fam.t,
                      "m": anc.m, "q": pxy.length, "status": "fired"})
        if bound is not None and regime["in_regime"]:
            family.bound = bound
            family.validate()
        return EngineReport(family, trace, seed, regime, bound)
    return failure("pan-connected", "no anchor vertex yielded a closed family")


# -- exact even length ----------------------------------------------------------


def find_c2k(g: LinearHypergraph, k: int, seed: int = 0) -> LinearCycle:
    """A linear cycle of length exactly 2k: via the even pipeline when its
    interval covers 2k, else by bounded oracle search."""
    if k < 2:
        raise PreconditionFailed("need k >= 2 for a cycle of length 2k")
    report = even_consecutive_cycles(g, k, seed)
    if report.success:
        for c in report.outcome.cycles:
            if c.length == 2 * k:
                return c
    witnesses: list[LinearCycle] = []
    try:
        enumerate_cycles(g, 2 * k, budget=5 * 10**7, witnesses=witnesses)
    except BudgetExceeded:
        pass
    for c in witnesses:
        if c.length == 2 * k:
            return verify_cycle(g, c.edges)
    raise NotFound(f"no linear cycle of length {2 * k} found")
