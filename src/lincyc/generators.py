"""Instance generation: greedy partial Steiner packings, the sparsify-then-
delete-short-cycles construction, and planted-cycle test instances.

The greedy packing replaces nibble-style machinery: sample random r-sets,
accept whenever no vertex pair is reused, then (on small instances) sweep all
r-sets once to reach true maximality.  Empirically this lands well above half
of the pair-counting upper bound, which is all downstream tests need.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Literal, Optional

from .core import LinearCycle, LinearHypergraph, _assembled, verify_cycle
from .errors import Infeasible, NonUniformEdge, PreconditionFailed, RetriesExhausted
from .oracle import enumerate_cycles

# full maximality sweep only when enumerating every r-set is affordable
SWEEP_LIMIT = 500_000
SPARSIFY_ATTEMPTS = 20


@dataclass
class GenSpec:
    """Parameters for the instance factory, mirroring the CLI flags."""

    n: int
    r: int = 3
    mode: Literal["steiner", "sparsified", "planted"] = "steiner"
    d: float = 4.0
    girth_floor: int = 3
    seed: int = 0
    lengths: list[int] = field(default_factory=list)
    background_density: float = 0.0

    def validate(self) -> None:
        if self.r < 2:
            raise Infeasible(f"uniformity r={self.r} below 2")
        if self.n < self.r:
            raise Infeasible(f"n={self.n} below uniformity r={self.r}")
        # `not x >= 0` rather than `x < 0`, so that NaN fails too
        if not self.background_density >= 0:
            raise Infeasible(f"background density {self.background_density} must be at least 0")
        if self.mode == "sparsified":
            if not self.d > 0:
                raise Infeasible(f"target degree d={self.d} must be positive")
            p = 2 * self.r * self.d / self.n
            if p > 1:
                raise Infeasible(f"sparsification probability p=2rd/n={p:.3f} > 1")
            if self.girth_floor < 2:
                raise Infeasible("girth floor below 2")


def greedy_partial_steiner(
    n: int, r: int, seed: int = 0, effort: float = 2.0
) -> LinearHypergraph:
    """Maximal-at-desk-scale linear r-graph: every pair of vertices lies in at
    most one edge.  ``effort`` scales the rejection-sampling budget in units
    of C(n,2) samples."""
    if r < 2:
        raise NonUniformEdge((), r)
    if n < r:
        raise Infeasible(f"n={n} < r={r}")
    # A pair u < v is stored as the key u * n + v.
    used_pairs: set[int] = set()
    edges: list[tuple[int, ...]] = []
    budget = max(1, int(effort * n * (n - 1) / 2))
    # Each draw is CPython's randrange(n) inlined: take n.bit_length() random
    # bits and redraw while the value is >= n.  This consumes the same stream
    # as randrange(n), so the edges match the plain sampler's;
    # tests/test_generators.py pins that identity.
    getrandbits = random.Random(seed).getrandbits
    bits = n.bit_length()
    if r == 3:
        # unrolled: this loop dominates large builds
        add_pair = used_pairs.add
        for _ in range(budget):
            a = getrandbits(bits)
            while a >= n:
                a = getrandbits(bits)
            b = getrandbits(bits)
            while b >= n:
                b = getrandbits(bits)
            c = getrandbits(bits)
            while c >= n:
                c = getrandbits(bits)
            if a == b or a == c or b == c:
                continue
            if a > b:
                a, b = b, a
            if b > c:
                b, c = c, b
                if a > b:
                    a, b = b, a
            ab = a * n + b
            if ab in used_pairs:
                continue
            ac = a * n + c
            if ac in used_pairs:
                continue
            bc = b * n + c
            if bc in used_pairs:
                continue
            add_pair(ab)
            add_pair(ac)
            add_pair(bc)
            edges.append((a, b, c))
    else:
        for _ in range(budget):
            cand = set()
            for _ in range(r):
                v = getrandbits(bits)
                while v >= n:
                    v = getrandbits(bits)
                cand.add(v)
            if len(cand) != r:
                continue
            cs = sorted(cand)
            keys = [cs[i] * n + cs[j] for i in range(r - 1) for j in range(i + 1, r)]
            if not used_pairs.isdisjoint(keys):
                continue
            used_pairs.update(keys)
            edges.append(tuple(cs))

    if math.comb(n, r) <= SWEEP_LIMIT:
        _maximality_sweep(n, r, used_pairs, edges)

    # Every edge is a sorted r-tuple of distinct vertices of range(n), and
    # used_pairs rejected each reused pair, so the edges are distinct and
    # linear: sorting them is all the constructor would add.
    return _assembled(n, r, tuple(sorted(edges)), frozenset(range(n)))


def _maximality_sweep(
    n: int, r: int, used_pairs: set[int], edges: list[tuple[int, ...]]
) -> None:
    """Append, in lexicographic order, every r-set of range(n) whose pairs are
    all still free, as a scan of combinations(range(n), r) would.

    The scan is a backtrack over prefixes that drops a prefix as soon as one
    of its pairs is used.  That loses nothing: used pairs only accumulate, so
    a blocked prefix has no acceptable extension, now or later.  Accepting an
    edge blocks every prefix of two or more of its vertices, so the backtrack
    resumes at slot 1 with the vertex after the edge's second.  The stack is
    explicit, so r may exceed the recursion limit."""
    pairs = [(a, b) for a in range(r - 1) for b in range(a + 1, r)]
    prefix: list[int] = []  # the free prefix; slot len(prefix) is being filled
    rows: list[int] = []  # u * n for u in prefix
    tries = [iter(range(n - r + 1))]  # the vertices left to try, one iterator per slot
    while tries:
        for v in tries[-1]:
            if not any(row + v in used_pairs for row in rows):
                break
        else:
            tries.pop()
            if prefix:
                prefix.pop()
                rows.pop()
            continue
        j = len(prefix)
        if j + 1 < r:
            prefix.append(v)
            rows.append(v * n)
            tries.append(iter(range(v + 1, n - r + j + 2)))
            continue
        edge = (*prefix, v)
        used_pairs.update([rows[a] + edge[b] for a, b in pairs])
        edges.append(edge)
        del prefix[1:], rows[1:], tries[2:]


@dataclass
class SparsifyReport:
    graph: LinearHypergraph
    attempts: int
    deleted_edges: list[tuple[int, ...]]
    average_degree: float
    expected_short_cycles_bound: float


def high_girth_sparsify(
    base: LinearHypergraph,
    d: float,
    m: int,
    seed: int = 0,
) -> SparsifyReport:
    """Keep each base edge with probability p = 2rd/n, then delete the
    lexicographically least edge of every linear cycle of length <= m.
    Retries the coin flips until the surviving average degree is at least d.

    Deletions never create cycles, so one enumeration suffices: cycles are
    processed in enumeration order, skipping any that already lost an edge.
    The outcome is identical to re-enumerating after every deletion."""
    n, r = base.n, base.r
    p = 2 * r * d / n
    if p > 1:
        raise PreconditionFailed(f"p = 2rd/n = {p:.4f} > 1")
    if m < 2:
        raise PreconditionFailed("m must be at least 2")
    try:
        expected_bound = 2 * (2 * r * d) ** m
    except OverflowError:  # a float power past the largest double
        expected_bound = math.inf
    rng = random.Random(seed)
    # kept stays a subsequence of base.edges, so both graphs are cut from base
    everyone = frozenset(range(n))
    best: Optional[SparsifyReport] = None
    for attempt in range(1, SPARSIFY_ATTEMPTS + 1):
        kept = [e for e in base.edges if rng.random() < p]
        deleted: list[tuple[int, ...]] = []
        if m >= 3:
            g = base._cut(tuple(kept), everyone)
            witnesses: list[LinearCycle] = []
            enumerate_cycles(g, m, witnesses=witnesses)
            gone: set[tuple[int, ...]] = set()
            for cyc in witnesses:
                if any(e in gone for e in cyc.edges):
                    continue
                victim = min(cyc.edges)
                gone.add(victim)
                deleted.append(victim)
            if gone:
                kept = [e for e in kept if e not in gone]
        g = base._cut(tuple(kept), everyone)
        report = SparsifyReport(g, attempt, deleted, g.average_degree(), expected_bound)
        if best is None or report.average_degree > best.average_degree:
            best = report
        if report.average_degree >= d:
            return report
    raise RetriesExhausted(
        f"average degree {best.average_degree:.3f} below target {d}", SPARSIFY_ATTEMPTS, best
    )


def plant_cycles(
    n: int,
    r: int,
    lengths: list[int],
    background_density: float = 0.0,
    seed: int = 0,
) -> tuple[LinearHypergraph, list[LinearCycle]]:
    """Vertex-disjoint planted linear cycles of the requested lengths plus
    random background edges that keep the graph linear.

    ``background_density`` is the target extra average degree contributed by
    background edges (best effort, rejection sampling)."""
    for t in lengths:
        if t < 3:
            raise Infeasible(f"a linear cycle needs length >= 3, got {t}")
    need = sum((r - 1) * t for t in lengths)
    if need > n:
        raise Infeasible(f"planting needs {need} vertices, only {n} available")

    edges: list[tuple[int, ...]] = []
    planted: list[list[tuple[int, ...]]] = []
    nxt = 0
    for t in lengths:
        connectors = list(range(nxt, nxt + t))
        nxt += t
        cyc = []
        for i in range(t):
            passengers = list(range(nxt, nxt + r - 2))
            nxt += r - 2
            cyc.append(tuple(sorted([connectors[i], connectors[(i + 1) % t]] + passengers)))
        edges.extend(cyc)
        planted.append(cyc)

    rng = random.Random(seed)
    target_extra = int(background_density * n / r)
    if target_extra > 0:
        used_pairs = {
            (u, v) for e in edges for u, v in combinations(e, 2)
        }
        added = 0
        for _ in range(50 * target_extra + 100):
            if added >= target_extra:
                break
            cand = tuple(sorted(rng.sample(range(n), r)))
            pairs = list(combinations(cand, 2))
            if any(p in used_pairs for p in pairs):
                continue
            used_pairs.update(pairs)
            edges.append(cand)
            added += 1

    g = LinearHypergraph(n, r, edges)
    witnesses = [verify_cycle(g, cyc) for cyc in planted]
    return g, witnesses


def generate(spec: GenSpec) -> tuple[LinearHypergraph, list[LinearCycle]]:
    """Dispatch on GenSpec.mode; returns (graph, planted witnesses)."""
    spec.validate()
    if spec.mode == "steiner":
        return greedy_partial_steiner(spec.n, spec.r, spec.seed), []
    if spec.mode == "sparsified":
        base = greedy_partial_steiner(spec.n, spec.r, spec.seed)
        report = high_girth_sparsify(base, spec.d, spec.girth_floor, spec.seed + 1)
        return report.graph, []
    if spec.mode == "planted":
        g, wits = plant_cycles(
            spec.n, spec.r, spec.lengths, spec.background_density, spec.seed
        )
        return g, wits
    raise Infeasible(f"unknown mode {spec.mode}")
