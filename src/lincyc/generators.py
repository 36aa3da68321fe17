"""Instance generation: greedy partial Steiner packings, the sparsify-then-
delete-short-cycles construction, and planted-cycle test instances.

The greedy packing replaces nibble-style machinery: sample random r-sets,
accept whenever no vertex pair is reused, then (on small instances) sweep all
r-sets once to reach true maximality.  Empirically this lands well above half
of the pair-counting upper bound, which is all downstream tests need.

The greedy packing mints its vertex ids once per call, as ``ids = list(range(n))``,
and builds each edge it keeps from that table, so all edges at a vertex share
one int object rather than each holding the fresh int a draw returned.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Literal, Optional

from .core import (
    LinearCycle, LinearHypergraph, _assembled, _check_parsed_size, _everyone, verify_cycle,
)
from .errors import Infeasible, NonUniformEdge, PreconditionFailed, RetriesExhausted, TooLarge
from .oracle import short_cycle_starts

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
        # refuse, before building it, a graph that the parsers would refuse
        _check_parsed_size(self.n)
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
    of C(n,2) samples.

    A used pair u < v is kept as the key u * n + v, in a byte table of n * n
    entries or in a set; both give the same edges.  The table rule (see
    `_uses_table`): use the table when the maximality sweep runs, which
    implies n <= 1000 and so a table of at most 1 MB, or when r <= 7 and
    n * n <= 16 * C(r,2) * budget.  A set spends over 50 bytes a key (its
    slot and the int object), and each accepted draw stores C(r,2) keys, so
    at that budget the set outgrows the table once about a third of the
    draws are accepted, which holds up to r = 7.  From r = 8 on, rejected
    draws can keep the set smaller, so the set stays there.  At r = 3 the
    rule means effort >= 1/24."""
    if r < 2:
        raise NonUniformEdge((), r)
    if n < r:
        raise Infeasible(f"n={n} < r={r}")
    budget = max(1, int(effort * n * (n - 1) / 2))
    sweep = math.comb(n, r) <= SWEEP_LIMIT
    # Both containers read used[k] and mark used[k] = 1.
    try:
        used = bytearray(n * n) if _uses_table(n, r, budget, sweep) else _PairSet()
    except MemoryError:
        raise TooLarge(f"no memory for the {n} x {n} pair table of the packing") from None
    edges: list[tuple[int, ...]] = []
    # Each draw is CPython's randrange(n) inlined: take n.bit_length() random
    # bits and redraw while the value is >= n.  This consumes the same stream
    # as randrange(n), so the edges match the plain sampler's;
    # tests/test_generators.py pins that identity.
    getrandbits = random.Random(seed).getrandbits
    bits = n.bit_length()
    ids = list(range(n))
    if r == 3:
        # unrolled: this loop dominates large builds
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
            if used[ab]:
                continue
            ac = a * n + c
            if used[ac]:
                continue
            bc = b * n + c
            if used[bc]:
                continue
            used[ab] = used[ac] = used[bc] = 1
            edges.append((ids[a], ids[b], ids[c]))
    else:
        is_used, mint = used.__getitem__, ids.__getitem__
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
            if any(map(is_used, keys)):
                continue
            for k in keys:
                used[k] = 1
            edges.append(tuple(map(mint, cs)))

    if sweep:
        _maximality_sweep(n, r, used, edges, ids)

    # Every edge is a sorted r-tuple of distinct vertices of range(n), and
    # used rejected each reused pair, so the edges are distinct and linear:
    # sorting them is all the constructor would add.
    return _assembled(n, r, tuple(sorted(edges)), _everyone(n))


def _uses_table(n: int, r: int, budget: int, sweep: bool) -> bool:
    """greedy_partial_steiner's table rule."""
    return sweep or (r <= 7 and n * n <= 16 * math.comb(r, 2) * budget)


class _PairSet(set):
    """The used pairs as a set, read and marked like the byte table."""

    __slots__ = ()
    __getitem__ = set.__contains__

    def __setitem__(self, key: int, _mark: int) -> None:
        self.add(key)


def _maximality_sweep(
    n: int, r: int, used: bytearray, edges: list[tuple[int, ...]], ids: list[int]
) -> None:
    """Append, in lexicographic order, every r-set of range(n) whose pairs are
    all still free in ``used``, as a scan of combinations(range(n), r) would;
    each appended edge is built from ``ids``, the caller's table of range(n).

    The scan is a backtrack over prefixes that drops a prefix as soon as one
    of its pairs is used.  That loses nothing: used pairs only accumulate, so
    a blocked prefix has no acceptable extension, now or later.  Accepting an
    edge blocks every prefix of two or more of its vertices, so the backtrack
    resumes at slot 1 with the vertex after the edge's second.  The stack is
    explicit, so r may exceed the recursion limit."""
    pairs = [(a, b) for a in range(r - 1) for b in range(a + 1, r)]
    prefix: list[int] = []  # the free prefix, from ids; slot len(prefix) is being filled
    rows: list[int] = []  # u * n for u in prefix
    tries = [iter(range(n - r + 1))]  # the vertices left to try, one iterator per slot
    while tries:
        for v in tries[-1]:
            if not any(used[row + v] for row in rows):
                break
        else:
            tries.pop()
            if prefix:
                prefix.pop()
                rows.pop()
            continue
        j = len(prefix)
        if j + 1 < r:
            prefix.append(ids[v])
            rows.append(v * n)
            tries.append(iter(range(v + 1, n - r + j + 2)))
            continue
        edge = (*prefix, ids[v])
        for a, b in pairs:
            used[rows[a] + edge[b]] = 1
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

    Edges are sorted, so a cycle's least edge is the oracle start it grows
    from, and cycles from later starts hold only later edges: the deleted
    edges are the starts of a cycle of length <= m, each found by one hit."""
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
    # each graph keeps a subsequence of base.edges, so each is cut from base
    everyone = _everyone(n)
    best: Optional[SparsifyReport] = None
    for attempt in range(1, SPARSIFY_ATTEMPTS + 1):
        g = base._cut(tuple(e for e in base.edges if rng.random() < p), everyone)
        deleted = [g.edges[i] for i in short_cycle_starts(g, m)]
        if deleted:
            dropped = set(deleted)
            g = base._cut(tuple(e for e in g.edges if e not in dropped), everyone)
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
    # a linear r-graph on n vertices holds at most C(n,2)/C(r,2) edges, so a
    # larger target, an infinite one too, would only spend draws
    target_extra = int(min(background_density * n / r, n * (n - 1) / (r * (r - 1))))
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
