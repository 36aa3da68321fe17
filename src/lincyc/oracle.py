"""Ground-truth brute force: bounded-length linear-cycle enumeration, girth,
and an exhaustive rainbow-path decision procedure for small colored graphs.

The cycle search runs a DFS over (pivot, edge) states.  Canonical form: the
first edge has the smallest id in the cycle and the second edge id is smaller
than the last, so each cycle is generated exactly once up to rotation and
reflection.  The budget is counted in DFS node expansions.

Closing edges are looked up, not scanned for.  A path from the first edge's
vertex a to its pivot closes only through an edge f with f ∩ used == {pivot,
a}; as pivot != a and the graph is linear, f is the one edge holding both.
So each (first edge, a) gets a map from vertex to the edge at a holding it,
built from the edges at a, and a popped state makes one lookup.  The scan of
the pivot's edges then only extends the path, and at the last depth, where no
extension fits, it is skipped.  Each state still closes at most one cycle and
is pushed and popped exactly as before, with new pivots taken in the order of
one set per edge, so witnesses come out in the same order and a budget stops
at the same node with the same partial spectrum.  ``high_girth_sparsify``
relies on that order: it deletes edges cycle by cycle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .core import ColoredGraph, LinearCycle, LinearHypergraph, Pair
from .errors import BudgetExceeded, PreconditionFailed, TooLarge

DEFAULT_BUDGET = 10**8
RAINBOW_MAX_VERTICES = 20


@dataclass
class Spectrum:
    """Lengths <= max_len for which a linear cycle exists; exact iff complete."""

    max_len: int
    lengths: set[int]
    counts: dict[int, int] = field(default_factory=dict)
    complete: bool = True

    def to_json_obj(self) -> dict:
        return {
            "L": self.max_len,
            "lengths": sorted(self.lengths),
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
            "complete": self.complete,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)


def enumerate_cycles(
    g: LinearHypergraph,
    max_len: int,
    budget: int = DEFAULT_BUDGET,
    count: bool = False,
    witnesses: Optional[list[LinearCycle]] = None,
) -> Spectrum:
    if max_len < 3:
        raise PreconditionFailed("max_len must be at least 3")
    lengths: set[int] = set()
    counts: dict[int, int] = {}
    expansions = 0

    edges = g.edges
    incident = g.incident
    sets = [set(e) for e in edges]  # one per edge, so new pivots keep their order
    for start, e1 in enumerate(edges):
        e1_set = sets[start]
        # a = closing pivot on the first edge, w = pivot to extend from
        for a in e1:
            # v -> the edge after start holding a and v: the one edge that
            # can close a chain whose pivot is v
            closer = {v: eid for eid in incident[a] if eid > start for v in edges[eid]}
            for w in e1:
                if w == a:
                    continue
                stack = [(w, [start], e1_set)]
                while stack:
                    pivot, chain, used = stack.pop()
                    expansions += 1
                    if expansions > budget:
                        raise BudgetExceeded(
                            f"node budget {budget} exceeded",
                            partial=Spectrum(max_len, lengths, counts, complete=False),
                        )
                    depth = len(chain)
                    eid = closer.get(pivot)
                    # closes iff it meets the chain only in pivot and a;
                    # canonical: second edge id < last id
                    if (eid is not None and depth >= 2 and chain[1] < eid
                            and len(sets[eid] & used) == 2):
                        t = depth + 1
                        lengths.add(t)
                        counts[t] = counts.get(t, 0) + 1
                        if witnesses is not None:
                            witnesses.append(
                                LinearCycle(tuple(edges[i] for i in chain) + (edges[eid],))
                            )
                    if depth + 1 >= max_len:
                        continue  # an extension could only close past max_len
                    for eid in incident[pivot]:
                        if eid <= start:
                            continue
                        f = sets[eid]
                        if len(f & used) != 1:
                            continue  # f must meet the chain in pivot alone
                        grown = chain + [eid]
                        joined = used | f
                        for new_pivot in f:
                            if new_pivot != pivot:
                                stack.append((new_pivot, grown, joined))
    return Spectrum(max_len, lengths, counts if count else {}, complete=True)


def girth(g: LinearHypergraph, cap: int) -> Optional[int]:
    """Smallest linear-cycle length <= cap, or None if there is none."""
    spec = enumerate_cycles(g, max(cap, 3))
    short = {l for l in spec.lengths if l <= cap}
    return min(short) if short else None


def rainbow_path_exists(
    h: ColoredGraph,
    e1: Iterable[Pair],
    e2: Iterable[Pair],
    length: int,
) -> bool:
    """Exhaustive check: is there a strongly rainbow path of the given length
    whose first edge is in E1 and all the others in E2?"""
    if len(h.vertices) > RAINBOW_MAX_VERTICES:
        raise TooLarge(f"{len(h.vertices)} vertices exceeds the cap {RAINBOW_MAX_VERTICES}")
    if length < 1:
        raise PreconditionFailed("length must be at least 1")
    set1 = {tuple(sorted(e)) for e in e1}
    set2 = {tuple(sorted(e)) for e in e2}
    adj = h.adjacency()

    def extend(last: int, visited: set[int], colors: set[int], steps: int) -> bool:
        if steps == length:
            return True
        for w in adj.get(last, ()):
            if w in visited:
                continue
            p = (last, w) if last < w else (w, last)
            if p not in set2:
                continue
            c = h.color[p]
            if c & colors:
                continue
            if extend(w, visited | {w}, colors | set(c), steps + 1):
                return True
        return False

    for p in set1:
        for u, w in (p, p[::-1]):
            if extend(w, {u, w}, set(h.color[tuple(sorted(p))]), 1):
                return True
    return False
