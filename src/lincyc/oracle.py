"""Ground-truth brute force: bounded-length linear-cycle enumeration, girth,
and an exhaustive rainbow-path decision procedure for small colored graphs.

The cycle search runs a DFS over (pivot, edge) states.  Canonical form: the
first edge has the smallest id in the cycle and the second edge id is smaller
than the last, so each cycle is generated exactly once up to rotation and
reflection.  The budget is counted in DFS node expansions.
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
    m = len(edges)
    for start in range(m):
        e1 = edges[start]
        e1_set = set(e1)
        # a = closing pivot on the first edge, w = pivot to extend from
        for a in e1:
            for w in e1:
                if w == a:
                    continue
                stack = [(w, [start], e1_set.copy())]
                while stack:
                    pivot, chain, used = stack.pop()
                    expansions += 1
                    if expansions > budget:
                        raise BudgetExceeded(
                            f"node budget {budget} exceeded",
                            partial=Spectrum(max_len, lengths, counts, complete=False),
                        )
                    depth = len(chain)
                    for eid in g.incident.get(pivot, ()):
                        if eid <= start or eid in chain:
                            continue
                        f = set(edges[eid])
                        inter = f & used
                        if depth >= 2 and inter == {pivot, a} and depth + 1 >= 3:
                            # closing edge; canonical: second edge id < last id
                            if chain[1] < eid:
                                t = depth + 1
                                if t <= max_len:
                                    lengths.add(t)
                                    counts[t] = counts.get(t, 0) + 1
                                    if witnesses is not None:
                                        witnesses.append(
                                            LinearCycle(
                                                tuple(edges[i] for i in chain)
                                                + (edges[eid],)
                                            )
                                        )
                            continue
                        if inter != {pivot}:
                            continue
                        if depth + 1 >= max_len:
                            continue  # could only close at length > max_len
                        nxt = [v for v in f if v != pivot]
                        for new_pivot in nxt:
                            stack.append(
                                (new_pivot, chain + [eid], used | f)
                            )
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
