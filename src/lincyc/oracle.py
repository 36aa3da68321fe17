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
built from the edges at a, and a state makes one lookup.

Subtrees that cannot close are skipped.  A closing edge holds a and its id
is above the second edge's, so a first edge with no later edge at a grows no
path, and no second edge at or above the last edge at a is pushed.  States
at the last depth are not pushed either: they would be popped straight after
their parent, last pushed first, and could only close, so the parent tries
them in place in that order, one expansion each.  Every other state is
pushed and popped as in a plain DFS, with new pivots taken in the order of
one set per edge, so a complete run lists its witnesses in the same order.
Skipped states spend no budget, so under any budget the witnesses are a
prefix of the complete list, at least as long as without the skips.  There
is one search per first edge, all on one budget, so a caller may leave a
start at its first closure and pay only for what that start expanded.
"""

from __future__ import annotations

import itertools
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


def _cycle_length_cap(g: LinearHypergraph) -> int:
    """No linear cycle of g is longer than this.  A cycle of length L has
    L(r-1) vertices, L of them connectors, of degree >= 2."""
    incident = g.incident
    connectors = sum(len(ids) >= 2 for ids in incident.values())
    return min(connectors, len(incident) // (g.r - 1))


def _starts(g: LinearHypergraph, max_len: int, budget: int):
    """One generator per first edge, in id order, each yielding ``(chain, eid)``
    for its cycles of length <= max_len in witness order: edge ids ``chain``
    in path order, closed by ``eid``.  Past ``budget`` expansions of all the
    starts together, BudgetExceeded."""
    max_len = min(max_len, _cycle_length_cap(g))  # no deeper chain can close
    if max_len < 3:
        return  # every linear cycle has at least 3 edges
    edges = g.edges
    incident = g.incident
    sets = [set(e) for e in edges]  # one per edge, so new pivots keep their order
    backward = [tuple(f)[::-1] for f in sets]  # the order leaves are popped in
    expansions = 0

    def closures(start, e1):
        nonlocal expansions
        e1_set = sets[start]
        # a = closing pivot on the first edge, w = pivot to extend from
        for a in e1:
            # every closing edge holds a and comes after chain[1] > start
            last = incident[a][-1]
            if last <= start:
                continue
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
                        raise BudgetExceeded(f"node budget {budget} exceeded")
                    depth = len(chain)
                    # a second edge at or above last leaves no closing edge
                    cap = last if depth == 1 else len(edges)
                    eid = closer.get(pivot)
                    # closes iff it meets the chain only in pivot and a;
                    # canonical: second edge id < last id
                    if (eid is not None and depth >= 2 and chain[1] < eid
                            and len(sets[eid] & used) == 2):
                        yield chain, eid
                    if depth + 2 < max_len:
                        for eid in incident[pivot]:
                            if eid <= start:
                                continue
                            if eid >= cap:
                                break
                            f = sets[eid]
                            if len(f & used) != 1:
                                continue  # f must meet the chain in pivot alone
                            grown = chain + [eid]
                            joined = used | f
                            for new_pivot in f:
                                if new_pivot != pivot:
                                    stack.append((new_pivot, grown, joined))
                        continue
                    # The children sit at the last depth: they would be popped
                    # next, last pushed first, and could only close.  Try them
                    # here in that order.  A child (eid, v) closes through
                    # c = closer[v] iff c meets the chain in a alone: c holds
                    # a, not pivot, and meets f in v only, as g is linear.
                    for eid in reversed(incident[pivot]):
                        if eid <= start:
                            break
                        if eid >= cap or len(sets[eid] & used) != 1:
                            continue
                        second = chain[1] if depth >= 2 else eid
                        for v in backward[eid]:
                            if v == pivot:
                                continue
                            expansions += 1
                            if expansions > budget:
                                raise BudgetExceeded(f"node budget {budget} exceeded")
                            c = closer.get(v)
                            if (c is not None and second < c
                                    and len(sets[c] & used) == 1):
                                yield chain + [eid], c

    yield from itertools.starmap(closures, enumerate(edges))


def enumerate_cycles(
    g: LinearHypergraph,
    max_len: int,
    budget: int = DEFAULT_BUDGET,
    count: bool = False,
    witnesses: Optional[list[LinearCycle]] = None,
) -> Spectrum:
    """Lengths of the linear cycles of length <= max_len, each cycle appended
    to ``witnesses`` in the order above.  Past ``budget`` expansions it raises
    BudgetExceeded carrying the partial spectrum.  The search stops at
    _cycle_length_cap(g) when that is shorter: no deeper chain can close."""
    if max_len < 3:
        raise PreconditionFailed("max_len must be at least 3")
    lengths: set[int] = set()
    counts: dict[int, int] = {}
    edges = g.edges
    try:
        for chain, eid in itertools.chain.from_iterable(_starts(g, max_len, budget)):
            t = len(chain) + 1
            lengths.add(t)
            counts[t] = counts.get(t, 0) + 1
            if witnesses is not None:
                witnesses.append(LinearCycle(tuple(edges[i] for i in chain) + (edges[eid],)))
    except BudgetExceeded as err:
        err.partial = Spectrum(max_len, lengths, counts, complete=False)
        raise
    return Spectrum(max_len, lengths, counts if count else {}, complete=True)


def short_cycle_starts(g: LinearHypergraph, max_len: int,
                       budget: int = DEFAULT_BUDGET) -> list[int]:
    """Ids, ascending, of the edges that are the least edge of a linear cycle
    of length <= max_len.  Each start stops at its first closure, a non-empty
    ``(chain, eid)``.  Past ``budget`` expansions, BudgetExceeded."""
    return [i for i, found in enumerate(_starts(g, max_len, budget)) if next(found, None)]


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
