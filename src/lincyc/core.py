"""Core data model: linear r-uniform hypergraphs, projections, witnesses.

Vertices are dense integer ids 0..n-1.  Edges are stored as sorted tuples,
deduplicated and ordered lexicographically, so the same edge set always
produces the same object.  An edge given as a sorted plain tuple is stored as
given, so a graph built from another graph's edges shares their tuples.
Graphs from outside the package are validated (uniformity, range,
linearity): the constructor, `build`, `from_text` and
`from_json`/`from_json_obj` all go through it, and so does `plant_cycles`.
The constructor checks in bulk, by passes over the columns of the edge list
(column i holds every edge's i-th vertex).  Canonical input, plain r-tuples
each strictly increasing and in strictly increasing order, is kept as given
with no per-edge work; any other input is sorted and deduplicated edge by
edge, which also names the first edge that is not r distinct vertices.  The
range check asks whether the vertex set holds every column entry, and the
linearity check files each pair u < v of each edge under the key u*n + v:
the graph is linear exactly when the keys number m * C(r,2).  Only when a
check fails does the ordered scan run, to raise the error for the first
offending edge in edge order.
Everything else is assembled by `_assembled`, which only sets the fields:
`induced` and `edge_induced` cut subgraphs, linear too, from a validated
parent, and the packing and sparsifying generators assemble their output from
their own invariants.  Either way the two indexes, ``incident`` and
``edge_set``, are built on their first read, since most graphs never read
them; the witness checks read neither, as a binary search over the sorted
edges finds each witness edge.  All objects are immutable after construction.
"""

from __future__ import annotations

import json
import weakref
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, islice, repeat
from math import comb
from operator import add, itemgetter, lt, mul
from typing import Iterable, Literal, NoReturn, Optional, Sequence

from .errors import (
    DuplicatePair,
    InvalidWitness,
    InvariantViolation,
    MalformedInput,
    NonUniformEdge,
    NotPartite,
    TooLarge,
    VertexOutOfRange,
)

Edge = tuple[int, ...]
Pair = tuple[int, int]

# The parsers refuse a declared vertex count above this before building the
# vertex set: frozenset(range(n)) costs about 66 bytes a vertex, 66 MB here,
# paid once per n among the live graphs (see _everyone).
MAX_PARSED_VERTICES = 10**6


def _pair(u: int, v: int) -> Pair:
    return (u, v) if u < v else (v, u)


class LinearHypergraph:
    """An r-uniform hypergraph in which any two edges share at most one vertex.

    ``vertices`` is the active vertex set (support plus whatever isolated
    vertices the caller keeps around); induced subgraphs restrict it while
    leaving the ambient count ``n`` and all vertex ids untouched, so witnesses
    found in a subgraph are witnesses of the original graph verbatim.  A
    graph spanning all of range(n) holds the one set `_everyone(n)`.

    ``incident`` (vertex -> ids of its edges) and ``edge_set`` stay unset
    until first read; `__getattr__` then fills the slot, so later reads find
    it and never call `__getattr__` again.
    """

    __slots__ = ("n", "r", "edges", "vertices", "incident", "edge_set")

    def __init__(self, n: int, r: int, edges: Iterable[Iterable[int]],
                 vertices: Optional[Iterable[int]] = None):
        if r < 2:
            raise NonUniformEdge((), r)
        edges = tuple(edges)
        if not _is_canonical(edges, r):
            norm = set()
            for e in edges:
                t = tuple(sorted(e))
                if len(t) != r or len(set(t)) != r:
                    raise NonUniformEdge(t, r)
                # keep a caller's canonical tuple, often another graph's edge,
                # rather than a second copy of it
                norm.add(e if type(e) is tuple and e == t else t)
            edges = tuple(sorted(norm))
        # Column i holds every edge's i-th vertex.  itemgetter rather than
        # zip(*edges), which makes an iterator per edge; and no columns for no
        # edges, where r may be anything.
        cols = [list(map(itemgetter(i), edges)) for i in range(r)] if edges else []
        self.n = n
        self.r = r
        self.edges: tuple[Edge, ...] = edges
        self.vertices = _everyone(n) if vertices is None else _in_range(vertices, n)
        if not (self.vertices.issuperset(chain.from_iterable(cols))
                and len(_pair_keys(cols, n)) == len(edges) * comb(r, 2)):
            _name_violation(self)

    def __getattr__(self, name):
        # Reached only when normal lookup fails, as it does for an unset slot.
        if name == "incident":
            self.incident = {v: tuple(ids) for v, ids in _incidence(self.edges).items()}
            return self.incident
        if name == "edge_set":
            self.edge_set = frozenset(self.edges)
            return self.edge_set
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def __reduce__(self):
        # Pickle and copy the four fields alone; the copy rebuilds its indexes
        # when read, like any assembled graph.
        return _assembled, (self.n, self.r, self.edges, self.vertices)

    # -- basic queries ------------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self.incident.get(v, ()))

    def num_edges(self) -> int:
        return len(self.edges)

    def average_degree(self) -> float:
        if not self.vertices:
            return 0.0
        return self.r * len(self.edges) / len(self.vertices)

    def min_degree(self) -> int:
        if not self.vertices:
            return 0
        incident = self.incident
        return min(len(incident.get(v, ())) for v in self.vertices)

    def edge_through(self, u: int, v: int) -> Optional[Edge]:
        """The edge holding both u and v, or None; O(deg(u) r)."""
        return next((e for e in self.edges_at(u) if v in e and u != v), None)

    def edges_at(self, v: int) -> list[Edge]:
        return [self.edges[i] for i in self.incident.get(v, ())]

    # -- subgraphs ----------------------------------------------------------

    def induced(self, subset: Iterable[int]) -> "LinearHypergraph":
        s = _in_range(subset, self.n)
        return self._cut(tuple(e for e in self.edges if all(v in s for v in e)), s)

    def edge_induced(self, edges: Iterable[Iterable[int]]) -> "LinearHypergraph":
        kept = [tuple(sorted(e)) for e in edges]
        edge_set = self.edge_set
        for e in kept:
            if e not in edge_set:
                raise InvalidWitness(f"edge {e} is not an edge of the graph")
        verts = frozenset(v for e in kept for v in e)
        return self._cut(tuple(sorted(dict.fromkeys(kept))), verts)

    def _cut(self, edges: tuple[Edge, ...], vertices: frozenset[int]) -> "LinearHypergraph":
        """The subgraph on sorted edges of self and a vertex set covering them."""
        return _assembled(self.n, self.r, edges, vertices)

    # -- equality / hashing -------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, LinearHypergraph)
                and (self.n, self.r, self.edges, self.vertices)
                == (other.n, other.r, other.edges, other.vertices))

    def __hash__(self):
        return hash((self.n, self.r, self.edges, self.vertices))

    def __repr__(self):
        return f"LinearHypergraph(n={self.n}, r={self.r}, e={len(self.edges)})"

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"{self.r} {self.n} {len(self.edges)}"]
        lines.extend(" ".join(str(v) for v in e) for e in self.edges)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "LinearHypergraph":
        """Parse an 'r n m' header line and exactly m edge lines; blank lines
        are skipped."""
        # one line at a time, so its token strings and fresh ints die at once;
        # seen keeps one int object per id, as in _interned
        seen: dict[int, int] = {}
        rows = [(no, _ints(tokens, no, seen))
                for no, tokens in ((no, ln.split()) for no, ln in enumerate(text.splitlines(), 1))
                if tokens]
        if not rows:
            raise MalformedInput("empty input: expected an 'r n m' header")
        (head_no, head), *body = rows
        if len(head) != 3:
            raise MalformedInput(f"header must be the three integers 'r n m', got {head}", head_no)
        r, n, m = head
        if n < 0:
            raise MalformedInput(f"vertex count n must be non-negative, got {n}", head_no)
        _check_parsed_size(n)
        if len(body) != m:
            raise MalformedInput(f"header declares {m} edges, {len(body)} edge lines follow", head_no)
        return cls(n, r, [tuple(e) for _, e in body])

    def to_json_obj(self) -> dict:
        return {"r": self.r, "n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LinearHypergraph":
        if not isinstance(obj, dict):
            raise MalformedInput("graph JSON must be an object with keys r, n, edges")
        for key, ok in (("r", _is_int), ("n", _is_int), ("edges", _is_edge_list)):
            if not ok(obj.get(key)):
                raise MalformedInput(f"graph JSON key {key!r} is missing or ill-typed")
        if obj["n"] < 0:
            raise MalformedInput(f"graph JSON key 'n' must be non-negative, got {obj['n']}")
        _check_parsed_size(obj["n"])
        return cls(obj["n"], obj["r"], _interned(obj["edges"]))

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LinearHypergraph":
        return cls.from_json_obj(json.loads(text))


_EVERYONE: weakref.WeakValueDictionary[int, frozenset[int]] = weakref.WeakValueDictionary()


def _everyone(n: int) -> frozenset[int]:
    """frozenset(range(n)), one object shared by every live graph that spans
    range(n); the entry dies with the last graph holding it."""
    s = _EVERYONE.get(n)
    if s is None:
        s = _EVERYONE[n] = frozenset(range(n))
    return s


def _in_range(vertices: Iterable[int], n: int) -> frozenset[int]:
    """The vertices as a set, or VertexOutOfRange naming the least one
    outside 0..n-1."""
    s = frozenset(vertices)
    stray = [v for v in s if not 0 <= v < n]
    if stray:
        raise VertexOutOfRange(min(stray), n)
    return s


def _is_canonical(edges: tuple, r: int) -> bool:
    """Whether edges are plain r-tuples, each strictly increasing, in
    strictly increasing order; False for no edges, which need no work."""
    try:
        return (set(map(type, edges)) == {tuple} and set(map(len, edges)) == {r}
                and all(map(lt, edges, islice(edges, 1, None)))
                and all(all(map(lt, map(itemgetter(i), edges), map(itemgetter(i + 1), edges)))
                        for i in range(r - 1)))
    except TypeError:  # entries that do not compare: the loop reports them
        return False


def _pair_keys(cols: list[list[int]], n: int) -> set[int]:
    """The key u*n + v of every vertex pair u < v of every edge, given as
    columns of vertices in range(n): a graph is linear exactly when no two
    pairs share a key, so when there are m * C(r,2) keys."""
    keys: set[int] = set()
    for i, col in enumerate(cols):
        row = list(map(mul, col, repeat(n)))
        for later in cols[i + 1:]:
            keys.update(map(add, row, later))
    return keys


def _name_violation(g: LinearHypergraph) -> NoReturn:
    """Raise the error for the first edge of g, in edge order, with a vertex
    outside g.vertices or a pair that an earlier edge holds."""
    first_edge: dict[Pair, int] = {}
    for eid, e in enumerate(g.edges):
        for v in e:
            if v not in g.vertices:  # a subset of range(n) by now
                raise VertexOutOfRange(v, g.n)
        for p in combinations(e, 2):
            if first_edge.setdefault(p, eid) != eid:
                raise DuplicatePair(p, first_edge[p], eid)
    raise InvariantViolation("the bulk checks found a violation that the scan did not")


def _incidence(edges: Sequence[Edge]) -> dict[int, list[int]]:
    """Vertex -> ids of the edges at it, in increasing order; the keys come
    in first-seen order.  Read it with .get or known keys: a missing key
    would be created."""
    incident: defaultdict[int, list[int]] = defaultdict(list)
    for eid, e in enumerate(edges):
        for v in e:
            incident[v].append(eid)
    return incident


def _assembled(n: int, r: int, edges: tuple[Edge, ...],
               vertices: frozenset[int]) -> LinearHypergraph:
    """The graph on edges that the caller guarantees are sorted r-tuples in
    sorted order, distinct, pairwise linear and inside ``vertices``, a subset
    of range(n).  Nothing is checked and nothing is built: the indexes wait
    for their first read."""
    g = LinearHypergraph.__new__(LinearHypergraph)
    g.n, g.r, g.edges, g.vertices = n, r, edges, vertices
    return g


def _check_parsed_size(n: int) -> None:
    if n > MAX_PARSED_VERTICES:
        raise TooLarge(f"vertex count n = {n} exceeds the cap {MAX_PARSED_VERTICES}")


def _interned(edges: Iterable[list[int]]) -> list[Edge]:
    """The parsed edges as tuples that hold one int object per vertex id: the
    parser minted a fresh int for every token, and the constructor keeps the
    ints it is given."""
    seen: dict[int, int] = {}
    return [tuple(map(seen.setdefault, e, e)) for e in edges]


def _ints(tokens: list[str], line: int, seen: dict[int, int]) -> list[int]:
    """The tokens as ints, each the first int that ``seen`` holds for its
    value, so a fresh int dies as soon as it is read."""
    try:
        return [seen.setdefault(v, v) for v in map(int, tokens)]
    except ValueError:
        raise MalformedInput(f"non-integer token in {' '.join(tokens)!r}", line) from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_edge_list(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(e, list) and all(map(_is_int, e)) for e in value
    )


def build(n: int, r: int, edges: Iterable[Iterable[int]]) -> LinearHypergraph:
    """Validate and construct; raises the error naming the first violation."""
    return LinearHypergraph(n, r, edges)


# -- r-partitions and projections -------------------------------------------


@dataclass(frozen=True)
class RPartition:
    """Disjoint vertex classes A_1..A_r; partite edges take one vertex from each."""

    parts: tuple[frozenset[int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for part in self.parts:
            if seen & part:
                raise NotPartite(sorted(seen & part), "(parts overlap)")
            seen |= part

    @property
    def r(self) -> int:
        return len(self.parts)

    @cached_property
    def _index(self) -> dict[int, int]:
        return {v: i for i, part in enumerate(self.parts) for v in part}

    def index_map(self) -> dict[int, int]:
        """Vertex -> class index, built once per partition and shared by
        every caller, so read it and never mutate it."""
        return self._index

    def check(self, g: LinearHypergraph) -> None:
        """Raise NotPartite on the first edge that does not take exactly one
        vertex from each class: r vertices whose classes are all r classes."""
        idx, r = self.index_map(), len(self.parts)
        full = set(range(r))
        for e in g.edges:
            if set(map(idx.get, e)) != full or len(e) != r:
                raise NotPartite(e)


@dataclass
class ColoredGraph:
    """A 2-graph whose edges carry (r-2)-set colors, e.g. an (A_i,A_j)-projection.

    ``source`` maps each 2-edge back to the hyperedge it came from, when there
    is one; engines use it to lift 2-paths into hyperedge sequences.
    """

    vertices: frozenset[int]
    edges: tuple[Pair, ...]
    color: dict[Pair, frozenset[int]]
    source: dict[Pair, Edge] = field(default_factory=dict)

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def min_degree(self) -> int:
        if not self.vertices:
            return 0
        return min(map(len, self.adjacency().values()))

    def average_degree(self) -> float:
        if not self.vertices:
            return 0.0
        return 2 * len(self.edges) / len(self.vertices)

    def is_strongly_proper(self) -> bool:
        if any(self.color[e] & self.vertices for e in self.edges):
            return False
        at: defaultdict[int, list[Pair]] = defaultdict(list)
        for e in self.edges:
            for v in e:
                for f in at[v]:
                    if self.color[e] & self.color[f]:
                        return False
                at[v].append(e)
        return True

    def restrict(self, edges: Iterable[Pair]) -> "ColoredGraph":
        kept = tuple(sorted(set(_pair(*e) for e in edges)))
        verts = frozenset(v for e in kept for v in e)
        return ColoredGraph(
            verts,
            kept,
            {e: self.color[e] for e in kept},
            {e: self.source[e] for e in kept if e in self.source},
        )


def project(g: LinearHypergraph, partition: RPartition, i: int, j: int) -> ColoredGraph:
    """The (A_i,A_j)-projection: each hyperedge becomes the 2-edge of its A_i
    and A_j vertices, colored by the remaining (r-2)-set.  The hyperedge-to-
    2-edge map is bijective on linear inputs, which the construction checks.
    """
    partition.check(g)
    pm = partition.index_map()
    edges: list[Pair] = []
    color: dict[Pair, frozenset[int]] = {}
    source: dict[Pair, Edge] = {}
    for e in g.edges:
        marks = [pm[v] for v in e]  # one vertex per class, by the check
        u, w = e[marks.index(i)], e[marks.index(j)]
        p = _pair(u, w)
        if p in color:
            raise InvariantViolation("projection must be bijective on a linear graph")
        edges.append(p)
        color[p] = frozenset(v for v in e if v not in (u, w))
        source[p] = e
    verts = frozenset(chain.from_iterable(edges))
    return ColoredGraph(verts, tuple(sorted(edges)), color, source)


# -- witnesses ---------------------------------------------------------------


@dataclass(frozen=True)
class LinearPath:
    """Ordered edges e_1..e_t with |e_i ∩ e_{i+1}| = 1 and all other pairs disjoint."""

    edges: tuple[Edge, ...]
    endpoints: Optional[Pair] = None

    @property
    def length(self) -> int:
        return len(self.edges)

    def vertex_set(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)

    def connectors(self) -> list[int]:
        out = []
        for a, b in zip(self.edges, self.edges[1:]):
            (c,) = set(a) & set(b)
            out.append(c)
        return out


@dataclass(frozen=True)
class LinearCycle:
    """Cyclically ordered edges e_1..e_t, t >= 3, consecutive edges sharing
    exactly one vertex and all other pairs disjoint."""

    edges: tuple[Edge, ...]

    @property
    def length(self) -> int:
        return len(self.edges)

    def vertex_set(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)


Parity = Literal["ALL", "EVEN"]


@dataclass
class CycleFamily:
    """k verified cycles whose lengths are consecutive (or consecutive even)."""

    cycles: list[LinearCycle]
    parity: Parity
    bound: Optional[float] = None

    @property
    def lengths(self) -> list[int]:
        return sorted(c.length for c in self.cycles)

    @property
    def shortest(self) -> int:
        return min(c.length for c in self.cycles)

    def validate(self) -> None:
        ls = self.lengths
        if not ls:
            raise InvalidWitness("a cycle family needs at least one cycle")
        if len(set(ls)) != len(ls):
            raise InvalidWitness(f"repeated cycle lengths {ls}")
        step = 2 if self.parity == "EVEN" else 1
        if self.parity == "EVEN" and any(l % 2 for l in ls):
            raise InvalidWitness(f"odd length in EVEN family {ls}")
        if ls != list(range(ls[0], ls[0] + step * len(ls), step)):
            raise InvalidWitness(f"lengths {ls} are not consecutive (step {step})")
        if self.bound is not None and self.shortest > self.bound:
            raise InvalidWitness(f"shortest {self.shortest} exceeds bound {self.bound}")


def _check_sequence(g: LinearHypergraph, edges: Sequence[Iterable[int]],
                    cyclic: bool) -> tuple[Edge, ...]:
    es = tuple(tuple(sorted(e)) for e in edges)
    if len(set(es)) != len(es):
        raise InvalidWitness("repeated edge in witness")
    # g.edges is sorted, so a binary search finds each edge without building
    # g.edge_set on the caller's graph for one short witness
    g_edges = g.edges
    for idx, e in enumerate(es):
        try:
            i = bisect_left(g_edges, e)
        except TypeError:  # entries that do not compare with ints
            i = len(g_edges)
        if i == len(g_edges) or g_edges[i] != e:
            raise InvalidWitness(f"edge #{idx} {e} is not an edge of the graph")
    t = len(es)
    for a in range(t):
        for b in range(a + 1, t):
            inter = len(set(es[a]) & set(es[b]))
            adjacent = (b == a + 1) or (cyclic and a == 0 and b == t - 1)
            want = 1 if adjacent else 0
            if inter != want:
                raise InvalidWitness(
                    f"|e_{a+1} ∩ e_{b+1}| = {inter}, expected {want}", (a, b)
                )
    return es


def verify_path(g: LinearHypergraph, edges: Sequence[Iterable[int]],
                endpoints: Optional[Pair] = None) -> LinearPath:
    es = _check_sequence(g, edges, cyclic=False)
    if not es:
        return LinearPath((), endpoints)
    if endpoints is not None:
        if len(endpoints) != 2:
            raise InvalidWitness(f"endpoints {endpoints} must be a pair of vertices")
        x, y = endpoints
        first_free = set(es[0]) - (set(es[1]) if len(es) > 1 else set())
        last_free = set(es[-1]) - (set(es[-2]) if len(es) > 1 else set())
        if x not in first_free or y not in last_free or (len(es) == 1 and x == y):
            raise InvalidWitness(f"endpoints {endpoints} are not free end vertices")
    return LinearPath(es, endpoints)


def verify_cycle(g: LinearHypergraph, edges: Sequence[Iterable[int]]) -> LinearCycle:
    if len(edges) < 3:
        raise InvalidWitness(f"a linear cycle needs at least 3 edges, got {len(edges)}")
    return LinearCycle(_check_sequence(g, edges, cyclic=True))
