"""Data model: construction validation, degrees, projections, witnesses,
serialization round-trips."""

from __future__ import annotations

import copy
import gc
import json
import pickle
import sys
import tracemalloc
import weakref
from collections import namedtuple
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lincyc import (
    CycleFamily,
    DuplicatePair,
    InvalidWitness,
    LincycError,
    LinearCycle,
    MalformedInput,
    LinearHypergraph,
    NonUniformEdge,
    NotPartite,
    RPartition,
    TooLarge,
    VertexOutOfRange,
    build,
    consecutive_cycles,
    even_consecutive_cycles,
    greedy_partial_steiner,
    project,
    r_partite_reduction,
    verify_cycle,
    verify_path,
)
from lincyc.core import MAX_PARSED_VERTICES, _assembled, _everyone, _in_range, _incidence
from conftest import FANO_LINES, planted_c4


def random_linear(draw_n: int, r: int, seed: int) -> LinearHypergraph:
    return greedy_partial_steiner(max(draw_n, r), r, seed=seed, effort=1.0)


linear_graphs = st.builds(
    random_linear,
    st.integers(min_value=3, max_value=40),
    st.integers(min_value=3, max_value=4),
    st.integers(min_value=0, max_value=10_000),
)


# -- build ---------------------------------------------------------------------


def test_build_fano_valid(fano):
    assert fano.num_edges() == 7
    assert fano.r == 3 and fano.n == 7


def test_build_rejects_shared_pair():
    with pytest.raises(DuplicatePair) as err:
        build(4, 3, [(0, 1, 2), (0, 1, 3)])
    assert err.value.pair == (0, 1)


def test_build_single_edge_average_degree():
    g = build(3, 3, [(0, 1, 2)])
    assert g.average_degree() == pytest.approx(1.0)


def test_build_rejects_bad_edges():
    with pytest.raises(NonUniformEdge):
        build(5, 3, [(0, 1)])
    with pytest.raises(NonUniformEdge):
        build(5, 3, [(0, 1, 1)])
    with pytest.raises(VertexOutOfRange):
        build(3, 3, [(0, 1, 5)])


@pytest.mark.parametrize("stray", [5, 10, -3])
def test_vertex_sets_outside_the_range_are_rejected(stray):
    with pytest.raises(VertexOutOfRange) as err:
        LinearHypergraph(5, 3, [(0, 1, 2)], vertices=[0, 1, 2, stray])
    assert err.value.vertex == stray
    g = LinearHypergraph(5, 3, [(0, 1, 2)], vertices=[0, 1, 2, 4])
    assert g.vertices == {0, 1, 2, 4}
    with pytest.raises(VertexOutOfRange) as err:
        g.induced([0, 1, stray])
    assert err.value.vertex == stray


def test_pair_index_consistent(fano):
    for e in fano.edges:
        for a in range(3):
            for b in range(a + 1, 3):
                assert fano.edge_through(e[a], e[b]) == e
    assert fano.edge_through(0, 1) == (0, 1, 2)
    assert fano.edge_through(1, 2) == (0, 1, 2)


# -- degrees -------------------------------------------------------------------


def test_degrees_fano(fano):
    assert fano.min_degree() == 3 and fano.average_degree() == pytest.approx(3.0)
    assert all(fano.degree(v) == 3 for v in fano.vertices)


def test_degrees_single_edge():
    g = build(3, 3, [(0, 1, 2)])
    assert g.min_degree() == 1 and g.average_degree() == pytest.approx(1.0)


def test_degrees_two_disjoint_triples():
    g = build(6, 3, [(0, 1, 2), (3, 4, 5)])
    assert g.min_degree() == 1 and g.average_degree() == pytest.approx(1.0)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=5).flatmap(lambda r: st.lists(
    st.lists(st.integers(0, 15), min_size=r, max_size=r, unique=True).map(tuple),
    max_size=20,
)))
@example([])
def test_incidence_matches_a_naive_build(edges):
    naive: dict[int, list[int]] = {}
    for eid, e in enumerate(edges):
        for v in e:
            naive.setdefault(v, []).append(eid)
    # compared as item lists, so the first-seen key order counts too
    assert list(_incidence(edges).items()) == list(naive.items())


# -- projections -----------------------------------------------------------------


def test_project_single_edge():
    g = build(3, 3, [(0, 1, 2)])
    part = RPartition((frozenset({0}), frozenset({1}), frozenset({2})))
    h = project(g, part, 0, 1)
    assert h.edges == ((0, 1),)
    assert h.color[(0, 1)] == frozenset({2})
    assert h.source[(0, 1)] == (0, 1, 2)


def test_project_requires_partite():
    g = build(6, 3, [(0, 1, 2), (3, 4, 5)])
    part = RPartition((frozenset({0, 3}), frozenset({1, 5}), frozenset({2})))
    with pytest.raises(NotPartite):
        project(g, part, 0, 1)


def sorted_marks_culprit(partition, edges):
    """The first edge whose sorted class marks, -1 off every class, are not
    0..r-1 for a partition of r classes; None when every edge passes."""
    idx = {v: i for i, part in enumerate(partition.parts) for v in part}
    return next((e for e in edges
                 if sorted(idx.get(v, -1) for v in e) != list(range(len(partition.parts)))),
                None)


@st.composite
def class_maps(draw):
    """A partition of up to 5 classes over 0..n-1, some vertices in no class,
    and up to 4 edges, none repeated, of one size r that may differ from the
    class count."""
    n = draw(st.integers(min_value=2, max_value=9))
    classes = draw(st.integers(min_value=1, max_value=5))
    marks = draw(st.lists(st.none() | st.integers(0, classes - 1), min_size=n, max_size=n))
    r = draw(st.integers(min_value=2, max_value=n))
    edge = st.lists(st.integers(0, n - 1), min_size=r, max_size=r, unique=True)
    edges = draw(st.lists(edge.map(lambda e: tuple(sorted(e))), max_size=4, unique=True))
    parts = tuple(frozenset(v for v in range(n) if marks[v] == i) for i in range(classes))
    return RPartition(parts), tuple(sorted(edges))


def _parts(*classes):
    return RPartition(tuple(map(frozenset, classes)))


@settings(max_examples=300, deadline=None)
@given(class_maps())
# r = 4 under 3 classes, all of them met: only the length test rejects it
@example((_parts({0, 3}, {1}, {2}), ((0, 1, 2, 3),)))
@example((_parts({0}, {1}, {2}), ((0, 1, 4),)))  # vertex 4 is in no class
@example((_parts({0, 1}, {2}, {3}), ((0, 1, 2),)))  # class 0 twice, class 2 missed
@example((_parts({0, 1}, {2, 3}, {4}), ((0, 1, 2, 3),)))  # r = 4 under 3 classes, one missed
@example((_parts({0}, {1}, {2}), ((0, 1),)))  # r = 2 under 3 classes
@example((_parts({0, 3}, {1, 4}, {2, 5}), ((0, 1, 2), (3, 4, 5))))  # partite
def test_check_matches_the_sorted_marks_rule(case):
    partition, edges = case
    r = len(edges[0]) if edges else 3
    g = _assembled(10, r, edges, frozenset(range(10)))
    want = sorted_marks_culprit(partition, edges)
    if want is None:
        partition.check(g)
    else:
        with pytest.raises(NotPartite) as err:
            partition.check(g)
        assert err.value.edge == want


def test_projection_edge_count_matches_partite_subgraph(fano):
    sub, part = r_partite_reduction(fano, seed=1)
    h = project(sub, part, 0, 1)
    assert len(h.edges) == sub.num_edges()


@settings(max_examples=25, deadline=None)
@given(linear_graphs, st.integers(min_value=0, max_value=1000))
def test_projection_strongly_proper_on_linear_inputs(g, seed):
    try:
        sub, part = r_partite_reduction(g, seed=seed)
    except Exception:
        return
    if sub.num_edges() == 0:
        return
    h = project(sub, part, 0, 1)
    assert h.is_strongly_proper()


def test_strongly_rainbow_implies_strongly_proper():
    from lincyc import ColoredGraph

    h = ColoredGraph(
        frozenset({0, 1, 2}),
        ((0, 1), (1, 2)),
        {(0, 1): frozenset({5}), (1, 2): frozenset({6})},
    )
    assert h.is_strongly_proper()
    h2 = ColoredGraph(
        frozenset({0, 1, 2, 3}),
        ((0, 1), (2, 3)),
        {(0, 1): frozenset({5}), (2, 3): frozenset({5})},
    )
    # repeated color on non-adjacent edges: proper but not rainbow
    assert h2.is_strongly_proper()


# -- witnesses -------------------------------------------------------------------


def test_verify_cycle_accepts_triangle():
    g = build(6, 3, [(0, 1, 2), (2, 3, 4), (0, 4, 5)])
    c = verify_cycle(g, [(0, 1, 2), (2, 3, 4), (0, 4, 5)])
    assert c.length == 3


def test_verify_cycle_rejects_two_edges():
    g = build(5, 3, [(0, 1, 2), (2, 3, 4)])
    with pytest.raises(InvalidWitness):
        verify_cycle(g, [(0, 1, 2), (2, 3, 4)])


def test_verify_cycle_hand_checked_triangle():
    g = build(6, 3, [(0, 1, 2), (1, 3, 4), (2, 4, 5)])
    c = verify_cycle(g, [(0, 1, 2), (1, 3, 4), (2, 4, 5)])
    assert c.length == 3


def test_verify_cycle_rotation_and_reversal():
    g, edges = planted_c4()
    base = verify_cycle(g, edges)
    t = len(edges)
    for shift in range(t):
        rotated = edges[shift:] + edges[:shift]
        assert verify_cycle(g, rotated).length == t
        assert verify_cycle(g, list(reversed(rotated))).length == t
    assert base.vertex_set() == frozenset(range(8))


def test_verify_path_endpoints():
    g = build(5, 3, [(0, 1, 2), (2, 3, 4)])
    p = verify_path(g, [(0, 1, 2), (2, 3, 4)], (0, 4))
    assert p.length == 2 and p.connectors() == [2]
    with pytest.raises(InvalidWitness):
        verify_path(g, [(0, 1, 2), (2, 3, 4)], (2, 4))
    for endpoints in [(), (0,), (0, 1, 2)]:
        with pytest.raises(InvalidWitness, match="must be a pair"):
            verify_path(g, [(0, 1, 2)], endpoints)


def test_verify_rejects_foreign_edge(fano):
    with pytest.raises(InvalidWitness):
        verify_cycle(fano, [(0, 1, 2), (2, 3, 4), (0, 4, 5)])


# The witness checks find each edge by binary search over the sorted edges, so
# a foreign edge past either end of them, or one whose entries do not compare
# with ints, must fail as a missing edge too.


FOREIGN_EDGES = {
    "before-the-first": (-3, -2, -1),
    "between": (0, 1, 3),
    "after-the-last": (7, 8, 9),
    "strings": ("a", "b", "c"),
    "float": (0.5, 1, 2),
}


def test_foreign_edges_fall_where_they_are_named(fano):
    assert FOREIGN_EDGES["before-the-first"] < fano.edges[0]
    assert fano.edges[0] < FOREIGN_EDGES["between"] < fano.edges[-1]
    assert FOREIGN_EDGES["after-the-last"] > fano.edges[-1]
    with pytest.raises(TypeError):
        FOREIGN_EDGES["strings"] < fano.edges[0]


@pytest.mark.parametrize("kind", FOREIGN_EDGES)
def test_verify_rejects_an_edge_outside_the_sorted_edges(fano, kind):
    foreign, rest = FOREIGN_EDGES[kind], [(2, 3, 6), (0, 3, 4)]
    for witness in ([foreign] + rest, rest + [foreign]):
        message = rf"edge #{witness.index(foreign)} .* is not an edge of the graph"
        with pytest.raises(InvalidWitness, match=message):
            verify_cycle(fano, witness)
        with pytest.raises(InvalidWitness, match=message):
            verify_path(fano, witness)


# mostly the graph's own vertices and edges, so every check of the verifier is reached
witness_ints = st.integers(-2, 8) | st.integers()
witness_edges = st.sampled_from(FANO_LINES).map(list) | st.lists(witness_ints, max_size=4)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(witness_edges, max_size=6),
    st.none() | st.lists(witness_ints, max_size=4).map(tuple),
)
def test_verify_returns_a_witness_or_a_lincyc_error(edges, endpoints):
    g = LinearHypergraph(7, 3, FANO_LINES)
    try:
        verify_cycle(g, edges)
    except LincycError:
        pass
    try:
        verify_path(g, edges, endpoints)
    except LincycError:
        pass


# -- induced subgraphs -----------------------------------------------------------


def test_induced_identity(fano):
    assert fano.induced(range(7)) == fano


def test_induced_drops_partial_edges():
    g = build(3, 3, [(0, 1, 2)])
    assert g.induced({0, 1}).num_edges() == 0


def test_edge_induced_star(fano):
    star = [e for e in fano.edges if 0 in e]
    sub = fano.edge_induced(star)
    assert sub.num_edges() == 3
    assert len(sub.vertices) == 7  # the three lines through a point cover it all


def test_edge_induced_rejects_foreign_edge(fano):
    with pytest.raises(InvalidWitness):
        fano.edge_induced([(0, 1, 3)])


def test_cuts_skip_the_validating_constructor(fano, monkeypatch):
    def validate_again(*args, **kwargs):
        raise AssertionError("a subgraph went through the validating constructor")

    monkeypatch.setattr(LinearHypergraph, "__init__", validate_again)
    assert fano.induced({0, 1, 2}).edges == ((0, 1, 2),)
    assert fano.edge_induced([(2, 1, 0)]).edges == ((0, 1, 2),)


@st.composite
def cut_cases(draw):
    """A thinned greedy packing at r in {3, 4, 5}; a vertex subset that may
    hold ids outside 0..n-1; and some of its edges, in any vertex order, repeats allowed."""
    r = draw(st.sampled_from([3, 4, 5]))
    n = draw(st.integers(min_value=r, max_value=20))
    base = greedy_partial_steiner(n, r, seed=draw(st.integers(0, 10**6)), effort=2.0)
    keep = draw(st.lists(st.booleans(), min_size=base.num_edges(), max_size=base.num_edges()))
    g = build(n, r, [e for e, k in zip(base.edges, keep) if k])
    subset = draw(st.sets(st.integers(min_value=-1, max_value=n)))
    picked = []
    if g.edges:
        picked = draw(st.lists(st.sampled_from(g.edges).flatmap(st.permutations)))
    return g, subset, picked


def assert_same_graph(got, want):
    assert got.edges == want.edges
    assert got.vertices == want.vertices
    assert list(got.incident.items()) == list(want.incident.items())
    assert set(got.incident) == {v for e in got.edges for v in e}
    for v, ids in got.incident.items():
        assert ids == tuple(i for i, e in enumerate(got.edges) if v in e)
    assert got.edge_set == want.edge_set
    assert got == want


@settings(max_examples=300, deadline=None)
@given(cut_cases())
def test_cuts_match_the_validating_constructor(case):
    g, subset, picked = case
    kept = [e for e in g.edges if set(e) <= subset]
    stray = {v for v in subset if not 0 <= v < g.n}
    if stray:
        for cut in (g.induced, lambda s: LinearHypergraph(g.n, g.r, kept, vertices=s)):
            with pytest.raises(VertexOutOfRange) as err:
                cut(subset)
            assert err.value.vertex == min(stray)
        subset -= stray
    sub = g.induced(subset)
    assert_same_graph(sub, LinearHypergraph(g.n, g.r, kept, vertices=subset))
    assert_same_graph(
        g.edge_induced(picked),
        LinearHypergraph(g.n, g.r, picked, vertices={v for e in picked for v in e}),
    )
    assert_same_graph(g.edge_induced([]), LinearHypergraph(g.n, g.r, [], vertices=frozenset()))
    ids = range(-1, g.n + 1)
    for h in (g, sub):
        for u in ids:
            for v in ids:
                want = next((e for e in h.edges if u in e and v in e and u != v), None)
                assert h.edge_through(u, v) == want


# -- indexes built on first read --------------------------------------------------
#
# incident and edge_set stay unset until first read, when __getattr__ fills the
# slot.  The slot descriptor's __get__ bypasses __getattr__, so it tells an
# unset slot from a set one without filling it.

INDEXES = ("incident", "edge_set")

FRESH_GRAPHS = {
    "constructor": lambda: build(7, 3, FANO_LINES),
    "assembled": lambda: _assembled(7, 3, tuple(sorted(FANO_LINES)), frozenset(range(7))),
    "induced": lambda: build(7, 3, FANO_LINES).induced({0, 1, 2, 3, 4, 5}),
    "edge_induced": lambda: build(7, 3, FANO_LINES).edge_induced(FANO_LINES[:3]),
    "packing": lambda: greedy_partial_steiner(40, 3, seed=5, effort=1.0),
}


def is_built(g, name):
    try:
        getattr(LinearHypergraph, name).__get__(g)
    except AttributeError:
        return False
    return True


def assert_eager_indexes(g):
    want = {v: tuple(ids) for v, ids in _incidence(g.edges).items()}
    assert list(g.incident.items()) == list(want.items())
    assert g.edge_set == frozenset(g.edges)


@pytest.mark.parametrize("kind", FRESH_GRAPHS)
def test_indexes_are_built_on_their_first_read(kind):
    g = FRESH_GRAPHS[kind]()
    assert not any(is_built(g, name) for name in INDEXES)
    incident = g.incident
    assert is_built(g, "incident") and not is_built(g, "edge_set")
    assert g.incident is incident
    edge_set = g.edge_set
    assert is_built(g, "edge_set") and g.edge_set is edge_set
    assert_eager_indexes(g)


@pytest.mark.parametrize("kind", FRESH_GRAPHS)
def test_other_missing_attributes_stay_missing(kind):
    g = FRESH_GRAPHS[kind]()
    assert not hasattr(g, "nope")
    with pytest.raises(AttributeError, match="nope"):
        g.nope
    assert not any(is_built(g, name) for name in INDEXES)


@pytest.mark.parametrize("kind", FRESH_GRAPHS)
@pytest.mark.parametrize("read_first", [False, True])
def test_pickle_and_deepcopy_round_trip(kind, read_first):
    g = FRESH_GRAPHS[kind]()
    if read_first:
        g.incident, g.edge_set
    for twin in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
        assert twin == g and twin is not g
        assert (twin.n, twin.r, twin.edges, twin.vertices) == (g.n, g.r, g.edges, g.vertices)
        assert not any(is_built(twin, name) for name in INDEXES)
        assert_eager_indexes(twin)
    assert all(is_built(g, name) for name in INDEXES) == read_first


@pytest.mark.parametrize("kind", FRESH_GRAPHS)
def test_equality_and_hashing_read_no_index(kind):
    g, h = FRESH_GRAPHS[kind](), FRESH_GRAPHS[kind]()
    assert g == h and hash(g) == hash(h) and len({g, h}) == 1
    assert g != build(7, 3, [(0, 1, 2)])
    assert not any(is_built(x, name) for x in (g, h) for name in INDEXES)


# -- the caller's graph and edges --------------------------------------------------
#
# The constructor keeps an edge given as a sorted plain tuple, so a graph built
# from another graph's edges shares their tuples; any other edge becomes a new
# sorted plain tuple.  Neither pipeline nor the witness checks leave an index
# on the graph they are given.


def test_a_graph_built_from_another_graphs_edges_shares_their_tuples():
    base = greedy_partial_steiner(60, 3, seed=2, effort=1.0)
    picked = base.edges[::3]
    for g in (LinearHypergraph(base.n, 3, picked), build(base.n, 3, reversed(picked))):
        assert g.edges == picked
        assert all(a is b for a, b in zip(g.edges, picked))


Row = namedtuple("Row", "a b c")


@pytest.mark.parametrize("shape", ["list", "unsorted-tuple", "namedtuple"])
def test_other_edges_become_new_sorted_plain_tuples(shape):
    rows = {"list": lambda e: list(e)[::-1],
            "unsorted-tuple": lambda e: tuple(e)[::-1],
            "namedtuple": lambda e: Row(*e)}[shape]
    given = [rows(e) for e in FANO_LINES]
    g = LinearHypergraph(7, 3, given)
    assert g.edges == tuple(sorted(FANO_LINES))
    assert all(type(e) is tuple for e in g.edges)
    assert not any(e is row for e in g.edges for row in given)
    if shape == "list":
        for row in given:
            row[:] = [0, 0, 0]
        assert g.edges == tuple(sorted(FANO_LINES))


# -- the constructor's checks against the scan they replaced ------------------------
#
# The constructor checks canonical input (plain sorted r-tuples in sorted
# order) by passes over its columns and a set of pair keys, and runs the
# ordered scan only to name a violation.  The reference is the constructor's
# body before that, verbatim, returning what it stored.


def reference_init(n, r, edges, vertices=None):
    if r < 2:
        raise NonUniformEdge((), r)
    norm = set()
    for e in edges:
        t = tuple(sorted(e))
        if len(t) != r or len(set(t)) != r:
            raise NonUniformEdge(t, r)
        # keep a caller's canonical tuple, often another graph's edge,
        # rather than a second copy of it
        norm.add(e if type(e) is tuple and e == t else t)
    edges = tuple(sorted(norm))
    vertices = _everyone(n) if vertices is None else _in_range(vertices, n)
    first_edge = {}
    for eid, e in enumerate(edges):
        for v in e:
            if v not in vertices:  # a subset of range(n) by now
                raise VertexOutOfRange(v, n)
        for p in combinations(e, 2):
            if first_edge.setdefault(p, eid) != eid:
                raise DuplicatePair(p, first_edge[p], eid)
    return edges, vertices


ROWS = {k: namedtuple(f"Row{k}", [f"v{i}" for i in range(k)]) for k in range(1, 6)}
SHAPES = {
    "tuple": tuple,
    "list": list,
    "unsorted-tuple": lambda e: tuple(e)[::-1],
    "namedtuple": lambda e: ROWS[len(e)](*e),
}


@st.composite
def constructor_inputs(draw):
    """A greedy packing's edges with up to three faulty edges inserted; half
    the time canonical apart from the faults (sorted plain tuples, sorted
    again after the faults go in), otherwise reordered and reshaped.  With
    them the container they come in and a vertices= argument or None."""
    r = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(min_value=r, max_value=24))
    base = greedy_partial_steiner(n, r, seed=draw(st.integers(0, 10**6)),
                                  effort=draw(st.sampled_from([0.2, 1.0])))
    canonical = draw(st.booleans())
    order = "sorted" if canonical else draw(
        st.sampled_from(["sorted", "shuffled", "reversed", "duplicated"]))
    rows = list(base.edges)
    if order == "shuffled":
        rows = draw(st.permutations(rows))
    elif order == "reversed":
        rows.reverse()
    elif order == "duplicated" and rows:
        rows += draw(st.lists(st.sampled_from(rows), min_size=1, max_size=5))

    def distinct(pool, k):
        if k == 0:
            return []
        return draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k, unique=True))

    everyone = list(range(n))
    pair_faults = st.sampled_from(["early-pair", "late-pair"])
    other_faults = st.sampled_from(["short", "repeated", "minus-one", "n", "1.5"])
    for fault in draw(st.lists(pair_faults | other_faults, max_size=3)):
        if fault == "short":
            bad = distinct(everyone, r - 1)
        elif fault == "repeated":
            bad = distinct(everyone, r - 1)
            bad.append(bad[0])
        elif fault in ("minus-one", "n", "1.5"):
            bad = distinct(everyone, r - 1) + [{"minus-one": -1, "n": n, "1.5": 1.5}[fault]]
        else:  # a second edge through a pair of the first or the last edge
            if not base.edges:
                continue
            e = base.edges[0 if fault == "early-pair" else -1]
            rest = [v for v in everyone if v not in e]
            if len(rest) < r - 2:
                continue
            bad = list(draw(st.sampled_from(list(combinations(e, 2))))) + distinct(rest, r - 2)
        if canonical or draw(st.booleans()):
            bad.sort()
        else:
            bad = draw(st.permutations(bad))
        rows.insert(draw(st.integers(0, len(rows))), tuple(bad))
    if order == "sorted":
        rows.sort()
    shape = "tuple" if canonical else draw(st.sampled_from(sorted(SHAPES) + ["mixed"]))
    shapes = (draw(st.lists(st.sampled_from(sorted(SHAPES)), min_size=len(rows),
                            max_size=len(rows)))
              if shape == "mixed" else [shape] * len(rows))
    rows = [SHAPES[s](e) for s, e in zip(shapes, rows)]
    container = draw(st.sampled_from(["list", "tuple", "generator"]))
    make = {"list": lambda: list(rows), "tuple": lambda: tuple(rows),
            "generator": lambda: (e for e in rows)}[container]
    support = sorted({v for e in base.edges for v in e})
    vertices = draw(st.just("none")
                    | st.sampled_from(["support", "everyone", "missing-one", "stray"]))
    if vertices == "missing-one" and support:
        support.remove(draw(st.sampled_from(support)))
    if vertices == "stray":
        support.append(n)
    chosen = None if vertices == "none" else frozenset(everyone if vertices == "everyone"
                                                         else support)
    return n, r, rows, make, chosen


def outcome(construct):
    try:
        return construct()
    except LincycError as err:
        return err


@settings(max_examples=400, deadline=None)
@given(constructor_inputs())
def test_the_constructor_matches_the_ordered_scan(case):
    n, r, rows, make, vertices = case
    want = outcome(lambda: reference_init(n, r, make(), vertices))
    got = outcome(lambda: LinearHypergraph(n, r, make(), vertices=vertices))
    if isinstance(want, LincycError):
        assert type(got) is type(want)
        assert str(got) == str(want) and vars(got) == vars(want)
        return
    edges, verts = want
    assert got.edges == edges and got.vertices is verts
    given_ids = {id(e) for e in rows}
    for mine, theirs in zip(got.edges, edges):
        assert mine is theirs if id(theirs) in given_ids else id(mine) not in given_ids


def test_a_canonical_edge_list_is_checked_without_collections():
    # the pair scan made three pair tuples an edge, about 100 collections here
    packing = greedy_partial_steiner(500, 3, seed=1, effort=1.0)
    edges = list(packing.edges)
    assert len(edges) == 25_968
    threshold, enabled = gc.get_threshold(), gc.isenabled()
    gc.set_threshold(700, 10, 10)
    gc.enable()
    try:
        gc.collect()
        before = gc.get_stats()[0]["collections"]
        g = LinearHypergraph(500, 3, edges)
        collections = gc.get_stats()[0]["collections"] - before
    finally:
        gc.set_threshold(*threshold)
        if not enabled:
            gc.disable()
    assert collections <= 2
    assert g.edges == packing.edges
    assert all(a is b for a, b in zip(g.edges, packing.edges))


def test_pipelines_and_witness_checks_leave_the_callers_graph_bare():
    g = greedy_partial_steiner(150, 3, seed=0)
    for pipeline in (even_consecutive_cycles, consecutive_cycles):
        report = pipeline(g, 2, seed=0)
        assert report.success
        for cycle in report.outcome.cycles:
            verify_cycle(g, cycle.edges)
            verify_path(g, cycle.edges[1:])
        assert not any(is_built(g, name) for name in INDEXES)


# -- one vertex set per n ---------------------------------------------------------
#
# Every graph that spans all of range(n) holds the same frozenset, filed by n in
# a weak-value registry: the set lives as long as some graph holds it.


def test_graphs_of_one_n_share_one_vertex_set(fano):
    text, doc = fano.to_text(), fano.to_json()
    graphs = [LinearHypergraph(7, 3, FANO_LINES), build(7, 3, FANO_LINES),
              LinearHypergraph.from_text(text), LinearHypergraph.from_json(doc),
              LinearHypergraph.from_json_obj(json.loads(doc)), LinearHypergraph(7, 3, [])]
    assert all(g.vertices is fano.vertices for g in graphs)
    assert fano.vertices == frozenset(range(7))
    assert LinearHypergraph(8, 3, FANO_LINES).vertices is not fano.vertices
    assert LinearHypergraph(0, 3, []).vertices is LinearHypergraph(0, 3, []).vertices


def test_the_shared_vertex_set_dies_with_its_last_graph():
    n = 4093  # an n that no other test keeps a graph of
    g, h = LinearHypergraph(n, 3, [(0, 1, 2)]), LinearHypergraph(n, 3, [])
    gone = weakref.ref(g.vertices)
    del g
    gc.collect()
    assert gone() is h.vertices
    del h
    gc.collect()
    assert gone() is None
    assert LinearHypergraph(n, 3, []).vertices == frozenset(range(n))


def test_a_shared_vertex_set_keeps_equality_hashing_and_pickling():
    edges = [(0, 1, 2), (2, 3, 4)]
    g = LinearHypergraph(300, 3, edges)
    twin = pickle.loads(pickle.dumps(g))
    private = _assembled(300, 3, tuple(edges), frozenset(range(300)))
    for other in (twin, private):
        assert other == g and hash(other) == hash(g)
        assert list(other.vertices) == list(g.vertices)


def test_graphs_of_one_n_allocate_no_vertex_set_each():
    # 20 private copies of a 2000-vertex set would take about 3.6 MB
    edges = [(0, 1, 2), (0, 3, 4)]
    keep = LinearHypergraph(2000, 3, edges)
    one_set = sys.getsizeof(frozenset(range(2000)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        more = [LinearHypergraph(2000, 3, edges) for _ in range(20)]
        allocated = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert allocated < one_set
    assert all(g.vertices is keep.vertices for g in more)


# -- cycle families ---------------------------------------------------------------


def _cycle_of_length(t: int, offset: int = 0) -> LinearCycle:
    conn = [offset + i for i in range(t)]
    nxt = offset + t
    edges = []
    for i in range(t):
        edges.append(tuple(sorted((conn[i], conn[(i + 1) % t], nxt))))
        nxt += 1
    return LinearCycle(tuple(edges))


def test_cycle_family_validation():
    fam = CycleFamily([_cycle_of_length(4), _cycle_of_length(6, 100)], "EVEN", bound=4)
    fam.validate()
    bad = CycleFamily([_cycle_of_length(4), _cycle_of_length(7, 100)], "EVEN")
    with pytest.raises(InvalidWitness):
        bad.validate()
    gap = CycleFamily([_cycle_of_length(3), _cycle_of_length(5, 100)], "ALL")
    with pytest.raises(InvalidWitness):
        gap.validate()
    over = CycleFamily([_cycle_of_length(5)], "ALL", bound=4)
    with pytest.raises(InvalidWitness):
        over.validate()


@pytest.mark.parametrize("parity", ["ALL", "EVEN"])
def test_empty_cycle_family_is_refused(parity):
    with pytest.raises(InvalidWitness, match="at least one cycle"):
        CycleFamily([], parity).validate()


# -- serialization -----------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(linear_graphs)
def test_round_trip_text_and_json(g):
    assert LinearHypergraph.from_text(g.to_text()) == LinearHypergraph(g.n, g.r, g.edges)
    assert LinearHypergraph.from_json(g.to_json()) == LinearHypergraph(g.n, g.r, g.edges)


def test_parsed_edges_share_one_int_per_vertex():
    # the parsers mint a fresh int for every token; they keep the first
    g = greedy_partial_steiner(1000, 3, seed=5, effort=0.1)
    vertices = {v for e in g.edges for v in e}
    for parsed in (LinearHypergraph.from_text(g.to_text()),
                   LinearHypergraph.from_json(g.to_json())):
        assert parsed == g
        assert len({id(v) for e in parsed.edges for v in e}) == len(vertices)


def test_text_format_shape(fano):
    lines = fano.to_text().splitlines()
    assert lines[0] == "3 7 7"
    assert lines[1:] == [" ".join(map(str, e)) for e in sorted(FANO_LINES)]


def test_json_format_shape(fano):
    obj = json.loads(fano.to_json())
    assert set(obj) == {"r", "n", "edges"}
    assert obj["edges"] == [list(e) for e in fano.edges]


@pytest.mark.parametrize("text,line", [
    ("", None),
    ("\n  \n", None),
    ("3 7\n0 1 2\n", 1),
    ("3 7 1 1\n0 1 2\n", 1),
    ("3 7 x\n0 1 2\n", 1),
    ("3 7 1\n0 1 x\n", 2),
    ("3 7 1\n\n0 1 2.0\n", 3),
    ("3 7 7\n0 1 2\n0 3 4\n", 1),
    ("3 7 1\n0 1 2\n0 3 4\n", 1),
    ("3 -1 0\n", 1),
])
def test_from_text_rejects_malformed_input(text, line):
    with pytest.raises(MalformedInput) as err:
        LinearHypergraph.from_text(text)
    assert err.value.line == line
    if line is not None:
        assert str(err.value).startswith(f"line {line}: ")


def test_from_text_skips_blank_lines(fano):
    text = "\n" + fano.to_text().replace("\n", "\n\n")
    assert LinearHypergraph.from_text(text) == fano


@pytest.mark.parametrize("text", [
    "[]",
    '{"r": 3, "n": 3}',
    '{"n": 3, "edges": [[0, 1, 2]]}',
    '{"r": "3", "n": 3, "edges": [[0, 1, 2]]}',
    '{"r": 3, "n": 3.0, "edges": [[0, 1, 2]]}',
    '{"r": 3, "n": true, "edges": [[0, 1, 2]]}',
    '{"r": 3, "n": 3, "edges": [0, 1, 2]}',
    '{"r": 3, "n": 3, "edges": [[0, 1, "2"]]}',
    '{"r": 3, "n": 3, "edges": {"0": [0, 1, 2]}}',
    '{"r": 3, "n": -1, "edges": []}',
])
def test_from_json_rejects_missing_or_ill_typed_keys(text):
    with pytest.raises(MalformedInput):
        LinearHypergraph.from_json(text)


def test_parsers_refuse_a_vertex_count_past_the_cap():
    n = MAX_PARSED_VERTICES + 1
    with pytest.raises(TooLarge, match="exceeds the cap"):
        LinearHypergraph.from_text(f"3 {n} 0\n")
    with pytest.raises(TooLarge, match="exceeds the cap"):
        LinearHypergraph.from_json_obj({"r": 3, "n": n, "edges": []})


# tokens of at most three characters keep every parsed n small
tokens = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "4", "7", "-1", "x", "2.5", "1_0"]),
    st.text(max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(tokens, max_size=5).map(" ".join), max_size=8).map("\n".join))
def test_from_text_returns_a_graph_or_a_lincyc_error(text):
    try:
        g = LinearHypergraph.from_text(text)
    except LincycError:
        return
    assert LinearHypergraph.from_text(g.to_text()) == g


# Integers stay below 10,001 to keep each parsed graph small: the vertex set is
# all of range(n) for any n up to MAX_PARSED_VERTICES, above which the parsers
# raise TooLarge.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10_000) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20,
)
graph_objects = st.fixed_dictionaries({
    "r": st.integers(-1, 5) | json_values,
    "n": st.integers(-3, 12) | json_values,
    "edges": st.lists(st.lists(st.integers(-2, 12), max_size=5), max_size=6) | json_values,
})


@settings(max_examples=300, deadline=None)
@given(graph_objects | json_values)
def test_from_json_obj_returns_a_graph_or_a_lincyc_error(obj):
    try:
        g = LinearHypergraph.from_json_obj(obj)
    except LincycError:
        return
    assert LinearHypergraph.from_json_obj(g.to_json_obj()) == g
