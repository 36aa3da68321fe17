"""Data model: construction validation, degrees, projections, witnesses,
serialization round-trips."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
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
    VertexOutOfRange,
    build,
    greedy_partial_steiner,
    project,
    r_partite_reduction,
    verify_cycle,
    verify_path,
)
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
    hold non-vertices; and some of its edges, in any vertex order, repeats allowed."""
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
    sub = g.induced(subset)
    kept = [e for e in g.edges if set(e) <= subset]
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


# -- serialization -----------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(linear_graphs)
def test_round_trip_text_and_json(g):
    assert LinearHypergraph.from_text(g.to_text()) == LinearHypergraph(g.n, g.r, g.edges)
    assert LinearHypergraph.from_json(g.to_json()) == LinearHypergraph(g.n, g.r, g.edges)


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


# Integers stay below 10,001: the vertex set is built as frozenset(range(n)), so a
# huge n costs memory rather than raising, which is a separate open item.
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
