"""Acceptance gate: one test per criterion, each printing a PASS line with its
measured numbers.  Criteria:

1. witness soundness over 500 seeded engine runs (n <= 2000, r = 3, 4)
2. engine/planted lengths contained in complete oracle spectra (100 runs, n <= 60)
3. transversal-part paths at their stated degree regime (100 runs, k = 1..5)
4. two-class rainbow paths at their stated degree regime (100 runs) plus an
   exhaustive-search cross-check on small graphs
5. layered-tree invariants and determinism on 200 random partite inputs
6. partite reduction keeps at least an r!/r^r edge fraction (100 runs, r = 3..5)
7. sparsified generator: degree >= 4 and girth > 3 at n = 5000 over 20 seeds
8. threshold-constant arithmetic and the exact-even-length cap chain
9. serialization round-trips (1000 graphs) and byte-identical reports
"""

from __future__ import annotations

import math
import random
import time

import pytest

from lincyc import (
    Constants,
    LinearHypergraph,
    RPartition,
    RetriesExhausted,
    build_mert,
    consecutive_cycles,
    enumerate_cycles,
    even_consecutive_cycles,
    find_c2k,
    girth,
    greedy_partial_steiner,
    high_girth_sparsify,
    path_with_part,
    plant_cycles,
    r_partite_reduction,
    rainbow_path_exists,
    rainbow_special_path,
    verify_cycle,
)
from lincyc.errors import NotFound
from lincyc.pathfinder import check_rainbow_special
from conftest import difference_projection, split_edges, transversal_regular_instance


def _check_family(g, report):
    """Re-verify a successful report with the core checkers only."""
    fam = report.outcome
    lengths = sorted(c.length for c in fam.cycles)
    step = 2 if fam.parity == "EVEN" else 1
    assert lengths == list(range(lengths[0], lengths[0] + step * len(lengths), step))
    if fam.parity == "EVEN":
        assert all(l % 2 == 0 for l in lengths)
    for c in fam.cycles:
        verify_cycle(g, c.edges)
    return lengths


def _sparsified(n: int, r: int, d: float, seed: int) -> LinearHypergraph:
    rng = random.Random(seed)
    base = greedy_partial_steiner(n, r, seed=seed, effort=1.0)
    p = min(1.0, d * n / max(1, r * base.num_edges()))
    return LinearHypergraph(n, r, [e for e in base.edges if rng.random() < p])


def test_criterion_1_witness_soundness_500_runs():
    start = time.time()
    runs = successes = cycles_checked = 0
    rng = random.Random(20260823)
    while runs < 500:
        i = runs
        r = 4 if i % 5 == 4 else 3
        if i % 25 == 24:
            n = rng.choice([1200, 2000])
            g = _sparsified(n, 3, 6.0, seed=i)
        elif i % 2 == 0:
            n = rng.randrange(100, 401)
            lengths = sorted(rng.sample([3, 4, 5, 6, 7], rng.randrange(1, 3)))
            if sum((r - 1) * t for t in lengths) > n:
                lengths = lengths[:1]
            g, _ = plant_cycles(n, r, lengths, background_density=1.0, seed=i)
        else:
            n = rng.randrange(100, 401)
            g = _sparsified(n, r, rng.choice([4.0, 8.0, 16.0]), seed=i)
        k = 2 + (i % 2)
        runner = consecutive_cycles if i % 3 == 0 else even_consecutive_cycles
        report = runner(g, k, seed=i)
        if report.success:
            successes += 1
            cycles_checked += len(_check_family(g, report))
        runs += 1
    elapsed = time.time() - start
    assert elapsed < 300, f"took {elapsed:.0f}s"
    assert successes > 0
    print(
        f"ACCEPTANCE 1 PASS: 500 runs, {successes} families, "
        f"{cycles_checked} cycles re-verified, {elapsed:.0f}s"
    )


def test_criterion_2_oracle_agreement_100_instances():
    start = time.time()
    agree = finder_hits = finder_misses = 0
    rng = random.Random(7)
    for i in range(100):
        n = rng.randrange(30, 61)
        even = rng.choice([4, 6])
        lengths = sorted({even} | set(rng.sample([3, 4, 5, 6], rng.randrange(0, 2))))
        while sum(2 * t for t in lengths) > n:
            lengths = [t for t in lengths if t != max(lengths) or t == even]
        g, planted = plant_cycles(
            n, 3, lengths, background_density=rng.choice([0.3, 0.6]), seed=i
        )
        spec = enumerate_cycles(g, 10)
        assert spec.complete
        assert set(lengths) <= spec.lengths
        # positive direction: the exact-length finder must hit every even
        # length the oracle reports
        for target in sorted(l for l in spec.lengths if l % 2 == 0 and l <= 8):
            c = find_c2k(g, target // 2, seed=i)
            assert c.length == target
            verify_cycle(g, c.edges)
            finder_hits += 1
        # negative direction: it must fail on even lengths the oracle rules out
        for target in (4, 6, 8):
            if target not in spec.lengths:
                with pytest.raises(NotFound):
                    find_c2k(g, target // 2, seed=i)
                finder_misses += 1
        report = (consecutive_cycles if i % 2 else even_consecutive_cycles)(g, 2, seed=i)
        if report.success:
            got = {c.length for c in report.outcome.cycles if c.length <= 10}
            assert got <= spec.lengths
        agree += 1
    elapsed = time.time() - start
    assert elapsed < 600, f"took {elapsed:.0f}s"
    print(
        f"ACCEPTANCE 2 PASS: {agree} instances, {finder_hits} finder hits and "
        f"{finder_misses} ruled-out lengths agree with complete spectra, {elapsed:.0f}s"
    )


def test_criterion_3_transversal_paths_100_runs():
    runs = 0
    for i in range(100):
        k = 1 + i % 5
        q = 3 * k + (i // 5) % 4
        f, anchors = transversal_regular_instance(q, seed=i)
        assert f.min_degree() >= 3 * k
        p = path_with_part(f, anchors, k)
        assert p.length >= k + 2
        assert not set(p.connectors()) & anchors
        runs += 1
    print(f"ACCEPTANCE 3 PASS: {runs} transversal paths, all length >= k+2")


def test_criterion_4_rainbow_paths_100_runs():
    runs = 0
    for i in range(100):
        ell = 2 if i % 2 == 0 else 4
        q = 12 * ell + i % 5
        h = difference_projection(q, seed=i)
        assert h.min_degree() >= 4 * 3 * ell
        e1, e2 = split_edges(h, seed=1000 + i)
        path = rainbow_special_path(h, e1, e2, ell)
        check_rainbow_special(h, {tuple(sorted(e)) for e in e1}, path, ell)
        runs += 1
    cross = hits = 0
    for i in range(20):
        h = difference_projection(8 + i % 3, seed=i)
        e1, e2 = split_edges(h, seed=2000 + i)
        try:
            path = rainbow_special_path(h, e1, e2, 3, best_effort=True)
        except NotFound:
            continue
        check_rainbow_special(h, {tuple(sorted(e)) for e in e1}, path, 3)
        assert rainbow_path_exists(h, e1, e2, 3)
        hits += 1
        cross += 1
    assert hits > 0
    print(
        f"ACCEPTANCE 4 PASS: {runs} rainbow paths at regime, "
        f"{cross} cross-checked exhaustively"
    )


def test_criterion_5_tree_invariants_200_runs():
    built = 0
    rng = random.Random(99)
    for i in range(200):
        r = 4 if i % 4 == 3 else 3
        n = rng.randrange(40, 90)
        g = greedy_partial_steiner(n, r, seed=i, effort=2.0)
        sub, part = r_partite_reduction(g, seed=i)
        if sub.num_edges() == 0:
            continue
        root = min(sub.vertices, key=lambda v: (-sub.degree(v), v))
        parts = list(part.parts)
        idx = next(j for j, p in enumerate(parts) if root in p)
        rotated = RPartition(
            tuple([parts[idx]] + [p for j, p in enumerate(parts) if j != idx])
        )
        m1 = build_mert(sub, rotated, root)
        m2 = build_mert(sub, rotated, root)
        assert m1.to_json() == m2.to_json()
        pm = rotated.index_map()
        seen: set[int] = set()
        for c in m1.chi.values():
            assert not c & m1.tree_vertices and not c & seen
            seen |= c
        for j, lvl in enumerate(m1.levels):
            assert len({pm[v] for v in lvl}) <= 1
        for j, match in m1.matchings.items():
            flat: set[int] = set()
            for t in match:
                assert not set(t) & flat
                flat |= set(t)
        for j in range(2, m1.height + 1):
            prev = m1.levels[j - 1]
            early = frozenset().union(*map(m1.segment_vertices, range(j - 1)))
            for e in m1.segment_edges(j):
                assert len(prev.intersection(e)) == 1
                assert not early.intersection(e)
        built += 1
    assert built >= 190
    print(f"ACCEPTANCE 5 PASS: {built} trees built twice, invariants + determinism")


def test_criterion_6_partite_fraction_100_runs():
    runs = 0
    for i in range(100):
        r = (3, 4, 5)[i % 3]
        n = {3: 45, 4: 60, 5: 80}[r]
        g = greedy_partial_steiner(n, r, seed=i, effort=2.0)
        sub, part = r_partite_reduction(g, seed=i)
        assert sub.num_edges() >= math.factorial(r) / r**r * g.num_edges()
        part.check(sub)
        runs += 1
    print(f"ACCEPTANCE 6 PASS: {runs} reductions all above the r!/r^r fraction")


def test_criterion_7_sparsified_generator_n5000():
    start = time.time()
    base = greedy_partial_steiner(5000, 3, seed=0, effort=0.45)
    ok = exhausted = 0
    for seed in range(20):
        try:
            report = high_girth_sparsify(base, 4.0, 3, seed=seed)
        except RetriesExhausted:
            exhausted += 1
            continue
        assert report.average_degree >= 4.0
        assert girth(report.graph, 3) is None
        ok += 1
    elapsed = time.time() - start
    assert exhausted <= 2, f"{exhausted}/20 draws exhausted retries"
    assert elapsed < 300, f"took {elapsed:.0f}s"
    print(
        f"ACCEPTANCE 7 PASS: {ok}/20 seeds at degree >= 4 with girth > 3, "
        f"{exhausted} exhausted, {elapsed:.0f}s"
    )


def test_criterion_8_constant_arithmetic():
    for r in (3, 4, 5):
        for k in (2, 3, 5):
            c = Constants(r, k)
            assert abs(c.c1_all - 2 ** (4 * r + 8) * r**3) <= 1e-12
            assert abs(c.c3_all - 2 ** (4 * r + 4) * r**5) <= 1e-12
            assert abs(c.c2_all - math.log2(2 ** (4 * r + 4) * r**5)) <= 1e-12
            assert abs(c.c1_even - 128 * r ** (2 * r + 3)) <= 1e-12
            assert abs(c.c2_even - math.log2(64 * k * r ** (2 * r + 2))) <= 1e-12
            assert abs(c.c3_part - 128 * r ** (r + 3)) <= 1e-12
            assert abs(c.c4_part - math.log2(64 * k * r ** (r + 2))) <= 1e-12
    # exact-even-length cap: above the edge threshold 64k^2 r^{2r+3} n^{1+1/k}
    # the even interval's start index stays at most k
    r = 3
    for k in range(2, 6):
        c = Constants(r, k)
        for n in (10**2, 10**4, 10**6, 10**9):
            d_over_k = 64 * k * r ** (2 * r + 4) * n ** (1.0 / k)
            gap = math.log2(d_over_k) - c.c2_even
            assert abs(gap - (2 * math.log2(r) + math.log2(n) / k)) <= 1e-9
            cap = math.ceil(math.log2(n) / gap)
            assert cap <= k, f"cap {cap} > k {k} at n={n}"
    print("ACCEPTANCE 8 PASS: constants for r in 3..5, k in {2,3,5}; cap chain k=2..5")


def test_criterion_9_round_trips_and_determinism():
    rng = random.Random(4242)
    for i in range(1000):
        r = rng.choice([3, 4, 5])
        n = rng.randrange(r, 45)
        g = greedy_partial_steiner(n, r, seed=i, effort=1.0)
        assert LinearHypergraph.from_text(g.to_text()) == LinearHypergraph(
            g.n, g.r, g.edges
        )
        assert LinearHypergraph.from_json(g.to_json()) == LinearHypergraph(
            g.n, g.r, g.edges
        )
    g = greedy_partial_steiner(150, 3, seed=0)
    for runner in (even_consecutive_cycles, consecutive_cycles):
        a = runner(g, 2, seed=3).to_json()
        b = runner(g, 2, seed=3).to_json()
        assert a == b and a.encode() == b.encode()
    print("ACCEPTANCE 9 PASS: 1000 round-trips, byte-identical reports")
