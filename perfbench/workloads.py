"""The three workloads: how each builds its instances from the run seed, the
call it times, the checks on every output, and the record each call adds to
the behaviour digest.

A workload is a cyclic sequence of call kinds and sizes; a run takes the
first ``round(RATE * seconds)`` of them, so the batch size depends only on
``--seconds`` (never on how fast the code is) and a run at the reference
speed lasts about ``seconds``.  Everything random (packings, sparsification
coins, planted instances, call seeds) comes from the run seed; the mix of
kinds and sizes does not, which keeps the figures of different seeds close.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

import lincyc as lc


@dataclass
class Call:
    kind: str
    fn: Callable
    args: tuple
    check: Callable  # (args, outcome) -> (success, error message or None)
    record: Callable  # (args, outcome) -> str for the digest

    def run(self):
        return self.fn(*self.args)


class Crash:
    """An exception the call raised; always counted as an operation error."""

    def __init__(self, text: str):
        self.text = text


# -- shared helpers ------------------------------------------------------------


def sparsified(base, d: float, rng: random.Random):
    """The acceptance suite's recipe: keep each packing edge with the
    probability that leaves average degree about d."""
    n, r = base.n, base.r
    p = min(1.0, d * n / max(1, r * base.num_edges()))
    return lc.LinearHypergraph(n, r, [e for e in base.edges if rng.random() < p])


class Bases:
    """Greedy packings shared by every instance of the same (n, r), built on
    first use so a short run only pays for the sizes it draws."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.built: dict = {}

    def get(self, n: int, r: int, effort: float = 1.0):
        if (n, r) not in self.built:
            seed = self.rng.getrandbits(32)
            self.built[n, r] = lc.greedy_partial_steiner(n, r, seed=seed, effort=effort)
        return self.built[n, r]


def check_family(g, report, k: int, parity: str):
    """Success iff the report holds a family; an error iff that family fails
    an independent re-check against the input graph."""
    if not report.success:
        return False, None
    fam = report.outcome
    lengths = sorted(c.length for c in fam.cycles)
    step = 2 if parity == "EVEN" else 1
    if fam.parity != parity or len(lengths) != k:
        return False, f"family {fam.parity} {lengths}, wanted {k} {parity} lengths"
    if lengths != list(range(lengths[0], lengths[0] + step * k, step)):
        return False, f"lengths {lengths} are not consecutive with step {step}"
    if parity == "EVEN" and any(t % 2 for t in lengths):
        return False, f"odd length in even family {lengths}"
    for c in fam.cycles:
        try:
            lc.verify_cycle(g, c.edges)
        except lc.InvalidWitness as err:
            return False, f"cycle fails re-verification: {err}"
    return True, None


def report_record(args, report) -> str:
    return args[0].to_text() + report.to_json()


# -- even-sparse ---------------------------------------------------------------

# calls per second at the reference speed (2-core x86 sandbox, Python 3.11)
EVEN_RATE = 12.0
R3_SIZES = (100, 175, 250, 325, 400)
R4_SIZES = (100, 250, 400)
DEGREES = (4.0, 8.0, 16.0)


def _even_call(g, k, seed):
    return lc.even_consecutive_cycles(g, k, seed=seed)


def _even_check(args, report):
    return check_family(args[0], report, args[1], "EVEN")


def even_sparse(rng: random.Random, count: int) -> list[Call]:
    """Criterion 1's even-pipeline traffic: r in {3, 4} (one call in five at
    r = 4), k alternating 2, 3, d cycling 4, 8, 16, n from 100 to 400, and one
    call in twelve at n = 2000 (three of four) or 1200 with d = 6.  That
    share puts more than ten n = 2000 calls in a 20 s batch, so they set
    call_ms_tail."""
    bases = Bases(rng)
    calls = []
    small3 = small4 = big = 0
    for i in range(count):
        if i % 12 == 11:
            n = 1200 if big % 4 == 3 else 2000
            k = 2 + big % 2
            big += 1
            # a sparse base (four times the target edge count) instead of a
            # near-maximal packing: effort 1.0 at n = 2000 costs ~15 s per base
            base = bases.get(n, 3, effort=8 * 6.0 / (3 * (n - 1)))
            d = 6.0
        else:
            k = 2 + i % 2
            if i % 5 == 4:
                j, small4, r, sizes = small4, small4 + 1, 4, R4_SIZES
            else:
                j, small3, r, sizes = small3, small3 + 1, 3, R3_SIZES
            d = DEGREES[j % 3]
            base = bases.get(sizes[j // 3 % len(sizes)], r)
        g = sparsified(base, d, rng)
        calls.append(Call("even", _even_call, (g, k, rng.randrange(10**6)),
                          _even_check, report_record))
    return calls


# -- all-dense -----------------------------------------------------------------

ALL_RATE = 3.0
ALL_SIZES = (120, 150, 180, 210, 240, 270, 300)
ALL_DEGREES = (12.0, 18.0, 24.0, 30.0, 36.0, 42.0, 48.0)


def _all_call(g, k, seed):
    return lc.consecutive_cycles(g, k, seed=seed)


def _all_check(args, report):
    return check_family(args[0], report, args[1], "ALL")


def all_dense(rng: random.Random, count: int) -> list[Call]:
    """The all-lengths pipeline at k = 2 on sparsified packings, n from 120 to
    300, with d stepping through 12..48 so that about a third of the calls
    sit below the pipeline's success threshold (d ~ 18-24 at these n)."""
    bases = Bases(rng)
    calls = []
    for i in range(count):
        base = bases.get(ALL_SIZES[i % len(ALL_SIZES)], 3)
        g = sparsified(base, ALL_DEGREES[i // len(ALL_SIZES) % len(ALL_DEGREES)], rng)
        calls.append(Call("all", _all_call, (g, 2, rng.randrange(10**6)),
                          _all_check, report_record))
    return calls


# -- gen-oracle ----------------------------------------------------------------

GEN_RATE = 2.6
# one round: mid-size packings, one maximality-sweep packing (n <= 140),
# sparsify-then-girth draws and planted instances checked against the oracle.
# Planted instances are the cheapest calls and their cost is heavy-tailed, so
# they are kept to a third of the calls: the median then falls among the
# packings, whose cost the fixed sizes pin down.
ROUND = ("greedy", "oracle", "sparsify", "greedy", "oracle", "sweep", "greedy",
         "sparsify", "oracle")
# a block is three rounds with one n = 1000 packing after the first
BLOCK = ROUND + ("big",) + ROUND + ROUND
GREEDY_SIZES = {"greedy": (160, 220, 280, 340, 400, 190, 250, 310, 370),
                "sweep": (100, 120, 140), "big": (1000,)}
SPARSIFY_SIZES = (400, 500)
SPARSIFY_D, SPARSIFY_M = 4.0, 3
ORACLE_LEN = 10
# planted instances: (n, planted lengths, background density) cycle through
# every combination, so each seed sees the same mix of hits and misses
ORACLE_MIX = [(n, sorted({even, extra}), bg)
              for bg in (0.3, 0.6) for even in (4, 6, 8) for extra in (3, 5, 7)
              for n in (60, 80, 100)]


def _greedy_call(n, r, seed):
    return lc.greedy_partial_steiner(n, r, seed=seed, effort=1.0)


def _greedy_check(args, g):
    n, r, _ = args
    pairs = set()
    for e in g.edges:
        if len(set(e)) != r or not all(0 <= v < n for v in e):
            return False, f"edge {e} is not an r-set of 0..{n - 1}"
        for a in range(r):
            for b in range(a + 1, r):
                if (e[a], e[b]) in pairs:
                    return False, f"pair {(e[a], e[b])} lies in two edges"
                pairs.add((e[a], e[b]))
    if not g.edges:
        return False, "empty packing"
    return True, None


def _greedy_record(args, g):
    return g.to_text()


def _sparsify_call(base, d, m, seed):
    try:
        report = lc.high_girth_sparsify(base, d, m, seed=seed)
    except lc.RetriesExhausted as err:
        return None, err.attempts
    return report, lc.girth(report.graph, m)


def _has_linear_triangle(g) -> bool:
    """Three edges pairwise meeting in three distinct single vertices,
    found through the pair index rather than the oracle's search."""
    for v in g.vertices:
        at = g.edges_at(v)
        for i, e in enumerate(at):
            for f in at[i + 1:]:
                for u in e:
                    for w in f:
                        if v in (u, w):
                            continue
                        h = g.edge_through(u, w)
                        if h is not None and h not in (e, f) and v not in h:
                            return True
    return False


def _sparsify_check(args, outcome):
    base, d, m, _ = args
    report, girth = outcome
    if report is None:
        return False, None
    g = report.graph
    if not g.edge_set <= base.edge_set:
        return False, "sparsified graph has an edge outside the base"
    if g.average_degree() < d:
        return False, f"average degree {g.average_degree()} below target {d}"
    if girth is not None or _has_linear_triangle(g):
        return False, f"linear cycle of length <= {m} survived"
    return True, None


def _sparsify_record(args, outcome):
    report, second = outcome
    if report is None:
        return f"exhausted {second}"
    return json.dumps([report.attempts, report.deleted_edges, second]) + report.graph.to_text()


def _oracle_call(n, r, lengths, background, seed):
    g, planted = lc.plant_cycles(n, r, lengths, background_density=background, seed=seed)
    spectrum = lc.enumerate_cycles(g, ORACLE_LEN)
    found = {}
    for k in range(2, ORACLE_LEN // 2 + 1):
        try:
            found[2 * k] = lc.find_c2k(g, k, seed=seed)
        except lc.NotFound:
            found[2 * k] = None
    return g, planted, spectrum, found


def _oracle_check(args, outcome):
    g, _, spectrum, found = outcome
    if not spectrum.complete:
        return False, "oracle spectrum incomplete"
    if not set(args[2]) <= spectrum.lengths:
        return False, f"planted {args[2]} missing from spectrum {sorted(spectrum.lengths)}"
    for length, cycle in found.items():
        if length not in spectrum.lengths:
            if cycle is not None:
                return False, f"find_c2k found length {length} the oracle rules out"
            continue
        if cycle is None:
            return False, f"find_c2k missed length {length} the oracle reports"
        if cycle.length != length:
            return False, f"find_c2k returned length {cycle.length} for {length}"
        try:
            lc.verify_cycle(g, cycle.edges)
        except lc.InvalidWitness as err:
            return False, f"find_c2k cycle fails re-verification: {err}"
    return any(c is not None for c in found.values()), None


def _oracle_record(args, outcome):
    g, _, spectrum, found = outcome
    cycles = {t: None if c is None else [list(e) for e in c.edges] for t, c in found.items()}
    return g.to_text() + spectrum.to_json() + json.dumps(cycles, sort_keys=True)


def gen_oracle(rng: random.Random, count: int) -> list[Call]:
    """Generation and cross-checking, one task per call: greedy packings at
    effort 1.0 (n 100..400, a quarter of them on the n <= 140 sweep path, one
    n = 1000 per block), high_girth_sparsify(d=4, m=3) then girth on shared
    bases, and planted instances (n 60..100) whose oracle spectrum every
    find_c2k answer must match."""
    bases = Bases(rng)
    calls = []
    seen = {slot: 0 for slot in ("greedy", "sweep", "big", "sparsify", "oracle")}
    for i in range(count):
        slot = BLOCK[i % len(BLOCK)]
        j = seen[slot]
        seen[slot] += 1
        if slot in GREEDY_SIZES:
            sizes = GREEDY_SIZES[slot]
            args = (sizes[j % len(sizes)], 3, rng.getrandbits(32))
            calls.append(Call("greedy", _greedy_call, args, _greedy_check, _greedy_record))
        elif slot == "sparsify":
            base = bases.get(SPARSIFY_SIZES[j % len(SPARSIFY_SIZES)], 3)
            args = (base, SPARSIFY_D, SPARSIFY_M, rng.getrandbits(32))
            calls.append(Call("sparsify", _sparsify_call, args, _sparsify_check,
                              _sparsify_record))
        else:
            n, lengths, background = ORACLE_MIX[j * 7 % len(ORACLE_MIX)]
            args = (n, 3, lengths, background, rng.randrange(10**6))
            calls.append(Call("oracle", _oracle_call, args, _oracle_check, _oracle_record))
    return calls


WORKLOADS = {
    "even-sparse": (even_sparse, EVEN_RATE),
    "all-dense": (all_dense, ALL_RATE),
    "gen-oracle": (gen_oracle, GEN_RATE),
}


def build(workload: str, seed: int, seconds: float) -> list[Call]:
    make, rate = WORKLOADS[workload]
    return make(random.Random(seed), max(1, round(rate * seconds)))


def judge(calls: list[Call], outcomes: list) -> tuple[int, list[str], str]:
    """(successes, error messages, sha256 digest) over one pass's outcomes."""
    successes, errors = 0, []
    digest = hashlib.sha256()
    for i, (call, out) in enumerate(zip(calls, outcomes)):
        if isinstance(out, Crash):
            errors.append(f"call {i} ({call.kind}) raised:\n{out.text}")
            digest.update(f"crash {i}\n".encode())
            continue
        ok, err = call.check(call.args, out)
        successes += ok
        if err is not None:
            errors.append(f"call {i} ({call.kind}): {err}")
        digest.update(call.record(call.args, out).encode())
        digest.update(b"\n")
    return successes, errors, digest.hexdigest()
