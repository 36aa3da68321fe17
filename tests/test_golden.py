"""Golden behaviour: sha256 hashes of engine reports, `lincyc mert` dumps and
generated edge lists at fixed seeds.

The hashes pin behaviour byte for byte, so a refactor that is meant to change
nothing can prove it.  A change that alters behaviour on purpose re-records
the affected hashes and says so in CHANGES.md.

The report corpus is one greedy packing on 150 vertices plus three thinnings
of it to average degree 4, 8 and 16.  It covers boundary firings, internal
failure traces and closure firings of the all-lengths pipeline.

The r-partite reduction is also pinned on its own, at r = 3, 4 and 5, with
one sparse n = 2000, d = 6 instance like the even pipeline's largest inputs.

The internal assembly never fires in that corpus, so one report where it does
is pinned on a stored instance, tests/data/even_sparse_internal.txt.
"""

from __future__ import annotations

import functools
import hashlib
import random
from pathlib import Path

import pytest

from lincyc import (
    GenSpec,
    LinearHypergraph,
    cli,
    consecutive_cycles,
    even_consecutive_cycles,
    generate,
    greedy_partial_steiner,
    r_partite_reduction,
)

SEEDS = range(12)
PIPELINES = {"even": even_consecutive_cycles, "all": consecutive_cycles}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def thinned(base: LinearHypergraph, d: int) -> LinearHypergraph:
    """Keep each edge of base with probability d*n/(r*e) under random.Random(d)."""
    rng = random.Random(d)
    p = min(1.0, d * base.n / (base.r * base.num_edges()))
    return LinearHypergraph(base.n, base.r, [e for e in base.edges if rng.random() < p])


@functools.lru_cache(maxsize=None)
def instance(name: str) -> LinearHypergraph:
    """"full" is the packing; "dD" is the packing thinned to degree about D."""
    base = greedy_partial_steiner(150, 3, seed=0, effort=1.0)
    return base if name == "full" else thinned(base, int(name[1:]))


def report_digest(pipeline: str, name: str) -> str:
    g = instance(name)
    run = PIPELINES[pipeline]
    return sha("\n".join(run(g, 2, seed).to_json() for seed in SEEDS))


def mert_digest(name: str, seed: int, explicit_root: bool, tmp_path, capsys) -> str:
    g = instance(name)
    path = tmp_path / f"{name}.txt"
    path.write_text(g.to_text())
    argv = ["mert", "--input", str(path), "--seed", str(seed)]
    if explicit_root:
        sub, _ = r_partite_reduction(g, seed)
        argv += ["--root", str(max(sub.vertices))]
    assert cli.main(argv) == 0
    return sha(capsys.readouterr().out)


PARTITE_SEEDS = range(4)
# name -> (n, r, packing effort, thinned average degree); the packing seed is n
PARTITE_INSTANCES = {
    "r3-n2000-d6": (2000, 3, 8 * 6.0 / (3 * 1999), 6),
    "r3-n300-d8": (300, 3, 1.0, 8),
    "r4-n100-d8": (100, 4, 1.0, 8),
    "r4-n400-d16": (400, 4, 1.0, 16),
    "r5-n80-d6": (80, 5, 1.0, 6),
    "r5-n200-d12": (200, 5, 1.0, 12),
}


def partite_digest(name: str) -> str:
    n, r, effort, d = PARTITE_INSTANCES[name]
    g = thinned(greedy_partial_steiner(n, r, seed=n, effort=effort), d)
    out = []
    for seed in PARTITE_SEEDS:
        sub, partition = r_partite_reduction(g, seed)
        out.append(sub.to_text() + repr([sorted(part) for part in partition.parts]))
    return sha("\n".join(out))


GEN_SPECS = {
    "steiner-0": GenSpec(n=60, r=3, mode="steiner", seed=0),
    "steiner-1": GenSpec(n=60, r=4, mode="steiner", seed=1),
    "sparsified-0": GenSpec(n=300, r=3, mode="sparsified", d=2.0, girth_floor=3, seed=0),
    "sparsified-1": GenSpec(n=300, r=3, mode="sparsified", d=1.5, girth_floor=4, seed=1),
    "planted-0": GenSpec(n=60, r=3, mode="planted", lengths=[3, 4, 5],
                         background_density=0.5, seed=0),
    "planted-1": GenSpec(n=80, r=4, mode="planted", lengths=[4, 6],
                         background_density=1.0, seed=1),
}


REPORT_HASHES = {
    ('all', 'd16'): '33e28a09aec8e0bfefd51c6505c0fc93adb0a7d08d151c878d9eb0c7561d8e96',
    ('all', 'd4'): 'c019e01aeee4ca4b79de6b2a3016b93c34da9f2c7e0b51cf4e428b7570eb3414',
    ('all', 'd8'): '9477785cec02c98ced2236b98be71606bb45eafc41c52299012cdf0e8afbda89',
    ('all', 'full'): 'b23110b8b47fc3af31d56066ee4870cc5d324cce6c52bed359f362bdb25975f2',
    ('even', 'd16'): '75d75a3fe9fb43beb539fe6c4ab384606dbcf3b2765c6d0bb8663db8be54a87e',
    ('even', 'd4'): '97707c6f19e120314463b73cb13127b9ce33b14f83993e06f1852f1f4513ec20',
    ('even', 'd8'): '814fc993b1d8cace4a0ba83b0c7b03acd7f3dbdc19fce583a00840bb6f6eed7e',
    ('even', 'full'): 'e6fd1f83bdb70318dc4c3a077870f4d68b49fa7764bab45faa2232df5b9f5a26',
}

MERT_HASHES = {
    ('d16', 0, False): '7fcee63a1fb903b4954c0e7f4a155012550830140e60320efc5f65af2627710d',
    ('d16', 5, False): '1c4ec73e47778cdcb34e565c0a1ec66da0447885ce6d6c8108bebe326e15c438',
    ('d4', 0, False): '59abb617882566a0d317a8d0f2eed622ce89cbcab8eae5b5d699c3db3ab769af',
    ('d4', 2, False): 'a20022dd1d3aea77d7487e5437e297e29f85e74f081540e77769dc20abaad015',
    ('d8', 0, False): 'c0c7ba8ad0751a21a233845cb0a6b222cc913535fc9fb5b00c41bbc959bb0f81',
    ('d8', 1, True): '582ffb96292381bffdf7092d988ecfb76c9c5aee2abc5d05d129aac90a7be6d2',
    ('d8', 3, False): '2a2fddbdcfeceb1e583490053d185dd28ee1dc2f4d47e15d23d7d14a9e5a47c0',
    ('full', 0, False): 'bd3345a8eeaa6758943e580f2070c5451d008da2fd5b4be400a2d6e4f1c38e98',
    ('full', 1, False): 'a0ffc319ffd4c5ae3e51a68c95a9e0f6e075094c040a650bc4a66a26abde6dc6',
    ('full', 2, True): '5afaecc3e270de5f8c129b1cc69c4b3ac1a7942e62620ff272631a68be247f55',
}

GEN_HASHES = {
    'planted-0': 'e066822e0df693b1278e8578ed6bbdebd746c6f70c206d42a3bb58e35c9e5bad',
    'planted-1': '0604387bd910dac0518bab171d7eae30e40d364142c24f61a3eaa422125a9e7e',
    'sparsified-0': '4d9512636e7a54165be57a025515b3315a921506ecea8e47156d562085bfc382',
    'sparsified-1': '1d71207eea281aa18faed86da7ce608285526ae58e2d8adb36e3e7ccfdce5b02',
    'steiner-0': 'c1f4689a1c9fd9cb8c1d06e73b862ad671e7376123fe37c0f02ae3da6e79a732',
    'steiner-1': '139f15e580387bb1b48eb3cc59358e59712d4ee83fb00cd5643640d1dfcbfb7e',
}

PARTITE_HASHES = {
    'r3-n2000-d6': 'fed1072ffb1b28d96a727a2c5621e6f72b3c4bdd71b535f86f84c550b2d62472',
    'r3-n300-d8': '74feb2ef571aa5eda6fabfdd7129a1a42702b8990ca4091279a9664c71003ef9',
    'r4-n100-d8': '26b0d55260f8c7e647e695e165b73f64c93187dc034d096e448f1d01c866d70c',
    'r4-n400-d16': '9c93b1d70d900c8778b14aa7e288bf6328cfaff8395b2c72f70104ab579f2dc2',
    'r5-n80-d6': '3c5767a2cce0b0e413bb99742a3761d086f9b2984855937b19c0dd797513bb44',
    'r5-n200-d12': 'f078ba6566e33f54f3e67d34f4938b21ee3351d9297b69bf57a650ba73eede0b',
}


@pytest.mark.parametrize("pipeline,name", sorted(REPORT_HASHES))
def test_report_hashes(pipeline, name):
    assert report_digest(pipeline, name) == REPORT_HASHES[pipeline, name]


@pytest.mark.parametrize("name,seed,explicit_root", sorted(MERT_HASHES))
def test_mert_dump_hashes(name, seed, explicit_root, tmp_path, capsys):
    got = mert_digest(name, seed, explicit_root, tmp_path, capsys)
    assert got == MERT_HASHES[name, seed, explicit_root]


@pytest.mark.parametrize("name", sorted(PARTITE_HASHES))
def test_partite_reduction_hashes(name):
    assert partite_digest(name) == PARTITE_HASHES[name]


@pytest.mark.parametrize("label", sorted(GEN_HASHES))
def test_generator_hashes(label):
    g, _ = generate(GEN_SPECS[label])
    assert sha(g.to_text()) == GEN_HASHES[label]


# call 155 of the even-sparse benchmark batch at seed 1: n = 2000, m = 3966,
# r = 3, k = 2; the even pipeline's internal assembly fires at t = 5, case 1
INTERNAL_INSTANCE = Path(__file__).parent / "data" / "even_sparse_internal.txt"
INTERNAL_SEED = 515310
INTERNAL_HASH = "3c56ea48e3f7ec51bcead11ad07a03a89e1b70c599534e9f644e6f62958ccfa2"


def test_internal_assembly_report_hash():
    g = LinearHypergraph.from_text(INTERNAL_INSTANCE.read_text())
    report = even_consecutive_cycles(g, 2, INTERNAL_SEED)
    fired = [step for step in report.trace if step.get("status") == "fired"]
    assert [(s["stage"], s["t"], s["case"]) for s in fired] == [("internal", 5, 1)]
    assert report.success and report.outcome.lengths == [12, 14]
    assert sha(report.to_json()) == INTERNAL_HASH
