"""Batch command-line front-end.

Subcommands: gen (instances), find (cycle families), verify (witness check),
spectrum (oracle enumeration), sweep (success rate vs density), mert (tree
inspection).  Exit codes: 0 success, 2 verified failure traces, 1 input
or usage errors and a search cut off by its budget (`find --mode c2k`, or
`spectrum`, which still prints the partial spectrum).  A JSON
config file can mirror any flag of the subcommand and is checked like flags;
explicit flags win.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import random
import sys
from typing import Optional, Sequence

from .core import LinearHypergraph, _is_edge_list, verify_cycle
from .engine import consecutive_cycles, even_consecutive_cycles, find_c2k
from .errors import BudgetExceeded, LincycError, MalformedInput
from .generators import GenSpec, generate, greedy_partial_steiner
from .mert import build_mert
from .oracle import enumerate_cycles
from .reductions import max_degree_root, r_partite_reduction, rotate_to_root


def _read_graph(path: str) -> LinearHypergraph:
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return LinearHypergraph.from_json(text)
    return LinearHypergraph.from_text(text)


def _config_argv(ap: argparse.ArgumentParser, argv: list[str], path: str) -> list[str]:
    """argv with the config file's keys spliced in as flags right after the
    subcommand, so argparse checks them like flags and later explicit flags
    win.  A true value adds a switch, false leaves it out."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        ap.error(f"--config {path}: {err}")
    if not isinstance(cfg, dict):
        ap.error(f"--config {path} must hold a JSON object")
    tokens = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            tokens.append(flag)
        elif value is False:
            continue
        elif isinstance(value, (str, int, float)):
            tokens.append(f"{flag}={value}")
        else:
            ap.error(f"config key {key!r} needs a string, number or boolean")
    return argv[:1] + tokens + argv[1:]


def _config_path(argv: list[str]) -> Optional[str]:
    """The subcommand's --config value, found before the full parse so the
    file can supply required flags.  A malformed --config is left for the
    full parse to report."""
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config", type=str, default=None)
    try:
        return pre.parse_known_args(argv[1:])[0].config
    except argparse.ArgumentError:
        return None


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _lengths(text: str) -> list[int]:
    """argparse type: comma-separated cycle lengths such as '3,5'."""
    try:
        return [int(x) for x in text.split(",")] if text else []
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None


def _seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    return random.getrandbits(64)


def cmd_gen(args) -> int:
    spec = GenSpec(
        n=args.n,
        r=args.r,
        mode=args.mode,
        d=args.d,
        girth_floor=args.girth_floor,
        seed=_seed(args),
        lengths=args.lengths,
        background_density=args.background_density,
    )
    g, witnesses = generate(spec)
    text = g.to_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if witnesses and args.witnesses_out:
        with open(args.witnesses_out, "w") as fh:
            json.dump([[list(e) for e in c.edges] for c in witnesses], fh)
    print(f"# seed {spec.seed}", file=sys.stderr)
    return 0


def cmd_find(args) -> int:
    g = _read_graph(args.input)
    seed = _seed(args)
    if args.mode == "c2k":
        try:
            cycle = find_c2k(g, args.k, seed)
        except LincycError as err:
            if isinstance(err.__cause__, BudgetExceeded):
                raise  # an incomplete search is an error, not an honest failure
            print(json.dumps({"outcome": "failure", "reason": str(err), "seed": seed}))
            return 2
        print(json.dumps(
            {"outcome": "success", "length": cycle.length,
             "cycle": [list(e) for e in cycle.edges], "seed": seed},
            sort_keys=True,
        ))
        return 0
    runner = consecutive_cycles if args.mode == "all" else even_consecutive_cycles
    report = runner(g, args.k, seed, strict=args.strict)
    if args.json:
        print(report.to_json())
    else:
        if report.success:
            fam = report.outcome
            print(f"success lengths={fam.lengths} shortest={fam.shortest} "
                  f"bound={report.bound} seed={seed}")
        else:
            print(f"failure stage={report.outcome.stage} "
                  f"reason={report.outcome.reason} seed={seed}")
    return 0 if report.success else 2


def cmd_verify(args) -> int:
    g = _read_graph(args.input)
    with open(args.cycles) as fh:
        payload = json.load(fh)
    if isinstance(payload, dict):
        payload = payload.get("cycles")  # an object without a cycles list is malformed
    if not (isinstance(payload, list) and all(map(_is_edge_list, payload))):
        raise MalformedInput("cycles JSON must be a list of cycles, each a list of integer edges")
    bad = []
    for idx, edges in enumerate(payload):
        try:
            verify_cycle(g, [tuple(e) for e in edges])
        except LincycError as err:
            bad.append((idx, str(err)))
    for idx, reason in bad:
        print(f"cycle {idx}: {reason}")
    if bad:
        return 2
    print(f"all {len(payload)} cycles verify")
    return 0


def cmd_spectrum(args) -> int:
    g = _read_graph(args.input)
    try:
        spec = enumerate_cycles(g, args.max_len, budget=args.budget)
    except BudgetExceeded as err:
        print(err.partial.to_json())
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(spec.to_json())
    return 0


def _sweep_trial(params: tuple) -> tuple[float, bool, Optional[int], Optional[float]]:
    n, r, k, d, mode, seed = params
    rng = random.Random(seed)
    base = greedy_partial_steiner(n, r, seed=rng.getrandbits(32), effort=1.0)
    p = min(1.0, d * n / max(1, r * base.num_edges()))
    kept = [e for e in base.edges if rng.random() < p]
    g = base._cut(tuple(kept), frozenset(range(n)))
    if g.num_edges() == 0:
        return d, False, None, None
    runner = consecutive_cycles if mode == "all" else even_consecutive_cycles
    report = runner(g, k, seed)
    if report.success:
        return d, True, report.outcome.shortest, report.outcome.bound
    return d, False, None, None


def cmd_sweep(args) -> int:
    seed = _seed(args)
    rng = random.Random(seed)
    points = args.points
    step = (args.d_to - args.d_from) / max(1, points - 1)
    ds = [args.d_from + i * step for i in range(points)]
    jobs: list[tuple] = []
    for d in ds:
        for _ in range(args.trials):
            jobs.append((args.n, args.r, args.k, d, args.mode, rng.getrandbits(32)))
    workers = min(args.jobs, os.cpu_count() or 1)  # never more processes than cores
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_trial, jobs))
    else:
        results = [_sweep_trial(j) for j in jobs]
    rows = {}
    for d, ok, shortest, bound in results:
        row = rows.setdefault(d, [0, 0, [], []])
        row[0] += 1
        if ok:
            row[1] += 1
            row[2].append(shortest)
            if bound is not None:
                row[3].append(bound)
    out = ["d,trials,successes,mean_shortest,mean_bound"]
    for d in ds:
        trials, succ, shorts, bounds = rows[d]
        ms = f"{sum(shorts) / len(shorts):.3f}" if shorts else ""
        mb = f"{sum(bounds) / len(bounds):.3f}" if bounds else ""
        out.append(f"{d:g},{trials},{succ},{ms},{mb}")
    text = "\n".join(out) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"# seed {seed}", file=sys.stderr)
    return 0


def cmd_mert(args) -> int:
    g = _read_graph(args.input)
    sub, partition = r_partite_reduction(g, seed=_seed(args))
    root = max_degree_root(sub) if args.root is None else args.root
    if root not in sub.vertices:
        print(f"root {root} not in the partite subgraph", file=sys.stderr)
        return 1
    print(build_mert(sub, rotate_to_root(sub, partition, root), root).to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lincyc")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", type=str, default=None)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--mode", choices=["steiner", "sparsified", "planted"], default="steiner")
    p.add_argument("--d", type=float, default=4.0)
    p.add_argument("--girth-floor", type=int, default=3)
    p.add_argument("--lengths", type=_lengths, default="")
    p.add_argument("--background-density", type=float, default=0.0)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--witnesses-out", type=str, default=None)
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("find", help="run a cycle-family engine")
    p.add_argument("--input", type=str, required=True)
    p.add_argument("--k", type=_int_at_least(1), required=True)
    p.add_argument("--mode", choices=["all", "even", "c2k"], default="even")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--json", action="store_true")
    common(p)
    p.set_defaults(func=cmd_find)

    p = sub.add_parser("verify", help="verify a JSON list of cycles")
    p.add_argument("--input", type=str, required=True)
    p.add_argument("--cycles", type=str, required=True)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectrum", help="oracle cycle-length spectrum")
    p.add_argument("--input", type=str, required=True)
    p.add_argument("--max-len", type=_int_at_least(3), default=10)
    p.add_argument("--budget", type=_int_at_least(1), default=10**8)
    common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sweep", help="success rate vs average degree (CSV)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--k", type=_int_at_least(1), default=2)
    p.add_argument("--d-from", type=_finite_float, required=True)
    p.add_argument("--d-to", type=_finite_float, required=True)
    p.add_argument("--points", type=_int_at_least(1), default=10)
    p.add_argument("--trials", type=_int_at_least(1), default=5)
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.add_argument("--mode", choices=["all", "even"], default="even")
    p.add_argument("--out", type=str, default=None)
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("mert", help="build and dump the expanded tree")
    p.add_argument("--input", type=str, required=True)
    p.add_argument("--root", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_mert)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(argv if argv is not None else sys.argv[1:])
    ap = build_parser()
    try:
        config = _config_path(argv)
        args = ap.parse_args(_config_argv(ap, argv, config) if config else argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; 2 here means an honest failure
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 1
    except LincycError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
