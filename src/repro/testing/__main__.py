"""CLI: ``python -m repro.testing`` — differential fuzzing.

Subcommands:

* ``fuzz``   — run a seeded differential fuzz across structures:
  ``python -m repro.testing fuzz --seed 0 --ops 5000``
* ``torture`` — threaded snapshot-consistency torture against the
  background-compaction LSM engine:
  ``python -m repro.testing torture --seed 0 --ops 1500 --readers 3``
* ``replay`` — re-run a repro script written by a failing fuzz:
  ``python -m repro.testing replay fuzz-repros/repro-fst-seed0.json``
* ``list``   — list the structures the harness can drive.

Every failure is shrunk to a minimal op sequence and written as a JSON
repro script (keys hex-encoded) that ``replay`` executes verbatim.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .adapters import all_structures, make_adapter
from .differential import fuzz_structure, run_sequence
from .ops import generate_ops, ops_from_json, ops_to_json


def _parse_structures(spec: str) -> list[str]:
    registry = all_structures()
    if spec == "all":
        return sorted(registry)
    names = [s.strip() for s in spec.split(",") if s.strip()]
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise SystemExit(
            f"unknown structures {unknown}; available: {sorted(registry)}"
        )
    return names


def _cmd_list() -> int:
    registry = all_structures()
    width = max(len(n) for n in registry)
    for name in sorted(registry):
        adapter = registry[name]()
        try:
            print(f"{name.ljust(width)}  kind={adapter.kind}  compare={adapter.compare}")
        finally:
            # Server adapters boot real worker threads/processes at
            # construction; a listing must not leave them running.
            adapter.close()
    print(f"\n{len(registry)} structures")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    registry = all_structures()
    names = _parse_structures(args.structures)
    ops = generate_ops(
        args.seed, args.ops, keyspace=args.keyspace, universe_size=args.universe
    )
    out_dir = Path(args.out_dir)
    print(
        f"fuzz: seed={args.seed} ops={len(ops)} keyspace={args.keyspace} "
        f"structures={len(names)}"
    )
    started = time.perf_counter()
    failures = 0
    width = max(len(n) for n in names)
    for name in names:
        elapsed = time.perf_counter() - started
        if args.time_budget and elapsed > args.time_budget:
            print(f"{name.ljust(width)}  SKIP (time budget {args.time_budget}s exhausted)")
            continue
        result = fuzz_structure(name, ops, registry[name])
        if result.ok:
            fp = f"  fp_rate={result.fp_rate:.4f}" if result.fp_rate else ""
            print(
                f"{name.ljust(width)}  PASS  applied={result.applied} "
                f"skipped={result.skipped}  {result.elapsed_seconds:.2f}s{fp}"
            )
            continue
        failures += 1
        out_dir.mkdir(parents=True, exist_ok=True)
        repro = out_dir / f"repro-{name}-seed{args.seed}.json"
        repro.write_text(
            ops_to_json(
                result.shrunk_ops or ops,
                structure=name,
                seed=args.seed,
                keyspace=args.keyspace,
                failure=result.failure.message,
            )
        )
        result.repro_path = str(repro)
        n_shrunk = len(result.shrunk_ops) if result.shrunk_ops else len(ops)
        print(f"{name.ljust(width)}  FAIL  shrunk to {n_shrunk} ops -> {repro}")
        print("  " + result.failure.describe().replace("\n", "\n  "))
    total = time.perf_counter() - started
    print(f"\n{len(names) - failures}/{len(names)} structures clean in {total:.1f}s")
    return 1 if failures else 0


def _cmd_torture(args: argparse.Namespace) -> int:
    from .ops import ops_to_json
    from .threaded import run_torture

    failures = 0
    for round_idx in range(args.rounds):
        seed = args.seed + round_idx
        result = run_torture(
            seed=seed,
            n_ops=args.ops,
            readers=args.readers,
            keyspace=args.keyspace,
        )
        if result.ok:
            info = result.engine_info
            print(
                f"seed {seed}  PASS  applied={result.applied} "
                f"snapshot_checks={result.snapshot_checks} "
                f"raw_checks={result.raw_checks} "
                f"flushes={info.get('flushes')} compactions={info.get('compactions')} "
                f"read_compactions={info.get('read_compactions')} "
                f"read_debt={info.get('read_debt')} "
                f"stalls={info.get('stalls')} slowdowns={info.get('slowdowns')}  "
                f"{result.elapsed_seconds:.2f}s"
            )
            continue
        failures += 1
        print(f"seed {seed}  FAIL  " + result.failure.describe().replace("\n", "\n  "))
        if result.shrunk_ops:
            out_dir = Path(args.out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            repro = out_dir / f"repro-torture-seed{seed}.json"
            repro.write_text(
                ops_to_json(
                    result.shrunk_ops,
                    structure="lsm_bg",
                    seed=seed,
                    keyspace=args.keyspace,
                    failure=result.failure.describe(),
                    deterministic=result.replay_deterministic,
                )
            )
            kind = (
                "deterministic, ddmin-shrunk"
                if result.replay_deterministic
                else "interleaving-only; prefix kept"
            )
            print(f"  repro ({kind}, {len(result.shrunk_ops)} ops) -> {repro}")
    print(f"\n{args.rounds - failures}/{args.rounds} torture rounds clean")
    return 1 if failures else 0


def _cmd_replay(args: argparse.Namespace) -> int:
    text = Path(args.script).read_text()
    ops, meta = ops_from_json(text)
    structure = args.structure or meta.get("structure")
    if not structure:
        raise SystemExit("script has no 'structure' field; pass --structure")
    print(f"replay: {len(ops)} ops against {structure}")
    failure, stats = run_sequence(make_adapter(structure), ops)
    if failure is None:
        print(f"PASS — no divergence (applied={stats['applied']})")
        return 0
    print(failure.describe())
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing",
        description="Differential oracle fuzzing for every search tree and filter",
    )
    sub = parser.add_subparsers(dest="command")
    fuzz = sub.add_parser("fuzz", help="run a seeded differential fuzz")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--ops", type=int, default=2000, help="ops per structure")
    fuzz.add_argument(
        "--keyspace", default="mixed", choices=["int64", "email", "url", "mixed"]
    )
    fuzz.add_argument(
        "--structures", default="all", help="comma-separated names, or 'all'"
    )
    fuzz.add_argument("--universe", type=int, default=None, help="key-pool size")
    fuzz.add_argument(
        "--time-budget", type=float, default=None,
        help="stop starting new structures after SECONDS",
    )
    fuzz.add_argument(
        "--out-dir", default="fuzz-repros", help="where to write repro scripts"
    )
    torture = sub.add_parser(
        "torture", help="threaded snapshot-consistency torture (background LSM)"
    )
    torture.add_argument("--seed", type=int, default=0)
    torture.add_argument("--ops", type=int, default=1500, help="write ops per round")
    torture.add_argument("--readers", type=int, default=3)
    torture.add_argument("--rounds", type=int, default=1)
    torture.add_argument(
        "--keyspace", default="int64", choices=["int64", "email", "url", "mixed"]
    )
    torture.add_argument(
        "--out-dir", default="fuzz-repros", help="where to write repro scripts"
    )
    replay = sub.add_parser("replay", help="re-run a JSON repro script")
    replay.add_argument("script", help="path written by a failing fuzz run")
    replay.add_argument("--structure", default=None, help="override script structure")
    sub.add_parser("list", help="list drivable structures")
    args = parser.parse_args(argv)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "torture":
        return _cmd_torture(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "list":
        return _cmd_list()
    parser.print_help()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
