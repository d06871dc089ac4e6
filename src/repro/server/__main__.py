"""CLI: ``python -m repro.server`` — serve or benchmark the KV server.

Subcommands:

* ``serve`` — run a sharded server until SIGINT/SIGTERM, then drain
  gracefully (every acknowledged write is synced before exit)::

      python -m repro.server serve --path /tmp/kv --shards 4 --port 4440

* ``bench`` — start an in-process server, drive it with a YCSB mix
  through the pipelined (or blocking) client, print a JSON summary::

      python -m repro.server bench --workload C --shards 2 --duration 5
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import tempfile

from .loadgen import run_benchmark
from .server import KVServer


async def _serve(args: argparse.Namespace) -> int:
    server = KVServer(
        args.path,
        n_shards=args.shards,
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
    )
    await server.start()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, server.request_shutdown)
        except NotImplementedError:  # pragma: no cover - non-POSIX
            # Fallback: a plain signal handler runs between bytecodes on
            # the main thread, where this loop lives, so requesting the
            # drain directly is safe.
            signal.signal(sig, lambda *_: server.request_shutdown())
    print(
        f"serving {args.shards} shard(s) at {args.path} "
        f"on {server.host}:{server.port}",
        flush=True,
    )
    try:
        await server.serve_forever()
    finally:
        # Signal-safe shutdown: whatever interrupted the wait — a
        # KeyboardInterrupt that raced the handler installation, an
        # exception mid-serve — the drain-and-sync path runs before the
        # loop is torn down (shutdown() is idempotent).
        await server.shutdown()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    try:
        code = asyncio.run(_serve(args))
    except KeyboardInterrupt:
        # The drain already ran in _serve's finally; the interrupt
        # simply unwound the loop afterwards.
        code = 0
    print("drained and closed", flush=True)
    return code


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.path is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-server-bench-")
        path = tmp.name
    else:
        tmp = None
        path = args.path
    try:
        result = run_benchmark(
            path,
            workload=args.workload,
            n_keys=args.keys,
            n_ops=args.ops,
            n_shards=args.shards,
            n_connections=args.connections,
            pipeline_depth=args.depth,
            pipelined=not args.no_pipeline,
            duration=args.duration,
            seed=args.seed,
        )
    finally:
        if tmp is not None:
            tmp.cleanup()
    payload = result.to_dict()
    if args.stats_out:
        with open(args.stats_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if result.ops_done <= 0:
        print("FAIL: zero throughput", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.server")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run a sharded KV server")
    serve.add_argument("--path", required=True, help="root data directory")
    serve.add_argument("--shards", type=int, default=4)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=4440)
    serve.add_argument("--queue-limit", type=int, default=1024)
    serve.set_defaults(func=_cmd_serve)

    bench = sub.add_parser("bench", help="YCSB benchmark against a fresh server")
    bench.add_argument("--workload", default="C", help="YCSB mix (A/B/C/E)")
    bench.add_argument("--path", default=None, help="data dir (default: temp dir)")
    bench.add_argument("--shards", type=int, default=4)
    bench.add_argument("--keys", type=int, default=2000)
    bench.add_argument("--ops", type=int, default=5000)
    bench.add_argument("--connections", type=int, default=8)
    bench.add_argument("--depth", type=int, default=8, help="pipeline depth")
    bench.add_argument("--duration", type=float, default=None, help="seconds")
    bench.add_argument("--seed", type=int, default=42)
    bench.add_argument("--no-pipeline", action="store_true",
                       help="blocking client, one request in flight per connection")
    bench.add_argument("--stats-out", default=None, help="write JSON summary here")
    bench.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
