"""CLI: ``python -m repro.server serve`` — run the sharded KV server.

``serve`` runs a sharded server until SIGINT/SIGTERM, then drains
gracefully (every acknowledged write is synced before exit)::

    python -m repro.server serve --path /tmp/kv --shards 4 --port 4440

Load comes from the ledger, ``benchmarks/e2e/run.py --workload
wire_c`` (or ``wire_a``): it starts this command in its own process and
checks every read it issues.
"""

from __future__ import annotations

import argparse
import asyncio
import signal

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

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
