"""CLI: ``python -m repro.cluster`` — run one cluster node, or the
membership smoke (resync + lease-based election) used by CI.

Subcommands:

* ``node`` — one cluster node (a sharded KV server with a replication
  tap).  A primary lists its followers; a follower just listens; with
  ``--elect`` the node also runs a lease manager against its
  ``--peer`` list, so a follower auto-promotes when the primary's
  lease lapses::

      python -m repro.cluster node --path /tmp/f0 --role follower --port 5001
      python -m repro.cluster node --path /tmp/f1 --role follower --port 5002
      python -m repro.cluster node --path /tmp/p  --role primary \
          --follower 127.0.0.1:5001 --follower 127.0.0.1:5002

* ``smoke`` — the CI scenario, now covering the full membership story
  with real OS processes and election enabled end to end:

  1. bring up 1 primary + 2 followers (small replication-log cap);
  2. ``kill -9`` one follower, keep writing until the primary's log
     floor passes the dead follower's watermark (its history is gone
     from the log — only a snapshot can bring it back);
  3. restart the follower on the same directory and verify the link
     auto-resyncs (STATS shows a resync, the watermark catches up);
  4. ``kill -9`` the primary mid-load and wait for the lease-based
     election to promote a survivor — no operator PROMOTE;
  5. verify every client-acked write is readable on the new primary
     and the promoted watermark covers the maximum observed ack.

  Writes a JSON repro artifact (acked keys, watermarks, stats) for
  upload when the check fails.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

from ..server.client import KVClient, ServerError
from .membership import LeaseManager
from .node import ClusterServer
from .replicator import DEFAULT_LOG_CAP_BYTES, PrimaryReplication
from .routing import route_key


async def _node(args: argparse.Namespace) -> int:
    replication = PrimaryReplication(
        allow_resync=not args.no_resync, log_cap_bytes=args.repl_log_cap
    )
    server = ClusterServer(
        args.path,
        n_shards=args.shards,
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        role=args.role,
        replication=replication,
        repl_ack_timeout=args.repl_ack_timeout,
    )
    await server.start()
    for spec in args.follower or []:
        host, _, port = spec.rpartition(":")
        replication.add_follower(host, int(port))
    lease = None
    if args.elect:
        peers = []
        for spec in args.peer or []:
            host, _, port = spec.rpartition(":")
            peers.append((spec, host, int(port)))
        lease = LeaseManager(
            args.name or f"{server.host}:{server.port}",
            server,
            replication,
            peers,
            lease_interval=args.lease_interval,
            lease_ttl=args.lease_ttl,
        )
        lease.start()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, server.request_shutdown)
        except NotImplementedError:  # pragma: no cover - non-POSIX
            signal.signal(sig, lambda *_: server.request_shutdown())
    print(
        f"cluster node role={args.role} shards={args.shards} at {args.path} "
        f"on {server.host}:{server.port}",
        flush=True,
    )
    try:
        await server.serve_forever()
    finally:
        if lease is not None:
            lease.stop()
        await server.shutdown()
    return 0


def _cmd_node(args: argparse.Namespace) -> int:
    try:
        code = asyncio.run(_node(args))
    except KeyboardInterrupt:
        code = 0
    print("node drained and closed", flush=True)
    return code


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spawn_node(
    path: str,
    role: str,
    port: int = 0,
    followers: list[str] | None = None,
    peers: list[str] | None = None,
    log_cap: int | None = None,
    lease_ttl: float | None = None,
):
    """Launch one node subprocess; returns (process, (host, port))."""
    cmd = [
        sys.executable, "-m", "repro.cluster", "node",
        "--path", path, "--role", role, "--port", str(port), "--shards", "2",
    ]
    for spec in followers or []:
        cmd += ["--follower", spec]
    if peers:
        cmd += ["--elect"]
        for spec in peers:
            cmd += ["--peer", spec]
        if lease_ttl is not None:
            cmd += ["--lease-ttl", str(lease_ttl)]
    if log_cap is not None:
        cmd += ["--repl-log-cap", str(log_cap)]
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONUNBUFFERED": "1"},
    )
    assert proc.stdout is not None
    line = proc.stdout.readline()
    if " on " not in line:
        proc.kill()
        raise RuntimeError(f"node failed to start: {line!r}")
    host, _, got = line.rsplit(" on ", 1)[1].strip().rpartition(":")
    # Drain the pipe so the child never blocks on a full stdout buffer.
    threading.Thread(
        target=lambda: [None for _ in proc.stdout], daemon=True
    ).start()
    return proc, (host, int(got))


def _link_stats(stats: dict, port: int) -> dict | None:
    for link in stats["cluster"]["replication"]["links"]:
        if link["port"] == port:
            return link
    return None


def _cmd_smoke(args: argparse.Namespace) -> int:
    n_shards = 2
    root = tempfile.mkdtemp(prefix="repro-cluster-smoke-")
    artifact: dict = {"root": root, "acked": {}, "phase": "bring-up"}

    def fail(msg: str) -> int:
        artifact["failure"] = msg
        out = os.path.join(args.artifact_dir or root, "cluster-smoke-repro.json")
        os.makedirs(os.path.dirname(out), exist_ok=True)
        with open(out, "w") as fh:
            json.dump(artifact, fh, indent=2, sort_keys=True, default=repr)
        print(f"FAIL: {msg} (repro: {out})", file=sys.stderr)
        return 1

    procs = []
    try:
        host = "127.0.0.1"
        # Elections need every node to know its peers up front, so the
        # ports are picked before anything binds (free_port races are
        # tolerable in CI; a collision fails bring-up loudly).
        pport, fport0, fport1 = _free_port(), _free_port(), _free_port()
        addrs = {
            "p": f"{host}:{pport}",
            "f0": f"{host}:{fport0}",
            "f1": f"{host}:{fport1}",
        }
        log_cap = args.log_cap
        ttl = args.lease_ttl
        f0, addr0 = _spawn_node(
            os.path.join(root, "f0"), "follower", port=fport0,
            peers=[addrs["p"], addrs["f1"]], log_cap=log_cap, lease_ttl=ttl,
        )
        f1, addr1 = _spawn_node(
            os.path.join(root, "f1"), "follower", port=fport1,
            peers=[addrs["p"], addrs["f0"]], log_cap=log_cap, lease_ttl=ttl,
        )
        procs += [f0, f1]
        primary, paddr = _spawn_node(
            os.path.join(root, "p"), "primary", port=pport,
            followers=[addrs["f0"], addrs["f1"]],
            peers=[addrs["f0"], addrs["f1"]], log_cap=log_cap, lease_ttl=ttl,
        )
        procs.append(primary)
        artifact.update(primary=paddr, followers=[addr0, addr1])

        acked: dict[str, int] = {}
        value_of = lambda key: b"v-" + key.split("-")[1].encode()

        def put_batch(client: KVClient, n: int, start: int) -> int:
            for i in range(start, start + n):
                key = b"smoke-%06d" % i
                # A write in flight when a voting follower dies fails
                # loudly by design; a real client retries and the next
                # attempt proceeds without the dead vote.
                for attempt in range(5):
                    try:
                        seq = client.put(key, b"v-%06d" % i)
                        break
                    except ServerError:
                        if attempt == 4:
                            raise
                        time.sleep(0.2)
                acked[key.decode()] = int(seq or 0)
            return start + n

        with KVClient(*paddr, timeout=15.0) as client:
            # Phase 1: seed load, then SIGKILL follower f1.
            artifact["phase"] = "load"
            i = put_batch(client, 300, 0)
            stats = client.stats()
            link = _link_stats(stats, fport1)
            if link is None:
                return fail("primary has no link to f1")
            dead_mark = max(link["durable"].values() or [0])
            f1.send_signal(signal.SIGKILL)
            f1.wait(timeout=30)

            # Phase 2: write until the log floor passes the dead
            # follower's watermark — its tail is gone from the log, so
            # only a snapshot resync can bring it back.
            artifact["phase"] = "outrun-log"
            deadline = time.monotonic() + 60
            while True:
                i = put_batch(client, 500, i)
                stats = client.stats()
                shards = stats["cluster"]["replication"]["shards"]
                floors = {int(s): v["floor"] for s, v in shards.items()}
                if all(f > dead_mark for f in floors.values()):
                    break
                if time.monotonic() > deadline:
                    artifact["stats"] = stats
                    return fail(
                        f"log floor never passed dead watermark {dead_mark} "
                        f"(floors={floors}, cap={log_cap})"
                    )
            artifact["dead_mark"] = dead_mark
            artifact["floors"] = floors

            # Phase 3: restart f1 on the same directory; the primary's
            # link must detect it below the floor and snapshot-resync it.
            artifact["phase"] = "resync"
            f1, addr1 = _spawn_node(
                os.path.join(root, "f1"), "follower", port=fport1,
                peers=[addrs["p"], addrs["f0"]], log_cap=log_cap, lease_ttl=ttl,
            )
            procs.append(f1)
            deadline = time.monotonic() + 60
            while True:
                i = put_batch(client, 50, i)
                link = _link_stats(client.stats(), fport1)
                if (
                    link is not None
                    and link["state"] == "streaming"
                    and link["resyncs"] >= 1
                ):
                    break
                if time.monotonic() > deadline:
                    artifact["link"] = link
                    return fail(f"f1 never resynced: link={link}")
            client.sync()
            artifact["resync_link"] = dict(link)

        # Resynced follower must serve read-your-writes at acked seqs.
        with KVClient(*addr1, timeout=15.0) as client:
            sample = list(acked.items())[:: max(1, len(acked) // 100)]
            deadline = time.monotonic() + 30
            for key, seq in sample:
                while True:
                    try:
                        value = client.get_at(key.encode(), seq)
                        break
                    except ServerError:
                        if time.monotonic() > deadline:
                            return fail(f"resynced f1 never caught up to {seq}")
                        time.sleep(0.1)
                if value != value_of(key):
                    return fail(f"resynced read of {key} returned {value!r}")

        # Phase 4: SIGKILL the primary mid-load; the lease election
        # must promote a survivor with no operator intervention.
        artifact["phase"] = "election"
        killer = threading.Timer(
            args.kill_after, lambda: primary.send_signal(signal.SIGKILL)
        )
        killer.start()
        try:
            with KVClient(*paddr, timeout=15.0) as client:
                while True:
                    key = b"smoke-%06d" % i
                    seq = client.put(key, b"v-%06d" % i)
                    acked[key.decode()] = int(seq or 0)
                    i += 1
        except (ConnectionError, OSError, ServerError):
            pass  # the kill landed mid-conversation
        finally:
            killer.cancel()
        primary.wait(timeout=30)
        artifact["acked_writes"] = len(acked)

        new_primary = None
        deadline = time.monotonic() + 8 * ttl + 30
        while new_primary is None:
            for name, addr in (("f0", addr0), ("f1", addr1)):
                try:
                    with KVClient(*addr, timeout=5.0) as client:
                        reply = client.watermark()
                    if reply.is_primary:
                        new_primary = (name, addr, reply)
                        break
                except (ConnectionError, OSError, ServerError):
                    continue
            if time.monotonic() > deadline:
                return fail("no survivor auto-promoted within the deadline")
            time.sleep(0.2)
        name, addr, reply = new_primary
        artifact["new_primary"] = {"node": name, "term": reply.term}

        # Phase 5: durability contract on the elected primary.
        artifact["phase"] = "verify"
        max_ack = [0] * n_shards
        for key, seq in acked.items():
            shard = route_key(key.encode(), n_shards)
            max_ack[shard] = max(max_ack[shard], seq)
        with KVClient(*addr, timeout=15.0) as client:
            marks = client.watermark().marks
            artifact["promoted_watermarks"] = {
                s: list(m) for s, m in marks.items()
            }
            for shard in range(n_shards):
                applied = marks.get(shard, (0, 0))[1]
                if applied < max_ack[shard]:
                    return fail(
                        f"promoted shard {shard} applied {applied} "
                        f"< max observed ack {max_ack[shard]}"
                    )
            sample = list(acked.items())[:: max(1, len(acked) // 300)]
            for key, _ in sample:
                value = client.get(key.encode())
                if value != value_of(key):
                    return fail(f"acked key {key} lost after election: {value!r}")

        print(
            json.dumps(
                {
                    "acked_writes": len(acked),
                    "max_ack_per_shard": max_ack,
                    "resyncs": artifact["resync_link"]["resyncs"],
                    "elected": name,
                    "elected_term": reply.term,
                    "verified_reads": len(sample),
                },
                indent=2,
            )
        )
        print("cluster membership smoke OK")
        return 0
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
        if not args.keep:
            import shutil

            shutil.rmtree(root, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.cluster")
    sub = parser.add_subparsers(dest="command", required=True)

    node = sub.add_parser("node", help="run one cluster node")
    node.add_argument("--path", required=True)
    node.add_argument("--shards", type=int, default=2)
    node.add_argument("--host", default="127.0.0.1")
    node.add_argument("--port", type=int, default=0)
    node.add_argument("--queue-limit", type=int, default=1024)
    node.add_argument("--role", choices=("primary", "follower"), default="primary")
    node.add_argument("--follower", action="append", default=[],
                      metavar="HOST:PORT",
                      help="follower to replicate to (primaries only; repeatable)")
    node.add_argument("--repl-ack-timeout", type=float, default=30.0)
    node.add_argument("--repl-log-cap", type=int, default=DEFAULT_LOG_CAP_BYTES,
                      help="replication log cap in bytes (smaller caps force "
                           "snapshot resync sooner after a follower outage)")
    node.add_argument("--no-resync", action="store_true",
                      help="refuse snapshot resync; a behind follower "
                           "surfaces FollowerBehindError instead")
    node.add_argument("--elect", action="store_true",
                      help="run the lease manager (auto-promotion)")
    node.add_argument("--peer", action="append", default=[],
                      metavar="HOST:PORT",
                      help="election peer (repeatable; used with --elect)")
    node.add_argument("--name", default=None,
                      help="node name for elections (default host:port)")
    node.add_argument("--lease-interval", type=float, default=0.3)
    node.add_argument("--lease-ttl", type=float, default=3.0)
    node.set_defaults(func=_cmd_node)

    smoke = sub.add_parser(
        "smoke",
        help="membership smoke: follower resync-from-snapshot after "
             "falling below the log floor, then lease-based election "
             "after kill -9 of the primary",
    )
    smoke.add_argument("--kill-after", type=float, default=1.0,
                       help="seconds of load before the primary is killed")
    smoke.add_argument("--log-cap", type=int, default=64 * 1024,
                       help="replication log cap (small: forces resync)")
    smoke.add_argument("--lease-ttl", type=float, default=3.0)
    smoke.add_argument("--artifact-dir", default=None,
                       help="where to write the repro JSON on failure")
    smoke.add_argument("--keep", action="store_true",
                       help="keep the data directories")
    smoke.set_defaults(func=_cmd_smoke)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
