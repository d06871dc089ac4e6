"""The workloads of the ledger benchmark.

* ``lib_read`` — engine only, SuRF filters, data larger than the block
  cache, half the probes absent (thesis Ch. 4).
* ``wire_c``  — YCSB-C through the thread-shard server, working set in
  cache, no filter: the wire path does the work.
* ``wire_a``  — YCSB-A on the same server shape: the write path, then
  SIGKILL + restart + sweep.
* ``repl_a``  — YCSB-A against one replication group of three node
  processes with follower reads (runs, but is not gated: see README).

Sizes and rates below are frozen: they were sized on the 2-core
reference container so that the paced rate is ~40% of capacity.  A
served workload is a saturation phase (closed loop) — all of
``--seconds`` with ``--trace 0``, ``SAT_SHARE`` of them with ``--trace
1``, which spends the rest on a paced phase on the same loaded system.
Servers are started through the shipped CLIs with shipped defaults:
durable engines, ``background=True``, ``wal_sync_every=32``, a
128-block cache per shard, no filter.

Every timing that is gated is put together from the least disturbed
part of its run (README, "What the shared machine does"): each
``lib_read`` call from its fastest lap, the upper decile of the
saturation phase's slices, the best parts of three set-ups.
"""

from __future__ import annotations

import asyncio
import gc
import os
from bisect import bisect_left
import resource
import shutil
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.cluster.client import ClusterClient, ClusterTopology, GroupTopology, NodeAddress
from repro.cluster.failover import build_local_cluster
from repro.lsm import LSMTree
from repro.server.client import AsyncKVClient, KVClient
from repro.server.server import KVServer, ServerThread
from repro.surf import surf_real
from repro.workloads import random_u64_keys, ycsb

import layers
import procs
from loadgen import (
    OP_ERRORS, AsyncDriver, Partition, PhaseResult, ThreadDriver, latency_us,
    make_value, owner_of, upper_decile, window_counts, VALUE_SIZE,
)
from tracing import Tracer

N_SHARDS = 2
N_CONNECTIONS = 2  # == reference nproc; the generator never uses more
DEPTH = 16  # requests in flight per pipelined connection
SAT_SHARE = 0.5  # of --seconds with --trace 1; the paced phase gets the rest
N_SETUPS = 3  # complete set-ups per run; setup_s is made of their best parts
LOAD_WINDOW = 0.25  # slices of the bulk load; three loads give about thirty
TRACE_SHARE = 0.25  # traced runs are this fraction of the untraced length
P99_MIN_SAMPLES = 1000  # ten samples beyond the 99th percentile
P90_MIN_SAMPLES = 100
SETTLE_TIMEOUT = 60.0
SWEEP_CHUNK = 256

#: Frozen sizes.  ``stream_ops`` is the saturation stream (it wraps if
#: the system outruns it); ``paced_rate`` is requests per second.
SPECS: dict[str, dict[str, Any]] = {
    "lib_read": {"n_keys": 40_000, "block_cache_blocks": 32,
                 # calls per lap: 1/80 of the issue's 400k + 60k batched keys,
                 # 100k gets, 1,000 scans and 20k seeks; about 0.3 s of calls
                 "lap": {"get_many256": 20, "get_many8": 94, "get": 1250,
                         "scan": 12, "seek": 250}},
    "wire_c": {"mix": "C", "n_keys": 20_000, "stream_ops": 150_000, "paced_rate": 4000},
    "wire_a": {"mix": "A", "n_keys": 20_000, "stream_ops": 80_000, "paced_rate": 2000},
    "repl_a": {"mix": "A", "n_keys": 5_000, "stream_ops": 20_000, "paced_rate": 400},
}


#: Metrics that only one kind of workload can measure; the others
#: report them as 0 so every run prints every name in BENCHMARK.json.
LIB_ONLY = (
    "scan_p50_us", "scan_p90_us", "filter_bits_per_key",
    "lsm.get_many256.us_per_key", "lsm.get_many8.us_per_key", "lsm.get.us_per_key",
    "lsm.scan.us_per_op", "lsm.seek.us_per_op",
)
CLUSTER_ONLY = (
    "cluster.ack_wait_us", "cluster.follower_read_frac", "cluster.lagging_reads",
    "cluster.redirects", "cluster.follower_lag_seq_max", "cluster.log_bytes_end",
)
SERVED_ONLY = (
    "write_p50_us", "write_p99_us", "recover_s",
    "loadgen.cpu_frac", "loadgen.lag_p99_us", "client.rtt_mean_us", "client.retries",
    "server.get.mean_us", "server.get.p99_us", "server.put.mean_us", "server.put.p99_us",
    "server.cpu_frac", "server.overloads", "server.errors", "server.dispatch_us",
    "shard.get.mean_us", "shard.write.mean_us", "shard.get_batch_mean",
    "shard.write_batch_mean", "shard.queue_high_water",
    "trace.shard_wait_us", "trace.server_us", "trace.wire_us",
)


@dataclass
class RunConfig:
    workload: str
    seed: int
    seconds: float
    trace: bool
    scale: float  # 1.0, or 0.05 in --smoke (keys and streams shrink too)
    corrupt: bool  # --self-test: inject one wrong expected value
    workdir: str
    spans_out: str | None

    def scaled(self, n: int) -> int:
        return max(64, int(n * self.scale))

    @property
    def n_setups(self) -> int:
        return N_SETUPS if self.scale == 1.0 and not self.trace else 1


class Report:
    """What one workload run hands back to the supervisor."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float | None] = {}
        self.detail: dict[str, Any] = {}

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        self.metrics["failed_frac"] = self.failed / self.attempted

    def to_dict(self) -> dict[str, Any]:
        return {"attempted": self.attempted, "failed": self.failed,
                "metrics": self.metrics, "detail": self.detail}


def quiesce_gc() -> None:
    """Collect now and move what survives — keys, op streams, the
    model — out of the collector's sight, so no full collection walks
    those hundreds of thousands of objects inside a timed phase."""
    gc.collect()
    gc.freeze()


# -- inputs --------------------------------------------------------------------


def served_inputs(cfg: RunConfig, spec: dict, paced_seconds: float):
    """Keys, per-connection partitions and op streams, all from --seed."""
    keys = random_u64_keys(cfg.scaled(spec["n_keys"]), seed=cfg.seed)
    n_sat = cfg.scaled(spec["stream_ops"])
    n_paced = int(spec["paced_rate"] * paced_seconds)
    plan = ycsb.generate(spec["mix"], keys, n_sat + n_paced, seed=cfg.seed)
    sat_ops, paced_ops = plan.operations[:n_sat], plan.operations[n_sat:]
    parts = [Partition(k for k in keys if owner_of(k, N_CONNECTIONS) == c)
             for c in range(N_CONNECTIONS)]
    sat = [[op for op in sat_ops if owner_of(op.key, N_CONNECTIONS) == c]
           for c in range(N_CONNECTIONS)]
    paced = [[(i, op) for i, op in enumerate(paced_ops)
              if owner_of(op.key, N_CONNECTIONS) == c]
             for c in range(N_CONNECTIONS)]
    return keys, parts, sat, paced


# -- systems under test ----------------------------------------------------------


class ServedSystem:
    """One loaded system: its node processes (primary first) or, for
    the traced run, the same servers on threads of this process."""

    def __init__(self, root: str, cluster: bool, inproc: bool) -> None:
        self.root = root
        self.cluster = cluster
        self.inproc = inproc
        self.nodes: list[procs.ServerProcess] = []
        self.ports: list[int] = []
        self._inproc_handle: Any = None

    # node 0 is the primary (or the only server)
    def start(self) -> "ServedSystem":
        os.makedirs(self.root, exist_ok=True)
        if self.inproc:
            self._start_inproc()
            return self
        n_nodes = 3 if self.cluster else 1
        self.ports = [procs.free_port() for _ in range(n_nodes)]
        if self.cluster:
            followers = [f"{procs.HOST}:{p}" for p in self.ports[1:]]
            self.nodes = [self._node(0, self.ports[0], "primary", followers)] + [
                self._node(i, port, "follower", [])
                for i, port in enumerate(self.ports) if i
            ]
        else:
            self.nodes.append(procs.ServerProcess(
                "server",
                ["repro.server", "serve", "--path", os.path.join(self.root, "n0"),
                 "--shards", str(N_SHARDS), "--port", str(self.ports[0])],
                self.ports[0], self.root,
            ))
        # Followers first: the primary dials them as soon as it is up.
        for node in self.nodes[1:]:
            node.start()
        for node in self.nodes[1:]:
            node.wait_ready()
        self.nodes[0].start().wait_ready()
        return self

    def _node(self, i: int, port: int, role: str, followers: list[str]):
        argv = ["repro.cluster", "node", "--path", os.path.join(self.root, f"n{i}"),
                "--role", role, "--port", str(port), "--shards", str(N_SHARDS)]
        for spec in followers:
            argv += ["--follower", spec]
        return procs.ServerProcess(f"node{i}", argv, port, self.root)

    def _start_inproc(self) -> None:
        if self.cluster:
            cluster = build_local_cluster(
                self.root, n_groups=1, followers_per_group=2, n_shards=N_SHARDS
            ).start()
            self._inproc_handle = cluster
            self.ports = [n.address.port for n in cluster.nodes()]
        else:
            thread = ServerThread(
                KVServer(os.path.join(self.root, "n0"), n_shards=N_SHARDS)
            ).start()
            self._inproc_handle = thread
            self.ports = [thread.port]

    def restart_primary(self) -> None:
        """SIGKILL node 0 and start it again on the same directory."""
        self.nodes[0].kill()
        self.nodes[0].start().wait_ready()

    def stop(self) -> None:
        if self._inproc_handle is not None:
            self._inproc_handle.stop()
            self._inproc_handle = None
        for node in self.nodes:  # primary first: its drain reaches live followers
            node.stop()

    def kill(self) -> None:
        """Throw-away set-ups are not worth a graceful drain."""
        for node in self.nodes:
            node.kill()

    def topology(self) -> ClusterTopology:
        addrs = [NodeAddress(f"n{i}", procs.HOST, p) for i, p in enumerate(self.ports)]
        return ClusterTopology([GroupTopology("g0", addrs[0], addrs[1:])], n_shards=N_SHARDS)

    def stats(self) -> list[dict]:
        """One STATS dict per node, primary first (admin connection,
        only ever used between timed phases)."""
        out = []
        for port in self.ports:
            with KVClient(procs.HOST, port) as client:
                out.append(client.stats())
        return out

    def proc_total(self, reader: Callable[[int], float | None]) -> float | None:
        """Sum of a ``/proc/<pid>`` reading over the node processes;
        None when any is unreadable or the nodes are threads of ours."""
        samples = [reader(node.pid) for node in self.nodes]
        return None if not samples or None in samples else sum(samples)

    def settle(self) -> None:
        """SYNC, then poll until no shard has flush or compaction work."""
        with KVClient(procs.HOST, self.ports[0]) as client:
            client.sync()
        deadline = time.monotonic() + SETTLE_TIMEOUT
        while not layers.settled(self.stats()):
            if time.monotonic() > deadline:
                raise TimeoutError("background work did not settle")
            time.sleep(0.02)


async def bulk_load(port: int, parts: Sequence[Partition]) -> list[float]:
    """Version 0 of every key through the primary, at the same
    concurrency as the measured phases.  Returns when each PUT was
    acked."""
    clients = [await AsyncKVClient.connect(procs.HOST, port) for _ in parts]
    acked: list[float] = []

    async def worker(client: AsyncKVClient, keys: Any) -> None:
        for key in keys:
            await client.put(key, make_value(key, 0))
            acked.append(time.perf_counter())

    try:
        workers = []
        for client, part in zip(clients, parts):
            keys = iter(list(part.sent))
            workers += [worker(client, keys) for _ in range(DEPTH)]
        await asyncio.gather(*workers)
    finally:
        for client in clients:
            await client.close()
    return acked


def set_up(cfg: RunConfig, cluster: bool, parts: Sequence[Partition],
           inproc: bool = False, tag: str = "sys") -> tuple[ServedSystem, float, list[float]]:
    """Spawn + bulk load + settle, ``cfg.n_setups`` times over; the
    last system is kept.  Returns it with ``setup_s`` and every
    set-up's plain duration.

    ``setup_s`` is made of the parts at their least disturbed: the
    fastest spawn, the load at the upper decile of its rate over
    ``LOAD_WINDOW`` slices of all the loads (see
    ``loadgen.upper_decile``), the fastest settle.  A whole set-up takes
    seconds and a neighbour's burst stretches it two- or threefold, so
    neither the median nor the minimum of three whole set-ups holds
    still on a shared machine."""
    spawns: list[float] = []
    settles: list[float] = []
    totals: list[float] = []
    load_counts: list[int] = []
    n = 1 if inproc else cfg.n_setups
    for i in range(n):
        system = ServedSystem(os.path.join(cfg.workdir, f"{tag}{i}"), cluster, inproc)
        started = time.perf_counter()
        try:
            system.start()
            spawned = time.perf_counter()
            acked = asyncio.run(bulk_load(system.ports[0], parts))
            loaded = time.perf_counter()
            system.settle()
        except BaseException:
            system.stop()
            raise
        done = time.perf_counter()
        spawns.append(spawned - started)
        settles.append(done - loaded)
        totals.append(done - started)
        load_counts += window_counts(acked, spawned, loaded - spawned, LOAD_WINDOW)
        if i < n - 1:
            system.kill()
            shutil.rmtree(system.root, ignore_errors=True)
    best = upper_decile(load_counts)
    if best is None:  # --smoke: the load is over in a slice or two
        return system, min(totals), totals
    n_keys = sum(len(part.sent) for part in parts)
    return system, min(spawns) + n_keys / (best / LOAD_WINDOW) + min(settles), totals


# -- verification ---------------------------------------------------------------


def sweep(get_many: Callable[[list[bytes]], list[Any]], parts: Sequence[Partition]) -> tuple[int, int]:
    """Read every key back and compare with its last acked version.
    Returns (keys read, mismatches)."""
    read = wrong = 0
    for part in parts:
        keys = list(part.sent)
        for i in range(0, len(keys), SWEEP_CHUNK):
            chunk = keys[i : i + SWEEP_CHUNK]
            try:
                values = get_many(chunk)
            except OP_ERRORS:
                values = [None] * len(chunk)
            for key, value in zip(chunk, values):
                read += 1
                wrong += not part.check(key, value, part.acked[key])
    return read, wrong


# -- served workloads ---------------------------------------------------------------


def latency_metrics(paced: PhaseResult) -> dict[str, float | None]:
    def pct(samples: list[float], q: float, min_samples: int) -> float | None:
        return latency_us(samples, q, min_samples) if samples else 0.0

    return {
        "read_p50_us": latency_us(paced.read_lat, 0.50),
        "read_p99_us": latency_us(paced.read_lat, 0.99, P99_MIN_SAMPLES),
        # 0 on a read-only mix: there is nothing to time.
        "write_p50_us": pct(paced.write_lat, 0.50, 1),
        "write_p99_us": pct(paced.write_lat, 0.99, P99_MIN_SAMPLES),
        "loadgen.lag_p99_us": latency_us(paced.lag, 0.99, P99_MIN_SAMPLES),
    }


class ServedRun:
    """Saturation (+ paced) phase against one loaded system, with the
    STATS and /proc samples the layer metrics are made of."""

    def __init__(self, system: ServedSystem, parts: Sequence[Partition],
                 tracer: Tracer | None = None) -> None:
        self.system = system
        self.parts = parts
        self.tracer = tracer
        self.cluster_clients: list[ClusterClient] = []
        self.samples: list[dict[str, Any]] = []
        self.retries = 0
        self.sat: PhaseResult | None = None
        self.paced: PhaseResult | None = None

    def _sample(self) -> None:
        self.samples.append({
            "at": time.perf_counter(), "stats": self.system.stats(),
            "cpu": self.system.proc_total(procs.cpu_seconds),
            "io": self.system.proc_total(procs.io_write_bytes),
        })

    def run(self, sat_streams, sat_seconds: float, paced_streams=None,
            rate: float | None = None) -> "ServedRun":
        if self.system.cluster:
            self._run_threads(sat_streams, sat_seconds, paced_streams, rate)
        else:
            asyncio.run(self._run_async(sat_streams, sat_seconds, paced_streams, rate))
        return self

    async def _run_async(self, sat_streams, sat_seconds, paced_streams, rate) -> None:
        port = self.system.ports[0]
        clients = [await AsyncKVClient.connect(procs.HOST, port) for _ in self.parts]
        try:
            driver = AsyncDriver(clients, self.parts, DEPTH, self.tracer)
            self._sample()
            self.sat = await driver.closed(sat_streams, sat_seconds)
            self._sample()
            if rate:
                self.paced = await driver.paced(paced_streams, rate)
                self._sample()
            self.retries = sum(c.retries for c in clients)
        finally:
            for client in clients:
                await client.close()

    def _run_threads(self, sat_streams, sat_seconds, paced_streams, rate) -> None:
        topology = self.system.topology()
        self.cluster_clients = [
            ClusterClient(topology, read_from_followers=True) for _ in self.parts
        ]
        try:
            driver = ThreadDriver(self.cluster_clients, self.parts, self.tracer)
            self._sample()
            self.sat = driver.closed(sat_streams, sat_seconds)
            self._sample()
            if rate:
                self.paced = driver.paced(paced_streams, rate)
                self._sample()
            self.retries = sum(c.retries for c in self.cluster_clients)
        finally:
            for client in self.cluster_clients:
                client.close()

    def layer_metrics(self) -> dict[str, Any]:
        """Everything measured across the saturation phase."""
        sat, (before, after) = self.sat, self.samples[:2]
        s0, s1 = before["stats"], after["stats"]
        reads, puts = layers.served_ops(s0, s1)

        def delta(field: str) -> float | None:
            if before[field] is None or after[field] is None:
                return None
            return after[field] - before[field]

        cpu = delta("cpu")
        out: dict[str, Any] = {
            "loadgen.cpu_frac": sat.cpu_seconds / sat.elapsed,
            "client.rtt_mean_us": sat.rtt_mean_us,
            "client.retries": float(self.retries),
            "server.cpu_frac": None if cpu is None else cpu / sat.elapsed,
        }
        out.update(layers.serving_layers(s0, s1))
        out.update(layers.lsm_layer(s0, s1, reads, puts, delta("io")))
        if self.system.cluster:
            out.update(layers.cluster_layer([s["stats"] for s in self.samples], s0, s1))
            lagging = sum(c.lagging_reads for c in self.cluster_clients)
            n_reads = len(sat.read_lat) + (len(self.paced.read_lat) if self.paced else 0)
            out["cluster.lagging_reads"] = float(lagging)
            out["cluster.redirects"] = float(sum(c.moved_ops for c in self.cluster_clients))
            out["cluster.follower_read_frac"] = 1.0 - lagging / n_reads if n_reads else 0.0
        return out


def run_served(cfg: RunConfig) -> Report:
    """``--trace 0`` spends all of ``--seconds`` in the saturation
    phase, which is what the gated ``ops_per_s`` comes from; ``--trace
    1`` splits them between saturation and the paced phase the latency
    metrics come from, then runs the traced pass."""
    spec = SPECS[cfg.workload]
    cluster = cfg.workload == "repl_a"
    sat_seconds = cfg.seconds * (SAT_SHARE if cfg.trace else 1.0)
    keys, parts, sat_streams, paced_streams = served_inputs(
        cfg, spec, cfg.seconds - sat_seconds
    )
    report = Report()
    metrics = report.metrics

    system, setup_s, setup_times = set_up(cfg, cluster, parts)
    try:
        if cfg.corrupt:
            parts[0].corrupt_one()
        quiesce_gc()
        run = ServedRun(system, parts).run(
            sat_streams, sat_seconds, paced_streams, spec["paced_rate"] if cfg.trace else None
        )
        sat, paced = run.sat, run.paced
        report.add(sat.attempted, sat.failed)
        metrics.update(dict.fromkeys(LIB_ONLY + (() if cluster else CLUSTER_ONLY), 0.0))
        metrics["setup_s"] = setup_s
        metrics["ops_per_s"] = sat.ops_per_s
        metrics.update(run.layer_metrics())
        if paced is not None:
            report.add(paced.attempted, paced.failed)
            metrics.update(latency_metrics(paced))
            report.detail.update({
                "paced_ops": paced.completed, "paced_rate": spec["paced_rate"],
                "read_samples": len(paced.read_lat), "write_samples": len(paced.write_lat),
                "lag_p50_us": latency_us(paced.lag, 0.5),
            })

        system.settle()
        with KVClient(procs.HOST, system.ports[0]) as client:
            report.add(*sweep(client.get_many, parts))
        live_bytes = len(keys) * (len(keys[0]) + VALUE_SIZE)
        metrics["space_amp"] = procs.dir_bytes(os.path.join(system.root, "n0")) / live_bytes
        metrics["rss_peak_mb"] = system.proc_total(procs.peak_rss_mb)
        metrics["recover_s"] = 0.0  # only wire_a crashes its server
        if cfg.workload == "wire_a":
            # Every acked PUT's latest version must survive kill -9.
            killed = time.perf_counter()
            system.restart_primary()
            with KVClient(procs.HOST, system.ports[0]) as client:
                client.get(keys[0])
                metrics["recover_s"] = time.perf_counter() - killed
                swept, lost = sweep(client.get_many, parts)
            report.add(swept, lost)
            report.detail["post_kill_lost"] = lost
        report.detail.update({
            "setup_s_all": setup_times,
            "sat_ops": sat.completed, "sat_elapsed_s": sat.elapsed,
            "sat_ops_per_s_mean": sat.completed / sat.elapsed,
            "sat_window_counts": sat.window_counts(),
            "client_bound": metrics["loadgen.cpu_frac"] >= 0.95,
        })
    finally:
        system.stop()
    if cfg.trace:
        traced_served(cfg, cluster, parts, sat_streams, sat_seconds * TRACE_SHARE, report)
    return report


ENGINE_LAYERS = ("lsm_read", "filter", "lsm_write", "wal", "memtable")
SPAN_LAYERS = ("protocol",) + ENGINE_LAYERS


def traced_served(cfg: RunConfig, cluster: bool, parts: Sequence[Partition],
                  sat_streams, seconds: float, report: Report) -> None:
    """The same system on threads of this process, saturation phase
    only: once plain, once with the wrappers on."""
    for part in parts:
        part.reset()
    system, _, _ = set_up(cfg, cluster, parts, inproc=True, tag="traced")
    tracer = Tracer()
    try:
        plain = ServedRun(system, parts).run(sat_streams, seconds).sat
        tracer.install()
        traced_run = ServedRun(system, parts, tracer).run(sat_streams, seconds)
    finally:
        tracer.uninstall()
        system.stop()
    traced = traced_run.sat
    report.add(plain.attempted, plain.failed)
    report.add(traced.attempted, traced.failed)

    before, after = traced_run.samples[:2]
    rows = tracer.self_times(before["at"], after["at"])
    ledger = ledger_metrics(rows, traced.completed, traced.cpu_seconds,
                            plain.ops_per_s, traced.ops_per_s)
    # The latency chain: client = wire + server + shard wait + engine.
    s0, s1 = before["stats"], after["stats"]
    server_mean = layers.mean_us(s0, s1, ("get", "get_at"), ("put",))
    shard_mean = layers.mean_us(s0, s1, ("shard_get",), ("shard_write",))
    client_mean = traced.rtt_mean_us
    engine_us = sum(ledger[f"trace.{layer}_us"] for layer in ENGINE_LAYERS)
    ledger["trace.shard_wait_us"] = shard_mean - engine_us
    ledger["trace.server_us"] = server_mean - shard_mean
    ledger["trace.wire_us"] = client_mean - server_mean
    report.metrics.update(ledger)
    report.detail["trace"] = {
        "ops": traced.completed, "budget_s": traced.cpu_seconds,
        "ops_per_s_plain_inproc": plain.ops_per_s,
        "ops_per_s_traced_inproc": traced.ops_per_s,
        "client_mean_us": client_mean, "server_mean_us": server_mean,
        "shard_mean_us": shard_mean, "spans": len(tracer.spans), "layers": rows,
    }
    if cfg.spans_out:
        tracer.dump(cfg.spans_out)


def ledger_metrics(rows: dict[str, dict[str, float]], ops: int, budget_s: float,
                   plain_ops_per_s: float, traced_ops_per_s: float) -> dict[str, float]:
    """The traced ledger: CPU self time per client op by layer, and the
    share of ``budget_s`` — the CPU time the traced process spent over
    the phase, generator included — that no span covers."""
    ops = max(ops, 1)

    def self_s(layer: str) -> float:
        return rows.get(layer, {}).get("self_s", 0.0)

    out = {f"trace.{layer}_us": self_s(layer) / ops * 1e6 for layer in SPAN_LAYERS}
    out["trace.sstable_build_s"] = self_s("sstable_build")
    out["trace.filter_build_s"] = self_s("filter_build")
    covered = sum(self_s(layer) for layer in SPAN_LAYERS + ("sstable_build", "filter_build"))
    out["trace.unattributed_frac"] = 1.0 - covered / budget_s
    out["trace.overhead_frac"] = (
        1.0 - traced_ops_per_s / plain_ops_per_s if plain_ops_per_s else 0.0
    )
    return out


# -- lib_read -----------------------------------------------------------------------


class LibLaps:
    """The five kinds of engine call of ``lib_read``, run in laps.

    A lap is one fixed list of calls — ``SPECS["lib_read"]["lap"]``
    calls of each kind, over consecutive segments of the Zipfian query
    stream — and the laps repeat until ``--seconds`` are used up.  The
    engine is inline and read-only here and its caches end every lap in
    the state they started it in, so call *i* does the same work in
    every lap and anything above its fastest time is the shared
    machine, not the program.  A call's time is therefore the best of
    its laps, and the rates below are ops over the sum of those best
    times: the finest grain at which a quiet moment of the machine can
    be used, and the same best-of-N rule as
    ``repro.bench.harness.measure_ops``."""

    NAMES = ("get_many256", "get_many8", "get", "scan", "seek")
    WIDTH = {"get_many256": 256, "get_many8": 8, "get": 1, "scan": 1, "seek": 1}
    MIN_LAPS = 3

    def __init__(self, db: LSMTree, stored: dict[bytes, bytes], queries: list[bytes],
                 lap: dict[str, int]) -> None:
        self.db = db
        self.stored = stored
        self.sorted_keys = sorted(stored)
        self.wrong = 0
        self.laps = 0
        # The arguments of every call of a lap, cut from the query stream.
        self.args: dict[str, list] = {}
        at = 0
        for name in self.NAMES:
            width, calls = self.WIDTH[name], lap[name]
            if width > 1:
                self.args[name] = [queries[at + i * width : at + (i + 1) * width]
                                   for i in range(calls)]
            else:
                self.args[name] = queries[at : at + calls]
            at += width * calls
        # Scan lengths step evenly through YCSB's 50..100.
        spread = ycsb.SCAN_LEN_MAX - ycsb.SCAN_LEN_MIN + 1
        self.args["scan"] = [(key, ycsb.SCAN_LEN_MIN + i * spread // lap["scan"])
                             for i, key in enumerate(self.args["scan"])]
        self.lap_ops = {n: self.WIDTH[n] * len(self.args[n]) for n in self.NAMES}
        #: seconds of each call of the lap in its fastest lap, per kind
        self.best: dict[str, list[float]] = {}
        #: seconds of every get and scan made (the latency samples)
        self.calls: dict[str, list[float]] = {"get": [], "scan": []}
        #: time spent inside the timed calls, all kinds, all laps
        self.busy_s = 0.0

    def run(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while self.laps < self.MIN_LAPS or time.perf_counter() < deadline:
            for name in self.NAMES:
                lap: list[float] = []
                getattr(self, "_" + name)(self.args[name], lap)
                self.busy_s += sum(lap)
                if name in self.calls:
                    self.calls[name] += lap
                best = self.best.get(name)
                self.best[name] = lap if best is None else list(map(min, best, lap))
            self.laps += 1

    def _batches(self, batches: list, calls: list[float]) -> None:
        get_many, stored, clock = self.db.get_many, self.stored, time.perf_counter
        for batch in batches:
            t0 = clock()
            values = get_many(batch)
            calls.append(clock() - t0)
            self.wrong += sum(v != stored.get(k) for k, v in zip(batch, values))

    _get_many256 = _get_many8 = _batches

    def _get(self, keys: list, calls: list[float]) -> None:
        get, stored, clock = self.db.get, self.stored, time.perf_counter
        for key in keys:
            t0 = clock()
            value = get(key)
            calls.append(clock() - t0)
            self.wrong += value != stored.get(key)

    def _expected_from(self, low: bytes, count: int) -> list[tuple[bytes, bytes]]:
        start = bisect_left(self.sorted_keys, low)
        return [(k, self.stored[k]) for k in self.sorted_keys[start : start + count]]

    def _scan(self, scans: list, calls: list[float]) -> None:
        scan, clock = self.db.scan, time.perf_counter
        for key, count in scans:
            t0 = clock()
            rows = scan(key, count)
            calls.append(clock() - t0)
            self.wrong += rows != self._expected_from(key, count)

    def _seek(self, keys: list, calls: list[float]) -> None:
        seek, clock = self.db.seek, time.perf_counter
        for key in keys:
            t0 = clock()
            row = seek(key)
            calls.append(clock() - t0)
            expected = self._expected_from(key, 1)
            self.wrong += row != (expected[0] if expected else None)

    @property
    def attempted(self) -> int:
        return self.laps * sum(self.lap_ops.values())

    def rate(self, name: str) -> float:
        """Ops (keys, scans, seeks) per second of one kind of call."""
        return self.lap_ops[name] / sum(self.best[name])

    @property
    def ops_per_s(self) -> float:
        """The ops of one lap over the time its calls take at their best."""
        return sum(self.lap_ops.values()) / sum(sum(best) for best in self.best.values())


def open_lib_engine(path: str, spec: dict, stored: dict[bytes, bytes],
                    filter_factory: Callable = surf_real) -> LSMTree:
    db = LSMTree.open(path, filter_factory=filter_factory,
                      block_cache_blocks=spec["block_cache_blocks"])
    pairs = list(stored.items())
    for i in range(0, len(pairs), 256):
        db.write_batch(pairs[i : i + 256])
    db.flush_memtable()
    return db


def lib_lap(cfg: RunConfig, spec: dict) -> dict[str, int]:
    return {name: max(2, round(calls * cfg.scale)) for name, calls in spec["lap"].items()}


def run_lib_read(cfg: RunConfig) -> Report:
    spec = SPECS["lib_read"]
    keys = random_u64_keys(cfg.scaled(spec["n_keys"]), seed=cfg.seed)
    lap = lib_lap(cfg, spec)
    stored_keys, _absent, queries = ycsb.point_query_keys(
        keys, sum(LibLaps.WIDTH[name] * calls for name, calls in lap.items()),
        present_fraction=0.5, seed=cfg.seed,
    )
    stored = {k: make_value(k, 0) for k in stored_keys}
    report = Report()
    metrics = report.metrics

    setup_times = []
    for i in range(cfg.n_setups):
        path = os.path.join(cfg.workdir, f"lib{i}")
        started = time.perf_counter()
        db = open_lib_engine(path, spec, stored)
        setup_times.append(time.perf_counter() - started)
        if i < cfg.n_setups - 1:
            db.close()
            shutil.rmtree(path, ignore_errors=True)
    try:
        before = [{"shards": [db.info()]}]
        laps = LibLaps(db, stored, queries, lap)
        if cfg.corrupt:
            key = next(k for k in laps.args["get"] if k in stored)
            stored[key] = make_value(key, 1)
        quiesce_gc()
        laps.run(cfg.seconds)
        after = [{"shards": [db.info()]}]
        metrics.update(dict.fromkeys(SERVED_ONLY + CLUSTER_ONLY, 0.0))
        # Open + load + flush is one second of one thread: the fastest
        # of the set-ups is the one the machine disturbed least.
        metrics["setup_s"] = min(setup_times)
        metrics["ops_per_s"] = laps.ops_per_s
        gets, scans = laps.calls["get"], laps.calls["scan"]
        metrics["read_p50_us"] = latency_us(gets, 0.50, 1)
        metrics["read_p99_us"] = latency_us(gets, 0.99, P99_MIN_SAMPLES)
        metrics["scan_p50_us"] = latency_us(scans, 0.50, 1)
        metrics["scan_p90_us"] = latency_us(scans, 0.90, P90_MIN_SAMPLES)
        metrics["filter_bits_per_key"] = db.filter_memory_bytes() * 8 / db.total_entries()
        live_bytes = len(stored) * (len(stored_keys[0]) + VALUE_SIZE)
        metrics["space_amp"] = procs.dir_bytes(path) / live_bytes
        point_reads = laps.laps * sum(
            laps.lap_ops[n] for n in ("get_many256", "get_many8", "get")
        )
        metrics.update(layers.lsm_layer(before, after, point_reads, 0, 0.0))
        for name in LibLaps.NAMES:
            unit = "us_per_key" if name.startswith("get") else "us_per_op"
            metrics[f"lsm.{name}.{unit}"] = 1e6 / laps.rate(name)
        report.add(laps.attempted, laps.wrong)
        report.detail.update({
            "setup_s_all": setup_times, "laps": laps.laps, "lap_ops": laps.lap_ops,
            "ops_per_s_all_laps": laps.attempted / laps.busy_s,
            "read_samples": len(gets), "scan_samples": len(scans),
            "tables": db.table_count(),
        })
        if cfg.trace:
            traced_lib(cfg, spec, lap, db, stored, queries, report)
    finally:
        db.close()
    metrics["rss_peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return report


def traced_lib(cfg: RunConfig, spec: dict, lap: dict[str, int], db: LSMTree, stored, queries,
               report: Report) -> None:
    """Plain then traced laps at a quarter length; the traced engine
    is built with the wrappers on so the build spans are recorded."""
    seconds = cfg.seconds * TRACE_SHARE
    plain = LibLaps(db, stored, queries, lap)
    plain.run(seconds)
    tracer = Tracer()
    tracer.install()
    try:
        traced_db = open_lib_engine(
            os.path.join(cfg.workdir, "lib-traced"), spec, stored,
            tracer.wrap_filter_factory(surf_real),
        )
        try:
            built = time.perf_counter()
            traced = LibLaps(traced_db, stored, queries, lap)
            traced.run(seconds)
            done = time.perf_counter()
        finally:
            traced_db.close()
    finally:
        tracer.uninstall()
    report.add(plain.attempted + traced.attempted, plain.wrong + traced.wrong)
    rows = tracer.self_times(built, done)
    ledger = ledger_metrics(rows, traced.attempted, traced.busy_s,
                            plain.ops_per_s, traced.ops_per_s)
    builds = tracer.self_times(0.0, built)
    ledger["trace.sstable_build_s"] = builds.get("sstable_build", {}).get("self_s", 0.0)
    ledger["trace.filter_build_s"] = builds.get("filter_build", {}).get("self_s", 0.0)
    report.metrics.update(ledger)
    report.detail["trace"] = {
        "ops": traced.attempted, "budget_s": traced.busy_s,
        "ops_per_s_plain_inproc": plain.ops_per_s,
        "ops_per_s_traced_inproc": traced.ops_per_s,
        "spans": len(tracer.spans), "layers": rows,
    }
    if cfg.spans_out:
        tracer.dump(cfg.spans_out)


def run_workload(cfg: RunConfig) -> Report:
    if cfg.workload == "lib_read":
        return run_lib_read(cfg)
    return run_served(cfg)
