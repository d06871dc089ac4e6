"""The sharded KV server: protocol, end-to-end ops, coalescing,
backpressure, graceful shutdown, dead-shard semantics, signal-safe
serving, and crash durability through the network stack.

The crash centerpiece mirrors the engine-level kill matrix
(``test_lsm_durability.py``) but acknowledges through the *server*: a
client counts OK write responses against a FaultFS-backed shard, power
fails at every sync/rename point in turn, and recovery under all four
torn-write models must contain every client-acknowledged write.
"""

import asyncio
import os
import signal
import subprocess
import sys
import threading

import pytest

from repro.lsm import LSMTree, TOMBSTONE
from repro.lsm.disk_format import FrameError
from repro.server import (
    AsyncKVClient,
    KVClient,
    KVServer,
    ServerError,
    ServerShuttingDownError,
    ServerThread,
    ShardDown,
    shard_of,
)
from repro.server import protocol
from repro.server.shard import ShardRequest, ShardWorker
from repro.server.stats import LatencyHistogram, ServerStats
from repro.testing.faultfs import CRASH_MODES, FaultFS, MemFS, PowerFailure
from repro.workloads.keys import encode_u64

TINY_CONFIG = dict(
    memtable_entries=16,
    sstable_entries=64,
    block_entries=8,
    level0_limit=2,
    block_cache_blocks=32,
    wal_sync_every=4,
)


def decode_burst(server, runner, requests):
    """Decode ``[(opcode, body), ...]`` as ONE burst on the server's
    loop — a deterministic reproduction of what one ``read()`` of a
    pipelined connection produces.  Request ids are the positions."""
    frames = [(i, opcode, body) for i, (opcode, body) in enumerate(requests)]

    async def go():
        return server._decode_burst(frames)

    return asyncio.run_coroutine_threadsafe(go(), runner._loop).result(30)


def answer_steps(server, runner, steps):
    """Answer a decoded burst on the server's loop: ``[(status, body)]``."""
    blob = asyncio.run_coroutine_threadsafe(
        server._answer_burst(0.0, steps), runner._loop
    ).result(30)
    out = []
    assert protocol.parse_frames(bytearray(blob), out) == len(blob)
    assert [rid for rid, _, _ in out] == list(range(len(out)))
    return [(status, body) for _, status, body in out]


def answer_burst(server, runner, requests):
    return answer_steps(server, runner, decode_burst(server, runner, requests))


def start_server(n_shards=2, **kw):
    """In-process server over per-shard MemFS; returns (server, runner, fss)."""
    fss = [MemFS() for _ in range(n_shards)]
    server = KVServer(
        "kv",
        n_shards=n_shards,
        fs=lambda i: fss[i],
        engine_config=kw.pop("engine_config", TINY_CONFIG),
        **kw,
    )
    runner = ServerThread(server).start()
    return server, runner, fss


# -- wire protocol -----------------------------------------------------------


class TestProtocol:
    def test_frame_roundtrip(self):
        blob = protocol.frame(7, protocol.GET, b"body")
        length = protocol.parse_length(blob[:4])
        assert length == len(blob) - 4
        request_id, code, body = protocol.parse_payload(blob[4:])
        assert (request_id, code, body) == (7, protocol.GET, b"body")

    def test_length_bounds(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_length((protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "little"))
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_length((2).to_bytes(4, "little"))  # < header
        with pytest.raises(protocol.ProtocolError):
            protocol.frame(1, protocol.PUT, b"x" * protocol.MAX_FRAME_BYTES)

    def test_key_value_codecs(self):
        for value in (0, -5, 2**62, b"", b"\x00\xff", "héllo"):
            body = protocol.encode_key_value(b"key", value)
            assert protocol.decode_key_value(body) == (b"key", value)
        assert protocol.decode_key(protocol.encode_key(b"k")) == b"k"
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_key(protocol.encode_key(b"k") + b"junk")

    def test_batch_codecs(self):
        keys = [b"a", b"", b"long" * 10]
        assert protocol.decode_keys(protocol.encode_keys(keys)) == keys
        pairs = [(b"a", 1), (b"b", b"raw"), (b"c", "s")]
        assert protocol.decode_pairs(protocol.encode_pairs(pairs)) == pairs
        values = [1, None, b"x", None, "y"]
        body = protocol.encode_maybe_values(values, missing=None)
        assert protocol.decode_maybe_values(body) == values

    def test_scan_range_u64_codecs(self):
        assert protocol.decode_scan(protocol.encode_scan(b"lo", 9)) == (b"lo", 9)
        assert protocol.decode_range(protocol.encode_range(b"a", b"b")) == (b"a", b"b")
        assert protocol.decode_u64_body(protocol.encode_u64_body(2**40)) == 2**40

    def test_truncated_response_bodies_raise_protocol_errors(self):
        """A response body cut at any length is a ProtocolError (or the
        storage codecs' FrameError) — never ``struct.error`` or
        ``IndexError`` leaking out of the client."""
        cases = [
            (protocol.decode_value_body, protocol.encode_value_body(-5)),
            (protocol.decode_pairs,
             protocol.encode_pairs([(b"a", 1), (b"", b"raw"), (b"c", "s")])),
            (protocol.decode_maybe_values,
             protocol.encode_maybe_values([1, None, b"x", None, "y"], missing=None)),
            (protocol.decode_u64_body, protocol.encode_u64_body(2**40)),
            (protocol.decode_watermarks,
             protocol.encode_watermarks(True, 3, {0: (5, 4), 2: (9, 9)})),
        ]
        for decode, body in cases:
            decode(body)  # the whole body is well-formed
            for cut in range(len(body)):
                with pytest.raises((protocol.ProtocolError, FrameError)):
                    decode(body[:cut])


class TestLatencyHistogram:
    def test_buckets_and_quantiles(self):
        h = LatencyHistogram()
        for us in (1, 2, 4, 1000, 1000, 1000):
            h.record(us / 1e6)
        d = h.to_dict()
        assert d["count"] == 6
        assert d["p50_us"] <= d["p99_us"]
        assert h.quantile_us(0.99) >= 1000

    def test_empty(self):
        h = LatencyHistogram()
        assert h.quantile_us(0.5) == 0.0
        assert h.to_dict()["mean_us"] == 0.0


# -- end-to-end over loopback TCP -------------------------------------------


class TestServerOps:
    def test_point_ops_and_types(self):
        server, runner, _ = start_server(n_shards=3)
        try:
            with KVClient(server.host, server.port) as c:
                c.put(b"a", b"bytes")
                c.put(b"b", -17)
                c.put(b"c", "text")
                assert c.get(b"a") == b"bytes"
                assert c.get(b"b") == -17
                assert c.get(b"c") == "text"
                assert c.get(b"missing") is None
                c.delete(b"b")
                assert c.get(b"b") is None
        finally:
            runner.stop()

    def test_batch_get_spans_shards(self):
        server, runner, _ = start_server(n_shards=3)
        try:
            keys = [encode_u64(i) for i in range(60)]
            # Sanity: the keys actually land on every shard.
            assert len({shard_of(k, 3) for k in keys}) == 3
            with KVClient(server.host, server.port) as c:
                for i, k in enumerate(keys):
                    c.put(k, i)
                got = c.get_many(keys + [b"absent"])
                assert got == list(range(60)) + [None]
        finally:
            runner.stop()

    def test_scan_merges_shards_in_order(self):
        server, runner, _ = start_server(n_shards=3)
        try:
            keys = [b"k%04d" % i for i in range(80)]
            with KVClient(server.host, server.port) as c:
                for i, k in enumerate(keys):
                    c.put(k, i)
                pairs = c.scan(b"k0010", 25)
                assert [k for k, _ in pairs] == keys[10:35]
                assert [v for _, v in pairs] == list(range(10, 35))
                assert c.scan(b"zzz", 5) == []
                assert c.count(b"k0000", b"k0080") > 0
        finally:
            runner.stop()

    def test_put_tombstone_is_bad_request(self):
        server, runner, _ = start_server()
        try:
            with KVClient(server.host, server.port) as c:
                with pytest.raises(ServerError) as err:
                    c.put(b"k", TOMBSTONE)
                assert err.value.status == protocol.BAD_REQUEST
        finally:
            runner.stop()

    def test_unknown_opcode_is_bad_request(self):
        server, runner, _ = start_server()
        try:
            with KVClient(server.host, server.port) as c:
                status, _ = c._call(200, b"")
                assert status == protocol.BAD_REQUEST
        finally:
            runner.stop()

    def test_stats_reports_shards_and_ops(self):
        server, runner, _ = start_server(n_shards=2)
        try:
            with KVClient(server.host, server.port) as c:
                for i in range(10):
                    c.put(encode_u64(i), i)
                    c.get(encode_u64(i))
                st = c.stats()
            assert st["n_shards"] == 2 and len(st["shards"]) == 2
            assert st["ops"]["put"] == 10 and st["ops"]["get"] == 10
            assert st["latency"]["get"]["count"] == 10
            assert sum(s["entries"] for s in st["shards"]) == 10
        finally:
            runner.stop()

    def test_pipelined_async_client(self):
        server, runner, _ = start_server(n_shards=2)
        try:

            async def drive():
                c = await AsyncKVClient.connect(server.host, server.port)
                try:
                    await asyncio.gather(
                        *(c.put(encode_u64(i), i) for i in range(150))
                    )
                    values = await asyncio.gather(
                        *(c.get(encode_u64(i)) for i in range(150))
                    )
                    assert values == list(range(150))
                    assert await c.get_many(
                        [encode_u64(0), b"absent", encode_u64(149)]
                    ) == [0, None, 149]
                    return await c.stats()
                finally:
                    await c.close()

            stats = asyncio.run(drive())
            # Concurrency through one pipelined connection must have
            # produced at least one multi-key coalesced engine read.
            assert stats["coalesced_gets"]["max"] > 1
        finally:
            runner.stop()

    def test_per_connection_order_write_then_read(self):
        """A pipelined GET issued after a PUT of the same key sees it."""
        server, runner, _ = start_server(n_shards=1)
        try:

            async def drive():
                c = await AsyncKVClient.connect(server.host, server.port)
                try:
                    results = []
                    for i in range(30):
                        put = asyncio.ensure_future(c.put(b"hot", i))
                        get = asyncio.ensure_future(c.get(b"hot"))
                        await asyncio.gather(put, get)
                        results.append(get.result())
                    return results
                finally:
                    await c.close()

            assert asyncio.run(drive()) == list(range(30))
        finally:
            runner.stop()


# -- coalescing and backpressure ---------------------------------------------


class TestCoalescing:
    def _worker(self, n_shards_cfg=TINY_CONFIG, queue_limit=64):
        engine = LSMTree.open("db", fs=MemFS(), **n_shards_cfg)
        return ShardWorker(0, engine, ServerStats(), queue_limit=queue_limit)

    def test_burst_of_gets_is_one_inline_batch(self):
        """Every GET of one burst rides ONE inline ``get_many`` (was:
        test_queued_gets_coalesce_into_one_batch, on the shard queue)."""
        server, runner, _ = start_server(n_shards=1)
        try:
            with KVClient(server.host, server.port) as c:
                for i in range(20):
                    c.put(encode_u64(i), i)
            replies = answer_burst(server, runner, [
                (protocol.GET, protocol.encode_key(encode_u64(i))) for i in range(20)
            ])
            assert replies == [
                (protocol.OK, protocol.encode_value_body(i)) for i in range(20)
            ]
            stat = server.stats.coalesced_gets
            assert stat.calls == 1 and stat.items == 20 and stat.max_size == 20
            assert server.stats.ops["get"] == 20
            assert server.stats.latency["shard_get"].count == 20
        finally:
            runner.stop()

    def test_queued_writes_group_commit(self):
        worker = self._worker()

        async def drive():
            loop = asyncio.get_running_loop()
            futures = []
            for i in range(15):
                fut = loop.create_future()
                worker.submit(
                    ShardRequest("write", [(encode_u64(i), i)], fut, loop)
                )
                futures.append(fut)
            worker.start()
            await asyncio.gather(*futures)

        asyncio.run(drive())
        stat = worker.stats.coalesced_writes
        assert stat.calls == 1 and stat.items == 15
        assert worker.engine.get(encode_u64(7)) == 7
        worker.stop()
        worker.join(timeout=10)

    def test_mixed_burst_preserves_order(self):
        """PUT(k)=2 between GETs splits the read run, and the GET after
        it is answered from post-write state."""
        server, runner, _ = start_server(n_shards=1)
        try:
            with KVClient(server.host, server.port) as c:
                c.put(b"k", 1)
            get = (protocol.GET, protocol.encode_key(b"k"))
            before, ack, after = answer_burst(server, runner, [
                get, (protocol.PUT, protocol.encode_key_value(b"k", 2)), get,
            ])
            # The PUT is in flight while the first GET executes: either
            # value is a correct answer for it, never for the second.
            assert before[0] == protocol.OK
            assert protocol.decode_value_body(before[1]) in (1, 2)
            assert ack[0] == protocol.OK
            assert after == (protocol.OK, protocol.encode_value_body(2))
            assert server.stats.coalesced_gets.calls == 2
        finally:
            runner.stop()

    def test_bounded_queue_refuses_when_full(self):
        worker = self._worker(queue_limit=4)  # never started: queue only fills

        async def drive():
            loop = asyncio.get_running_loop()
            accepted = [
                worker.submit(ShardRequest("get", [b"k"], loop.create_future(), loop))
                for _ in range(8)
            ]
            return accepted

        accepted = asyncio.run(drive())
        assert accepted == [True] * 4 + [False] * 4
        worker.engine.close()

    def test_server_maps_backpressure_to_overloaded(self, monkeypatch):
        server, runner, _ = start_server(n_shards=1)
        try:
            monkeypatch.setattr(server.shards[0], "submit", lambda req: False)
            from repro.server import ServerOverloadedError

            # max_retries=0 opts out of the client's backoff so the raw
            # backpressure mapping (one refusal -> one OVERLOADED) shows.
            with KVClient(server.host, server.port, max_retries=0) as c:
                with pytest.raises(ServerOverloadedError):
                    c.put(b"k", 1)
                st = c.stats()
                assert st["overloads"] == 1
                assert c.retries == 0
                # Point reads never enter the shard queue.
                assert c.get(b"k") is None
        finally:
            monkeypatch.undo()
            runner.stop()


# -- client backoff on OVERLOADED --------------------------------------------


class TestClientRetry:
    def test_retry_delay_is_bounded_full_jitter(self):
        from repro.server.client import (
            RETRY_BASE_DELAY, RETRY_MAX_DELAY, _retry_delay,
        )

        for attempt in range(20):
            cap = min(RETRY_MAX_DELAY, RETRY_BASE_DELAY * (2 ** attempt))
            for _ in range(50):
                d = _retry_delay(attempt)
                assert 0.0 <= d <= cap

    def test_transient_overload_is_absorbed(self, monkeypatch):
        """Three refusals then service: the client's backoff must turn
        that into one successful call, counted in ``retries``."""
        server, runner, _ = start_server(n_shards=1)
        try:
            shard = server.shards[0]
            real_submit = shard.submit
            refusals = iter([False, False, False])

            def flaky(req):
                if next(refusals, None) is False:
                    return False
                return real_submit(req)

            monkeypatch.setattr(shard, "submit", flaky)
            with KVClient(server.host, server.port) as c:
                c.put(b"k", 1)
                assert c.retries == 3
                assert c.get(b"k") == 1  # no further refusals queued
                assert c.retries == 3
        finally:
            monkeypatch.undo()
            runner.stop()

    def test_retry_budget_is_bounded(self, monkeypatch):
        from repro.server import ServerOverloadedError

        server, runner, _ = start_server(n_shards=1)
        try:
            monkeypatch.setattr(server.shards[0], "submit", lambda req: False)
            with KVClient(server.host, server.port, max_retries=2) as c:
                with pytest.raises(ServerOverloadedError):
                    c.put(b"k", 1)
                assert c.retries == 2  # budget spent, then the raise
        finally:
            monkeypatch.undo()
            runner.stop()

    def test_async_client_absorbs_transient_overload(self, monkeypatch):
        server, runner, _ = start_server(n_shards=1)
        try:
            shard = server.shards[0]
            real_submit = shard.submit
            refusals = iter([False, False])

            def flaky(req):
                if next(refusals, None) is False:
                    return False
                return real_submit(req)

            monkeypatch.setattr(shard, "submit", flaky)

            async def drive():
                client = await AsyncKVClient.connect(server.host, server.port)
                try:
                    await client.put(b"k", 2)
                    return client.retries, await client.get(b"k")
                finally:
                    await client.close()

            retries, value = asyncio.run(drive())
            assert retries == 2 and value == 2
        finally:
            monkeypatch.undo()
            runner.stop()

    def test_loadgen_reports_retries(self):
        from repro.server.loadgen import LoadResult

        result = LoadResult(
            workload="C", mode="sync", n_connections=1, pipeline_depth=1,
            ops_done=10, elapsed=1.0, overloads=0, retries=3,
        )
        assert result.to_dict()["retries"] == 3


# -- shutdown ----------------------------------------------------------------


class TestShutdown:
    def test_graceful_drain_persists_acked_writes(self):
        fss = None
        server, runner, fss = start_server(n_shards=2)
        with KVClient(server.host, server.port) as c:
            for i in range(120):
                c.put(encode_u64(i), i)
            c.delete(encode_u64(60))
        runner.stop()

        server2 = KVServer(
            "kv", n_shards=2, fs=lambda i: fss[i], engine_config=TINY_CONFIG
        )
        runner2 = ServerThread(server2).start()
        try:
            with KVClient(server2.host, server2.port) as c:
                for i in range(120):
                    assert c.get(encode_u64(i)) == (None if i == 60 else i)
        finally:
            runner2.stop()

    def test_closing_server_refuses_new_work(self):
        server, runner, _ = start_server()
        try:
            with KVClient(server.host, server.port) as c:
                c.put(b"k", 1)
                c.shutdown_server()  # SHUTDOWN answers OK, then drains
                with pytest.raises(ServerShuttingDownError):
                    c.get(b"k")
        finally:
            runner.stop()

    def test_stop_is_idempotent(self):
        server, runner, _ = start_server()
        runner.stop()
        runner.stop()

    def test_startup_failure_propagates(self):
        fs = FaultFS(fail_at=1)  # dies creating the very first shard
        server = KVServer("kv", n_shards=1, fs=fs, engine_config=TINY_CONFIG)
        with pytest.raises(PowerFailure):
            ServerThread(server).start()


# -- dead-shard semantics -----------------------------------------------------


class TestDeadShard:
    """A shard whose worker loop dies answers every queued and future
    request with an immediate error — never a hang — and reports
    ``alive: false`` in STATS."""

    def test_worker_death_fails_queued_and_future_requests(self):
        """A BaseException escaping the worker loop must not leave any
        client hanging: queued futures fail, later submits are refused."""

        class BombEngine:
            def write_batch(self, entries):
                raise SystemExit("injected worker death")

            def sync(self):
                pass

            def close(self):
                pass

        worker = ShardWorker(0, BombEngine(), ServerStats(), queue_limit=16)

        async def drive():
            loop = asyncio.get_running_loop()
            futs = [loop.create_future() for _ in range(5)]
            for fut in futs:
                assert worker.submit(ShardRequest("write", [(b"k", 1)], fut, loop))
            worker.start()
            results = await asyncio.gather(*futs, return_exceptions=True)
            return results

        results = asyncio.run(drive())
        assert all(isinstance(r, ShardDown) for r in results)
        worker.join(timeout=10)
        assert worker.dead and worker.closed.is_set()
        info = worker.snapshot_info()
        assert info["alive"] is False
        assert "SystemExit" in info["worker_error"]
        # Submissions after death are refused immediately.
        with pytest.raises(ShardDown):
            worker.submit(ShardRequest("write", [(b"k", 1)], None, None))
        with pytest.raises(ShardDown):
            worker.check_readable()  # the engine is closed: no reads either
        worker.stop()  # idempotent on a dead shard

    def test_server_answers_errors_not_hangs_on_dead_shard(self, monkeypatch):
        server, runner, _ = start_server(n_shards=1)
        try:
            with KVClient(server.host, server.port) as c:
                c.put(b"k", 1)
                monkeypatch.setattr(
                    server.shards[0].engine, "write_batch",
                    lambda entries: (_ for _ in ()).throw(SystemExit("boom")),
                )
                with pytest.raises((ServerError, ConnectionError)):
                    c.put(b"k", 2)
            # New connections get immediate errors — reads included: a
            # dead shard's engine is closed — and STATS reports the
            # shard down instead of hanging on a dead queue.
            with KVClient(server.host, server.port) as c:
                with pytest.raises(ServerError) as err:
                    c.get(b"k")
                assert err.value.status == protocol.ERROR
                with pytest.raises(ServerError):
                    c.put(b"k", 3)
                st = c.stats()
                assert st["shards"][0]["alive"] is False
                assert "SystemExit" in st["shards"][0]["worker_error"]
        finally:
            runner.stop()  # must return promptly, not hang


# -- signal-safe CLI serving --------------------------------------------------

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestServeSignals:
    @pytest.mark.parametrize(
        "sig", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"]
    )
    def test_serve_drains_on_signal(self, sig, tmp_path):
        """serve + live writes + signal → exit 0, 'drained and closed',
        every acknowledged write recoverable."""
        path = str(tmp_path / "kv")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.server", "serve",
                "--path", path, "--shards", "2", "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        )
        try:
            banner = proc.stdout.readline()
            assert "serving" in banner, banner
            port = int(banner.rsplit(":", 1)[1])
            acked = 0
            with KVClient("127.0.0.1", port) as c:
                for i in range(50):
                    c.put(encode_u64(i), i)
                    acked += 1
            proc.send_signal(sig)
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0, out
            assert "drained and closed" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        # Every acknowledged write survived the drain.
        db0 = LSMTree.open(os.path.join(path, "shard-00"))
        db1 = LSMTree.open(os.path.join(path, "shard-01"))
        try:
            for i in range(acked):
                k = encode_u64(i)
                assert (db0.get(k) if db0.get(k) is not None else db1.get(k)) == i
        finally:
            db0.close()
            db1.close()


# -- crash durability through the network stack ------------------------------

CRASH_CONFIG = dict(
    memtable_entries=8,
    sstable_entries=32,
    block_entries=4,
    level0_limit=2,
    block_cache_blocks=16,
    wal_sync_every=3,
)


def _crash_workload(n_ops=40, seed=21, key_space=12):
    import random

    rng = random.Random(seed)
    ops = []
    for i in range(n_ops):
        key = encode_u64(rng.randrange(key_space))
        if rng.random() < 0.3:
            ops.append(("delete", key, None))
        else:
            ops.append(("put", key, i))
    return ops


def _model_after(ops, k):
    model = {}
    for op, key, value in ops[:k]:
        if op == "put":
            model[key] = value
        else:
            model.pop(key, None)
    return model


class TestServerCrashDurability:
    """Kill at every sync/rename point; every server-acked write survives."""

    def _server_run(self, ops, fail_at):
        """Drive ops through a 1-shard server on FaultFS(fail_at).

        Returns (fs, acked): ``acked`` counts writes whose OK response
        reached the client before the power failure.
        """
        fs = FaultFS(fail_at=fail_at)
        server = KVServer("db", n_shards=1, fs=fs, engine_config=CRASH_CONFIG)
        try:
            runner = ServerThread(server).start()
        except PowerFailure:
            return fs, 0
        acked = 0
        try:
            client = KVClient(server.host, server.port)
            try:
                for op, key, value in ops:
                    try:
                        if op == "put":
                            client.put(key, value)
                        else:
                            client.delete(key)
                    except (ServerError, ConnectionError, OSError):
                        break
                    acked += 1
            finally:
                client.close()
        finally:
            runner.stop()
        return fs, acked

    def _count_sync_points(self, ops):
        fs, acked = self._server_run(ops, fail_at=None)
        assert acked == len(ops)
        return fs.sync_points

    def test_kill_at_every_sync_point(self):
        ops = _crash_workload()
        total = self._count_sync_points(ops)
        assert total > 20  # workload must cross flushes and commits
        shard_path = "db/shard-00"
        for point in range(1, total + 1):
            fs, acked = self._server_run(ops, fail_at=point)
            if not fs.crashed:
                assert acked == len(ops)
            for mode in CRASH_MODES:
                view = fs.crashed_view(mode)
                recovered = LSMTree.open(shard_path, fs=view, **CRASH_CONFIG)
                k = recovered.last_seq
                assert acked <= k <= len(ops), (
                    f"point {point} mode {mode} ({fs.crash_label}): "
                    f"recovered seq {k}, client-acked {acked}"
                )
                expected = _model_after(ops, k)
                for key in {key for _, key, _ in ops}:
                    assert recovered.get(key) == expected.get(key), (
                        f"point {point} mode {mode}: key {key!r} diverged"
                    )
                recovered.close()


# -- differential fuzz through the server ------------------------------------


class TestServerFuzz:
    def test_differential_fuzz_clean(self):
        from repro.testing.adapters import make_adapter
        from repro.testing.differential import run_sequence
        from repro.testing.ops import generate_ops

        adapter = make_adapter("server")
        try:
            failure, stats = run_sequence(adapter, generate_ops(3, 300))
            assert failure is None, failure
            assert stats["applied"] == 300
        finally:
            adapter._teardown()


# -- one op table, two transports -----------------------------------------------


class _Driver:
    """Runs one scenario against either client: ``call(client, op,
    *args)`` awaits :class:`AsyncKVClient` and calls :class:`KVClient`
    (blocking this loop is fine — the servers have their own)."""

    def __init__(self, kind):
        self.kind = kind
        self.called = set()

    async def connect(self, server, **kw):
        if self.kind == "async":
            return await AsyncKVClient.connect(server.host, server.port, **kw)
        return KVClient(server.host, server.port, **kw)

    async def call(self, client, op, *args):
        self.called.add(op)
        result = getattr(client, op)(*args)
        return await result if self.kind == "async" else result

    async def close(self, client):
        result = client.close()
        if self.kind == "async":
            await result


def _op_table():
    from repro.server.client import Pipeline

    return {
        name for name, attr in vars(Pipeline).items()
        if callable(attr) and not name.startswith("_")
    } - {"request", "feed", "fail"}


@pytest.mark.parametrize("kind", ["sync", "async"])
class TestOpMatrix:
    def test_every_op_of_the_table(self, kind):
        """Each operation, through its encoder, the wire, the server and
        its reply decoder — the same scenario and the same expectations
        for both transports, on the same pair of servers."""
        from repro.cluster import membership
        from repro.lsm import wal
        from repro.server import (
            FencedError, FollowerLaggingError, NotOwnerError, NotPrimaryError,
        )

        # A primary hosting shard 0 of 2, and a one-shard follower.
        fs = MemFS()
        primary = KVServer(
            "p", n_shards=2, shard_ids=[0], fs=fs, engine_config=TINY_CONFIG
        )
        p_runner = ServerThread(primary).start()
        follower, f_runner, _ = start_server(n_shards=1, role="follower")
        candidates = [b"m%d" % i for i in range(40)]
        k0, k1, k2 = [k for k in candidates if shard_of(k, 2) == 0][:3]
        elsewhere = next(k for k in candidates if shard_of(k, 2) == 1)
        driver = _Driver(kind)

        async def scenario():
            p = await driver.connect(primary)
            f = await driver.connect(follower)
            call = driver.call
            try:
                seq = await call(p, "put", k0, b"bytes")
                assert isinstance(seq, int) and seq >= 1
                assert await call(p, "put", k1, -7) > seq
                assert await call(p, "get", k0) == b"bytes"
                assert await call(p, "get", k2) is None
                assert await call(p, "get_many", [k1, k2, k0], "gone") == [
                    -7, "gone", b"bytes",
                ]
                assert await call(p, "scan", b"", 10) == sorted(
                    [(k0, b"bytes"), (k1, -7)]
                )
                assert await call(p, "count", b"", b"\xff") >= 0
                assert await call(p, "delete", k1) > seq
                assert await call(p, "get", k1) is None
                assert await call(p, "sync") is None
                assert (await call(p, "stats"))["ops"]["put"] == 2
                assert await call(p, "get_at", k0, seq) == b"bytes"
                mark = await call(p, "watermark")
                assert mark.is_primary and mark.term == 0 and set(mark.marks) == {0}
                with pytest.raises(ServerError) as err:
                    await call(p, "migrate", 0, "g2", [("127.0.0.1", 1)])
                assert err.value.status == protocol.BAD_REQUEST
                assert await call(p, "migrate_commit", 0, 0) is None  # idempotent
                assert await call(p, "shard_detach", 1, "g9") is None
                with pytest.raises(NotOwnerError) as moved:
                    await call(p, "get", elsewhere)
                assert moved.value.owner == "g9"
                with pytest.raises(FencedError):
                    await call(p, "lease", 0, 1000)  # a primary at that term

                with pytest.raises(NotPrimaryError):
                    await call(f, "put", b"k", 1)
                frames = wal.encode_record(1, 1, b"k", b"shipped")
                assert await call(f, "repl_apply", 0, 0, frames) == 1
                assert await call(f, "get_at", b"k", 1) == b"shipped"
                with pytest.raises(FollowerLaggingError):
                    await call(f, "get_at", b"k", 99)
                # Resync the follower's shard from the primary's engine.
                snap_seq, doc, files = membership.build_snapshot(
                    primary.shards[0].engine, purpose="resync"
                )
                assert await call(f, "snap_begin", 3, 0, doc) is None
                for name, data in sorted(files.items()):
                    assert await call(f, "snap_chunk", 3, 0, name, 0, data) is None
                assert await call(f, "snap_commit", 3, 0, snap_seq) == snap_seq
                assert await call(f, "get_at", k0, snap_seq) == b"bytes"
                assert await call(f, "lease", 4, 1000) is None
                assert (await call(f, "watermark")).term == 4
                assert await call(f, "promote", 9) == 9
                assert (await call(f, "watermark")).is_primary
                assert await call(f, "shutdown_server") is None
                with pytest.raises(ServerShuttingDownError):
                    await call(f, "get", b"k")
            finally:
                await driver.close(p)
                await driver.close(f)

        try:
            asyncio.run(scenario())
            assert driver.called == _op_table()
        finally:
            p_runner.stop()
            f_runner.stop()

    @pytest.mark.parametrize("max_retries, refusals, absorbed", [
        (0, 1, 0),    # no retry: the first refusal raises
        (2, 99, 2),   # the budget is spent, then the raise
        (8, 3, 3),    # three refusals, then service
    ])
    def test_overloaded_retry_policy(
        self, kind, max_retries, refusals, absorbed, monkeypatch
    ):
        from repro.server import ServerOverloadedError

        server, runner, _ = start_server(n_shards=1)
        try:
            shard = server.shards[0]
            real_submit = shard.submit
            left = [refusals]

            def flaky(req):
                if req.op == "write" and left[0] > 0:
                    left[0] -= 1
                    return False
                return real_submit(req)

            monkeypatch.setattr(shard, "submit", flaky)
            driver = _Driver(kind)

            async def scenario():
                client = await driver.connect(server, max_retries=max_retries)
                try:
                    if refusals > max_retries:
                        with pytest.raises(ServerOverloadedError):
                            await driver.call(client, "put", b"k", 1)
                    else:
                        assert await driver.call(client, "put", b"k", 1) >= 1
                        assert await driver.call(client, "get", b"k") == 1
                    return client.retries
                finally:
                    await driver.close(client)

            assert asyncio.run(scenario()) == absorbed
        finally:
            monkeypatch.undo()
            runner.stop()

    def test_oversize_request_leaves_the_pipeline_usable(self, kind, monkeypatch):
        """A body that cannot be framed raises before anything is
        enqueued: the requests after it are matched to their own
        replies (was: a phantom pending entry, every later reply off by
        one or never delivered)."""
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1 << 16)
        server, runner, _ = start_server(n_shards=1)
        try:
            driver = _Driver(kind)

            async def scenario():
                client = await driver.connect(server)
                try:
                    await driver.call(client, "put", b"k", b"before")
                    with pytest.raises(protocol.ProtocolError):
                        await driver.call(
                            client, "put", b"k", b"x" * protocol.MAX_FRAME_BYTES
                        )
                    return [
                        await asyncio.wait_for(driver.call(client, "get", b"k"), 10),
                        await asyncio.wait_for(driver.call(client, "get", b"no"), 10),
                    ]
                finally:
                    await driver.close(client)

            assert asyncio.run(scenario()) == [b"before", None]
        finally:
            monkeypatch.undo()
            runner.stop()


class TestSilentDrain:
    def test_stop_with_open_connections_reports_nothing_to_the_loop(self):
        """``shutdown()`` hangs up on live connections itself, so the
        loop's teardown has no handler task to cancel (was: one
        'Exception in callback ... CancelledError' per connection)."""
        server, runner, _ = start_server(n_shards=2)
        reported = []
        runner._loop.call_soon_threadsafe(
            runner._loop.set_exception_handler,
            lambda loop, context: reported.append(context),
        )
        idle = KVClient(server.host, server.port)
        busy = KVClient(server.host, server.port)
        try:
            busy.put(b"k", 1)
            assert busy.get(b"k") == 1
            runner.stop()
            assert not runner._thread.is_alive()
            assert reported == []
            assert server.stats.connections_closed == server.stats.connections_opened
            with pytest.raises((ConnectionError, OSError)):
                busy.get(b"k")
        finally:
            idle.close()
            busy.close()
            runner.stop()
