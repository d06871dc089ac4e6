"""The per-burst serving path (DESIGN.md §12): ordering, failure
domains, reads racing membership changes and shutdown, dropped
connections, and flow control.

Point reads run on the event-loop thread when their burst is answered;
writes ride the shard queue from the moment they are decoded.  These
tests pin what that split must preserve.
"""

import asyncio
import gc
import random
import socket
import struct
import threading
import time
import warnings

import pytest

from repro.cluster import membership
from repro.cluster.routing import route_key
from repro.server import AsyncKVClient, KVClient
from repro.server import protocol
from repro.server import server as server_module
from repro.workloads.keys import encode_u64

from .test_server import (
    TINY_CONFIG, answer_burst, answer_steps, decode_burst, start_server,
)


def keys_on(shard, n_shards, count, prefix=b"k"):
    """``count`` distinct keys that route to ``shard``."""
    out, i = [], 0
    while len(out) < count:
        key = prefix + b"%05d" % i
        if route_key(key, n_shards) == shard:
            out.append(key)
        i += 1
    return out


# -- ordering -----------------------------------------------------------------


class _KeyHistory:
    """Versions written to one key, in issue order (None = deleted)."""

    def __init__(self):
        self.values = [None]  # version 0: never written

    def admits(self, floor, value):
        """``value`` is what some version in [floor, latest] holds."""
        return value in self.values[floor:]


async def _pipelined_session(port, rng, keys, n_ops):
    """Fire ``n_ops`` random ops without awaiting any of them (one
    pipelined stream), then check every read against the writes issued
    before it on this connection.  Keys are private to the session."""
    client = await AsyncKVClient.connect("127.0.0.1", port)
    history = {key: _KeyHistory() for key in keys}
    pending = []  # (future, kind, [(key, floor)])
    try:
        for i in range(n_ops):
            key = rng.choice(keys)
            floors = lambda ks: [(k, len(history[k].values) - 1) for k in ks]
            roll = rng.random()
            if roll < 0.30:
                history[key].values.append(i)
                pending.append((asyncio.ensure_future(client.put(key, i)), "ack", []))
            elif roll < 0.40:
                history[key].values.append(None)
                pending.append((asyncio.ensure_future(client.delete(key)), "ack", []))
            elif roll < 0.65:
                fut = asyncio.ensure_future(client.get(key))
                pending.append((fut, "get", floors([key])))
            elif roll < 0.75:
                fut = asyncio.ensure_future(client.get_at(key, 0))
                pending.append((fut, "get", floors([key])))
            elif roll < 0.92:
                batch = [rng.choice(keys) for _ in range(rng.randrange(1, 6))]
                fut = asyncio.ensure_future(client.get_many(batch))
                pending.append((fut, "batch", floors(batch)))
            else:
                fut = asyncio.ensure_future(client.scan(b"", 10_000))
                pending.append((fut, "scan", floors(keys)))
            if rng.random() < 0.2:
                await asyncio.sleep(0)  # vary where the bursts split
        # AsyncKVClient matches replies to requests positionally and
        # checks the echoed id: completing at all means request order.
        for fut, kind, floors in pending:
            result = await fut
            if kind == "ack":
                continue
            if kind == "get":
                result = [result]
            elif kind == "scan":
                found = dict(result)
                result = [found.get(key) for key, _ in floors]
            assert len(result) == len(floors)
            for (key, floor), value in zip(floors, result):
                assert history[key].admits(floor, value), (
                    f"{kind} of {key!r} saw {value!r}; versions from "
                    f"{floor}: {history[key].values[floor:]}"
                )
    finally:
        await client.close()


class TestOrdering:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n_connections", [1, 2])
    def test_reads_observe_earlier_writes_of_their_connection(
        self, seed, n_connections
    ):
        """PUT / GET / DELETE / BATCH_GET / SCAN / GET_AT interleaved
        in pipelined bursts across both shards: every read observes
        every earlier same-connection write to its shard (it may also
        observe a later one — they are concurrent), and replies arrive
        in request order."""
        server, runner, _ = start_server(n_shards=2)
        try:
            async def drive():
                sessions = []
                for c in range(n_connections):
                    prefix = b"c%d-" % c
                    keys = keys_on(0, 2, 4, prefix) + keys_on(1, 2, 4, prefix)
                    rng = random.Random(seed * 10 + c)
                    sessions.append(_pipelined_session(server.port, rng, keys, 400))
                await asyncio.gather(*sessions)

            asyncio.run(drive())
            assert server.stats.errors == 0
            assert server.stats.coalesced_gets.max_size > 1
        finally:
            runner.stop()

    def test_failing_write_run_errors_exactly_its_requests(self, monkeypatch):
        server, runner, _ = start_server(n_shards=2)
        try:
            (a, b), (y, z) = keys_on(0, 2, 2), keys_on(1, 2, 2)
            engine = server.shards[0].engine
            real_write_batch = engine.write_batch

            def poisoned(entries):
                if any(key == a for key, _ in entries):
                    raise RuntimeError("injected group-commit failure")
                return real_write_batch(entries)

            monkeypatch.setattr(engine, "write_batch", poisoned)
            put = lambda key, value: (
                protocol.PUT, protocol.encode_key_value(key, value)
            )
            replies = answer_burst(server, runner, [
                put(a, 1), put(b, 2), put(y, 3),        # one write run
                (protocol.GET, protocol.encode_key(y)),  # one read run
                put(z, 4),                               # a later write run
            ])
            statuses = [status for status, _ in replies]
            assert statuses == [
                protocol.ERROR, protocol.ERROR, protocol.OK, protocol.OK, protocol.OK,
            ]
            assert b"injected" in replies[0][1]
            assert replies[3][1] == protocol.encode_value_body(3)
            assert server.stats.errors == 2
            # The shard survived a plain Exception and still serves.
            with KVClient(server.host, server.port) as c:
                assert c.get(a) is None and c.get(b) is None
                c.put(b, 5)
                assert c.get(b) == 5 and c.get(z) == 4
        finally:
            monkeypatch.undo()
            runner.stop()

    def test_read_run_exception_fails_that_run_only(self, monkeypatch):
        server, runner, _ = start_server(n_shards=1)
        try:
            with KVClient(server.host, server.port) as c:
                c.put(b"k", 1)
            engine = server.shards[0].engine
            real_get_many = engine.get_many
            calls = []

            def flaky(keys):
                calls.append(list(keys))
                if len(calls) == 1:
                    raise RuntimeError("injected read failure")
                return real_get_many(keys)

            monkeypatch.setattr(engine, "get_many", flaky)
            get = (protocol.GET, protocol.encode_key(b"k"))
            replies = answer_burst(server, runner, [
                get, get, (protocol.PUT, protocol.encode_key_value(b"k", 2)), get,
            ])
            assert [status for status, _ in replies] == [
                protocol.ERROR, protocol.ERROR, protocol.OK, protocol.OK,
            ]
            assert replies[3][1] == protocol.encode_value_body(2)
            assert server.stats.errors == 2
        finally:
            monkeypatch.undo()
            runner.stop()

    def test_inline_reads_are_capped_and_yield(self):
        """One get_many never exceeds MAX_BURST keys, and the loop
        thread yields between such chunks."""
        server, runner, _ = start_server(n_shards=1)
        try:
            cap = server_module.MAX_BURST
            keys = [encode_u64(i) for i in range(cap * 3 + 10)]
            ticks = []

            async def go():
                ticker = asyncio.ensure_future(_count_ticks(ticks))
                await asyncio.sleep(0)
                frames = [(0, protocol.BATCH_GET, protocol.encode_keys(keys))]
                frames += [
                    (i + 1, protocol.GET, protocol.encode_key(key))
                    for i, key in enumerate(keys)
                ]
                await server._answer_burst(0.0, server._decode_burst(frames))
                ticker.cancel()

            asyncio.run_coroutine_threadsafe(go(), runner._loop).result(30)
            stat = server.stats.coalesced_gets
            assert stat.max_size <= cap and stat.items == 2 * len(keys)
            assert len(ticks) >= 2 * len(keys) // cap - 1
        finally:
            runner.stop()


async def _count_ticks(ticks):
    while True:
        ticks.append(1)
        await asyncio.sleep(0)


# -- reads racing membership changes and shutdown ---------------------------


def _forbid_reads(engine, monkeypatch):
    def closed(keys):
        raise AssertionError("read reached a retired engine")

    monkeypatch.setattr(engine, "get_many", closed)


READS = [
    (protocol.GET, protocol.encode_key(b"k")),
    (protocol.GET_AT, protocol.encode_get_at(b"k", 0)),
    (protocol.BATCH_GET, protocol.encode_keys([b"k", b"j"])),
]


class TestReadsDuringTransitions:
    """Route, role, liveness and drain are checked when a read run
    *executes*: a burst decoded while the shard was serving is refused
    cleanly — and never touches the retired engine — if the shard went
    away before the burst was answered."""

    def test_detach_between_decode_and_answer(self, monkeypatch):
        server, runner, _ = start_server(n_shards=1)
        try:
            with KVClient(server.host, server.port) as c:
                c.put(b"k", 1)
                steps = decode_burst(server, runner, READS)
                _forbid_reads(server.shards[0].engine, monkeypatch)
                c.shard_detach(0, "g9")
            replies = answer_steps(server, runner, steps)
            assert replies == [(protocol.NOT_OWNER, b"g9")] * 3
            assert server.stats.errors == 0
        finally:
            runner.stop()

    def test_snapshot_install_window(self, monkeypatch):
        """What SNAP_COMMIT does first — pop the worker, mark the shard
        ``installing`` — turns reads into NOT_OWNER, and GET_AT on a
        follower into LAGGING (the client falls back to the primary)."""
        server, runner, _ = start_server(n_shards=1, role="follower")
        try:
            steps = decode_burst(server, runner, READS)
            worker = server.shards[0]
            _forbid_reads(worker.engine, monkeypatch)

            async def begin_install():
                server.shards.pop(0)
                server._shard_state[0] = "installing"

            asyncio.run_coroutine_threadsafe(begin_install(), runner._loop).result(30)
            replies = answer_steps(server, runner, steps)
            assert [status for status, _ in replies] == [
                protocol.NOT_OWNER, protocol.LAGGING, protocol.NOT_OWNER,
            ]
            worker.stop()
            worker.join(timeout=10)
        finally:
            runner.stop()

    def test_drain_between_decode_and_answer(self, monkeypatch):
        server, runner, _ = start_server(n_shards=1)
        try:
            steps = decode_burst(server, runner, READS)
            _forbid_reads(server.shards[0].engine, monkeypatch)
            server._closing = True
            replies = answer_steps(server, runner, steps)
            assert [status for status, _ in replies] == [protocol.SHUTTING_DOWN] * 3
        finally:
            runner.stop()

    def test_stopping_worker_refuses_reads(self, monkeypatch):
        server, runner, _ = start_server(n_shards=1)
        try:
            steps = decode_burst(server, runner, READS)
            worker = server.shards[0]
            _forbid_reads(worker.engine, monkeypatch)
            worker.stop()
            worker.join(timeout=10)
            assert worker.closed.is_set()
            replies = answer_steps(server, runner, steps)
            assert [status for status, _ in replies] == [protocol.ERROR] * 3
        finally:
            runner.stop()

    def test_live_resync_and_shutdown_under_pipelined_reads(self):
        """A follower is resynced (real SNAP_BEGIN/CHUNK/COMMIT, engine
        swapped) again and again, then shut down, while a pipelined
        reader hammers it: every reply is a value, NOT_FOUND, or a
        clean refusal — never ERROR — and the reader never hangs."""
        source, source_runner, _ = start_server(n_shards=1)
        follower, follower_runner, _ = start_server(n_shards=1, role="follower")
        stop = threading.Event()
        seen: dict[str, int] = {}
        failures: list[str] = []

        async def read_loop():
            client = await AsyncKVClient.connect(follower.host, follower.port)
            alive = True
            try:
                while alive and not stop.is_set():
                    calls = []
                    try:
                        for i in range(24):
                            key = encode_u64(i)
                            calls.append(client._call(
                                protocol.GET, protocol.encode_key(key)
                            ))
                            calls.append(client._call(
                                protocol.GET_AT, protocol.encode_get_at(key, 0)
                            ))
                    except ConnectionError:
                        alive = False  # refused up front: the server went away
                    replies = await asyncio.wait_for(
                        asyncio.gather(*calls, return_exceptions=True), 20
                    )
                    for reply in replies:
                        if isinstance(reply, ConnectionError):
                            return  # the server went away: the end
                        name = protocol.STATUS_NAMES[reply[0]]
                        seen[name] = seen.get(name, 0) + 1
                        if reply[0] == protocol.ERROR:
                            failures.append(reply[1].decode())
            finally:
                await client.close()

        reader = threading.Thread(target=lambda: asyncio.run(read_loop()))
        try:
            with KVClient(source.host, source.port) as c:
                for i in range(24):
                    c.put(encode_u64(i), i)
            reader.start()
            with KVClient(follower.host, follower.port) as ship:
                for term in range(1, 13):
                    snap = membership.build_snapshot(
                        source.shards[0].engine, purpose="resync"
                    )
                    assert membership.ship_snapshot(ship, term, 0, *snap) == snap[0]
            follower_runner.stop()  # shutdown under the same load
            reader.join(timeout=30)
            assert not reader.is_alive(), "reader hung"
            assert not failures, failures[:3]
            assert seen.get("ok", 0) > 0
            assert set(seen) <= {
                "ok", "not_found", "not_owner", "lagging", "shutting_down",
            }
            assert follower.stats.errors == 0
        finally:
            stop.set()
            reader.join(timeout=30)
            follower_runner.stop()
            source_runner.stop()


# -- dropped connections ------------------------------------------------------


def _get_frame(request_id, key):
    return protocol.frame(request_id, protocol.GET, protocol.encode_key(key))


class TestDroppedConnection:
    def test_drop_mid_burst_leaks_nothing_and_loses_no_acked_write(self):
        server, runner, _ = start_server(n_shards=2)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                acked = []
                for round_ in range(8):
                    sock = socket.create_connection((server.host, server.port))
                    burst = bytearray()
                    keys = [b"r%d-%03d" % (round_, i) for i in range(120)]
                    for i, key in enumerate(keys):
                        burst += protocol.frame(
                            i, protocol.PUT, protocol.encode_key_value(key, i)
                        )
                        if i % 10 == 9:  # formatter coroutines mid-burst
                            burst += protocol.frame(
                                1000 + i, protocol.SCAN, protocol.encode_scan(b"", 5)
                            )
                            burst += protocol.frame(2000 + i, protocol.STATS, b"")
                            burst += _get_frame(3000 + i, key)
                    sock.sendall(burst)
                    # Read a few acks, then reset the connection with
                    # most of the burst unanswered.
                    blob = bytearray()
                    while len(blob) < 17 * (round_ + 1):
                        blob += sock.recv(4096)
                    replies = []
                    protocol.parse_frames(blob, replies)
                    for request_id, status, _ in replies:
                        if request_id < 1000 and status == protocol.OK:
                            acked.append((keys[request_id], request_id))
                    sock.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                    )
                    sock.close()
                deadline = time.monotonic() + 20
                while (
                    server.stats.connections_closed < 8 and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                assert server.stats.connections_closed == 8
                gc.collect()
            leaked = [str(w.message) for w in caught if "never awaited" in str(w.message)]
            assert not leaked, leaked
            assert acked
            with KVClient(server.host, server.port) as c:
                for key, value in acked:
                    assert c.get(key) == value
        finally:
            runner.stop()


# -- flow control -------------------------------------------------------------


def _rss_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * 4096 / (1 << 20)


class TestFlowControl:
    N = 200_000

    def test_unread_pipeline_is_bounded_then_fully_answered(self, monkeypatch):
        """A client pipelines 200k GETs of a 2 KiB value (~400 MiB of
        replies) and reads nothing: the server stops reading instead of
        buffering — decoded-but-unanswered requests and RSS stay
        bounded — and every reply arrives, in order, once it reads."""
        server, runner, _ = start_server(
            n_shards=1,
            engine_config=dict(TINY_CONFIG, memtable_entries=512),
        )
        try:
            value = b"v" * 2048
            with KVClient(server.host, server.port) as c:
                c.put(b"big", value)
            decoded = [0]
            real_decode = server._decode_burst

            def counting_decode(frames):
                decoded[0] += len(frames)
                return real_decode(frames)

            monkeypatch.setattr(server, "_decode_burst", counting_decode)
            rss_before = _rss_mb()

            sock = socket.create_connection((server.host, server.port))
            frame = lambda i: _get_frame(i, b"big")
            sent = [0]

            def send_all():
                chunk = 2000
                for base in range(0, self.N, chunk):
                    sock.sendall(b"".join(frame(i) for i in range(base, base + chunk)))
                    sent[0] = base + chunk

            sender = threading.Thread(target=send_all, daemon=True)
            sender.start()
            # Wait until the pipeline has stalled: nothing more decoded
            # for a while although the client never read a byte.
            last, since = -1, time.monotonic()
            while time.monotonic() - since < 1.0:
                if decoded[0] != last:
                    last, since = decoded[0], time.monotonic()
                time.sleep(0.05)
            answered = server.stats.ops.get("get", 0)
            per_burst = (1 << 16) // len(frame(0)) + 1
            assert decoded[0] < self.N, "the server never stopped reading"
            assert decoded[0] - answered <= (
                server_module.MAX_PENDING_BURSTS + 2
            ) * per_burst
            assert _rss_mb() - rss_before < 100

            # Now read: every answer, in request order.
            size = len(protocol.frame(0, protocol.OK, protocol.encode_value_body(value)))
            got = 0
            buf = bytearray()
            sock.settimeout(60)
            while got < self.N:
                data = sock.recv(1 << 20)
                assert data, "server closed early"
                buf += data
                whole = len(buf) // size
                for i in range(whole):
                    head = bytes(buf[i * size : i * size + 9])
                    assert head == struct.pack("<IIB", size - 4, got, protocol.OK)
                    got += 1
                del buf[: whole * size]
            sender.join(timeout=30)
            assert sent[0] == self.N and not buf
            assert server.stats.ops["get"] == self.N
            sock.close()
        finally:
            monkeypatch.undo()
            runner.stop()


# -- the client half: one write per tick, in-order settlement, back-pressure ---


class _Recording:
    """Stands in for a client's transport and records every write."""

    def __init__(self, transport):
        self._transport = transport
        self.writes = []

    def write(self, data):
        self.writes.append(data)
        self._transport.write(data)

    def __getattr__(self, name):
        return getattr(self._transport, name)


class TestBurstShape:
    """Counts that repeat exactly: what is issued in one loop tick is
    one ``transport.write``, one server burst, one engine call per
    shard."""

    def test_one_tick_is_one_write_one_burst_one_batch_per_shard(self):
        server, runner, _ = start_server(n_shards=2)
        try:
            keys = keys_on(0, 2, 8) + keys_on(1, 2, 8)
            stats = server.stats

            def counters():
                sizes = (stats.burst_frames, stats.coalesced_writes, stats.coalesced_gets)
                return [n for size in sizes for n in (size.calls, size.items)]

            async def drive():
                client = await AsyncKVClient.connect(server.host, server.port)
                try:
                    client._transport = wire = _Recording(client._transport)
                    seen = {}
                    for op in ("put", "get"):
                        before = counters()
                        if op == "put":
                            calls = [client.put(key, key) for key in keys]
                        else:
                            calls = [client.get(key) for key in keys]
                        results = await asyncio.gather(*calls)
                        seen[op] = results, [
                            b - a for a, b in zip(before, counters())
                        ]
                    return wire.writes, seen
                finally:
                    await client.close()

            writes, seen = asyncio.run(drive())
            assert len(writes) == 2  # 32 requests, two ticks
            for blob in writes:
                frames = []
                assert protocol.parse_frames(bytearray(blob), frames) == len(blob)
                assert len(frames) == 16
            acks, deltas = seen["put"]
            assert all(isinstance(seq, int) for seq in acks)
            #        bursts, frames, write_batches, items, get_manys, keys
            assert deltas == [1, 16, 2, 16, 0, 0]
            values, deltas = seen["get"]
            assert values == keys
            assert deltas == [1, 16, 0, 0, 2, 16]
        finally:
            runner.stop()


def _reply(request_id, value):
    return protocol.frame(request_id, protocol.OK, protocol.encode_value_body(value))


async def _scripted_server(script):
    """A server on this loop running ``script(reader, writer)`` per
    connection; returns ``(server, port)``."""

    async def handler(reader, writer):
        try:
            await script(reader, writer)
        finally:
            writer.close()

    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


async def _read_requests(reader, count):
    """Read ``count`` request frames; returns their ids."""
    buf, frames = bytearray(), []
    while len(frames) < count:
        data = await reader.read(1 << 16)
        assert data, "client hung up early"
        buf += data
        del buf[: protocol.parse_frames(buf, frames)]
    assert len(frames) == count
    return [request_id for request_id, _, _ in frames]


class TestInOrderSettlement:
    """Replies settle pending requests strictly in send order, whatever
    happened to the callers meanwhile; nothing is ever left hanging."""

    def test_sans_io_pipeline_matches_replies_by_position_and_checks_ids(self):
        from repro.server.client import Pipeline

        pipe = Pipeline()
        sent = b"".join(
            pipe.request(protocol.GET, protocol.encode_key(b"k%d" % i), f"t{i}")
            for i in range(5)
        )
        requests = []
        assert protocol.parse_frames(bytearray(sent), requests) == len(sent)
        assert [rid for rid, _, _ in requests] == [1, 2, 3, 4, 5]
        stream = _reply(1, 10) + _reply(7, 20) + _reply(3, 30) + _reply(4, 40)
        # Fed a byte at a time: a reply settles when its frame is whole.
        settled = []
        for i in range(len(stream)):
            settled += pipe.feed(stream[i : i + 1])
        assert [token for token, _ in settled] == ["t0", "t1", "t2", "t3"]
        assert settled[0][1] == (protocol.OK, protocol.encode_value_body(10))
        assert isinstance(settled[1][1], protocol.ProtocolError)  # id 7 != 2
        assert "7" in str(settled[1][1])
        assert settled[2][1] == (protocol.OK, protocol.encode_value_body(30))
        # The stream breaks: the request still pending fails, later ones
        # are refused, and a reply nobody asked for is an error too.
        (token, failure), = pipe.fail(OSError("reset"))
        assert token == "t4" and isinstance(failure, ConnectionError)
        with pytest.raises(ConnectionError):
            pipe.request(protocol.GET, b"", "late")
        fresh = Pipeline()
        assert fresh.feed(_reply(1, 1)) == []
        assert isinstance(fresh.error, protocol.ProtocolError)

    def test_unframeable_stream_settles_what_preceded_it(self):
        from repro.server.client import Pipeline

        pipe = Pipeline()
        for i in range(3):
            pipe.request(protocol.SYNC, b"", i)
        bad_length = (protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "little")
        settled = pipe.feed(_reply(1, 1) + bad_length + b"junk")
        assert settled[0] == (0, (protocol.OK, protocol.encode_value_body(1)))
        assert [token for token, _ in settled[1:]] == [1, 2]
        assert all(isinstance(out, ConnectionError) for _, out in settled[1:])
        assert pipe.error is not None

    def test_cancelled_callers_do_not_shift_the_replies_of_others(self):
        async def drive():
            async def script(reader, writer):
                ids = await _read_requests(reader, 6)
                writer.write(b"".join(_reply(rid, rid * 100) for rid in ids))
                await writer.drain()

            fake, port = await _scripted_server(script)
            client = await AsyncKVClient.connect("127.0.0.1", port)
            try:
                tasks = [
                    asyncio.ensure_future(client.get(b"k%d" % i)) for i in range(6)
                ]
                await asyncio.sleep(0)  # every request is issued
                tasks[1].cancel()
                tasks[4].cancel()
                return await asyncio.wait_for(
                    asyncio.gather(*tasks, return_exceptions=True), 10
                )
            finally:
                await client.close()
                fake.close()
                await fake.wait_closed()

        results = asyncio.run(drive())
        assert [r for r in results if not isinstance(r, BaseException)] == [
            100, 300, 400, 600,
        ]
        assert isinstance(results[1], asyncio.CancelledError)
        assert isinstance(results[4], asyncio.CancelledError)

    def test_connection_lost_mid_burst_fails_every_pending_request(self):
        async def drive():
            async def script(reader, writer):
                ids = await _read_requests(reader, 8)
                answered = b"".join(_reply(rid, rid) for rid in ids[:3])
                writer.write(answered + _reply(ids[3], 0)[:7])  # a torn frame
                await writer.drain()

            fake, port = await _scripted_server(script)
            client = await AsyncKVClient.connect("127.0.0.1", port)
            try:
                results = await asyncio.wait_for(
                    asyncio.gather(
                        *(client.get(b"k%d" % i) for i in range(8)),
                        return_exceptions=True,
                    ),
                    10,
                )
                with pytest.raises(ConnectionError):
                    await client.get(b"after")
                return results
            finally:
                await client.close()
                fake.close()
                await fake.wait_closed()

        results = asyncio.run(drive())
        assert results[:3] == [1, 2, 3]
        assert all(isinstance(r, ConnectionError) for r in results[3:])

    def test_id_mismatch_fails_that_request_only(self):
        async def drive():
            async def script(reader, writer):
                ids = await _read_requests(reader, 3)
                writer.write(
                    _reply(ids[0], 1) + _reply(ids[1] + 50, 2) + _reply(ids[2], 3)
                )
                await writer.drain()
                await reader.read()  # until the client hangs up

            fake, port = await _scripted_server(script)
            client = await AsyncKVClient.connect("127.0.0.1", port)
            try:
                return await asyncio.wait_for(
                    asyncio.gather(
                        *(client.get(b"k%d" % i) for i in range(3)),
                        return_exceptions=True,
                    ),
                    10,
                )
            finally:
                await client.close()
                fake.close()
                await fake.wait_closed()

        first, second, third = asyncio.run(drive())
        assert (first, third) == (1, 3)
        assert isinstance(second, protocol.ProtocolError)


class TestClientFlowControl:
    def test_stalled_peer_suspends_callers_and_resumes(self):
        """The peer stops reading: the transport's buffer passes its
        high-water mark, ``pause_writing`` closes the gate, and callers
        arriving after that wait at it — nothing they would send is
        framed or buffered — until the peer reads again."""
        value = b"x" * (1 << 16)
        first_wave, second_wave = 96, 40

        async def drive():
            reading = asyncio.Event()

            async def script(reader, writer):
                await reading.wait()
                buf, frames, answered = bytearray(), [], 0
                while answered < first_wave + second_wave:
                    data = await reader.read(1 << 20)
                    assert data, "client hung up early"
                    buf += data
                    del buf[: protocol.parse_frames(buf, frames)]
                    writer.write(b"".join(
                        protocol.frame(rid, protocol.OK, protocol.encode_u64_body(rid))
                        for rid, _, _ in frames[answered:]
                    ))
                    answered = len(frames)
                await writer.drain()

            fake, port = await _scripted_server(script)
            client = await AsyncKVClient.connect("127.0.0.1", port)
            try:
                # ~6 MiB in one tick: more than loopback buffers hold.
                wave1 = [
                    asyncio.ensure_future(client.put(b"a%d" % i, value))
                    for i in range(first_wave)
                ]
                await asyncio.sleep(0)
                await asyncio.sleep(0)  # the tick's single write has run
                assert not client._writable.is_set(), "writer was never paused"
                wave2 = [
                    asyncio.ensure_future(client.put(b"b%d" % i, value))
                    for i in range(second_wave)
                ]
                for _ in range(20):
                    await asyncio.sleep(0)
                # The second wave is suspended at the gate, not queued.
                assert len(client._pending) == first_wave
                assert client._outbox == []
                assert not any(task.done() for task in wave2)
                buffered = client._transport.get_write_buffer_size()
                reading.set()
                acks = await asyncio.wait_for(asyncio.gather(*wave1, *wave2), 60)
                return acks, buffered
            finally:
                await client.close()
                fake.close()
                await fake.wait_closed()

        acks, buffered = asyncio.run(drive())
        assert sorted(acks) == list(range(1, first_wave + second_wave + 1))
        assert buffered <= first_wave * (len(value) + 64)
