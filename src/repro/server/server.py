"""Sharded asyncio TCP front-end over N durable LSM engines.

``KVServer`` hash-shards keys (CRC32 modulo shard count) across
independent :class:`~repro.lsm.engine.LSMTree` engines living under one
root directory (``<root>/shard-00``, ``shard-01``, ...).  The network
side is a single asyncio event loop that serves each connection a
*burst* at a time: every frame decoded from one ``read()`` is one
burst, answered **in arrival order** with one ``write()`` and one
stats-lock acquisition, so clients may pipeline arbitrarily many
requests.

Thread model: each engine has a single *writer* — its shard worker
thread (:mod:`repro.server.shard`).  A *stretch* is a maximal run of
point ops (GET, GET_AT, BATCH_GET, PUT, DELETE) in one burst; all its
PUT/DELETEs become one queued request per shard (one WAL group commit,
one future), submitted the moment the stretch is decoded so pipelined
writes overlap; SCAN, COUNT, SYNC and STATS use the same queue.  Point
reads never leave the event-loop thread: the stretch's reads that
touch no shard written before them run first, the rest after the
writes are acknowledged, each part as one :meth:`LSMTree.get_many` per
shard (the engine's pinned, lock-free read path).

Every other opcode is looked up in one ``opcode → handler`` table; an
opcode it lacks is answered ``BAD_REQUEST``.  A cluster node
(:class:`repro.cluster.node.ClusterServer`) adds its opcodes to the
table; this module loads none of its state machines.

Ordering guarantees: per connection, per shard — a request observes
every earlier same-connection request routed to the same shard.
Writes and queued ops keep arrival order in the shard queue; a read
executes strictly after every earlier request of its connection to its
shards has *completed* (it may also observe a later pipelined write,
which is concurrent with it).  Cross-shard requests (SCAN/COUNT/
BATCH_GET spanning shards) fan out and merge.

Shutdown drains: stop accepting, mark the server closing (new requests
get ``SHUTTING_DOWN``), let every queued request complete, then sync
and close each engine.  A client-acknowledged write therefore always
survives, even through ``python -m repro.server serve`` receiving
SIGTERM mid-load.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import json
import threading
import time
from typing import Any, Callable, Sequence

from ..cluster.routing import route_key
from ..lsm import LSMTree
from ..lsm.fs import FileSystem, join
from . import protocol
from .shard import MAX_BURST, ShardDown, ShardRequest, ShardWorker
from .stats import ServerStats

#: Cap on one SCAN response, whatever the client asked for.
MAX_SCAN_COUNT = 10_000


#: Decoded-but-unanswered bursts one connection may hold.  Past this
#: the reader stops reading, so the peer's TCP window pushes back.
MAX_PENDING_BURSTS = 8

#: How long ``shutdown`` waits for the connections it closed to finish
#: (on a cluster node one can be waiting on a dead follower's ack).
HANGUP_TIMEOUT = 5.0

_WRITES = (protocol.PUT, protocol.DELETE)
_POINT_OPS = (protocol.GET, protocol.GET_AT, protocol.BATCH_GET) + _WRITES


class _Run:
    """Point ops of one stretch as the burst-level codec decodes them
    (:mod:`repro.server.protocol`): ``entries``, their ``items`` in one
    flat list, the shard of each item, and the ``replies`` of the
    entries that are already answered."""

    __slots__ = ("entries", "items", "shards", "replies")

    def __init__(self) -> None:
        self.entries: protocol.Entries = []
        self.items: list = []
        self.shards: list[int] = []
        self.replies: protocol.Replies = {}


class _ReadRun(_Run):
    """GET / GET_AT / BATCH_GETs; the items are their keys."""

    __slots__ = ()


class _WriteRun(_Run):
    """PUT/DELETEs; the items are ``(key, value)``.  One queued request
    and one future (or one refusal) per shard."""

    __slots__ = ("results",)

    def __init__(self) -> None:
        super().__init__()
        self.results: dict[int, Any] = {}  # shard -> future | (status, body)


class _Stretch:
    """A stretch of point ops that holds writes, folded into three
    parts answered in this order: the ``early`` reads, which touch no
    shard written before them in the stretch; every write, as one
    run; the ``late`` reads.  ``order`` names each entry's part
    (0, 1, 2), in request order."""

    __slots__ = ("early", "writes", "late", "order")

    def __init__(self) -> None:
        self.early, self.late = _ReadRun(), _ReadRun()
        self.writes = _WriteRun()
        self.order: list[int] = []


class _Tally:
    """One burst's counters, flushed under one stats-lock acquisition."""

    __slots__ = ("frames", "samples", "get_batches", "errors", "overloads")

    def __init__(self, frames: int) -> None:
        self.frames = frames
        self.samples: list[tuple[str, int, float]] = []
        self.get_batches: list[int] = []
        self.errors = self.overloads = 0

    def count(self, entries, seconds: float) -> None:
        """One latency sample per request, grouped by op."""
        opcodes = [entry[1] for entry in entries]
        for opcode in set(opcodes):
            self.samples.append(
                (protocol.OP_NAMES[opcode], opcodes.count(opcode), seconds)
            )

    def flush(self, stats: ServerStats) -> None:
        if self.frames or self.samples or self.errors or self.overloads:
            stats.record_burst(
                self.samples, self.get_batches, self.errors, self.overloads,
                self.frames,
            )
            self.samples, self.get_batches = [], []
            self.frames = self.errors = self.overloads = 0


class _Reply(Exception):
    """Internal: answer the request being dispatched with this non-OK
    status now (a refusal; nothing was queued for it)."""

    def __init__(self, status: int, body: bytes = b"") -> None:
        super().__init__(status, body)
        self.status, self.body = status, body


class KVServer:
    """The serving subsystem: hosted shards, one event loop, one port."""

    def __init__(
        self,
        path: str,
        n_shards: int = 4,
        host: str = "127.0.0.1",
        port: int = 0,
        fs: FileSystem | Callable[[int], FileSystem] | None = None,
        queue_limit: int = 1024,
        filter_factory: Callable | None = None,
        engine_config: dict | None = None,
        shard_ids: Sequence[int] | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.path = path
        #: Size of the *global* shard space (cluster-wide routing).
        self.n_shards = n_shards
        #: The subset of the global space this node hosts.
        if shard_ids is None:
            self.shard_ids = list(range(n_shards))
        else:
            self.shard_ids = sorted(set(shard_ids))
            for shard_id in self.shard_ids:
                if not 0 <= shard_id < n_shards:
                    raise ValueError(
                        f"shard id {shard_id} outside global space [0, {n_shards})"
                    )
        self.host = host
        self.port = port  # replaced by the bound port after start()
        self._fs = fs
        self._queue_limit = queue_limit
        self._filter_factory = filter_factory
        # Served engines default to the thread-run executor: shard
        # workers keep coalescing writes into one WAL group commit, and
        # the engine's flusher and compactor threads run the flushes and
        # compactions, so a write's worst case is a bounded stall
        # (counted in STATS) — not a multi-level merge on the worker
        # thread.  ``background=False`` runs the same steps in the same
        # order on the worker thread, for tests that need determinism.
        self._engine_config = dict(engine_config or {})
        self._engine_config.setdefault("background", True)
        self.stats = ServerStats()
        self.shards: dict[int, ShardWorker] = {}
        self._server: asyncio.AbstractServer | None = None
        #: Live connections: handler task -> its writer.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._closing = False
        #: Keys read inline since the loop thread last yielded on purpose.
        self._inline_keys = 0
        self._shutdown_requested: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

        #: Per hosted shard: "serving", or one of a cluster node's
        #: transitional states (:mod:`repro.cluster.node`).
        self._shard_state: dict[int, str] = {s: "serving" for s in self.shard_ids}
        #: Forward hints for shards that moved away: shard -> group.
        self._shard_forward: dict[int, str] = {}
        #: Every opcode that is not a point op -> its handler (see
        #: _dispatch); a subclass adds its own with one ``update``.
        self._handlers: dict[int, Callable[[bytes], Any]] = {
            protocol.SCAN: self._on_scan,
            protocol.COUNT: self._on_count,
            protocol.SYNC: self._on_sync,
            protocol.STATS: self._on_stats,
            protocol.SHUTDOWN: self._on_shutdown,
        }

    #: True when every read run must pass :meth:`_refuse_reads`, even
    #: one no shard refused (a cluster follower gates GET_AT there).
    _reads_gated = False

    def _fs_for(self, shard_id: int) -> FileSystem | None:
        if callable(self._fs) and not isinstance(self._fs, FileSystem):
            return self._fs(shard_id)
        return self._fs

    def _shard_root(self, shard_id: int) -> str:
        return join(self.path, f"shard-{shard_id:02d}")

    # -- lifecycle ---------------------------------------------------------

    def _wal_observer(self, shard_id: int) -> Callable | None:
        """The WAL commit observer a shard's engine opens with."""
        return None

    def _open_shard(self, shard_id: int) -> ShardWorker:
        """Open (recovering) one shard's engine and start its worker."""
        engine = LSMTree.open(
            self._shard_root(shard_id),
            fs=self._fs_for(shard_id),
            filter_factory=self._filter_factory,
            wal_observer=self._wal_observer(shard_id),
            **self._engine_config,
        )
        worker = ShardWorker(
            shard_id, engine, self.stats, queue_limit=self._queue_limit
        )
        worker.start()
        return worker

    def _open_shards(self) -> None:
        for shard_id in self.shard_ids:
            self.shards[shard_id] = self._open_shard(shard_id)

    async def start(self) -> "KVServer":
        """Open (recovering) every hosted shard engine, start the
        workers, bind."""
        self._loop = asyncio.get_running_loop()
        self._shutdown_requested = asyncio.Event()
        try:
            self._open_shards()
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
        except BaseException:
            await self._stop_workers()
            raise
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        """Run until :meth:`request_shutdown` (or the SHUTDOWN opcode),
        then drain gracefully."""
        assert self._shutdown_requested is not None, "call start() first"
        await self._shutdown_requested.wait()
        # Give in-flight response writes one tick to flush before the
        # listener goes away (the SHUTDOWN OK must reach its client).
        await asyncio.sleep(0.05)
        await self.shutdown()

    def request_shutdown(self) -> None:
        self._closing = True
        if self._shutdown_requested is not None:
            self._shutdown_requested.set()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish queued work, sync and
        close every engine, hang up.  Idempotent."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._stop_workers()
        await self._close_connections()

    async def _close_connections(self) -> None:
        """Hang up on every live connection and wait for its handler to
        finish, so the loop's teardown finds no task left to cancel.
        The workers' completions were delivered before ``shutdown``
        resumed, so what a connection was owed is already written; a
        peer that stopped reading its replies is cut off."""
        handlers = dict(self._connections)
        for writer in handlers.values():
            if writer.transport.get_write_buffer_size():
                writer.transport.abort()
            else:
                writer.close()
        if handlers:
            await asyncio.wait(handlers, timeout=HANGUP_TIMEOUT)

    async def _stop_workers(self) -> None:
        workers, self.shards = list(self.shards.values()), {}
        for worker in workers:
            worker.stop()

        def _join() -> None:
            for worker in workers:
                if worker.is_alive():
                    worker.join(timeout=60)

        if workers:
            await asyncio.get_running_loop().run_in_executor(None, _join)

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Reader half of one connection: every frame decoded from one
        ``read()`` is one burst.  The queue to the answering task is
        bounded, so a peer that pipelines without reading its answers
        is held back by its own TCP window, not buffered here."""
        self.stats.record_connection(opened=True)
        handler = asyncio.current_task()
        self._connections[handler] = writer
        bursts: asyncio.Queue = asyncio.Queue(MAX_PENDING_BURSTS)
        answerer = asyncio.create_task(self._answer_bursts(bursts, writer))
        buf = bytearray()
        framed = True
        try:
            while framed:
                try:
                    data = await reader.read(1 << 16)
                except (ConnectionResetError, OSError):
                    break
                if not data:
                    break
                buf += data
                frames: list[tuple[int, int, bytes]] = []
                try:
                    del buf[: protocol.parse_frames(buf, frames)]
                except protocol.ProtocolError:
                    framed = False  # answer what parsed, then drop the peer
                if frames:
                    await bursts.put(
                        (time.perf_counter(), self._decode_burst(frames))
                    )
            await bursts.put(None)
            await answerer
        finally:
            answerer.cancel()  # no-op unless we are being torn down
            while not bursts.empty():
                self._abandon(bursts.get_nowait())
            del self._connections[handler]
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass
            self.stats.record_connection(opened=False)

    @staticmethod
    def _abandon(burst: tuple[float, list] | None) -> None:
        """Release what an unanswered burst still holds: formatter
        coroutines are closed, write futures cancelled (the writes
        themselves stay queued and commit).  A no-op after answering."""
        for step in burst[1] if burst else ():
            if type(step) is _Stretch:
                for result in step.writes.results.values():
                    if type(result) is not tuple:
                        result.cancel()
            elif type(step) is not _ReadRun and type(step) is not bytes:
                step.close()

    async def _answer_bursts(
        self, bursts: asyncio.Queue, writer: asyncio.StreamWriter
    ) -> None:
        """Answering half: bursts in arrival order, each with one
        ``write()`` and a ``drain()`` — a full socket buffer stops this
        task, the bounded queue then stops the reader.  Accepted work
        completes even when the peer is gone; only the write is skipped."""
        while (burst := await bursts.get()) is not None:
            try:
                blob = await self._answer_burst(*burst)
                if not writer.transport.is_closing():
                    writer.write(blob)
                    await writer.drain()
            except Exception:
                writer.close()  # peer gone: keep consuming the queue
            finally:
                self._abandon(burst)

    def _decode_burst(self, frames: list[tuple[int, int, bytes]]) -> list:
        """One synchronous pass over a burst's frames.  A stretch of
        point ops is decoded by one call of the burst-level codec and
        each read key routed once; a stretch without writes is one read
        run, one with writes is folded (:meth:`_fold`).  Any other frame
        is dispatched on its own.  A stretch's writes are submitted the
        moment it is decoded — before this pass returns — so arrival
        order is shard-queue order."""
        steps: list = []
        at, n_frames = 0, len(frames)
        n_shards = self.n_shards
        while at < n_frames:
            # A SHUTDOWN earlier in this burst may have begun the drain;
            # from then on _dispatch refuses everything but STATS.
            if self._closing or frames[at][1] not in _POINT_OPS:
                steps.append(self._dispatch(*frames[at]))
                at += 1
                continue
            run, items = _ReadRun(), []
            at = protocol.decode_point_ops(
                frames, at, run.entries, run.items, items, run.replies
            )
            run.shards = [route_key(key, n_shards) for key in run.items]
            steps.append(self._fold(run, items) if items else run)
        return steps

    def _fold(self, run: _ReadRun, items: list[tuple[bytes, Any]]) -> _Stretch:
        """Split a decoded stretch — ``run`` holds every entry, the read
        keys and their shards, ``items`` the writes — into early reads,
        one write run and late reads, and submit the writes.  A read is
        late once any of its keys routes to a shard a write before it
        touched."""
        n_shards = self.n_shards
        stretch = _Stretch()
        early, writes, late = stretch.early, stretch.writes, stretch.late
        writes.items = items
        writes.shards = write_shards = [route_key(item[0], n_shards) for item in items]
        keys, shards, replies, order = run.items, run.shards, run.replies, stretch.order
        written: set[int] = set()
        k = w = 0
        for j, entry in enumerate(run.entries):
            n = entry[2]
            if entry[1] in _WRITES:
                part, tag = writes, 1
                if n:
                    written.add(write_shards[w])
                    w += 1
            else:
                mine = shards[k : k + n]
                if written.isdisjoint(mine):
                    part, tag = early, 0
                else:
                    part, tag = late, 2
                part.items += keys[k : k + n]
                part.shards += mine
                k += n
            if j in replies:
                part.replies[len(part.entries)] = replies[j]
            part.entries.append(entry)
            order.append(tag)
        self._submit_writes(writes)
        return stretch

    def _submit_writes(self, run: _WriteRun) -> None:
        """Queue a routed write run: one request per shard.  A shard
        that cannot take the run — not served here, queue full, worker
        dead — holds the refusal where its future would be."""
        shards, results = run.shards, run.results
        batches: dict[int, list[tuple[bytes, Any]]] = {}
        for shard_id in set(shards):
            try:
                self._route(shard_id, write=True)
                batches[shard_id] = []
            except _Reply as exc:  # NOT_OWNER, with the forward hint
                results[shard_id] = exc.status, exc.body
        for shard_id, item in zip(shards, run.items):
            if shard_id in batches:
                batches[shard_id].append(item)
        for shard_id, batch in batches.items():
            try:
                results[shard_id] = self._submit(self.shards[shard_id], "write", batch)
            except _Reply as exc:  # OVERLOADED: the shard queue is full
                results[shard_id] = exc.status, exc.body
            except ShardDown as exc:
                results[shard_id] = protocol.ERROR, str(exc).encode()

    async def _answer_burst(self, started: float, steps: list) -> bytes:
        """Complete every step in order and return the burst's frames.
        ``started`` is when the burst was decoded: a request's recorded
        latency is the time from there to its run's answer."""
        frames: list[bytes] = []
        tally = _Tally(sum(
            len(step.entries) if type(step) is _ReadRun
            else len(step.order) if type(step) is _Stretch else 1
            for step in steps
        ))
        for step in steps:
            if type(step) is bytes:
                frames.append(step)
            elif type(step) is _ReadRun:
                await self._answer_reads(step, started, frames, tally)
            elif type(step) is _Stretch:
                await self._answer_stretch(step, started, frames, tally)
            else:
                tally.flush(self.stats)  # a STATS step must see this burst
                frames.append(await step)
        tally.flush(self.stats)
        return b"".join(frames)

    async def _answer_stretch(
        self, stretch: _Stretch, started: float, frames: list[bytes], tally: _Tally
    ) -> None:
        """Early reads, then the write run's acks, then late reads —
        each late read runs after its shard's commit — and the frames
        back in request order."""
        early: list[bytes] = []
        writes: list[bytes] = []
        late: list[bytes] = []
        if stretch.early.entries:
            await self._answer_reads(stretch.early, started, early, tally)
        await self._answer_writes(stretch.writes, started, writes, tally)
        if stretch.late.entries:
            await self._answer_reads(stretch.late, started, late, tally)
        parts = iter(early), iter(writes), iter(late)
        frames += [next(parts[tag]) for tag in stretch.order]

    async def _answer_writes(
        self, run: _WriteRun, started: float, frames: list[bytes], tally: _Tally
    ) -> None:
        """Await each shard's group commit (and replication gate); a
        failure answers ``ERROR`` to every request of the run routed to
        that shard."""
        acks: dict[int, tuple[int, bytes]] = {}
        for shard_id, result in run.results.items():
            if type(result) is not tuple:
                try:
                    result = await self._fmt_ack(shard_id, result)
                except Exception as exc:
                    result = protocol.ERROR, str(exc).encode()
            acks[shard_id] = result
        shards, replies = iter(run.shards), run.replies
        for j, (request_id, _, n, _) in enumerate(run.entries):
            status, body = acks[next(shards)] if n else replies[j]
            tally.errors += status == protocol.ERROR
            tally.overloads += status == protocol.OVERLOADED
            frames.append(protocol.frame(request_id, status, body))
        tally.count(run.entries, time.perf_counter() - started)

    def _read_refusal(self, shard_id: int) -> tuple[int, bytes] | None:
        """Why ``shard_id`` cannot be read *now* — drain, route and
        shard liveness are checked when a read run executes, not when
        it was decoded."""
        if self._closing:
            return protocol.SHUTTING_DOWN, b"server is draining"
        try:
            self._route(shard_id, write=False).check_readable()
        except _Reply as exc:  # NOT_OWNER, with the forward hint
            return exc.status, exc.body
        except ShardDown as exc:
            return protocol.ERROR, str(exc).encode()
        return None

    async def _answer_reads(
        self, run: _ReadRun, started: float, frames: list[bytes], tally: _Tally
    ) -> None:
        """Execute one read run on this — the event-loop — thread: one
        ``get_many`` of at most ``MAX_BURST`` keys per shard, yielding
        to the loop once that many keys were read without a break.  An
        exception fails this run's requests only."""
        entries, replies, shards = run.entries, run.replies, run.shards
        try:
            keys_of: dict[int, list[bytes]] = {}
            for shard_id, key in zip(shards, run.items):
                keys_of.setdefault(shard_id, []).append(key)
            found: dict[int, Any] = {}
            refused: dict[int, tuple[int, bytes]] = {}
            for shard_id, keys in keys_of.items():
                got: list[Any] = []
                for i in range(0, len(keys), MAX_BURST):
                    if self._inline_keys >= MAX_BURST:
                        self._inline_keys = 0
                        await asyncio.sleep(0)
                    refusal = self._read_refusal(shard_id)
                    if refusal is not None:
                        refused[shard_id] = refusal
                        got = itertools.repeat(None)
                        break
                    chunk = keys[i : i + MAX_BURST]
                    t0 = time.perf_counter()
                    got += self.shards[shard_id].engine.get_many(chunk)
                    per_key = (time.perf_counter() - t0) / len(chunk)
                    tally.samples.append(("shard_get", len(chunk), per_key))
                    tally.get_batches.append(len(chunk))
                    self._inline_keys += len(chunk)
                found[shard_id] = iter(got)
            values = [next(found[shard_id]) for shard_id in shards]
            if refused or self._reads_gated:
                self._refuse_reads(run, refused)
            answered = protocol.encode_read_replies(entries, values, replies)
        except Exception as exc:
            failed = protocol.ERROR, str(exc).encode()
            replies = {j: replies.get(j, failed) for j in range(len(entries))}
            answered = [
                protocol.frame(entry[0], *replies[j]) for j, entry in enumerate(entries)
            ]
        frames += answered
        tally.errors += sum(
            status == protocol.ERROR for status, _ in replies.values()
        )
        tally.count(entries, time.perf_counter() - started)

    def _refuse_reads(
        self, run: _ReadRun, refused: dict[int, tuple[int, bytes]]
    ) -> None:
        """The uncommon half of a read run: entries whose shard refused
        the read take the refusal as their reply."""
        at, shards = 0, run.shards
        for j, (_, _, n, _) in enumerate(run.entries):
            mine = shards[at : at + n]
            at += n
            if j in run.replies:
                continue
            reply = None
            for shard_id in mine:
                reply = refused.get(shard_id, reply)
            if reply is not None:
                run.replies[j] = reply

    # -- shard routing ------------------------------------------------------

    def _route(self, shard_id: int, write: bool):
        """The worker serving ``shard_id`` here, or ``NOT_OWNER`` (with
        a forward hint when the shard is known to have moved)."""
        state = self._shard_state.get(shard_id)
        if state == "serving" or (state == "sealed" and not write):
            worker = self.shards.get(shard_id)
            if worker is not None:
                return worker
        raise _Reply(
            protocol.NOT_OWNER, self._shard_forward.get(shard_id, "").encode("utf-8")
        )

    def _readable_workers(self) -> list[Any]:
        """Workers backing client-visible data (serving + sealed);
        ingest/installing shards are invisible until committed."""
        return [
            self.shards[s]
            for s in sorted(self.shards)
            if self._shard_state.get(s) in ("serving", "sealed")
        ]

    # -- request dispatch --------------------------------------------------

    def _dispatch(self, request_id: int, opcode: int, body: bytes):
        """Answer one frame that is not a point op (those are decoded a
        stretch at a time, see _decode_burst).  The handler runs inside the
        synchronous decode pass of a burst, so whatever it submits to a
        shard queue is submitted *inline*: per-connection arrival order
        is exactly per-shard queue order — no per-request Task, no
        reordering window.  Returns final bytes, or a coroutine that
        awaits the handler's reply and frames it."""
        started = time.perf_counter()
        try:
            if self._closing and opcode != protocol.STATS:
                raise _Reply(protocol.SHUTTING_DOWN, b"server is draining")
            handler = self._handlers.get(opcode)
            if handler is None:
                raise protocol.ProtocolError(f"unknown opcode {opcode}")
            reply = handler(body)
        except _Reply as exc:
            if exc.status == protocol.OVERLOADED:
                self.stats.record_overload()
            reply = exc.status, exc.body
        except ShardDown as exc:
            # A dead worker must answer, not hang: the client gets an
            # immediate error instead of a request nobody will drain.
            self.stats.record_error()
            reply = protocol.ERROR, str(exc).encode()
        except protocol.BODY_ERRORS as exc:
            reply = protocol.BAD_REQUEST, str(exc).encode()

        def framed(status: int, out: bytes) -> bytes:
            op_name = protocol.OP_NAMES.get(opcode, f"op{opcode}")
            self.stats.record_op(op_name, time.perf_counter() - started)
            return protocol.frame(request_id, status, out)

        if type(reply) is tuple:
            return framed(*reply)

        async def awaited() -> bytes:
            try:
                status, out = await reply
            except Exception as exc:
                self.stats.record_error()
                status, out = protocol.ERROR, str(exc).encode()
            return framed(status, out)

        return awaited()

    def _on_scan(self, body: bytes):
        low, count = protocol.decode_scan(body)
        count = min(count, MAX_SCAN_COUNT)
        futs = [
            self._submit(s, "scan", (low, count)) for s in self._readable_workers()
        ]
        return self._fmt_scan(count, futs)

    def _on_count(self, body: bytes):
        low, high = protocol.decode_range(body)
        futs = [
            self._submit(s, "count", (low, high)) for s in self._readable_workers()
        ]
        return self._fmt_count(futs)

    def _on_sync(self, body: bytes):
        return self._fmt_sync(self._sync_all())

    def _on_stats(self, body: bytes):
        # Engine detail is collected via each worker's "info" op (on the
        # worker thread, so it never races the engine); dead or draining
        # shards answer with liveness only.
        futs = []
        for sid in sorted(self.shards):
            shard = self.shards[sid]
            try:
                shard.check_readable()
                fut = self._submit(shard, "info", None)
            except (_Reply, ShardDown):
                fut = None
            futs.append((shard, fut))
        return self._fmt_stats(futs)

    def _on_shutdown(self, body: bytes):
        self.request_shutdown()
        return protocol.OK, b""

    def _extend_stats(self, snapshot: dict[str, Any]) -> None:
        snapshot["n_shards"] = self.n_shards

    # -- shard fan-out ------------------------------------------------------

    def _submit(self, shard: ShardWorker, op: str, args: Any) -> asyncio.Future:
        loop = self._loop
        future = loop.create_future()
        if not shard.submit(ShardRequest(op, args, future, loop)):
            raise _Reply(protocol.OVERLOADED, b"shard queue full")
        return future

    def _sync_all(self) -> list[asyncio.Future]:
        """One ``sync`` per hosted shard: done once every request queued
        before it is durable."""
        return [self._submit(self.shards[s], "sync", None) for s in sorted(self.shards)]

    async def _fmt_ack(self, shard_id: int, fut: asyncio.Future) -> tuple[int, bytes]:
        return protocol.OK, protocol.encode_u64_body(await fut)

    @staticmethod
    async def _fmt_scan(count, futs) -> tuple[int, bytes]:
        """Merge per-shard scans by key (shards are disjoint by hash,
        so the heap merge needs no newest-wins logic)."""
        per_shard = await asyncio.gather(*futs)
        merged = heapq.merge(*per_shard, key=lambda kv: kv[0])
        out = []
        for pair in merged:
            out.append(pair)
            if len(out) >= count:
                break
        return protocol.OK, protocol.encode_pairs(out)

    @staticmethod
    async def _fmt_count(futs) -> tuple[int, bytes]:
        counts = await asyncio.gather(*futs)
        return protocol.OK, protocol.encode_u64_body(sum(counts))

    @staticmethod
    async def _fmt_sync(futs) -> tuple[int, bytes]:
        await asyncio.gather(*futs)
        return protocol.OK, b""

    async def _fmt_stats(self, futs) -> tuple[int, bytes]:
        per_shard = []
        for shard, fut in futs:
            info = None
            if fut is not None:
                try:
                    info = await fut
                except Exception:
                    info = None  # worker died/drained mid-request
            per_shard.append(info if info is not None else shard.snapshot_info())
        snapshot = self.stats.snapshot(per_shard)
        self._extend_stats(snapshot)
        return protocol.OK, json.dumps(snapshot).encode()


class ServerThread:
    """Run a :class:`KVServer` on a private event loop in a daemon
    thread — the bridge that lets synchronous harnesses (tests, the
    differential fuzzer, the in-process cluster) drive the asyncio
    server in-process."""

    def __init__(self, server: KVServer) -> None:
        self.server = server
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="kv-server", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=60)
        if self._startup_error is not None:
            self._thread.join(timeout=10)
            raise self._startup_error
        return self

    @property
    def port(self) -> int:
        return self.server.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as exc:
                self._startup_error = exc
                return
            finally:
                self._ready.set()
            loop.run_forever()
            # Connections still open at stop(): cancel their tasks while
            # the loop can still run their cleanup (as asyncio.run does).
            tasks = asyncio.all_tasks(loop)
            for task in tasks:
                task.cancel()
            loop.run_until_complete(asyncio.gather(*tasks, return_exceptions=True))
        finally:
            self._ready.set()
            try:
                loop.close()
            except Exception:
                pass

    def stop(self, timeout: float = 60.0) -> None:
        """Graceful drain from the calling thread; idempotent."""
        loop, thread = self._loop, self._thread
        if thread is None or loop is None or not thread.is_alive():
            return
        try:
            asyncio.run_coroutine_threadsafe(
                self.server.shutdown(), loop
            ).result(timeout=timeout)
        except Exception:
            pass
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=timeout)
