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
thread (:mod:`repro.server.shard`).  A run of PUT/DELETEs becomes one
queued request per shard (one WAL group commit, one future), submitted
the moment the run is decoded so pipelined writes overlap; SCAN, COUNT,
SYNC, STATS and the cluster opcodes use the same queue.  Point reads —
GET, BATCH_GET, GET_AT — never leave the event-loop thread: a run of
them is one :meth:`LSMTree.get_many` per shard (the engine's pinned,
lock-free read path), executed when the burst is answered.

Ordering guarantees: per connection, per shard — a request observes
every earlier same-connection request routed to the same shard.
Writes and queued ops keep arrival order in the shard queue; a read
run executes strictly after every earlier request of its connection
has *completed* (it may also observe a later pipelined write, which is
concurrent with it).  Cross-shard requests (SCAN/COUNT/BATCH_GET
spanning shards) fan out and merge.

Shutdown drains: stop accepting, mark the server closing (new requests
get ``SHUTTING_DOWN``), let every queued request complete, then sync
and close each engine.  A client-acknowledged write therefore always
survives, even through ``python -m repro.server serve`` receiving
SIGTERM mid-load.

Cluster roles (PR 9): a server is a ``primary`` (accepts writes,
optionally streams committed WAL frames to followers via an attached
:class:`~repro.cluster.replicator.PrimaryReplication`) or a
``follower`` (rejects client writes with ``NOT_PRIMARY``, ingests
``REPL_APPLY`` frames, answers ``GET_AT`` reads gated on its per-shard
replication watermark, and flips to primary on ``PROMOTE``).  With
replication attached, a write is only acknowledged once every voting
follower has durably applied it — the gate that makes "no acked write
lost" hold across node failover, not just node restart.

Membership (PR 10): shard ids live in a *global* space — a node hosts
any subset (``shard_ids``), and ``self.shards`` maps shard id →
worker.  Each hosted shard carries a serving state:

* ``serving`` — normal; reads and (on a primary) writes.
* ``sealed``  — mid-migration handoff: reads still served, writes get
  ``NOT_OWNER`` with a forward hint to the receiving group.
* ``ingest``  — arriving via migration: invisible to clients until
  ``MIGRATE_COMMIT``; ``REPL_APPLY`` bypasses role/term checks here so
  the source group can stream the catch-up delta.
* ``installing`` — a snapshot resync is swapping the engine.

Requests for a shard this node does not serve answer ``NOT_OWNER``
(body = forward-group hint when one is known); clients re-route and
retry.  An election *term* (in-memory, monotonic) fences deposed
primaries: ``REPL_APPLY``/``LEASE`` carrying an older term get
``FENCED``.  Terms need no persistence — a restarted node starts at 0
and adopts the group's term from the first message it sees, and can
never outrank a live primary.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import json
import threading
import time
from typing import Any, Callable, Sequence

from ..cluster import membership
from ..cluster.routing import route_key
from ..lsm import LSMTree
from ..lsm.disk_format import FrameError
from ..lsm.fs import FileSystem, OsFileSystem, join
from ..lsm.wal import iter_records as wal_iter_records
from . import protocol
from .shard import MAX_BURST, ShardDown, ShardRequest, ShardWorker
from .stats import ServerStats

#: Cap on one SCAN response, whatever the client asked for.
MAX_SCAN_COUNT = 10_000


#: Decoded-but-unanswered bursts one connection may hold.  Past this
#: the reader stops reading, so the peer's TCP window pushes back.
MAX_PENDING_BURSTS = 8

#: How long ``shutdown`` waits for the connections it closed to finish
#: (one can be waiting out ``repl_ack_timeout`` on a dead follower).
HANGUP_TIMEOUT = 5.0

_POINT_READS = (protocol.GET, protocol.GET_AT, protocol.BATCH_GET)
_POINT_OPS = _POINT_READS + (protocol.PUT, protocol.DELETE)


class _Run:
    """Consecutive point ops of one burst as the burst-level codec
    decodes them (:mod:`repro.server.protocol`): ``entries``, their
    ``items`` in one flat list, and the ``replies`` of the entries that
    are already answered."""

    __slots__ = ("entries", "items", "replies")

    def __init__(self) -> None:
        self.entries: protocol.Entries = []
        self.items: list = []
        self.replies: protocol.Replies = {}


class _ReadRun(_Run):
    """GET / GET_AT / BATCH_GETs; the items are their keys."""

    __slots__ = ()


class _WriteRun(_Run):
    """PUT/DELETEs; the items are ``(key, value)``.  One queued request
    and one future (or one refusal) per shard."""

    __slots__ = ("shards", "results")

    def __init__(self) -> None:
        super().__init__()
        self.shards: list[int] = []  # of each item
        self.results: dict[int, Any] = {}  # shard -> future | (status, body)


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


#: Backwards-compatible alias: the shard mapping now lives in
#: :mod:`repro.cluster.routing` so the server, the load generator, and
#: the cluster router can never drift apart.
shard_of = route_key


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
        role: str = "primary",
        replication: Any = None,
        repl_ack_timeout: float = 30.0,
        shard_ids: Sequence[int] | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if role not in ("primary", "follower"):
            raise ValueError("role must be 'primary' or 'follower'")
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

        #: Cluster role; flipped follower -> primary by PROMOTE.
        self.role = role
        #: Election term (in-memory; see the module docstring).
        self.term = 0
        #: monotonic deadline of the last granted lease (follower side).
        self.lease_deadline: float | None = None
        self._replication = replication
        self._repl_ack_timeout = repl_ack_timeout
        #: Per hosted shard: "serving" | "sealed" | "ingest" |
        #: "installing" | "detached" | "failed".
        self._shard_state: dict[int, str] = {s: "serving" for s in self.shard_ids}
        #: Forward hints for shards that moved away: shard -> group.
        self._shard_forward: dict[int, str] = {}
        #: In-flight snapshot staging, one per shard (see SNAP_*).
        self._snap_staging: dict[int, dict[str, Any]] = {}
        #: Shards with an outbound migration in flight.
        self._migrating: set[int] = set()
        #: Follower ingest watermarks, per hosted shard.  ``dispatched``
        #: is the highest primary sequence accepted into the shard's
        #: queue (advanced on the event loop thread, so REPL_APPLY
        #: frames on one connection dedup/gap-check in arrival order);
        #: ``applied`` is the highest durably applied one (advanced by
        #: the ack formatter once the shard's group commit returns).
        #: ``dispatched`` is deliberately never rewound — resending a
        #: queued-but-unconfirmed record would double-apply it.
        self._repl_dispatched: dict[int, int] = {s: 0 for s in self.shard_ids}
        self._repl_applied: dict[int, int] = {s: 0 for s in self.shard_ids}
        #: A failed apply poisons the shard (sequence alignment with the
        #: primary is lost); only a snapshot resync recovers it.
        self._repl_failed: dict[int, str | None] = {s: None for s in self.shard_ids}

    def _fs_for(self, shard_id: int) -> FileSystem | None:
        if callable(self._fs) and not isinstance(self._fs, FileSystem):
            return self._fs(shard_id)
        return self._fs

    def _shard_root(self, shard_id: int) -> str:
        return join(self.path, f"shard-{shard_id:02d}")

    # -- cluster helpers (used by the lease manager / replication) ----------

    def demote(self) -> None:
        """Stand down as primary (a peer fenced our term)."""
        self.role = "follower"

    def extend_lease(self, ttl: float) -> None:
        self.lease_deadline = time.monotonic() + ttl

    def applied_total(self) -> int:
        """Sum of durably applied sequences across hosted shards — the
        election's catch-up metric."""
        return sum(self._repl_applied.get(s, 0) for s in self.shards)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "KVServer":
        """Open (recovering) every hosted shard engine, start the
        workers, bind."""
        self._loop = asyncio.get_running_loop()
        self._shutdown_requested = asyncio.Event()
        try:
            for i in self.shard_ids:
                observer = (
                    self._replication.observer_for(i)
                    if self._replication is not None
                    else None
                )
                engine = LSMTree.open(
                    self._shard_root(i),
                    fs=self._fs_for(i),
                    filter_factory=self._filter_factory,
                    wal_observer=observer,
                    **self._engine_config,
                )
                worker = ShardWorker(
                    i, engine, self.stats, queue_limit=self._queue_limit
                )
                worker.start()
                self.shards[i] = worker
            if self.role == "follower":
                # A restarted follower resumes where its recovered
                # engines stand: every sequence <= last_seq was
                # durably applied before the restart.
                for i, worker in self.shards.items():
                    seq = worker.engine.last_seq
                    self._repl_dispatched[i] = seq
                    self._repl_applied[i] = seq
            if self._replication is not None:
                self._replication.bind(self)
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
        if self._replication is not None:
            # Workers are stopped, so the logs are final; ship whatever
            # is still queued before cutting the follower links.
            repl = self._replication
            await asyncio.get_running_loop().run_in_executor(
                None, repl.drain_and_stop
            )
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
            if type(step) is _WriteRun:
                for result in step.results.values():
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
        point reads is decoded as one read run and a stretch of
        PUT/DELETEs as one write run, each by one call of the
        burst-level codec; any other frame is dispatched on its own.
        A write run is submitted the moment it is decoded — before this
        pass returns — so arrival order is shard-queue order."""
        steps: list = []
        at, n_frames = 0, len(frames)
        while at < n_frames:
            opcode = frames[at][1]
            # A SHUTDOWN earlier in this burst may have begun the drain;
            # from then on _dispatch refuses everything but STATS.
            if self._closing or opcode not in _POINT_OPS:
                steps.append(self._dispatch(*frames[at]))
                at += 1
            elif opcode in _POINT_READS:
                run = _ReadRun()
                at = protocol.decode_point_reads(
                    frames, at, MAX_BURST, run.entries, run.items, run.replies
                )
                steps.append(run)
            else:
                run = _WriteRun()
                at = protocol.decode_point_writes(
                    frames, at, run.entries, run.items, run.replies
                )
                self._submit_writes(run)
                steps.append(run)
        return steps

    def _submit_writes(self, run: _WriteRun) -> None:
        """Route a decoded write run and queue it: one request per
        shard.  A shard that cannot take the run — not served here, not
        on a primary, queue full, worker dead — holds the refusal where
        its future would be."""
        n_shards = self.n_shards
        run.shards = shards = [shard_of(item[0], n_shards) for item in run.items]
        results = run.results
        if self.role != "primary":
            refusal = protocol.NOT_PRIMARY, b"writes go to the primary"
            results.update(dict.fromkeys(shards, refusal))
            return
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
            len(step.entries) if isinstance(step, _Run) else 1 for step in steps
        ))
        for step in steps:
            if type(step) is bytes:
                frames.append(step)
            elif type(step) is _ReadRun:
                await self._answer_reads(step, started, frames, tally)
            elif type(step) is _WriteRun:
                await self._answer_writes(step, started, frames, tally)
            else:
                tally.flush(self.stats)  # a STATS step must see this burst
                frames.append(await step)
        tally.flush(self.stats)
        return b"".join(frames)

    async def _answer_writes(
        self, run: _WriteRun, started: float, frames: list[bytes], tally: _Tally
    ) -> None:
        """Await each shard's group commit (and replication gate); a
        failure answers ``ERROR`` to exactly that shard's requests."""
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
        entries, replies = run.entries, run.replies
        try:
            n_shards = self.n_shards
            shards = [shard_of(key, n_shards) for key in run.items]
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
            if refused or self.role != "primary":
                self._refuse_reads(run, shards, refused)
            blob = protocol.encode_read_replies(entries, values, replies)
        except Exception as exc:
            failed = protocol.ERROR, str(exc).encode()
            replies = {j: replies.get(j, failed) for j in range(len(entries))}
            blob = b"".join(
                protocol.frame(entry[0], *replies[j]) for j, entry in enumerate(entries)
            )
        frames.append(blob)
        tally.errors += sum(
            status == protocol.ERROR for status, _ in replies.values()
        )
        tally.count(entries, time.perf_counter() - started)

    def _refuse_reads(
        self, run: _ReadRun, shards: list[int],
        refused: dict[int, tuple[int, bytes]],
    ) -> None:
        """The uncommon half of a read run: entries whose shard refused
        the read take the refusal as their reply, and a follower's
        ``GET_AT`` is gated on its replication watermark."""
        follower = self.role != "primary"
        at = 0
        for j, (_, opcode, n, min_seq) in enumerate(run.entries):
            mine = shards[at : at + n]
            at += n
            if j in run.replies:
                continue
            reply = None
            for shard_id in mine:
                reply = refused.get(shard_id, reply)
            if opcode == protocol.GET_AT and follower:
                # A follower behind the client's causal token, or
                # mid-resync/migration, answers LAGGING: the client
                # falls back to the primary instead of reading a
                # stale snapshot or failing the read.
                applied = self._repl_applied.get(mine[0], 0)
                if reply is None and applied < min_seq:
                    reply = (
                        protocol.LAGGING,
                        b"follower applied %d < %d" % (applied, min_seq),
                    )
                elif reply is not None and reply[0] == protocol.NOT_OWNER:
                    reply = protocol.LAGGING, b"shard not readable here"
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
    #
    # Everything that is not a point op (those are decoded a run at a
    # time, see _decode_burst).  Runs inside the synchronous decode pass
    # of a burst, which performs every shard submit *inline*, so
    # per-connection arrival order is exactly per-shard queue order — no
    # per-request Task, no reordering window.  Returns final bytes, or a
    # small coroutine that formats the shard's answer.

    def _dispatch(self, request_id: int, opcode: int, body: bytes):
        started = time.perf_counter()
        op_name = protocol.OP_NAMES.get(opcode, f"op{opcode}")
        try:
            if self._closing and opcode != protocol.STATS:
                raise _Reply(protocol.SHUTTING_DOWN, b"server is draining")

            if opcode == protocol.SCAN:
                low, count = protocol.decode_scan(body)
                count = min(count, MAX_SCAN_COUNT)
                futs = [
                    self._submit(s, "scan", (low, count))
                    for s in self._readable_workers()
                ]
                return self._finish(
                    request_id, op_name, started, self._fmt_scan(count, futs)
                )

            if opcode == protocol.COUNT:
                low, high = protocol.decode_range(body)
                futs = [
                    self._submit(s, "count", (low, high))
                    for s in self._readable_workers()
                ]
                return self._finish(
                    request_id, op_name, started, self._fmt_count(futs)
                )

            if opcode == protocol.SYNC:
                futs = [
                    self._submit(self.shards[s], "sync", None)
                    for s in sorted(self.shards)
                ]
                return self._finish(
                    request_id, op_name, started, self._fmt_sync(futs)
                )

            if opcode == protocol.STATS:
                if not self.shards:
                    snapshot = self.stats.snapshot(None)
                    self._extend_stats(snapshot)
                    return self._immediate(
                        request_id, op_name, started,
                        protocol.OK, json.dumps(snapshot).encode(),
                    )
                # Engine detail is collected via each worker's "info"
                # op (on the worker thread, so it never races the engine);
                # dead or draining shards answer with liveness only.
                futs = []
                for sid in sorted(self.shards):
                    shard = self.shards[sid]
                    try:
                        shard.check_readable()
                        fut = self._submit(shard, "info", None)
                    except (_Reply, ShardDown):
                        fut = None
                    futs.append((shard, fut))
                return self._finish(
                    request_id, op_name, started, self._fmt_stats(futs)
                )

            if opcode == protocol.SHUTDOWN:
                self.request_shutdown()
                return self._immediate(
                    request_id, op_name, started, protocol.OK, b""
                )

            if opcode == protocol.REPL_APPLY:
                return self._dispatch_repl_apply(request_id, op_name, started, body)

            if opcode == protocol.WATERMARK:
                return self._immediate(
                    request_id, op_name, started,
                    protocol.OK,
                    protocol.encode_watermarks(
                        self.role == "primary", self.term, self._watermarks()
                    ),
                )

            if opcode == protocol.PROMOTE:
                new_term = protocol.decode_promote(body)
                if self.role == "primary":
                    if new_term is not None and new_term > self.term:
                        self.term = new_term
                    return self._immediate(
                        request_id, op_name, started,
                        protocol.OK, protocol.encode_u64_body(self.term),
                    )
                # Sync barrier: the per-shard queues are FIFO, so once
                # these complete every REPL_APPLY accepted before the
                # promotion is durably applied — the new primary starts
                # from its full watermark, and late frames from the old
                # primary get BAD_REQUEST instead of silently diverging.
                futs = [
                    self._submit(self.shards[s], "sync", None)
                    for s in sorted(self.shards)
                ]
                return self._finish(
                    request_id, op_name, started, self._fmt_promote(futs, new_term)
                )

            if opcode == protocol.LEASE:
                return self._dispatch_lease(request_id, op_name, started, body)

            if opcode == protocol.SNAP_BEGIN:
                return self._dispatch_snap_begin(request_id, op_name, started, body)

            if opcode == protocol.SNAP_CHUNK:
                return self._dispatch_snap_chunk(request_id, op_name, started, body)

            if opcode == protocol.SNAP_COMMIT:
                return self._dispatch_snap_commit(request_id, op_name, started, body)

            if opcode == protocol.MIGRATE:
                return self._dispatch_migrate(request_id, op_name, started, body)

            if opcode == protocol.MIGRATE_COMMIT:
                return self._dispatch_migrate_commit(
                    request_id, op_name, started, body
                )

            if opcode == protocol.SHARD_DETACH:
                return self._dispatch_shard_detach(
                    request_id, op_name, started, body
                )

            raise protocol.ProtocolError(f"unknown opcode {opcode}")
        except _Reply as exc:
            if exc.status == protocol.OVERLOADED:
                self.stats.record_overload()
            status, reply = exc.status, exc.body
        except ShardDown as exc:
            # A dead worker must answer, not hang: the client gets an
            # immediate error instead of a request nobody will drain.
            self.stats.record_error()
            status, reply = protocol.ERROR, str(exc).encode()
        except protocol.BODY_ERRORS as exc:
            status, reply = protocol.BAD_REQUEST, str(exc).encode()
        return self._immediate(request_id, op_name, started, status, reply)

    def _watermarks(self) -> dict[int, tuple[int, int]]:
        """Per hosted shard (dispatched, applied).  A primary reports
        its engines' own last sequences (it *is* the stream's source);
        followers and ingest shards report the replication marks."""
        marks: dict[int, tuple[int, int]] = {}
        for shard_id, worker in self.shards.items():
            dispatched = self._repl_dispatched.get(shard_id, 0)
            applied = self._repl_applied.get(shard_id, 0)
            if (
                self.role == "primary"
                and self._shard_state.get(shard_id) != "ingest"
            ):
                engine = getattr(worker, "engine", None)
                if engine is not None:
                    seq = engine.last_seq
                    dispatched = max(dispatched, seq)
                    applied = max(applied, seq)
            marks[shard_id] = (dispatched, applied)
        return marks

    def _dispatch_repl_apply(
        self, request_id: int, op_name: str, started: float, body: bytes
    ):
        """Ingest one batch of primary WAL frames for one shard.

        Runs on the event loop thread, so per-connection arrival order
        is exactly dedup/gap-check order: the primary's single sender
        connection can never race its own stream.
        """
        term, shard_id, frames = protocol.decode_repl_apply(body)
        if not 0 <= shard_id < self.n_shards:
            raise _Reply(protocol.BAD_REQUEST, b"bad shard id")
        state = self._shard_state.get(shard_id)
        if state != "ingest":
            # The normal follower stream is role- and term-fenced; the
            # migration ingest stream is not (the source group's term
            # is unrelated to this group's).
            if self.role != "follower":
                raise _Reply(protocol.BAD_REQUEST, b"not a follower")
            if term < self.term:
                raise _Reply(protocol.FENCED, b"stale term %d < %d" % (term, self.term))
            if term > self.term:
                self.term = term
        if shard_id not in self.shards or state not in ("serving", "ingest"):
            raise _Reply(protocol.BAD_REQUEST, b"shard not hosted")
        if self._repl_failed.get(shard_id) is not None:
            raise _Reply(protocol.ERROR, self._repl_failed[shard_id].encode())
        try:
            records = list(
                wal_iter_records(
                    frames, source=f"repl shard {shard_id}", strict=True
                )
            )
        except FrameError as exc:
            raise _Reply(protocol.BAD_REQUEST, str(exc).encode())
        dispatched = self._repl_dispatched.get(shard_id, 0)
        fresh = [(seq, key, value) for seq, key, value in records if seq > dispatched]
        if not fresh:
            # Pure resend (the primary reconnected and replayed from an
            # older watermark): confirm the durable position.
            return self._immediate(
                request_id, op_name, started,
                protocol.OK,
                protocol.encode_u64_body(self._repl_applied.get(shard_id, 0)),
            )
        expect = dispatched
        for seq, _, _ in fresh:
            expect += 1
            if seq != expect:
                # A hole in the stream would silently fork this shard
                # from the primary; poison it instead.  The link
                # surfaces it, and the next handshake resyncs.
                self._repl_failed[shard_id] = (
                    f"replication gap: expected seq {expect}, got {seq}"
                )
                raise _Reply(protocol.ERROR, self._repl_failed[shard_id].encode())
        self._repl_dispatched[shard_id] = expect
        fut = self._submit(
            self.shards[shard_id],
            "write", [(key, value) for _, key, value in fresh],
        )
        return self._finish(
            request_id, op_name, started,
            self._fmt_repl_ack(shard_id, expect, fut),
        )

    async def _fmt_repl_ack(
        self, shard_id: int, expect: int, fut: asyncio.Future
    ) -> tuple[int, bytes]:
        try:
            seq = await fut
            # The shard worker may coalesce several REPL_APPLY batches
            # into one group commit and complete each with the *run's*
            # final sequence, so >= expect is normal; < expect means the
            # follower's own sequence counter diverged from the stream.
            if isinstance(seq, int) and seq < expect:
                raise RuntimeError(
                    f"follower shard {shard_id} applied through seq {seq}, "
                    f"primary stream says {expect}"
                )
        except Exception as exc:
            self._repl_failed[shard_id] = f"apply failed: {exc!r}"
            raise
        # write_batch returned, so the batch rode a WAL group commit:
        # "applied" is a *durable* watermark, which is what lets the
        # primary ack its clients off our confirmations.
        self._repl_applied[shard_id] = max(
            self._repl_applied.get(shard_id, 0), expect
        )
        return protocol.OK, protocol.encode_u64_body(expect)

    async def _fmt_promote(
        self, futs: list[asyncio.Future], new_term: int | None
    ) -> tuple[int, bytes]:
        await asyncio.gather(*futs)
        self.role = "primary"
        self.term = max(self.term + 1, new_term or 0)
        self.lease_deadline = None
        return protocol.OK, protocol.encode_u64_body(self.term)

    # -- membership dispatch (PR 10) ----------------------------------------

    def _dispatch_lease(
        self, request_id: int, op_name: str, started: float, body: bytes
    ):
        term, ttl_ms = protocol.decode_lease(body)
        if term < self.term:
            raise _Reply(protocol.FENCED, b"stale term %d < %d" % (term, self.term))
        if term > self.term:
            self.term = term
            if self.role == "primary":
                # A newer-term primary exists; stand down.
                self.role = "follower"
        elif self.role == "primary":
            # Equal-term split claim: refuse — exactly one of the two
            # backs off (the other's grant reaches us as a follower).
            raise _Reply(protocol.FENCED, b"primary at the same term")
        self.lease_deadline = time.monotonic() + ttl_ms / 1000.0
        return self._immediate(request_id, op_name, started, protocol.OK, b"")

    def _dispatch_snap_begin(
        self, request_id: int, op_name: str, started: float, body: bytes
    ):
        term, shard_id, doc_bytes = protocol.decode_snap_begin(body)
        if not 0 <= shard_id < self.n_shards:
            raise _Reply(protocol.BAD_REQUEST, b"bad shard id")
        try:
            doc = json.loads(doc_bytes.decode("utf-8"))
            membership.validate_snapshot_doc(doc)
        except (ValueError, TypeError) as exc:
            raise _Reply(protocol.BAD_REQUEST, str(exc).encode())
        purpose = doc["purpose"]
        state = self._shard_state.get(shard_id)
        if purpose == "resync":
            if self.role != "follower":
                raise _Reply(protocol.BAD_REQUEST, b"resync targets a follower")
            if term < self.term:
                raise _Reply(protocol.FENCED, b"stale term %d < %d" % (term, self.term))
            if term > self.term:
                self.term = term
        else:  # migrate: the source group's term is not ours to fence
            if state in ("serving", "sealed") and shard_id in self.shards:
                raise _Reply(protocol.BAD_REQUEST, b"shard already served here")
            # Invisible to clients until MIGRATE_COMMIT.
            self._shard_state[shard_id] = "ingest"
        self._snap_staging[shard_id] = {
            "term": term,
            "purpose": purpose,
            "doc": doc,
            "files": {entry["name"]: bytearray() for entry in doc["files"]},
            "sizes": {entry["name"]: entry["size"] for entry in doc["files"]},
            "crcs": {entry["name"]: entry["crc"] for entry in doc["files"]},
        }
        return self._immediate(request_id, op_name, started, protocol.OK, b"")

    def _dispatch_snap_chunk(
        self, request_id: int, op_name: str, started: float, body: bytes
    ):
        term, shard_id, name, offset, data = protocol.decode_snap_chunk(body)
        staging = self._snap_staging.get(shard_id)
        if staging is None or staging["term"] != term:
            raise _Reply(protocol.BAD_REQUEST, b"no snapshot staged")
        buf = staging["files"].get(name)
        if buf is None:
            raise _Reply(protocol.BAD_REQUEST, b"unannounced file")
        if offset != len(buf):
            raise _Reply(
                protocol.BAD_REQUEST, b"chunk offset %d != %d" % (offset, len(buf))
            )
        if len(buf) + len(data) > staging["sizes"][name]:
            raise _Reply(protocol.BAD_REQUEST, b"file exceeds announced size")
        buf += data
        return self._immediate(request_id, op_name, started, protocol.OK, b"")

    def _dispatch_snap_commit(
        self, request_id: int, op_name: str, started: float, body: bytes
    ):
        import zlib

        term, shard_id, snap_seq = protocol.decode_snap_commit(body)
        staging = self._snap_staging.get(shard_id)
        if staging is None or staging["term"] != term:
            raise _Reply(protocol.BAD_REQUEST, b"no snapshot staged")
        if snap_seq != staging["doc"]["snap_seq"]:
            raise _Reply(protocol.BAD_REQUEST, b"snap_seq mismatch")
        for name, buf in staging["files"].items():
            if len(buf) != staging["sizes"][name]:
                self._snap_staging.pop(shard_id, None)
                raise _Reply(
                    protocol.BAD_REQUEST, b"file %s incomplete" % name.encode()
                )
            if zlib.crc32(bytes(buf)) != staging["crcs"][name]:
                self._snap_staging.pop(shard_id, None)
                raise _Reply(
                    protocol.BAD_REQUEST, b"file %s CRC mismatch" % name.encode()
                )
        self._snap_staging.pop(shard_id, None)
        return self._finish(
            request_id, op_name, started,
            self._fmt_snap_commit(shard_id, staging),
        )

    async def _fmt_snap_commit(
        self, shard_id: int, staging: dict[str, Any]
    ) -> tuple[int, bytes]:
        old_worker = self.shards.pop(shard_id, None)
        self._shard_state[shard_id] = "installing"
        try:
            worker = await self._loop.run_in_executor(
                None, self._install_snapshot_sync, shard_id, old_worker, staging
            )
        except Exception:
            # The old engine is gone and the new one failed to open:
            # the shard is unusable here until another resync succeeds.
            self._shard_state[shard_id] = "failed"
            raise
        self.shards[shard_id] = worker
        snap_seq = staging["doc"]["snap_seq"]
        self._repl_dispatched[shard_id] = snap_seq
        self._repl_applied[shard_id] = snap_seq
        self._repl_failed[shard_id] = None
        if self._replication is not None:
            self._replication.reset_shard(shard_id, snap_seq)
            if staging["purpose"] == "migrate":
                self._replication.set_ingest(shard_id, True)
        self._shard_state[shard_id] = (
            "ingest" if staging["purpose"] == "migrate" else "serving"
        )
        return protocol.OK, protocol.encode_u64_body(snap_seq)

    def _install_snapshot_sync(
        self, shard_id: int, old_worker: Any, staging: dict[str, Any]
    ):
        """Executor side of SNAP_COMMIT: retire the old engine, install
        the shipped files + manifest, recover, restart the worker."""
        if old_worker is not None:
            old_worker.stop()
            old_worker.join(timeout=60)
        fs = self._fs_for(shard_id) or OsFileSystem()
        root = self._shard_root(shard_id)
        membership.install_snapshot(
            fs,
            root,
            staging["doc"],
            {name: bytes(buf) for name, buf in staging["files"].items()},
        )
        observer = (
            self._replication.observer_for(shard_id)
            if self._replication is not None
            else None
        )
        engine = LSMTree.open(
            root,
            fs=fs,
            filter_factory=self._filter_factory,
            wal_observer=observer,
            **self._engine_config,
        )
        if engine.last_seq != staging["doc"]["snap_seq"]:
            raise RuntimeError(
                f"installed snapshot recovered at seq {engine.last_seq}, "
                f"expected {staging['doc']['snap_seq']}"
            )
        worker = ShardWorker(
            shard_id, engine, self.stats, queue_limit=self._queue_limit
        )
        worker.start()
        return worker

    def _dispatch_migrate(
        self, request_id: int, op_name: str, started: float, body: bytes
    ):
        shard_id, dst_group, targets = protocol.decode_migrate(body)
        if self.role != "primary":
            raise _Reply(protocol.NOT_PRIMARY, b"migration starts at the primary")
        if self._replication is None:
            raise _Reply(protocol.BAD_REQUEST, b"replication not attached")
        if not 0 <= shard_id < self.n_shards:
            raise _Reply(protocol.BAD_REQUEST, b"bad shard id")
        if not targets:
            raise _Reply(protocol.BAD_REQUEST, b"no target nodes")
        if (
            shard_id not in self.shards
            or self._shard_state.get(shard_id) != "serving"
        ):
            raise _Reply(protocol.BAD_REQUEST, b"shard not serving here")
        if shard_id in self._migrating:
            raise _Reply(protocol.BAD_REQUEST, b"migration already in progress")
        self._migrating.add(shard_id)
        return self._finish(
            request_id, op_name, started,
            self._fmt_migrate(shard_id, dst_group, targets),
        )

    async def _fmt_migrate(
        self, shard_id: int, dst_group: str, targets: list[tuple[str, int]]
    ) -> tuple[int, bytes]:
        try:
            handoff_seq = await self._loop.run_in_executor(
                None,
                self._replication.migrate_out, shard_id, dst_group, targets,
            )
        finally:
            self._migrating.discard(shard_id)
        return protocol.OK, protocol.encode_u64_body(handoff_seq)

    async def seal_shard(self, shard_id: int, dst_group: str) -> int:
        """Stop taking writes for a migrating shard and return the
        handoff sequence.  Runs on the event loop (scheduled by the
        migration driver): the state flip and the barrier submit happen
        atomically w.r.t. request dispatch, so every write accepted
        before the flip is in the queue the sync drains — and in the
        replication log once it completes — while every later write
        answers NOT_OWNER with the receiving group as the hint."""
        self._shard_state[shard_id] = "sealed"
        self._shard_forward[shard_id] = dst_group
        worker = self.shards[shard_id]
        await self._submit(worker, "sync", None)
        engine = getattr(worker, "engine", None)
        return engine.last_seq if engine is not None else 0

    def _dispatch_migrate_commit(
        self, request_id: int, op_name: str, started: float, body: bytes
    ):
        shard_id, handoff_seq = protocol.decode_migrate_commit(body)
        state = self._shard_state.get(shard_id)
        if (
            state == "serving"
            and self._repl_applied.get(shard_id, 0) >= handoff_seq
        ):
            # Idempotent retry: already committed.
            return self._immediate(request_id, op_name, started, protocol.OK, b"")
        if state != "ingest" or shard_id not in self.shards:
            raise _Reply(protocol.BAD_REQUEST, b"shard not ingesting")
        if self._repl_applied.get(shard_id, 0) < handoff_seq:
            raise _Reply(
                protocol.BAD_REQUEST,
                b"applied %d behind handoff %d" % (self._repl_applied.get(shard_id, 0), handoff_seq),
            )
        self._shard_state[shard_id] = "serving"
        self._shard_forward.pop(shard_id, None)
        if self._replication is not None:
            self._replication.set_ingest(shard_id, False)
            self._replication.reset_shard(shard_id, handoff_seq)
        return self._immediate(request_id, op_name, started, protocol.OK, b"")

    def _dispatch_shard_detach(
        self, request_id: int, op_name: str, started: float, body: bytes
    ):
        shard_id, forward_group = protocol.decode_shard_detach(body)
        if not 0 <= shard_id < self.n_shards:
            raise _Reply(protocol.BAD_REQUEST, b"bad shard id")
        worker = self.shards.get(shard_id)
        if worker is None:
            if forward_group:
                self._shard_forward[shard_id] = forward_group
            return self._immediate(request_id, op_name, started, protocol.OK, b"")
        return self._finish(
            request_id, op_name, started,
            self._fmt_shard_detach(shard_id, forward_group, worker),
        )

    async def _fmt_shard_detach(
        self, shard_id: int, forward_group: str, worker: Any
    ) -> tuple[int, bytes]:
        repl = self._replication
        if repl is not None and self.role == "primary":
            # The group's own followers must hold the sealed shard's
            # full tail before this primary forgets its log: a link
            # mid-ship would otherwise see the log vanish and bounce.
            engine = getattr(worker, "engine", None)
            end_seq = engine.last_seq if engine is not None else 0
            await self._loop.run_in_executor(
                None, repl.wait_links_durable, shard_id, end_seq
            )
        self._shard_state[shard_id] = "detached"
        self.shards.pop(shard_id, None)
        if forward_group:
            self._shard_forward[shard_id] = forward_group
        await self._loop.run_in_executor(
            None, self._retire_worker_sync, shard_id, worker
        )
        if repl is not None:
            repl.detach_shard(shard_id)
        self._repl_dispatched.pop(shard_id, None)
        self._repl_applied.pop(shard_id, None)
        self._repl_failed.pop(shard_id, None)
        return protocol.OK, b""

    def _retire_worker_sync(self, shard_id: int, worker: Any) -> None:
        """Executor side of SHARD_DETACH: drain the worker, then delete
        the shard directory (CURRENT first, so a crash mid-delete
        leaves a directory that recovers as empty)."""
        worker.stop()
        worker.join(timeout=60)
        fs = self._fs_for(shard_id) or OsFileSystem()
        root = self._shard_root(shard_id)
        try:
            names = list(fs.listdir(root))
        except (FileNotFoundError, OSError):
            return
        for name in sorted(names, key=lambda n: n != "CURRENT"):
            try:
                fs.remove(join(root, name))
            except (FileNotFoundError, OSError):
                pass

    def _extend_stats(self, snapshot: dict[str, Any]) -> None:
        snapshot["n_shards"] = self.n_shards
        cluster: dict[str, Any] = {
            "role": self.role,
            "term": self.term,
            "hosted_shards": sorted(self.shards),
            "shards": {
                str(shard_id): {
                    "state": self._shard_state.get(shard_id),
                    "repl_dispatched": self._repl_dispatched.get(shard_id, 0),
                    "repl_applied": self._repl_applied.get(shard_id, 0),
                    "repl_failed": self._repl_failed.get(shard_id),
                }
                for shard_id in sorted(self.shards)
            },
            "forward": {str(s): g for s, g in sorted(self._shard_forward.items())},
            "migrating": sorted(self._migrating),
        }
        if self._replication is not None:
            cluster["replication"] = self._replication.stats()
        snapshot["cluster"] = cluster

    def _immediate(
        self, request_id: int, op_name: str, started: float,
        status: int, body: bytes,
    ) -> bytes:
        self.stats.record_op(op_name, time.perf_counter() - started)
        return protocol.frame(request_id, status, body)

    async def _finish(
        self, request_id: int, op_name: str, started: float, formatter
    ) -> bytes:
        try:
            status, body = await formatter
        except Exception as exc:
            self.stats.record_error()
            status, body = protocol.ERROR, str(exc).encode()
        self.stats.record_op(op_name, time.perf_counter() - started)
        return protocol.frame(request_id, status, body)

    # -- shard fan-out ------------------------------------------------------

    def _submit(self, shard: ShardWorker, op: str, args: Any) -> asyncio.Future:
        loop = self._loop
        future = loop.create_future()
        if not shard.submit(ShardRequest(op, args, future, loop)):
            raise _Reply(protocol.OVERLOADED, b"shard queue full")
        return future

    async def _fmt_ack(self, shard_id: int, fut: asyncio.Future) -> tuple[int, bytes]:
        seq = await fut
        if not isinstance(seq, int):
            return protocol.OK, b""  # non-durable engine: no token
        repl = self._replication
        if repl is not None:
            # Synchronous replication gate: the local group commit made
            # the write durable *here*; the ack waits until every
            # voting follower confirms it durable *there*, so a
            # client-visible OK survives the loss of this whole node.
            await asyncio.wait_for(
                repl.wait_durable(shard_id, seq), self._repl_ack_timeout
            )
        return protocol.OK, protocol.encode_u64_body(seq)

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
    differential fuzzer, the sync client benchmarks) drive the asyncio
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
