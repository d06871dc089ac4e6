"""Primary→follower WAL shipping: synchronous replication, snapshot
resync, and the source side of live shard migration.

The primary's engines are opened with a WAL commit observer (see
:mod:`repro.lsm.wal`): every time a group commit makes records durable
locally, the exact on-disk frames land in an in-memory per-shard
:class:`_ShardLog`.  One :class:`_FollowerLink` thread per follower
drains those logs over the ordinary wire protocol (``REPL_APPLY``
frames on one connection, so the stream can never race itself) and
records the follower's *durable* applied watermark from each
acknowledgement.

The contract that makes failover lossless:

* the observer only ever sees frames that are already durable on the
  primary, so a follower can never get ahead of the primary's own
  recovery;
* the primary's client ack for a write at sequence ``q`` waits (via
  :meth:`PrimaryReplication.wait_durable`) until every **voting**
  follower has durably applied ``q`` — so an OK the client observed is
  recoverable from any voting node, and a promoted follower's state is
  always an exact prefix of the primary's log at a sequence >= the
  maximum observed ack;
* a follower resumes from its ``dispatched`` watermark (never lower),
  so reconnect resends are deduplicated by sequence instead of
  double-applied.

Link lifecycle (PR 10).  A link is a small state machine —
``connecting → handshake → [resync →] streaming``, with ``retrying``
on any connection loss — and only a ``streaming`` link *votes* in the
ack gate.  A dropped link fails the writes that were already waiting
on it (typed, loud — nothing is silently under-replicated) but does
NOT block subsequent writes: the link keeps reconnecting with backoff
as a non-voting learner, and rejoins the gate the moment it streams
again.  The window where fewer replicas vote is visible in ``STATS``.

A follower below the log floor (it attached late, restarted from an
empty disk, or the capped log trimmed past it while it was down) is
bootstrapped by **snapshot resync**: the primary pins an engine
:class:`~repro.lsm.engine.Snapshot`, ships the manifest layout plus
every referenced SSTable's bytes over ``SNAP_*`` frames (the merged
memtable rides along as one synthetic L0 table), the follower installs
it atomically and re-enters WAL streaming at the snapshot's sequence.
The same machinery rewinds a *diverged* follower (one whose watermark
is ahead of this primary's log after an election).  Passing
``allow_resync=False`` restores the old refuse-loudly behaviour, now
as the typed :class:`FollowerBehindError` instead of a silent link
death.

Replication messages carry the group's election *term*; a ``FENCED``
answer (the follower knows a newer primary) kills the link permanently
and fails writes with :class:`ReplicationFencedError` — the deposed
primary's cue to step down.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Callable

from ..server.client import FencedError, KVClient
from . import membership

#: Cap on one REPL_APPLY payload; well under protocol.MAX_FRAME_BYTES
#: so a burst of commits becomes several frames, not one giant one.
MAX_BATCH_BYTES = 1 << 20

#: Default cap on a shard log's buffered frame bytes.  Beyond it the
#: oldest frames are trimmed even without follower acks (bounded by
#: what connected links still need) — a long-dead follower costs a
#: snapshot resync on return instead of unbounded primary memory.
DEFAULT_LOG_CAP_BYTES = 4 << 20

#: Sender idle poll (also the stop/drain responsiveness bound).
_IDLE_WAIT = 0.05

#: Reconnect backoff bounds for a retrying link.
_RECONNECT_MIN = 0.05
_RECONNECT_MAX = 1.0

#: Link states that pin the log trim floor: these links have announced
#: (or are about to announce) a cursor they still need frames above.
_TRIM_STATES = ("handshake", "resync", "streaming")


class ReplicationError(RuntimeError):
    """A follower link is down or cannot catch up; writes that were
    waiting on it are NOT acknowledged."""


class FollowerBehindError(ReplicationError):
    """A follower's watermark is below the primary's log floor (or
    diverged past its end) and snapshot resync is disabled."""


class ReplicationFencedError(ReplicationError):
    """A follower refused this primary's term: a newer primary was
    elected.  This node must stop acting as primary."""


class _ShardLog:
    """Append-only buffer of committed WAL frames for one shard.

    ``floor`` is the sequence just below the oldest buffered frame:
    followers must already hold everything <= floor.  Frames below the
    confirmed-durable-everywhere point can be trimmed away.
    """

    __slots__ = ("floor", "entries", "buffered_bytes")

    def __init__(self) -> None:
        self.floor: int | None = None  # unknown until bind()
        self.entries: list[tuple[int, bytes]] = []
        self.buffered_bytes = 0

    @property
    def end_seq(self) -> int:
        if self.entries:
            return self.entries[-1][0]
        return self.floor or 0

    def append(self, frames: list[tuple[int, bytes]]) -> None:
        last = self.entries[-1][0] if self.entries else None
        for seq, frame in frames:
            if last is not None and seq <= last:
                continue  # recovery re-log resyncing an already-seen tail
            self.entries.append((seq, frame))
            self.buffered_bytes += len(frame)
            last = seq

    def batch_after(self, cursor: int) -> tuple[bytes, int] | None:
        """Concatenated frames covering (cursor, ...] up to the byte
        cap, plus the last covered sequence; None when caught up."""
        out = bytearray()
        last = cursor
        for seq, frame in self.entries:
            if seq <= cursor:
                continue
            if out and len(out) + len(frame) > MAX_BATCH_BYTES:
                break
            out += frame
            last = seq
        if not out:
            return None
        return bytes(out), last

    def trim_below(self, seq: int) -> None:
        """Drop frames every attached follower has durably applied."""
        keep = 0
        while keep < len(self.entries) and self.entries[keep][0] <= seq:
            self.buffered_bytes -= len(self.entries[keep][1])
            keep += 1
        if keep:
            del self.entries[:keep]
            self.floor = max(self.floor or 0, seq)

    def trim_to_cap(self, cap_bytes: int, limit: int | None) -> None:
        """Enforce the byte cap by dropping the oldest frames, but
        never past ``limit`` (the lowest sequence a connected link or a
        resync/migration pin still needs).  ``limit=None`` means
        nothing pins the log."""
        keep = 0
        dropped = 0
        while (
            keep < len(self.entries)
            and self.buffered_bytes - dropped > cap_bytes
            and (limit is None or self.entries[keep][0] <= limit)
        ):
            dropped += len(self.entries[keep][1])
            keep += 1
        if keep:
            floor = self.entries[keep - 1][0]
            self.buffered_bytes -= dropped
            del self.entries[:keep]
            self.floor = max(self.floor or 0, floor)


class _FollowerLink(threading.Thread):
    """One follower: a connection, per-shard cursors, durable marks,
    and a reconnect loop.  Votes in the ack gate only while streaming."""

    def __init__(self, coord: "PrimaryReplication", host: str, port: int) -> None:
        super().__init__(name=f"repl-{host}:{port}", daemon=True)
        self.coord = coord
        self.host = host
        self.port = port
        #: Highest sequence shipped per shard (the follower's
        #: ``dispatched``, refreshed from its WATERMARK on connect).
        self.cursor: dict[int, int] = {}
        #: Highest durably applied sequence per shard, from acks.
        self.acked: dict[int, int] = {}
        self.state = "connecting"
        self.last_error: str | None = None
        #: Completed snapshot resyncs over this link's lifetime.
        self.resyncs = 0
        self.reconnects = 0
        self._stop_evt = threading.Event()
        self._client: KVClient | None = None

    @property
    def voting(self) -> bool:
        return self.state == "streaming"

    def acked_for(self, shard_id: int) -> int:
        return self.acked.get(shard_id, -1)

    def stop(self) -> None:
        self._stop_evt.set()

    def _halted(self) -> bool:
        return self._stop_evt.is_set() or self.coord._stopped

    def _set_state(self, state: str) -> None:
        with self.coord._cond:
            self.state = state
            self.coord._cond.notify_all()

    def run(self) -> None:
        coord = self.coord
        backoff = _RECONNECT_MIN
        try:
            while not self._halted():
                try:
                    self._client = KVClient(self.host, self.port)
                    self._handshake()
                    backoff = _RECONNECT_MIN
                    self._stream()
                    self._set_state("stopped")
                    break  # clean drain/stop exit
                except FencedError as exc:
                    self.last_error = repr(exc)
                    self._set_state("fenced")
                    coord._fail_waiters(
                        ReplicationFencedError(
                            f"follower {self.host}:{self.port} fenced this "
                            f"primary: {exc}"
                        )
                    )
                    break
                except FollowerBehindError as exc:
                    self.last_error = str(exc)
                    self._set_state("needs_resync")
                    coord._fail_waiters(exc)
                    break
                except BaseException as exc:
                    self.last_error = repr(exc)
                    self._close_client()
                    if self._halted() or coord._draining:
                        self._set_state("stopped")
                        break
                    # Transient: writes already waiting on this link
                    # fail loudly; new writes proceed without its vote
                    # while it reconnects as a learner.
                    self._set_state("retrying")
                    coord._fail_waiters(
                        ReplicationError(
                            f"follower link {self.host}:{self.port} lost: {exc!r}"
                        )
                    )
                    coord._advance()
                    self._stop_evt.wait(backoff)
                    backoff = min(backoff * 2, _RECONNECT_MAX)
                    self.reconnects += 1
        finally:
            self._close_client()
            with coord._cond:
                coord._cond.notify_all()

    def _close_client(self) -> None:
        if self._client is not None:
            try:
                self._client.close()
            except Exception:
                pass
            self._client = None

    def _handshake(self) -> None:
        """Fetch the follower's watermarks; stream, or resync first."""
        coord = self.coord
        client = self._client
        assert client is not None
        self._set_state("handshake")
        reply = client.watermark()
        behind: list[tuple[int, str]] = []
        with coord._cond:
            for shard_id in sorted(coord._logs):
                if shard_id in coord._ingest:
                    continue
                log = coord._logs[shard_id]
                floor = log.floor or 0
                mark = reply.marks.get(shard_id)
                if mark is None:
                    behind.append((shard_id, "does not host the shard"))
                    continue
                dispatched, applied = mark
                if dispatched < floor:
                    behind.append(
                        (shard_id, f"at seq {dispatched} < log floor {floor}")
                    )
                elif dispatched > log.end_seq:
                    # Diverged: it holds sequences this primary's log
                    # never saw (e.g. acked by a deposed primary).  A
                    # snapshot rewinds it to this primary's history.
                    behind.append(
                        (shard_id,
                         f"at seq {dispatched} > log end {log.end_seq} (diverged)")
                    )
                else:
                    self.cursor[shard_id] = dispatched
                    self.acked[shard_id] = applied
        if behind:
            if not coord._allow_resync:
                shard_id, why = behind[0]
                raise FollowerBehindError(
                    f"follower {self.host}:{self.port} shard {shard_id} {why}: "
                    "requires snapshot resync (disabled on this primary)"
                )
            self._set_state("resync")
            for shard_id, _ in behind:
                snap_seq = self._resync_shard(shard_id)
                with coord._cond:
                    self.cursor[shard_id] = snap_seq
                    self.acked[shard_id] = snap_seq
                self.resyncs += 1
        self._set_state("streaming")
        coord._advance()

    def _resync_shard(self, shard_id: int) -> int:
        """Ship a pinned engine snapshot for one shard; returns the
        sequence the follower installed (its new watermark)."""
        coord = self.coord
        server = coord._server
        worker = server.shards.get(shard_id) if server is not None else None
        if worker is None:
            raise ReplicationError(
                f"cannot resync shard {shard_id}: not hosted by this primary"
            )
        snap_seq, doc, files = membership.build_snapshot(
            worker.engine, purpose="resync"
        )
        membership.ship_snapshot(
            self._client, server.term, shard_id, snap_seq, doc, files
        )
        return snap_seq

    def _stream(self) -> None:
        coord = self.coord
        client = self._client
        assert client is not None
        while True:
            work: list[tuple[int, bytes, int]] = []
            with coord._cond:
                while True:
                    for shard_id in sorted(coord._logs):
                        if shard_id in coord._ingest:
                            continue
                        log = coord._logs[shard_id]
                        cursor = self.cursor.get(shard_id, log.floor or 0)
                        batch = log.batch_after(cursor)
                        if batch is not None:
                            work.append((shard_id, batch[0], batch[1]))
                    if work or coord._stopped or self._stop_evt.is_set():
                        break
                    if coord._draining:
                        return  # caught up and the primary is shutting down
                    coord._cond.wait(_IDLE_WAIT)
                if (coord._stopped or self._stop_evt.is_set()) and not work:
                    return
            term = coord._server.term if coord._server is not None else 0
            for shard_id, frames, last in work:
                applied = client.repl_apply(term, shard_id, frames)
                self.cursor[shard_id] = last
                self.acked[shard_id] = max(self.acked.get(shard_id, -1), applied)
            coord._advance()


class PrimaryReplication:
    """Coordinator a primary :class:`~repro.cluster.node.ClusterServer`
    attaches at construction: installs the WAL observers, owns the
    per-shard logs and follower links, and gates write acks."""

    def __init__(
        self,
        allow_resync: bool = True,
        log_cap_bytes: int = DEFAULT_LOG_CAP_BYTES,
    ) -> None:
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._logs: dict[int, _ShardLog] = {}
        self._links: list[_FollowerLink] = []
        self._pending_followers: list[tuple[str, int]] = []
        self._server: Any = None
        self._loop: Any = None
        #: Per-shard waiters: (seq, asyncio future), kept sorted enough
        #: by append order (seqs are assigned monotonically per shard).
        self._waiters: dict[int, list[tuple[int, Any]]] = {}
        self._allow_resync = allow_resync
        self._log_cap_bytes = log_cap_bytes
        #: Shards this node is *ingesting* via migration: their logs
        #: are neither streamed to followers nor trimmed until commit.
        self._ingest: set[int] = set()
        #: Explicit trim pins: shard -> {token: sequence}.  Resync and
        #: migration register one so the delta they still have to ship
        #: cannot be trimmed away under them.
        self._pins: dict[int, dict[Any, int]] = {}
        #: Live outbound migrations: shard -> phase string (STATS).
        self._migrations: dict[int, str] = {}
        self._draining = False
        self._stopped = False

    # -- wiring (called by ClusterServer) -----------------------------------

    def _log(self, shard_id: int) -> _ShardLog:
        log = self._logs.get(shard_id)
        if log is None:
            log = self._logs[shard_id] = _ShardLog()
        return log

    def observer_for(self, shard_id: int) -> Callable[[list[tuple[int, bytes]]], None]:
        """The WAL commit observer for one shard's engine.  Fires on
        that shard's writer thread with frames that just became durable
        locally; appending is the only work done there."""

        def observe(frames: list[tuple[int, bytes]]) -> None:
            with self._cond:
                log = self._log(shard_id)
                log.append(frames)
                # Enforce the byte cap here, not only on acks: with no
                # follower attached (or all of them down) nothing else
                # runs, and an unbounded log would defeat the cap.
                if log.buffered_bytes > self._log_cap_bytes:
                    log.trim_to_cap(
                        self._log_cap_bytes, self._trim_limit_locked(shard_id)
                    )
                self._cond.notify_all()

        return observe

    def bind(self, server: Any) -> None:
        """Anchor the logs to the opened engines and start the links.

        Called by :meth:`ClusterServer.start` after every engine has
        recovered: a shard whose log is still empty has all of its data
        in SSTables (nothing to stream), so its floor is the engine's
        last sequence; a shard that buffered frames during recovery
        (the re-logged WAL tail) starts its floor just below them.
        """
        with self._cond:
            self._server = server
            self._loop = server._loop
            for shard_id, worker in server.shards.items():
                log = self._log(shard_id)
                if log.floor is None:
                    if log.entries:
                        log.floor = log.entries[0][0] - 1
                    else:
                        log.floor = worker.engine.last_seq
            pending, self._pending_followers = self._pending_followers, []
        for host, port in pending:
            self.add_follower(host, port)

    def reset_shard(self, shard_id: int, seq: int) -> None:
        """Re-anchor one shard's log at ``seq`` (snapshot install on a
        follower, or migration commit on the receiving primary): the
        buffered history below it is obsolete."""
        with self._cond:
            log = self._log(shard_id)
            log.entries.clear()
            log.buffered_bytes = 0
            log.floor = seq
            self._cond.notify_all()

    def detach_shard(self, shard_id: int) -> None:
        """Forget a migrated-away shard entirely."""
        with self._cond:
            self._logs.pop(shard_id, None)
            self._ingest.discard(shard_id)
            self._pins.pop(shard_id, None)
            self._migrations.pop(shard_id, None)
            for link in self._links:
                link.cursor.pop(shard_id, None)
                link.acked.pop(shard_id, None)
            self._cond.notify_all()
        self._advance()

    def set_ingest(self, shard_id: int, ingesting: bool) -> None:
        with self._cond:
            if ingesting:
                self._ingest.add(shard_id)
            else:
                self._ingest.discard(shard_id)
            self._cond.notify_all()

    # -- topology ----------------------------------------------------------

    def add_follower(self, host: str, port: int) -> None:
        """Attach one follower; before :meth:`bind` it is queued.
        Idempotent: an address that already has a live link is kept."""
        with self._cond:
            if self._server is None:
                self._pending_followers.append((host, port))
                return
            for link in self._links:
                if (link.host, link.port) == (host, port):
                    return
            link = _FollowerLink(self, host, port)
            self._links.append(link)
        link.start()

    def remove_follower(self, host: str, port: int) -> None:
        """Detach a (possibly dead) follower — failover re-pointing.
        Writes blocked on it are re-evaluated against the rest."""
        removed = []
        with self._cond:
            for link in list(self._links):
                if (link.host, link.port) == (host, port):
                    self._links.remove(link)
                    removed.append(link)
            self._cond.notify_all()
        for link in removed:
            link.stop()
        self._advance()

    @property
    def followers(self) -> list[tuple[str, int]]:
        with self._lock:
            return [(link.host, link.port) for link in self._links]

    # -- the ack gate (event loop side) ------------------------------------

    def wait_durable(self, shard_id: int, seq: int) -> Any:
        """An awaitable that resolves once every *voting* follower has
        durably applied ``seq`` on ``shard_id`` (immediately when no
        voting follower is attached — standalone mode, or every link
        mid-resync/reconnect).  Raises :class:`ReplicationError`
        through the future when a link is terminally broken: the write
        is NOT acknowledged rather than silently under-replicated."""
        assert self._loop is not None, "bind() first"
        fut = self._loop.create_future()
        with self._cond:
            broken = [
                link for link in self._links
                if link.state in ("fenced", "needs_resync")
            ]
            if broken:
                link = broken[0]
                exc: ReplicationError
                if link.state == "fenced":
                    exc = ReplicationFencedError(
                        f"fenced by follower {link.host}:{link.port}: "
                        f"{link.last_error}"
                    )
                else:
                    exc = FollowerBehindError(
                        f"follower {link.host}:{link.port} needs resync: "
                        f"{link.last_error}"
                    )
                fut.set_exception(exc)
            elif self._durable_min_locked(shard_id) >= seq:
                fut.set_result(True)
            else:
                self._waiters.setdefault(shard_id, []).append((seq, fut))
        return fut

    def _durable_min_locked(self, shard_id: int) -> float:
        voting = [link for link in self._links if link.voting]
        if not voting:
            return float("inf")
        return min(link.acked_for(shard_id) for link in voting)

    def _trim_limit_locked(self, shard_id: int) -> int | None:
        """Lowest sequence any connected link or pin still needs; None
        when nothing pins the log (trim freely)."""
        vals = [
            link.cursor.get(shard_id, -1)
            for link in self._links
            if link.state in _TRIM_STATES
        ]
        vals.extend(self._pins.get(shard_id, {}).values())
        return min(vals) if vals else None

    # -- sender-thread callbacks -------------------------------------------

    def _advance(self) -> None:
        """Re-evaluate waiters after acks arrived / topology changed."""
        resolved: list[Any] = []
        with self._cond:
            if self._loop is None:
                return
            for shard_id, waiters in self._waiters.items():
                floor = self._durable_min_locked(shard_id)
                still = []
                for seq, fut in waiters:
                    if seq <= floor:
                        resolved.append(fut)
                    else:
                        still.append((seq, fut))
                self._waiters[shard_id] = still
            self._trim_locked()
        for fut in resolved:
            self._loop.call_soon_threadsafe(
                lambda f=fut: f.done() or f.set_result(True)
            )

    def _trim_locked(self) -> None:
        voting = [link for link in self._links if link.voting]
        for shard_id, log in self._logs.items():
            if shard_id in self._ingest:
                continue
            if voting:
                floor = min(link.acked_for(shard_id) for link in voting)
                limit = self._trim_limit_locked(shard_id)
                if limit is not None:
                    floor = min(floor, limit)
                if floor > (log.floor or 0):
                    log.trim_below(int(floor))
            if log.buffered_bytes > self._log_cap_bytes:
                log.trim_to_cap(
                    self._log_cap_bytes, self._trim_limit_locked(shard_id)
                )

    def _fail_waiters(self, exc: ReplicationError) -> None:
        """Fail every write currently waiting on replication: its
        durability across the configured set can no longer be promised.
        Future writes re-evaluate against whoever is voting then."""
        failed: list[Any] = []
        with self._cond:
            for waiters in self._waiters.values():
                failed.extend(fut for _, fut in waiters)
            self._waiters.clear()
            self._cond.notify_all()
        if self._loop is not None:
            for fut in failed:
                self._loop.call_soon_threadsafe(
                    lambda f=fut: f.done() or f.set_exception(exc)
                )

    # -- outbound migration (runs on an executor thread) --------------------

    def migrate_out(
        self, shard_id: int, dst_group: str, targets: list[tuple[str, int]]
    ) -> int:
        """Move one shard's data to every target node of the receiving
        group: pinned snapshot, catch-up delta under live traffic, then
        seal + final delta.  Returns the handoff sequence — every
        target holds the shard's exact history through it."""
        server = self._server
        if server is None:
            raise ReplicationError("replication not bound to a server")
        worker = server.shards.get(shard_id)
        if worker is None:
            raise ReplicationError(f"shard {shard_id} not hosted")
        token = object()
        with self._cond:
            log = self._log(shard_id)
            self._pins.setdefault(shard_id, {})[token] = log.floor or 0
            self._migrations[shard_id] = "snapshot"
        clients: list[KVClient] = []
        try:
            snap_seq, doc, files = membership.build_snapshot(
                worker.engine, purpose="migrate"
            )
            cursors: dict[int, int] = {}
            for host, port in targets:
                client = KVClient(host, port)
                clients.append(client)
                membership.ship_snapshot(
                    client, server.term, shard_id, snap_seq, doc, files
                )
                cursors[id(client)] = snap_seq

            def ship_until(target_seq: int) -> None:
                while True:
                    progressed = False
                    for client in clients:
                        while cursors[id(client)] < target_seq:
                            with self._cond:
                                batch = self._log(shard_id).batch_after(
                                    cursors[id(client)]
                                )
                            if batch is None:
                                break
                            frames, last = batch
                            client.repl_apply(server.term, shard_id, frames)
                            cursors[id(client)] = last
                            progressed = True
                    if min(cursors.values()) >= target_seq:
                        return
                    if not progressed:
                        time.sleep(0.005)

            # Catch-up delta while the shard still takes writes.
            with self._cond:
                self._migrations[shard_id] = "delta"
            ship_until(self._log(shard_id).end_seq)
            # Seal: new writes answer NOT_OWNER (with a forward hint to
            # the receiving group); the sync barrier flushes everything
            # already queued through the WAL — and thus into the log.
            with self._cond:
                self._migrations[shard_id] = "seal"
            handoff_seq = asyncio.run_coroutine_threadsafe(
                server.seal_shard(shard_id, dst_group), self._loop
            ).result(timeout=60.0)
            ship_until(handoff_seq)
            with self._cond:
                self._migrations[shard_id] = "handoff"
            return handoff_seq
        finally:
            for client in clients:
                try:
                    client.close()
                except Exception:
                    pass
            with self._cond:
                pins = self._pins.get(shard_id)
                if pins is not None:
                    pins.pop(token, None)
                    if not pins:
                        self._pins.pop(shard_id, None)

    def wait_attached(self, timeout: float = 5.0) -> None:
        """Block until no link is still connecting or handshaking: a
        link only votes once it streams, so a write acked before that
        was acked without it."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while time.monotonic() < deadline and any(
                link.state in ("connecting", "handshake") for link in self._links
            ):
                self._cond.wait(_IDLE_WAIT)

    def wait_links_durable(self, shard_id: int, seq: int, timeout: float = 30.0) -> None:
        """Block until every streaming link durably applied ``seq`` on
        ``shard_id`` (the pre-detach barrier: the group's own followers
        must hold the sealed shard's full tail before the primary
        forgets its log)."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                lagging = [
                    link for link in self._links
                    if link.state in _TRIM_STATES and link.acked_for(shard_id) < seq
                ]
                if not lagging:
                    return
                if time.monotonic() >= deadline:
                    raise ReplicationError(
                        f"timeout waiting for {len(lagging)} link(s) to reach "
                        f"seq {seq} on shard {shard_id} before detach"
                    )
                self._cond.wait(_IDLE_WAIT)

    # -- observability ------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """The STATS `replication` section: per-shard log geometry and
        per-link cursors/watermarks/states."""
        with self._cond:
            return {
                "allow_resync": self._allow_resync,
                "log_cap_bytes": self._log_cap_bytes,
                "shards": {
                    str(shard_id): {
                        "floor": log.floor,
                        "end_seq": log.end_seq,
                        "entries": len(log.entries),
                        "buffered_bytes": log.buffered_bytes,
                        "ingest": shard_id in self._ingest,
                        "migration": self._migrations.get(shard_id),
                    }
                    for shard_id, log in sorted(self._logs.items())
                },
                "links": [
                    {
                        "host": link.host,
                        "port": link.port,
                        "state": link.state,
                        "voting": link.voting,
                        "cursor": {str(s): c for s, c in sorted(link.cursor.items())},
                        "durable": {str(s): d for s, d in sorted(link.acked.items())},
                        "resyncs": link.resyncs,
                        "reconnects": link.reconnects,
                        "last_error": link.last_error,
                    }
                    for link in self._links
                ],
            }

    # -- shutdown ----------------------------------------------------------

    def drain_and_stop(self, timeout: float = 30.0) -> None:
        """Let live links finish shipping everything buffered, then
        stop them.  Called off the event loop during server shutdown
        (workers already stopped, so the logs are final)."""
        with self._cond:
            self._draining = True
            self._cond.notify_all()
            links = list(self._links)
        for link in links:
            if link.is_alive() and link.state == "streaming":
                link.join(timeout=timeout)
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        for link in links:
            link.stop()
        for link in links:
            if link.is_alive():
                link.join(timeout=5.0)
