"""One cluster node: :class:`ClusterServer`, the sharded
:class:`~repro.server.server.KVServer` with the replication, snapshot,
migration and lease opcodes added to its handler table.

Cluster roles: a server is a ``primary`` (accepts writes, optionally
streams committed WAL frames to followers via an attached
:class:`~repro.cluster.replicator.PrimaryReplication`) or a
``follower`` (rejects client writes with ``NOT_PRIMARY``, ingests
``REPL_APPLY`` frames, answers ``GET_AT`` reads gated on its per-shard
replication watermark, and flips to primary on ``PROMOTE``).  With
replication attached, a write is only acknowledged once every voting
follower has durably applied it — the gate that makes "no acked write
lost" hold across node failover, not just node restart.

Membership: shard ids live in a *global* space — a node hosts any
subset (``shard_ids``), and ``self.shards`` maps shard id → worker.
Each hosted shard carries a serving state:

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
import json
import time
import zlib
from typing import Any, Callable

from ..lsm.fs import OsFileSystem, join
from ..lsm.wal import iter_records as wal_iter_records
from ..server import protocol
from ..server.server import KVServer, _Reply
from . import membership


class ClusterServer(KVServer):
    """A :class:`KVServer` that is one node of a replication group."""

    def __init__(
        self,
        *args: Any,
        role: str = "primary",
        replication: Any = None,
        repl_ack_timeout: float = 30.0,
        **kwargs: Any,
    ) -> None:
        if role not in ("primary", "follower"):
            raise ValueError("role must be 'primary' or 'follower'")
        super().__init__(*args, **kwargs)
        #: Cluster role; flipped follower -> primary by PROMOTE.
        self.role = role
        #: Election term (in-memory; see the module docstring).
        self.term = 0
        #: monotonic deadline of the last granted lease (follower side).
        self.lease_deadline: float | None = None
        self._replication = replication
        self._repl_ack_timeout = repl_ack_timeout
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
        self._handlers.update({
            protocol.REPL_APPLY: self._on_repl_apply,
            protocol.WATERMARK: self._on_watermark,
            protocol.PROMOTE: self._on_promote,
            protocol.LEASE: self._on_lease,
            protocol.SNAP_BEGIN: self._on_snap_begin,
            protocol.SNAP_CHUNK: self._on_snap_chunk,
            protocol.SNAP_COMMIT: self._on_snap_commit,
            protocol.MIGRATE: self._on_migrate,
            protocol.MIGRATE_COMMIT: self._on_migrate_commit,
            protocol.SHARD_DETACH: self._on_shard_detach,
        })

    # -- used by the lease manager / replication ------------------------------

    def demote(self) -> None:
        """Stand down as primary (a peer fenced our term)."""
        self.role = "follower"

    def extend_lease(self, ttl: float) -> None:
        self.lease_deadline = time.monotonic() + ttl

    def applied_total(self) -> int:
        """Sum of durably applied sequences across hosted shards — the
        election's catch-up metric."""
        return sum(self._repl_applied.get(s, 0) for s in self.shards)

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
        return worker.engine.last_seq

    # -- where a node differs from a single server ----------------------------

    def _wal_observer(self, shard_id: int) -> Callable | None:
        if self._replication is None:
            return None
        return self._replication.observer_for(shard_id)

    def _open_shards(self) -> None:
        super()._open_shards()
        if self.role == "follower":
            # A restarted follower resumes where its recovered engines
            # stand: every sequence <= last_seq was durably applied
            # before the restart.
            for shard_id, worker in self.shards.items():
                seq = worker.engine.last_seq
                self._repl_dispatched[shard_id] = seq
                self._repl_applied[shard_id] = seq
        if self._replication is not None:
            self._replication.bind(self)

    async def _stop_workers(self) -> None:
        await super()._stop_workers()
        if self._replication is not None:
            # Workers are stopped, so the logs are final; ship whatever
            # is still queued before cutting the follower links.
            await asyncio.get_running_loop().run_in_executor(
                None, self._replication.drain_and_stop
            )

    def _submit_writes(self, run) -> None:
        if self.role == "primary":
            super()._submit_writes(run)
            return
        refusal = protocol.NOT_PRIMARY, b"writes go to the primary"
        run.results.update(dict.fromkeys(run.shards, refusal))

    async def _fmt_ack(self, shard_id: int, fut: asyncio.Future) -> tuple[int, bytes]:
        seq = await fut
        if self._replication is not None:
            # Synchronous replication gate: the local group commit made
            # the write durable *here*; the ack waits until every
            # voting follower confirms it durable *there*, so a
            # client-visible OK survives the loss of this whole node.
            await asyncio.wait_for(
                self._replication.wait_durable(shard_id, seq),
                self._repl_ack_timeout,
            )
        return await super()._fmt_ack(shard_id, fut)  # fut is done

    @property
    def _reads_gated(self) -> bool:
        return self.role != "primary"

    def _refuse_reads(self, run, refused) -> None:
        """Refusals as on any server; then a follower's ``GET_AT``
        behind the client's causal token, or mid-resync/migration,
        answers LAGGING: the client falls back to the primary instead
        of reading a stale snapshot or failing the read."""
        super()._refuse_reads(run, refused)
        if self.role == "primary":
            return
        at, shards = 0, run.shards
        for j, (_, opcode, n, min_seq) in enumerate(run.entries):
            if opcode == protocol.GET_AT and n:
                reply = run.replies.get(j)
                applied = self._repl_applied.get(shards[at], 0)
                if reply is None and applied < min_seq:
                    run.replies[j] = (
                        protocol.LAGGING,
                        b"follower applied %d < %d" % (applied, min_seq),
                    )
                elif reply is not None and reply[0] == protocol.NOT_OWNER:
                    run.replies[j] = protocol.LAGGING, b"shard not readable here"
            at += n

    def _extend_stats(self, snapshot: dict[str, Any]) -> None:
        super()._extend_stats(snapshot)
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

    # -- replication and election ---------------------------------------------

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
                seq = worker.engine.last_seq
                dispatched = max(dispatched, seq)
                applied = max(applied, seq)
            marks[shard_id] = (dispatched, applied)
        return marks

    def _on_watermark(self, body: bytes):
        return protocol.OK, protocol.encode_watermarks(
            self.role == "primary", self.term, self._watermarks()
        )

    def _on_repl_apply(self, body: bytes):
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
        # A corrupt frame raises FrameError: BAD_REQUEST, like any bad body.
        records = list(
            wal_iter_records(frames, source=f"repl shard {shard_id}", strict=True)
        )
        dispatched = self._repl_dispatched.get(shard_id, 0)
        fresh = [(seq, key, value) for seq, key, value in records if seq > dispatched]
        if not fresh:
            # Pure resend (the primary reconnected and replayed from an
            # older watermark): confirm the durable position.
            return protocol.OK, protocol.encode_u64_body(
                self._repl_applied.get(shard_id, 0)
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
        return self._fmt_repl_ack(shard_id, expect, fut)

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

    def _on_promote(self, body: bytes):
        new_term = protocol.decode_promote(body)
        if self.role == "primary":
            if new_term is not None and new_term > self.term:
                self.term = new_term
            return protocol.OK, protocol.encode_u64_body(self.term)
        # Sync barrier: the per-shard queues are FIFO, so once these
        # complete every REPL_APPLY accepted before the promotion is
        # durably applied — the new primary starts from its full
        # watermark, and late frames from the old primary get
        # BAD_REQUEST instead of silently diverging.
        return self._fmt_promote(self._sync_all(), new_term)

    async def _fmt_promote(
        self, futs: list[asyncio.Future], new_term: int | None
    ) -> tuple[int, bytes]:
        await asyncio.gather(*futs)
        self.role = "primary"
        self.term = max(self.term + 1, new_term or 0)
        self.lease_deadline = None
        return protocol.OK, protocol.encode_u64_body(self.term)

    def _on_lease(self, body: bytes):
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
        return protocol.OK, b""

    # -- snapshot install -----------------------------------------------------

    def _on_snap_begin(self, body: bytes):
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
        return protocol.OK, b""

    def _on_snap_chunk(self, body: bytes):
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
        return protocol.OK, b""

    def _on_snap_commit(self, body: bytes):
        term, shard_id, snap_seq = protocol.decode_snap_commit(body)
        staging = self._snap_staging.get(shard_id)
        if staging is None or staging["term"] != term:
            raise _Reply(protocol.BAD_REQUEST, b"no snapshot staged")
        if snap_seq != staging["doc"]["snap_seq"]:
            raise _Reply(protocol.BAD_REQUEST, b"snap_seq mismatch")
        del self._snap_staging[shard_id]  # committed, or void if a file is bad
        for name, buf in staging["files"].items():
            if len(buf) != staging["sizes"][name]:
                raise _Reply(
                    protocol.BAD_REQUEST, b"file %s incomplete" % name.encode()
                )
            if zlib.crc32(bytes(buf)) != staging["crcs"][name]:
                raise _Reply(
                    protocol.BAD_REQUEST, b"file %s CRC mismatch" % name.encode()
                )
        return self._fmt_snap_commit(shard_id, staging)

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
        membership.install_snapshot(
            self._fs_for(shard_id) or OsFileSystem(),
            self._shard_root(shard_id),
            staging["doc"],
            {name: bytes(buf) for name, buf in staging["files"].items()},
        )
        worker = self._open_shard(shard_id)
        if worker.engine.last_seq != staging["doc"]["snap_seq"]:
            worker.stop()
            worker.join(timeout=60)
            raise RuntimeError(
                f"installed snapshot recovered at seq {worker.engine.last_seq}, "
                f"expected {staging['doc']['snap_seq']}"
            )
        return worker

    # -- migration --------------------------------------------------------------

    def _on_migrate(self, body: bytes):
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
        return self._fmt_migrate(shard_id, dst_group, targets)

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

    def _on_migrate_commit(self, body: bytes):
        shard_id, handoff_seq = protocol.decode_migrate_commit(body)
        state = self._shard_state.get(shard_id)
        applied = self._repl_applied.get(shard_id, 0)
        if state == "serving" and applied >= handoff_seq:
            return protocol.OK, b""  # idempotent retry: already committed
        if state != "ingest" or shard_id not in self.shards:
            raise _Reply(protocol.BAD_REQUEST, b"shard not ingesting")
        if applied < handoff_seq:
            raise _Reply(
                protocol.BAD_REQUEST,
                b"applied %d behind handoff %d" % (applied, handoff_seq),
            )
        self._shard_state[shard_id] = "serving"
        self._shard_forward.pop(shard_id, None)
        if self._replication is not None:
            self._replication.set_ingest(shard_id, False)
            self._replication.reset_shard(shard_id, handoff_seq)
        return protocol.OK, b""

    def _on_shard_detach(self, body: bytes):
        shard_id, forward_group = protocol.decode_shard_detach(body)
        if not 0 <= shard_id < self.n_shards:
            raise _Reply(protocol.BAD_REQUEST, b"bad shard id")
        worker = self.shards.get(shard_id)
        if worker is None:
            if forward_group:
                self._shard_forward[shard_id] = forward_group
            return protocol.OK, b""
        return self._fmt_shard_detach(shard_id, forward_group, worker)

    async def _fmt_shard_detach(
        self, shard_id: int, forward_group: str, worker: Any
    ) -> tuple[int, bytes]:
        repl = self._replication
        if repl is not None and self.role == "primary":
            # The group's own followers must hold the sealed shard's
            # full tail before this primary forgets its log: a link
            # mid-ship would otherwise see the log vanish and bounce.
            await self._loop.run_in_executor(
                None, repl.wait_links_durable, shard_id, worker.engine.last_seq
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
