"""Cluster membership mechanics: snapshot shipping and leases.

Three pieces live here, shared by resync (``cluster.replicator``),
migration, and election (``cluster.failover`` / the CLI):

**Snapshot build** (:func:`build_snapshot`).  A shipped snapshot is
*nothing but SSTables plus a manifest document*: the sender pins an
engine :class:`~repro.lsm.engine.Snapshot` (so compactions cannot
unlink the files underneath it), serialises the pinned memtable
content as one synthetic newest-first L0 table, and reads every
referenced table's bytes.  The document names each file with its size
and CRC so the receiver can verify before installing.

**Snapshot shipping and install** (:func:`ship_snapshot`,
:func:`install_snapshot`).  Files travel as chunked ``SNAP_CHUNK``
frames (each well under the protocol frame cap) between one
``SNAP_BEGIN`` announcing the document and one ``SNAP_COMMIT``.  The
receiver stages everything in memory and installs atomically: wipe the
shard directory (CURRENT first — a crash mid-wipe leaves a fresh,
recoverable-as-empty directory that simply resyncs again), write the
tables, then install a version-1 manifest whose ``last_seq`` is the
snapshot sequence.  The manifest names a WAL segment that does not
exist, which engine recovery treats as "start a fresh WAL after it".

**Lease-based election** (:class:`LeaseManager`).  One thread per
node.  A primary grants ``LEASE(term, ttl)`` to its peers every
interval; a follower whose lease has expired (plus a deterministic
per-node jitter, so candidates do not stampede) polls every peer's
``WATERMARK``, and promotes *itself* only when no live peer claims
primacy and it is the most-caught-up candidate — ordering by
``(term, total applied sequence, name)``.  Promotion reuses the
``PROMOTE`` fencing barrier with ``max(observed terms) + 1``, then
re-attaches the surviving peers as followers.  Safety never rests on
the lease timing: synchronous replication guarantees any voting
follower holds every acknowledged write, and term fencing on
``REPL_APPLY``/``LEASE`` makes a deposed primary's writes fail loudly
rather than fork history.
"""

from __future__ import annotations

import json
import threading
import time
import zlib
from typing import Any

from ..lsm import manifest as lsm_manifest
from ..lsm.disk_format import encode_value
from ..lsm.fs import FileSystem, WritableFile, join
from ..lsm.sstable import table_file_name, write_sstable
from ..lsm.wal import wal_file_name
from ..server.client import (
    FencedError,
    KVClient,
    ServerError,
)

#: One SNAP_CHUNK payload (file bytes per frame).
SNAP_CHUNK_BYTES = 256 * 1024

#: Receiver-side cap on the total announced snapshot size.
MAX_SNAPSHOT_BYTES = 1 << 30


class _BufFile(WritableFile):
    def __init__(self) -> None:
        self.data = bytearray()

    def append(self, data: bytes) -> None:
        self.data += data

    def sync(self) -> None:
        pass

    def close(self) -> None:
        pass


class _BufFS(FileSystem):
    """Just enough filesystem to run ``write_sstable`` into memory."""

    def __init__(self) -> None:
        self.files: dict[str, _BufFile] = {}

    def create(self, path: str) -> WritableFile:
        f = _BufFile()
        self.files[path] = f
        return f

    def read(self, path: str, offset: int = 0, length: int | None = None) -> bytes:
        data = bytes(self.files[path].data)
        if length is None:
            return data[offset:]
        return data[offset : offset + length]


def build_snapshot(
    engine: Any, purpose: str
) -> tuple[int, bytes, dict[str, bytes]]:
    """Pin ``engine`` and materialise a shippable snapshot.

    Returns ``(snap_seq, doc_bytes, files)`` where ``files`` maps table
    file names to their full bytes and ``doc_bytes`` is the UTF-8 JSON
    manifest document carried by ``SNAP_BEGIN``.
    """
    snap = engine.snapshot()
    try:
        layout = snap.table_layout()
        fs = engine.fs
        if fs is None:
            raise ValueError("cannot snapshot a pure in-memory engine")
        files: dict[str, bytes] = {}
        levels: list[list[int]] = []
        all_ids: list[int] = []
        for level in layout:
            ids = []
            for table_id, path in level:
                files[table_file_name(table_id)] = fs.read(path)
                ids.append(table_id)
                all_ids.append(table_id)
            levels.append(ids)
        if not levels:
            levels = [[]]
        mem = snap.mem_items()
        if mem:
            # The pinned memtable ships as one synthetic newest-first
            # L0 table, written exactly like the engine's own flushes.
            table_id = max(all_ids, default=-1) + 1
            buf = _BufFS()
            write_sstable(
                buf,
                "mem",
                [key for key, _ in mem],
                [encode_value(value) for _, value in mem],
                table_id,
                block_entries=engine._block_entries,
                filter_factory=engine._filter_factory,
            )
            files[table_file_name(table_id)] = buf.read("mem")
            levels[0].insert(0, table_id)
            all_ids.append(table_id)
        doc = {
            "purpose": purpose,
            "snap_seq": snap.seq,
            "next_table_id": max(all_ids, default=-1) + 1,
            "levels": levels,
            "files": [
                {"name": name, "size": len(data), "crc": zlib.crc32(data)}
                for name, data in sorted(files.items())
            ],
        }
        return snap.seq, json.dumps(doc, sort_keys=True).encode("utf-8"), files
    finally:
        snap.release()


def validate_snapshot_doc(doc: dict[str, Any]) -> None:
    """Receiver-side sanity on an announced snapshot document; raises
    :class:`ValueError` (mapped to BAD_REQUEST) on anything off."""
    if doc.get("purpose") not in ("resync", "migrate"):
        raise ValueError("bad snapshot purpose")
    if not isinstance(doc.get("snap_seq"), int) or doc["snap_seq"] < 0:
        raise ValueError("bad snapshot sequence")
    if not isinstance(doc.get("next_table_id"), int):
        raise ValueError("bad next_table_id")
    levels = doc.get("levels")
    if not isinstance(levels, list) or not all(
        isinstance(level, list) and all(isinstance(t, int) for t in level)
        for level in levels
    ):
        raise ValueError("bad level layout")
    entries = doc.get("files")
    if not isinstance(entries, list):
        raise ValueError("bad file list")
    total = 0
    names = set()
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError("bad file entry")
        name, size, crc = entry.get("name"), entry.get("size"), entry.get("crc")
        if not isinstance(name, str) or "/" in name or name in ("", ".", ".."):
            raise ValueError("bad file name")
        if not isinstance(size, int) or size < 0 or not isinstance(crc, int):
            raise ValueError("bad file entry")
        names.add(name)
        total += size
    if total > MAX_SNAPSHOT_BYTES:
        raise ValueError("snapshot exceeds size cap")
    declared = {table_file_name(t) for level in levels for t in level}
    if not declared <= names:
        raise ValueError("level layout references unannounced tables")


def ship_snapshot(
    client: KVClient,
    term: int,
    shard_id: int,
    snap_seq: int,
    doc_bytes: bytes,
    files: dict[str, bytes],
) -> int:
    """Send one built snapshot over an open client connection."""
    client.snap_begin(term, shard_id, doc_bytes)
    for name, data in sorted(files.items()):
        if not data:
            client.snap_chunk(term, shard_id, name, 0, b"")
            continue
        for offset in range(0, len(data), SNAP_CHUNK_BYTES):
            client.snap_chunk(
                term, shard_id, name, offset, data[offset : offset + SNAP_CHUNK_BYTES]
            )
    return client.snap_commit(term, shard_id, snap_seq)


def install_snapshot(
    fs: FileSystem, root: str, doc: dict[str, Any], files: dict[str, bytes]
) -> None:
    """Replace whatever is in ``root`` with the shipped snapshot.

    The wipe removes CURRENT first: a crash anywhere mid-install leaves
    a directory that recovers as empty (no manifest → fresh engine),
    which simply triggers another resync.  That is safe because a node
    being installed is a non-voting learner — no acknowledged write
    depends on its contents until it streams again.
    """
    fs.mkdir(root)
    try:
        existing = list(fs.listdir(root))
    except (FileNotFoundError, OSError):
        existing = []
    if lsm_manifest.CURRENT in existing:
        fs.remove(join(root, lsm_manifest.CURRENT))
        existing.remove(lsm_manifest.CURRENT)
    for name in existing:
        try:
            fs.remove(join(root, name))
        except (FileNotFoundError, OSError):
            pass
    for name, data in sorted(files.items()):
        f = fs.create(join(root, name))
        f.append(data)
        f.sync()
        f.close()
    # The named WAL segment intentionally does not exist: recovery sees
    # no segment at or above wal_index and starts a fresh one after it.
    state = lsm_manifest.ManifestState(
        version=1,
        next_table_id=doc["next_table_id"],
        last_seq=doc["snap_seq"],
        wal_name=wal_file_name(1),
        wal_index=1,
        levels=[list(level) for level in doc["levels"]],
    )
    lsm_manifest.install(fs, root, state)


# ---------------------------------------------------------------------------
# Lease-based election
# ---------------------------------------------------------------------------


class LeaseManager(threading.Thread):
    """Per-node failure detection and automatic promotion.

    ``peers`` lists the *other* nodes of the replication group as
    ``(name, host, port)``; ``name`` orders candidates deterministically
    (use ``host:port`` when nothing better exists).  The manager talks
    to its own node through the loopback client like any other peer —
    promotion runs through the public ``PROMOTE`` barrier, never by
    poking server internals.
    """

    def __init__(
        self,
        name: str,
        server: Any,
        replication: Any,
        peers: list[tuple[str, str, int]],
        lease_interval: float = 0.2,
        lease_ttl: float = 1.0,
    ) -> None:
        super().__init__(name=f"lease-{name}", daemon=True)
        self.node_name = name
        self._server = server
        self._replication = replication
        self._peers = list(peers)
        self._interval = lease_interval
        self._ttl = lease_ttl
        # Deterministic per-node jitter decorrelates candidates without
        # randomness: expired followers wake at different times.
        self._jitter = (zlib.crc32(name.encode("utf-8")) % 100) / 100.0 * lease_ttl
        self._stop_evt = threading.Event()
        self._clients: dict[tuple[str, int], KVClient] = {}
        #: Election log for tests/observability: (event, term) tuples.
        self.events: list[tuple[str, int]] = []
        self._boot_grace = time.monotonic() + lease_ttl

    def stop(self) -> None:
        self._stop_evt.set()
        # Snapshot: the manager thread may still be mutating the dict
        # until it observes the stop event at its next tick.
        for client in list(self._clients.values()):
            try:
                client.close()
            except Exception:
                pass
        self._clients.clear()

    def _client(self, host: str, port: int) -> KVClient:
        key = (host, port)
        client = self._clients.get(key)
        if client is None:
            # Short timeout: a cached connection to a *dead* peer would
            # otherwise block a probe for the full default client
            # timeout, stalling the election far past the lease TTL.
            client = KVClient(host, port, timeout=max(1.0, self._ttl))
            self._clients[key] = client
        return client

    def _drop_client(self, host: str, port: int) -> None:
        client = self._clients.pop((host, port), None)
        if client is not None:
            try:
                client.close()
            except Exception:
                pass

    def run(self) -> None:
        while not self._stop_evt.wait(self._interval):
            try:
                if self._server.role == "primary":
                    self._grant_leases()
                else:
                    self._check_lease()
            except Exception:
                # The manager must survive anything a flaky peer can
                # throw at it; the next tick retries.
                pass

    # -- primary side -------------------------------------------------------

    def _grant_leases(self) -> None:
        ttl_ms = int(self._ttl * 1000)
        for _, host, port in self._peers:
            try:
                self._client(host, port).lease(self._server.term, ttl_ms)
            except FencedError:
                # A peer knows a newer primary: stand down immediately.
                self._server.demote()
                self.events.append(("demoted", self._server.term))
                return
            except (ConnectionError, OSError, EOFError, ServerError):
                self._drop_client(host, port)

    # -- follower side ------------------------------------------------------

    def _check_lease(self) -> None:
        now = time.monotonic()
        deadline = max(self._server.lease_deadline or 0.0, self._boot_grace)
        if now < deadline + self._jitter:
            return
        self._try_election()

    def _try_election(self) -> None:
        server = self._server
        my_term = server.term
        live: list[tuple[str, Any]] = []
        for name, host, port in self._peers:
            try:
                reply = self._client(host, port).watermark()
            except (ConnectionError, OSError, EOFError, ServerError):
                self._drop_client(host, port)
                continue
            live.append((name, reply))
        for _, reply in live:
            if reply.is_primary and reply.term >= my_term:
                # A primary is alive (we just could not hear its
                # leases); defer for another TTL.
                server.extend_lease(self._ttl)
                return
        my_total = server.applied_total()
        candidates = [(my_term, my_total, self.node_name)]
        max_term = my_term
        for name, reply in live:
            max_term = max(max_term, reply.term)
            if not reply.is_primary:
                candidates.append((reply.term, reply.applied_total(), name))
        if max(candidates) != (my_term, my_total, self.node_name):
            # A better-caught-up candidate exists; give it a TTL to act.
            server.extend_lease(self._ttl)
            return
        new_term = max_term + 1
        try:
            with KVClient(server.host, server.port) as me:
                me.promote(new_term)
        except (ConnectionError, OSError, EOFError, ServerError):
            return
        self.events.append(("promoted", new_term))
        if self._replication is not None:
            for _, host, port in self._peers:
                self._replication.add_follower(host, port)
