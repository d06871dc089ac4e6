"""Write-ahead log: sequenced, CRC-framed put/delete records.

Each record is one :mod:`.disk_format` frame whose payload is::

    <u8 type> <u64 seq> <u32 keylen> <key> [<u32 vallen> <value>]

Appends are buffered; :meth:`WalWriter.sync` is the durability barrier
(group commit).  The writer auto-syncs every ``sync_every`` records, so
an acknowledged write is one whose sequence number is <=
``synced_seq``.  Replay reads records in order and stops at the first
frame that fails its length or CRC check — a torn tail is by
construction unacknowledged, so stopping there recovers exactly a
prefix of the op sequence.

Commit observer (replication tap): a :class:`WalWriter` built with an
``observer`` calls it with ``[(seq, frame_bytes), ...]`` every time a
batch of records becomes *committed* — after the fsync in
:meth:`WalWriter.sync` returns, and only then: the engine syncs a
segment in full when it freezes the memtable the segment logged, so no
record ever becomes durable by another route.  Frames are the exact
on-disk encoding, so a replication stream can ship them verbatim and
the receiver decodes with :func:`iter_records` — the same code path
recovery uses.  The observer never fires for records that are not yet
durable.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Iterator

from . import disk_format
from .disk_format import FrameError
from .fs import FileSystem

_PUT = 1
_DELETE = 2

_U32 = struct.Struct("<I")
#: ``<u8 type> <u64 seq> <u32 keylen>``: everything before the key.
_RECORD_HEAD = struct.Struct("<BQI")


def wal_file_name(index: int) -> str:
    return f"wal-{index:08d}.log"


def encode_record(kind: int, seq: int, key: bytes, value: Any = None) -> bytes:
    if kind == _PUT:
        val = disk_format.encode_value(value)
        payload = b"".join(
            (_RECORD_HEAD.pack(kind, seq, len(key)), key, _U32.pack(len(val)), val)
        )
    else:
        payload = _RECORD_HEAD.pack(kind, seq, len(key)) + key
    return disk_format.frame(payload)


class WalWriter:
    """Appends records to one WAL segment with batched fsync."""

    def __init__(
        self,
        fs: FileSystem,
        path: str,
        sync_every: int = 32,
        observer: Callable[[list[tuple[int, bytes]]], None] | None = None,
    ) -> None:
        if sync_every < 1:
            raise ValueError("sync_every must be >= 1")
        self._file = fs.create(path)
        self.path = path
        self._sync_every = sync_every
        self._unsynced = 0
        self.last_seq = 0
        self.synced_seq = 0
        self._observer = observer
        #: The first exception the segment file raised (see :meth:`_io`).
        self.error: BaseException | None = None
        #: Frames appended since the last durability barrier, kept only
        #: when an observer wants them (replication).
        self._pending_frames: list[tuple[int, bytes]] = []
        # No sync here: ``create`` made the segment's name durable, and
        # an empty segment has nothing else to persist before the
        # manifest can point at it.

    def append_put(self, seq: int, key: bytes, value: Any) -> None:
        self._append(encode_record(_PUT, seq, key, value), seq)

    def append_delete(self, seq: int, key: bytes) -> None:
        self._append(encode_record(_DELETE, seq, key), seq)

    def append_batch(self, records: list[tuple[int, bytes, Any]]) -> None:
        """Append a whole write batch and fsync once (one group commit).

        ``records`` are ``(seq, key, value)`` with
        :data:`~repro.lsm.disk_format.TOMBSTONE` marking deletes.  The
        batch is encoded in full before any byte reaches the segment,
        so an unstorable value aborts with the log unchanged, and the
        single trailing :meth:`sync` acknowledges every record at once
        — the server's write workers rely on exactly this to turn a
        queue drain into one durability barrier.
        """
        if not records:
            return
        tombstone = disk_format.TOMBSTONE
        frames = [
            encode_record(_DELETE, seq, key)
            if value is tombstone
            else encode_record(_PUT, seq, key, value)
            for seq, key, value in records
        ]
        self._io(self._file.append, b"".join(frames))
        if self._observer is not None:
            self._pending_frames.extend(zip([r[0] for r in records], frames))
        self.last_seq = records[-1][0]
        self._unsynced += len(records)
        self.sync()

    def _append(self, record: bytes, seq: int) -> None:
        self._io(self._file.append, record)
        if self._observer is not None:
            self._pending_frames.append((seq, record))
        self.last_seq = seq
        self._unsynced += 1
        if self._unsynced >= self._sync_every:
            self.sync()

    def sync(self) -> None:
        """Group-commit barrier: every appended record becomes durable."""
        if self.error is not None:
            raise self.error
        if self._unsynced:
            self._io(self._file.sync)
            self._unsynced = 0
        self.synced_seq = self.last_seq
        self._notify_committed()

    def _io(self, call: Callable[..., None], *args: Any) -> None:
        """Run one call on the segment file; its first failure poisons
        the writer (fail-stop).  Past a torn frame or a failed fsync an
        ack would cover records recovery cannot reach, so every later
        append and sync re-raises that error.  A value the codec rejects
        fails before any byte reaches the file and poisons nothing."""
        if self.error is not None:
            raise self.error
        try:
            call(*args)
        except BaseException as exc:
            self.error = exc
            raise

    def _notify_committed(self) -> None:
        """Hand the committed frames to the observer (after the fsync —
        a PowerFailure raised inside ``sync`` must leave them pending,
        never shipped, because nothing made them durable)."""
        if self._observer is not None and self._pending_frames:
            frames, self._pending_frames = self._pending_frames, []
            self._observer(frames)

    def close(self) -> None:
        if self.error is None:
            self.sync()
        self._file.close()


def iter_records(
    data: bytes, *, source: str = "<wal>", strict: bool = False
) -> Iterator[tuple[int, bytes, Any]]:
    """Decode a byte string of WAL frames into (seq, key, value) records.

    ``value`` is :data:`~repro.lsm.sstable.TOMBSTONE` for deletes.  With
    ``strict=False`` (recovery) decoding stops silently at the first
    torn or corrupt frame: those records were never acknowledged.  With
    ``strict=True`` (a replication payload, which travels over a
    CRC-checked, length-prefixed wire) a bad frame is a protocol bug and
    raises.  Non-monotonic sequence numbers always raise: the log itself
    is inconsistent.
    """
    offset = 0
    last_seq = 0
    while offset < len(data):
        try:
            payload, offset = disk_format.read_frame(data, offset)
        except FrameError:
            if strict:
                raise
            break  # torn tail: everything after is unacknowledged
        kind = payload[0]
        seq, pos = disk_format.unpack_u64(payload, 1)
        if seq <= last_seq:
            raise FrameError(f"{source}: non-monotonic WAL sequence {seq}")
        last_seq = seq
        (klen,) = _U32.unpack_from(payload, pos)
        pos += 4
        key = payload[pos : pos + klen]
        pos += klen
        if kind == _PUT:
            (vlen,) = _U32.unpack_from(payload, pos)
            pos += 4
            value = disk_format.decode_value(payload[pos : pos + vlen])
            pos += vlen
        elif kind == _DELETE:
            value = disk_format.TOMBSTONE
        else:
            raise FrameError(f"{source}: unknown WAL record type {kind}")
        if pos != len(payload):
            raise FrameError(f"{source}: trailing bytes in WAL record")
        yield seq, key, value


def replay(fs: FileSystem, path: str) -> list[tuple[int, bytes, Any]]:
    """Decode a WAL segment into (seq, key, value) records (see
    :func:`iter_records`; replay is its tolerant, recovery-side mode)."""
    return list(iter_records(fs.read(path), source=path))
