"""Wire protocol of the sharded key-value server.

Every message — request or response — is one length-prefixed frame::

    <u32 payload_len> <payload>

    request payload:  <u32 request_id> <u8 opcode> <body>
    response payload: <u32 request_id> <u8 status> <body>

The request id is chosen by the client and echoed verbatim; the server
answers each connection's requests *in arrival order*, so a pipelined
client may keep any number of requests in flight and match responses
positionally (the echoed id is a cheap integrity check).

Bodies reuse the storage codecs from :mod:`repro.lsm.disk_format`
(length-prefixed byte strings and the typed value codec), so anything
the engine can store travels the wire unchanged:

========== ============================== ===============================
opcode     request body                   OK response body
========== ============================== ===============================
GET        key                            value (NOT_FOUND if absent)
PUT        key value                      —
DELETE     key                            —
SCAN       low u32(count)                 u32(n) n*(key value)
COUNT      low high                       u64(count)  (approximate)
BATCH_GET  u32(n) n*key                   u32(n) n*(u8 present [value])
SYNC       —                              —
STATS      —                              UTF-8 JSON blob
SHUTDOWN   —                              — (server drains and exits)
REPL_APPLY u64(term) u32(shard) frames    u64(durable_seq of that shard)
WATERMARK  —                              u8(primary) u64(term)
                                          u32(n) n*(u32 shard,
                                          u64 disp, u64 appl)
GET_AT     key u64(min_seq)               value (LAGGING if behind)
PROMOTE    — | u64(new_term)              u64(term)
SNAP_BEGIN u64(term) u32(shard) json_doc  —
SNAP_CHUNK u64(term) u32(shard) name      —
           u64(offset) data
SNAP_COMMIT u64(term) u32(shard)          u64(snap_seq)
           u64(snap_seq)
MIGRATE    u32(shard) dst_group u32(n)    u64(handoff_seq)
           n*(host u32(port))
MIGRATE_COMMIT u32(shard) u64(seq)        —
SHARD_DETACH u32(shard) fwd_group         —
LEASE      u64(term) u32(ttl_ms)          —
========== ============================== ===============================

Non-OK statuses carry a UTF-8 message body.  ``OVERLOADED`` is the
explicit backpressure answer (a bounded shard queue was full);
``SHUTTING_DOWN`` answers requests that arrive during the drain.

Cluster extensions (PR 9): ``PUT``/``DELETE`` OK responses carry the
committed ``u64`` sequence number as the body — the causal token a
client hands to ``GET_AT`` to get read-your-writes on a follower.
``REPL_APPLY`` ships verbatim :mod:`repro.lsm.wal` frames to a
follower shard; ``LAGGING`` means the follower has not yet applied the
requested sequence, and ``NOT_PRIMARY`` rejects writes sent to a
follower.  Older clients that never send the new opcodes are
unaffected except for the now non-empty write-ack body, which they
ignored anyway.

Membership extensions (PR 10): shards live in a *global* shard space
(``route_key(key, n_shards)`` names the same shard on every node) and
a node may host only a subset.  ``NOT_OWNER`` answers an operation on
a shard this node does not serve; its body names the owning group when
known, and :class:`~repro.cluster.client.ClusterClient` re-routes and
retries.  Replication messages carry the group's election *term*;
``FENCED`` rejects a message from a stale term, which is what makes a
deposed primary's stream die loudly instead of silently forking a
follower.  ``SNAP_BEGIN``/``SNAP_CHUNK``/``SNAP_COMMIT`` ship a pinned
engine snapshot (manifest layout + SSTable bytes, CRC-checked per
file) to bootstrap a lagging, empty, or migrating-in shard;
``MIGRATE`` drives the source side of a live shard migration,
``MIGRATE_COMMIT``/``SHARD_DETACH`` flip ownership, and ``LEASE`` is
the primary's heartbeat that lease-based election watches.
"""

from __future__ import annotations

import struct
from typing import Any, Sequence

from ..lsm import disk_format

# -- opcodes -----------------------------------------------------------------

GET = 1
PUT = 2
DELETE = 3
SCAN = 4
COUNT = 5
BATCH_GET = 6
SYNC = 7
STATS = 8
SHUTDOWN = 9
REPL_APPLY = 10
WATERMARK = 11
GET_AT = 12
PROMOTE = 13
SNAP_BEGIN = 14
SNAP_CHUNK = 15
SNAP_COMMIT = 16
MIGRATE = 17
MIGRATE_COMMIT = 18
SHARD_DETACH = 19
LEASE = 20

OP_NAMES = {
    GET: "get",
    PUT: "put",
    DELETE: "delete",
    SCAN: "scan",
    COUNT: "count",
    BATCH_GET: "batch_get",
    SYNC: "sync",
    STATS: "stats",
    SHUTDOWN: "shutdown",
    REPL_APPLY: "repl_apply",
    WATERMARK: "watermark",
    GET_AT: "get_at",
    PROMOTE: "promote",
    SNAP_BEGIN: "snap_begin",
    SNAP_CHUNK: "snap_chunk",
    SNAP_COMMIT: "snap_commit",
    MIGRATE: "migrate",
    MIGRATE_COMMIT: "migrate_commit",
    SHARD_DETACH: "shard_detach",
    LEASE: "lease",
}

# -- response statuses -------------------------------------------------------

OK = 0
NOT_FOUND = 1
OVERLOADED = 2
BAD_REQUEST = 3
SHUTTING_DOWN = 4
ERROR = 5
LAGGING = 6
NOT_PRIMARY = 7
NOT_OWNER = 8
FENCED = 9

STATUS_NAMES = {
    OK: "ok",
    NOT_FOUND: "not_found",
    OVERLOADED: "overloaded",
    BAD_REQUEST: "bad_request",
    SHUTTING_DOWN: "shutting_down",
    ERROR: "error",
    LAGGING: "lagging",
    NOT_PRIMARY: "not_primary",
    NOT_OWNER: "not_owner",
    FENCED: "fenced",
}

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_HEADER = struct.Struct("<IB")  # request_id, opcode/status
_FRAME = struct.Struct("<IIB")  # payload_len, then the header: one pack per frame
_HEAD = _HEADER.size

#: Upper bound on a single frame; a peer announcing more is corrupt or
#: hostile and the connection is dropped rather than the buffer grown.
MAX_FRAME_BYTES = 64 << 20


class ProtocolError(ValueError):
    """A malformed frame, body, or oversized length prefix."""


def _oversize(payload_len: int) -> ProtocolError:
    return ProtocolError(f"frame of {payload_len} bytes exceeds MAX_FRAME_BYTES")


# -- framing -----------------------------------------------------------------


def frame(request_id: int, code: int, body: bytes = b"") -> bytes:
    """One wire frame (works for requests and responses alike)."""
    payload_len = _HEAD + len(body)
    if payload_len > MAX_FRAME_BYTES:
        raise _oversize(payload_len)
    return _FRAME.pack(payload_len, request_id, code) + body


def parse_payload(payload: bytes) -> tuple[int, int, bytes]:
    """Split a frame payload into (request_id, opcode/status, body)."""
    if len(payload) < _HEADER.size:
        raise ProtocolError("truncated frame payload")
    request_id, code = _HEADER.unpack_from(payload)
    return request_id, code, payload[_HEADER.size :]


def parse_length(prefix: bytes, offset: int = 0) -> int:
    """Decode and bound-check the 4-byte length prefix."""
    (length,) = _U32.unpack_from(prefix, offset)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"announced frame of {length} bytes rejected")
    if length < _HEADER.size:
        raise ProtocolError("frame shorter than its header")
    return length


def parse_frames(buf: bytearray, frames: list[tuple[int, int, bytes]]) -> int:
    """Append every complete frame at the head of ``buf`` to ``frames``
    as ``(request_id, opcode/status, body)`` and return the bytes they
    span.  Lengths and headers are read in place and each body is
    copied once.  A bad length prefix raises :class:`ProtocolError`
    with the frames before it already appended."""
    off, size = 0, len(buf)
    with memoryview(buf) as view:
        while size - off >= 4:
            end = off + 4 + parse_length(view, off)
            if end > size:
                break
            request_id, code = _HEADER.unpack_from(view, off + 4)
            frames.append((request_id, code, bytes(view[off + 4 + _HEADER.size : end])))
            off = end
    return off


# -- request bodies ----------------------------------------------------------


def encode_key(key: bytes) -> bytes:
    return disk_format.pack_bytes(key)


def decode_key(body: bytes) -> bytes:
    key, off = disk_format.unpack_bytes(body, 0)
    if off != len(body):
        raise ProtocolError("trailing bytes after key")
    return key


def encode_key_value(key: bytes, value: Any) -> bytes:
    return disk_format.pack_bytes(key) + disk_format.pack_bytes(
        disk_format.encode_value(value)
    )


def decode_key_value(body: bytes) -> tuple[bytes, Any]:
    key, off = disk_format.unpack_bytes(body, 0)
    raw, off = disk_format.unpack_bytes(body, off)
    if off != len(body):
        raise ProtocolError("trailing bytes after value")
    return key, disk_format.decode_value(raw)


def encode_scan(low: bytes, count: int) -> bytes:
    return disk_format.pack_bytes(low) + _U32.pack(count)


def decode_scan(body: bytes) -> tuple[bytes, int]:
    low, off = disk_format.unpack_bytes(body, 0)
    if off + 4 != len(body):
        raise ProtocolError("bad scan body")
    (count,) = _U32.unpack_from(body, off)
    return low, count


def encode_range(low: bytes, high: bytes) -> bytes:
    return disk_format.pack_bytes(low) + disk_format.pack_bytes(high)


def decode_range(body: bytes) -> tuple[bytes, bytes]:
    low, off = disk_format.unpack_bytes(body, 0)
    high, off = disk_format.unpack_bytes(body, off)
    if off != len(body):
        raise ProtocolError("trailing bytes after range")
    return low, high


def encode_keys(keys: Sequence[bytes]) -> bytes:
    out = bytearray(_U32.pack(len(keys)))
    for key in keys:
        out += disk_format.pack_bytes(key)
    return bytes(out)


def decode_keys(body: bytes) -> list[bytes]:
    if len(body) < 4:
        raise ProtocolError("truncated key batch")
    (n,) = _U32.unpack_from(body, 0)
    off = 4
    keys = []
    for _ in range(n):
        key, off = disk_format.unpack_bytes(body, off)
        keys.append(key)
    if off != len(body):
        raise ProtocolError("trailing bytes after key batch")
    return keys


# -- response bodies ---------------------------------------------------------


def encode_value_body(value: Any) -> bytes:
    return disk_format.encode_value(value)


def decode_value_body(body: bytes) -> Any:
    return disk_format.decode_value(body)


def encode_pairs(pairs: Sequence[tuple[bytes, Any]]) -> bytes:
    out = bytearray(_U32.pack(len(pairs)))
    for key, value in pairs:
        out += disk_format.pack_bytes(key)
        out += disk_format.pack_bytes(disk_format.encode_value(value))
    return bytes(out)


def decode_pairs(body: bytes) -> list[tuple[bytes, Any]]:
    if len(body) < 4:
        raise ProtocolError("truncated pairs")
    (n,) = _U32.unpack_from(body, 0)
    off = 4
    pairs = []
    for _ in range(n):
        key, off = disk_format.unpack_bytes(body, off)
        raw, off = disk_format.unpack_bytes(body, off)
        pairs.append((key, disk_format.decode_value(raw)))
    if off != len(body):
        raise ProtocolError("trailing bytes after pairs")
    return pairs


def encode_u64_body(n: int) -> bytes:
    return _U64.pack(n)


def decode_u64_body(body: bytes) -> int:
    if len(body) != 8:
        raise ProtocolError("bad u64 body")
    return _U64.unpack(body)[0]


def encode_repl_apply(term: int, shard: int, frames: bytes) -> bytes:
    """REPL_APPLY request: the sender's term, the target shard, plus
    verbatim WAL frames (already CRC-framed by
    :mod:`repro.lsm.disk_format`, so no extra length prefix is needed —
    the follower decodes them strictly)."""
    return _U64.pack(term) + _U32.pack(shard) + frames


def decode_repl_apply(body: bytes) -> tuple[int, int, bytes]:
    if len(body) < 12:
        raise ProtocolError("truncated repl_apply body")
    (term,) = _U64.unpack_from(body, 0)
    (shard,) = _U32.unpack_from(body, 8)
    return term, shard, body[12:]


def encode_get_at(key: bytes, min_seq: int) -> bytes:
    return disk_format.pack_bytes(key) + _U64.pack(min_seq)


def decode_get_at(body: bytes) -> tuple[bytes, int]:
    key, off = disk_format.unpack_bytes(body, 0)
    if off + 8 != len(body):
        raise ProtocolError("bad get_at body")
    (min_seq,) = _U64.unpack_from(body, off)
    return key, min_seq


def encode_watermarks(
    is_primary: bool, term: int, marks: dict[int, tuple[int, int]]
) -> bytes:
    """WATERMARK response: the node's role and term, then per *hosted*
    shard (dispatched, applied) — the highest sequence this follower
    has accepted into its apply queue and the highest durably applied
    one.  The primary resumes shipping from ``dispatched + 1`` (never
    lower: re-sending an already-queued record would double-apply it).
    Shard ids travel explicitly: a node may host any subset of the
    global shard space."""
    out = bytearray()
    out += b"\x01" if is_primary else b"\x00"
    out += _U64.pack(term)
    out += _U32.pack(len(marks))
    for shard in sorted(marks):
        dispatched, applied = marks[shard]
        out += _U32.pack(shard)
        out += _U64.pack(dispatched)
        out += _U64.pack(applied)
    return bytes(out)


def decode_watermarks(body: bytes) -> tuple[bool, int, dict[int, tuple[int, int]]]:
    if len(body) < 13:
        raise ProtocolError("truncated watermark body")
    is_primary = body[0] != 0
    (term,) = _U64.unpack_from(body, 1)
    (n,) = _U32.unpack_from(body, 9)
    if len(body) != 13 + 20 * n:
        raise ProtocolError("bad watermark body")
    off = 13
    marks: dict[int, tuple[int, int]] = {}
    for _ in range(n):
        shard, dispatched, applied = struct.unpack_from("<IQQ", body, off)
        off += 20
        marks[shard] = (dispatched, applied)
    return is_primary, term, marks


def encode_maybe_values(values: Sequence[Any], missing: object) -> bytes:
    """BATCH_GET response: a presence flag plus the value when present."""
    out = bytearray(_U32.pack(len(values)))
    for value in values:
        if value is missing:
            out += b"\x00"
        else:
            out += b"\x01"
            out += disk_format.pack_bytes(disk_format.encode_value(value))
    return bytes(out)


# -- membership bodies (PR 10) -----------------------------------------------


def encode_promote(new_term: int | None = None) -> bytes:
    """PROMOTE request: empty keeps the old "bump my term by one"
    behaviour; a u64 adopts exactly that term (election uses the
    highest term observed among live peers, plus one)."""
    return b"" if new_term is None else _U64.pack(new_term)


def decode_promote(body: bytes) -> int | None:
    if not body:
        return None
    if len(body) != 8:
        raise ProtocolError("bad promote body")
    return _U64.unpack(body)[0]


def encode_snap_begin(term: int, shard: int, doc: bytes) -> bytes:
    """SNAP_BEGIN request: the snapshot manifest document (UTF-8 JSON,
    see :mod:`repro.cluster.membership`) announcing every file about to
    be chunked over, with sizes and CRCs."""
    return _U64.pack(term) + _U32.pack(shard) + doc


def decode_snap_begin(body: bytes) -> tuple[int, int, bytes]:
    if len(body) < 12:
        raise ProtocolError("truncated snap_begin body")
    (term,) = _U64.unpack_from(body, 0)
    (shard,) = _U32.unpack_from(body, 8)
    return term, shard, body[12:]


def encode_snap_chunk(
    term: int, shard: int, name: str, offset: int, data: bytes
) -> bytes:
    return (
        _U64.pack(term)
        + _U32.pack(shard)
        + disk_format.pack_bytes(name.encode("utf-8"))
        + _U64.pack(offset)
        + data
    )


def decode_snap_chunk(body: bytes) -> tuple[int, int, str, int, bytes]:
    if len(body) < 12:
        raise ProtocolError("truncated snap_chunk body")
    (term,) = _U64.unpack_from(body, 0)
    (shard,) = _U32.unpack_from(body, 8)
    raw, off = disk_format.unpack_bytes(body, 12)
    if off + 8 > len(body):
        raise ProtocolError("truncated snap_chunk body")
    (offset,) = _U64.unpack_from(body, off)
    return term, shard, raw.decode("utf-8"), offset, body[off + 8 :]


def encode_snap_commit(term: int, shard: int, snap_seq: int) -> bytes:
    return _U64.pack(term) + _U32.pack(shard) + _U64.pack(snap_seq)


def decode_snap_commit(body: bytes) -> tuple[int, int, int]:
    if len(body) != 20:
        raise ProtocolError("bad snap_commit body")
    (term,) = _U64.unpack_from(body, 0)
    (shard,) = _U32.unpack_from(body, 8)
    (snap_seq,) = _U64.unpack_from(body, 12)
    return term, shard, snap_seq


def encode_migrate(
    shard: int, dst_group: str, targets: Sequence[tuple[str, int]]
) -> bytes:
    """MIGRATE request (to the source primary): move ``shard`` to
    ``dst_group``, shipping snapshot + delta to every target node."""
    out = bytearray(_U32.pack(shard))
    out += disk_format.pack_bytes(dst_group.encode("utf-8"))
    out += _U32.pack(len(targets))
    for host, port in targets:
        out += disk_format.pack_bytes(host.encode("utf-8"))
        out += _U32.pack(port)
    return bytes(out)


def decode_migrate(body: bytes) -> tuple[int, str, list[tuple[str, int]]]:
    if len(body) < 4:
        raise ProtocolError("truncated migrate body")
    (shard,) = _U32.unpack_from(body, 0)
    raw, off = disk_format.unpack_bytes(body, 4)
    dst_group = raw.decode("utf-8")
    if off + 4 > len(body):
        raise ProtocolError("truncated migrate body")
    (n,) = _U32.unpack_from(body, off)
    off += 4
    targets = []
    for _ in range(n):
        raw, off = disk_format.unpack_bytes(body, off)
        if off + 4 > len(body):
            raise ProtocolError("truncated migrate body")
        (port,) = _U32.unpack_from(body, off)
        off += 4
        targets.append((raw.decode("utf-8"), port))
    if off != len(body):
        raise ProtocolError("trailing bytes after migrate body")
    return shard, dst_group, targets


def encode_migrate_commit(shard: int, handoff_seq: int) -> bytes:
    return _U32.pack(shard) + _U64.pack(handoff_seq)


def decode_migrate_commit(body: bytes) -> tuple[int, int]:
    if len(body) != 12:
        raise ProtocolError("bad migrate_commit body")
    (shard,) = _U32.unpack_from(body, 0)
    (handoff_seq,) = _U64.unpack_from(body, 4)
    return shard, handoff_seq


def encode_shard_detach(shard: int, forward_group: str) -> bytes:
    """SHARD_DETACH request: drop ``shard``; remember ``forward_group``
    so late clients get a NOT_OWNER redirect instead of a dead end."""
    return _U32.pack(shard) + disk_format.pack_bytes(forward_group.encode("utf-8"))


def decode_shard_detach(body: bytes) -> tuple[int, str]:
    if len(body) < 4:
        raise ProtocolError("truncated shard_detach body")
    (shard,) = _U32.unpack_from(body, 0)
    raw, off = disk_format.unpack_bytes(body, 4)
    if off != len(body):
        raise ProtocolError("trailing bytes after shard_detach body")
    return shard, raw.decode("utf-8")


def encode_lease(term: int, ttl_ms: int) -> bytes:
    return _U64.pack(term) + _U32.pack(ttl_ms)


def decode_lease(body: bytes) -> tuple[int, int]:
    if len(body) != 12:
        raise ProtocolError("bad lease body")
    (term,) = _U64.unpack_from(body, 0)
    (ttl_ms,) = _U32.unpack_from(body, 8)
    return term, ttl_ms


def decode_maybe_values(body: bytes, missing: Any = None) -> list[Any]:
    if len(body) < 4:
        raise ProtocolError("truncated value batch")
    (n,) = _U32.unpack_from(body, 0)
    off = 4
    values: list[Any] = []
    try:
        for _ in range(n):
            flag = body[off]
            off += 1
            if flag == 0:
                values.append(missing)
            else:
                raw, off = disk_format.unpack_bytes(body, off)
                values.append(disk_format.decode_value(raw))
    except IndexError:
        raise ProtocolError("truncated value batch") from None
    if off != len(body):
        raise ProtocolError("trailing bytes after value batch")
    return values


# -- burst-level point-op codec ----------------------------------------------
#
# The server decodes GET / GET_AT / BATCH_GET / PUT / DELETE a *stretch*
# at a time (DESIGN.md §12): one call here walks every frame of the
# stretch, so the per-frame cost is a few bytecodes inside one loop, not
# a chain of calls.  A stretch is parallel structures the caller owns:
# ``entries`` (one ``(request_id, opcode, n, min_seq)`` per frame, ``n``
# the number of items the frame contributed), the flat key list of its
# reads, the flat ``(key, value)`` list of its writes, and ``replies`` —
# entry index -> ready ``(status, body)`` for the entries that are
# already answered (a malformed body, later a refusal).

Frames = Sequence[tuple[int, int, bytes]]
Entries = list[tuple[int, int, int, int]]
Replies = dict[int, tuple[int, bytes]]

#: What decoding a malformed body can raise.  FrameError covers the
#: storage codecs the bodies reuse, UnicodeDecodeError the embedded
#: names: a garbage body costs its sender one BAD_REQUEST, never the
#: connection.
BODY_ERRORS = (
    ProtocolError, disk_format.FrameError, KeyError, IndexError,
    struct.error, UnicodeDecodeError,
)

_BYTES_TAG = disk_format.encode_value(b"")  # the value codec's tag for bytes


def decode_point_ops(
    frames: Frames, start: int, entries: Entries, keys: list[bytes],
    items: list[tuple[bytes, Any]], replies: Replies,
) -> int:
    """Decode the stretch of point-op frames at ``frames[start:]``;
    returns the index of the first frame of another opcode.  A read
    adds its keys to ``keys``, a write one ``(key, value)`` item to
    ``items`` (``TOMBSTONE`` for a DELETE).

    A well-formed GET or PUT body is read in place.  Any other goes
    through its per-body decoder, which says what is wrong with it:
    that entry contributes no item and is answered ``BAD_REQUEST``.  A
    PUT may not carry a tombstone.
    """
    u32 = _U32.unpack_from
    tombstone = disk_format.TOMBSTONE
    for i in range(start, len(frames)):
        request_id, opcode, body = frames[i]
        size, n, min_seq = len(body), 1, 0
        try:
            if opcode == GET:
                if size >= 4 and u32(body)[0] == size - 4:
                    keys.append(body[4:])
                else:
                    keys.append(decode_key(body))
            elif opcode == PUT:
                # <u32 klen> key <u32 vlen> <tag> ...: vlen >= 1.
                if (
                    size >= 4
                    and (at := u32(body)[0] + 8) < size
                    and u32(body, at - 4)[0] == size - at
                ):
                    key = body[4 : at - 4]
                    if body[at] == _BYTES_TAG[0]:
                        value = body[at + 1 :]
                    else:
                        value = disk_format.decode_value(body, at)
                else:
                    key, value = decode_key_value(body)
                if value is tombstone:
                    raise ProtocolError("cannot PUT a tombstone")
                items.append((key, value))
            elif opcode == GET_AT:
                key, min_seq = decode_get_at(body)
                keys.append(key)
            elif opcode == BATCH_GET:
                batch = decode_keys(body)
                keys += batch
                n = len(batch)
            elif opcode == DELETE:
                items.append((decode_key(body), tombstone))
            else:
                return i
        except BODY_ERRORS as exc:
            n, replies[len(entries)] = 0, (BAD_REQUEST, str(exc).encode())
        entries.append((request_id, opcode, n, min_seq))
    return len(frames)


def encode_read_replies(
    entries: Entries, values: Sequence[Any], replies: Replies
) -> list[bytes]:
    """The frames answering one read run, one per entry.  ``values``
    holds one engine result per key, in entry order (``None``: absent);
    an entry in ``replies`` is answered with that instead.  A ``bytes``
    value — what a served store mostly holds — is tagged here; other
    types go through the value codec."""
    pack = _FRAME.pack
    out = []
    at = 0
    for j, (request_id, opcode, n, _) in enumerate(entries):
        if replies and j in replies:
            status, body = replies[j]
        elif opcode == BATCH_GET:
            status, body = OK, encode_maybe_values(values[at : at + n], None)
        elif (value := values[at]) is None:
            status, body = NOT_FOUND, b""
        elif type(value) is bytes:
            status, body = OK, _BYTES_TAG + value
        else:
            status, body = OK, disk_format.encode_value(value)
        at += n
        payload_len = _HEAD + len(body)
        if payload_len > MAX_FRAME_BYTES:
            raise _oversize(payload_len)
        out.append(pack(payload_len, request_id, status) + body)
    return out
