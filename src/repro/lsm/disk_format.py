"""On-disk encodings shared by the SSTable, WAL, and manifest.

Every persisted unit is a *frame*::

    <u32 crc32(payload)> <u32 len(payload)> <payload>

so torn and corrupted writes are detected at the first read: a frame
whose length runs past the file or whose CRC mismatches is rejected
(``FrameError``), and sequential readers (the WAL) treat it as
end-of-log.  This is the checksummed-block discipline of the
FB+-tree / RocksDB file formats.

Values are typed, not pickled: the durable engine stores ints, bytes,
UTF-8 strings, and tombstones.  Anything else raises ``TypeError`` at
write time — a storage format must not silently depend on pickle.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_left
from itertools import accumulate
from typing import Any, Iterator, Sequence

#: Marker value for deletions (RocksDB tombstones).  Defined here, at
#: the bottom of the lsm import graph, and re-exported by
#: :mod:`repro.lsm.sstable` for the public API.
TOMBSTONE = object()

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_FRAME_HEADER = struct.Struct("<II")

#: Value-codec tags.
_VAL_TOMBSTONE = 0
_VAL_INT = 1
_VAL_BYTES = 2
_VAL_STR = 3

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: A tombstone's encoding: its tag byte alone.  Every other encoding
#: starts with another tag, so a compaction tells a tombstone from a
#: value without decoding either.
TOMBSTONE_CELL = bytes([_VAL_TOMBSTONE])
_INT_TAG = bytes([_VAL_INT])
_BYTES_TAG = bytes([_VAL_BYTES])
_STR_TAG = bytes([_VAL_STR])


class FrameError(ValueError):
    """A frame failed its length or CRC check (torn/corrupt write)."""


# -- value codec -------------------------------------------------------------


def encode_value(value: Any) -> bytes:
    """Encode a storable value (int / bytes / str / TOMBSTONE)."""
    if isinstance(value, bytes):
        return _BYTES_TAG + value
    if value is TOMBSTONE:
        return TOMBSTONE_CELL
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise TypeError("durable LSM values must be int, bytes, or str")
    if isinstance(value, int):
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise TypeError("int values must fit in a signed 64-bit word")
        return _INT_TAG + _I64.pack(value)
    if isinstance(value, str):
        return _STR_TAG + value.encode("utf-8")
    raise TypeError(
        f"durable LSM values must be int, bytes, or str (got {type(value).__name__})"
    )


def decode_value(data: bytes, start: int = 0, end: int | None = None) -> Any:
    """Decode the value encoded in ``data[start:end]``."""
    if end is None:
        end = len(data)
    if start >= end:
        raise FrameError("empty value encoding")
    tag = data[start]
    if tag == _VAL_BYTES:
        return data[start + 1 : end]
    if tag == _VAL_INT:
        if end - start != 9:
            raise FrameError("bad int value length")
        return _I64.unpack_from(data, start + 1)[0]
    if tag == _VAL_TOMBSTONE:
        return TOMBSTONE
    if tag == _VAL_STR:
        return data[start + 1 : end].decode("utf-8")
    raise FrameError(f"unknown value tag {tag}")


# -- frames ------------------------------------------------------------------


def frame(payload: bytes) -> bytes:
    return _FRAME_HEADER.pack(zlib.crc32(payload), len(payload)) + payload


def read_frame(data: bytes, offset: int = 0) -> tuple[bytes, int]:
    """Decode one frame at ``offset``; returns (payload, next_offset).

    Raises :class:`FrameError` on truncation or checksum mismatch.
    """
    if offset + _FRAME_HEADER.size > len(data):
        raise FrameError("truncated frame header")
    crc, length = _FRAME_HEADER.unpack_from(data, offset)
    start = offset + _FRAME_HEADER.size
    payload = data[start : start + length]
    if len(payload) != length:
        raise FrameError("truncated frame payload")
    if zlib.crc32(payload) != crc:
        raise FrameError("frame CRC mismatch")
    return payload, start + length


# -- entry blocks ------------------------------------------------------------


def encode_block(keys: Sequence[bytes], values: Sequence[bytes]) -> bytes:
    """One SSTable block, framed and CRC-checked, laid out in columns::

        <u32 n> <u32 klen[n]> <u32 vlen[n]> <keys...> <values...>

    ``values`` are already encoded (:func:`encode_value`), so a block
    is one ``struct.pack`` of the lengths and one join per column.  The
    same byte count as interleaving each length with its field;
    putting the lengths first lets :class:`Block` compute every offset
    with one ``unpack_from`` instead of walking the entries.
    """
    n = len(keys)
    header = struct.pack(f"<{2 * n + 1}I", n, *map(len, keys), *map(len, values))
    return frame(header + b"".join(keys) + b"".join(values))


#: Searches after which a cached block builds its key list: the list
#: costs ~9 us and saves ~1.2 us per search after that.
_HOT_BLOCK_PROBES = 8


class Block:
    """One decoded SSTable block: a sorted run of ``(key, value)``.

    Owns a single ``bytes`` copy of the block payload plus one list of
    field offsets; keys are sliced and values decoded only for the entries a
    caller touches, so a point read that misses the block cache pays
    for one copy, one ``unpack_from`` and a bisect — not for building
    every entry.  Everything handed out is a fresh ``bytes``/``int``/
    ``str`` object: nothing aliases the payload's source buffer (an
    mmap'd table file) or the cached block itself.
    """

    __slots__ = ("_payload", "_n", "_off", "_keys", "_probes")

    def __init__(self, payload: bytes) -> None:
        if len(payload) < 4:
            raise FrameError("truncated block payload")
        (n,) = _U32.unpack_from(payload, 0)
        base = 4 + 8 * n
        if base > len(payload):
            raise FrameError("block entry count out of range")
        self._payload = payload
        self._n = n
        #: Field boundaries: keys lie back to back and the values follow
        #: them, so one running sum over both length columns places
        #: key ``i`` at ``[off[i], off[i+1])`` and value ``i`` at
        #: ``[off[n+i], off[n+i+1])``.
        self._off = list(
            accumulate(struct.unpack_from(f"<{2 * n}I", payload, 4), initial=base)
        )
        if self._off[-1] != len(payload):
            raise FrameError("block lengths do not match payload size")
        #: The key column as a list, built once the block proves hot
        #: (see :meth:`first_ge`); ``_probes`` counts searches so far.
        self._keys: list[bytes] | None = None
        self._probes = 0

    def __len__(self) -> int:
        return self._n

    def key(self, i: int) -> bytes:
        return self._payload[self._off[i] : self._off[i + 1]]

    def value(self, i: int) -> Any:
        i += self._n
        return decode_value(self._payload, self._off[i], self._off[i + 1])

    def __getitem__(self, i: int) -> tuple[bytes, Any]:
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("block index out of range")
        return self.key(i), self.value(i)

    def first_ge(self, key: bytes) -> int:
        """Index of the first entry with key >= ``key`` (len if none).

        A cold block — most blocks, when the data outgrows the cache —
        is searched in place: a hand-rolled bisect slices only the ~6
        keys it visits (1.4 us on 64 entries), where building the key
        list first costs 9 us.  A block that keeps being probed (a
        cache-resident working set) has paid that difference after
        ``_HOT_BLOCK_PROBES`` searches, so it then materializes the
        list once and bisects it in C (0.2 us) from there on.
        """
        keys = self._keys
        if keys is None:
            payload, off = self._payload, self._off
            if self._probes < _HOT_BLOCK_PROBES:
                self._probes += 1
                lo, hi = 0, self._n
                while lo < hi:
                    mid = (lo + hi) >> 1
                    if payload[off[mid] : off[mid + 1]] < key:
                        lo = mid + 1
                    else:
                        hi = mid
                return lo
            keys = self._keys = [
                payload[a:b] for a, b in zip(off, off[1 : self._n + 1])
            ]
        return bisect_left(keys, key)

    def find(self, key: bytes, default: Any = None) -> Any:
        """The value stored under ``key``, else ``default``."""
        keys = self._keys
        if keys is not None:  # hot block: bisect its key list directly
            i = bisect_left(keys, key)
            if i < self._n and keys[i] == key:
                return self.value(i)
            return default
        i = self.first_ge(key)
        if i < self._n and self.key(i) == key:
            return self.value(i)
        return default

    def items(self, start: int = 0, stop: int | None = None) -> Iterator[tuple[bytes, Any]]:
        """Entries ``[start, stop)`` (to the end by default), in key order."""
        for i in range(start, self._n if stop is None else stop):
            yield self.key(i), self.value(i)

    __iter__ = items

    def cells(self, start: int = 0, stop: int | None = None) -> Iterator[tuple[bytes, bytes]]:
        """Entries ``[start, stop)`` as stored: ``(key, encoded value)``,
        nothing decoded — what a compaction carries to its output."""
        n, off, cut = self._n, self._off, self._payload.__getitem__
        stop = n if stop is None else stop
        return zip(
            map(cut, map(slice, off[start:stop], off[start + 1 : stop + 1])),
            map(cut, map(slice, off[n + start : n + stop], off[n + start + 1 : n + stop + 1])),
        )


def decode_block(data: bytes) -> Block:
    """Inverse of :func:`encode_block` over one framed block.

    Accepts any bytes-like input (including a ``memoryview`` slice of
    an mmap'd table file); the CRC is checked over the source buffer
    and the payload is copied out of it exactly once.
    """
    payload, _ = read_frame(data)
    return Block(payload if isinstance(payload, bytes) else bytes(payload))


# -- length-prefixed byte strings (for footers / manifests) ------------------


def pack_bytes(b: bytes) -> bytes:
    return _U32.pack(len(b)) + b


def unpack_bytes(data: bytes, offset: int) -> tuple[bytes, int]:
    try:
        (n,) = _U32.unpack_from(data, offset)
    except struct.error:
        raise FrameError("truncated length prefix") from None
    offset += 4
    out = data[offset : offset + n]
    if len(out) != n:
        raise FrameError("truncated byte string")
    return out, offset + n


def pack_u64(v: int) -> bytes:
    return _U64.pack(v)


def unpack_u64(data: bytes, offset: int) -> tuple[int, int]:
    return _U64.unpack_from(data, offset)[0], offset + 8
