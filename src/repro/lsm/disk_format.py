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

A table block stores field offsets only when a column's widths vary
(elsewhere they are arithmetic, D-to-S Rule #2) and value tags only
when not every value is ``bytes`` (:func:`encode_block`).
"""

from __future__ import annotations

import functools
import struct
import sys
import zlib
from bisect import bisect_left
from itertools import accumulate, chain
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
        raise TypeError("LSM values must be int, bytes, or str")
    if isinstance(value, int):
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise TypeError("int values must fit in a signed 64-bit word")
        return _INT_TAG + _I64.pack(value)
    if isinstance(value, str):
        return _STR_TAG + value.encode("utf-8")
    raise TypeError(
        f"LSM values must be int, bytes, or str (got {type(value).__name__})"
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


# Block reads its little-endian offsets in place through
# memoryview.cast("I"), which is native order and native size.
if sys.byteorder != "little" or struct.calcsize("I") != 4:
    raise ImportError(
        "repro.lsm needs a little-endian host with a 4-byte C unsigned int "
        f"(byteorder={sys.byteorder}, sizeof(unsigned int)={struct.calcsize('I')})"
    )


#: The block header: entry count, key width, value width, flags.  A
#: width is the one length every field of its column has, or
#: ``_VARIABLE`` when the lengths differ.
_BLOCK_HEADER = struct.Struct("<IIIB")
_VARIABLE = 0xFFFFFFFF
#: Flag: every value is ``bytes``, stored without its codec tag.
_RAW_BYTES = 1


def _width(column: Sequence[bytes]) -> int:
    lengths = set(map(len, column))
    return lengths.pop() if len(lengths) == 1 else (_VARIABLE if lengths else 0)


def encode_block(keys: Sequence[bytes], values: Sequence[bytes]) -> bytes:
    """One SSTable block, framed and CRC-checked, laid out in columns::

        <u32 n> <u32 key width> <u32 value width> <u8 flags>
        [<u32 off[0..2n]>] <keys...> <values...>

    ``values`` are already encoded (:func:`encode_value`).  When every
    one is ``bytes`` the ``_RAW_BYTES`` flag is set and the value
    column holds them without their tag.  When every key has one length
    and every stored value has one length, the header is all there is
    before the columns: field ``i`` of a column starts at its base plus
    ``i`` times its width.  Otherwise a width is ``_VARIABLE`` and the
    ``2n + 1`` offsets follow the header: key ``i`` is ``[off[i],
    off[i+1])``, value ``i`` is ``[off[n+i], off[n+i+1])`` and
    ``off[2n]`` is the payload size.
    """
    n = len(keys)
    flags = 0
    if all(v[:1] == _BYTES_TAG for v in values):
        flags, values = _RAW_BYTES, [v[1:] for v in values]
    kw, vw = _width(keys), _width(values)
    head = _BLOCK_HEADER.pack(n, kw, vw, flags)
    if _VARIABLE in (kw, vw):
        base = _BLOCK_HEADER.size + 4 * (2 * n + 1)
        offsets = accumulate(chain(map(len, keys), map(len, values)), initial=base)
        head += struct.pack(f"<{2 * n + 1}I", *offsets)
    return frame(head + b"".join(keys) + b"".join(values))


@functools.lru_cache(maxsize=128)
def _fixed_offsets(n: int, kw: int, vw: int) -> memoryview:
    """The field offsets of a fixed-width block of ``n`` entries, as one
    read-only ``u32`` view that every block of that shape shares."""
    head, keys_end = _BLOCK_HEADER.size, _BLOCK_HEADER.size + n * kw
    words = [head + i * kw for i in range(n)] + [keys_end + i * vw for i in range(n + 1)]
    return memoryview(struct.pack(f"<{2 * n + 1}I", *words)).cast("I")


#: Searches after which a cached block builds its key list: the list
#: (with its offset-order check) costs ~9 us and saves ~1.0 us per
#: search after that — 1.2 us bisecting in place over the offset view,
#: 0.2 us over the list; break-even 8.4-9.2 searches on a 64-entry
#: block (EXPERIMENTS.md, "Blocks that open without decoding").
_HOT_BLOCK_PROBES = 8


class Block:
    """One decoded SSTable block: a sorted run of ``(key, value)``.

    Owns a single ``bytes`` copy of the block payload plus a ``u32``
    array of its field offsets: the stored offsets cast in place, or —
    for a fixed-width block, which stores none — the array every block
    of its ``(n, key width, value width)`` shares.  Keys are sliced and
    values decoded only for the entries a caller touches, so a point
    read that misses the block cache pays for one copy, a header unpack
    and a bisect — not for decoding the offsets or building every
    entry.  Everything handed out is a fresh ``bytes``/``int``/``str``
    object: nothing aliases the payload's source buffer (an mmap'd
    table file) or the cached block itself.

    Opening checks that the header describes the payload — the widths'
    product or both ends of the stored offsets — not that each stored
    pair is ordered (that would be a pass per cache miss): a decreasing
    pair is a :class:`FrameError` once a walk over the offsets —
    :meth:`cells` or the hot key list — reaches it.
    """

    __slots__ = ("_payload", "_n", "_off", "_raw", "_keys", "_probes")

    def __init__(self, payload: bytes) -> None:
        size = len(payload)
        if size < _BLOCK_HEADER.size:
            raise FrameError("truncated block payload")
        n, kw, vw, flags = _BLOCK_HEADER.unpack_from(payload)
        if flags & ~_RAW_BYTES:
            raise FrameError(f"unknown block flags {flags:#x}")
        if _VARIABLE in (kw, vw):
            base = _BLOCK_HEADER.size + 4 * (2 * n + 1)
            if base > size:
                raise FrameError("block entry count out of range")
            off = memoryview(payload)[_BLOCK_HEADER.size : base].cast("I")
            if off[0] != base or off[-1] != size:
                raise FrameError("block offsets do not match payload size")
        else:
            # Keys are distinct, so only a lone key may be empty.
            if _BLOCK_HEADER.size + n * (kw + vw) != size or (n > 1 and not kw):
                raise FrameError("block widths do not match payload size")
            off = _fixed_offsets(n, kw, vw)
        self._payload = payload
        self._n = n
        #: Field boundaries: key ``i`` at ``[off[i], off[i+1])``, value
        #: ``i`` at ``[off[n+i], off[n+i+1])``.
        self._off = off
        #: Values are ``bytes`` stored without their tag.
        self._raw = flags
        #: The key column as a list, built once the block proves hot
        #: (see :meth:`first_ge`); ``_probes`` counts searches so far.
        self._keys: list[bytes] | None = None
        self._probes = 0

    def __len__(self) -> int:
        return self._n

    def _offsets(self) -> list[int]:
        """Every field offset as a list, checked never to decrease —
        for the walks that touch every field (the hot key list, a
        compaction's :meth:`cells`), not for a point read."""
        off = self._off.tolist()
        if off != sorted(off):
            raise FrameError("block offsets decrease")
        return off

    def key(self, i: int) -> bytes:
        return self._payload[self._off[i] : self._off[i + 1]]

    def value(self, i: int) -> Any:
        i += self._n
        if self._raw:
            return self._payload[self._off[i] : self._off[i + 1]]
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
        keys it visits (1.2 us on 64 entries), where building the key
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
            off = self._offsets()
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
        n, off, cut = self._n, self._offsets(), self._payload.__getitem__
        stop = n if stop is None else stop
        values = map(cut, map(slice, off[n + start : n + stop], off[n + start + 1 : n + stop + 1]))
        if self._raw:  # put the tag back: cells are encoded values
            values = map(_BYTES_TAG.__add__, values)
        return zip(map(cut, map(slice, off[start:stop], off[start + 1 : stop + 1])), values)


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
    try:
        return _U64.unpack_from(data, offset)[0], offset + 8
    except struct.error:
        raise FrameError("truncated u64") from None
