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
from array import array
from bisect import bisect_right
from itertools import accumulate, chain
from typing import Any, Iterator, Sequence

from .fs import MappedFile

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


# Block reads its little-endian offsets as array("I") words (a
# fixed-width shape's through memoryview.cast("I")), which are native
# order and native size.
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


class Block:
    """One SSTable block, opened in place over its table's buffer: a
    sorted run of ``(key, value)``.

    Holds the table's :class:`~repro.lsm.fs.MappedFile` (the mmap, or
    the ``bytes`` snapshot on MemFS/FaultFS), the position of its
    payload in that buffer, and a ``u32`` array of its field offsets —
    the stored ones copied out (``4 (2n + 1)`` bytes), or, for a
    fixed-width block, which stores none, the array every block of its
    ``(n, key width, value width)`` shares.  A cached block is that
    handle, at most a few hundred bytes, never a copy of the payload.  Keys are sliced and
    values decoded only for the entries a caller touches, and slicing
    an mmap or a ``bytes`` copies: everything handed out is a fresh
    ``bytes``/``int``/``str`` object that aliases neither the map nor
    the block.  Once the map is closed (its table dropped, or the
    engine closed) every method raises ``ValueError`` instead of
    answering.

    Opening checks that the header describes the payload — the widths'
    product or both ends of the stored offsets — not that each stored
    pair is ordered (that would be a pass per cache miss): a decreasing
    pair is a :class:`FrameError` once a walk over the offsets — a
    compaction's :meth:`cells` / :meth:`columns` — reaches it.
    """

    __slots__ = ("_src", "_p", "_n", "_kw", "_off", "_raw")

    def __init__(self, src: MappedFile, start: int, end: int) -> None:
        buf, size = src.buf, end - start
        if size < _BLOCK_HEADER.size:
            raise FrameError("truncated block payload")
        n, kw, vw, flags = _BLOCK_HEADER.unpack_from(buf, start)
        if flags & ~_RAW_BYTES:
            raise FrameError(f"unknown block flags {flags:#x}")
        if _VARIABLE in (kw, vw):
            base = _BLOCK_HEADER.size + 4 * (2 * n + 1)
            if base > size:
                raise FrameError("block entry count out of range")
            off = array("I", buf[start + _BLOCK_HEADER.size : start + base])
            if off[0] != base or off[-1] != size:
                raise FrameError("block offsets do not match payload size")
        else:
            # Keys are distinct, so only a lone key may be empty.
            if _BLOCK_HEADER.size + n * (kw + vw) != size or (n > 1 and not kw):
                raise FrameError("block widths do not match payload size")
            off = _fixed_offsets(n, kw, vw)
        #: The table's buffer holder; ``_src.buf`` is None once closed.
        self._src = src
        #: Where the payload starts in ``_src.buf``: field offsets are
        #: payload-relative, as stored.
        self._p = start
        self._n = n
        #: The key width, or ``_VARIABLE``.
        self._kw = kw
        #: Field boundaries: key ``i`` at ``[off[i], off[i+1])``, value
        #: ``i`` at ``[off[n+i], off[n+i+1])``.
        self._off = off
        #: Values are ``bytes`` stored without their tag.
        self._raw = flags

    def __len__(self) -> int:
        return self._n

    def _buf(self):
        """The table's buffer, or ``ValueError`` once its map is closed."""
        buf = self._src.buf
        if buf is None:
            raise ValueError("block of a closed table map")
        return buf

    def _offsets(self) -> list[int]:
        """Every field offset as a list, checked never to decrease —
        for the walk that touches every field (a compaction's
        :meth:`columns`), not for a point read or a seek."""
        off = self._off.tolist()
        if off != sorted(off):
            raise FrameError("block offsets decrease")
        return off

    def _payload(self) -> bytes:
        """The payload as one transient copy, for the walks."""
        return self._buf()[self._p : self._p + self._off[-1]]

    def _value(self, buf, i: int) -> Any:
        i += self._n
        start, end = self._p + self._off[i], self._p + self._off[i + 1]
        return buf[start:end] if self._raw else decode_value(buf, start, end)

    def key(self, i: int) -> bytes:
        return self._buf()[self._p + self._off[i] : self._p + self._off[i + 1]]

    def value(self, i: int) -> Any:
        return self._value(self._buf(), i)

    def __getitem__(self, i: int) -> tuple[bytes, Any]:
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("block index out of range")
        return self.key(i), self.value(i)

    def first_ge(self, key: bytes) -> int:
        """Index of the first entry with key >= ``key`` (len if none),
        searched in place: the bisect slices only the ~log2(n) keys it
        visits."""
        buf, p, off = self._buf(), self._p, self._off
        lo, hi = 0, self._n
        while lo < hi:
            mid = (lo + hi) >> 1
            if buf[p + off[mid] : p + off[mid + 1]] < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def find(self, key: bytes, default: Any = None) -> Any:
        """The value stored under ``key``, else ``default``.

        Searched in place with one C-level ``find`` over the key column:
        a match counts only where a key starts — at a multiple of the
        width on a fixed-width column, else where the stored offsets
        (bisected in C) have a key of ``key``'s length begin.
        """
        buf = self._src.buf
        if buf is None:
            raise ValueError("block of a closed table map")
        n, off, p, kw = self._n, self._off, self._p, self._kw
        lo, hi = p + off[0], p + off[n]
        if kw != _VARIABLE:
            if len(key) != kw or not n:
                return default
            if not kw:  # the lone empty key
                return self._value(buf, 0)
            pos = buf.find(key, lo, hi)
            while pos >= 0:
                i, skew = divmod(pos - lo, kw)
                if not skew:
                    return self._value(buf, i)
                pos = buf.find(key, pos + kw - skew, hi)
            return default
        if not key:  # only the first key can be empty
            return self._value(buf, 0) if n and off[0] == off[1] else default
        pos = buf.find(key, lo, hi)
        while pos >= 0:
            # The last key starting at or before the match: a key that
            # sorts after an empty first key shares its offset.
            i = bisect_right(off, pos - p, 0, n) - 1
            if off[i] == pos - p and off[i + 1] - off[i] == len(key):
                return self._value(buf, i)
            pos = buf.find(key, pos + 1, hi)
        return default

    def items(self, start: int = 0, stop: int | None = None) -> Iterator[tuple[bytes, Any]]:
        """Entries ``[start, stop)`` (to the end by default), in key order.

        The map is checked when the walk starts: the engine's cursors
        pin the table's version, so its map outlives every walk."""
        buf, p, off, n, raw = self._buf(), self._p, self._off, self._n, self._raw
        for i in range(start, n if stop is None else stop):
            a, b = p + off[n + i], p + off[n + i + 1]
            yield (
                buf[p + off[i] : p + off[i + 1]],
                buf[a:b] if raw else decode_value(buf, a, b),
            )

    __iter__ = items

    def cells(self, start: int = 0, stop: int | None = None) -> Iterator[tuple[bytes, bytes]]:
        """Entries ``[start, stop)`` as stored: ``(key, encoded value)``,
        nothing decoded — what a compaction carries to its output."""
        return zip(*self.columns(start, stop))

    def columns(self, start: int = 0, stop: int | None = None) -> tuple[list[bytes], list[bytes]]:
        """:meth:`cells` as two lists: the keys and their encoded values."""
        n, off, payload = self._n, self._offsets(), self._payload()
        cut = payload.__getitem__
        stop = n if stop is None else stop
        values = map(cut, map(slice, off[n + start : n + stop], off[n + start + 1 : n + stop + 1]))
        if self._raw:  # put the tag back: cells are encoded values
            values = map(_BYTES_TAG.__add__, values)
        return list(map(cut, map(slice, off[start:stop], off[start + 1 : stop + 1]))), list(values)


def open_block(src: MappedFile, offset: int, length: int) -> Block:
    """The block framed at ``[offset, offset + length)`` of ``src``,
    opened in place: the frame's CRC is checked over the map slice and
    nothing is copied."""
    view = src.view
    if view is None:
        raise ValueError("block of a closed table map")
    _, end = read_frame(view[offset : offset + length])
    return Block(src, offset + _FRAME_HEADER.size, offset + end)


def decode_block(data) -> Block:
    """Inverse of :func:`encode_block` over one standalone framed block.

    A ``bytes`` input is immutable, so the block opens in place over
    it; any other bytes-like input (a ``bytearray``, a ``memoryview``)
    might change under the block, so it is copied once first.
    """
    return open_block(MappedFile(data if isinstance(data, bytes) else bytes(data)), 0, len(data))


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
