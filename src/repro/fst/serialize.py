"""FST and SuRF serialization.

The paper's flagship deployment persists one SuRF per SSTable next to
the table file (Section 4.2), so filters must round-trip through bytes.
The format is a little-endian header + the raw succinct arrays, each at
the width :meth:`~repro.fst.fst.FST.size_bits` charges it: each bitmap
its bit count, byte count and ``uint64`` words, S-Labels one byte each.
The rank LUTs and select samples are derived from the words and are
rebuilt on load (``FST._finish``) with the FST defaults.

An ``FST3`` blob carries a value column only for an index FST (values
must be non-negative 64-bit integers, in leaf order); SuRF's trie has
none.  Past its headers it stores only what ``size_bits()`` charges
(``FST2`` also stored two per-level start tables that only the old
count walk read; its magic is rejected).  An ``SRF2`` blob adds the
tombstone bytes and the packed suffix words, both indexed by leaf rank
(:mod:`repro.surf.surf`), around an ``FST3`` trie.

Every length in a blob is checked against the bytes present: a
truncated blob, one with trailing bytes, or a bitmap with a nonzero bit
past its length (:func:`~repro.succinct.bitvector.check_padding`)
raises ``ValueError`` under both ``copy=True`` and ``copy=False``.
"""

from __future__ import annotations

import struct
from array import array

import numpy as np

from ..succinct.bitvector import check_padding, int_view
from .fst import FANOUT, FST

MAGIC = b"FST3"
SURF_MAGIC = b"SRF2"

_U64 = struct.Struct("<Q")
_BV_HEADER = struct.Struct("<QQ")
_FST_HEADER = struct.Struct("<QQQQQQB")
_SURF_HEADER = struct.Struct("<BBQQ")
_TRUNCATED = 1
_HAS_VALUES = 2


class _Reader:
    """Bounds-checked cursor over the blob after its magic: every read
    that runs past the end raises ``ValueError("corrupt <what> blob:
    ...")``, and so does a wrong magic."""

    def __init__(self, data, magic: bytes, what: str) -> None:
        buf = memoryview(data)
        self.what = what
        if len(buf) < len(magic):
            raise self.fail("truncated")
        if bytes(buf[: len(magic)]) != magic:
            raise self.fail("bad magic")
        self.buf = buf[len(magic) :]
        self.offset = 0

    def fail(self, why: str) -> ValueError:
        return ValueError(f"corrupt {self.what} blob: {why}")

    def take(self, n: int) -> memoryview:
        end = self.offset + n
        if n < 0 or end > len(self.buf):
            raise self.fail("truncated")
        raw = self.buf[self.offset : end]
        self.offset = end
        return raw

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.take(fmt.size))

    def u64_array(self, n: int) -> np.ndarray:
        """``n`` u64 words as a view over the blob."""
        return np.frombuffer(self.take(8 * n), dtype=np.uint64)

    def bitmap(self, copy: bool, n_bits: int) -> np.ndarray:
        """The words of a bitmap that must hold ``n_bits`` bits."""
        bits, n_bytes = self.unpack(_BV_HEADER)
        if bits != n_bits or n_bytes != 8 * ((n_bits + 63) // 64):
            raise self.fail("bit vector length")
        # copy=False keeps an np.frombuffer view over the caller's
        # buffer: read-only (the FST never writes its words) and
        # aliasing the buffer's lifetime.
        words = self.u64_array(n_bytes // 8)
        # A tampered buffer fails loudly here instead of silently
        # corrupting rank/select.
        try:
            check_padding(words, n_bits)
        except ValueError as exc:
            raise self.fail(str(exc)) from exc
        return words.copy() if copy else words

    def done(self) -> None:
        if self.offset != len(self.buf):
            raise self.fail("trailing bytes")


def _pack_bitmap(words: np.ndarray, n_bits: int) -> bytes:
    raw = words.tobytes()
    return _BV_HEADER.pack(n_bits, len(raw)) + raw


def fst_to_bytes(fst: FST) -> bytes:
    """Serialize an FST (its values, if any, non-negative integers)."""
    flags = (_TRUNCATED if fst.truncated else 0) | (
        _HAS_VALUES if fst.values is not None else 0
    )
    n_dense = fst.dense_node_count * FANOUT
    n_labels = len(fst.s_labels)
    parts = [
        MAGIC,
        _FST_HEADER.pack(
            fst.n_keys,
            fst.height,
            fst.dense_height,
            fst.dense_node_count,
            fst.dense_child_count,
            fst.sparse_node_count,
            flags,
        ),
        _pack_bitmap(fst.d_labels, n_dense),
        _pack_bitmap(fst.d_haschild, n_dense),
        _pack_bitmap(fst.d_isprefix, fst.dense_node_count),
        _U64.pack(n_labels),
        fst.s_labels.tobytes(),
        _pack_bitmap(fst.s_haschild, n_labels),
        _pack_bitmap(fst.s_louds, n_labels),
    ]
    if fst.values is not None:
        parts.append(np.asarray(fst.values, dtype=np.uint64).tobytes())
    return b"".join(parts)


def fst_from_bytes(data, copy: bool = True) -> FST:
    """Reconstruct an FST; the rank LUTs and select samples are rebuilt.

    ``copy=False`` is the zero-copy path: the bitmap words, the S-Labels
    and the value column are views aliasing ``data`` (read-only when
    ``data`` is, e.g. over an mmap'd SSTable).  The caller owns the
    buffer's lifetime; the FST never mutates these arrays, so sharing is
    safe.  The rank LUTs and select samples are still built fresh — they
    are derived, engine-private, and small.
    """
    r = _Reader(data, MAGIC, "FST")
    (
        n_keys,
        height,
        dense_height,
        dense_node_count,
        dense_child_count,
        sparse_node_count,
        flags,
    ) = r.unpack(_FST_HEADER)
    if flags & ~(_TRUNCATED | _HAS_VALUES) or dense_height > height:
        raise r.fail("header")

    fst = FST.__new__(FST)
    fst.n_keys = n_keys
    fst.height = height
    fst.dense_height = dense_height
    fst.dense_node_count = dense_node_count
    fst.dense_child_count = dense_child_count
    fst.sparse_node_count = sparse_node_count
    fst.truncated = bool(flags & _TRUNCATED)
    fst._label_search = "binary"

    fst.d_labels = r.bitmap(copy, dense_node_count * FANOUT)
    fst.d_haschild = r.bitmap(copy, dense_node_count * FANOUT)
    fst.d_isprefix = r.bitmap(copy, dense_node_count)
    (n_labels,) = r.unpack(_U64)
    s_labels = np.frombuffer(r.take(n_labels), dtype=np.uint8)
    fst.s_labels = s_labels.copy() if copy else s_labels
    fst.s_haschild = r.bitmap(copy, n_labels)
    fst.s_louds = r.bitmap(copy, n_labels)
    fst.values = None
    if flags & _HAS_VALUES:
        # Both forms index to plain ints; the view path aliases ``data``.
        values = r.u64_array(n_keys)
        fst.values = array("Q", values.tobytes()) if copy else int_view(values)
    r.done()
    fst._finish()
    return fst


def surf_to_bytes(surf) -> bytes:
    """Serialize a SuRF (any suffix variant; tombstones included)."""
    from ..surf.surf import SuRF

    if not isinstance(surf, SuRF):
        raise TypeError("expected a SuRF")
    fst_blob = fst_to_bytes(surf.fst)
    tombstones = bytes(surf._tombstones) if surf._tombstones is not None else b""
    header = _SURF_HEADER.pack(
        surf.hash_bits, surf.real_bits, len(fst_blob), len(tombstones)
    )
    return b"".join((
        SURF_MAGIC,
        header,
        fst_blob,
        tombstones,
        surf._hash_words.tobytes(),
        surf._real_words.tobytes(),
    ))


def surf_from_bytes(data, copy: bool = True):
    """Reconstruct a SuRF from :func:`surf_to_bytes` output.

    ``copy=False`` threads the zero-copy contract through to
    :func:`fst_from_bytes` and the suffix words; the caller keeps the
    backing buffer alive.  Tombstones are *always* copied into an owned
    ``bytearray``: they are the one mutable piece of a SuRF
    (``delete()`` sets bits in place), so a view would violate the
    read-only contract of an mmap'd source.
    """
    from ..surf.surf import SuRF, packed_words

    r = _Reader(data, SURF_MAGIC, "SuRF")
    hash_bits, real_bits, fst_len, tomb_len = r.unpack(_SURF_HEADER)
    if max(hash_bits, real_bits) > 64:
        raise r.fail("suffix width")
    fst = fst_from_bytes(r.take(fst_len), copy=copy)
    if fst.values is not None:
        raise r.fail("SuRF trie with a value column")
    n = fst.n_keys
    if tomb_len not in (0, (n + 7) // 8):
        raise r.fail("tombstone length")
    tombstones = bytearray(r.take(tomb_len)) if tomb_len else None
    words = []
    for bits in (hash_bits, real_bits):
        arr = r.u64_array(packed_words(n, bits))
        words.append(arr.copy() if copy else arr)
    r.done()

    surf = SuRF.__new__(SuRF)
    if hash_bits and real_bits:
        surf.suffix_type = "mixed"
    elif hash_bits:
        surf.suffix_type = "hash"
    elif real_bits:
        surf.suffix_type = "real"
    else:
        surf.suffix_type = "none"
    surf.hash_bits = hash_bits
    surf.real_bits = real_bits
    surf.fst = fst
    surf._tombstones = tombstones
    surf._set_words(*words)
    return surf
