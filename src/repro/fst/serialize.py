"""FST and SuRF serialization.

The paper's flagship deployment persists one SuRF per SSTable next to
the table file (Section 4.2), so filters must round-trip through bytes.
The format is a little-endian header + the raw succinct arrays; rank
and select supports are derived structures and are rebuilt on load
with the FST defaults.

Values must be non-negative 64-bit integers (key indexes / record
pointers), which is what both SuRF and the paper's index workloads
store.
"""

from __future__ import annotations

import struct

import numpy as np

from ..succinct.bitvector import BitVector, int_view
from .fst import FST

MAGIC = b"FST1"
SURF_MAGIC = b"SRF1"


def _pack_bitvector(bv: BitVector) -> bytes:
    words = bv.words.tobytes()
    return struct.pack("<QQ", len(bv), len(words)) + words


def _unpack_bitvector(
    buf: memoryview, offset: int, copy: bool = True
) -> tuple[BitVector, int]:
    n_bits, n_bytes = struct.unpack_from("<QQ", buf, offset)
    offset += 16
    raw = buf[offset : offset + n_bytes]
    if len(raw) != n_bytes or n_bytes % 8:
        raise ValueError("corrupt FST blob: truncated or misaligned bit vector")
    # copy=False keeps an np.frombuffer view over the caller's buffer:
    # read-only (so is the BitVector — it never mutates its words after
    # construction) and aliasing the buffer's lifetime.
    words = np.frombuffer(raw, dtype=np.uint64)
    if copy:
        words = words.copy()
    # BitVector.__init__ rejects nonzero padding, so a tampered buffer
    # fails loudly here instead of silently corrupting rank/select.
    try:
        return BitVector(words, n_bits), offset + n_bytes
    except ValueError as exc:
        raise ValueError(f"corrupt FST blob: {exc}") from exc


def _pack_u64_list(values) -> bytes:
    arr = np.asarray(list(values), dtype=np.uint64)
    raw = arr.tobytes()
    return struct.pack("<Q", len(arr)) + raw


def _unpack_u64_list(buf: memoryview, offset: int) -> tuple[list[int], int]:
    (n,) = struct.unpack_from("<Q", buf, offset)
    offset += 8
    # Deliberately a *copy* (python ints): these land in FST fields that
    # are indexed scalar-by-scalar on the hot path, where boxed numpy
    # scalars from a view would be slower, not faster.
    arr = np.frombuffer(buf[offset : offset + 8 * n], dtype=np.uint64)
    return [int(v) for v in arr], offset + 8 * n


def _unpack_u64_view(buf: memoryview, offset: int) -> tuple[memoryview, int]:
    """View-path variant of :func:`_unpack_u64_list`: a zero-copy
    memoryview (read-only when the buffer is) whose items are plain
    ints, as fast to index as the list."""
    (n,) = struct.unpack_from("<Q", buf, offset)
    offset += 8
    arr = np.frombuffer(buf[offset : offset + 8 * n], dtype=np.uint64)
    return int_view(arr), offset + 8 * n


def fst_to_bytes(fst: FST) -> bytes:
    """Serialize an FST whose values are non-negative integers."""
    parts = [
        MAGIC,
        struct.pack(
            "<QQQQQQB",
            fst.n_keys,
            fst.height,
            fst.dense_height,
            fst.dense_node_count,
            fst.dense_child_count,
            fst.sparse_node_count,
            1 if fst.truncated else 0,
        ),
        _pack_bitvector(fst.d_labels),
        _pack_bitvector(fst.d_haschild),
        _pack_bitvector(fst.d_isprefix),
        _pack_u64_list(fst.d_values),
        struct.pack("<Q", len(fst.s_labels)),
        fst.s_labels.astype(np.int16).tobytes(),
        _pack_bitvector(fst.s_haschild),
        _pack_bitvector(fst.s_louds),
        _pack_u64_list(fst.s_values),
        _pack_u64_list(fst._dense_level_node_start),
        _pack_u64_list(fst._sparse_level_start),
    ]
    return b"".join(parts)


def fst_from_bytes(data, copy: bool = True) -> FST:
    """Reconstruct an FST; rank/select supports are rebuilt.

    ``copy=False`` is the zero-copy path: the bit-vector words, sparse
    labels, and value columns are views aliasing ``data`` (read-only
    when ``data`` is, e.g. over an mmap'd SSTable).
    The caller owns the buffer's lifetime; the FST never mutates these
    arrays, so sharing is safe.  Rank/select supports are still built
    fresh — they are derived, engine-private, and small.
    """
    buf = memoryview(data)
    if bytes(buf[:4]) != MAGIC:
        raise ValueError("not an FST blob (bad magic)")
    offset = 4
    (
        n_keys,
        height,
        dense_height,
        dense_node_count,
        dense_child_count,
        sparse_node_count,
        truncated,
    ) = struct.unpack_from("<QQQQQQB", buf, offset)
    offset += struct.calcsize("<QQQQQQB")

    fst = FST.__new__(FST)
    fst.n_keys = n_keys
    fst.height = height
    fst.dense_height = dense_height
    fst.dense_node_count = dense_node_count
    fst.dense_child_count = dense_child_count
    fst.sparse_node_count = sparse_node_count
    fst.truncated = bool(truncated)
    fst.suffixes = []  # reconstructible only from the key corpus
    fst._label_search = "binary"

    unpack_values = _unpack_u64_list if copy else _unpack_u64_view
    fst.d_labels, offset = _unpack_bitvector(buf, offset, copy)
    fst.d_haschild, offset = _unpack_bitvector(buf, offset, copy)
    fst.d_isprefix, offset = _unpack_bitvector(buf, offset, copy)
    fst.d_values, offset = unpack_values(buf, offset)
    (n_labels,) = struct.unpack_from("<Q", buf, offset)
    offset += 8
    s_labels = np.frombuffer(buf[offset : offset + 2 * n_labels], dtype=np.int16)
    fst.s_labels = s_labels.copy() if copy else s_labels
    offset += 2 * n_labels
    fst.s_haschild, offset = _unpack_bitvector(buf, offset, copy)
    fst.s_louds, offset = _unpack_bitvector(buf, offset, copy)
    fst.s_values, offset = unpack_values(buf, offset)
    # Level-start tables are a handful of entries, indexed per lookup:
    # always materialize to python ints.
    fst._dense_level_node_start, offset = _unpack_u64_list(buf, offset)
    fst._sparse_level_start, offset = _unpack_u64_list(buf, offset)

    fst._finish()
    return fst


def surf_to_bytes(surf) -> bytes:
    """Serialize a SuRF (any suffix variant; tombstones included)."""
    from ..surf.surf import SuRF

    if not isinstance(surf, SuRF):
        raise TypeError("expected a SuRF")
    fst_blob = fst_to_bytes(surf.fst)
    tombstones = bytes(surf._tombstones) if surf._tombstones is not None else b""
    header = struct.pack(
        "<BBQQ",
        surf.hash_bits,
        surf.real_bits,
        len(fst_blob),
        len(tombstones),
    )
    return (
        SURF_MAGIC
        + header
        + fst_blob
        + tombstones
        + _pack_u64_list(surf._hash_suffixes)
        + _pack_u64_list(surf._real_suffixes)
    )


def surf_from_bytes(data, copy: bool = True):
    """Reconstruct a SuRF from :func:`surf_to_bytes` output.

    ``copy=False`` threads the zero-copy contract through to
    :func:`fst_from_bytes` and the suffix arrays; the caller keeps the
    backing buffer alive.  Tombstones are *always* copied into an owned
    ``bytearray``: they are the one mutable piece of a SuRF
    (``delete()`` sets bits in place), so a view would violate the
    read-only contract of an mmap'd source.
    """
    from ..surf.surf import SuRF

    buf = memoryview(data)
    if bytes(buf[:4]) != SURF_MAGIC:
        raise ValueError("not a SuRF blob (bad magic)")
    offset = 4
    hash_bits, real_bits, fst_len, tomb_len = struct.unpack_from("<BBQQ", buf, offset)
    offset += struct.calcsize("<BBQQ")
    fst_blob = buf[offset : offset + fst_len]
    fst = fst_from_bytes(bytes(fst_blob) if copy else fst_blob, copy=copy)
    offset += fst_len
    tombstones = bytearray(buf[offset : offset + tomb_len]) if tomb_len else None
    offset += tomb_len
    unpack_values = _unpack_u64_list if copy else _unpack_u64_view
    hash_suffixes, offset = unpack_values(buf, offset)
    real_suffixes, offset = unpack_values(buf, offset)

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
    surf._hash_suffixes = hash_suffixes
    surf._real_suffixes = real_suffixes
    return surf
