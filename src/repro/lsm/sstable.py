"""SSTables: immutable sorted runs with blocks, fences, and filters.

An SSTable holds sorted key-value pairs divided into fixed-size blocks
(the smallest disk access units).  The per-block "restarting points"
(first key of each block) form the fence index kept in the table cache;
an optional filter (Bloom or SuRF) guards the table (Section 4.2).

A table is a file written block by block by :func:`write_sstable` (a
flush feeds it :func:`column_blocks`, a compaction its merge's blocks)
and read by :class:`DiskSSTable`: only the footer (fences, offsets,
filter) is resident, and ``read_block`` opens a block in place over the
table's map with CRC verification — the engine counts each one that
misses its block cache as one I/O.

On-disk layout (all units CRC-framed, see :mod:`.disk_format`)::

    [block 0] [block 1] ... [block n-1] [filter frame] [footer frame]
    <u32 footer_frame_len> <magic "LSM6">

The footer is found from the fixed-size trailer at the end of the
file, RocksDB-style, so a table is self-describing.  The magic doubles
as the format tag: "LSM6" blocks are columnar behind a header of
entry count, key width, value width and flags (see
:func:`~repro.lsm.disk_format.encode_block`) — a block whose keys share
one length and whose values share one length stores no offsets, and an
all-``bytes`` block no value tags — and its SuRF filter frame is an
``SRF2`` blob around an ``FST3`` trie (:mod:`repro.fst.serialize`: no
value column, packed suffixes, byte S-Labels, no per-level tables).  A
file written with an older layout — "LSM5" (``FST2`` tries with
per-level start tables), "LSM4" (a ``u32`` offset header in every
block), "LSM3" (``SRF1`` filters), "LSM2" length columns, "LSMS"
interleaved entries — is rejected by the magic check instead of being
misparsed.
"""

from __future__ import annotations

import contextlib
import operator
import struct
from bisect import bisect_right
from typing import Any, Iterable, Iterator, Sequence

from . import disk_format
from .disk_format import TOMBSTONE, Block, FrameError  # noqa: F401  (re-exported)
from .fs import FileSystem

DEFAULT_BLOCK_ENTRIES = 64

TABLE_MAGIC = b"LSM6"

#: Filter-blob tags in the table footer.
_FILTER_NONE = 0
_FILTER_SURF = 1
_FILTER_BLOOM = 2
_FILTER_REBUILD = 3  # unknown filter type: rebuild from keys on load


def table_file_name(table_id: int) -> str:
    return f"sst-{table_id:08d}.sst"


# -- table files -------------------------------------------------------------


def _encode_filter(flt: Any) -> tuple[int, bytes]:
    if flt is None:
        return _FILTER_NONE, b""
    from ..fst.serialize import surf_to_bytes
    from ..surf.surf import SuRF

    if isinstance(flt, SuRF):
        return _FILTER_SURF, surf_to_bytes(flt)
    from ..filters.bloom import BloomFilter

    if type(flt) is BloomFilter:
        return _FILTER_BLOOM, flt.to_bytes()
    return _FILTER_REBUILD, b""


def _decode_filter(tag: int, blob, keys_loader, filter_factory, copy: bool = True) -> Any:
    """Decode a filter blob.

    With ``copy=False`` the filter's internal arrays are
    ``np.frombuffer`` *views* over ``blob`` (the zero-copy mmap path);
    the caller must keep the backing buffer alive for the filter's
    lifetime — which :class:`DiskSSTable` does by holding its
    :class:`~repro.lsm.fs.MappedFile` open.
    """
    if tag == _FILTER_NONE:
        return None
    if tag == _FILTER_SURF:
        from ..fst.serialize import surf_from_bytes

        return surf_from_bytes(blob, copy=copy)
    if tag == _FILTER_BLOOM:
        from ..filters.bloom import BloomFilter

        return BloomFilter.from_bytes(blob, copy=copy)
    if tag == _FILTER_REBUILD:
        # The filter type had no serializer: rebuild it from the table's
        # keys (one full scan at load time — correct, if not cheap).
        if filter_factory is None:
            return None
        return filter_factory(keys_loader())
    raise FrameError(f"unknown filter tag {tag}")


def column_blocks(
    keys: Sequence[bytes], values: Sequence[bytes], block_entries: int = DEFAULT_BLOCK_ENTRIES
) -> Iterator[tuple[Sequence[bytes], Sequence[bytes]]]:
    """Two parallel columns — sorted, distinct ``keys`` and their
    encoded values, as a flush has them — cut every ``block_entries``
    into the blocks :func:`write_sstable` takes."""
    if len(values) != len(keys):
        raise ValueError("SSTable values must parallel keys")
    cut = range(0, len(keys), block_entries)
    return ((keys[i : i + block_entries], values[i : i + block_entries]) for i in cut)


def write_sstable(
    fs: FileSystem,
    path: str,
    blocks: Iterable[tuple[Sequence[bytes], Sequence[bytes]]],
    table_id: int,
    filter_factory=None,
) -> None:
    """Write one table file from ``blocks`` — each one block's columns:
    sorted, distinct keys and their encoded values
    (:func:`~repro.lsm.disk_format.encode_value`), the keys ascending
    across blocks — as blocks, filter, footer; then fsync.  The one
    table build: a flush feeds it its columns cut by
    :func:`column_blocks`, a compaction the blocks it cuts from its
    merge (which therefore runs inside this call).

    Each block is encoded and appended as soon as it arrives, so what
    the writer holds is the fences and block spans and — only when
    ``filter_factory`` must build a filter over them at the end — the
    key column.  On any failure the file handle is closed before the
    error propagates; the partial file is an orphan no manifest names.

    The file is complete and durable when this returns; visibility is
    the manifest's job (a crash before the manifest install leaves an
    orphan file that recovery garbage-collects).
    """
    f = fs.create(path)
    try:
        spans: list[tuple[int, int]] = []  # (offset, framed length) per block
        fences: list[bytes] = []
        column: list[bytes] | None = [] if filter_factory else None
        pos, n, last = 0, 0, None
        for keys, values in blocks:
            if len(values) != len(keys):
                raise ValueError("SSTable values must parallel keys")
            if (last is not None and last >= keys[0]) or not all(map(operator.lt, keys, keys[1:])):
                raise ValueError("SSTable keys must be sorted and distinct")
            raw = disk_format.encode_block(keys, values)
            f.append(raw)
            spans.append((pos, len(raw)))
            fences.append(keys[0])
            pos, n, last = pos + len(raw), n + len(keys), keys[-1]
            if column is not None:
                column += keys
        if not n:
            raise ValueError("SSTable cannot be empty")
        filter_tag, filter_blob = _encode_filter(filter_factory(column) if filter_factory else None)
        filter_frame = disk_format.frame(bytes([filter_tag]) + filter_blob)
        filter_offset = pos
        f.append(filter_frame)

        footer = bytearray()
        footer += disk_format.pack_u64(table_id)
        footer += disk_format.pack_u64(n)
        footer += disk_format.pack_bytes(fences[0])
        footer += disk_format.pack_bytes(last)
        footer += disk_format.pack_u64(filter_offset)
        footer += disk_format.pack_u64(len(filter_frame))
        footer += disk_format.pack_u64(len(spans))
        for (off, length), fence in zip(spans, fences):
            footer += disk_format.pack_u64(off)
            footer += disk_format.pack_u64(length)
            footer += disk_format.pack_bytes(fence)
        footer_frame = disk_format.frame(bytes(footer))
        f.append(footer_frame)
        f.append(struct.pack("<I", len(footer_frame)) + TABLE_MAGIC)
        f.sync()
    except BaseException:
        # The write's own error is the one to report, not a second one
        # the close of a failed file may raise.
        with contextlib.suppress(Exception):
            f.close()
        raise
    f.close()


class DiskSSTable:
    """A file-backed table reader over one ``mmap`` of the table file.

    Everything is lazy: constructing with a known ``table_id`` (the
    manifest records it) does **zero** I/O, so ``LSMTree.open`` is O(1)
    per table regardless of table sizes.  The first real access maps
    the file once and parses the footer; the filter blob is decoded
    on the first probe — and decoded *as views*: its ``np.frombuffer``
    arrays alias the mapping directly (see :func:`_decode_filter`),
    so N shard processes share one page-cache copy of every filter.

    ``read_block`` checks each block frame's CRC over a ``memoryview``
    slice of the mapping and opens the
    :class:`~repro.lsm.disk_format.Block` in place over it: no payload
    is copied, and what a block hands out is a fresh object, never a
    view of the map.  A block keeps the :class:`~repro.lsm.fs.MappedFile`
    it was opened over, so ``close()`` — once no version references
    the table — ends every such block: each raises from then on, and a
    later fetch maps the file again.  ``close()`` drops the filter
    too, so its views let go of the map, and is safe with views still
    outstanding (see :class:`~repro.lsm.fs.MappedFile`).
    """

    def __init__(
        self,
        fs: FileSystem,
        path: str,
        filter_factory=None,
        table_id: int | None = None,
    ) -> None:
        self._fs = fs
        self.path = path
        self._filter_factory = filter_factory
        self._map = None
        self._footer_loaded = False
        self._filter_loaded = False
        self._filter: Any = None
        self._table_id = table_id
        self._filter_span: tuple[int, int] = (0, 0)
        if table_id is None:
            self._ensure_footer()

    # -- lazy loading ------------------------------------------------------

    def _ensure_map(self):
        if self._map is None or self._map.closed:
            self._map = self._fs.open_mmap(self.path)
        return self._map

    def _ensure_footer(self) -> None:
        if self._footer_loaded:
            return
        data = self._ensure_map().view
        path = self.path
        if len(data) < 8 or bytes(data[-4:]) != TABLE_MAGIC:
            raise FrameError(f"{path}: not an SSTable (bad magic)")
        (footer_len,) = struct.unpack("<I", data[-8:-4])
        if footer_len + 8 > len(data):
            raise FrameError(f"{path}: footer length out of range")
        # The footer is small and long-lived: materialize it so fences
        # and min/max keys are real bytes, not views of the map.
        footer, _ = disk_format.read_frame(bytes(data[-8 - footer_len : -8]))
        off = 0
        footer_tid, off = disk_format.unpack_u64(footer, off)
        if self._table_id is not None and footer_tid != self._table_id:
            raise FrameError(
                f"{path}: footer table id {footer_tid} != manifest id {self._table_id}"
            )
        self._table_id = footer_tid
        self._n_entries, off = disk_format.unpack_u64(footer, off)
        self._min_key, off = disk_format.unpack_bytes(footer, off)
        self._max_key, off = disk_format.unpack_bytes(footer, off)
        filter_offset, off = disk_format.unpack_u64(footer, off)
        filter_len, off = disk_format.unpack_u64(footer, off)
        n_blocks, off = disk_format.unpack_u64(footer, off)
        # Built locally and published whole: readers on several threads
        # may parse the same footer at once, and appending to the
        # attributes would let their parses interleave into one list.
        spans: list[tuple[int, int]] = []
        fences: list[bytes] = []
        for _ in range(n_blocks):
            boff, off = disk_format.unpack_u64(footer, off)
            blen, off = disk_format.unpack_u64(footer, off)
            fence, off = disk_format.unpack_bytes(footer, off)
            spans.append((boff, blen))
            fences.append(fence)
        if off != len(footer):
            raise FrameError(f"{path}: trailing bytes in footer")
        self._block_spans, self._fences = spans, fences
        self._filter_span = (filter_offset, filter_len)
        self._footer_loaded = True

    def _ensure_filter(self) -> Any:
        if self._filter_loaded:
            return self._filter
        self._ensure_footer()
        foff, flen = self._filter_span
        payload, _ = disk_format.read_frame(self._ensure_map().view[foff : foff + flen])
        self._filter = _decode_filter(
            payload[0],
            payload[1:],  # memoryview slice: the filter aliases the map
            keys_loader=lambda: [k for k, _ in self.cells()],
            filter_factory=self._filter_factory,
            copy=False,
        )
        self._filter_loaded = True
        return self._filter

    # -- the engine's read surface (all lazy) -----------------------------

    @property
    def table_id(self) -> int:
        if self._table_id is None:
            self._ensure_footer()
        return self._table_id

    @property
    def fences(self) -> list[bytes]:
        self._ensure_footer()
        return self._fences

    @property
    def min_key(self) -> bytes:
        self._ensure_footer()
        return self._min_key

    @property
    def max_key(self) -> bytes:
        self._ensure_footer()
        return self._max_key

    @property
    def n_entries(self) -> int:
        self._ensure_footer()
        return self._n_entries

    @property
    def filter(self) -> Any:
        return self._ensure_filter()

    @property
    def n_blocks(self) -> int:
        self._ensure_footer()
        return len(self._block_spans)

    def read_block(self, idx: int) -> Block:
        self._ensure_footer()
        off, length = self._block_spans[idx]
        return disk_format.open_block(self._ensure_map(), off, length)

    def block_for(self, key: bytes) -> int:
        """Index of the block that may contain ``key``."""
        idx = bisect_right(self.fences, key) - 1
        return max(idx, 0)

    def overlaps(self, lo: bytes, hi: bytes) -> bool:
        return not (self.max_key < lo or self.min_key > hi)

    def filter_seek(self, key: bytes):
        """SuRF moveToNext on the table's filter, or None if the filter
        cannot answer (absent or a Bloom filter)."""
        flt = self.filter
        if flt is None or not hasattr(flt, "move_to_next"):
            return None
        return flt.move_to_next(key)

    def items(self) -> Iterator[tuple[bytes, Any]]:
        for idx in range(self.n_blocks):
            yield from self.read_block(idx)

    def cells(self) -> Iterator[tuple[bytes, bytes]]:
        """Every entry in key order as its blocks store it
        (:meth:`Block.cells`), one block at a time — uncached, like
        :meth:`items`."""
        for idx in range(self.n_blocks):
            yield from self.read_block(idx).cells()

    def filter_memory_bytes(self) -> int:
        return self.filter.memory_bytes() if self.filter is not None else 0

    def close(self) -> None:
        """Release the filter and the mapping (tolerates outstanding
        views)."""
        self._filter, self._filter_loaded = None, False
        if self._map is not None:
            self._map.close()
            self._map = None


#: The name the paper-facing docs use for the zero-copy reader.
SSTableReader = DiskSSTable
