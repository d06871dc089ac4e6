"""SSTables: immutable sorted runs with blocks, fences, and filters.

An SSTable holds sorted key-value pairs divided into fixed-size blocks
(the smallest disk access units).  The per-block "restarting points"
(first key of each block) form the fence index kept in the table cache;
an optional filter (Bloom or SuRF) guards the table (Section 4.2).

Two concrete kinds share one interface (:class:`SSTableBase`):

* :class:`SSTable` keeps its blocks in memory — the original simulated
  engine, where reading an uncached block costs one *counted* I/O;
* :class:`DiskSSTable` is backed by a file written by
  :func:`write_sstable`; only the footer (fences, offsets, filter) is
  resident, and ``read_block`` does a real positioned read with CRC
  verification.

On-disk layout (all units CRC-framed, see :mod:`.disk_format`)::

    [block 0] [block 1] ... [block n-1] [filter frame] [footer frame]
    <u32 footer_frame_len> <magic "LSM2">

The footer is found from the fixed-size trailer at the end of the
file, RocksDB-style, so a table is self-describing.  The magic doubles
as the format tag: "LSM2" blocks are columnar (see
:func:`~repro.lsm.disk_format.encode_block`), and a file written with
the interleaved "LSMS" layout is rejected by the magic check instead
of being misparsed.
"""

from __future__ import annotations

import operator
import struct
from bisect import bisect_left, bisect_right
from typing import Any, Iterator, Sequence

from . import disk_format
from .disk_format import TOMBSTONE, Block, FrameError  # noqa: F401  (re-exported)
from .fs import FileSystem

DEFAULT_BLOCK_ENTRIES = 64

TABLE_MAGIC = b"LSM2"

#: Filter-blob tags in the table footer.
_FILTER_NONE = 0
_FILTER_SURF = 1
_FILTER_BLOOM = 2
_FILTER_REBUILD = 3  # unknown filter type: rebuild from keys on load


def table_file_name(table_id: int) -> str:
    return f"sst-{table_id:08d}.sst"


class SSTableBase:
    """Interface both table kinds implement.

    Concrete subclasses provide ``table_id``, ``fences``, ``min_key``,
    ``max_key``, ``n_entries``, ``filter``, ``n_blocks`` and
    ``read_block``.
    """

    table_id: int
    fences: list[bytes]
    min_key: bytes
    max_key: bytes
    n_entries: int
    filter: Any

    @property
    def n_blocks(self) -> int:
        raise NotImplementedError

    def read_block(self, idx: int) -> Block:
        raise NotImplementedError

    def block_for(self, key: bytes) -> int:
        """Index of the block that may contain ``key``."""
        idx = bisect_right(self.fences, key) - 1
        return max(idx, 0)

    def overlaps(self, lo: bytes, hi: bytes) -> bool:
        return not (self.max_key < lo or self.min_key > hi)

    def may_contain(self, key: bytes) -> bool:
        """Filter probe (no I/O); True when no filter is attached."""
        flt = self.filter
        if flt is None:
            return self.min_key <= key <= self.max_key
        return flt.lookup(key) if hasattr(flt, "lookup") else flt.may_contain(key)

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

    def cells_between(
        self, low: bytes | None, high: bytes | None
    ) -> list[tuple[bytes, Any]]:
        """Entries with ``low <= key < high`` (``None`` = unbounded) in
        key order, as their blocks store them (:meth:`Block.cells`).
        The fences pick the blocks, so only those the range touches are
        read — uncached, like :meth:`items`."""
        fences = self.fences
        first = 0 if low is None else self.block_for(low)
        last = len(fences) if high is None else bisect_left(fences, high)
        out: list[tuple[bytes, Any]] = []
        for idx in range(first, last):
            block = self.read_block(idx)
            start = block.first_ge(low) if low is not None and idx == first else 0
            stop = block.first_ge(high) if high is not None and idx == last - 1 else None
            out += block.cells(start, stop)
        return out

    def filter_memory_bytes(self) -> int:
        return self.filter.memory_bytes() if self.filter is not None else 0

    def close(self) -> None:
        """Release any backing resources (no-op for in-memory tables)."""


class MemBlock(Block):
    """An in-memory table's block: the :class:`Block` read surface over
    two parallel lists (heap tables hold arbitrary Python values, so
    there is no payload to decode, and a value is stored as itself).
    The key list is the one a hot ``Block`` materializes, so searches
    take the same bisect."""

    __slots__ = ("_values",)

    def __init__(self, keys: list[bytes], values: list[Any]) -> None:
        self._n = len(keys)
        self._keys = keys
        self._values = values

    def key(self, i: int) -> bytes:
        return self._keys[i]

    def value(self, i: int) -> Any:
        return self._values[i]

    def cells(self, start: int = 0, stop: int | None = None) -> Iterator[tuple[bytes, Any]]:
        return zip(self._keys[start:stop], self._values[start:stop])


class SSTable(SSTableBase):
    """One immutable in-memory sorted run.

    ``table_id`` should come from the owning engine's allocator so ids
    are engine-scoped (and persistable); the module-level fallback
    counter exists only for standalone construction in tests, where no
    block cache is shared between engines.
    """

    _fallback_id = 0

    def __init__(
        self,
        keys: Sequence[bytes],
        values: Sequence[Any],
        block_entries: int = DEFAULT_BLOCK_ENTRIES,
        filter_factory=None,
        table_id: int | None = None,
    ) -> None:
        """The same columns as :func:`write_sstable`, except that a
        value is stored as itself: ``keys`` strictly increasing,
        ``values[i]`` belonging to ``keys[i]``."""
        if not keys:
            raise ValueError("SSTable cannot be empty")
        if len(values) != len(keys):
            raise ValueError("SSTable values must parallel keys")
        if not all(map(operator.lt, keys, keys[1:])):
            raise ValueError("SSTable keys must be sorted and distinct")
        if table_id is None:
            table_id = SSTable._fallback_id
            SSTable._fallback_id += 1
        self.table_id = table_id
        self.blocks = [
            MemBlock(list(keys[i : i + block_entries]), list(values[i : i + block_entries]))
            for i in range(0, len(keys), block_entries)
        ]
        self.fences = list(keys[::block_entries])
        self.min_key = keys[0]
        self.max_key = keys[-1]
        self.n_entries = len(keys)
        # Filters guard only live keys (tombstones would false-negative
        # reads of older versions, so they are included as keys too).
        self.filter = filter_factory(keys) if filter_factory else None

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def read_block(self, idx: int) -> Block:
        return self.blocks[idx]


# -- durable tables ----------------------------------------------------------


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


def write_sstable(
    fs: FileSystem,
    path: str,
    keys: Sequence[bytes],
    values: Sequence[bytes],
    table_id: int,
    block_entries: int = DEFAULT_BLOCK_ENTRIES,
    filter_factory=None,
) -> None:
    """Write one table file from two columns — sorted, distinct
    ``keys`` and their already-encoded ``values``
    (:func:`~repro.lsm.disk_format.encode_value`) — as blocks, filter,
    footer; then fsync.

    The file is complete and durable when this returns; visibility is
    the manifest's job (a crash before the manifest install leaves an
    orphan file that recovery garbage-collects).
    """
    if not keys:
        raise ValueError("SSTable cannot be empty")
    flt = filter_factory(keys) if filter_factory else None
    filter_tag, filter_blob = _encode_filter(flt)

    f = fs.create(path)
    offsets: list[tuple[int, int]] = []  # (offset, framed length) per block
    fences = keys[::block_entries]
    pos = 0
    for i in range(0, len(keys), block_entries):
        raw = disk_format.encode_block(
            keys[i : i + block_entries], values[i : i + block_entries]
        )
        offsets.append((pos, len(raw)))
        f.append(raw)
        pos += len(raw)
    filter_frame = disk_format.frame(bytes([filter_tag]) + filter_blob)
    filter_offset = pos
    f.append(filter_frame)
    pos += len(filter_frame)

    footer = bytearray()
    footer += disk_format.pack_u64(table_id)
    footer += disk_format.pack_u64(len(keys))
    footer += disk_format.pack_bytes(keys[0])
    footer += disk_format.pack_bytes(keys[-1])
    footer += disk_format.pack_u64(filter_offset)
    footer += disk_format.pack_u64(len(filter_frame))
    footer += disk_format.pack_u64(len(offsets))
    for (off, length), fence in zip(offsets, fences):
        footer += disk_format.pack_u64(off)
        footer += disk_format.pack_u64(length)
        footer += disk_format.pack_bytes(fence)
    footer_frame = disk_format.frame(bytes(footer))
    f.append(footer_frame)
    f.append(struct.pack("<I", len(footer_frame)) + TABLE_MAGIC)
    f.sync()
    f.close()


class DiskSSTable(SSTableBase):
    """A file-backed table reader over one ``mmap`` of the table file.

    Everything is lazy: constructing with a known ``table_id`` (the
    manifest records it) does **zero** I/O, so ``LSMTree.open`` is O(1)
    per table regardless of table sizes.  The first real access maps
    the file once and parses the footer; the filter blob is decoded
    on the first probe — and decoded *as views*: its ``np.frombuffer``
    arrays alias the mapping directly (see :func:`_decode_filter`),
    so N shard processes share one page-cache copy of every filter.

    ``read_block`` checks each block frame's CRC over a ``memoryview``
    slice of the mapping and copies the payload out once into a
    :class:`~repro.lsm.disk_format.Block`, so nothing returned to
    callers aliases the map.  ``close()`` is safe with views
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
            keys_loader=lambda: [k for k, _ in self.cells_between(None, None)],
            filter_factory=self._filter_factory,
            copy=False,
        )
        self._filter_loaded = True
        return self._filter

    # -- SSTableBase surface (all lazy) ------------------------------------

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
        return disk_format.decode_block(self._ensure_map().view[off : off + length])

    def close(self) -> None:
        """Release the mapping (tolerates outstanding views)."""
        if self._map is not None:
            self._map.close()
            self._map = None


#: The name the paper-facing docs use for the zero-copy reader.
SSTableReader = DiskSSTable
