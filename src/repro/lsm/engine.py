"""A leveled LSM-tree storage engine (Section 4.2).

The architecture mirrors Figure 4.2 with the LevelDB lifecycle: writes
land in a *mutable* memtable; at capacity the memtable **freezes** into
an immutable list; a flush turns each immutable memtable into a level-0
SSTable; compaction merges runs downward so that every level >= 1
holds disjoint key ranges.  The memtable is a plain dict by default
(:class:`DictMemtable`: a WAL group commit is one ``dict.update``, a
flush sorts once); ``memtable_factory`` swaps in the gapped,
batch-updatable B+tree (:class:`GappedMemtable`), which pays off only
under batches far larger than a served shard commits and is loaded,
with numpy, only when built.  A block cache (CLOCK) approximates
RocksDB's block cache + OS page cache; fence indexes and filters live
in the always-resident table cache.

Query execution follows the Figure 4.3 flowcharts, and performance is
reported as simulated I/Os: every block fetch that misses the cache
costs one I/O.

There is one write lifecycle — ``_freeze`` → ``_flush_frozen`` →
``_compact_level`` is the only code that seals a memtable, rotates a
WAL segment, writes a table or installs a version or a manifest — and
``background`` only picks the **executor** of the queued work:

* **caller-run** (``background=False``, the default): the writer that
  froze a memtable drains the queue on its own thread before it
  returns (flush the frozen memtables oldest first, then compact until
  no level is over its limit) — no threads, fully deterministic, which
  the kill-at-every-sync-point matrix and the differential fuzzer rely
  on, and the commit order they sweep is the one the server ships;
* **thread-run** (``background=True``): a flusher thread and a
  compaction thread run the same steps while writers only pay for the
  WAL append and a memtable insert.  Backpressure replaces waiting for
  one's own flush: crossing ``l0_slowdown`` L0 tables injects a small
  sleep per write, and crossing ``l0_stall`` (or piling up
  ``max_immutables`` frozen memtables) stalls the writer until the
  threads catch up — both are counted and exported via
  :meth:`LSMTree.info`.

Compaction has two triggers and one path: a level over its table
limit, and level 0 once point reads have wasted enough probes on its
overlapping tables to pay for rewriting them (*read debt*, see
``_READ_DEBT_PER_ENTRY``) — both are offers of ``_next_compaction``
and run through ``_compact_level`` under either executor.

There is one storage mode, too.  Writes are sequenced through a
write-ahead log with batched fsync (group commit), flushes and
compactions write CRC-framed table files and commit them through a
versioned manifest (write-temp → sync → rename), and
:meth:`LSMTree.open` recovers exactly the last acknowledged state — a
write is acknowledged once its WAL record is fsynced
(``seq <= last_acked_seq``).  Every value is stored encoded
(``int`` / ``bytes`` / ``str``; anything else raises ``TypeError``).
An engine built without a ``path`` runs the same code on a private
in-memory filesystem (:class:`~repro.lsm.fs.MemFS`), and
``LSMTree.open(db.path, fs=db.fs)`` recovers it like any other.

**Snapshots.**  Every write is stamped with a sequence number;
:meth:`LSMTree.snapshot` pins the current one and returns a
:class:`Snapshot` whose reads see exactly the pinned state while
flushes and compactions proceed underneath.  Consistency comes from
two mechanisms: the memtable stack (mutable + immutables) is merged
into one frozen dict at pin time, and the table layout is captured as
a refcounted :class:`_Version` — compaction installs a *new* version
instead of mutating the old one, and a replaced table's blocks are
evicted and its file unlinked only when the last version referencing
it is released (which is what keeps the §7 mmap views in DESIGN.md
valid for iterators that outlive a compaction).

Crash-safety invariants the recovery tests machine-check:

1. a table file is always fully written and fsynced before any
   manifest references it;
2. the manifest version switch (CURRENT rename) is the only commit
   point — a crash on either side leaves a consistent old/new state;
3. a WAL segment is deleted only after the manifest that supersedes it
   is installed, and a memtable's segment is fsynced *before* the next
   segment is created, so the live segments always replay to a gap-free
   sequence prefix;
4. recovery garbage-collects every file the current manifest does not
   reference, so half-installed flushes and orphaned compaction
   outputs cannot resurrect.
"""

from __future__ import annotations

import heapq
import threading
import time
from bisect import bisect_left, bisect_right
from itertools import islice, takewhile
from typing import Any, Callable, Iterator, Sequence

from ..compact.node_cache import ClockNodeCache
from . import disk_format
from . import manifest as manifest_mod
from . import wal as wal_mod
from .fs import FileSystem, MemFS, OsFileSystem, join
from .manifest import ManifestState
from .sstable import (
    DEFAULT_BLOCK_ENTRIES,
    Block,
    DiskSSTable,
    SSTableBase,
    TOMBSTONE,
    table_file_name,
    write_sstable,
)


class IoStats:
    """Simulated I/O and filter-probe counters since the last
    :meth:`reset`.

    Block traffic is read off the block cache's own hit/miss counters,
    which move under the cache's lock: every block fetch is exactly one
    read or one hit, however many threads are reading."""

    __slots__ = ("_cache", "_reads_base", "_hits_base", "filter_probes", "filter_negatives")

    def __init__(self, block_cache: ClockNodeCache) -> None:
        self._cache = block_cache
        self.reset()

    def reset(self) -> None:
        self._reads_base = self._cache.misses
        self._hits_base = self._cache.hits
        #: Point-read probes against a per-table filter, and how many
        #: proved the table could not hold the key (I/O avoided) — the
        #: serving layer reports these as the filter hit rate.
        self.filter_probes = 0
        self.filter_negatives = 0

    @property
    def block_reads(self) -> int:
        """Block fetches that missed the cache (one simulated I/O each)."""
        return self._cache.misses - self._reads_base

    @property
    def cache_hits(self) -> int:
        return self._cache.hits - self._hits_base


class DictMemtable:
    """The engine's default memtable: a plain dict, sorted at flush
    time.

    A served shard commits about five entries per ``write_batch``, and
    at that size one ``dict.update`` plus one C sort per flush beats
    the gapped tree's batch insert (``benchmarks/results/
    batch_updates.txt``); it also loads nothing beyond the standard
    library.  It is the minimal example of the memtable protocol:
    ``put`` / ``put_many``,
    mapping reads (``in`` / ``[]`` must be safe without the engine
    lock), *sorted* ``items()`` and ``columns()`` (the flush's input:
    a key list and a value list), ``len``, ``freeze_view`` returning an
    immutable snapshot for pinned scans, and ``seal`` — called once,
    at freeze, after which no method may mutate the memtable.
    """

    __slots__ = ("_data",)

    def __init__(self) -> None:
        self._data: dict[bytes, Any] = {}

    def put(self, key: bytes, value: Any) -> None:
        self._data[key] = value

    def put_many(self, pairs: Sequence[tuple[bytes, Any]]) -> None:
        # ``dict.update`` applies pairs in order: last write wins.
        self._data.update(pairs)

    def __contains__(self, key: bytes) -> bool:
        return key in self._data

    def __getitem__(self, key: bytes) -> Any:
        return self._data[key]

    def get(self, key: bytes, default: Any = None) -> Any:
        return self._data.get(key, default)

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> Iterator[bytes]:
        return iter(sorted(self._data))

    def items(self) -> Iterator[tuple[bytes, Any]]:
        return iter(sorted(self._data.items()))

    def columns(self) -> tuple[list[bytes], list[Any]]:
        keys = sorted(self._data)
        return keys, list(map(self._data.__getitem__, keys))

    def freeze_view(self) -> dict[bytes, Any]:
        return dict(self._data)

    def seal(self) -> None:
        """Nothing deferred: reads of a dict never mutate it."""


_MISSING = object()
#: Value slot of a cursor run's lower-bound marker (see ``_table_run``).
_BOUND = object()
#: Wasted L0 probes one rewritten entry is worth.  A point read that
#: searches an L0 table (or probes its filter) without finding its key
#: adds one unit of *read debt*; once the debt reaches this many units
#: per entry an L0 -> L1 compaction would rewrite, the reads have paid
#: as much for the compaction they did not get as it would have cost,
#: and it runs (ski rental: at most twice the cost of the better
#: choice made in hindsight, whatever the read/write mix turns out to
#: be).  Source: the "LSM wasted L0 probe, no filter" row of
#: ``benchmarks/results/batch_queries.json`` (813,998 /s = 1.2 us per
#: probe at x8, from the "L0 depth 0 / 4" rows; 2.0 us in the run
#: before) against the "LSM compaction L0->L1" row of
#: ``batch_updates.json`` (971,126 /s = 1.0 us per rewritten entry
#: since the merge carries encoded values instead of decoding and
#: re-encoding them; 627,306 /s = 1.6 us before).  A probe now costs a
#: little more than an entry, which would argue for slightly less than
#: 1, but the gap is inside the probe row's own run-to-run movement.
#: The constant stays 1 because it sets *when* compactions run, and
#: with that the layout a served shard is measured in: at 1 a single
#: pass over a bulk-loaded shard trips the trigger before it is
#: half-way, so the compaction has committed when the pass ends (at 2
#: it tripped at 75-90 % and 4 of 50 ``wire_a`` runs measured their
#: disk footprint mid-compaction, ``space_amp`` 1.66-1.79); a
#: write-heavy mix still stays clear of it (YCSB-A peaks at half the
#: threshold).
_READ_DEBT_PER_ENTRY = 1


class GappedMemtable:
    """A gapped B+tree paired with a dict mirror (``memtable_factory=
    GappedMemtable``; the default is :class:`DictMemtable`).

    Two structures hold the same live entries and split the work by
    access pattern:

    * the **mirror dict** serves every point read (one GIL-atomic hash
      probe — exactly what :class:`DictMemtable` pays) and is the
      authoritative entry count;
    * the **gapped tree** serves everything ordered — flushes read its
      leaves already in key order (no sort step, unlike
      :class:`DictMemtable`'s sort-at-flush), and pinned scans get its
      copy-on-write ``freeze_view``.

    Writes update the mirror at dict speed and accumulate in a small
    *fresh* delta dict that drains into the tree as one vectorized
    ``put_many`` when it fills; batches at least as large as the drain
    limit skip the delta and go straight to the tree.  Either way the
    tree cost is an amortized share of one batch insert per key, not a
    full tree insert per key.  ``dict.update`` applies pairs in order,
    so last-write-wins within a batch holds in both structures.

    Concurrency: writers mutate only under the engine lock; lock-free
    readers touch only the mirror, whose dict ops are GIL-atomic.
    Order-sensitive consumers (``items``, ``keys``, ``freeze_view``)
    drain the delta first; on the mutable memtable the engine calls
    them under its lock, so the drain never races a writer.  A frozen
    memtable is read by its flush and by pinned scans with no common
    lock, so ``seal`` drains the delta one last time at freeze: from
    then on those calls find it empty and mutate nothing.  Memory cost
    of the pairing is one dict slot per entry on top of the tree's
    leaf slot — bounded by the memtable size, and the mirror is
    dropped with the memtable at flush.

    The tree (and numpy with it) is imported when the first one is
    built, so an engine on the default memtable never loads it.
    """

    __slots__ = ("_tree", "_mirror", "_fresh", "_limit")

    def __init__(self, drain_limit: int = 256) -> None:
        from ..trees.gapped_btree import GappedBPlusTree

        self._tree = GappedBPlusTree()
        self._mirror: dict[bytes, Any] = {}
        self._fresh: dict[bytes, Any] = {}
        self._limit = drain_limit

    def _drain(self) -> None:
        if self._fresh:
            self._tree.put_many(list(self._fresh.items()))
            self._fresh.clear()

    def put(self, key: bytes, value: Any) -> None:
        self._mirror[key] = value
        self._fresh[key] = value
        if len(self._fresh) >= self._limit:
            self._drain()

    def put_many(self, pairs: Sequence[tuple[bytes, Any]]) -> None:
        self._mirror.update(pairs)
        if len(pairs) < self._limit:
            self._fresh.update(pairs)
            if len(self._fresh) >= self._limit:
                self._drain()
        elif self._fresh:
            # Fresh writes are older than the batch: prepend so
            # last-write-wins resolves in arrival order.
            self._tree.put_many(list(self._fresh.items()) + list(pairs))
            self._fresh.clear()
        else:
            self._tree.put_many(pairs)

    def __contains__(self, key: bytes) -> bool:
        return key in self._mirror

    def __getitem__(self, key: bytes) -> Any:
        return self._mirror[key]

    def get(self, key: bytes, default: Any = None) -> Any:
        return self._mirror.get(key, default)

    def __len__(self) -> int:
        return len(self._mirror)

    def keys(self) -> Iterator[bytes]:
        self._drain()
        return self._tree.keys()

    def items(self) -> Iterator[tuple[bytes, Any]]:
        self._drain()
        return self._tree.items()

    def columns(self) -> tuple[list[bytes], list[Any]]:
        self._drain()
        keys, values = self._tree.export_columns()
        return keys.tolist(), values.tolist()

    def freeze_view(self):
        self._drain()
        return self._tree.freeze_view()

    def seal(self) -> None:
        self._drain()


class _Version:
    """One immutable table layout, shared by reference counting.

    ``levels[0]`` is newest-first and may overlap; ``levels[i >= 1]``
    are sorted by ``min_key`` with disjoint ranges.  The engine holds
    one baseline reference on the current version; every pinned read,
    snapshot, and in-flight scan holds another.  When the count drops
    to zero the version releases its per-table references, and a table
    whose own count reaches zero is actually dropped (cache eviction +
    unlink + close) — never sooner, so a reader that pinned before a
    compaction keeps valid mmap views of the replaced tables.
    """

    __slots__ = ("levels", "refs", "_bounds", "_l0_rewrite", "debt_signalled")

    def __init__(self, levels: list[list[SSTableBase]]) -> None:
        self.levels = levels
        self.refs = 1
        self._bounds: list[tuple[list[bytes], list[bytes]]] | None = None
        self._l0_rewrite: int | None = None
        #: A reader found the read debt due on this layout and woke the
        #: compactor; later readers need not (see ``_charge_reads``).
        self.debt_signalled = False

    def tables(self) -> Iterator[SSTableBase]:
        for level in self.levels:
            yield from level

    def bounds(self) -> list[tuple[list[bytes], list[bytes]]]:
        """The probe plan: per level, every table's ``(min_keys,
        max_keys)``.  The layout is immutable, so it is computed once —
        on the first read, not at construction, because it maps each
        table's footer and opening an engine must stay zero-I/O."""
        if self._bounds is None:
            self._bounds = [
                ([t.min_key for t in level], [t.max_key for t in level])
                for level in self.levels
            ]
        return self._bounds

    def compaction_inputs(
        self, level: int
    ) -> tuple[list[SSTableBase], list[SSTableBase]]:
        """What compacting ``level`` rewrites: its sources (all of L0,
        newest first; a deeper level's first table) and the next
        level's tables their key range overlaps, in key order."""
        levels = self.levels
        sources = list(levels[level]) if level == 0 else levels[level][:1]
        if not sources:
            return [], []
        lo = min(t.min_key for t in sources)
        hi = max(t.max_key for t in sources)
        below = levels[level + 1] if level + 1 < len(levels) else []
        return sources, [t for t in below if t.overlaps(lo, hi)]

    def l0_rewrite_entries(self) -> int:
        """Entries an L0 compaction of this layout would rewrite — what
        the read debt is weighed against.  Lazy like :meth:`bounds`,
        for the same reason."""
        if self._l0_rewrite is None:
            self._l0_rewrite = sum(
                t.n_entries for tables in self.compaction_inputs(0) for t in tables
            )
        return self._l0_rewrite


class _Frozen:
    """An immutable memtable waiting to be flushed.

    Owns the WAL segment its records were logged to (already fully
    fsynced at freeze time), so recovery can replay it until the flush
    commits and the segment is deleted.
    """

    __slots__ = ("data", "last_seq", "wal", "wal_index")

    def __init__(self, data, last_seq, wal, wal_index) -> None:
        #: The sealed memtable (``seal()`` ran at freeze and no writer
        #: touches it again): no call on it mutates anything, so its
        #: mapping reads and sorted ``items()`` are safe lock-free.
        self.data = data
        self.last_seq = last_seq
        self.wal: wal_mod.WalWriter = wal
        self.wal_index = wal_index


class _View:
    """A pinned, consistent read context: memtable layers (newest
    first) plus one referenced :class:`_Version` of the table layout."""

    __slots__ = ("mems", "version", "seq", "_merged", "_sorted")

    def __init__(self, mems: list, version: _Version, seq: int) -> None:
        self.mems = mems
        self.version = version
        self.seq = seq
        self._merged: dict[bytes, Any] | None = None
        self._sorted: list[bytes] | None = None

    @property
    def levels(self) -> list[list[SSTableBase]]:
        return self.version.levels

    def merged(self) -> dict[bytes, Any]:
        """Newest-wins merge of the memtable layers (tombstones kept).

        Only safe on views whose layer dicts are frozen (snapshot
        views, or ephemeral views pinned with ``copy_mem=True``).
        """
        if self._merged is None:
            m: dict[bytes, Any] = {}
            for layer in reversed(self.mems):
                m.update(layer.items())
            self._merged = m
        return self._merged

    def mem_run(self, low: bytes) -> Iterator[tuple[bytes, Any]]:
        """The memtable side of a cursor: :meth:`merged` entries with
        key >= ``low`` in key order (sorted once per view)."""
        merged = self.merged()
        if self._sorted is None:
            self._sorted = sorted(merged)
        keys = self._sorted
        return ((keys[i], merged[keys[i]]) for i in range(bisect_left(keys, low), len(keys)))


class Snapshot:
    """A consistent point-in-time read view (``seq`` is the pin).

    Reads see exactly the writes with sequence number <= ``seq`` —
    no more, no less — while flushes and compactions proceed
    underneath.  Holds one reference on the pinned version, so no
    table it can read is unlinked until :meth:`release` (context
    manager exit releases too).
    """

    def __init__(self, engine: "LSMTree", seq: int, mem: dict, version: _Version):
        self._engine = engine
        self.seq = seq
        self._view = _View([mem], version, seq)
        self._released = False

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        """Drop the pin (idempotent).  Tables only this snapshot kept
        alive become droppable the moment this returns."""
        if self._released:
            return
        self._released = True
        self._engine._release_snapshot(self._view)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def _check(self) -> _View:
        if self._released:
            raise ValueError("snapshot already released")
        return self._view

    def get(self, key: bytes) -> Any | None:
        return self._engine._get_in(self._check(), key)

    def get_many(self, keys: Sequence[bytes]) -> list[Any]:
        return self._engine._get_many_in(self._check(), keys)

    def seek(self, low: bytes, high: bytes | None = None):
        return next(self._engine._cursor(self._check(), low, high), None)

    def scan(self, low: bytes, count: int) -> list[tuple[bytes, Any]]:
        return list(islice(self._engine._cursor(self._check(), low), max(count, 0)))

    def count(self, low: bytes, high: bytes) -> int:
        return self._engine._count_in(self._check(), low, high)

    # -- snapshot shipping (cluster resync / migration) --------------------

    def table_layout(self) -> list[list[tuple[int, str]]]:
        """The pinned version's level layout as ``(table_id, path)``
        pairs (level 0 newest-first).  Because this snapshot holds a
        reference on the version, every named file stays on disk —
        un-unlinked even across compactions — until :meth:`release`,
        which is exactly the window a resync sender needs to read the
        bytes it announced."""
        view = self._check()
        return [
            [(table.table_id, table.path) for table in level]
            for level in view.levels
        ]

    def mem_items(self) -> list[tuple[bytes, Any]]:
        """The merged memtable content at the pin, sorted by key, with
        tombstones preserved — ready to be written out as one synthetic
        newest-first L0 SSTable so a shipped snapshot is nothing but
        SSTables plus a manifest."""
        return sorted(self._check().merged().items())


class LSMTree:
    """Log-structured merge tree with pluggable per-table filters."""

    def __init__(
        self,
        memtable_entries: int = 512,
        sstable_entries: int = 4096,
        block_entries: int = DEFAULT_BLOCK_ENTRIES,
        level0_limit: int = 4,
        level_fanout: int = 10,
        block_cache_blocks: int = 128,
        filter_factory: Callable | None = None,
        path: str | None = None,
        fs: FileSystem | None = None,
        wal_sync_every: int = 32,
        background: bool = False,
        max_immutables: int = 2,
        l0_slowdown: int | None = None,
        l0_stall: int | None = None,
        slowdown_sleep: float = 0.001,
        memtable_factory: Callable[[], Any] | None = None,
        wal_observer: Callable[[list[tuple[int, bytes]]], None] | None = None,
    ) -> None:
        #: Memtable protocol (see :class:`DictMemtable`, the default):
        #: point reads on the live memtable are lock-free (one
        #: GIL-atomic probe); a read that iterates it copies it under
        #: the lock (``_pin(copy_mem=True)``).
        self._memtable_factory = memtable_factory or DictMemtable
        self._memtable = self._memtable_factory()
        self._memtable_entries = memtable_entries
        self._sstable_entries = sstable_entries
        self._block_entries = block_entries
        self._level0_limit = level0_limit
        self._level_fanout = level_fanout
        self._filter_factory = filter_factory
        self._version = _Version([[]])
        self._immutables: list[_Frozen] = []
        self._block_cache = ClockNodeCache(block_cache_blocks)
        self.io = IoStats(self._block_cache)
        #: Engine-scoped table-id allocator (persisted via the manifest,
        #: so recovered engines never reuse an id).
        self._next_table_id = 0
        #: Monotonic write sequence; every put/delete gets the next one.
        self._seq = 0
        #: Last sequence actually applied to the memtable — the pin
        #: point snapshots capture (== _seq between writes).
        self._visible_seq = 0
        #: Every seq <= this is covered by installed SSTables.
        self._flushed_seq = 0
        #: Every seq <= this is known durable via a *committed* manifest
        #: install or a full freeze-time segment sync — the conservative
        #: floor of the ack watermark.
        self._acked_floor = 0

        #: One lock guards memtable swaps, version installs, manifest
        #: writes, refcounts, and the backpressure counters; the
        #: condition signals flusher/compactor work and stall clears.
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)

        self._background = background
        self._max_immutables = max(1, max_immutables)
        self._l0_slowdown = (
            l0_slowdown if l0_slowdown is not None else level0_limit * 2
        )
        self._l0_stall = l0_stall if l0_stall is not None else level0_limit * 4
        self._slowdown_sleep = slowdown_sleep
        #: Backpressure + lifecycle counters (exported via info()).
        self.stall_count = 0
        self.slowdown_count = 0
        self.stall_seconds = 0.0
        self.flush_count = 0
        self.compaction_count = 0
        #: L0 compactions the read debt asked for (the table count had
        #: not), and the debt itself: wasted L0 probes since the last
        #: L0 compaction.  Readers bump it without the lock — it is a
        #: hint that decides *when* to compact, never an accounting
        #: figure, so a lost update only delays the trigger by a probe.
        self.read_compaction_count = 0
        self._read_debt = 0
        self._snapshots_live = 0
        self._bg_error: BaseException | None = None

        if path is None:
            path, fs = "db", MemFS()
        self.path = path
        self._fs = fs if fs is not None else OsFileSystem()
        self._wal_sync_every = wal_sync_every
        #: Commit observer threaded into every WAL segment (replication
        #: tap — see the ``wal`` module docstring for the contract).
        self._wal_observer = wal_observer
        self._wal_index = 0
        self._manifest_version = 0
        self._closed = False
        self._open_or_recover()

        self._flusher: threading.Thread | None = None
        self._compactor: threading.Thread | None = None
        if background:
            self._flusher = threading.Thread(
                target=self._run_queued, args=(self._next_flush, True),
                name="lsm-flusher", daemon=True,
            )
            self._compactor = threading.Thread(
                target=self._run_queued, args=(self._next_compaction, True),
                name="lsm-compactor", daemon=True,
            )
            self._flusher.start()
            self._compactor.start()

    @classmethod
    def open(cls, path: str, fs: FileSystem | None = None, **config) -> "LSMTree":
        """Open (or create) a durable engine at ``path``, recovering to
        exactly the last acknowledged state after any crash."""
        return cls(path=path, fs=fs, **config)

    # -- level layout (compat view) ------------------------------------------------

    @property
    def levels(self) -> list[list[SSTableBase]]:
        """The current version's table layout.

        Callers must treat it as read-only: mutations install a fresh
        :class:`_Version` so pinned readers keep a consistent view.
        """
        return self._version.levels

    # -- durability: open / recover ------------------------------------------------

    @property
    def fs(self) -> FileSystem:
        """The backing filesystem (a private :class:`MemFS` when the
        engine was built without a path).  Snapshot shipping reads
        pinned table bytes through this."""
        return self._fs

    @property
    def background(self) -> bool:
        return self._background

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recent accepted write."""
        return self._seq

    @property
    def last_acked_seq(self) -> int:
        """Writes with seq <= this are guaranteed to survive a crash.

        A write is acked by the first fsync that covers its WAL record:
        a group commit (every ``wal_sync_every`` records, every
        ``write_batch``, every :meth:`sync`) or, at the latest, the
        freeze-time sync of its segment — so every record of a memtable
        is acknowledged *before* its flush starts, whoever runs the
        flush, and stays recoverable from that segment until the
        CURRENT rename makes the SSTable reachable and the segment is
        retired.  The manifest
        install only carries the floor across the retirement; it never
        acknowledges anything first.
        """
        return max(self._acked_floor, self._wal.synced_seq)

    def _open_or_recover(self) -> None:
        fs, path = self._fs, self.path
        fs.mkdir(path)
        state = manifest_mod.load_current(fs, path)
        if state is not None:
            self._recover(state)
        else:
            self._start_wal(1)
            self._install_manifest()
        self._collect_garbage()

    def _live_wal_segments(self, state: ManifestState) -> list[tuple[int, str]]:
        """WAL segments recovery must replay: every on-disk segment with
        index >= the manifest's, oldest first.  More than one exists
        when the engine froze memtables (rotating the WAL) faster than
        the flusher committed them."""
        segments = []
        for name in self._fs.listdir(self.path):
            if name.startswith("wal-") and name.endswith(".log"):
                try:
                    index = int(name[4:-4])
                except ValueError:
                    continue
                if index >= state.wal_index:
                    segments.append((index, name))
        return sorted(segments)

    def _recover(self, state: ManifestState) -> None:
        fs, path = self._fs, self.path
        self._manifest_version = state.version
        self._next_table_id = state.next_table_id
        self._seq = self._visible_seq = state.last_seq
        self._flushed_seq = self._acked_floor = state.last_seq
        self._version = _Version(
            [
                [
                    # Passing the manifest's table id makes construction
                    # zero-I/O: the footer and filter load lazily on first
                    # access, so open time is O(1) per table.
                    DiskSSTable(
                        fs,
                        join(path, table_file_name(tid)),
                        filter_factory=self._filter_factory,
                        table_id=tid,
                    )
                    for tid in level
                ]
                for level in state.levels
            ]
            or [[]]
        )
        for table in self._version.tables():
            table._engine_refs = 1
        # Replay the live WAL segments oldest-first into the memtable.
        # A frozen segment is fully fsynced before its successor is
        # created, so a torn frame can only be the newest segment's
        # unacknowledged tail — replay stops there.  A sequence gap
        # between segments would mean records beyond a torn point; stop
        # at the gap for the same reason (nothing past it was acked).
        segments = self._live_wal_segments(state)
        max_index = max((i for i, _ in segments), default=state.wal_index)
        records: list[tuple[int, bytes, Any]] = []
        prev_seq = None
        for _, name in segments:
            for seq, key, value in wal_mod.replay(fs, join(path, name)):
                if prev_seq is not None and seq != prev_seq + 1:
                    break
                prev_seq = seq
                records.append((seq, key, value))
            else:
                continue
            break
        self._start_wal(max_index + 1)
        for seq, key, value in records:
            if seq <= state.last_seq:
                continue  # already covered by an installed SSTable
            self._memtable.put(key, value)
            self._seq = max(self._seq, seq)
            # Re-log into the fresh segment so recovered writes stay
            # durable once the old segments are garbage-collected.
            if value is TOMBSTONE:
                self._wal.append_delete(seq, key)
            else:
                self._wal.append_put(seq, key, value)
        self._visible_seq = self._seq
        self._wal.sync()
        self._install_manifest()

    def _start_wal(self, index: int) -> None:
        self._wal_index = index
        self._wal = wal_mod.WalWriter(
            self._fs,
            join(self.path, wal_mod.wal_file_name(index)),
            self._wal_sync_every,
            observer=self._wal_observer,
        )
        # The fresh segment starts at the current sequence but claims
        # nothing durable: until the manifest that pairs with it is
        # installed, recovery still runs from the previous segment.
        self._wal.last_seq = self._seq
        self._wal.synced_seq = 0

    def _install_manifest(self) -> None:
        """Write + atomically install the next manifest version.

        Caller holds the lock (at open nothing else runs yet).  The WAL
        pointer names the *oldest* live segment: the oldest unflushed frozen
        memtable's, or the mutable memtable's when nothing is frozen —
        recovery replays every segment from there upward.
        """
        wal_index = self._immutables[0].wal_index if self._immutables else self._wal_index
        self._manifest_version += 1
        state = ManifestState(
            version=self._manifest_version,
            next_table_id=self._next_table_id,
            last_seq=self._flushed_seq,
            wal_name=wal_mod.wal_file_name(wal_index),
            wal_index=wal_index,
            levels=[[t.table_id for t in level] for level in self._version.levels],
        )
        manifest_mod.install(self._fs, self.path, state)
        # The superseded manifest is garbage now that CURRENT moved on.
        old = join(self.path, manifest_mod.manifest_file_name(self._manifest_version - 1))
        if self._fs.exists(old):
            self._fs.remove(old)

    def _collect_garbage(self) -> None:
        """Remove every file the installed manifest does not reference
        (at open: nothing is frozen, one WAL segment is live)."""
        referenced = {
            manifest_mod.CURRENT,
            manifest_mod.manifest_file_name(self._manifest_version),
            wal_mod.wal_file_name(self._wal_index),
        }
        for table in self._version.tables():
            referenced.add(table_file_name(table.table_id))
        for name in self._fs.listdir(self.path):
            if name not in referenced:
                self._fs.remove(join(self.path, name))

    def sync(self) -> None:
        """Force the WAL durability barrier (acknowledge everything)."""
        self._wal.sync()

    def close(self) -> None:
        """Sync and release the WAL; a write or flush after this raises
        ``ValueError`` (reads of a closed engine are undefined).

        Background threads are stopped and joined first.  Frozen
        memtables not yet flushed are left to WAL recovery: their
        segments were fully fsynced at freeze time, so nothing acked is
        lost.  Idempotent: a second ``close()`` is a no-op, which the
        server's drain path relies on (a shard may be closed by the
        worker and again by the shutdown sweep)."""
        if self._closed:
            return
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        for thread in (self._flusher, self._compactor):
            if thread is not None and thread.is_alive():
                thread.join(timeout=10.0)
        try:
            for frozen in self._immutables:
                frozen.wal.close()
            self._wal.close()
        finally:
            for table in self._version.tables():
                table.close()

    def __enter__(self) -> "LSMTree":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- version / table lifecycle -------------------------------------------------

    def _install_version(self, levels: list[list[SSTableBase]]) -> _Version:
        """Swap in a new table layout (caller holds the lock).

        Tables joining gain a reference.  The *old* version is returned
        still holding the engine's baseline reference: the caller must
        :meth:`_release_version` it — **after** installing the manifest
        that stops referencing the replaced tables, because releasing
        is what may unlink their files (crash invariant 2: the old
        manifest must stay fully readable until CURRENT moves on).
        """
        new = _Version(levels)
        for table in new.tables():
            table._engine_refs = getattr(table, "_engine_refs", 0) + 1
        old = self._version
        self._version = new
        return old

    def _release_version(self, version: _Version) -> None:
        version.refs -= 1
        if version.refs == 0:
            for table in version.tables():
                table._engine_refs -= 1
                if table._engine_refs == 0:
                    self._drop_table(table)

    def _drop_table(self, table: SSTableBase) -> None:
        """Physically drop a table nothing references anymore: evict
        its cached blocks, unlink the file, release the mapping."""
        for idx in range(table.n_blocks):
            self._block_cache.evict((table.table_id, idx))
        if not self._closed:
            try:
                self._fs.remove(table.path)
            except Exception:
                # Already gone, or a frozen fault-injection fs refusing
                # access post-crash; the orphan is GC'd at the next open.
                pass
        # Release the mapping after the unlink.  Outstanding views (a
        # filter someone still holds, a block mid-decode) keep the
        # pages alive on POSIX; close() tolerates them.
        table.close()

    def _pin(self, copy_mem: bool = False) -> _View:
        """Pin a consistent read context.  ``copy_mem=True`` freezes
        the mutable layer too (required by any read that *iterates*
        the memtable while a writer may be inserting)."""
        with self._lock:
            version = self._version
            version.refs += 1
            mems = [self._memtable.freeze_view() if copy_mem else self._memtable]
            for frozen in reversed(self._immutables):
                mems.append(frozen.data)
            return _View(mems, version, self._visible_seq)

    def _unpin(self, view: _View) -> None:
        with self._lock:
            self._release_version(view.version)

    def snapshot(self) -> Snapshot:
        """Pin the current sequence number and return a consistent
        point-in-time :class:`Snapshot` (release it when done)."""
        with self._lock:
            version = self._version
            version.refs += 1
            merged: dict[bytes, Any] = {}
            for frozen in self._immutables:
                merged.update(frozen.data.items())
            merged.update(self._memtable.items())
            self._snapshots_live += 1
            return Snapshot(self, self._visible_seq, merged, version)

    def _release_snapshot(self, view: _View) -> None:
        with self._lock:
            self._snapshots_live -= 1
            self._release_version(view.version)

    # -- write path --------------------------------------------------------------

    def _check_bg_error(self) -> None:
        err = self._bg_error
        if err is not None:
            raise err

    def _admit_write(self) -> None:
        """Gate in front of every write and flush: a closed engine, one
        whose flush or compaction failed and one whose WAL failed refuse;
        a thread-run engine then pays its backpressure.

        A WAL failure is fail-stop: the live segment's writer keeps its
        first append or fsync error, which every write raises until
        reopen (reads keep serving).  A freeze rotates only away from a
        segment whose fsync succeeded, so that error is the engine's."""
        if self._closed:
            raise ValueError("engine is closed")
        self._check_bg_error()
        if self._wal.error is not None:
            raise self._wal.error
        if self._background:
            self._apply_backpressure()

    def _apply_backpressure(self) -> None:
        """Slowdown/stall gate of a thread-run engine (writer thread).

        Mirrors LevelDB's write controller: too many L0 tables injects
        a small sleep per write (compaction debt grows read
        amplification); a full immutable list or an L0 pile-up past the
        stall trigger blocks the writer until the background threads
        drain — bounded, counted, and surfaced in :meth:`info`.
        """
        with self._cond:
            stalled = (
                len(self._immutables) >= self._max_immutables
                or len(self._version.levels[0]) >= self._l0_stall
            )
            if not stalled:
                slow = len(self._version.levels[0]) >= self._l0_slowdown
            else:
                self.stall_count += 1
                started = time.perf_counter()
                while not self._closed and self._bg_error is None and (
                    len(self._immutables) >= self._max_immutables
                    or len(self._version.levels[0]) >= self._l0_stall
                ):
                    self._cond.wait(timeout=0.05)
                self.stall_seconds += time.perf_counter() - started
                self._check_bg_error()
                return
        if slow:
            self.slowdown_count += 1
            time.sleep(self._slowdown_sleep)

    def put(self, key: bytes, value: Any) -> None:
        self._admit_write()
        # The record is encoded before the sequence number is taken: an
        # unstorable value raises with no gap left in the WAL's
        # sequence, which recovery would stop at.
        self._wal.append_put(self._seq + 1, key, value)
        self._seq += 1
        with self._lock:
            self._memtable.put(key, value)
            self._visible_seq = self._seq
        self._maybe_freeze()

    def delete(self, key: bytes) -> None:
        self._admit_write()
        self._wal.append_delete(self._seq + 1, key)
        self._seq += 1
        with self._lock:
            self._memtable.put(key, TOMBSTONE)
            self._visible_seq = self._seq
        self._maybe_freeze()

    def write_batch(self, entries: Sequence[tuple[bytes, Any]]) -> int:
        """Apply a mixed put/delete batch as one acknowledgement unit.

        ``entries`` are ``(key, value)`` pairs applied in order, with
        ``value is TOMBSTONE`` marking a delete.  Every record rides a
        *single* WAL group commit — one fsync covers the whole batch,
        so when this returns the batch is fully acknowledged
        (``last_acked_seq`` covers its final sequence number) and a
        crash can never split it from the caller's point of view.  The
        memtable takes the batch in one ``put_many`` (under the lock,
        so a snapshot sees all of the batch or none of it) and the
        freeze check runs once, after the batch.

        Returns the sequence number of the batch's final record — the
        causal token the server hands back in write acks so clients can
        demand read-your-writes from a replication follower.
        """
        entries = list(entries)
        if not entries:
            return self._seq
        self._admit_write()
        records = []
        seq = self._seq
        for key, value in entries:
            seq += 1
            records.append((seq, key, value))
        # append_batch encodes everything before appending, so a
        # TypeError from the value codec leaves WAL and seq intact.
        self._wal.append_batch(records)
        self._seq = seq
        with self._lock:
            # One apply for the whole group commit; the memtable keeps
            # the last write of a key within the batch.
            self._memtable.put_many(entries)
            self._visible_seq = seq
        self._maybe_freeze()
        return seq

    def put_many(self, pairs: Sequence[tuple[bytes, Any]]) -> None:
        """Batch :meth:`put`: one WAL group commit, one freeze check."""
        self.write_batch(pairs)

    def delete_many(self, keys: Sequence[bytes]) -> None:
        """Batch :meth:`delete`: one WAL group commit, one freeze check."""
        self.write_batch([(key, TOMBSTONE) for key in keys])

    def _maybe_freeze(self) -> None:
        if len(self._memtable) >= self._memtable_entries:
            self._freeze()
            if not self._background:
                self._run_queued(self._next_work, wait=False)

    def _freeze(self) -> None:
        """Seal the mutable memtable into the immutable list (writer
        thread) and queue it for the flush.

        Ordering is the crash-safety crux: the old WAL segment is
        fsynced *before* the new one is created, so (a) every frozen
        record is acknowledged at freeze time, and (b) the on-disk
        segments never hold a sequence gap — a torn frame can only be
        the newest segment's unsynced tail.
        """
        if not len(self._memtable):
            return
        old_wal, old_index = self._wal, self._wal_index
        old_wal.sync()  # durability point: frozen records are acked
        # Rotation and registration are one atomic step under the lock:
        # a concurrent flush commit must never compute its manifest WAL
        # pointer between the new segment appearing and the frozen
        # memtable (which still owns the old segment) being listed.
        with self._cond:
            self._start_wal(self._wal_index + 1)
            self._acked_floor = max(self._acked_floor, old_wal.synced_seq)
            # Sealed here, under the lock readers pin under, and before
            # it is listed: whoever reads it next (the flush, a pinned
            # scan, a snapshot) shares no lock and must find nothing
            # left to drain.
            self._memtable.seal()
            self._immutables.append(
                _Frozen(self._memtable, self._visible_seq, old_wal, old_index)
            )
            self._memtable = self._memtable_factory()
            self._cond.notify_all()

    def flush_memtable(self) -> None:
        """Flush the memtable through to L0: freeze it, then
        :meth:`wait_idle` with no deadline — the tests' and the
        fuzzer's ``merge`` op use it to force a table boundary."""
        self._admit_write()
        self._freeze()
        self.wait_idle(timeout=None)

    def _build_table(self, keys: list[bytes], cells: list[bytes]) -> DiskSSTable:
        """Build one table from sorted ``keys`` and their encoded values
        (:meth:`~repro.lsm.disk_format.Block.cells`) as a table file
        fsynced before this returns (invariant 1)."""
        with self._lock:
            tid = self._next_table_id
            self._next_table_id += 1
        file_path = join(self.path, table_file_name(tid))
        write_sstable(
            self._fs,
            file_path,
            keys,
            cells,
            tid,
            block_entries=self._block_entries,
            filter_factory=self._filter_factory,
        )
        return DiskSSTable(
            self._fs, file_path, filter_factory=self._filter_factory, table_id=tid
        )

    # -- executors --------------------------------------------------------------------

    def _next_flush(self) -> tuple[Callable, Any] | None:
        """The oldest frozen memtable, as a work item (lock held)."""
        if self._immutables:
            return self._flush_frozen, self._immutables[0]
        return None

    def _next_compaction(self) -> tuple[Callable, Any] | None:
        """The lowest overflowing level, else level 0 when the reads
        have paid for its compaction, as a work item (lock held)."""
        for i, level in enumerate(self._version.levels):
            if len(level) > self._level_limit(i):
                return self._compact_level, i
        if self._read_compaction_due():
            return self._compact_level, 0
        return None

    def _read_compaction_due(self) -> bool:
        """L0 holds tables and the read debt covers rewriting them
        (no debt, no table footer looked at)."""
        version, debt = self._version, self._read_debt
        return debt > 0 and bool(version.levels[0]) and (
            debt >= _READ_DEBT_PER_ENTRY * version.l0_rewrite_entries()
        )

    def _charge_reads(self, view: _View, wasted: int) -> None:
        """Book ``wasted`` L0 probes (key searched, not found) made on
        ``view`` as read debt, and wake the compactor when that makes
        the compaction due.  Probes of a layout that is no longer
        current are dropped: its L0 is already gone or going."""
        version = view.version
        if version is not self._version:
            return
        self._read_debt += wasted
        if not version.debt_signalled and self._read_compaction_due():
            with self._cond:
                version.debt_signalled = True
                self._cond.notify_all()

    def _next_work(self) -> tuple[Callable, Any] | None:
        """Flushes before compactions: the order one thread runs both in."""
        return self._next_flush() or self._next_compaction()

    def _run_queued(self, pick: Callable, wait: bool) -> None:
        """The loop every executor runs: pick the next work item under
        the lock, run it outside, publish a failure to ``_bg_error``
        (which every later write, flush and :meth:`wait_idle` raises).

        ``wait=True`` is a background thread: it sleeps until ``pick``
        offers work, and exits at close (frozen memtables left behind
        recover from their WAL segments) or on its first failure.
        ``wait=False`` is the caller-run drain: it returns once nothing
        is queued, and a failure is the caller's to see at once.
        """
        while True:
            try:
                # Picking reads table footers (the read-debt weighing):
                # a failure there is a failure of the work, too.
                with self._cond:
                    while (job := pick()) is None and wait and not self._closed:
                        self._cond.wait()
                    if job is None or self._closed:
                        return
                run, arg = job
                run(arg)
            except BaseException as exc:  # noqa: BLE001 — surfaced to writers
                with self._cond:
                    self._bg_error = exc
                    self._cond.notify_all()
                if wait:
                    return
                raise

    def _flush_frozen(self, frozen: _Frozen) -> None:
        """Flush the oldest frozen memtable to one L0 table.

        The table build runs outside the lock (the frozen memtable is
        sealed); the commit — L0 insert, manifest install, WAL
        retirement — happens under it.
        """
        # A memtable hands out its columns in key order: no sort, no
        # per-entry tuple, and each value is encoded exactly once.
        keys, values = frozen.data.columns()
        table = self._build_table(keys, list(map(disk_format.encode_value, values)))
        with self._cond:
            levels = [list(level) for level in self._version.levels]
            levels[0].insert(0, table)
            old_version = self._install_version(levels)
            self._immutables.pop(0)
            self._flushed_seq = max(self._flushed_seq, frozen.last_seq)
            self._install_manifest()
            self._release_version(old_version)
            self.flush_count += 1
            self._cond.notify_all()
        # Only now is the frozen segment redundant (invariant 3).
        frozen.wal.close()  # synced in full at freeze: no fsync here
        try:
            self._fs.remove(frozen.wal.path)
        except FileNotFoundError:
            pass

    # -- compaction -----------------------------------------------------------------

    def _level_limit(self, level: int) -> int:
        return self._level0_limit * self._level_fanout**level

    def _compact_level(self, level: int) -> None:
        """Merge one level's overflow into the next level.

        Source selection happens under the lock; the merge and the
        table writes run outside it (sources stay alive — they are
        referenced by the current version, and only this thread removes
        tables from levels >= 1 while the flusher only *prepends* to
        L0).  The commit re-reads the current layout, so L0 tables the
        flusher added mid-merge survive untouched.
        """
        with self._lock:
            version = self._version
            sources, overlapping = version.compaction_inputs(level)
            if not sources:
                return  # emptied since it was picked: nothing to merge
            # Tombstones drop when the output lands on the bottom level.
            drop_tombstones = len(version.levels) <= level + 2
        new_tables = [
            self._build_table(keys, cells)
            for keys, cells in self._merge_tables(sources, overlapping, drop_tombstones)
        ]
        source_ids = {t.table_id for t in sources}
        overlap_ids = {t.table_id for t in overlapping}
        with self._cond:
            levels = [list(lvl) for lvl in self._version.levels]
            while len(levels) < level + 2:
                levels.append([])
            levels[level] = [t for t in levels[level] if t.table_id not in source_ids]
            keep = [t for t in levels[level + 1] if t.table_id not in overlap_ids]
            levels[level + 1] = sorted(keep + new_tables, key=lambda t: t.min_key)
            old_version = self._install_version(levels)
            self._install_manifest()
            self._release_version(old_version)
            self.compaction_count += 1
            if level == 0:
                # Whichever trigger asked, the probes these tables cost
                # are paid off; under the table limit only the debt asks.
                self._read_debt = 0
                if len(sources) <= self._level_limit(0):
                    self.read_compaction_count += 1
            self._cond.notify_all()
        # The replaced tables left the current version; their blocks are
        # evicted and files unlinked when the last snapshot/iterator
        # holding the old version releases it (possibly just now).

    def _merge_tables(
        self, newer: list[SSTableBase], older: list[SSTableBase], drop_tombstones: bool
    ) -> Iterator[tuple[list[bytes], list[bytes]]]:
        """Newest-wins merge of the runs ``newer`` (newest first, may
        overlap) into ``older`` (the next level's disjoint tables they
        overlap, in key order): yields each output table as sorted
        ``(keys, cells)`` columns, ``sstable_entries`` long except the
        last.

        Entries travel as their blocks store them (``Block.cells``): an
        encoded value is carried from the input block to the output
        block as the same bytes, never decoded or re-encoded, and a
        tombstone is recognised by its encoding
        (:data:`~repro.lsm.disk_format.TOMBSTONE_CELL`).

        The merge is partitioned along ``older``'s table boundaries.
        A partition is one old table plus the slice of every newer run
        below the next old table's ``min_key`` (found through the
        fences), merged by dict update — oldest first, so the newest
        write wins — and sorted on its own; what does not fill a table
        is carried into the next partition.  Live objects stay
        O(``sstable_entries`` + the newer runs' share of a partition)
        where one dict over all the inputs was O(level).
        """
        size = self._sstable_entries
        oldest_first = newer[::-1]

        def partition(i: int, low: bytes | None, high: bytes | None):
            # Its own scope: the dict is gone before the next one is built.
            merged: dict[bytes, Any] = dict(older[i].cells_between(None, None)) if older else {}
            for table in oldest_first:
                merged.update(table.cells_between(low, high))
            if not drop_tombstones:
                keys = sorted(merged)
            else:
                keys = sorted([k for k, v in merged.items() if v != disk_format.TOMBSTONE_CELL])
            return keys, list(map(merged.__getitem__, keys))

        carry_keys: list[bytes] = []
        carry_cells: list[Any] = []
        low = None
        for i, high in enumerate([t.min_key for t in older[1:]] + [None]):
            keys, cells = partition(i, low, high)
            carry_keys += keys
            carry_cells += cells
            full = len(carry_keys) - len(carry_keys) % size
            for start in range(0, full, size):
                yield carry_keys[start : start + size], carry_cells[start : start + size]
            del carry_keys[:full], carry_cells[:full]
            low = high
        if carry_keys:
            yield carry_keys, carry_cells

    # -- block access with simulated I/O ------------------------------------------------

    def _read_block(self, table: SSTableBase, block_idx: int) -> Block:
        """The only door to the block cache (``IoStats`` counts on it)."""
        return self._block_cache.get_or_load(
            (table.table_id, block_idx), table.read_block, block_idx
        )

    # -- Get (Figure 4.3 left) ------------------------------------------------------------

    def get(self, key: bytes) -> Any | None:
        view = self._pin()
        try:
            return self._get_in(view, key)
        finally:
            self._unpin(view)

    def _get_in(self, view: _View, key: bytes) -> Any | None:
        for layer in view.mems:
            # Single probe per layer: every memtable/view type takes a
            # default, and a miss-sentinel distinguishes absent keys
            # from stored values.
            value = layer.get(key, _MISSING)
            if value is not _MISSING:
                return None if value is TOMBSTONE else value
        return self._tables_get(view, key)

    def _tables_get(self, view: _View, key: bytes) -> Any | None:
        """One key's answer from the tables of ``view`` (no memtable
        layer holds it), newest source first; every L0 table searched
        in vain is charged as read debt."""
        levels = view.levels
        value, wasted = _MISSING, 0
        for li, (mins, maxs) in enumerate(view.version.bounds()):
            if li == 0:
                for table, lo, hi in zip(levels[0], mins, maxs):
                    if lo <= key <= hi:
                        value = self._table_get(table, key)
                        if value is not _MISSING:
                            break
                        wasted += 1
            else:
                # Disjoint level: at most one candidate table.
                ti = bisect_right(mins, key) - 1
                if ti >= 0 and key <= maxs[ti]:
                    value = self._table_get(levels[li][ti], key)
            if value is not _MISSING:
                break
        if wasted:
            self._charge_reads(view, wasted)
        return None if value is _MISSING or value is TOMBSTONE else value

    def _table_get(self, table: SSTableBase, key: bytes) -> Any:
        """One table's answer for an in-range ``key``: the filter
        probe, then at most one block fetch; ``_MISSING`` if absent."""
        flt = table.filter
        if flt is not None:
            self.io.filter_probes += 1
            if not flt.lookup(key):
                self.io.filter_negatives += 1
                return _MISSING
        # In range, so at or past the first fence: the index is >= 0.
        block_idx = bisect_right(table.fences, key) - 1
        return self._read_block(table, block_idx).find(key, _MISSING)

    def get_many(self, keys: Sequence[bytes]) -> list[Any]:
        """Batch point reads matching element-wise scalar :meth:`get`.

        Each distinct key is resolved once, and its answer is copied to
        every position that asked for it.  The batch walks the LSM
        hierarchy level-synchronously: per table, each still-unresolved
        key in the table's range gets one filter probe, as in
        :meth:`get`, and the keys that pass share the table's block
        fetches.  A key resolved by a newer table (value *or*
        tombstone) never touches older tables, preserving newest-wins
        semantics exactly.
        """
        view = self._pin()
        try:
            return self._get_many_in(view, keys)
        finally:
            self._unpin(view)

    def _get_many_in(self, view: _View, batch: Sequence[bytes]) -> list[Any]:
        # One slot per distinct key, in first-seen order: a repeat costs
        # no second probe, block search or unit of debt.
        answers = dict.fromkeys(batch)
        keys = list(answers)
        # ``_MISSING`` marks a slot no source has resolved yet (a
        # resolved one holds the answer, ``None`` for a tombstone).
        out: list[Any] = [_MISSING] * len(keys)
        mems = view.mems
        pending: list[int] = []
        for i, key in enumerate(keys):
            for layer in mems:
                value = layer.get(key, _MISSING)
                if value is not _MISSING:
                    out[i] = None if value is TOMBSTONE else value
                    break
            else:
                pending.append(i)
        if len(pending) == 1:  # one key: no grouping to set up
            out[pending[0]] = self._tables_get(view, keys[pending[0]])
            pending = []
        levels = view.levels
        wasted = 0
        for li, (mins, maxs) in enumerate(view.version.bounds()):
            if not pending:
                break
            if li == 0:
                for table, lo, hi in zip(levels[0], mins, maxs):
                    members = [i for i in pending if lo <= keys[i] <= hi]
                    if not members:
                        continue
                    hits = self._table_get_many(table, keys, out, members)
                    wasted += len(members) - hits
                    if hits:
                        pending = [i for i in pending if out[i] is _MISSING]
                        if not pending:
                            break
                continue
            # Disjoint level: each key has at most one candidate table.
            by_table: dict[int, list[int]] = {}
            for i in pending:
                key = keys[i]
                ti = bisect_right(mins, key) - 1
                if ti >= 0 and key <= maxs[ti]:
                    by_table.setdefault(ti, []).append(i)
            hits = 0
            for ti, members in by_table.items():
                hits += self._table_get_many(levels[li][ti], keys, out, members)
            if hits:
                pending = [i for i in pending if out[i] is _MISSING]
        for i in pending:
            out[i] = None
        if wasted:
            self._charge_reads(view, wasted)
        if len(keys) == len(batch):
            return out
        answers.update(zip(keys, out))
        return list(map(answers.__getitem__, batch))

    def _table_get_many(
        self, table: SSTableBase, keys: list[bytes], out: list[Any], idxs: list[int]
    ) -> int:
        """Resolve what ``table`` holds of the in-range ``keys[idxs]``
        into ``out``; return how many it held (the rest were filter
        negatives or false positives)."""
        flt = table.filter
        if flt is not None:
            lookup = flt.lookup
            passed = [i for i in idxs if lookup(keys[i])]
            self.io.filter_probes += len(idxs)
            self.io.filter_negatives += len(idxs) - len(passed)
            idxs = passed
        # Blocks in order, each fetched once however many keys land in
        # it (in range, so at or past the first fence: indexes >= 0).
        fences, read_block = table.fences, self._read_block
        hits, current, block = 0, None, None
        for block_idx, i in sorted([(bisect_right(fences, keys[i]) - 1, i) for i in idxs]):
            if block_idx != current:
                current, block = block_idx, read_block(table, block_idx)
            value = block.find(keys[i], _MISSING)
            if value is not _MISSING:
                out[i] = None if value is TOMBSTONE else value
                hits += 1
        return hits

    # -- Seek / Next (Figure 4.3 middle) ------------------------------------------------------

    def seek(self, low: bytes, high: bytes | None = None) -> tuple[bytes, Any] | None:
        """Smallest live entry with key >= low (and <= high if given).

        With SuRF filters, candidate keys come from the filters and a
        table whose candidate cannot win is never fetched; without
        them, one block per candidate SSTable is fetched (the I/O the
        paper saves).  See :meth:`_cursor`.
        """
        view = self._pin(copy_mem=True)
        try:
            return next(self._cursor(view, low, high), None)
        finally:
            self._unpin(view)

    def scan(self, low: bytes, count: int) -> list[tuple[bytes, Any]]:
        """Seek + Next*: the first ``count`` live entries >= low.

        Pins one view for the whole scan, so the result is consistent
        even while flushes and compactions run underneath."""
        view = self._pin(copy_mem=True)
        try:
            return list(islice(self._cursor(view, low), max(count, 0)))
        finally:
            self._unpin(view)

    def _cursor(
        self, view: _View, low: bytes, high: bytes | None = None
    ) -> Iterator[tuple[bytes, Any]]:
        """The engine's one merged cursor: live entries with
        ``low <= key`` (``<= high``) in key order.

        One sorted *run* per source — the merged memtable layers, each
        L0 table, each deeper level — advances through a heap, ranked
        newest first; for duplicate keys the lowest rank wins and a
        winning tombstone hides the key.  A table run announces every
        block with a *lower bound* on its first key (see
        :meth:`_table_run`) and fetches it only when the bound reaches
        the top of the heap, so a block whose entries cannot beat the
        running winner — or lie past ``high``, or past the last row the
        caller pulls — is never read, and every block along a tombstone
        run is read at most once.
        """
        runs: list[Iterator[tuple[bytes, Any]]] = []
        if any(len(layer) for layer in view.mems):
            runs.append(view.mem_run(low))
        levels = view.levels
        spans: list[list[SSTableBase]] = []
        for li, (_mins, maxs) in enumerate(view.version.bounds()):
            if li == 0:
                spans += [[t] for t, hi in zip(levels[0], maxs) if hi >= low]
            else:
                # Disjoint sorted level: one run from the first table
                # that reaches ``low`` onward.
                first = bisect_left(maxs, low)
                if first < len(maxs):
                    spans.append(levels[li][first:])
        # A filter can only save a fetch if something can beat or bound
        # its table's candidate; a lone run is read regardless.
        prune = high is not None or len(runs) + len(spans) > 1
        runs += [self._table_run(span, low, prune) for span in spans]
        # Heap entries are (key, fetched, rank, value): a bound sorts
        # ahead of fetched entries with its key, and ranks are unique,
        # so the (unorderable) values never get compared.  Every run
        # starts as a bound below all keys; retiring it pulls the run's
        # first entry.
        heap: list[tuple[bytes, bool, int, Any]] = [
            (b"", False, rank, _BOUND) for rank in range(len(runs))
        ]

        def advance() -> None:
            """Replace the top entry with its run's next one."""
            rank = heap[0][2]
            entry = next(runs[rank], None)
            if entry is None:
                heapq.heappop(heap)
            else:
                key, value = entry
                heapq.heapreplace(heap, (key, value is not _BOUND, rank, value))

        while heap:
            key, fetched, _, winner = heap[0]
            if high is not None and key > high:
                return
            if not fetched:
                advance()  # fetch the block behind the bound
                continue
            # Retire every version of ``key``; the first (lowest rank,
            # newest source) decided liveness.
            while heap and heap[0][0] == key:
                advance()
            if winner is not TOMBSTONE:
                yield key, winner

    def _table_run(
        self, tables: Sequence[SSTableBase], low: bytes, prune: bool
    ) -> Iterator[tuple[bytes, Any]]:
        """Entries >= ``low`` of consecutive disjoint ``tables`` (one
        L0 table, or the tail of a deeper level), block by cached block.

        Before each block fetch the run yields ``(bound, _BOUND)``,
        where ``bound`` <= every entry still to come.  For the table
        the seek lands in that is ``low`` — which sorts first, so
        without a filter every run costs one fetch, the I/O of Figure
        4.3 — raised, when ``prune``, to the candidate prefix the
        table's SuRF returns (one ``move_to_next``, no I/O).  A SuRF
        prefix is a *truncated* lower bound, so it can only prune:
        ``prefix > k`` proves the table holds nothing in ``[low, k]``.
        Later blocks and tables are announced by their fence or
        ``min_key``, which are exact.
        """
        for position, table in enumerate(tables):
            first, bound = 0, table.min_key
            if position == 0:
                first, bound = table.block_for(low), low
                found = table.filter_seek(low) if prune else None
                if found is not None:
                    if not found[0].valid:
                        continue  # the filter proves nothing >= low here
                    bound = max(low, found[0].key())
            for block_idx in range(first, table.n_blocks):
                if block_idx > first:
                    bound = table.fences[block_idx]
                yield bound, _BOUND
                block = self._read_block(table, block_idx)
                # Only the landing block can hold keys below ``low``.
                landing = position == 0 and block_idx == first
                yield from block.items(block.first_ge(low) if landing else 0)

    # -- Count (Figure 4.3 right) -------------------------------------------------------------

    def count(self, low: bytes, high: bytes) -> int:
        """Approximate count of entries in [low, high).

        With SuRF filters this runs from the filters plus at most two
        boundary block reads per level; otherwise it scans blocks.
        As in the paper, LSM semantics make it approximate (it cannot
        distinguish updates/deletes across runs without a full merge).
        """
        view = self._pin(copy_mem=True)
        try:
            return self._count_in(view, low, high)
        finally:
            self._unpin(view)

    def _count_in(self, view: _View, low: bytes, high: bytes) -> int:
        total = sum(1 for k in view.merged() if low <= k < high)
        for table in view.version.tables():
            if not table.overlaps(low, high):
                continue
            if table.filter is not None and hasattr(table.filter, "count"):
                total += table.filter.count(low, high)
            else:
                run = self._table_run([table], low, False)
                total += sum(
                    value is not _BOUND
                    for _, value in takewhile(lambda entry: entry[0] < high, run)
                )
        return total

    # -- quiescence (tests / benchmarks) --------------------------------------------------------

    def wait_idle(self, timeout: float | None = 30.0) -> None:
        """Return once no frozen memtable is pending and no level is
        over its limit.  A thread-run engine waits for its threads
        (``timeout=None``: without a deadline); for a caller-run engine
        "wait" means "run": whatever is queued runs here, on the
        caller's thread.

        Raises the error a flush or compaction died of, and
        ``TimeoutError`` if the backlog does not drain in time; on a
        closed engine it returns at once (what is still frozen recovers
        from its WAL segment).
        """
        self._check_bg_error()
        if not self._background:
            self._run_queued(self._next_work, wait=False)
            return
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            # Read debt can come due with no one waking the compactor
            # (readers bump it unlocked): make it look before we wait.
            self._cond.notify_all()
            while (
                self._bg_error is None
                and not self._closed
                and self._next_work() is not None
            ):
                # Wait on the *remaining* time, not a fixed slice: a
                # fixed poll overshoots tight deadlines and, checked
                # only after a timed-out wait, never fires at all while
                # notifications keep arriving faster than the slice.
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError("background work did not drain")
                self._cond.wait(timeout=remaining)
        self._check_bg_error()

    # -- statistics -----------------------------------------------------------------------------

    def total_entries(self) -> int:
        with self._lock:
            mem = len(self._memtable) + sum(len(f.data) for f in self._immutables)
            return mem + sum(t.n_entries for t in self._version.tables())

    def filter_memory_bytes(self) -> int:
        return sum(t.filter_memory_bytes() for t in self._version.tables())

    def table_count(self) -> int:
        return sum(len(level) for level in self._version.levels)

    def compaction_backlog(self) -> int:
        """Tables waiting on a compaction: those above their level
        limits, plus L0 while its read-driven compaction is due (0 when
        nothing is)."""
        levels = self._version.levels
        over = sum(
            max(0, len(level) - self._level_limit(i))
            for i, level in enumerate(levels)
        )
        return over or (len(levels[0]) if self._read_compaction_due() else 0)

    def info(self) -> dict[str, Any]:
        """JSON-ready engine counters (the per-shard STATS payload)."""
        io = self.io
        reads, hits = io.block_reads, io.cache_hits
        probes, negatives = io.filter_probes, io.filter_negatives
        return {
            "entries": self.total_entries(),
            "tables": self.table_count(),
            "last_seq": self.last_seq,
            "block_reads": reads,
            "cache_hits": hits,
            "cache_hit_rate": hits / (reads + hits) if reads + hits else 0.0,
            "filter_probes": probes,
            "filter_negatives": negatives,
            "filter_hit_rate": negatives / probes if probes else 0.0,
            "background": self._background,
            "immutables": len(self._immutables),
            "l0_tables": len(self._version.levels[0]),
            "compaction_backlog": self.compaction_backlog(),
            "stalls": self.stall_count,
            "slowdowns": self.slowdown_count,
            "stall_seconds": self.stall_seconds,
            "flushes": self.flush_count,
            "compactions": self.compaction_count,
            "read_debt": self._read_debt,
            "read_compactions": self.read_compaction_count,
            "snapshots": self._snapshots_live,
        }
