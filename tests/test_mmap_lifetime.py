"""Buffer ownership on the zero-copy read path.

The mmap read path (``FileSystem.open_mmap`` → ``DiskSSTable`` →
``np.frombuffer`` view deserializers) replaces per-open heap copies of
blocks and filters with views over one mapping.  That trades copy cost
for *lifetime* obligations, and these tests pin each one down:

* opening a table from a manifest-known id does zero I/O, and opening
  an engine is O(1) in table count (filters decode on first probe);
* a deserialized-as-views filter is read-only — mutation raises instead
  of silently corrupting the mapping (or crashing);
* compaction may unlink a mapped file while views are outstanding: the
  views stay valid (POSIX keeps unlinked-but-mapped pages), and
  ``close()`` tolerates the exported buffers;
* a block opens in place over its table's map and hands out fresh
  objects; once the last version holding a dropped table is released,
  none of its blocks is cached, its map is closed, and a block kept
  past that point raises instead of answering;
* view-mode deserialization answers bit-for-bit like copy mode;
* crash recovery (FaultFS torn-write views) runs through the same
  ``open_mmap`` path.
"""

import gc
import mmap

import numpy as np
import pytest

from repro.filters.bloom import BloomFilter
from repro.fst import FST
from repro.fst.serialize import (
    fst_from_bytes,
    fst_to_bytes,
    surf_from_bytes,
    surf_to_bytes,
)
from repro.lsm import LSMTree
from repro.lsm.disk_format import encode_value
from repro.lsm.fs import MappedFile, OsFileSystem
from repro.lsm.sstable import DiskSSTable, SSTableReader, column_blocks, write_sstable
from repro.surf import SuRF
from repro.testing.faultfs import CRASH_MODES, FaultFS, MemFS, PowerFailure
from repro.workloads.keys import email_keys, encode_u64

TINY_CONFIG = dict(
    memtable_entries=16,
    sstable_entries=64,
    block_entries=8,
    level0_limit=2,
    block_cache_blocks=32,
    wal_sync_every=4,
)


def _fill(db, n, start=0):
    for i in range(start, start + n):
        db.put(encode_u64(i), i)


# -- MappedFile semantics -----------------------------------------------------


class TestMappedFile:
    def test_memfs_mmap_is_bytes_snapshot(self):
        fs = MemFS()
        fs.mkdir("d")
        f = fs.create("d/x")
        f.append(b"hello world")
        f.sync()
        f.close()
        m = fs.open_mmap("d/x")
        assert bytes(m.view) == b"hello world"
        assert len(m) == 11
        m.close()
        assert m.closed and m.view is None

    def test_os_mmap_close_with_outstanding_views(self, tmp_path):
        fs = OsFileSystem()
        path = str(tmp_path / "x")
        f = fs.create(path)
        f.append(b"0123456789" * 100)
        f.sync()
        f.close()
        m = fs.open_mmap(path)
        view = m.view[10:20]
        # BufferError from mmap.close() is swallowed; the exported
        # slice keeps the pages alive.
        m.close()
        assert bytes(view) == b"0123456789"
        view.release()

    def test_os_mmap_survives_unlink(self, tmp_path):
        fs = OsFileSystem()
        path = str(tmp_path / "x")
        f = fs.create(path)
        f.append(b"persist")
        f.sync()
        f.close()
        m = fs.open_mmap(path)
        fs.remove(path)  # unlink-then-close: the compaction order
        assert bytes(m.view) == b"persist"
        m.close()

    def test_empty_file_maps(self, tmp_path):
        fs = OsFileSystem()
        path = str(tmp_path / "empty")
        fs.create(path).close()
        m = fs.open_mmap(path)
        assert len(m) == 0
        m.close()

    def test_double_close_is_noop(self):
        m = MappedFile(b"abc")
        m.close()
        m.close()


# -- lazy DiskSSTable over the map -------------------------------------------


class TestLazyOpen:
    def _write(self, fs, path, n=200, **kw):
        pairs = [(encode_u64(i), i) for i in range(n)]
        values = [encode_value(v) for _, v in pairs]
        write_sstable(fs, path, column_blocks([k for k, _ in pairs], values, 8), 7, **kw)
        return pairs

    def test_manifest_id_construction_does_zero_io(self):
        fs = MemFS()
        fs.mkdir("d")
        self._write(fs, "d/t.sst")
        t = DiskSSTable(fs, "d/t.sst", table_id=7)
        assert t._map is None and not t._footer_loaded and not t._filter_loaded
        # First access maps and parses the footer; the filter stays
        # undecoded until a probe needs it.
        assert t.n_entries == 200
        assert not t._filter_loaded
        assert t.read_block(0)[0] == (encode_u64(0), 0)
        t.close()

    def test_footer_parsed_by_two_readers_at_once(self, monkeypatch):
        """Two threads may find the footer unparsed and parse it at the
        same time.  Here the second parse runs to completion between
        the first one's fence reads; the table must still list each
        block once (appending to shared lists doubled them, and a scan
        then replayed the table)."""
        from repro.lsm import disk_format

        fs = MemFS()
        fs.mkdir("d")
        pairs = self._write(fs, "d/t.sst")
        t = DiskSSTable(fs, "d/t.sst", table_id=7)
        unpack_bytes, calls = disk_format.unpack_bytes, []

        def interleaved(data, offset):
            calls.append(offset)
            if len(calls) == 3:  # the first fence: another reader parses now
                t._ensure_footer()
            return unpack_bytes(data, offset)

        monkeypatch.setattr(disk_format, "unpack_bytes", interleaved)
        assert t.n_blocks == 25
        monkeypatch.undo()
        assert t.fences == [k for k, _ in pairs[::8]]
        assert list(t.items()) == pairs
        t.close()

    def test_footer_id_mismatch_detected(self):
        from repro.lsm.disk_format import FrameError

        fs = MemFS()
        fs.mkdir("d")
        self._write(fs, "d/t.sst")  # footer says table_id=7
        t = DiskSSTable(fs, "d/t.sst", table_id=99)
        with pytest.raises(FrameError, match="footer table id"):
            t.n_entries
        t.close()

    def test_filter_decodes_as_views_over_the_map(self):
        fs = MemFS()
        fs.mkdir("d")
        self._write(
            fs, "d/t.sst",
            filter_factory=lambda keys: BloomFilter(keys, bits_per_key=10),
        )
        t = SSTableReader(fs, "d/t.sst", table_id=7)
        flt = t.filter
        assert not flt._words.flags.writeable  # view over the mapping
        assert all(flt.may_contain(encode_u64(i)) for i in range(200))
        t.close()

    def test_engine_open_skips_filter_deserialization(self):
        fs = MemFS()
        db = LSMTree.open(
            "db", fs=fs,
            filter_factory=lambda keys: BloomFilter(keys, bits_per_key=10),
            **TINY_CONFIG,
        )
        _fill(db, 400)
        db.close()

        db = LSMTree.open(
            "db", fs=fs,
            filter_factory=lambda keys: BloomFilter(keys, bits_per_key=10),
            **TINY_CONFIG,
        )
        disk_tables = [
            t for level in db.levels for t in level
            if isinstance(t, DiskSSTable)
        ]
        assert disk_tables, "workload must have produced disk tables"
        # O(1) open: recovery constructed every table from its manifest
        # id without reading a byte of table data.
        assert all(not t._footer_loaded for t in disk_tables)
        assert db.get(encode_u64(123)) == 123
        assert any(t._filter_loaded for t in disk_tables)
        db.close()


# -- view lifetime across compaction and close -------------------------------


class TestViewLifetime:
    def _grow_until_drop(self, fs):
        """Fill an engine until some initially-present disk table has
        been compacted away; returns (db, dropped_table, held)."""
        db = LSMTree.open(
            "db", fs=fs,
            filter_factory=lambda keys: BloomFilter(keys, bits_per_key=10),
            **TINY_CONFIG,
        )
        _fill(db, 200)
        victims = [
            t for level in db.levels for t in level
            if isinstance(t, DiskSSTable)
        ]
        assert victims
        victim = victims[0]
        held = {
            "filter": victim.filter,  # np.frombuffer views of the map
            "entries": victim.read_block(0),
            "raw": victim._ensure_map().view[:16],  # raw map slice
        }
        n = 200
        while any(
            t is victim for level in db.levels for t in level
        ):
            _fill(db, 100, start=n)
            n += 100
            assert n < 5000, "victim never compacted away"
        return db, victim, held, n

    @pytest.mark.parametrize("fs_kind", ["mem", "os"])
    def test_compaction_unlinks_mapped_table_with_views_out(
        self, fs_kind, tmp_path, monkeypatch
    ):
        fs = MemFS() if fs_kind == "mem" else OsFileSystem()
        if fs_kind == "os":
            monkeypatch.chdir(tmp_path)  # engine paths are relative
        db, victim, held, n = self._grow_until_drop(fs)
        # The file is gone but the held views still answer; the block,
        # opened over the now-closed map, refuses to.
        assert not fs.exists(victim.path)
        assert held["filter"].may_contain(encode_u64(0))
        with pytest.raises(ValueError, match="closed"):
            held["entries"][0]
        assert len(bytes(held["raw"])) == 16
        # And the engine itself is intact.
        for i in range(0, n, 97):
            assert db.get(encode_u64(i)) == i
        db.close()

    @pytest.mark.parametrize("fs_kind", ["mem", "os"])
    def test_snapshot_pins_mapped_table_across_background_compaction(
        self, fs_kind, tmp_path, monkeypatch
    ):
        """§7 meets §8: with background compaction the unlink happens on
        the compactor thread, but a live snapshot's version reference
        must hold the mapped file (and its exported views) until the
        snapshot releases — only then may the file go."""
        fs = MemFS() if fs_kind == "mem" else OsFileSystem()
        if fs_kind == "os":
            monkeypatch.chdir(tmp_path)
        db = LSMTree.open(
            "db", fs=fs,
            filter_factory=lambda keys: BloomFilter(keys, bits_per_key=10),
            background=True, slowdown_sleep=0.0, **TINY_CONFIG,
        )
        _fill(db, 200)
        db.wait_idle()
        victim = next(
            t for level in db.levels for t in level if isinstance(t, DiskSSTable)
        )
        snap = db.snapshot()
        pinned = snap.scan(b"", 400)
        held = {
            "filter": victim.filter,
            "entries": victim.read_block(0),
            "raw": victim._ensure_map().view[:16],
        }
        n = 200
        while any(t is victim for level in db.levels for t in level):
            _fill(db, 100, start=n)
            n += 100
            db.wait_idle()
            assert n < 5000, "victim never compacted away"
        # Compacted out of the live version by the background thread,
        # yet still snapshot-pinned: the file must not have been
        # unlinked, and the snapshot answers from its pinned state.
        assert fs.exists(victim.path)
        assert snap.scan(b"", 400) == pinned
        first_key, first_value = held["entries"][0]
        assert snap.get(first_key) == first_value
        snap.release()
        assert not fs.exists(victim.path)
        # The held views outlive even the unlink-and-close (POSIX keeps
        # unlinked-but-mapped pages; MemFS maps are bytes snapshots);
        # the block read while the snapshot pinned it now raises.
        assert held["filter"].may_contain(first_key)
        with pytest.raises(ValueError, match="closed"):
            held["entries"][0]
        assert len(bytes(held["raw"])) == 16
        # The live engine never noticed.
        for i in range(0, n, 97):
            assert db.get(encode_u64(i)) == i
        db.close()

    def test_engine_close_with_live_views(self):
        fs = MemFS()
        db = LSMTree.open(
            "db", fs=fs,
            filter_factory=lambda keys: BloomFilter(keys, bits_per_key=10),
            **TINY_CONFIG,
        )
        _fill(db, 300)
        tables = [
            t for level in db.levels for t in level
            if isinstance(t, DiskSSTable)
        ]
        filters = [(t.filter, t.min_key) for t in tables]
        db.close()  # closes every mapping; views are still exported
        for flt, own_key in filters:
            assert flt.may_contain(own_key)

    def test_reopen_after_close_remaps(self):
        fs = MemFS()
        db = LSMTree.open("db", fs=fs, **TINY_CONFIG)
        _fill(db, 300)
        db.close()
        db = LSMTree.open("db", fs=fs, **TINY_CONFIG)
        for i in range(300):
            assert db.get(encode_u64(i)) == i
        db.close()


class TestInPlaceBlockLifetime:
    """Blocks open in place over the table map (no payload copy), so a
    block is only as good as its map: what keeps a map alive is a
    version that references its table, and nothing else."""

    def _engine(self, fs_kind, tmp_path, monkeypatch, **kw):
        fs = MemFS() if fs_kind == "mem" else OsFileSystem()
        if fs_kind == "os":
            monkeypatch.chdir(tmp_path)  # engine paths are relative
        db = LSMTree.open("db", fs=fs, **{**TINY_CONFIG, **kw})
        _fill(db, 200)
        db.wait_idle()
        victim = next(t for level in db.levels for t in level)
        return fs, db, victim

    def _drop(self, db, victim, n=200):
        while any(t is victim for level in db.levels for t in level):
            _fill(db, 100, start=n)
            n += 100
            db.wait_idle()
            assert n < 5000, "victim never compacted away"
        return n

    @pytest.mark.parametrize("fs_kind", ["mem", "os"])
    def test_a_dropped_table_leaves_no_block_cached_and_its_map_closed(
        self, fs_kind, tmp_path, monkeypatch
    ):
        fs, db, victim = self._engine(fs_kind, tmp_path, monkeypatch)
        for i in range(0, 200, 7):  # fill the cache with the victim's blocks
            assert db.get(encode_u64(i)) == i
        tid, n_blocks = victim.table_id, victim.n_blocks
        assert any((tid, idx) in db._block_cache for idx in range(n_blocks))
        mapped = victim._map
        self._drop(db, victim)
        assert not any((tid, idx) in db._block_cache for idx in range(n_blocks))
        assert mapped.closed and mapped.buf is None and victim._map is None
        db.close()

    @pytest.mark.parametrize("fs_kind", ["mem", "os"])
    def test_a_block_kept_past_the_drop_raises_and_never_answers(
        self, fs_kind, tmp_path, monkeypatch
    ):
        fs, db, victim = self._engine(fs_kind, tmp_path, monkeypatch)
        block = victim.read_block(0)
        key, value = block[0]
        assert block.find(key) == value and isinstance(key, bytes)
        self._drop(db, victim)
        uses = (
            lambda: block.find(key), lambda: block.first_ge(key), lambda: block.key(0),
            lambda: block.value(0), lambda: block[0], lambda: list(block.items()),
            lambda: list(block.cells()), lambda: block.columns(),
        )
        for use in uses:
            with pytest.raises(ValueError, match="closed"):
                use()
        assert key == encode_u64(0)  # what it handed out before is its own
        db.close()

    @pytest.mark.parametrize("fs_kind", ["mem", "os"])
    def test_a_snapshot_reads_through_its_blocks_across_the_compaction(
        self, fs_kind, tmp_path, monkeypatch
    ):
        fs, db, victim = self._engine(fs_kind, tmp_path, monkeypatch, background=True)
        snap = db.snapshot()
        pinned = snap.scan(b"", 400)
        blocks = [victim.read_block(i) for i in range(victim.n_blocks)]
        before = [list(block) for block in blocks]
        n = self._drop(db, victim)
        # Out of the live version, yet pinned: its map is open, its
        # blocks answer, and so does the snapshot through them.
        assert not victim._map.closed
        assert [list(block) for block in blocks] == before
        assert snap.scan(b"", 400) == pinned
        assert all(snap.get(k) == v for entries in before for k, v in entries)
        snap.release()
        with pytest.raises(ValueError, match="closed"):
            blocks[0].find(before[0][0][0])
        for i in range(0, n, 97):
            assert db.get(encode_u64(i)) == i
        db.close()

    @pytest.mark.parametrize("fs_kind", ["mem", "os"])
    def test_closing_a_map_with_blocks_and_views_out_leaks_no_buffer_error(
        self, fs_kind, tmp_path, monkeypatch
    ):
        """``MappedFile.close()`` raises nothing while a filter's views
        and blocks are out, and nothing is reported as unraisable when
        they die afterwards."""
        fs = MemFS() if fs_kind == "mem" else OsFileSystem()
        path = "t.sst" if fs_kind == "mem" else str(tmp_path / "t.sst")
        keys = [encode_u64(i) for i in range(200)]
        write_sstable(fs, path, column_blocks(keys, [encode_value(i) for i in range(200)], 8), 7,
                      filter_factory=lambda ks: BloomFilter(ks, bits_per_key=10))
        table = DiskSSTable(fs, path, table_id=7)
        flt, block, mapped = table.filter, table.read_block(3), table._ensure_map()
        raw = mapped.view[:16]
        unraisable = []
        monkeypatch.setattr("sys.unraisablehook", unraisable.append)
        table.close()
        assert mapped.closed and mapped.buf is None and mapped.view is None
        assert flt.may_contain(keys[5])  # its views keep the pages
        with pytest.raises(ValueError, match="closed"):
            block.find(keys[24])
        del flt, block, raw, mapped
        gc.collect()
        assert unraisable == []
        # A later fetch maps the file again.
        assert table.read_block(3).find(keys[24]) == 24
        table.close()

    def test_a_block_opened_over_a_real_mmap_hands_out_bytes(self, tmp_path):
        fs = OsFileSystem()
        path = str(tmp_path / "t.sst")
        keys = [encode_u64(i) for i in range(64)]
        write_sstable(fs, path, column_blocks(keys, [encode_value(b"v%d" % i) for i in range(64)]), 1)
        table = DiskSSTable(fs, path)
        block = table.read_block(0)
        assert isinstance(table._map.buf, mmap.mmap)
        for got in (block.key(3), block.value(3), *block[5], *block.cells(6, 7).__next__()):
            assert type(got) is bytes
        assert block.find(keys[9]) == b"v9"
        table.close()


# -- crash recovery over the mmap path ---------------------------------------


class TestCrashRecoveryOverMmap:
    def test_recovery_reads_through_open_mmap(self):
        """Kill mid-run; every torn-write view must recover through the
        same ``open_mmap`` path production uses."""
        fs = FaultFS(fail_at=None)
        db = LSMTree.open("db", fs=fs, **TINY_CONFIG)
        _fill(db, 120)
        db.close()
        total = fs.sync_points
        assert total > 4

        fs = FaultFS(fail_at=total // 2)
        db = LSMTree.open("db", fs=fs, **TINY_CONFIG)
        with pytest.raises(PowerFailure):
            _fill(db, 120)
        for mode in CRASH_MODES:
            view = fs.crashed_view(mode)
            recovered = LSMTree.open("db", fs=view, **TINY_CONFIG)
            k = recovered.last_seq
            for i in range(k):
                assert recovered.get(encode_u64(i)) == i
            recovered.close()


# -- deserializer copy-vs-view contracts -------------------------------------


class TestDeserializerOwnership:
    def test_bloom_view_mode_matches_copy_mode(self):
        keys = [encode_u64(i * 3) for i in range(500)]
        blob = BloomFilter(keys, bits_per_key=10).to_bytes()
        by_copy = BloomFilter.from_bytes(blob, copy=True)
        by_view = BloomFilter.from_bytes(blob, copy=False)
        probes = [encode_u64(i) for i in range(1600)]
        assert [by_view.may_contain(k) for k in probes] == [
            by_copy.may_contain(k) for k in probes
        ]
        assert by_copy._words.flags.writeable
        assert not by_view._words.flags.writeable

    def test_bloom_view_mode_refuses_mutation(self):
        blob = BloomFilter([b"a", b"b"], bits_per_key=10).to_bytes()
        flt = BloomFilter.from_bytes(blob, copy=False)
        with pytest.raises(ValueError, match="read-only"):
            flt._set(b"c")
        # copy=True stays mutable.
        BloomFilter.from_bytes(blob, copy=True)._set(b"c")

    def test_fst_view_mode_matches_copy_mode(self):
        keys = sorted(set(email_keys(400, seed=11)))
        fst = FST(keys, list(range(len(keys))))
        blob = fst_to_bytes(fst)
        by_copy = fst_from_bytes(blob, copy=True)
        by_view = fst_from_bytes(memoryview(blob), copy=False)
        for i, k in enumerate(keys):
            assert by_view.get(k) == by_copy.get(k) == i
        assert by_view.get(b"not-a-key") is None

    def test_surf_view_mode_matches_copy_mode(self):
        keys = sorted(email_keys(300, seed=23))
        surf = SuRF(keys, suffix_type="real", real_bits=4)
        blob = surf_to_bytes(surf)
        by_copy = surf_from_bytes(blob, copy=True)
        by_view = surf_from_bytes(memoryview(blob), copy=False)
        probes = keys + email_keys(100, seed=29)
        assert [by_view.lookup(k) for k in probes] == [
            by_copy.lookup(k) for k in probes
        ]

    def test_surf_view_mode_tombstones_stay_mutable(self):
        """Tombstones are the one mutable piece of a deserialized SuRF:
        they must be a private copy even in view mode."""
        keys = sorted(email_keys(64, seed=5))
        blob = surf_to_bytes(SuRF(keys, suffix_type="none"))
        buf = bytearray(blob)  # simulate an external shared buffer
        flt = surf_from_bytes(memoryview(buf), copy=False)
        assert flt.delete(keys[0])
        assert not flt.lookup(keys[0])
        # The delete wrote to the filter's own tombstone copy, not the
        # shared buffer.
        assert bytes(buf) == blob

    def test_frombuffer_view_has_no_copy(self):
        """The view path genuinely aliases: same base buffer."""
        keys = [encode_u64(i) for i in range(100)]
        blob = BloomFilter(keys, bits_per_key=10).to_bytes()
        buf = memoryview(blob)
        flt = BloomFilter.from_bytes(buf, copy=False)
        assert flt._words.base is not None
        assert np.shares_memory(
            flt._words, np.frombuffer(blob, dtype=np.uint8)[-flt._words.nbytes:]
        ) or flt._words.nbytes == 0
