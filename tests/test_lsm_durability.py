"""Durable LSM: WAL, manifest, on-disk tables, and crash recovery.

The centerpiece is the kill-at-every-sync-point matrix: a seeded
workload runs against the fault-injecting filesystem, power fails at
each durability point in turn under four torn-write models, and
recovery must restore a state that (a) contains every acknowledged
write and (b) is an exact prefix of the op sequence — nothing invented,
nothing reordered, all CRCs verified on the way back in.
"""

import random

import pytest

from repro.lsm import DiskSSTable, LSMTree, SSTable, TOMBSTONE, write_sstable
from repro.lsm import disk_format, manifest as manifest_mod, wal as wal_mod
from repro.lsm.fs import OsFileSystem, join
from repro.lsm.manifest import ManifestState
from repro.filters.bloom import BloomFilter
from repro.surf import surf_real
from repro.testing.faultfs import CRASH_MODES, FaultFS, MemFS, PowerFailure
from repro.workloads.keys import encode_u64


def bloom_factory(keys):
    return BloomFilter(keys, bits_per_key=12)


def surf_factory(keys):
    return surf_real(sorted(keys), real_bits=4)


def encode_pairs(pairs):
    """``(key, value)`` pairs as the table writers take them: a key
    column and a column of encoded values."""
    return [k for k, _ in pairs], [disk_format.encode_value(v) for _, v in pairs]


def block_of(pairs):
    return disk_format.encode_block(*encode_pairs(pairs))


def write_pairs(fs, path, pairs, **kw):
    write_sstable(fs, path, *encode_pairs(pairs), **kw)


# -- disk format -------------------------------------------------------------


class TestDiskFormat:
    def test_value_codec_roundtrip(self):
        for value in (0, 7, -13, 2**62, -(2**62), b"", b"blob\x00\xff", "héllo", TOMBSTONE):
            enc = disk_format.encode_value(value)
            assert disk_format.decode_value(enc) is value or disk_format.decode_value(enc) == value

    def test_value_codec_rejects_unstorable(self):
        for bad in (1.5, [1], {"a": 1}, object(), True, 2**64):
            with pytest.raises(TypeError):
                disk_format.encode_value(bad)

    #: One entry of every storable kind, plus the empty key and the
    #: empty value of each sized kind.
    MIXED = [
        (b"", 0), (b"a", -(2**63)), (b"ab", 2**63 - 1), (b"b", b""),
        (b"b\x00", b"blob\x00\xff" * 9), (b"c", ""), (b"d", "h\u00e9llo"),
        (b"e", TOMBSTONE), (b"\xff" * 40, 7),
    ]

    def test_block_roundtrip(self):
        pairs = [(encode_u64(i), i) for i in range(100)]
        block = disk_format.decode_block(block_of(pairs))
        assert len(block) == 100 and list(block) == pairs
        assert block[0] == pairs[0] and block[-1] == pairs[-1]
        with pytest.raises(IndexError):
            block[100]

    def test_block_roundtrip_every_value_kind(self):
        block = disk_format.decode_block(block_of(self.MIXED))
        assert list(block) == self.MIXED
        assert block.find(b"e") is TOMBSTONE  # identity, not a copy
        for i, (key, value) in enumerate(self.MIXED):
            assert block.key(i) == key and block.first_ge(key) == i
            assert block.find(key, "absent") == value
            assert type(block.find(key)) is type(value)
        assert block.find(b"aa", "absent") == "absent"
        assert block.first_ge(b"aa") == 2 and block.first_ge(b"\xff" * 41) == len(self.MIXED)
        assert list(block.items(7)) == self.MIXED[7:]

    def test_hot_block_search_agrees_with_cold(self):
        """A block switches from the in-place bisect to a materialized
        key list once it has been probed enough; both must agree on
        stored keys, gaps between them, and both ends."""
        pairs = [(encode_u64(i * 2), i) for i in range(64)]
        raw = block_of(pairs)
        probes = [encode_u64(i) for i in range(130)] + [b"", b"\xff" * 9]
        for probe in probes:
            cold, hot = disk_format.decode_block(raw), disk_format.decode_block(raw)
            for _ in range(disk_format._HOT_BLOCK_PROBES):
                hot.first_ge(b"warm-up")
            assert cold._keys is None and hot.first_ge(probe) == cold.first_ge(probe)
            assert hot._keys is not None
            assert hot.find(probe, "absent") == cold.find(probe, "absent")

    def test_empty_block_roundtrip(self):
        block = disk_format.decode_block(block_of([]))
        assert len(block) == 0 and list(block) == []
        assert block.first_ge(b"") == 0 and block.find(b"") is None

    def test_block_bytes_match_the_interleaved_layout(self):
        """Columnar lengths cost exactly what interleaved ones did, so
        the format change cannot move space amplification."""
        interleaved = 4 + sum(
            8 + len(k) + len(disk_format.encode_value(v)) for k, v in self.MIXED
        )
        assert len(block_of(self.MIXED)) == 8 + interleaved

    def test_block_handouts_do_not_alias_the_source_buffer(self):
        source = bytearray(block_of(self.MIXED))
        block = disk_format.decode_block(memoryview(source))
        source[:] = bytes(len(source))  # the "mmap" goes away
        assert list(block) == self.MIXED

    def test_every_single_bit_flip_is_detected(self):
        blob = block_of(self.MIXED[:4])
        for i in range(len(blob)):
            for bit in range(8):
                damaged = blob[:i] + bytes([blob[i] ^ (1 << bit)]) + blob[i + 1 :]
                with pytest.raises(disk_format.FrameError):
                    disk_format.decode_block(damaged)

    def test_every_truncation_is_detected(self):
        blob = block_of(self.MIXED)
        for cut in range(len(blob)):
            with pytest.raises(disk_format.FrameError):
                disk_format.decode_block(blob[:cut])

    def test_inconsistent_lengths_with_a_good_crc_are_rejected(self):
        """A CRC-clean payload whose columns do not add up (the old
        interleaved layout, say) is a FrameError, never a misparse."""
        u32 = lambda *v: b"".join(x.to_bytes(4, "little") for x in v)
        old_layout = u32(2) + b"".join(
            u32(len(k)) + k + u32(len(v)) + v for k, v in ((b"a", b"\x02x"), (b"b", b"\x02y"))
        )
        for payload in (old_layout, u32(3), u32(1, 5, 1) + b"k\x00", b"\x01"):
            with pytest.raises(disk_format.FrameError):
                disk_format.decode_block(disk_format.frame(payload))


# -- WAL ---------------------------------------------------------------------


class TestWal:
    def test_roundtrip(self):
        fs = MemFS()
        w = wal_mod.WalWriter(fs, "wal", sync_every=2)
        w.append_put(1, b"a", 10)
        w.append_delete(2, b"b")
        w.append_put(3, b"c", b"raw")
        w.close()
        records = wal_mod.replay(fs, "wal")
        assert records[0] == (1, b"a", 10)
        assert records[1][2] is TOMBSTONE
        assert records[2] == (3, b"c", b"raw")

    def test_batched_sync_acknowledges_in_groups(self):
        fs = FaultFS()
        w = wal_mod.WalWriter(fs, "wal", sync_every=3)
        base = fs.sync_points
        w.append_put(1, b"a", 1)
        w.append_put(2, b"b", 2)
        assert w.synced_seq == 0 and fs.sync_points == base
        w.append_put(3, b"c", 3)  # third record triggers the group commit
        assert w.synced_seq == 3 and fs.sync_points == base + 1

    def test_torn_tail_ends_replay(self):
        fs = MemFS()
        w = wal_mod.WalWriter(fs, "wal", sync_every=1)
        for i in range(5):
            w.append_put(i + 1, encode_u64(i), i)
        w.close()
        data = fs.read("wal")
        for cut in (len(data) - 1, len(data) - 7, len(data) // 2):
            torn = MemFS()
            f = torn.create("wal")
            f.append(data[:cut])
            f.sync()
            records = wal_mod.replay(torn, "wal")
            assert len(records) < 5
            # Still a clean prefix: seqs 1..len(records).
            assert [r[0] for r in records] == list(range(1, len(records) + 1))

    def test_non_monotonic_seq_raises(self):
        fs = MemFS()
        f = fs.create("wal")
        f.append(wal_mod.encode_record(1, 5, b"a", 1))
        f.append(wal_mod.encode_record(1, 4, b"b", 2))
        f.sync()
        with pytest.raises(disk_format.FrameError):
            wal_mod.replay(fs, "wal")


# -- manifest ----------------------------------------------------------------


class TestManifest:
    def test_install_and_load(self):
        fs = MemFS()
        fs.mkdir("db")
        state = ManifestState(
            version=3, next_table_id=9, last_seq=41, wal_name="wal-00000002.log",
            wal_index=2, levels=[[5, 4], [1, 2, 3]],
        )
        manifest_mod.install(fs, "db", state)
        assert manifest_mod.load_current(fs, "db") == state

    def test_missing_current_means_fresh(self):
        fs = MemFS()
        fs.mkdir("db")
        assert manifest_mod.load_current(fs, "db") is None

    def test_crc_guards_manifest(self):
        fs = MemFS()
        fs.mkdir("db")
        manifest_mod.install(fs, "db", ManifestState(version=1))
        name = fs.read("db/CURRENT").decode().strip()
        blob = bytearray(fs.read(join("db", name)))
        blob[-1] ^= 0x01
        f = fs.create(join("db", name))
        f.append(bytes(blob))
        f.sync()
        with pytest.raises(disk_format.FrameError):
            manifest_mod.load_current(fs, "db")


# -- on-disk SSTables --------------------------------------------------------


class TestDiskSSTable:
    def _write(self, fs, pairs, filter_factory=None, **kw):
        write_pairs(fs, "t.sst", pairs, table_id=7, filter_factory=filter_factory, **kw)
        return DiskSSTable(fs, "t.sst", filter_factory=filter_factory)

    def test_roundtrip_blocks_fences_metadata(self):
        fs = MemFS()
        pairs = [(encode_u64(i), i) for i in range(300)]
        table = self._write(fs, pairs, block_entries=64)
        assert table.table_id == 7
        assert table.n_entries == 300
        assert table.n_blocks == 5
        assert table.min_key == encode_u64(0) and table.max_key == encode_u64(299)
        assert table.fences[1] == encode_u64(64)
        assert list(table.items()) == pairs
        assert table.read_block(2)[0] == (encode_u64(128), 128)

    def test_tombstones_survive_serialization(self):
        fs = MemFS()
        pairs = [(b"a", 1), (b"b", TOMBSTONE), (b"c", 3)]
        table = self._write(fs, pairs)
        assert table.read_block(0)[1][1] is TOMBSTONE

    def test_surf_filter_roundtrip(self):
        fs = MemFS()
        pairs = [(encode_u64(i * 3), i) for i in range(200)]
        table = self._write(fs, pairs, filter_factory=surf_factory)
        assert table.filter is not None
        assert table.may_contain(encode_u64(30))
        assert table.filter_seek(encode_u64(0)) is not None

    def test_bloom_filter_roundtrip(self):
        fs = MemFS()
        pairs = [(encode_u64(i * 3), i) for i in range(200)]
        table = self._write(fs, pairs, filter_factory=bloom_factory)
        assert all(table.may_contain(encode_u64(i * 3)) for i in range(200))
        misses = sum(table.may_contain(encode_u64(10**9 + i)) for i in range(200))
        assert misses < 40  # one-sided error, roughly the configured FPR

    def test_unknown_filter_rebuilt_from_keys(self):
        fs = MemFS()

        class OddFilter:
            def __init__(self, keys):
                self.keys = set(keys)

            def may_contain(self, key):
                return key in self.keys

            def memory_bytes(self):
                return 0

        pairs = [(encode_u64(i), i) for i in range(50)]
        table = self._write(fs, pairs, filter_factory=lambda ks: OddFilter(ks))
        assert table.may_contain(encode_u64(7))
        assert not table.may_contain(encode_u64(99))

    def test_corrupt_block_raises_on_read(self):
        fs = MemFS()
        pairs = [(encode_u64(i), i) for i in range(128)]
        write_pairs(fs, "t.sst", pairs, table_id=0, block_entries=64)
        table = DiskSSTable(fs, "t.sst")
        data = bytearray(fs.read("t.sst"))
        data[20] ^= 0xFF  # inside block 0's payload
        f = fs.create("t.sst")
        f.append(bytes(data))
        f.sync()
        table = DiskSSTable(fs, "t.sst")
        with pytest.raises(disk_format.FrameError):
            table.read_block(0)

    def test_old_format_table_is_rejected_loudly(self):
        """A file with the pre-columnar "LSMS" trailer — what an engine
        one PR older wrote — fails the magic check at open."""
        fs = MemFS()
        write_pairs(fs, "t.sst", [(b"a", 1), (b"b", 2)], table_id=0)
        blob = fs.read("t.sst")
        assert blob.endswith(b"LSM2")
        f = fs.create("old.sst")
        f.append(blob[:-4] + b"LSMS")
        f.sync()
        with pytest.raises(disk_format.FrameError, match="bad magic"):
            DiskSSTable(fs, "old.sst")
        with pytest.raises(disk_format.FrameError, match="bad magic"):
            DiskSSTable(fs, "old.sst", table_id=0).read_block(0)

    def test_truncated_file_rejected_at_open(self):
        fs = MemFS()
        write_pairs(fs, "t.sst", [(b"a", 1)], table_id=0)
        blob = fs.read("t.sst")
        for cut in (0, 4, len(blob) // 2, len(blob) - 1):
            f = fs.create("cut.sst")
            f.append(blob[:cut])
            f.sync()
            with pytest.raises(disk_format.FrameError):
                DiskSSTable(fs, "cut.sst")


# -- engine-level durability -------------------------------------------------


CONFIG = dict(
    memtable_entries=8,
    sstable_entries=32,
    block_entries=4,
    level0_limit=2,
    block_cache_blocks=16,
    wal_sync_every=3,
)


def _workload(n_ops=120, seed=5, key_space=40):
    """Seeded put/delete mix over a small hot key range."""
    rng = random.Random(seed)
    ops = []
    for i in range(n_ops):
        key = encode_u64(rng.randrange(key_space))
        if rng.random() < 0.3:
            ops.append(("delete", key, None))
        else:
            ops.append(("put", key, i))
    return ops


def _model_after(ops, k):
    """Reference dict state after the first ``k`` ops."""
    model = {}
    for op, key, value in ops[:k]:
        if op == "put":
            model[key] = value
        else:
            model.pop(key, None)
    return model


def _apply(db, ops):
    """Run ops until done or power failure; returns ops applied."""
    applied = 0
    for op, key, value in ops:
        if op == "put":
            db.put(key, value)
        else:
            db.delete(key)
        applied += 1
    return applied


def _assert_state_matches(db, model, key_space=40):
    for i in range(key_space):
        key = encode_u64(i)
        assert db.get(key) == model.get(key)
    live = sorted(model.items())
    assert db.scan(b"", len(live) + 5) == live


class TestRecovery:
    def test_clean_close_and_reopen(self):
        fs = MemFS()
        ops = _workload(200)
        db = LSMTree.open("db", fs=fs, **CONFIG)
        _apply(db, ops)
        db.close()
        db2 = LSMTree.open("db", fs=fs, **CONFIG)
        _assert_state_matches(db2, _model_after(ops, 200))
        assert db2.last_seq == 200

    def test_reopen_without_close_recovers_synced_prefix(self):
        fs = MemFS()
        ops = _workload(150)
        db = LSMTree.open("db", fs=fs, **CONFIG)
        _apply(db, ops)
        acked = db.last_acked_seq  # no close(): the unsynced tail may vanish
        db2 = LSMTree.open("db", fs=fs, **CONFIG)
        assert db2.last_seq >= acked
        _assert_state_matches(db2, _model_after(ops, db2.last_seq))

    def test_recovered_engine_continues_and_recovers_again(self):
        fs = MemFS()
        ops = _workload(100, seed=6)
        more = _workload(100, seed=7)
        db = LSMTree.open("db", fs=fs, **CONFIG)
        _apply(db, ops)
        db.close()
        db2 = LSMTree.open("db", fs=fs, **CONFIG)
        _apply(db2, more)
        db2.close()
        db3 = LSMTree.open("db", fs=fs, **CONFIG)
        expected = _model_after(ops + more, 200)
        _assert_state_matches(db3, expected)
        assert db3.last_seq == 200

    def test_table_ids_unique_across_recovery(self):
        """A recovered engine must never reuse a table id (they key the
        block cache and name the files)."""
        fs = MemFS()
        db = LSMTree.open("db", fs=fs, **CONFIG)
        _apply(db, _workload(100, seed=8))
        ids_before = {t.table_id for level in db.levels for t in level}
        db.close()
        db2 = LSMTree.open("db", fs=fs, **CONFIG)
        _apply(db2, _workload(100, seed=9))
        ids_after = {t.table_id for level in db2.levels for t in level}
        # New tables written post-recovery got fresh ids.
        new_ids = ids_after - ids_before
        assert new_ids and max(ids_before, default=-1) < min(new_ids)

    def test_two_engines_do_not_share_table_ids_state(self):
        """Engine-scoped allocators: two independent engines may use the
        same ids without either skipping numbers (the old class-global
        counter double-counted across engines)."""
        a = LSMTree(memtable_entries=4)
        b = LSMTree(memtable_entries=4)
        for i in range(8):
            a.put(encode_u64(i), i)
            b.put(encode_u64(i), i)
        a_ids = sorted(t.table_id for level in a.levels for t in level)
        b_ids = sorted(t.table_id for level in b.levels for t in level)
        assert a_ids == b_ids == [0, 1]

    def test_orphan_files_garbage_collected(self):
        fs = MemFS()
        db = LSMTree.open("db", fs=fs, **CONFIG)
        _apply(db, _workload(60, seed=10))
        db.close()
        # Simulate a crashed flush: an orphan table and a stale tmp.
        write_pairs(fs, "db/sst-00009999.sst", [(b"zz", 1)], table_id=9999)
        f = fs.create("db/MANIFEST-00099999.tmp")
        f.append(b"junk")
        f.sync()
        db2 = LSMTree.open("db", fs=fs, **CONFIG)
        names = fs.listdir("db")
        assert "sst-00009999.sst" not in names
        assert "MANIFEST-00099999.tmp" not in names
        assert db2.get(b"zz") is None

    def test_real_filesystem_roundtrip(self, tmp_path):
        path = str(tmp_path / "db")
        ops = _workload(200, seed=11)
        db = LSMTree.open(path, **CONFIG)
        _apply(db, ops)
        db.close()
        db2 = LSMTree.open(path, **CONFIG)
        _assert_state_matches(db2, _model_after(ops, 200))
        assert isinstance(db2._fs, OsFileSystem)

    def test_durable_rejects_unstorable_values(self):
        db = LSMTree.open("db", fs=MemFS(), **CONFIG)
        with pytest.raises(TypeError):
            db.put(b"k", 3.14)

    def test_recovery_with_filters(self):
        for factory in (bloom_factory, surf_factory):
            fs = MemFS()
            ops = _workload(150, seed=12)
            db = LSMTree.open("db", fs=fs, filter_factory=factory, **CONFIG)
            _apply(db, ops)
            db.close()
            db2 = LSMTree.open("db", fs=fs, filter_factory=factory, **CONFIG)
            _assert_state_matches(db2, _model_after(ops, 150))
            assert db2.filter_memory_bytes() > 0


def _check_recovery(fs, ops, started, acked, point):
    """Open the crashed directory under every torn-write model and
    check invariants (a)-(d) of the kill matrices (see
    :class:`TestKillDuringBackgroundFlushAndCompaction`)."""
    for mode in CRASH_MODES:
        view = fs.crashed_view(mode)
        recovered = LSMTree.open("db", fs=view, **CONFIG)
        k = recovered.last_seq
        assert k <= started, (
            f"point {point} mode {mode} ({fs.crash_label}): recovered "
            f"seq {k} beyond started {started}"
        )
        assert k >= acked, (
            f"point {point} mode {mode} ({fs.crash_label}): lost acked "
            f"writes (recovered {k} < acked {acked})"
        )
        expected = _model_after(ops, k)
        for key in {key for _, key, _ in ops}:
            assert recovered.get(key) == expected.get(key), (
                f"point {point} mode {mode}: key {key!r} diverged"
            )
        # (d) the open GC'd everything the recovered manifest does
        # not reference: no orphan compaction/flush outputs, no tmps.
        referenced = {
            f"sst-{t.table_id:08d}.sst"
            for level in recovered.levels
            for t in level
        }
        names = view.listdir("db")
        orphans = [
            n for n in names if n.startswith("sst-") and n not in referenced
        ]
        assert not orphans, (
            f"point {point} mode {mode}: orphan tables survived open: "
            f"{orphans}"
        )
        assert not [n for n in names if n.endswith(".tmp")], (
            f"point {point} mode {mode}: stale tmp files survived open"
        )
        recovered.close()


class TestKillAtEverySyncPoint:
    """The tentpole acceptance test: for every injected crash point and
    torn-write variant, recovery lands on a state that contains every
    acknowledged write and is an exact prefix of the op sequence."""

    N_OPS = 120

    def _count_sync_points(self, ops):
        fs = FaultFS(fail_at=None)
        db = LSMTree.open("db", fs=fs, **CONFIG)
        _apply(db, ops)
        db.close()
        return fs.sync_points

    def _crash_run(self, ops, point):
        """Run until power fails at ``point``; returns (fs, started, acked).

        ``started`` counts ops *begun*, including the one in flight at
        the crash: its WAL record may exist, so (like any real database)
        recovery may legitimately restore it even though the caller
        never got an acknowledgement.
        """
        fs = FaultFS(fail_at=point)
        started = 0
        acked = 0
        try:
            db = LSMTree.open("db", fs=fs, **CONFIG)
            for op, key, value in ops:
                started += 1
                if op == "put":
                    db.put(key, value)
                else:
                    db.delete(key)
                acked = db.last_acked_seq
            db.close()
        except PowerFailure:
            # ``db`` may have died mid-constructor; its watermark (if
            # any) was last read after the previous successful op.
            pass
        return fs, started, acked

    def test_every_crash_point_every_torn_mode(self):
        ops = _workload(self.N_OPS, seed=13)
        total_points = self._count_sync_points(ops)
        assert total_points > 30  # the workload must actually exercise flushes
        labels = []
        for point in range(1, total_points + 1):
            fs, started, acked = self._crash_run(ops, point)
            assert fs.crashed or started == len(ops)
            labels.append(fs.crash_label)
            _check_recovery(fs, ops, started, acked, point)
        # The caller-run executor commits in the order the threads do
        # (test_both_executors_commit_in_the_same_order), so this sweep
        # — reproducible, label for label — died at the freeze-time
        # segment sync, inside a table write and at the commit point.
        assert any(lbl.startswith("sync db/wal-") for lbl in labels), labels
        assert any(lbl.startswith("sync db/sst-") for lbl in labels), labels
        assert any(lbl.endswith("-> db/CURRENT") for lbl in labels), labels

    def test_crash_during_recovery_is_safe(self):
        """Recovery itself writes (re-log + manifest): killing it at any
        point must leave a directory the next recovery still opens."""
        ops = _workload(80, seed=14)
        fs = FaultFS(fail_at=None)
        db = LSMTree.open("db", fs=fs, **CONFIG)
        _apply(db, ops)
        acked = db.last_acked_seq
        base = fs.crashed_view("keep")  # un-closed: WAL tail intact

        def fresh_faultfs(fail_at):
            f = FaultFS(fail_at=fail_at)
            f._dirs = set(base._dirs)
            for path, mf in base._files.items():
                nf = f.create(path)
                nf.append(mf.content)
            # Copies land fully durable without consuming crash points.
            for mf in f._files.values():
                mf.durable, mf.volatile = bytes(mf.volatile), bytearray()
            return f

        # How many durability points does one clean recovery use?
        clean = fresh_faultfs(None)
        LSMTree.open("db", fs=clean, **CONFIG).close()
        points = clean.sync_points
        assert points > 0
        for point in range(1, points + 1):
            f = fresh_faultfs(point)
            try:
                LSMTree.open("db", fs=f, **CONFIG)
                crashed = False
            except PowerFailure:
                crashed = True
            view = f.crashed_view("drop")
            final = LSMTree.open("db", fs=view, **CONFIG)
            assert final.last_seq >= acked
            expected = _model_after(ops, final.last_seq)
            _assert_state_matches(final, expected)
            if not crashed:
                break


BG_CONFIG = dict(CONFIG, background=True, max_immutables=2, slowdown_sleep=0.0)

#: Sweep guard: the background run's durability-point count varies with
#: thread interleaving, so the matrix probes points upward until a run
#: survives uncrashed instead of pre-counting; this bounds the sweep if
#: something regresses into generating unbounded sync traffic.
MAX_BG_POINTS = 600


class TestKillDuringBackgroundFlushAndCompaction:
    """The background counterpart of :class:`TestKillAtEverySyncPoint`.

    With ``background=True`` every SSTable fsync, manifest install, and
    CURRENT rename happens on the flusher/compactor threads while the
    writer keeps appending WAL records — so sweeping the crash counter
    kills the engine *inside* background flushes and compactions, at
    points the inline matrix can never reach.  Interleaving moves where
    each numbered point lands between runs; the invariants hold at
    every point regardless:

    (a) recovery never resurrects more than the ops actually started;
    (b) no write whose acknowledgement was observed is ever lost;
    (c) the recovered state is an exact op-prefix state;
    (d) orphan compaction/flush outputs (tables the crashed manifest
        never referenced, stale tmps) are GC'd at open.
    """

    N_OPS = 100

    def _crash_run(self, ops, point):
        """Run the workload on a background engine until power fails at
        ``point`` (or to completion); returns (fs, started, acked)."""
        fs = FaultFS(fail_at=point)
        started = 0
        acked = 0
        db = None
        try:
            db = LSMTree.open("db", fs=fs, **BG_CONFIG)
            for op, key, value in ops:
                started += 1
                if op == "put":
                    db.put(key, value)
                else:
                    db.delete(key)
                # The ack floor also rises asynchronously (each freeze
                # fsyncs the old segment), so track the max observed.
                acked = max(acked, db.last_acked_seq)
            db.wait_idle()
            db.close()
        except PowerFailure:
            pass
        finally:
            if db is not None:
                try:
                    db.close()
                except PowerFailure:
                    # Threads are joined before close touches the fs, so
                    # a dead fs here leaves nothing running.
                    pass
        return fs, started, acked

    def test_every_crash_point_every_torn_mode(self):
        ops = _workload(self.N_OPS, seed=21)
        labels = []
        point = 0
        while point < MAX_BG_POINTS:
            point += 1
            fs, started, acked = self._crash_run(ops, point)
            if not fs.crashed:
                # fail_at was never reached: the whole workload, every
                # background flush/compaction, and close ran clean.
                assert started == len(ops)
                break
            labels.append(fs.crash_label)
            _check_recovery(fs, ops, started, acked, point)
        else:
            raise AssertionError(
                f"sweep did not terminate within {MAX_BG_POINTS} points"
            )
        # The sweep must actually have died inside background work:
        # table fsyncs and manifest/CURRENT installs only ever happen on
        # the flusher/compactor threads in background mode.
        assert any("sst-" in lbl for lbl in labels), labels
        assert any("CURRENT" in lbl for lbl in labels), labels
        assert any("wal-" in lbl for lbl in labels), labels

    def test_both_executors_commit_in_the_same_order(self):
        """One lifecycle: the durability points of a caller-run engine
        are, label for label, those of a thread-run engine whose
        threads are given every write's work before the next write."""

        class RecordingFS(MemFS):
            def __init__(self):
                super().__init__()
                self.labels = []

            def _durability_point(self, label):
                self.labels.append(label)

        ops = _workload(self.N_OPS, seed=23)
        sequences = []
        for config in (CONFIG, BG_CONFIG):
            fs = RecordingFS()
            db = LSMTree.open("db", fs=fs, **config)
            for op in ops:
                _apply(db, [op])
                db.wait_idle()
            db.close()
            assert db.flush_count > 5 and db.compaction_count > 0
            sequences.append(fs.labels)
        assert sequences[0] == sequences[1]

    def test_background_and_inline_recover_identically(self):
        """A directory written by a background engine is just an LSM
        directory: an inline engine recovers it to the same state, and
        vice versa (the manifest/WAL formats carry no mode)."""
        ops = _workload(self.N_OPS, seed=22)
        fs = MemFS()
        db = LSMTree.open("db", fs=fs, **BG_CONFIG)
        _apply(db, ops)
        db.wait_idle()
        db.close()
        expected = _model_after(ops, len(ops))
        for config in (CONFIG, BG_CONFIG):
            recovered = LSMTree.open("db", fs=fs, **config)
            _assert_state_matches(recovered, expected)
            assert recovered.last_seq == len(ops)
            recovered.close()


class TestKillDuringReadDrivenCompaction:
    """The compaction the *readers* ask for (wasted L0 probes, not the
    table count) commits through the same ``_compact_level`` →
    ``_install_manifest`` path: a crash at each of its durability
    points recovers under invariants (a)-(d)."""

    def _run(self, ops, fail_at):
        """Writes until L0 and L1 both hold tables and nothing is
        queued, then reads until the debt is due, then the compaction.
        Returns (fs, ops applied, acked, sync points before the
        compaction, read compactions run)."""
        fs = FaultFS(fail_at=fail_at)
        db = LSMTree.open("db", fs=fs, **CONFIG)
        applied = 0
        while not (db.levels[0] and len(db.levels) > 1 and db.levels[1]):
            _apply(db, [ops[applied]])
            applied += 1
        acked = db.last_acked_seq
        keys = sorted({key for _, key, _ in ops})
        reads = 0
        while not db.compaction_backlog():
            db.get_many(keys)
            reads += 1
            assert reads < 1000, "read debt never came due"
        before = fs.sync_points
        try:
            db.wait_idle()  # caller-run: the compaction runs here
            db.close()
        except PowerFailure:
            pass
        return fs, applied, acked, before, db.read_compaction_count

    def test_every_crash_point_every_torn_mode(self):
        ops = _workload(120, seed=31)
        fs, applied, acked, before, ran = self._run(ops, fail_at=None)
        assert ran == 1 and not fs.crashed
        assert fs.sync_points - before >= 3  # table sync, manifest sync, rename
        labels = []
        for point in range(before + 1, fs.sync_points + 1):
            crashed, applied_again, acked_again, _, _ = self._run(ops, fail_at=point)
            assert (applied_again, acked_again) == (applied, acked)  # deterministic
            assert crashed.crashed
            labels.append(crashed.crash_label)
            _check_recovery(crashed, ops, applied, acked, point)
        assert any(lbl.startswith("sync db/sst-") for lbl in labels), labels
        assert any(lbl.endswith("-> db/CURRENT") for lbl in labels), labels


# -- batched writes (group commit) -------------------------------------------


class TestWriteBatch:
    def test_batch_is_one_group_commit(self):
        """A write_batch of any size costs exactly one WAL fsync and
        acknowledges every record in it at once."""
        fs = FaultFS()
        db = LSMTree.open("db", fs=fs, memtable_entries=64, wal_sync_every=32)
        base = fs.sync_points
        db.write_batch([(encode_u64(i), i) for i in range(20)])
        assert fs.sync_points == base + 1
        assert db.last_acked_seq == 20

    def test_batch_with_tombstones_recovers(self):
        fs = MemFS()
        db = LSMTree.open("db", fs=fs, **CONFIG)
        db.write_batch([(encode_u64(i), i) for i in range(10)])
        db.write_batch(
            [(encode_u64(3), TOMBSTONE), (encode_u64(10), 100), (encode_u64(4), TOMBSTONE)]
        )
        db.close()
        db2 = LSMTree.open("db", fs=fs, **CONFIG)
        assert db2.get(encode_u64(3)) is None
        assert db2.get(encode_u64(4)) is None
        assert db2.get(encode_u64(5)) == 5
        assert db2.get(encode_u64(10)) == 100
        assert db2.last_seq == 13

    def test_unstorable_value_aborts_batch_unchanged(self):
        """Encoding happens before any byte reaches the WAL: a bad
        value must leave the log, the seq counter, and the memtable
        exactly as they were."""
        fs = MemFS()
        db = LSMTree.open("db", fs=fs, **CONFIG)
        db.put(b"before", 1)
        seq = db.last_seq
        with pytest.raises(TypeError):
            db.write_batch([(b"good", 2), (b"bad", 1.5)])
        assert db.last_seq == seq
        assert db.get(b"good") is None
        db.close()
        db2 = LSMTree.open("db", fs=fs, **CONFIG)
        assert db2.get(b"good") is None
        assert db2.get(b"before") == 1
        assert db2.last_seq == seq

    def test_crash_right_after_batch_keeps_whole_batch(self):
        fs = FaultFS(fail_at=None)
        db = LSMTree.open("db", fs=fs, **CONFIG)
        db.write_batch([(encode_u64(i), i) for i in range(6)])
        acked = db.last_acked_seq
        assert acked == 6
        for mode in CRASH_MODES:
            view = fs.crashed_view(mode)
            recovered = LSMTree.open("db", fs=view, **CONFIG)
            assert recovered.last_seq >= acked
            for i in range(6):
                assert recovered.get(encode_u64(i)) == i
            recovered.close()

    def test_empty_batch_is_free(self):
        fs = FaultFS()
        db = LSMTree.open("db", fs=fs, **CONFIG)
        base = fs.sync_points
        db.write_batch([])
        assert fs.sync_points == base and db.last_seq == 0
