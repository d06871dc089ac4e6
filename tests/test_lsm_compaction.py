"""Background compaction lifecycle: freeze, backpressure, snapshots.

The engine's LevelDB-style lifecycle (mutable memtable → frozen
immutable → background flush to L0 → leveled background compaction)
replaces the old inline flush-and-compact on the writer path.  These
tests pin the moving parts down one at a time:

* a full memtable freezes instead of blocking the writer, and reads
  see frozen entries while the flusher works;
* slowdown/stall thresholds trigger under backlog and clear when the
  background threads drain — counted, bounded, observable in ``info()``;
* sequence-number snapshots read exactly their pinned state while
  flush/compaction rewrite the levels underneath;
* version refcounts defer block-cache eviction and file unlink of
  compacted-away tables until the last snapshot referencing them is
  released (the DESIGN.md §8 protocol);
* a short threaded torture round (writer + snapshot readers + churning
  background threads) passes end to end;
* read-driven compaction: wasted L0 probes are a second trigger that
  changes no answer, converges a read-only engine to an empty L0 with
  one compaction per L0 generation, and never fires under a
  write-heavy mix; the streaming merge it runs through writes the
  tables the whole-level merge wrote.
"""

import math
import random
import threading
import time

import pytest

from repro.lsm import LSMTree, disk_format
from repro.lsm import engine as engine_mod
from repro.lsm.disk_format import encode_value
from repro.lsm.sstable import DiskSSTable, TOMBSTONE, column_blocks, write_sstable
from repro.testing.faultfs import MemFS
from repro.testing.threaded import generate_write_ops, model_after, run_torture
from repro.trees.gapped_btree import GappedBPlusTree
from repro.workloads import random_u64_keys, ycsb
from repro.workloads.keys import encode_u64

CONFIG = dict(
    memtable_entries=8,
    sstable_entries=32,
    block_entries=4,
    level0_limit=2,
    block_cache_blocks=16,
    wal_sync_every=3,
)
BG = dict(CONFIG, background=True, slowdown_sleep=0.0)


def _fill(db, n, start=0):
    for i in range(start, start + n):
        db.put(encode_u64(i), i)


def _gate_flusher(db):
    """Block the flusher before its first flush until the gate opens.

    Lets a test hold the engine in the frozen-but-unflushed state
    deterministically; the patched method restores itself after the
    first gated call so drain behaviour afterwards is stock.
    """
    gate = threading.Event()
    original = db._flush_frozen

    def gated(frozen):
        gate.wait(timeout=10.0)
        db._flush_frozen = original
        original(frozen)

    db._flush_frozen = gated
    return gate


class TestFreeze:
    def test_memtable_freezes_at_capacity(self):
        db = LSMTree.open("db", fs=MemFS(), max_immutables=4, **BG)
        gate = _gate_flusher(db)
        try:
            _fill(db, CONFIG["memtable_entries"] + 1)
            info = db.info()
            assert info["immutables"] >= 1
            assert info["l0_tables"] == 0  # flusher is gated, not raced
            # Reads see frozen entries (they sit in the immutable list,
            # not yet in any table).
            for i in range(CONFIG["memtable_entries"] + 1):
                assert db.get(encode_u64(i)) == i
            # Freeze acknowledged the sealed records: the old segment
            # was fsynced before rotation.
            assert db.last_acked_seq >= CONFIG["memtable_entries"]
        finally:
            gate.set()
        db.wait_idle()
        info = db.info()
        assert info["immutables"] == 0
        assert info["flushes"] >= 1
        for i in range(CONFIG["memtable_entries"] + 1):
            assert db.get(encode_u64(i)) == i
        db.close()

    def test_frozen_memtable_is_sealed_at_freeze(self, monkeypatch):
        """A frozen memtable is read by the flush and by pinned scans
        with no lock in common, so nothing may be left to drain into
        its tree once it is listed: the writer drains it at freeze.
        The seal contract is the gapped memtable's (the default dict
        one has nothing to drain), so the engine is built with it."""
        db = LSMTree.open(
            "db", fs=MemFS(), max_immutables=4,
            memtable_factory=engine_mod.GappedMemtable, **BG,
        )
        gate = _gate_flusher(db)
        mutators = []
        try:
            _fill(db, CONFIG["memtable_entries"])  # below the drain limit
            frozen_tree = db._immutables[0].data._tree
            original = GappedBPlusTree.put_many

            def spy(tree, pairs):
                if tree is frozen_tree:
                    mutators.append(threading.current_thread().name)
                return original(tree, pairs)

            monkeypatch.setattr(GappedBPlusTree, "put_many", spy)
            assert len(db.scan(b"", 100)) == CONFIG["memtable_entries"]
            db.snapshot().release()
        finally:
            gate.set()
        db.wait_idle()  # the flush reads it too
        assert db.info()["flushes"] == 1
        assert mutators == []
        db.close()

    def test_flush_memtable_drains_in_background_mode(self):
        db = LSMTree.open("db", fs=MemFS(), **BG)
        _fill(db, 5)  # below capacity: nothing frozen yet
        db.flush_memtable()
        info = db.info()
        assert info["immutables"] == 0 and info["l0_tables"] >= 1
        db.close()


class TestBackpressure:
    def test_writer_stalls_on_full_immutable_list_and_clears(self):
        db = LSMTree.open("db", fs=MemFS(), max_immutables=1, **BG)
        gate = _gate_flusher(db)
        try:
            _fill(db, CONFIG["memtable_entries"])  # freeze #1: list is full
            assert db.info()["immutables"] == 1

            stalled_put_done = threading.Event()

            def stalled_writer():
                # Filling the memtable again forces freeze #2, and the
                # backpressure gate blocks each put once the immutable
                # list is at max_immutables.
                _fill(db, CONFIG["memtable_entries"] + 1, start=1000)
                stalled_put_done.set()

            w = threading.Thread(target=stalled_writer)
            w.start()
            # The writer must be parked in the stall gate, not finished.
            assert not stalled_put_done.wait(timeout=0.3)
            assert db.stall_count >= 1
        finally:
            gate.set()
        # Stall clears once the flusher drains: the writer completes.
        assert stalled_put_done.wait(timeout=10.0)
        w.join(timeout=10.0)
        db.wait_idle()
        assert db.info()["immutables"] == 0
        assert db.stall_seconds > 0.0
        for i in range(1000, 1000 + CONFIG["memtable_entries"] + 1):
            assert db.get(encode_u64(i)) == i
        db.close()

    def test_slowdown_counter_rises_under_l0_debt(self):
        db = LSMTree.open(
            "db", fs=MemFS(), l0_slowdown=1, l0_stall=64, **BG
        )
        # With the slowdown trigger at a single L0 table, any write
        # landing while the compactor still owes work is counted.
        _fill(db, 400)
        db.wait_idle()
        assert db.slowdown_count > 0
        assert db.info()["compactions"] >= 1
        db.close()

    def test_info_carries_the_gate_counters_and_backlog(self):
        """STATS hands out each shard's ``info()`` as is, and the ledger
        benchmark reads these keys from it (moved here from the retired
        ``benchmarks/bench_compaction.py``)."""
        for config in (CONFIG, BG):
            db = LSMTree.open("db", fs=MemFS(), **config)
            _fill(db, 100)
            db.wait_idle()
            info = db.info()
            for key in ("stalls", "slowdowns", "stall_seconds", "read_debt",
                        "read_compactions"):
                assert key in info, f"info() missing engine counter {key!r}"
            assert info["immutables"] == info["compaction_backlog"] == 0
            assert info["flushes"] > 0 and info["compactions"] > 0
            # No read was made: every compaction was the table count's.
            assert info["read_debt"] == info["read_compactions"] == 0
            db.close()

    def test_inline_mode_never_counts_backpressure(self):
        db = LSMTree.open("db", fs=MemFS(), **CONFIG)
        _fill(db, 400)
        assert db.stall_count == 0 and db.slowdown_count == 0
        assert db.info()["background"] is False
        db.close()


class TestClosedEngine:
    @pytest.mark.parametrize("opened", [False, True], ids=["no-path", "open"])
    @pytest.mark.parametrize("background", [False, True], ids=["caller", "threads"])
    def test_write_or_flush_after_close_raises(self, background, opened):
        config = dict(CONFIG, background=background)
        db = LSMTree.open("db", fs=MemFS(), **config) if opened else LSMTree(**config)
        _fill(db, 3)
        db.close()
        key = encode_u64(99)
        for call in (
            lambda: db.put(key, 1),
            lambda: db.delete(key),
            lambda: db.write_batch([(key, 1), (key, TOMBSTONE)]),
            db.flush_memtable,
        ):
            with pytest.raises(ValueError, match="engine is closed"):
                call()
        assert db.last_seq == 3  # nothing was accepted
        db.wait_idle()  # nothing to wait for: returns

    def test_flush_after_close_does_not_wait_for_stopped_threads(self):
        """Regression: the flusher exits at close, and ``flush_memtable``
        had a wait of its own that did not look at ``_closed``."""
        db = LSMTree(**BG)
        _fill(db, 3)  # a non-empty memtable the flush would freeze
        db.close()
        outcome = []

        def attempt():
            try:
                db.flush_memtable()
            except ValueError as exc:
                outcome.append(exc)

        t = threading.Thread(target=attempt, daemon=True)
        t.start()
        t.join(timeout=5.0)
        assert not t.is_alive(), "flush_memtable hung on a closed engine"
        assert outcome


class TestWaitIdle:
    def test_tight_timeout_raises_without_overshoot(self):
        """Regression: wait_idle used to poll at a fixed 50 ms slice,
        so a 1 ms deadline slept 50× too long — and when notifications
        kept arriving it never checked the deadline at all."""
        db = LSMTree.open("db", fs=MemFS(), max_immutables=4, **BG)
        gate = _gate_flusher(db)
        try:
            _fill(db, CONFIG["memtable_entries"] + 1)  # frozen, undrained
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                db.wait_idle(timeout=0.001)
            assert time.monotonic() - started < 0.04
        finally:
            gate.set()
        db.wait_idle()  # backlog drains once the gate opens
        assert db.info()["immutables"] == 0
        db.close()

    def test_notification_storm_still_times_out(self):
        """A condvar that keeps waking faster than the old 50 ms slice
        must not postpone the deadline forever."""
        db = LSMTree.open("db", fs=MemFS(), max_immutables=4, **BG)
        gate = _gate_flusher(db)
        stop = threading.Event()

        def storm():
            while not stop.is_set():
                with db._cond:
                    db._cond.notify_all()
                time.sleep(0.001)

        noisy = threading.Thread(target=storm, daemon=True)
        try:
            _fill(db, CONFIG["memtable_entries"] + 1)
            noisy.start()
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                db.wait_idle(timeout=0.2)
            assert time.monotonic() - started < 2.0
        finally:
            stop.set()
            noisy.join(timeout=5.0)
            gate.set()
        db.wait_idle()
        db.close()


class TestSnapshots:
    def test_snapshot_reads_pinned_state_while_writes_continue(self):
        db = LSMTree.open("db", fs=MemFS(), **BG)
        _fill(db, 50)
        snap = db.snapshot()
        assert snap.seq == 50
        _fill(db, 50, start=50)
        db.delete(encode_u64(7))
        db.wait_idle()
        # The snapshot still answers from sequence 50.
        assert snap.get(encode_u64(7)) == 7
        assert snap.get(encode_u64(75)) is None
        expected = sorted((encode_u64(i), i) for i in range(50))
        assert snap.scan(b"", 100) == expected
        assert snap.seek(encode_u64(49)) == (encode_u64(49), 49)
        assert snap.get_many([encode_u64(7), encode_u64(75)]) == [7, None]
        # The live engine sees the newer state.
        assert db.get(encode_u64(7)) is None
        assert db.get(encode_u64(75)) == 75
        snap.release()
        db.close()

    def test_snapshot_context_manager_and_release_contract(self):
        db = LSMTree.open("db", fs=MemFS(), **BG)
        _fill(db, 10)
        with db.snapshot() as snap:
            assert snap.get(encode_u64(3)) == 3
            assert db.info()["snapshots"] == 1
        assert db.info()["snapshots"] == 0
        with pytest.raises(ValueError):
            snap.get(encode_u64(3))
        snap.release()  # idempotent
        db.close()

    def test_snapshot_keeps_compacted_table_alive_until_release(self):
        """The satellite fix: table unlink and block-cache eviction are
        deferred to the last reference, not eager at compaction commit."""
        fs = MemFS()
        db = LSMTree.open("db", fs=fs, **CONFIG)  # inline: deterministic
        _fill(db, 64)
        victims = [
            t for level in db.levels for t in level if isinstance(t, DiskSSTable)
        ]
        assert victims
        victim = victims[0]
        snap = db.snapshot()
        pinned = snap.scan(b"", 200)
        # Pull one of the victim's blocks through the snapshot so the
        # block cache holds entries keyed by its table id.
        snap.get(victim.min_key)
        n = 64
        while any(t is victim for level in db.levels for t in level):
            _fill(db, 32, start=n)
            n += 32
            assert n < 5000, "victim never compacted away"
        # Compacted out of the live version — but the snapshot still
        # references it: file intact, snapshot answers unchanged.
        assert fs.exists(victim.path)
        assert snap.scan(b"", 200) == pinned
        assert snap.get(victim.min_key) is not None
        live_after = db.scan(b"", 10_000)
        snap.release()
        # Last reference dropped: now the file goes and the cache is
        # purged of the dead table's blocks.
        assert not fs.exists(victim.path)
        assert not any(
            key[0] == victim.table_id for key in db._block_cache._values
        )
        # Releasing a snapshot never disturbs the live state.
        assert db.scan(b"", 10_000) == live_after
        db.close()

    def test_many_snapshots_refcount_independently(self):
        fs = MemFS()
        db = LSMTree.open("db", fs=fs, **CONFIG)
        _fill(db, 64)
        victim = next(
            t for level in db.levels for t in level if isinstance(t, DiskSSTable)
        )
        snaps = [db.snapshot() for _ in range(3)]
        n = 64
        while any(t is victim for level in db.levels for t in level):
            _fill(db, 32, start=n)
            n += 32
        for snap in snaps[:-1]:
            snap.release()
            assert fs.exists(victim.path)  # one holder left
        snaps[-1].release()
        assert not fs.exists(victim.path)
        db.close()


def _read_until_due(db, keys, cap=200_000):
    """``get_many`` x8 over ``keys`` (cycled) until the read debt makes
    L0's compaction due (or the compactor already took it); returns
    the keys read."""
    done, ran = 0, db.read_compaction_count
    while db.compaction_backlog() == 0 and db.read_compaction_count == ran:
        assert done < cap, "read debt never came due"
        batch = [keys[(done + j) % len(keys)] for j in range(8)]
        db.get_many(batch)
        done += 8
    return done


def _layout(db):
    return [[(t.min_key, t.max_key, t.n_entries) for t in level] for level in db.levels]


class TestReadDrivenCompaction:
    """The second compaction trigger (DESIGN.md §8): one unit of read
    debt per L0 table a point read searched in vain, level 0 offered
    once the debt is worth the rewrite."""

    @pytest.mark.parametrize("per_entry", [0, math.inf], ids=["always", "never"])
    @pytest.mark.parametrize("background", [False, True], ids=["caller", "threads"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_answers_do_not_depend_on_the_trigger(
        self, monkeypatch, seed, background, per_entry
    ):
        """Differential property: a PUT / DELETE / get / get_many /
        scan / snapshot stream answers from the dict model whether
        every wasted probe compacts or none ever does."""
        monkeypatch.setattr(engine_mod, "_READ_DEBT_PER_ENTRY", per_entry)
        rng = random.Random(seed)
        db = LSMTree.open(
            "db", fs=MemFS(), **dict(CONFIG, background=background, slowdown_sleep=0.0)
        )
        keys = [encode_u64(i) for i in range(120)]
        model: dict = {}
        snaps: list = []
        for step in range(1500):
            roll = rng.random()
            key = rng.choice(keys)
            if roll < 0.40:
                db.put(key, step)
                model[key] = step
            elif roll < 0.50:
                db.delete(key)
                model.pop(key, None)
            elif roll < 0.70:
                assert db.get(key) == model.get(key)
            elif roll < 0.85:
                batch = rng.choices(keys, k=rng.randint(1, 9))
                assert db.get_many(batch) == [model.get(k) for k in batch]
            elif roll < 0.92:
                want = sorted((k, v) for k, v in model.items() if k >= key)[:7]
                assert db.scan(key, 7) == want
            elif roll < 0.96 or not snaps:
                snaps.append((db.snapshot(), dict(model)))
            else:
                snap, pinned = snaps.pop(rng.randrange(len(snaps)))
                batch = rng.choices(keys, k=6)
                assert snap.get_many(batch) == [pinned.get(k) for k in batch]
                assert snap.get(key) == pinned.get(key)
                assert snap.scan(b"", 200) == sorted(pinned.items())
                snap.release()
        # A fixed tail, so that the trigger is seen whatever the threaded
        # compactor did during the stream (it may clear L0 by count before
        # a read wastes a probe on it): one L0 table over every key, fewer
        # L0 tables than the count trigger wants, then one read of a key
        # that no table holds.
        for _ in range(2):  # twice if the first flush's L0 was compacted
            for key in (keys[0], keys[-1]):
                db.put(key, "tail")
                model[key] = "tail"
            db.flush_memtable()
            if db.levels[0]:
                break
        assert 0 < len(db.levels[0]) <= CONFIG["level0_limit"]
        assert db.get(keys[0] + b"\x00") is None
        db.wait_idle()
        for snap, pinned in snaps:
            assert snap.scan(b"", 200) == sorted(pinned.items())
            snap.release()
        assert db.scan(b"", 200) == sorted(model.items())
        info = db.info()
        if per_entry:
            assert info["read_compactions"] == 0
        else:
            assert info["read_compactions"] > 0
        db.close()

    @pytest.mark.parametrize("background", [False, True], ids=["caller", "threads"])
    def test_snapshot_outlives_a_read_driven_compaction(self, background):
        """A snapshot pinned before the compaction keeps reading its own
        version, and the L0 tables it pinned stay on disk until it is
        released."""
        fs = MemFS()
        db = LSMTree.open("db", fs=fs, **dict(CONFIG, background=background))
        order = random.Random(6).sample(range(400), 400)  # overlapping tables
        while not (db.levels[0] and any(db.levels[1:])):
            db.put(encode_u64(order.pop()), db.last_seq)
            db.wait_idle()  # deterministic under both executors
        snap = db.snapshot()
        pinned = snap.scan(b"", 1000)
        l0_paths = [path for _, path in snap.table_layout()[0]]
        assert l0_paths
        _read_until_due(db, [key for key, _ in pinned])
        db.wait_idle()
        info = db.info()
        assert info["read_compactions"] == 1 and info["l0_tables"] == 0
        assert info["read_debt"] < 8  # zeroed at the commit
        assert all(fs.exists(path) for path in l0_paths)
        assert snap.scan(b"", 1000) == pinned
        assert snap.get_many([k for k, _ in pinned]) == [v for _, v in pinned]
        assert db.scan(b"", 1000) == pinned
        snap.release()
        assert not any(fs.exists(path) for path in l0_paths)
        db.close()

    def test_read_only_phase_converges_to_an_empty_l0(self):
        """The served shape: a thread-run engine with shipped sizes,
        10k keys, four L0 tables nothing will ever compact by count,
        then Zipfian ``get_many`` x8 and no write.  One compaction per
        L0 generation, asked for by the readers alone, after which a
        key costs at most one block search per level."""
        keys = random_u64_keys(10_000, seed=23)
        db = LSMTree.open("db", fs=MemFS(), background=True)
        for i in range(0, len(keys), 64):
            db.write_batch([(k, i) for k in keys[i : i + 64]])
            db.wait_idle()  # one flush at a time: a deterministic layout
        assert db.info()["l0_tables"] == 4 and db.info()["compaction_backlog"] == 0
        hot = [op.key for op in ycsb.generate("C", keys, 60_000, seed=23).operations]
        by_count = db.compaction_count
        for generation in (1, 2):
            _read_until_due(db, hot)
            # The reader that crossed the threshold woke the compactor:
            # nothing else (no write, no wait_idle) will.
            with db._cond:
                assert db._cond.wait_for(
                    lambda: db.read_compaction_count == generation, timeout=30.0
                )
            db.wait_idle()
            info = db.info()
            assert info["l0_tables"] == 0 and info["compaction_backlog"] == 0
            assert info["read_compactions"] == generation
            assert info["compactions"] == by_count + generation
            levels = sum(1 for level in db.levels if level)
            db.io.reset()
            for i in range(0, 8_000, 8):
                db.get_many(hot[i : i + 8])
            assert (db.io.block_reads + db.io.cache_hits) / 8_000 <= levels
            assert db.info()["read_debt"] == 0  # nothing left to waste a probe on
            if generation == 1:  # the next L0 generation: two tables
                for i in range(0, 1024, 64):
                    db.write_batch([(k, -1) for k in keys[i : i + 64]])
                    db.wait_idle()
                assert db.info()["l0_tables"] == 2
        db.close()

    def test_a_write_heavy_mix_never_reaches_the_threshold(self, monkeypatch):
        """Restraint: on a YCSB-A stream (the ledger's ``wire_a`` shape,
        one shard, caller-run so the outcome is exact) the table count
        resets the debt long before the reads have paid for anything —
        the layout is the one the trigger-less engine builds."""
        keys = random_u64_keys(10_000, seed=62)
        plan = ycsb.generate("A", keys, 30_000, seed=62)
        outcomes = []
        for per_entry in (engine_mod._READ_DEBT_PER_ENTRY, math.inf):
            monkeypatch.setattr(engine_mod, "_READ_DEBT_PER_ENTRY", per_entry)
            db = LSMTree()
            db.put_many([(k, 0) for k in keys])
            high_water = 0
            for i, op in enumerate(plan.operations):
                if op.op == "read":
                    db.get(op.key)
                else:
                    db.put(op.key, i)
                high_water = max(high_water, db._read_debt)
            outcomes.append((_layout(db), db.compaction_count, db.read_compaction_count))
            limit = db._version.l0_rewrite_entries()  # with one L0 table: the lowest
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2] == 0 and outcomes[0][1] > 3
        # Not a near miss: the debt peaked at about half of what L0 costs.
        assert 0 < high_water < 0.65 * limit

    @pytest.mark.parametrize("background", [False, True], ids=["caller", "threads"])
    def test_an_empty_l0_is_never_offered_nor_compacted(self, background):
        """Regression: ``_compact_level`` on a level with no tables died
        in ``min()`` of an empty sequence and poisoned the engine."""
        db = LSMTree.open("db", fs=MemFS(), **dict(CONFIG, background=background))
        _fill(db, 100)
        db.wait_idle()
        while db.levels[0]:  # drain L0 through the ordinary trigger
            _fill(db, CONFIG["memtable_entries"], start=1000 + db.last_seq)
            db.wait_idle()
        db._read_debt = 10**9  # due many times over, with nothing to compact
        with db._lock:
            assert db._next_compaction() is None
        assert db.compaction_backlog() == 0
        before = db.compaction_count
        db._compact_level(0)  # a pick that raced the commit emptying L0
        db.wait_idle()
        assert db.compaction_count == before and db._bg_error is None
        db.put(encode_u64(5), "still writable")
        assert db.get(encode_u64(5)) == "still writable"
        db.close()


def _reference_merge(newer, older, drop_tombstones, tombstone=TOMBSTONE):
    """The whole-level dict merge the streaming one replaced, over runs of
    ``(key, value)`` pairs (``newer`` newest first)."""
    merged = {}
    for run in older:
        merged.update(run)
    for run in reversed(newer):  # oldest first, newest last
        merged.update(run)
    out = sorted(merged.items())
    return [kv for kv in out if kv[1] != tombstone] if drop_tombstones else out


def _cells(tables):
    """Each table's entries as its blocks store them: encoded values."""
    return [table.cells() for table in tables]


def _on_disk(fs, runs, first_id):
    """Each run as a table file: encoded values in LSM5 blocks."""
    out = []
    for table_id, run in enumerate(runs, first_id):
        path = f"t{table_id}.sst"
        blocks = column_blocks([k for k, _ in run], [encode_value(v) for _, v in run], 4)
        write_sstable(fs, path, blocks, table_id)
        out.append(DiskSSTable(fs, path))
    return out


def _entries(blocks):
    """One output table's ``(key, cell)`` entries from its block
    columns, each block ``block_entries`` long but the table's last."""
    blocks = list(blocks)
    assert all(len(keys) == len(cells) for keys, cells in blocks)
    assert len({len(keys) for keys, _ in blocks[:-1]}) <= 1
    return [kv for keys, cells in blocks for kv in zip(keys, cells)]


def _unusable(*args, **kwargs):
    raise AssertionError("the merge called the value codec")


class TestPartitionedMerge:
    SIZE = 16

    def _tables(self, rng, universe, n_older, n_newer, older_span, newer_keys):
        """Runs of ``n_older`` disjoint tables over ``older_span`` of the
        universe (one of them larger than ``sstable_entries``) and
        ``n_newer`` overlapping runs of about ``newer_keys`` keys drawn
        from all of it, a fifth of them tombstones.  Values are of every
        storable kind, including the empty ones whose encoding is one
        tag byte like a tombstone's."""
        lo, hi = older_span
        older = []
        if n_older:
            pool = sorted(rng.sample(universe[lo:hi], min(hi - lo, n_older * 14 + 30)))
            cuts = sorted(rng.sample(range(1, len(pool)), n_older - 1))
            for a, b in zip([0] + cuts, cuts + [len(pool)]):
                keys = pool[a:b]
                values = [rng.choice([f"old-{k.hex()}", a, ""]) for k in keys]
                older.append(list(zip(keys, values)))
        newer = []
        for age in range(n_newer):
            keys = sorted(rng.sample(universe, newer_keys + rng.randint(0, 8)))
            values = [
                TOMBSTONE if rng.random() < 0.2 else rng.choice([b"new%d" % age, b"", age])
                for _ in keys
            ]
            newer.append(list(zip(keys, values)))
        return newer, older

    @pytest.mark.parametrize("drop_tombstones", [False, True], ids=["kept", "dropped"])
    @pytest.mark.parametrize(
        "shape",
        [
            dict(n_older=0, n_newer=3, older_span=(0, 0), newer_keys=20),  # empty next level
            dict(n_older=1, n_newer=1, older_span=(100, 200), newer_keys=5),
            dict(n_older=4, n_newer=4, older_span=(0, 400), newer_keys=30),
            dict(n_older=3, n_newer=2, older_span=(0, 150), newer_keys=40),  # L0 beyond the last
            dict(n_older=3, n_newer=2, older_span=(250, 400), newer_keys=40),  # L0 before the first
            dict(n_older=2, n_newer=4, older_span=(150, 250), newer_keys=60),  # overflowing parts
        ],
        ids=["empty-next", "tiny", "even", "beyond-last", "before-first", "overflow"],
    )
    def test_output_is_the_whole_level_merge_in_full_tables(
        self, shape, drop_tombstones, monkeypatch
    ):
        """The merge carries each encoded value from its input block to
        the output as the same bytes, and never calls the value codec.
        It yields one iterator of block columns per output table, each
        consumed before the next is pulled, as the table writer does."""
        universe = [encode_u64(i * 5) for i in range(400)]
        db = LSMTree(sstable_entries=self.SIZE, block_entries=4)
        for seed in range(25):
            rng = random.Random(seed)
            newer, older = self._tables(rng, universe, **shape)
            want = [(k, encode_value(v)) for k, v in _reference_merge(newer, older, drop_tombstones)]
            fs = MemFS()
            newer, older = _on_disk(fs, newer, 0), _on_disk(fs, older, len(newer))
            monkeypatch.setattr(disk_format, "encode_value", _unusable)
            monkeypatch.setattr(disk_format, "decode_value", _unusable)
            chunks = [_entries(blocks) for blocks in db._merge_tables(newer, older, drop_tombstones)]
            monkeypatch.undo()
            assert [kv for chunk in chunks for kv in chunk] == want, seed
            assert all(len(chunk) == self.SIZE for chunk in chunks[:-1]), seed
            assert all(chunks), seed  # never an empty table
            if shape["n_older"] > 1:
                assert max(t.n_entries for t in older) > self.SIZE
        db.close()

    def test_compaction_writes_the_same_tables_as_before(self):
        """End to end: levels built through the streaming merge hold
        what a whole-level merge of the same inputs would."""
        db = LSMTree(**{**CONFIG, "level_fanout": 2})
        rng = random.Random(4)
        model = {}
        merges = []
        original = db._merge_tables

        def checked(newer, older, drop):
            chunks = [list(blocks) for blocks in original(newer, older, drop)]
            merges.append(len(older))
            got = [kv for blocks in chunks for kv in _entries(blocks)]
            assert got == _reference_merge(
                _cells(newer), _cells(older), drop, disk_format.TOMBSTONE_CELL
            )
            return iter(chunks)

        db._merge_tables = checked
        for step in range(1200):
            key = encode_u64(rng.randrange(300))
            if rng.random() < 0.25:
                db.delete(key)
                model.pop(key, None)
            else:
                db.put(key, step)
                model[key] = step
        assert max(merges) >= 2 and len(db.levels) >= 3
        for level in db.levels[1:]:  # every table full but, at most, the last written
            assert all(t.n_entries <= CONFIG["sstable_entries"] for t in level)
        assert db.scan(b"", 1000) == sorted(model.items())


class TestTortureSmoke:
    """One short seeded round of the threaded torture harness — the
    full harness (multi-round, CLI, repro emission) lives in
    ``repro.testing.threaded``; CI runs longer sweeps."""

    def test_threaded_snapshot_consistency_round(self):
        result = run_torture(seed=0, n_ops=800, readers=2)
        assert result.ok, result.failure.describe()
        assert result.applied == 800
        assert result.snapshot_checks > 0
        # The round must actually have churned: background flushes and
        # compactions both ran beneath the readers.
        assert result.engine_info["flushes"] > 0
        assert result.engine_info["compactions"] > 0

    def test_write_ops_map_one_to_one_onto_sequences(self):
        ops = generate_write_ops(seed=3, n_ops=100)
        db = LSMTree.open("db", fs=MemFS(), **BG)
        for kind, key, value in ops:
            if kind == "put":
                db.put(key, value)
            else:
                db.delete(key)
        assert db.last_seq == 100  # op i committed at seq i
        db.wait_idle()
        model = model_after(ops, 100)
        assert db.scan(b"", len(model) + 1) == sorted(model.items())
        db.close()
