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
  background threads) passes end to end.
"""

import threading
import time

import pytest

from repro.lsm import LSMTree
from repro.lsm.sstable import DiskSSTable, TOMBSTONE
from repro.testing.faultfs import MemFS
from repro.testing.threaded import generate_write_ops, model_after, run_torture
from repro.trees.gapped_btree import GappedBPlusTree
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
        its tree once it is listed: the writer drains it at freeze."""
        db = LSMTree.open("db", fs=MemFS(), max_immutables=4, **BG)
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
            for key in ("stalls", "slowdowns", "stall_seconds"):
                assert key in info, f"info() missing engine counter {key!r}"
            assert info["immutables"] == info["compaction_backlog"] == 0
            assert info["flushes"] > 0 and info["compactions"] > 0
            db.close()

    def test_inline_mode_never_counts_backpressure(self):
        db = LSMTree.open("db", fs=MemFS(), **CONFIG)
        _fill(db, 400)
        assert db.stall_count == 0 and db.slowdown_count == 0
        assert db.info()["background"] is False
        db.close()


class TestClosedEngine:
    @pytest.mark.parametrize("durable", [False, True], ids=["mem", "durable"])
    @pytest.mark.parametrize("background", [False, True], ids=["caller", "threads"])
    def test_write_or_flush_after_close_raises(self, background, durable):
        config = dict(CONFIG, background=background)
        db = LSMTree.open("db", fs=MemFS(), **config) if durable else LSMTree(**config)
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
