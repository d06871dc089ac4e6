"""The LSM read kernel: one merged cursor, width-aware batch probes,
exact block-cache accounting.

Every check runs against engines whose data is spread over *all* the
places a read can find it — the mutable memtable, a frozen one, L0 and
at least two deeper levels — with overwrites and runs of tombstones in
each, under every filter kind, so newest-wins and tombstone shadowing
are exercised across every pair of adjacent sources.
"""

import itertools
import math
import random
import sys
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filters.bloom import BloomFilter
from repro.lsm import LSMTree
from repro.lsm import engine as engine_mod
from repro.surf import SuRF, surf_real
from repro.testing.faultfs import MemFS
from repro.testing.threaded import run_torture
from repro.workloads.keys import encode_u64

FILTERS = {
    "none": None,
    "bloom": lambda keys: BloomFilter(keys, bits_per_key=10),
    "surf_real": lambda keys: surf_real(keys, real_bits=4),
}

#: Fixed-width keys plus a family of keys that are prefixes of one
#: another (what a truncating SuRF conflates) and the empty key.
UNIVERSE = sorted(
    [encode_u64(i * 3) for i in range(300)]
    + [b"", b"a", b"ab", b"ab\x00", b"abc", b"abcd", b"abd", b"b"]
    + [b"k%03d/%s" % (i, b"x" * (i % 5)) for i in range(60)]
)


class Layered:
    """An engine with data in every layer, a model of it, and a
    snapshot (with its own model) pinned part-way through the load."""

    def __init__(self, filter_name: str, seed: int) -> None:
        self.rng = random.Random(seed)
        self.db = LSMTree.open(
            f"layered-{filter_name}-{seed}",
            fs=MemFS(),
            memtable_entries=8,
            sstable_entries=16,
            block_entries=4,
            level0_limit=2,
            level_fanout=2,
            block_cache_blocks=8,
            filter_factory=FILTERS[filter_name],
        )
        self.model: dict[bytes, int] = {}
        self._stamp = itertools.count(1)
        self._churn(700)
        self._settle_with_l0()
        self._churn(5)  # a partly filled memtable for the snapshot
        self.snap = self.db.snapshot()
        self.snap_model = dict(self.model)
        # The live engine moves on: flushes and compactions replace the
        # tables the snapshot pinned.
        self._churn(300)
        self._settle_with_l0()
        self._churn(5)
        self.db._freeze()  # inline mode has no flusher: it stays frozen
        self._churn(5)
        levels = self.db.levels
        assert len(self.db._memtable) and self.db._immutables and levels[0]
        assert sum(1 for level in levels[1:] if level) >= 2

    def _churn(self, n_ops: int) -> None:
        """Puts, overwrites and contiguous tombstone runs."""
        rng, db = self.rng, self.db
        done = 0
        while done < n_ops:
            if rng.random() < 0.12:
                start = rng.randrange(len(UNIVERSE))
                run = UNIVERSE[start : start + rng.randint(2, 12)][: n_ops - done]
                for key in run:
                    db.delete(key)
                    self.model.pop(key, None)
                done += len(run)
            else:
                key = rng.choice(UNIVERSE)
                value = next(self._stamp)
                db.put(key, value)
                self.model[key] = value
                done += 1

    def _settle_with_l0(self) -> None:
        """Write until a flush has just left tables in L0."""
        while not (self.db.levels[0] and not len(self.db._memtable)):
            self._churn(1)

    def readers(self):
        return [("live", self.db, self.model), ("snapshot", self.snap, self.snap_model)]


@pytest.fixture(scope="module", params=sorted(FILTERS))
def layered(request):
    built = [Layered(request.param, seed) for seed in (1, 2)]
    yield built
    for one in built:
        one.snap.release()
        one.db.close()


def expected_from(model: dict, low: bytes, high: bytes | None = None):
    keys = sorted(model)
    for key in keys[bisect_left(keys, low) :]:
        if high is not None and key > high:
            return
        yield key, model[key]


#: Probe keys: stored ones, their neighbours on either side, and keys
#: outside the universe.
probe_keys = st.one_of(
    st.sampled_from(UNIVERSE),
    st.sampled_from(UNIVERSE).map(lambda k: k + b"\x00"),
    st.sampled_from(UNIVERSE).map(lambda k: k[:-1]),
    st.binary(max_size=9),
)


class TestMergedCursor:
    @settings(max_examples=150, deadline=None)
    @given(low=probe_keys, count=st.integers(0, 40))
    def test_scan_is_chained_seek_is_the_sorted_model(self, layered, low, count):
        for one in layered:
            for name, reader, model in one.readers():
                want = list(itertools.islice(expected_from(model, low), count))
                assert reader.scan(low, count) == want, name
                chained, cursor = [], low
                while len(chained) < count:
                    row = reader.seek(cursor)
                    if row is None:
                        break
                    chained.append(row)
                    cursor = row[0] + b"\x00"
                assert chained == want, name

    @settings(max_examples=150, deadline=None)
    @given(low=probe_keys, high=probe_keys)
    def test_bounded_seek(self, layered, low, high):
        for one in layered:
            for name, reader, model in one.readers():
                want = next(expected_from(model, low, high), None)
                assert reader.seek(low, high) == want, name

    def test_full_scan_and_count_ride_the_same_cursor(self, layered):
        for one in layered:
            for name, reader, model in one.readers():
                assert reader.scan(b"", len(UNIVERSE) + 1) == sorted(model.items()), name
                # count() is approximate by design (it cannot see
                # shadowing across runs) but never under-counts.
                low, high = UNIVERSE[40], UNIVERSE[200]
                live = sum(1 for k in model if low <= k < high)
                assert reader.count(low, high) >= live, name

    def test_a_bounded_seek_past_every_candidate_reads_no_block(self):
        """The SuRF prune: when each table's candidate prefix already
        exceeds ``high``, the answer comes from the filters alone."""
        db = LSMTree(memtable_entries=8, level0_limit=8, filter_factory=FILTERS["surf_real"])
        for base in (0, 1, 2):  # three overlapping L0 tables
            for i in range(8):
                db.put(encode_u64((i << 16) + base), i)
        assert len(db.levels[0]) == 3
        # Past every table's i=1 key by more than the 4 real suffix
        # bits can hide; the next candidates are the i=2 keys.
        low = encode_u64((1 << 16) + 0x3000)
        db.io.reset()
        assert db.seek(low, encode_u64((1 << 16) + 0xFFFF)) is None
        assert db.io.block_reads + db.io.cache_hits == 0
        assert db.seek(low, encode_u64((2 << 16) + 2)) == (encode_u64(2 << 16), 2)

    def test_a_table_that_cannot_win_is_never_fetched(self):
        """Newest-wins needs every table whose candidate could tie or
        beat the winner — and no other."""
        db = LSMTree(memtable_entries=4, level0_limit=8, filter_factory=FILTERS["surf_real"])
        for key in (10, 20, 30, 40):  # older table: candidate 20 for low=15
            db.put(encode_u64(key), "old")
        for key in (5, 16, 50, 60):  # newer table: candidate 16 wins
            db.put(encode_u64(key), "new")
        db.io.reset()
        assert db.seek(encode_u64(15)) == (encode_u64(16), "new")
        assert db.io.block_reads + db.io.cache_hits == 1


class TestGetMany:
    """``get_many`` is ``get`` element-wise at every width, on both
    sides of the per-table vector-probe crossover."""

    @pytest.fixture(scope="class", params=sorted(FILTERS))
    def wide(self, request):
        rng = random.Random(5)
        db = LSMTree.open(
            f"wide-{request.param}",
            fs=MemFS(),
            memtable_entries=64,
            sstable_entries=512,
            level0_limit=8,
            filter_factory=FILTERS[request.param],
        )
        keys = [encode_u64(i * 7) for i in range(900)]
        model = {}
        for key in rng.sample(keys, len(keys)):  # deep levels: every key
            db.put(key, 1)
            model[key] = 1
        for key in rng.sample(keys, 200):  # newer tables: tombstones...
            db.delete(key)
            model.pop(key)
        for key in rng.sample(keys, 230):  # ...and overwrites
            db.put(key, 2)
            model[key] = 2
        # Newer tables shadow older ones, and a 64-key batch puts more
        # than _VECTOR_PROBE_MIN keys into one table.
        assert db.levels[0] and any(db.levels[1:]) and len(db._memtable)
        absent = [encode_u64(i * 7 + 3) for i in range(900)]
        yield db, model, keys, absent
        db.close()

    def test_every_width_matches_scalar_get(self, wide):
        db, model, keys, absent = wide
        rng = random.Random(9)
        for width in range(1, 65):
            batch = rng.choices(keys, k=width - width // 3) + rng.choices(absent, k=width // 3)
            batch += batch[: width // 4]  # duplicate keys in one batch
            rng.shuffle(batch)
            got = db.get_many(batch)
            assert got == [db.get(k) for k in batch] == [model.get(k) for k in batch], width
        snap = db.snapshot()
        try:
            batch = rng.choices(keys + absent, k=64)
            assert snap.get_many(batch) == [snap.get(k) for k in batch]
        finally:
            snap.release()

    def test_dispatch_by_keys_per_table(self, monkeypatch):
        """Below ``_VECTOR_PROBE_MIN`` keys in one table the scalar
        probe runs; from it upward the vector kernel does."""
        db = LSMTree(memtable_entries=1 << 20, sstable_entries=1 << 20,
                     filter_factory=FILTERS["surf_real"])
        keys = [encode_u64(i) for i in range(200)]
        db.put_many([(k, i) for i, k in enumerate(keys)])
        db.flush_memtable()
        calls = {"scalar": 0, "vector": 0}
        lookup, lookup_many = SuRF.lookup, SuRF.lookup_many

        def counted_lookup(self, key):
            calls["scalar"] += 1
            return lookup(self, key)

        def counted_lookup_many(self, keys):
            calls["vector"] += 1
            return lookup_many(self, keys)

        monkeypatch.setattr(SuRF, "lookup", counted_lookup)
        monkeypatch.setattr(SuRF, "lookup_many", counted_lookup_many)
        threshold = engine_mod._VECTOR_PROBE_MIN
        assert db.get_many(keys[: threshold - 1]) == list(range(threshold - 1))
        assert calls == {"scalar": threshold - 1, "vector": 0}
        assert db.get_many(keys[:threshold]) == list(range(threshold))
        assert calls == {"scalar": threshold - 1, "vector": 1}
        assert db.io.filter_probes == 2 * threshold - 1  # both paths count every key


class TestProbePlan:
    """What a point read touches, counted: the trim changed how the
    kernel walks, not what it fetches, and every L0 table searched in
    vain is one unit of read debt."""

    @pytest.fixture(params=sorted(FILTERS))
    def stacked(self, request, monkeypatch):
        """Five overlapping L0 tables over one L1 table; key ``8*i + t``
        lives in source ``t`` only (t = 5: the L1 table), keys ``8*i + 7``
        nowhere.  No compaction runs: the debt only accrues."""
        monkeypatch.setattr(engine_mod, "_READ_DEBT_PER_ENTRY", math.inf)
        db = LSMTree(memtable_entries=64, level0_limit=1, block_entries=8,
                     block_cache_blocks=512, filter_factory=FILTERS[request.param])
        span = [encode_u64(0), encode_u64(8 * 64)]  # every table covers every key
        db.put_many([(encode_u64(8 * i + 5), "L1") for i in range(62)] + [(k, "L1") for k in span])
        db.put_many([(encode_u64(8 * i + 6), "pad") for i in range(64)])  # pushes it to L1
        assert [len(level) for level in db.levels] == [0, 1]
        db._level0_limit = 8
        for t in (4, 3, 2, 1, 0):  # oldest first: source 0 ends up newest
            db.put_many([(encode_u64(8 * i + t), t) for i in range(1, 63)] + [(k, t) for k in span])
        assert [len(level) for level in db.levels] == [5, 1]
        return db, request.param

    def test_wasted_l0_probes_are_the_read_debt(self, stacked):
        db, filter_name = stacked
        for source, wasted in ((0, 0), (2, 2), (4, 4), (5, 5), (7, 5)):
            key = encode_u64(8 * 9 + source)
            for read in (db.get, lambda k: db.get_many([k])[0],
                         lambda k: db.get_many([k, encode_u64(8)])[0]):
                before = db._read_debt
                read(key)
                assert db._read_debt - before == wasted, (source, filter_name)
        # A batch owes the sum of its keys' debts.
        before = db._read_debt
        db.get_many([encode_u64(8 * i + t) for i in (3, 4) for t in range(8)])
        assert db._read_debt - before == 2 * (0 + 1 + 2 + 3 + 4 + 5 + 5 + 5)
        assert db.info()["read_debt"] == db._read_debt

    def test_a_stale_view_owes_nothing(self, stacked):
        db, _ = stacked
        key = encode_u64(8 * 9 + 7)
        with db.snapshot() as snap:
            before = db._read_debt
            snap.get(key)
            snap.get_many([key, key])
            assert db._read_debt - before == 15  # the current layout's tables
            db.put_many([(encode_u64(8 * i + 3), "newer") for i in range(64)])
            assert len(db.levels[0]) == 6  # the layout moved on
            before = db._read_debt
            assert snap.get(key) is None and snap.get_many([key]) == [None]
            assert db._read_debt == before

    def test_fetches_are_those_of_scalar_get(self, stacked):
        """One filter probe per (table, key) and one cache access per
        (table, block) a batch lands in — the blocks a ``get`` loop over
        the same keys touches, each once — at every width, the
        singleton path included; ``get_many`` of one key is ``get``."""
        db, filter_name = stacked
        rng = random.Random(3)
        keys = [encode_u64(8 * rng.randrange(1, 63) + rng.randrange(8)) for _ in range(256)]
        touched = []
        read_block = db._read_block

        def spy(table, block_idx):
            touched.append((table.table_id, block_idx))
            return read_block(table, block_idx)

        db._read_block = spy
        for width in (1, 2, 7, 256):
            for i in range(0, len(keys), width):
                batch = keys[i : i + width]
                db.io.reset()
                del touched[:]
                want = [db.get(k) for k in batch]
                blocks, probes = set(touched), (db.io.filter_probes, db.io.filter_negatives)
                assert db.io.block_reads + db.io.cache_hits == len(touched)
                db.io.reset()
                del touched[:]
                assert db.get_many(batch) == want
                assert (db.io.filter_probes, db.io.filter_negatives) == probes, (width, filter_name)
                assert sorted(touched) == sorted(blocks), (width, filter_name)
                assert db.io.block_reads + db.io.cache_hits == len(blocks)

    def test_hot_and_cold_block_search_agree(self):
        """``Block.find`` bisects a hot block's key list itself; the
        answers are the cold in-place search's."""
        db = LSMTree.open("hot", fs=MemFS(), memtable_entries=64, block_entries=16)
        keys = [encode_u64(i * 2) for i in range(64)]
        db.put_many([(k, i) for i, k in enumerate(keys)])
        table = db.levels[0][0]
        probes = keys + [encode_u64(i * 2 + 1) for i in range(64)] + [b"", b"\xff" * 9]
        cold = [table.read_block(table.block_for(k)).find(k, "absent") for k in probes]
        blocks = [table.read_block(i) for i in range(table.n_blocks)]
        for _ in range(12):  # past _HOT_BLOCK_PROBES: key lists are built
            hot = [blocks[table.block_for(k)].find(k, "absent") for k in probes]
            assert hot == cold
        assert all(block._keys is not None for block in blocks)
        db.close()


class TestBlockAccounting:
    def test_exact_under_threaded_readers(self, monkeypatch):
        """``block_reads + cache_hits`` equals the block fetches made
        while reader threads race the flusher and compactor: the
        counts are the cache's own, moved under its lock, so no update
        is lost and one thread's miss is never booked to another (the
        single-threaded half of this check is in ``test_lsm.py``)."""
        fetches: list[int] = []  # list.append is atomic under the GIL
        engines = {}
        read_block = LSMTree._read_block

        def counted(self, table, block_idx):
            engines[id(self)] = self
            fetches.append(id(self))
            return read_block(self, table, block_idx)

        monkeypatch.setattr(LSMTree, "_read_block", counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # many more preemptions per fetch
        try:
            result = run_torture(seed=3, n_ops=600, readers=4)
        finally:
            sys.setswitchinterval(interval)
        assert result.ok, result.failure and result.failure.describe()
        assert len(fetches) > 100
        for db in engines.values():
            assert db.io.block_reads + db.io.cache_hits == fetches.count(id(db))
