"""Edge-case tests for the gapped batch-insert B+tree.

The randomized differential fuzzer (``repro.testing``) covers the broad
behaviour; these tests pin the batch-path corners named in the design:
mid-batch leaf overflow, duplicate-keys-in-batch last-wins, tombstone-
heavy mixes, empty-batch no-ops, and the serialize round-trip.  Leaf
capacities are kept tiny so every test crosses splits and rebalances.
"""

import random

import pytest

from repro.trees import DEFAULT_LEAF_CAPACITY, GappedBPlusTree, GappedView
from repro.trees.gapped_btree import FILL_FACTOR


def k(i: int) -> bytes:
    return b"key-%08d" % i


def tree_of(pairs, capacity=16) -> GappedBPlusTree:
    return GappedBPlusTree(pairs, leaf_capacity=capacity)


class TestConstruction:
    def test_empty(self):
        t = GappedBPlusTree()
        assert len(t) == 0
        assert list(t.items()) == []
        assert t.get(b"x") is None
        assert t.leaf_count() == 1
        assert t._capacity == DEFAULT_LEAF_CAPACITY

    def test_seed_pairs_unsorted_with_duplicates(self):
        pairs = [(k(3), 3), (k(1), 1), (k(2), 2), (k(1), 10)]
        t = tree_of(pairs)
        assert len(t) == 3
        assert t.get(k(1)) == 10  # last occurrence wins
        assert [key for key, _ in t.items()] == [k(1), k(2), k(3)]

    def test_capacity_floor(self):
        with pytest.raises(ValueError):
            GappedBPlusTree(leaf_capacity=4)


class TestMidBatchOverflow:
    def test_batch_larger_than_one_leaf_splits(self):
        t = tree_of([], capacity=16)
        t.put_many([(k(i), i) for i in range(200)])
        assert len(t) == 200
        assert t.leaf_count() > 1
        # No leaf may exceed the rebalance fill target after a batch.
        for leaf in t._dir.leaves:
            assert leaf.count <= int(16 * FILL_FACTOR)
        assert list(t.items()) == [(k(i), i) for i in range(200)]

    def test_batch_concentrated_on_one_leaf(self):
        """All new keys routing into a single existing leaf must split it."""
        t = tree_of([(k(i * 100), i) for i in range(8)], capacity=16)
        # Every key below lands between k(0) and k(100): one leaf's range.
        t.put_many([(k(i), 1000 + i) for i in range(1, 60)])
        assert len(t) == 8 + 59
        assert t.get(k(30)) == 1030
        expect = sorted({k(i * 100): i for i in range(8)}
                        | {k(i): 1000 + i for i in range(1, 60)})
        assert [key for key, _ in t.items()] == expect

    def test_scalar_inserts_overflow_one_leaf(self):
        """The scalar path's split: hammer one leaf past capacity."""
        t = tree_of([], capacity=16)
        for i in range(100):
            assert t.insert(k(i), i)
        assert len(t) == 100
        assert t.leaf_count() > 1
        assert list(t.items()) == [(k(i), i) for i in range(100)]

    def test_interleaved_batches_across_leaves(self):
        t = tree_of([(k(2 * i), i) for i in range(100)], capacity=16)
        t.put_many([(k(2 * i + 1), -i) for i in range(100)])
        assert len(t) == 200
        assert [key for key, _ in t.items()] == [k(i) for i in range(200)]


class TestDuplicateInBatchLastWins:
    def test_same_key_repeated_in_one_batch(self):
        t = tree_of([])
        t.put_many([(k(1), 1), (k(1), 2), (k(1), 3)])
        assert len(t) == 1
        assert t.get(k(1)) == 3

    def test_duplicates_scattered_through_large_batch(self):
        t = tree_of([], capacity=16)
        batch = []
        for rep in range(3):
            batch.extend((k(i), rep * 1000 + i) for i in range(50))
        random.Random(7).shuffle(batch)
        # Re-append a final deterministic run so last-wins is known.
        batch.extend((k(i), 9000 + i) for i in range(50))
        t.put_many(batch)
        assert len(t) == 50
        assert all(t.get(k(i)) == 9000 + i for i in range(50))

    def test_batch_overwrites_existing_keys(self):
        t = tree_of([(k(i), i) for i in range(40)], capacity=16)
        t.put_many([(k(i), -i) for i in range(0, 40, 2)])
        assert len(t) == 40
        for i in range(40):
            assert t.get(k(i)) == (-i if i % 2 == 0 else i)

    def test_delete_many_duplicate_key_reports_once(self):
        t = tree_of([(k(1), 1)])
        assert t.delete_many([k(1), k(1)]) == [True, False]
        assert len(t) == 0


class TestTombstoneHeavy:
    def test_delete_most_then_reinsert(self):
        t = tree_of([(k(i), i) for i in range(300)], capacity=16)
        gone = t.delete_many([k(i) for i in range(0, 300) if i % 3])
        assert all(gone)
        assert len(t) == 100
        assert [key for key, _ in t.items()] == [k(i) for i in range(0, 300, 3)]
        # Reinsert into the vacated gaps, batch and scalar.
        t.put_many([(k(i), -i) for i in range(0, 150) if i % 3])
        for i in range(150, 300):
            if i % 3:
                assert t.insert(k(i), -i)
        assert len(t) == 300
        assert all(t.get(k(i)) == (i if i % 3 == 0 else -i) for i in range(300))

    def test_delete_everything_then_rebuild(self):
        t = tree_of([(k(i), i) for i in range(100)], capacity=16)
        assert all(t.delete_many([k(i) for i in range(100)]))
        assert len(t) == 0
        assert list(t.items()) == []
        assert t.get(k(5)) is None
        assert t.seek(b"") is None
        t.put_many([(k(i), i) for i in range(100)])
        assert list(t.items()) == [(k(i), i) for i in range(100)]

    def test_scalar_delete_churn_keeps_order(self):
        t = tree_of([], capacity=16)
        rng = random.Random(3)
        model = {}
        for step in range(2000):
            key = k(rng.randrange(150))
            if rng.random() < 0.5:
                assert t.delete(key) == (model.pop(key, None) is not None)
            else:
                t.put(key, step)
                model[key] = step
        assert len(t) == len(model)
        assert list(t.items()) == sorted(model.items())

    def test_delete_many_missing_keys_report_false(self):
        t = tree_of([(k(1), 1), (k(3), 3)])
        assert t.delete_many([k(0), k(1), k(2)]) == [False, True, False]
        assert len(t) == 1


class TestEmptyBatchNoOp:
    def test_put_many_empty(self):
        t = tree_of([(k(1), 1)])
        before = t._dir
        t.put_many([])
        assert t._dir is before  # no new directory published
        assert len(t) == 1

    def test_delete_many_empty(self):
        t = tree_of([(k(1), 1)])
        before = t._dir
        assert t.delete_many([]) == []
        assert t._dir is before
        assert len(t) == 1

    def test_get_many_empty(self):
        assert tree_of([(k(1), 1)]).get_many([]) == []


class TestFrozenViewIsolation:
    def test_view_ignores_later_writes(self):
        t = tree_of([(k(i), i) for i in range(50)], capacity=16)
        view = t.freeze_view()
        assert isinstance(view, GappedView)
        t.put_many([(k(i), -i) for i in range(50, 120)])
        t.delete(k(0))
        assert len(view) == 50
        assert view[k(0)] == 0
        assert k(60) not in view
        assert list(view.items()) == [(k(i), i) for i in range(50)]
        assert t.get(k(60)) == -60

    def test_view_get_default(self):
        view = tree_of([(k(1), 1)]).freeze_view()
        assert view.get(k(9), "missing") == "missing"
        with pytest.raises(KeyError):
            view[k(9)]


class TestBatchReadPaths:
    def test_get_many_mixed_hits_and_misses(self):
        t = tree_of([(k(i), i) for i in range(0, 100, 2)], capacity=16)
        probe = [k(i) for i in range(100)]
        got = t.get_many(probe)
        assert got == [i if i % 2 == 0 else None for i in range(100)]
        # Unsorted probe order must not matter.
        assert t.get_many(probe[::-1]) == got[::-1]

    def test_seek_and_lower_bound(self):
        t = tree_of([(k(i), i) for i in range(0, 60, 3)], capacity=16)
        assert t.seek(k(4)) == (k(6), 6)
        assert t.seek(k(57)) == (k(57), 57)
        assert t.seek(k(58)) is None
        assert t.seek(k(4), high=k(5)) is None
        assert [key for key, _ in t.lower_bound(k(50))] == [k(51), k(54), k(57)]

    def test_scan_none_semantics(self):
        t = tree_of([(k(1), None), (k(2), 2)])
        # None is a legal stored value; contains must not confuse it
        # with absence.
        assert k(1) in t
        assert t.get(k(1)) is None
        assert t.get_many([k(1), k(2), k(3)]) == [None, 2, None]
        assert list(t.items()) == [(k(1), None), (k(2), 2)]


def _leaf_invariants(t: GappedBPlusTree) -> None:
    """Every leaf's key column is sorted gaps included, each gap repeats
    its left neighbour's key, the count matches the validity column and
    ``min_key`` is the smallest valid key."""
    for leaf in t._dir.leaves:
        keys = leaf.keys.tolist()
        valid = leaf.valid.tolist()
        assert keys == sorted(keys)
        for j in range(1, len(keys)):
            if not valid[j]:
                assert keys[j] == keys[j - 1]
        assert leaf.count == sum(valid)
        if leaf.count:
            assert leaf.min_key == keys[valid.index(True)]


class TestSegmentRegimes:
    """One ``put_many`` segment into one leaf, at every size where the
    absorb path changes or nearly does: the per-key walk (< 4 keys), the
    list walk (4 keys up to an exact fit, across ``cap // 8``) and the
    overflow merge."""

    SIZES = ("1", "3", "4", "cap//8", "cap//8+1", "fits", "overflow")

    @pytest.mark.parametrize("overwrite", [False, True],
                             ids=["new", "overwrite"])
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("cap", [16, 512])
    def test_segment_into_one_leaf(self, cap, size, overwrite):
        per_leaf = int(cap * FILL_FACTOR)
        t = tree_of([(k(2 * i), i) for i in range(6 * per_leaf)], capacity=cap)
        target = 2
        leaf = t._dir.leaves[target]
        lo_key, hi_key = leaf.min_key, t._dir.leaves[target + 1].min_key
        free = cap - leaf.count
        n = {"1": 1, "3": 3, "4": 4, "cap//8": cap // 8,
             "cap//8+1": cap // 8 + 1, "fits": free,
             "overflow": free + 1}[size]
        # New (odd) keys inside the leaf's range; with ``overwrite`` every
        # other segment key is one the leaf already holds.
        pool = [key for key, _ in t.items() if lo_key <= key < hi_key]
        if not overwrite:
            pool = [k(int(key[4:]) + 1) for key in pool]
            pool = [key for key in pool if key < hi_key]
        else:
            news = [k(int(key[4:]) + 1) for key in pool]
            pool = [key for pair in zip(news, pool) for key in pair]
        assert len(pool) >= n
        segment = [pool[j * len(pool) // n] for j in range(n)]
        batch = [(key, -j - 1) for j, key in enumerate(segment)]
        assert n * 4 < len(t)  # below the dense whole-tree rebuild

        view = t.freeze_view()
        before = list(view.items())
        leaves_before = t.leaf_count()
        oracle = dict(before)
        oracle.update(batch)

        t.put_many(batch)

        assert list(t.items()) == sorted(oracle.items())
        assert len(t) == len(oracle)
        assert all(t.get(key) == value for key, value in oracle.items())
        assert t.get(k(1_000_001)) is None
        _leaf_invariants(t)
        if size != "overflow":
            assert t.leaf_count() == leaves_before  # absorbed in place
        elif not overwrite:
            assert t.leaf_count() > leaves_before  # merged and split
        if size == "fits" and not overwrite:
            assert t._dir.leaves[target].count == cap
        # The view captured before the write is untouched by it.
        assert list(view.items()) == before
        assert len(view) == len(before)
        assert all(view.get(key) == dict(before).get(key) for key in segment)
