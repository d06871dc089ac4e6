"""Tests for the D-to-S compact structures (Chapter 2).

Covers correctness against the source data, immutability, memory
savings relative to the dynamic originals (the Figure 2.5 claims), and
the CLOCK node cache.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compact import (
    ClockNodeCache,
    CompactART,
    CompactBPlusTree,
    CompactMasstree,
    CompactSkipList,
    CompressedBPlusTree,
)
from repro.trees import ART, BPlusTree, Masstree, PagedSkipList
from repro.workloads import email_keys, encode_u64, mono_inc_u64_keys, random_u64_keys

COMPACT_CLASSES = [
    CompactBPlusTree,
    CompactSkipList,
    CompactART,
    CompactMasstree,
    CompressedBPlusTree,
]

PAIRS = [(k, i) for i, k in enumerate(sorted(random_u64_keys(1200, seed=21)))]
EMAIL_PAIRS = [(k, i) for i, k in enumerate(sorted(email_keys(600, seed=22)))]


@pytest.fixture(params=COMPACT_CLASSES, ids=lambda c: c.__name__)
def compact_cls(request):
    return request.param


class TestCompactCorrectness:
    def test_point_lookups(self, compact_cls):
        index = compact_cls(PAIRS)
        assert len(index) == len(PAIRS)
        for k, v in PAIRS[::7]:
            assert index.get(k) == v

    def test_missing_keys(self, compact_cls):
        index = compact_cls(PAIRS)
        assert index.get(b"\x00" * 3) is None
        assert index.get(PAIRS[0][0] + b"x") is None

    def test_items_sorted(self, compact_cls):
        index = compact_cls(PAIRS)
        assert list(index.items()) == PAIRS

    def test_lower_bound(self, compact_cls):
        index = compact_cls(PAIRS)
        for i in range(0, len(PAIRS), 101):
            probe = PAIRS[i][0]
            got = index.scan(probe, 5)
            assert got == PAIRS[i : i + 5]

    def test_lower_bound_between_keys(self, compact_cls):
        index = compact_cls(PAIRS)
        probe = PAIRS[10][0] + b"\x00"  # strictly between keys 10 and 11
        assert index.scan(probe, 3) == PAIRS[11:14]

    def test_email_keys(self, compact_cls):
        index = compact_cls(EMAIL_PAIRS)
        for k, v in EMAIL_PAIRS[::11]:
            assert index.get(k) == v
        assert list(index.items()) == EMAIL_PAIRS
        for i in range(0, len(EMAIL_PAIRS), 97):
            assert index.scan(EMAIL_PAIRS[i][0], 4) == EMAIL_PAIRS[i : i + 4]
        assert index.get(b"\x00absent-key") is None

    def test_static_mutations_raise(self, compact_cls):
        index = compact_cls(PAIRS[:50])
        with pytest.raises(TypeError):
            index.insert(b"new", 1)
        with pytest.raises(TypeError):
            index.update(PAIRS[0][0], 2)
        with pytest.raises(TypeError):
            index.delete(PAIRS[0][0])

    def test_unsorted_input_rejected(self, compact_cls):
        with pytest.raises(ValueError):
            compact_cls([(b"b", 1), (b"a", 2)])
        with pytest.raises(ValueError):
            compact_cls([(b"a", 1), (b"a", 2)])

    def test_single_and_empty(self, compact_cls):
        single = compact_cls([(b"only", 7)])
        assert single.get(b"only") == 7
        assert single.get(b"other") is None
        empty = compact_cls([])
        assert len(empty) == 0
        assert list(empty.items()) == []
        assert empty.get(PAIRS[0][0]) is None
        assert empty.scan(b"", 3) == []

    @pytest.mark.parametrize("cls", COMPACT_CLASSES, ids=lambda c: c.__name__)
    @given(
        keys=st.lists(
            st.binary(min_size=1, max_size=10), min_size=1, max_size=80, unique=True
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_arbitrary_byte_keys(self, cls, keys):
        pairs = [(k, i) for i, k in enumerate(sorted(keys))]
        index = cls(pairs)
        for k, v in pairs:
            assert index.get(k) == v
        assert list(index.items()) == pairs


@pytest.mark.parametrize("cls", COMPACT_CLASSES, ids=lambda c: c.__name__)
@pytest.mark.parametrize("pairs", [PAIRS, EMAIL_PAIRS], ids=["int", "email"])
def test_lower_bound_runs_to_the_end(cls, pairs):
    """``lower_bound`` is unbounded: it crosses every leaf to the last key."""
    index = cls(pairs)
    for i in (0, 17, len(pairs) // 2, len(pairs) - 1):
        assert list(index.lower_bound(pairs[i][0])) == pairs[i:]
    assert list(index.lower_bound(pairs[-1][0] + b"\x00")) == []
    assert list(index.lower_bound(b"")) == pairs


@pytest.mark.parametrize("cls", COMPACT_CLASSES, ids=lambda c: c.__name__)
@given(
    mapping=st.dictionaries(
        st.binary(min_size=1, max_size=20),
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        max_size=80,
    )
)
@settings(max_examples=25, deadline=None)
def test_full_int64_values(cls, mapping):
    """Values span the whole signed 64-bit range the compressed leaves pack."""
    pairs = sorted(mapping.items())
    index = cls(pairs)
    assert list(index.items()) == pairs
    for k, v in pairs:
        assert index.get(k) == v


@pytest.mark.parametrize("slots", [4, 5, 16, 64, 1200, 2000])
def test_node_slots_set_the_height(slots):
    """Height is the least h with slots**h >= n, and reads do not depend on it."""
    index = CompactBPlusTree(PAIRS, node_slots=slots)
    height = 1
    while slots**height < len(PAIRS):
        height += 1
    assert index.height == height
    for i in range(0, len(PAIRS), 37):
        assert index.get(PAIRS[i][0]) == PAIRS[i][1]
        assert index.scan(PAIRS[i][0], 3) == PAIRS[i : i + 3]
    assert list(index.items()) == PAIRS


@pytest.mark.parametrize("cache_nodes", [1, 2, 7, 64])
def test_compressed_cache_stays_within_capacity(cache_nodes):
    index = CompressedBPlusTree(PAIRS, node_slots=16, cache_nodes=cache_nodes)
    assert index._cache.capacity == cache_nodes
    for k, v in PAIRS[::5]:
        assert index.get(k) == v
        assert len(index._cache) <= cache_nodes
    assert list(index.items()) == PAIRS
    assert len(index._cache) == min(cache_nodes, len(index._leaf_blobs))


def _loaded(cls, pairs):
    tree = cls()
    for k, v in pairs:
        tree.insert(k, v)
    return tree


class TestMemorySavings:
    """The Figure 2.5 claim: Compact X uses 30-71 % less memory."""

    @pytest.mark.parametrize(
        "dynamic_cls,compact_cls",
        [
            (BPlusTree, CompactBPlusTree),
            (PagedSkipList, CompactSkipList),
            (ART, CompactART),
            (Masstree, CompactMasstree),
        ],
        ids=["btree", "skiplist", "art", "masstree"],
    )
    def test_random_int_savings(self, dynamic_cls, compact_cls):
        dynamic = _loaded(dynamic_cls, PAIRS)
        compact = compact_cls(PAIRS)
        saving = 1 - compact.memory_bytes() / dynamic.memory_bytes()
        assert saving > 0.25, f"saving was only {saving:.1%}"

    def test_compact_masstree_largest_saving(self):
        """Masstree flattens entirely: the paper's biggest saving."""
        dynamic = _loaded(Masstree, EMAIL_PAIRS)
        compact = CompactMasstree(EMAIL_PAIRS)
        saving = 1 - compact.memory_bytes() / dynamic.memory_bytes()
        assert saving > 0.4

    def test_compact_art_mono_inc_small_saving(self):
        """Mono-inc keys: dynamic ART is already near-optimal."""
        keys = mono_inc_u64_keys(2000)
        pairs = [(k, i) for i, k in enumerate(keys)]
        dynamic = _loaded(ART, pairs)
        compact = CompactART(pairs)
        rand_pairs = PAIRS
        dyn_rand = _loaded(ART, rand_pairs)
        comp_rand = CompactART(rand_pairs)
        saving_mono = 1 - compact.memory_bytes() / dynamic.memory_bytes()
        saving_rand = 1 - comp_rand.memory_bytes() / dyn_rand.memory_bytes()
        assert saving_rand > saving_mono

    def test_compressed_saves_more_than_compact_mono_inc(self):
        keys = mono_inc_u64_keys(3000)
        pairs = [(k, i) for i, k in enumerate(keys)]
        compact = CompactBPlusTree(pairs)
        compressed = CompressedBPlusTree(pairs, cache_nodes=4)
        assert compressed.memory_bytes() < compact.memory_bytes()
        assert compressed.compression_ratio() < 0.9


class TestCompressedBPlusTree:
    def test_cache_hits_accumulate(self):
        index = CompressedBPlusTree(PAIRS, cache_nodes=8)
        for k, _ in PAIRS[:5] * 10:
            index.get(k)
        assert index._cache.hits > 0

    def test_all_values_roundtrip(self):
        index = CompressedBPlusTree(EMAIL_PAIRS)
        assert list(index.items()) == EMAIL_PAIRS


class TestClockNodeCache:
    def test_basic_hit_miss(self):
        cache = ClockNodeCache(2)
        loads = []
        get = lambda k: cache.get_or_load(k, lambda: loads.append(k) or k * 10)
        assert get(1) == 10
        assert get(1) == 10
        assert loads == [1]
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_at_capacity(self):
        cache = ClockNodeCache(2)
        for k in (1, 2, 3):
            cache.get_or_load(k, lambda k=k: k)
        assert len(cache) == 2
        assert 3 in cache

    def test_second_chance(self):
        cache = ClockNodeCache(2)
        cache.get_or_load("a", lambda: 1)
        cache.get_or_load("b", lambda: 2)
        cache.get_or_load("a", lambda: 1)  # ref a
        cache.get_or_load("c", lambda: 3)  # should evict b, not a
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_capacity_one(self):
        cache = ClockNodeCache(1)
        cache.get_or_load("x", lambda: 1)
        cache.get_or_load("y", lambda: 2)
        assert "y" in cache and "x" not in cache

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ClockNodeCache(0)
