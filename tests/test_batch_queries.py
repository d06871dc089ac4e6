"""Batch query vocabulary: batch results must equal scalar results.

Every structure that overrides ``get_many`` / ``may_contain_many`` is
held to bit-for-bit agreement with its own scalar path over adversarial
query mixes (present keys, extensions, prefixes, perturbed near-misses,
the empty key), as one batch, as batches of one key and as a batch that
repeats keys.  An override stays only where it measured faster than the
loop it replaces; :class:`TestAuditedOverrides` pins which ones do.
"""

import importlib
import random

import pytest

from repro.compact import CompactBPlusTree, CompressedBPlusTree
from repro.filters.bloom import BloomFilter
from repro.hope import HopeEncoder, HopeIndex
from repro.hybrid import hybrid_btree, hybrid_compressed_btree
from repro.surf import SuRF
from repro.trees import BPlusTree
from repro.workloads.keys import email_keys


@pytest.fixture(scope="module")
def keys():
    return sorted(set(email_keys(2000, seed=42)))


@pytest.fixture(scope="module")
def queries(keys):
    rnd = random.Random(4242)
    out = []
    for k in keys[::3]:
        out.append(k)
        out.append(k + b"x")
        out.append(k[: max(1, len(k) // 2)])
        kb = bytearray(k)
        kb[rnd.randrange(len(kb))] ^= 0xFF
        out.append(bytes(kb))
    out.append(b"")
    rnd.shuffle(out)
    return out


@pytest.fixture(scope="module", params=["mixed", "width-1", "repeated"])
def batches(request, queries):
    """The query mix as one batch, as batches of one key, and as one
    batch in which every key appears more than once."""
    if request.param == "mixed":
        return [queries]
    if request.param == "width-1":
        return [[q] for q in queries[:300]]
    return [queries[:100] + queries[:100][::-1] + queries[:50]]


class TestSurfBatch:
    @pytest.mark.parametrize(
        "surf_kwargs",
        [
            {"suffix_type": "none"},
            {"suffix_type": "hash", "hash_bits": 8},
            {"suffix_type": "real", "real_bits": 8},
            {"suffix_type": "mixed", "hash_bits": 4, "real_bits": 4},
        ],
        ids=["base", "hash", "real", "mixed"],
    )
    def test_lookup_many_matches_scalar(self, keys, queries, surf_kwargs):
        surf = SuRF(keys, **surf_kwargs)
        for k in keys[::13]:  # exercise the tombstone check too
            surf.delete(k)
        assert surf.lookup_many(queries) == [surf.lookup(q) for q in queries]


class TestFilterBatch:
    def test_bloom(self, keys, batches):
        bloom = BloomFilter(keys, bits_per_key=10)
        for batch in batches:
            assert bloom.may_contain_many(batch) == [
                bloom.may_contain(q) for q in batch
            ]
        assert bloom.may_contain_many([]) == []

    def test_bloom_incremental_fill(self, keys, queries):
        bloom = BloomFilter([], expected_keys=len(keys))
        for k in keys:
            bloom._set(k)
        assert bloom.may_contain_many(queries) == [
            bloom.may_contain(q) for q in queries
        ]


class TestCompactBatch:
    @pytest.mark.parametrize("cls", [CompactBPlusTree, CompressedBPlusTree])
    def test_get_many_matches_scalar(self, cls, keys, batches):
        tree = cls([(k, i) for i, k in enumerate(keys)])
        for batch in batches:
            assert tree.get_many(batch) == [tree.get(q) for q in batch]
        assert tree.get_many([]) == []

    @pytest.mark.parametrize("cls", [CompactBPlusTree, CompressedBPlusTree])
    def test_empty_tree(self, cls, queries):
        tree = cls([])
        assert tree.get_many(queries) == [None] * len(queries)


class TestHopeBatch:
    @pytest.mark.parametrize("scheme", ["single", "double", "3grams", "alm"])
    def test_encode_batch_matches_scalar(self, scheme, keys, queries):
        enc = HopeEncoder.from_sample(scheme, keys[::7], dict_limit=256)
        assert enc.encode_batch(queries) == [enc.encode(q) for q in queries]
        assert enc.encode_batch([]) == []

    def test_hope_index_get_many(self, keys, batches):
        enc = HopeEncoder.from_sample("single", keys[::7])
        index = HopeIndex(BPlusTree, enc)
        for i, k in enumerate(keys):
            index.insert(k, i)
        for batch in batches:
            assert index.get_many(batch) == [index.get(q) for q in batch]


class TestHybridBatch:
    @pytest.mark.parametrize(
        "factory",
        [
            hybrid_btree,
            hybrid_compressed_btree,
            lambda: hybrid_btree(use_bloom=False),
            lambda: hybrid_btree(merge_strategy="cold"),
        ],
        ids=["btree", "compressed", "no-bloom", "merge-cold"],
    )
    def test_get_many_matches_scalar(self, factory, keys, batches):
        hybrid = factory()
        for i, k in enumerate(keys):
            hybrid.insert(k, i)
        for k in keys[::9]:
            hybrid.delete(k)
        for batch in batches:
            assert hybrid.get_many(batch) == [hybrid.get(q) for q in batch]
        assert hybrid.get_many([]) == []


class TestDefaultVocabulary:
    def test_dynamic_tree_default_loop(self, keys, queries):
        tree = BPlusTree()
        for i, k in enumerate(keys):
            tree.insert(k, i)
        assert tree.get_many(queries) == [tree.get(q) for q in queries]


#: The ``*_many`` names each exported class defines itself.  Every
#: override here beat its loop in ten alternating pairs (EXPERIMENTS.md,
#: "Batch vocabulary audit"); ``SuRF.lookup_many`` is the loop itself,
#: kept because the ledger's tracer patches it.  A new override earns
#: its entry with a ten-pair row of its own.
AUDITED = {
    "OrderedIndex": {"get_many", "put_many", "delete_many"},
    "GappedBPlusTree": {"put_many"},
    "CompactBPlusTree": {"get_many"},
    "CompressedBPlusTree": {"get_many"},
    "HybridIndex": {"get_many", "put_many"},
    "HopeIndex": {"get_many"},
    "BloomFilter": {"add_many", "may_contain_many", "lookup_many"},
    "SuRF": {"lookup_many", "may_contain_many"},
}


class TestAuditedOverrides:
    def test_batch_names_match_the_audit(self):
        found = {}
        for package in ("trees", "compact", "hybrid", "hope", "filters", "surf", "fst"):
            module = importlib.import_module(f"repro.{package}")
            for name in module.__all__:
                cls = getattr(module, name)
                if not isinstance(cls, type):
                    continue
                own = {n for n in vars(cls) if n.endswith("_many") and not n.startswith("_")}
                if own:
                    found[cls.__name__] = own
        assert found == AUDITED
