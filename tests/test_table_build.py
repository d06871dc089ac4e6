"""Table building on columns: the trie builder, filters, blocks, tables
and WAL records are checked against the per-entry code they replaced.

* ``build_trie`` (column arithmetic over the sorted key column) against
  the recursive builder, kept here as the oracle, in both modes;
* keys that share kilobytes of prefix — the depth the recursion could
  not reach — through the builder, FST, SuRF and an LSM flush;
* the builder's transient memory with one very long key among short
  ones (O(total key bytes), no ``n x max_len`` matrix);
* table files, blocks and WAL frames byte for byte against the
  previous encoders (also kept here), over every storable value kind;
* a set-up shaped like the ledger's ``lib_read`` one never decodes a
  value and encodes each one once in the WAL and once at its flush.
"""

import random
import struct
import tracemalloc
import zlib

import pytest

from repro.filters.bloom import BloomFilter, hash64
from repro.fst import FST, build_trie
from repro.fst.builder import PREFIX_LABEL
from repro.lsm import LSMTree, TOMBSTONE, disk_format, sstable
from repro.lsm import wal as wal_mod
from repro.surf import SuRF, surf_hash, surf_mixed, surf_real
from repro.surf.surf import _real_suffix_bits
from repro.testing.faultfs import MemFS
from repro.workloads import email_keys, random_u64_keys, ycsb
from repro.workloads.keys import encode_u64

# -- the recursive builder (the oracle) ----------------------------------------


def recursive_build(keys, values=None, truncate=False):
    """The builder this one replaced: per level ``(labels, has_child,
    louds, values, n_nodes)`` lists, plus each key's cut-off suffix."""
    values = list(range(len(keys))) if values is None else values
    levels = []
    suffixes = [b""] * len(keys)

    def emit(depth, label, has_child, first, value=None):
        while len(levels) <= depth:
            levels.append(([], [], [], [], 0))
        labels, children, louds, vals, nodes = levels[depth]
        labels.append(label)
        children.append(has_child)
        louds.append(first)
        if not has_child:
            vals.append(value)
        levels[depth] = (labels, children, louds, vals, nodes + first)

    def build_node(lo, hi, depth):
        first = True
        if len(keys[lo]) == depth:
            emit(depth, PREFIX_LABEL, False, first, values[lo])
            lo += 1
            first = False
        i = lo
        while i < hi:
            byte = keys[i][depth]
            j = i
            while j < hi and keys[j][depth] == byte:
                j += 1
            if j - i == 1 and (truncate or len(keys[i]) == depth + 1):
                emit(depth, byte, False, first, values[i])
                suffixes[i] = keys[i][depth + 1 :]
            elif j - i == 1:
                key = keys[i]
                emit(depth, byte, True, first)
                for d in range(depth + 1, len(key) - 1):
                    emit(d, key[d], True, True)
                emit(len(key) - 1, key[-1], False, True, values[i])
            else:
                emit(depth, byte, True, first)
                build_node(i, j, depth + 1)
            first = False
            i = j

    if keys:
        build_node(0, len(keys), 0)
    return levels, suffixes


def _family(name, rng):
    if name == "empty-key":
        return sorted({b""} | {bytes(rng.choices(b"abc", k=rng.randint(1, 4))) for _ in range(30)})
    if name == "prefix-chain":
        return [b"k" * i for i in range(rng.randint(1, 40))]
    if name == "zero-ff":
        return sorted({bytes(rng.choices(b"\x00\xff\x01", k=rng.randint(0, 6))) for _ in range(60)})
    if name == "word-edges":  # neighbours parting before, at and past 8-byte words
        stem = bytes(rng.choices(b"\x00\xff", k=rng.randint(0, 20)))
        return sorted({
            stem[: rng.randint(0, len(stem))] + bytes(rng.choices(b"\x00\xff\x01", k=rng.randint(0, 12)))
            for _ in range(80)
        })
    if name == "single":
        return [bytes(rng.choices(b"xyz\x00", k=rng.randint(0, 5)))]
    if name == "u64":
        return sorted(set(random_u64_keys(rng.randint(2, 3000), seed=rng.randrange(1 << 30))))
    if name == "email":
        return sorted(set(email_keys(rng.randint(2, 1500), seed=rng.randrange(1 << 30))))
    raise AssertionError(name)


FAMILIES = ["empty-key", "prefix-chain", "zero-ff", "word-edges", "single", "u64", "email"]


class TestBuilderAgainstTheRecursiveOracle:
    @pytest.mark.parametrize("truncate", [False, True], ids=["fst", "surf"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_same_levels_values_and_suffixes(self, family, truncate):
        for seed in range(6):
            keys = _family(family, random.Random(seed))
            values = [f"v{i}" for i in range(len(keys))]
            want_levels, want_suffixes = recursive_build(keys, values, truncate)
            trie = build_trie(keys, values, truncate=truncate)
            got = [
                (lv.labels.tolist(), lv.has_child.tolist(), lv.louds.tolist(), lv.values, lv.n_nodes)
                for lv in trie.levels
            ]
            assert got == want_levels, (family, seed)
            assert [trie.suffixes[i] for i in range(len(keys))] == want_suffixes
            assert trie.n_keys == len(keys)
            assert trie.total_nodes() == sum(level[4] for level in want_levels)

    def test_no_keys(self):
        trie = build_trie([])
        assert trie.height == 0 and trie.levels == [] and len(trie.suffixes) == 0
        assert FST([]).get(b"") is None and not surf_real([]).lookup(b"a")

    @pytest.mark.parametrize("truncate", [False, True])
    def test_unsorted_and_duplicate_keys_rejected(self, truncate):
        bad = [
            [b"b", b"a"], [b"a", b"a"], [b"ab", b"a"], [b"", b""],
            [b"x" * 50 + b"b", b"x" * 50 + b"a"],
            [encode_u64(1), encode_u64(3), encode_u64(2)],
            [b"a", b"b", b"b", b"c"],
        ]
        for keys in bad:
            with pytest.raises(ValueError):
                build_trie(keys, truncate=truncate)
        with pytest.raises(ValueError):
            build_trie([b"a", b"b"], values=[1], truncate=truncate)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_surf_suffix_bits_match_the_per_key_functions(self, family):
        keys = _family(family, random.Random(3))
        _, suffixes = recursive_build(keys, truncate=True)
        for bits in (1, 4, 8, 13, 64):
            assert surf_real(keys, real_bits=bits)._real_suffixes == [
                _real_suffix_bits(s, bits) for s in suffixes
            ]
        for bits in (3, 8, 64):
            assert surf_hash(keys, hash_bits=bits)._hash_suffixes == [
                hash64(k) & ((1 << bits) - 1) for k in keys
            ]
        mixed = surf_mixed(keys)
        assert mixed._real_suffixes == [_real_suffix_bits(s, 2) for s in suffixes]

    def test_bloom_bulk_insert_matches_per_key_inserts(self):
        keys = sorted(set(email_keys(500, seed=4)))
        bulk = BloomFilter(keys, bits_per_key=12)
        one_by_one = BloomFilter([], bits_per_key=12, expected_keys=len(keys))
        for key in keys:
            one_by_one.add(key)
        assert bulk.to_bytes() == one_by_one.to_bytes()

    def test_suffix_words_wider_than_64_bits_rejected(self):
        with pytest.raises(ValueError):
            SuRF([b"a"], suffix_type="real", real_bits=65)


# -- long shared prefixes --------------------------------------------------------


class TestLongSharedPrefix:
    """Keys sharing ~1,000 bytes or more used to overflow the recursive
    builder's stack (``RecursionError``)."""

    KEYS = [b"a" * 1500 + b"x", b"a" * 1500 + b"y"]

    @pytest.mark.parametrize("truncate", [False, True])
    def test_builder(self, truncate):
        trie = build_trie(self.KEYS, truncate=truncate)
        assert trie.height == 1501
        assert trie.levels[-1].labels.tolist() == [ord("x"), ord("y")]

    def test_fst_and_surf(self):
        fst = FST(self.KEYS)
        assert [fst.get(k) for k in self.KEYS] == [0, 1]
        assert fst.get(b"a" * 1500) is None
        surf = surf_real(self.KEYS)
        assert all(surf.lookup_many(self.KEYS)) and surf.lookup(self.KEYS[1])
        assert not surf.lookup(b"a" * 1500 + b"z")

    @pytest.mark.parametrize("durable", [False, True], ids=["heap", "disk"])
    def test_lsm_flush_and_get(self, durable):
        prefix = b"p" * 4096
        keys = [prefix + b"%02d" % i for i in range(20)]
        kw = dict(filter_factory=surf_real, memtable_entries=8)
        db = LSMTree.open("db", fs=MemFS(), **kw) if durable else LSMTree(**kw)
        for i, key in enumerate(keys):
            db.put(key, i)
        db.flush_memtable()
        assert db.table_count() >= 2
        assert [db.get(k) for k in keys[::7]] == list(range(0, 20, 7))
        assert db.get(prefix + b"99") is None and db.get(prefix) is None
        db.close()


def test_transient_memory_is_bounded_by_the_key_bytes():
    """4,096 short keys and one 64 KiB key: an ``n x max_len`` matrix
    would be ~270 MB, and per-level Python objects (one level per byte
    of the long key in the FST mode) tens of MB."""
    keys = sorted(set(random_u64_keys(4096, seed=5)))
    keys = sorted(set(keys + [keys[100][:3] + b"\x7f" * 65536]))
    total = sum(map(len, keys))
    for build in (lambda: build_trie(keys), lambda: build_trie(keys, truncate=True),
                  lambda: surf_real(keys)):
        tracemalloc.start()
        try:
            build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * total, peak


# -- table files, blocks and WAL frames, byte for byte -----------------------------


def previous_encode_block(pairs):
    """The per-entry block encoder the column encoder replaced."""
    values = [disk_format.encode_value(value) for _, value in pairs]
    n = len(pairs)
    header = struct.pack(f"<{2 * n + 1}I", n, *[len(k) for k, _ in pairs], *map(len, values))
    return disk_format.frame(header + b"".join([k for k, _ in pairs]) + b"".join(values))


def previous_write_sstable(fs, path, pairs, table_id, block_entries, filter_factory=None):
    flt = filter_factory([k for k, _ in pairs]) if filter_factory else None
    filter_tag, filter_blob = sstable._encode_filter(flt)
    f = fs.create(path)
    offsets, fences, pos = [], [], 0
    for i in range(0, len(pairs), block_entries):
        block = list(pairs[i : i + block_entries])
        raw = previous_encode_block(block)
        offsets.append((pos, len(raw)))
        fences.append(block[0][0])
        f.append(raw)
        pos += len(raw)
    filter_frame = disk_format.frame(bytes([filter_tag]) + filter_blob)
    f.append(filter_frame)
    footer = bytearray()
    footer += disk_format.pack_u64(table_id)
    footer += disk_format.pack_u64(len(pairs))
    footer += disk_format.pack_bytes(pairs[0][0])
    footer += disk_format.pack_bytes(pairs[-1][0])
    footer += disk_format.pack_u64(pos)
    footer += disk_format.pack_u64(len(filter_frame))
    footer += disk_format.pack_u64(len(offsets))
    for (off, length), fence in zip(offsets, fences):
        footer += disk_format.pack_u64(off) + disk_format.pack_u64(length)
        footer += disk_format.pack_bytes(fence)
    footer_frame = disk_format.frame(bytes(footer))
    f.append(footer_frame)
    f.append(struct.pack("<I", len(footer_frame)) + sstable.TABLE_MAGIC)
    f.sync()
    f.close()


def previous_wal_frame(seq, key, value):
    payload = bytearray()
    payload.append(2 if value is TOMBSTONE else 1)
    payload += struct.pack("<Q", seq) + struct.pack("<I", len(key)) + key
    if value is not TOMBSTONE:
        val = disk_format.encode_value(value)
        payload += struct.pack("<I", len(val)) + val
    return struct.pack("<II", zlib.crc32(bytes(payload)), len(payload)) + bytes(payload)


def _mixed_pairs(rng, n):
    keys = sorted(set(random_u64_keys(n, seed=rng.randrange(1 << 30))))
    kinds = [
        lambda: rng.randrange(-(2**63), 2**63), lambda: 0,
        lambda: "sé" * rng.randint(0, 9), lambda: "",
        lambda: bytes(rng.choices(range(256), k=rng.randint(0, 40))), lambda: b"",
        lambda: TOMBSTONE,
    ]
    return [(k, rng.choice(kinds)()) for k in keys]


def _columns(pairs):
    return [k for k, _ in pairs], [disk_format.encode_value(v) for _, v in pairs]


class TestTableBytesIdentity:
    """What the column writers produce is what the per-entry ones did:
    same table files (so ``space_amp``, recovery and snapshot shipping
    see the same bytes), same blocks, same WAL frames."""

    @pytest.mark.parametrize("block_entries", [1, 4, 64, 1000])
    @pytest.mark.parametrize(
        "filter_factory",
        [None, surf_real, lambda keys: BloomFilter(keys, bits_per_key=10)],
        ids=["no-filter", "surf", "bloom"],
    )
    def test_write_sstable(self, block_entries, filter_factory):
        for seed in range(4):
            rng = random.Random(seed)
            pairs = _mixed_pairs(rng, rng.choice([1, 3, 200, 700]))
            fs = MemFS()
            previous_write_sstable(fs, "old.sst", pairs, 9, block_entries, filter_factory)
            keys, values = _columns(pairs)
            sstable.write_sstable(fs, "new.sst", keys, values, 9, block_entries=block_entries,
                                  filter_factory=filter_factory)
            assert fs.read("new.sst") == fs.read("old.sst"), seed

    def test_encode_block(self):
        rng = random.Random(7)
        for n in (0, 1, 2, 64, 300):
            pairs = _mixed_pairs(rng, n)
            assert disk_format.encode_block(*_columns(pairs)) == previous_encode_block(pairs)

    def test_wal_frames(self):
        rng = random.Random(11)
        records = [(seq, k, v) for seq, (k, v) in enumerate(_mixed_pairs(rng, 300), start=1)]
        shipped = []
        fs = MemFS()
        w = wal_mod.WalWriter(fs, "wal", observer=shipped.extend)
        w.append_batch(records[:200])
        w.append_batch(records[200:])
        w.close()
        want = [previous_wal_frame(*r) for r in records]
        assert fs.read("wal") == b"".join(want)
        assert shipped == [(r[0], frame) for r, frame in zip(records, want)]
        assert list(wal_mod.iter_records(fs.read("wal"))) == records

    def test_unstorable_value_leaves_the_log_unchanged(self):
        fs = MemFS()
        w = wal_mod.WalWriter(fs, "wal")
        w.append_batch([(1, b"a", 1)])
        with pytest.raises(TypeError):
            w.append_batch([(2, b"b", 2), (3, b"c", 1.5)])
        assert list(wal_mod.iter_records(fs.read("wal"))) == [(1, b"a", 1)]


def test_lib_read_set_up_never_decodes_a_value(monkeypatch):
    """The ledger's ``lib_read`` set-up shape (20k of 40k u64 keys,
    100-byte values, ``write_batch`` of 256, SuRF-Real, one final
    flush): every value is encoded once in the WAL and once at its
    flush; compaction carries encoded bytes and decodes nothing."""
    keys = random_u64_keys(40_000, seed=9101)
    stored, _, _ = ycsb.point_query_keys(keys, 10, present_fraction=0.5, seed=9101)
    pairs = [(k, k * 12 + b"....") for k in stored]
    counts = {"encode": 0, "decode": 0}
    encode, decode = disk_format.encode_value, disk_format.decode_value

    def counted_encode(value):
        counts["encode"] += 1
        return encode(value)

    def counted_decode(*args):
        counts["decode"] += 1
        return decode(*args)

    monkeypatch.setattr(disk_format, "encode_value", counted_encode)
    monkeypatch.setattr(disk_format, "decode_value", counted_decode)
    db = LSMTree.open("db", fs=MemFS(), filter_factory=surf_real, block_cache_blocks=32)
    for i in range(0, len(pairs), 256):
        db.write_batch(pairs[i : i + 256])
    db.flush_memtable()
    assert (db.flush_count, db.compaction_count) == (40, 8)
    assert counts == {"encode": 2 * len(pairs), "decode": 0}
    monkeypatch.undo()
    assert db.get(pairs[123][0]) == pairs[123][1]
    db.close()
