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

import hashlib
import random
import struct
import sys
import tracemalloc
import zlib

import pytest

from repro.filters.bloom import BloomFilter, hash64
from repro.fst import FST, build_trie
from repro.fst.builder import PREFIX_LABEL
from repro.lsm import LSMTree, TOMBSTONE, disk_format, sstable
from repro.lsm.sstable import DEFAULT_BLOCK_ENTRIES
from repro.lsm import wal as wal_mod
from repro.surf import SuRF, surf_hash, surf_mixed, surf_real
from repro.surf.surf import _real_suffix_bits, suffix_at
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
        """Each key's suffixes, read at the leaf rank its walk ends at
        (the order SuRF stores them in), equal the per-key functions."""
        keys = _family(family, random.Random(3))
        _, suffixes = recursive_build(keys, truncate=True)

        def leaf_ranks(surf):
            ranks = [surf.fst._lookup(k)[0] for k in keys]
            assert sorted(ranks) == list(range(len(keys)))
            return ranks

        for bits in (1, 4, 7, 8, 13, 64):
            surf = surf_real(keys, real_bits=bits)
            assert [suffix_at(surf._real_view, r, bits) for r in leaf_ranks(surf)] == [
                _real_suffix_bits(s, bits) for s in suffixes
            ]
        for bits in (3, 5, 8, 64):
            surf = surf_hash(keys, hash_bits=bits)
            assert [suffix_at(surf._hash_view, r, bits) for r in leaf_ranks(surf)] == [
                hash64(k) & ((1 << bits) - 1) for k in keys
            ]
        mixed = surf_mixed(keys, hash_bits=5, real_bits=7)
        ranks = leaf_ranks(mixed)
        assert [suffix_at(mixed._real_view, r, 7) for r in ranks] == [
            _real_suffix_bits(s, 7) for s in suffixes
        ]
        assert [suffix_at(mixed._hash_view, r, 5) for r in ranks] == [
            hash64(k) & 31 for k in keys
        ]

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

    @pytest.mark.parametrize("opened", [False, True], ids=["no-path", "open"])
    def test_lsm_flush_and_get(self, opened):
        prefix = b"p" * 4096
        keys = [prefix + b"%02d" % i for i in range(20)]
        kw = dict(filter_factory=surf_real, memtable_entries=8)
        db = LSMTree.open("db", fs=MemFS(), **kw) if opened else LSMTree(**kw)
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


@pytest.mark.parametrize("filter_name", ["none", "surf_real"])
def test_a_compaction_holds_blocks_not_tables(filter_name, tmp_path):
    """One L0 -> L1 compaction of 16,384 entries (four 2,048-entry L0
    tables, half of them updates, into two 4,096-entry L1 tables) on
    real files: the merge holds one block per input run and the writer
    the block it is cutting, so the traced peak stays under a few
    blocks plus the output's fences — and, with a filter, the key
    column of one output table plus what building its filter takes.
    A merge that materializes a table (or a level) of entries holds
    ~2 MiB here."""
    factory = {"none": None, "surf_real": surf_real}[filter_name]
    db = LSMTree.open(str(tmp_path / "db"), memtable_entries=2048, sstable_entries=4096,
                      level0_limit=8, filter_factory=factory)
    keys = random_u64_keys(12288, seed=9)

    def load(batch, value):
        for i in range(0, len(batch), 2048):
            db.write_batch([(k, value) for k in batch[i : i + 2048]])
            db.flush_memtable()

    load(keys[:8192], b"a" * 32)
    db._compact_level(0)
    load(keys[4096:], b"b" * 32)
    for table in db._version.tables():
        table.fences, table.filter  # footers and filters resident, as when serving
    assert [len(level) for level in db.levels] == [4, 2]
    tracemalloc.start()
    try:
        db._compact_level(0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(level) for level in db.levels] == [0, 3]
    key, cell = keys[0], disk_format.encode_value(b"a" * 32)
    entry = sys.getsizeof(key) + sys.getsizeof(cell) + 2 * 8  # two objects, two list slots
    block = DEFAULT_BLOCK_ENTRIES * entry
    fences = 16384 // DEFAULT_BLOCK_ENTRIES * (sys.getsizeof(key) + 8 + 128)  # fence, span
    bound = 8 * block + fences
    if factory is not None:
        column = sorted(keys[:4096])
        tracemalloc.start()
        try:
            factory(column)
            _, build = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 16 * block + fences + 4096 * (sys.getsizeof(key) + 8) + build
    assert peak < bound, (peak, bound)
    assert db.get(keys[100]) == b"a" * 32 and db.get(keys[5000]) == b"b" * 32
    db.close()


class _TableRecorder(MemFS):
    """MemFS that keeps the sha256 of every table file it held: taken
    at removal, and of the survivors on :meth:`digests`."""

    def __init__(self):
        super().__init__()
        self.tables = {}

    def _record(self, path):
        if path.endswith(".sst"):
            self.tables[path.rsplit("/", 1)[-1]] = hashlib.sha256(self.read(path)).hexdigest()

    def remove(self, path):
        self._record(path)
        super().remove(path)

    def digests(self, path):
        for name in self.listdir(path):
            self._record(f"{path}/{name}")
        return self.tables


class TestCompactionOutputIdentity:
    """Every table a seeded engine workload writes — flushes, L0 -> L1
    keeping tombstones above a deeper level, L0 -> L1 and L1 -> L2
    dropping them at the bottom — hashed file by file.  The values were
    computed with the whole-level dict merge and the column writer the
    streaming ones replaced: tables are byte-identical.  The first 500
    writes have fixed-width values (fixed-width blocks), the rest mix
    ints, strings, bytes and deletes (stored offsets, tags,
    tombstones).  Tables are cut at 96 entries, six whole blocks, and
    at 90, where every full output table ends in a short block."""

    FILTERS = {
        "none": None,
        "bloom": lambda keys: BloomFilter(keys, bits_per_key=10),
        "surf_real": lambda keys: surf_real(keys, real_bits=4),
    }
    #: Per ``(sstable_entries, filter)``: how many table files the run
    #: writes, and the sha256 over their sorted ``(file name, sha256 of
    #: the file)`` pairs.
    DIGESTS = {
        (96, "none"): (27, "b0fb7260b687686d7de7f500dde1b063a4e024b8c44fe0ad591d3fc203159a51"),
        (96, "bloom"): (27, "cf9a6c0188fc28d0c89c9949513bef7901992abaaee700401022c99b30779a32"),
        (96, "surf_real"): (27, "b94e5a6d7a57923075bf28d996319831ddeabaa070c960cb2128283468d1ac3f"),
        (90, "none"): (29, "dbf2da55b2d10759ac5743ec0595d9f7e3b10eccadda1f591a568cebffdc07f9"),
        (90, "bloom"): (29, "b8503880abcb018bb6b81f57f7ad684c9cbec012b9264236218d919338929d48"),
        (90, "surf_real"): (29, "d045c23f88f12bec9e9a3cac3e21cc478a40c8ca9ebd1e83c7f84d7a7b37ce2b"),
    }

    @pytest.mark.parametrize("filter_name", list(FILTERS))
    @pytest.mark.parametrize("sstable_entries", [96, 90])
    def test_every_table_file_is_pinned(self, sstable_entries, filter_name):
        fs = _TableRecorder()
        db = LSMTree.open("db", fs=fs, memtable_entries=128, sstable_entries=sstable_entries,
                          block_entries=16, level0_limit=2, level_fanout=2, filter_factory=self.FILTERS[filter_name])
        compactions = []
        compact = db._compact_level

        def logged(level):
            compactions.append((level, len(db._version.levels) <= level + 2))
            compact(level)

        db._compact_level = logged
        rng = random.Random(47)
        for i in range(500):
            db.put(encode_u64(rng.randrange(600)), b"%08d" % i)
        for i in range(900):
            key = encode_u64(rng.randrange(600))
            roll = rng.random()
            if roll < 0.25:
                db.delete(key)
            elif roll < 0.5:
                db.put(key, i)
            elif roll < 0.75:
                db.put(key, "v" * rng.randrange(12))
            else:
                db.put(key, b"x" * rng.randrange(20))
        db.flush_memtable()
        # (level, tombstones dropped): both levels, both ways.
        assert {(0, True), (0, False), (1, True)} <= set(compactions)
        tables = fs.digests("db")
        db.close()
        count, digest = self.DIGESTS[sstable_entries, filter_name]
        assert len(tables) == count
        pairs = repr(sorted(tables.items())).encode()
        assert hashlib.sha256(pairs).hexdigest() == digest, tables


# -- table files, blocks and WAL frames, byte for byte -----------------------------


#: The value width of a block whose values differ in length.
VARIABLE = 0xFFFFFFFF


def previous_encode_block(pairs):
    """A per-entry block writer: entry by entry it appends each key,
    then each encoded value, to its column, records the offset where
    the field starts and whether the field has the first one's length;
    the values lose their tag when every one is ``bytes``.  The header
    (count, widths, flags) opens the block, and the offsets follow it
    only when a width varies."""
    cells = [(key, disk_format.encode_value(value)) for key, value in pairs]
    raw = True
    for _, cell in cells:
        if cell[:1] != b"\x02":  # the bytes tag
            raw = False
    if raw:
        cells = [(key, cell[1:]) for key, cell in cells]
    key_width = value_width = None
    starts, key_column, value_column = [], bytearray(), bytearray()
    for key, _ in cells:
        starts.append(len(key_column))
        key_column += key
        key_width = len(key) if key_width in (None, len(key)) else VARIABLE
    for _, cell in cells:
        starts.append(len(key_column) + len(value_column))
        value_column += cell
        value_width = len(cell) if value_width in (None, len(cell)) else VARIABLE
    starts.append(len(key_column) + len(value_column))
    header = struct.pack("<IIIB", len(cells), key_width or 0, value_width or 0, raw)
    if VARIABLE in (key_width, value_width):
        base = len(header) + 4 * len(starts)
        header += b"".join(struct.pack("<I", base + start) for start in starts)
    return disk_format.frame(header + key_column + value_column)


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


#: Value families, one per block layout: every storable kind (stored
#: offsets, tags kept), 100-byte ``bytes`` (fixed widths, no tags),
#: ``int`` only (fixed width 9, tags kept), 100-byte ``bytes`` and one
#: tombstone (its block stores offsets and tags), and one entry whose
#: key and value are empty (width 0).
FAMILIES = ("mixed", "bytes100", "int", "tombstone", "empty")


def _mixed_pairs(rng, n, family="mixed"):
    if family == "empty":
        return [(b"", b"")]
    keys = sorted(set(random_u64_keys(n, seed=rng.randrange(1 << 30))))
    kinds = {
        "mixed": [
            lambda: rng.randrange(-(2**63), 2**63), lambda: 0,
            lambda: "sé" * rng.randint(0, 9), lambda: "",
            lambda: bytes(rng.choices(range(256), k=rng.randint(0, 40))), lambda: b"",
            lambda: TOMBSTONE,
        ],
        "bytes100": [lambda: rng.randbytes(100)],
        "tombstone": [lambda: rng.randbytes(100)],
        "int": [lambda: rng.randrange(-(2**63), 2**63)],
    }[family]
    pairs = [(k, rng.choice(kinds)()) for k in keys]
    if family == "tombstone":
        i = rng.randrange(len(pairs))
        pairs[i] = (pairs[i][0], TOMBSTONE)
    return pairs


def _columns(pairs):
    return [k for k, _ in pairs], [disk_format.encode_value(v) for _, v in pairs]


class TestTableBytesIdentity:
    """What the column writers produce is what the per-entry ones did:
    same table files (so ``space_amp``, recovery and snapshot shipping
    see the same bytes), same blocks, same WAL frames."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("block_entries", [1, 4, 64, 1000])
    @pytest.mark.parametrize(
        "filter_factory",
        [None, surf_real, lambda keys: BloomFilter(keys, bits_per_key=10)],
        ids=["no-filter", "surf", "bloom"],
    )
    def test_write_sstable(self, block_entries, filter_factory, family):
        for seed in range(4):
            rng = random.Random(seed)
            pairs = _mixed_pairs(rng, rng.choice([1, 3, 200, 700]), family)
            fs = MemFS()
            previous_write_sstable(fs, "old.sst", pairs, 9, block_entries, filter_factory)
            keys, values = _columns(pairs)
            blocks = sstable.column_blocks(keys, values, block_entries)
            sstable.write_sstable(fs, "new.sst", blocks, 9, filter_factory)
            assert fs.read("new.sst") == fs.read("old.sst"), seed

    @pytest.mark.parametrize("family", FAMILIES)
    def test_encode_block(self, family):
        rng = random.Random(7)
        for n in (0, 1, 2, 64, 300, 1000):
            pairs = _mixed_pairs(rng, n, family) if n else []
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
