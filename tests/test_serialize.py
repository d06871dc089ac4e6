"""Round-trip tests for FST / SuRF serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fst import FST
from repro.fst.serialize import fst_from_bytes, surf_from_bytes
from repro.lsm import disk_format
from repro.lsm.fs import MemFS
from repro.lsm.sstable import DiskSSTable, column_blocks, write_sstable
from repro.surf import SuRF, surf_base, surf_hash, surf_mixed, surf_real
from repro.workloads import email_keys, random_u64_keys

KEYS = sorted(random_u64_keys(1500, seed=170))
EMAILS = sorted(email_keys(800, seed=171))


class TestFstRoundTrip:
    @pytest.mark.parametrize("keys", [KEYS, EMAILS], ids=["int", "email"])
    def test_point_and_range_survive(self, keys):
        fst = FST(keys, list(range(len(keys))))
        clone = FST.from_bytes(fst.to_bytes())
        for i, k in enumerate(keys[::37]):
            assert clone.get(k) == keys.index(k) if False else clone.get(k) is not None
        for i, k in enumerate(keys):
            assert clone.get(k) == i
        assert [k for k, _ in clone.items()] == keys
        assert clone.count_range(keys[10], keys[200]) == 190
        view = fst_from_bytes(fst.to_bytes(), copy=False)
        for lo, hi in [(0, 1), (10, 200), (0, len(keys) - 1), (17, 18), (5, 5)]:
            assert view.count_range(keys[lo], keys[hi]) == hi - lo
        assert view.count_range(b"", keys[-1] + b"\x00") == len(keys)
        assert view.count_range(keys[-1] + b"\x00", b"\xff" * 9) == 0

    def test_size_preserved(self):
        fst = FST(KEYS, list(range(len(KEYS))))
        clone = FST.from_bytes(fst.to_bytes())
        assert clone.size_bits() == fst.size_bits()
        assert clone.dense_height == fst.dense_height

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            FST.from_bytes(b"NOPE" + b"\x00" * 100)
        # An FST2 blob (with per-level start tables) is an older format.
        blob = FST(KEYS[:50], list(range(50))).to_bytes()
        with pytest.raises(ValueError, match="corrupt FST blob: bad magic"):
            FST.from_bytes(b"FST2" + blob[4:])

    @given(
        keys=st.lists(
            st.binary(min_size=1, max_size=8), min_size=1, max_size=50, unique=True
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, keys):
        keys = sorted(keys)
        fst = FST(keys, list(range(len(keys))))
        clone = FST.from_bytes(fst.to_bytes())
        for i, k in enumerate(keys):
            assert clone.get(k) == i


class TestSurfRoundTrip:
    @pytest.mark.parametrize(
        "make",
        [
            surf_base,
            lambda ks: surf_real(ks, real_bits=4),
            lambda ks: surf_mixed(ks, hash_bits=2, real_bits=2),
        ],
        ids=["base", "real", "mixed"],
    )
    def test_lookup_answers_identical(self, make):
        surf = make(KEYS)
        clone = SuRF.from_bytes(surf.to_bytes())
        probes = KEYS[::13] + random_u64_keys(300, seed=172)
        for k in probes:
            assert clone.lookup(k) == surf.lookup(k)
        assert clone.bits_per_key() == pytest.approx(surf.bits_per_key())

    def test_range_answers_identical(self):
        surf = surf_real(EMAILS, real_bits=8)
        clone = SuRF.from_bytes(surf.to_bytes())
        for i in range(0, len(EMAILS) - 1, 41):
            lo, hi = EMAILS[i], EMAILS[i + 1] + b"\x00"
            assert clone.lookup_range(lo, hi) == surf.lookup_range(lo, hi)

    def test_tombstones_survive(self):
        surf = surf_real(KEYS, real_bits=4)
        surf.delete(KEYS[7])
        clone = SuRF.from_bytes(surf.to_bytes())
        assert not clone.lookup(KEYS[7])
        assert clone.lookup(KEYS[8])

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            SuRF.from_bytes(b"XXXX")

    def test_counts_identical(self):
        surf = surf_base(KEYS)
        clone = SuRF.from_bytes(surf.to_bytes())
        assert clone.count(KEYS[5], KEYS[500]) == surf.count(KEYS[5], KEYS[500])


def _tombstoned_real(keys):
    surf = surf_real(keys, real_bits=4)
    surf.delete(keys[3])
    return surf


#: (name, build, load) of every blob kind: an index FST (with a value
#: column and a dense level), and SuRFs with and without suffix words
#: and tombstones.
BLOBS = [
    ("fst", lambda ks: FST(ks, list(range(len(ks))), dense_levels=1), fst_from_bytes),
    ("surf-base", surf_base, surf_from_bytes),
    ("surf-real4-tombstone", _tombstoned_real, surf_from_bytes),
    ("surf-mixed57", lambda ks: surf_mixed(ks, hash_bits=5, real_bits=7), surf_from_bytes),
]


class TestCorruptBlobs:
    @pytest.mark.parametrize(("name", "build", "load"), BLOBS, ids=[b[0] for b in BLOBS])
    def test_every_cut_and_a_trailing_byte_raise(self, name, build, load):
        """Each length in a blob is checked: every truncation of a
        50-key blob, and the blob plus one byte, fail to load on both
        paths instead of loading and failing a lookup later."""
        keys = sorted(random_u64_keys(50, seed=173))
        blob = build(keys).to_bytes()
        for copy in (True, False):
            load(blob, copy=copy)
            for cut in range(len(blob)):
                with pytest.raises(ValueError, match="corrupt"):
                    load(blob[:cut], copy=copy)
            with pytest.raises(ValueError, match="corrupt"):
                load(blob + b"\x00", copy=copy)


#: The filter variants the stored-size bound covers.
SIZED = [
    ("base", surf_base),
    ("hash3", lambda ks: surf_hash(ks, hash_bits=3)),
    ("real4", lambda ks: surf_real(ks, real_bits=4)),
    ("mixed57", lambda ks: surf_mixed(ks, hash_bits=5, real_bits=7)),
]
SIZED_KEYS = {
    "u64": sorted(set(random_u64_keys(3000, seed=174))),
    "email": sorted(set(email_keys(1500, seed=175))),
}


class TestStoredSizeMatchesTheModel:
    """A filter blob stores what ``size_bits()`` charges, and the
    charged sizes are those the thesis figures were made with."""

    #: ``size_bits()`` of base / hash3 / real4 / mixed57 and of the
    #: index FST on ``SIZED_KEYS``: storing the filter at its modelled
    #: width leaves the model unchanged.
    MODELLED = {
        "u64": [34088, 43088, 46088, 70088, 223384],
        "email": [37712, 42212, 43712, 55712, 143432],
    }

    @pytest.mark.parametrize("keyset", sorted(SIZED_KEYS))
    def test_blob_within_1_3x_of_the_model(self, keyset):
        keys = SIZED_KEYS[keyset]
        for name, make in SIZED:
            surf = make(keys)
            stored = len(surf.to_bytes()) * 8 / len(keys)
            assert stored <= 1.3 * surf.bits_per_key(), (name, stored, surf.bits_per_key())

    @pytest.mark.parametrize("keyset", sorted(SIZED_KEYS))
    def test_modelled_sizes_do_not_move(self, keyset):
        keys = SIZED_KEYS[keyset]
        got = [make(keys).size_bits() for _, make in SIZED] + [FST(keys).size_bits()]
        assert got == self.MODELLED[keyset]

    def test_table_filter_frame_within_1_3x_of_the_model(self):
        """The SuRF-Real(4) frame of a table file, as the engine writes
        it (the ``lib_read`` filter)."""
        keys = SIZED_KEYS["u64"]
        fs = MemFS()
        values = [disk_format.encode_value(b"v" * 100)] * len(keys)
        write_sstable(fs, "t.sst", column_blocks(keys, values), 1, filter_factory=surf_real)
        table = DiskSSTable(fs, "t.sst")
        frame_bits = table._filter_span[1] * 8 / len(keys)
        assert frame_bits <= 1.3 * table.filter.bits_per_key()
