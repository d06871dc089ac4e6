"""SuRF edge cases (Chapter 4): trie-boundary iteration, range-query
endpoints, approximate counts, and the one-sided error contract.

The cardinal rule everywhere: a SuRF may false-positive, but a false
*negative* (or an under-count) breaks every LSM read path built on it.
"""

import random
import tracemalloc

import pytest

from repro.surf import SuRF, surf_base, surf_hash, surf_mixed, surf_real
from repro.workloads import email_keys, random_u64_keys

INT_KEYS = sorted(random_u64_keys(2000, seed=81))
EMAIL_KEYS = sorted(email_keys(1000, seed=82))

VARIANTS = [
    ("base", lambda keys: surf_base(keys)),
    ("hash8", lambda keys: surf_hash(keys, hash_bits=8)),
    ("real8", lambda keys: surf_real(keys, real_bits=8)),
    ("mixed", lambda keys: surf_mixed(keys, hash_bits=4, real_bits=4)),
    # 5 + 7 bits: entries of both packed columns straddle 64-bit words.
    ("mixed57", lambda keys: surf_mixed(keys, hash_bits=5, real_bits=7)),
]

#: Keys over {0x00, 0x01, 0xff} (the builder tests' ``zero-ff``
#: family), and keys ending in 0xFF next to prefix keys: S-Labels
#: nodes whose first-slot 0xFF is `$` and whose last 0xFF is real.
_rng = random.Random(87)
ZERO_FF_KEYS = sorted({bytes(_rng.choices(b"\x00\xff\x01", k=_rng.randint(0, 6))) for _ in range(60)})
FF_AFTER_PREFIX_KEYS = sorted(
    {stem + tail for stem in (b"", b"a", b"\xff", b"a\xff")
     for tail in (b"", b"\x00", b"\xff", b"\xff\xff")}
)


def perturb(rng: random.Random, key: bytes) -> bytes:
    """A near-miss mutation of ``key`` (the adversarial absent keys of
    Figure 4.6 — far harder than uniform random probes)."""
    choice = rng.randrange(4)
    if choice == 0:
        return key + bytes([rng.randrange(256)])
    if choice == 1 and len(key) > 1:
        return key[:-1]
    if choice == 2:
        i = rng.randrange(len(key))
        return key[:i] + bytes([key[i] ^ (1 << rng.randrange(8))]) + key[i + 1 :]
    return bytes([rng.randrange(256)]) + key


@pytest.mark.parametrize(("name", "make"), VARIANTS, ids=[v[0] for v in VARIANTS])
class TestOneSidedError:
    def test_no_false_negatives_on_stored_keys(self, name, make):
        for keys in (INT_KEYS, EMAIL_KEYS):
            f = make(keys)
            for k in keys:
                assert f.lookup(k), f"false negative for stored key {k!r}"

    def test_absent_key_sweep(self, name, make):
        """10k near-miss absent keys: negatives must all be true
        negatives; positives are counted as FPR, never trusted."""
        keys = EMAIL_KEYS
        stored = set(keys)
        f = make(keys)
        rng = random.Random(83)
        fps = probes = 0
        while probes < 10_000:
            q = perturb(rng, rng.choice(keys))
            if q in stored:
                continue
            probes += 1
            if f.lookup(q):
                fps += 1
        # No assertion on individual positives — only that the filter
        # stays usable: suffix bits must keep the FPR well below 100%.
        assert fps / probes < 0.8, f"{name}: FPR {fps / probes:.2f}"

    def test_range_never_false_negative(self, name, make):
        keys = INT_KEYS
        f = make(keys)
        rng = random.Random(84)
        for _ in range(500):
            lo, hi = sorted((rng.choice(keys), rng.choice(keys)))
            if lo == hi:
                continue
            # [lo, hi) always holds lo itself.
            assert f.lookup_range(lo, hi)
            assert f.lookup_range(lo, hi, inclusive_high=True)


class TestTrieBoundaries:
    def test_seek_below_smallest(self):
        f = surf_base(EMAIL_KEYS)
        it, fp = f.move_to_next(b"\x00")
        assert it.valid and not fp
        assert EMAIL_KEYS[0].startswith(it.key())

    def test_seek_above_largest(self):
        f = surf_base(EMAIL_KEYS)
        it, _fp = f.move_to_next(b"\xff\xff")
        assert not it.valid

    def test_seek_past_largest_with_shared_prefix_is_flagged(self):
        # Query = largest key + suffix shares the stored truncated
        # prefix; the filter cannot prove the full key sorts below the
        # query, so it must answer valid WITH the fp_flag raised (never
        # silently invalid — that would be a false negative).
        f = surf_base(EMAIL_KEYS)
        it, fp = f.move_to_next(EMAIL_KEYS[-1] + b"\xff")
        if it.valid:
            assert fp
            assert EMAIL_KEYS[-1].startswith(it.key())

    def test_iterate_entire_trie(self):
        """move_to_next from the axis origin walks every stored entry in
        order — the iterator must not skip or repeat at node edges."""
        f = surf_base(INT_KEYS)
        it, _ = f.move_to_next(b"")
        seen = 0
        prev = None
        while it.valid:
            k = it.key()
            if prev is not None:
                assert prev < k
            prev = k
            seen += 1
            it.next()
        assert seen == len(INT_KEYS)

    def test_real_suffix_disambiguates_prefix_match(self):
        # Stored "app" truncated; query "apple" shares the prefix. With
        # real suffix bits the iterator can often step past it.
        keys = [b"app", b"apply", b"banana"]
        f = surf_real(keys, real_bits=8)
        it, fp = f.move_to_next(b"appz")
        assert it.valid
        assert not fp or it.key() <= b"appz"


class TestRangeEndpoints:
    def test_exclusive_high_excludes_endpoint(self):
        keys = [b"b", b"d", b"f"]
        f = surf_base(keys)
        assert not f.lookup_range(b"c", b"d")  # [c, d) holds nothing
        assert f.lookup_range(b"c", b"d", inclusive_high=True)

    def test_empty_and_inverted_ranges(self):
        f = surf_base(INT_KEYS)
        k = INT_KEYS[100]
        assert not f.lookup_range(k, k)  # [k, k) is empty
        assert f.lookup_range(k, k, inclusive_high=True)
        assert not f.lookup_range(INT_KEYS[200], INT_KEYS[100])
        assert f.count(k, k) == 0
        assert f.count(INT_KEYS[200], INT_KEYS[100]) == 0

    def test_open_range_past_largest(self):
        # 0xff shares no prefix with any email key, so the filter can
        # prove the range past the largest key is empty.
        f = surf_base(EMAIL_KEYS)
        assert not f.lookup_range(b"\xff", b"\xff\xff")


class TestCount:
    @pytest.mark.parametrize("keys", [INT_KEYS, EMAIL_KEYS], ids=["int", "email"])
    def test_never_undercounts_overcount_bounded(self, keys):
        f = surf_base(keys)
        rng = random.Random(85)
        for _ in range(400):
            i, j = sorted(rng.sample(range(len(keys)), 2))
            low, high = keys[i], keys[j]
            true_count = j - i  # [low, high) over distinct sorted keys
            got = f.count(low, high)
            assert got >= true_count, "count under-counted (false negative)"
            assert got <= true_count + 2, "over-count beyond truncation bound"

    def test_count_on_absent_bounds(self):
        f = surf_base(EMAIL_KEYS)
        rng = random.Random(86)
        import bisect

        for _ in range(300):
            low = perturb(rng, rng.choice(EMAIL_KEYS))
            high = perturb(rng, rng.choice(EMAIL_KEYS))
            if high <= low:
                continue
            lo_i = bisect.bisect_left(EMAIL_KEYS, low)
            hi_i = bisect.bisect_left(EMAIL_KEYS, high)
            assert f.count(low, high) >= hi_i - lo_i


class TestTombstones:
    def test_deleted_key_turns_negative(self):
        f = surf_base(EMAIL_KEYS)
        victim = EMAIL_KEYS[37]
        assert f.lookup(victim)
        assert f.delete(victim)
        assert not f.lookup(victim)
        # Unrelated keys stay positive.
        assert f.lookup(EMAIL_KEYS[36])
        assert f.lookup(EMAIL_KEYS[38])

    def test_provably_absent_delete_rejected(self):
        f = surf_base(EMAIL_KEYS)
        assert not f.delete(b"\x00definitely-not-stored")


@pytest.mark.parametrize(("name", "make"), VARIANTS, ids=[v[0] for v in VARIANTS])
class TestScalarBatchParity:
    """``lookup`` and ``lookup_many`` answer alike on a built filter and
    on both load paths (``copy=True`` and the zero-copy view an SSTable
    serves)."""

    def test_lookup_equals_lookup_many(self, name, make):
        rng = random.Random(83)
        edge = [b"", b"\x00", b"\x00\xff", b"\xff", b"\xff\x00", b"\xff\xff"]
        for keys in (INT_KEYS, EMAIL_KEYS, edge, [b"lonely"], [b""], ZERO_FF_KEYS,
                     FF_AFTER_PREFIX_KEYS):
            built = make(keys)
            deleted = keys[len(keys) // 2]
            built.delete(deleted)
            blob = built.to_bytes()
            probes = keys[::5] + [perturb(rng, k) for k in keys[::2] if k] + [b""]
            for f in (built, SuRF.from_bytes(blob), SuRF.from_bytes(blob, copy=False)):
                assert [f.lookup(q) for q in probes] == f.lookup_many(probes)
                assert f.lookup_many(keys) == [k != deleted for k in keys]


class TestLookupManyAllocation:
    def test_one_key_batch_copies_no_suffix_column(self):
        """A batch reads the suffix words of its hits, not a converted
        copy of the table's whole column."""
        keys = sorted(random_u64_keys(65_536, seed=84))
        view = SuRF.from_bytes(
            surf_mixed(keys, hash_bits=4, real_bits=4).to_bytes(), copy=False
        )
        probe = [keys[123]]
        assert view.lookup_many(probe) == [True]  # warm-up
        tracemalloc.start()
        try:
            assert view.lookup_many(probe) == [True]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
