"""Tests for the Fast Succinct Trie (Chapter 3).

Verifies the LOUDS-DS encoding against the paper's worked example,
point/range correctness against brute force across dense/sparse cutoff
settings, count_range, and the ~10 bits-per-node space claim.
"""

import bisect
import itertools
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.counters import COUNTERS
from repro.fst import FST, build_trie
from repro.fst.builder import PREFIX_LABEL
from repro.fst.serialize import fst_from_bytes
from repro.surf import SuRF, surf_base, surf_mixed, surf_real
from repro.surf.surf import _real_suffix_bits, suffix_at
from repro.workloads import email_keys, random_u64_keys

PAPER_KEYS = [b"f", b"far", b"fas", b"fast", b"fat", b"s", b"top", b"toy", b"trie", b"trip", b"try"]


class TestBuilder:
    def test_paper_example_shape(self):
        """The Figure 3.2 trie: keys f, far, fas, fast, fat, s, top,
        toy, trie, trip, try."""
        trie = build_trie(sorted(PAPER_KEYS))
        assert trie.n_keys == 11
        # Level 0 has one node with labels f, s, t.
        assert trie.levels[0].labels.tolist() == [ord("f"), ord("s"), ord("t")]
        assert trie.levels[0].has_child.tolist() == [True, False, True]
        # Level 1: node under f (prefix-key 'f' + a), node under t (o, r).
        assert trie.levels[1].labels.tolist() == [
            PREFIX_LABEL,
            ord("a"),
            ord("o"),
            ord("r"),
        ]
        assert trie.levels[1].n_nodes == 2
        # Level 2: node under fa (r, s, t), node under to (p, y),
        # node under tr (i, y).
        assert trie.levels[2].labels.tolist() == [
            ord("r"),
            ord("s"),
            ord("t"),
            ord("p"),
            ord("y"),
            ord("i"),
            ord("y"),
        ]
        assert trie.levels[2].n_nodes == 3

    def test_truncate_mode_one_extra_byte(self):
        """SuRF-Base keeps shared prefix + 1 byte (Figure 4.1)."""
        trie = build_trie([b"SIGAI", b"SIGMOD", b"SIGOPS"], truncate=True)
        # Shared prefix SIG (3 levels of single branches) + 1 level of
        # distinguishing bytes A, M, O.
        assert trie.height == 4
        assert trie.levels[3].labels.tolist() == [ord("A"), ord("M"), ord("O")]
        # Remaining suffixes after the stored distinguishing byte
        # (SuRF-Real would keep the first bytes of these: I, O, P).
        assert sorted(trie.suffixes) == [b"I", b"OD", b"PS"]

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            build_trie([b"b", b"a"])
        with pytest.raises(ValueError):
            build_trie([b"a", b"a"])

    def test_empty_key_is_prefix_of_all(self):
        trie = build_trie([b"", b"a"])
        assert trie.levels[0].labels.tolist() == [PREFIX_LABEL, ord("a")]


def make_fst(keys, **kwargs):
    pairs = sorted(keys)
    return FST(pairs, list(range(len(pairs))), **kwargs), pairs


CUTOFFS = [None, 0, 1, 2, 100]  # None = ratio rule; others force levels


class TestPointQueries:
    @pytest.mark.parametrize("dense_levels", CUTOFFS)
    def test_paper_keys(self, dense_levels):
        fst, pairs = make_fst(PAPER_KEYS, dense_levels=dense_levels)
        for i, k in enumerate(pairs):
            assert fst.get(k) == i, f"key {k!r} dense={dense_levels}"
        for miss in (b"", b"fa", b"fase", b"z", b"tripp", b"f1", b"to"):
            assert fst.get(miss) is None

    @pytest.mark.parametrize("dense_levels", CUTOFFS)
    def test_random_ints(self, dense_levels):
        keys = random_u64_keys(1500, seed=31)
        fst, pairs = make_fst(keys, dense_levels=dense_levels)
        for i, k in enumerate(pairs[::13]):
            assert fst.get(k) == pairs.index(k) if False else fst.get(k) is not None
        for i, k in enumerate(pairs):
            assert fst.get(k) == i
        assert fst.get(b"\x00" * 8) is None or pairs[0] == b"\x00" * 8

    @pytest.mark.parametrize("dense_levels", [None, 2])
    def test_email_keys(self, dense_levels):
        keys = email_keys(800, seed=32)
        fst, pairs = make_fst(keys, dense_levels=dense_levels)
        for i, k in enumerate(pairs):
            assert fst.get(k) == i
        for k in pairs[:50]:
            assert fst.get(k + b"x") is None
            assert fst.get(k[:-1]) is None or k[:-1] in pairs

    @pytest.mark.parametrize("search", ["vector", "binary", "linear"])
    def test_label_search_strategies_agree(self, search):
        keys = email_keys(300, seed=33)
        fst, pairs = make_fst(keys, label_search=search)
        for i, k in enumerate(pairs):
            assert fst.get(k) == i

    def test_empty_fst(self):
        fst = FST([], [])
        assert fst.get(b"any") is None
        assert len(fst) == 0
        assert list(fst.items()) == []

    def test_single_key(self):
        fst = FST([b"lonely"], [42])
        assert fst.get(b"lonely") == 42
        assert fst.get(b"lonel") is None
        assert fst.get(b"lonelyx") is None

    @pytest.mark.parametrize("dense_levels", [None, 0])
    def test_lone_empty_key_is_not_a_lone_ff(self, dense_levels):
        """{b""} and {b"\xff"}: a sparse node of one 0xFF label is a
        real 0xFF, so the lone empty key gets a dense root."""
        for keys, other in (([b""], b"\xff"), ([b"\xff"], b"")):
            built = FST(keys, dense_levels=dense_levels)
            for fst in (built, fst_from_bytes(built.to_bytes()),
                        fst_from_bytes(built.to_bytes(), copy=False)):
                assert fst.get(keys[0]) == 0 and fst.get(other) is None
                assert list(fst.items()) == [(keys[0], 0)]
                assert fst.seek(other).valid == (other < keys[0])
            surf = surf_real(keys, dense_levels=dense_levels)
            assert surf.lookup(keys[0]) and not surf.lookup(other)
            assert surf.count(b"", b"\xff\xff") == 1


class TestIteration:
    @pytest.mark.parametrize("dense_levels", CUTOFFS)
    def test_items_in_order(self, dense_levels):
        fst, pairs = make_fst(PAPER_KEYS, dense_levels=dense_levels)
        assert [k for k, _ in fst.items()] == pairs
        assert [v for _, v in fst.items()] == list(range(len(pairs)))

    @pytest.mark.parametrize("dense_levels", [None, 0, 2])
    def test_items_random(self, dense_levels):
        keys = random_u64_keys(700, seed=34)
        fst, pairs = make_fst(keys, dense_levels=dense_levels)
        assert [k for k, _ in fst.items()] == pairs

    @pytest.mark.parametrize("dense_levels", [None, 0, 2])
    def test_lower_bound_matches_bisect(self, dense_levels):
        keys = email_keys(400, seed=35)
        fst, pairs = make_fst(keys, dense_levels=dense_levels)
        probes = pairs[::23] + [p + b"\x00" for p in pairs[::41]] + [b"", b"\xff"]
        for probe in probes:
            idx = bisect.bisect_left(pairs, probe)
            expected = pairs[idx : idx + 5]
            it = fst.seek(probe)
            if it.valid and it.fp_flag and it.key() != probe:
                it.next()
            got = []
            while it.valid and len(got) < 5:
                got.append(it.key())
                it.next()
            assert got == expected, f"probe {probe!r}"

    def test_seek_prefix_sets_fp_flag(self):
        fst, _ = make_fst(PAPER_KEYS)
        it = fst.seek(b"fastener")  # stored 'fast' is a strict prefix
        assert it.valid and it.fp_flag
        assert it.key() == b"fast"

    def test_seek_past_everything(self):
        fst, _ = make_fst(PAPER_KEYS)
        it = fst.seek(b"zzz")
        assert not it.valid

    def test_seek_exact(self):
        fst, pairs = make_fst(PAPER_KEYS)
        it = fst.seek(b"top")
        assert it.valid and not it.fp_flag
        assert it.key() == b"top"
        assert it.value() == pairs.index(b"top")


#: Every key of up to six bytes over {0x00, 0x01, 'a', 0xff}, the empty
#: key included: every inner node holds a prefix key, and a bound that
#: goes on with 0x00 lands on its node's slot 0.
PREFIX_HEAVY = sorted(
    bytes(p) for n in range(7) for p in itertools.product(b"\x00\x01a\xff", repeat=n)
)
PREFIX_HEAVY_PROBES = sorted(
    set(PREFIX_HEAVY[::401] + [k + b"\x00" for k in PREFIX_HEAVY[::503]])
    | {b"", b"\x00", b"\x00\x00", b"a", b"a\x00", b"\xff" * 7}
)


class TestCountRange:
    @pytest.mark.parametrize("dense_levels", [None, 0, 1, 2])
    def test_count_matches_bisect(self, dense_levels):
        for keys in (email_keys(500, seed=36), random_u64_keys(500, seed=36)):
            fst, pairs = make_fst(keys, dense_levels=dense_levels)
            probes = pairs[::29] + [b"", b"com", b"org", b"\xff"]
            for lo in probes:
                for hi in probes:
                    expected = bisect.bisect_left(pairs, hi) - bisect.bisect_left(
                        pairs, lo
                    )
                    expected = max(0, expected) if lo < hi else 0
                    assert fst.count_range(lo, hi) == expected, (lo, hi)

    @pytest.mark.parametrize("dense_levels", [None, 0, 1, 100])
    def test_prefix_heavy_count_matches_bisect(self, dense_levels):
        fst, pairs = make_fst(PREFIX_HEAVY, dense_levels=dense_levels)
        if dense_levels is None:
            assert fst.dense_height == 1  # the ratio rule's cut
        for lo in PREFIX_HEAVY_PROBES:
            for hi in PREFIX_HEAVY_PROBES:
                expected = bisect.bisect_left(pairs, hi) - bisect.bisect_left(pairs, lo)
                expected = expected if lo < hi else 0
                assert fst.count_range(lo, hi) == expected, (lo, hi)

    @pytest.mark.parametrize("dense_levels", [None, 0, 1, 100])
    def test_surf_count_never_under_counts(self, dense_levels):
        pairs = PREFIX_HEAVY
        for surf in (surf_base(pairs, dense_levels=dense_levels),
                     surf_real(pairs, dense_levels=dense_levels)):
            for lo in PREFIX_HEAVY_PROBES:
                for hi in PREFIX_HEAVY_PROBES:
                    true = bisect.bisect_left(pairs, hi) - bisect.bisect_left(pairs, lo)
                    true = true if lo < hi else 0
                    assert true <= surf.count(lo, hi) <= true + 2, (lo, hi)

    @pytest.mark.parametrize("dense_levels", [None, 0, 1, 100])
    @pytest.mark.parametrize("family", ["zero_ff", "zero_ff_random", "ff_after_prefix"])
    def test_ff_heavy_count_matches_bisect(self, family, dense_levels):
        pairs = sorted(FAMILIES[family])
        probes = near_misses(pairs)
        fst, _ = make_fst(pairs, dense_levels=dense_levels)
        surfs = [make(pairs, dense_levels=dense_levels) for make in (surf_base, surf_real)]
        for lo in probes:
            for hi in probes:
                true = bisect.bisect_left(pairs, hi) - bisect.bisect_left(pairs, lo)
                true = true if lo < hi else 0
                assert fst.count_range(lo, hi) == true, (lo, hi)
                for surf in surfs:
                    assert true <= surf.count(lo, hi) <= true + 2, (lo, hi)

    def test_dense_prefix_key_below_a_zero_byte_bound(self):
        """A dense node's prefix key sorts below a bound that goes on
        with byte 0x00 through that node."""
        for dense_levels in (0, 1, 100):
            fst, _ = make_fst([b"a", b"a\x00"], dense_levels=dense_levels)
            assert fst.count_range(b"a", b"a\x00") == 1
            assert fst.count_range(b"", b"a\x00") == 1
        surf = surf_base(PREFIX_HEAVY)
        assert surf.fst.dense_height == 1
        assert surf.count(b"", b"\x00") >= 1  # the stored empty key

    def test_count_paper_keys(self):
        fst, pairs = make_fst(PAPER_KEYS)
        assert fst.count_range(b"f", b"g") == 5  # f, far, fas, fast, fat
        assert fst.count_range(b"a", b"z") == len(pairs)
        assert fst.count_range(b"top", b"toz") == 2  # top, toy
        assert fst.count_range(b"x", b"y") == 0


class TestSpace:
    def test_ten_bits_per_node_sparse(self):
        """LOUDS-Sparse costs 10n bits + small rank/select overhead."""
        keys = random_u64_keys(3000, seed=37)
        fst, _ = make_fst(keys, dense_levels=0)
        nodes = fst.sparse_node_count
        labels = len(fst.s_labels)
        assert 10 * labels <= fst.size_bits() <= 12 * labels
        assert nodes > 0

    def test_dense_levels_help_random_ints(self):
        """Nodes with fanout > 51 encode smaller densely (Section 3.7.4).

        At our scale only the root of a random-integer trie is
        saturated (fanout 256), so encoding exactly that level densely
        must shrink the trie; at the paper's 50M-key scale this extends
        to the top several levels.
        """
        keys = random_u64_keys(3000, seed=38)
        sparse_only, _ = make_fst(keys, dense_levels=0)
        with_dense, _ = make_fst(keys, dense_levels=1)
        assert with_dense.size_bits() < sparse_only.size_bits()

    def test_fst_smaller_than_compact_art(self):
        """FST's raison d'etre: smaller than pointer-based compact tries."""
        from repro.compact import CompactART

        keys = sorted(random_u64_keys(2000, seed=39))
        pairs = [(k, i) for i, k in enumerate(keys)]
        fst = FST(keys, list(range(len(keys))))
        art = CompactART(pairs)
        # Exclude values from both (CompactART counts 8B/leaf pointers).
        assert fst.memory_bytes() < art.memory_bytes()

    def test_ratio_rule_keeps_dense_small(self):
        keys = email_keys(2000, seed=40)
        fst, _ = make_fst(keys)  # default R=64
        assert 0 < fst.dense_height < fst.height


class TestTruncateMode:
    def test_truncated_lookup_may_false_positive(self):
        fst = FST(
            sorted([b"SIGAI", b"SIGMOD", b"SIGOPS"]),
            [0, 1, 2],
            truncate=True,
        )
        # Stored prefixes are SIGA/SIGM/SIGO: SIGMETRICS hits SIGM.
        assert fst.get(b"SIGMETRICS") is not None
        assert fst.get(b"SIGMOD") is not None
        assert fst.get(b"PODS") is None

    def test_truncated_much_smaller(self):
        keys = sorted(email_keys(2000, seed=41))
        full = FST(keys, list(range(len(keys))))
        trunc = FST(keys, list(range(len(keys))), truncate=True)
        assert trunc.size_bits() < full.size_bits()


#: Keys of up to six bytes over {0x00, 0x01, 0xff} (the builder
#: tests' ``zero-ff`` family): real 0xFF labels in every slot.
_rng = random.Random(5)
ZERO_FF = sorted({bytes(_rng.choices(b"\x00\xff\x01", k=_rng.randint(0, 6))) for _ in range(60)})
#: Keys ending in 0xFF next to prefix keys: nodes that hold `$` (0xFF
#: in their first slot) and a real 0xFF, and nodes of one real 0xFF.
FF_AFTER_PREFIX = sorted(
    {stem + tail for stem in (b"", b"a", b"ab", b"\xff", b"a\xff")
     for tail in (b"", b"\x00", b"\xff", b"\xff\xff")}
    | {b"q\xff", b"z\xff\xff"}
)

#: Key families that take every branch of the point walk.
FAMILIES = {
    "empty_key": [b"", b"a", b"ab", b"b", b"ba"],
    "prefix_chain": [b"k" * n for n in range(1, 40)],
    "zero_ff": [b"\x00", b"\x00\x00", b"\x00\xff", b"\x00\xff\x00", b"\xff",
                b"\xff\x00", b"\xff\xff", b"\xff\xff\xff"],
    "single": [b"lonely"],
    "zero_ff_random": ZERO_FF,
    "ff_after_prefix": FF_AFTER_PREFIX,
    "u64": random_u64_keys(300, seed=41),
    "email": email_keys(150, seed=42),
}
#: (sparse rank block, select sampling rate) settings of the Section
#: 3.6 space/time dial.
DIALS = [(512, 64), (64, 64), (64, 8), (64, 1)]
#: Trie layouts; a dense-only trie has no sparse part for the dial to set.
LAYOUTS = [(layout, dial) for layout in ("ratio", "sparse_only") for dial in DIALS]
LAYOUTS.append(("dense_only", DIALS[0]))


def near_misses(keys):
    """Stored keys plus absent neighbours: extensions by 0x00 / 0xFF,
    truncations, a flipped first byte, and the empty key."""
    out = set(keys) | {b""}
    for k in keys[::3]:
        out |= {k + b"\x00", k + b"\xff", k[:-1], bytes([k[0] ^ 1]) + k[1:] if k else b"\x01"}
    return sorted(out)


def sorted_list_get(pairs, key):
    i = bisect.bisect_left(pairs, key)
    return i if i < len(pairs) and pairs[i] == key else None


def truncated_keys(pairs):
    """Each key cut one byte past its longest common prefix with either
    neighbour (whole, if it is a prefix of the next key)."""
    lcp = [len(os.path.commonprefix([a, b])) for a, b in zip(pairs, pairs[1:])]
    return [
        k[: max([0] + lcp[max(i - 1, 0) : i + 1]) + 1] for i, k in enumerate(pairs)
    ]


def truncated_get(stored, key):
    """A truncated trie's answer: the entry whose stored prefix ``key``
    extends; an entry that is a prefix of the next one only on an exact
    match (it is that node's prefix key)."""
    i = bisect.bisect_right(stored, key) - 1
    if i < 0 or not key.startswith(stored[i]):
        return None
    leaf = i + 1 == len(stored) or not stored[i + 1].startswith(stored[i])
    return i if leaf or key == stored[i] else None


class TestScalarBatchParity:
    """The point walk and a sorted-list oracle agree on every key
    family, label-search mode, rank/select dial and load path (built,
    ``copy=True``, zero-copy ``copy=False``)."""

    @pytest.mark.parametrize(
        ("layout", "dial"), LAYOUTS, ids=[f"{lay}-{b}-{r}" for lay, (b, r) in LAYOUTS]
    )
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_scalar_equals_batch_equals_oracle(self, family, layout, dial):
        pairs = sorted(FAMILIES[family])
        queries = near_misses(pairs)
        dense_levels = {"ratio": None, "sparse_only": 0, "dense_only": 100}[layout]
        block, rate = dial
        stored = truncated_keys(pairs)
        for truncate in (False, True):
            if truncate:
                want = [truncated_get(stored, q) for q in queries]
            else:
                want = [sorted_list_get(pairs, q) for q in queries]
            for mode in ("vector", "binary", "linear"):
                built = FST(pairs, list(range(len(pairs))), dense_levels=dense_levels,
                            truncate=truncate, label_search=mode,
                            sparse_rank_block=block, select_sample=rate)
                if layout == "dense_only":
                    assert built.dense_height == built.height
                if layout == "sparse_only":
                    assert built.dense_height == 0
                blob = built.to_bytes()
                for copy in (True, False):
                    loaded = fst_from_bytes(blob, copy=copy)
                    loaded._label_search = mode
                    loaded._finish(block, rate)
                    for fst in (built, loaded):
                        for i, k in enumerate(pairs):
                            assert fst.get(k) == i
                        assert [fst.get(q) for q in queries] == want


def surf_seek_oracle(pairs, stored, query, real_bits):
    """Where ``move_to_next(query)`` lands: (index, fp_flag), or None.

    A stored leaf that is a proper prefix of ``query`` is the answer
    with the fp flag, unless its real suffix bits prove the full key is
    below ``query``; otherwise it is the first stored entry >= query."""
    j = bisect.bisect_right(stored, query) - 1
    if j >= 0 and stored[j] != query and query.startswith(stored[j]):
        leaf = j + 1 == len(stored) or not stored[j + 1].startswith(stored[j])
        if leaf:
            cut = len(stored[j])
            if real_bits and _real_suffix_bits(query[cut:], real_bits) > _real_suffix_bits(
                pairs[j][cut:], real_bits
            ):
                return (j + 1, False) if j + 1 < len(stored) else None
            return j, True
    k = bisect.bisect_left(stored, query)
    return (k, False) if k < len(stored) else None


class TestSeekParity:
    """``FST.seek`` and ``SuRF.move_to_next`` against the bisect oracle
    on every key family (the 0xFF-heavy ones included), at the three
    layouts, built and on both load paths; the iterator's leaf rank
    reads the entry's value / real suffix."""

    @pytest.mark.parametrize("dense_levels", [None, 0, 100])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_fst_seek_matches_bisect(self, family, dense_levels):
        pairs = sorted(FAMILIES[family])
        if dense_levels == 100:
            pairs = pairs[:100]  # the dense iterator scans 256 slots a node
        built = FST(pairs, list(range(len(pairs))), dense_levels=dense_levels)
        blob = built.to_bytes()
        for fst in (built, fst_from_bytes(blob), fst_from_bytes(blob, copy=False)):
            for q in near_misses(pairs):
                it = fst.seek(q)
                if it.valid and it.fp_flag and it.key() != q:
                    it.next()
                k = bisect.bisect_left(pairs, q)
                for want in range(k, min(k + 3, len(pairs))):
                    assert it.valid and it.key() == pairs[want], (q, want)
                    assert it.value() == fst.values[it.leaf_rank()] == want
                    it.next()
                assert it.valid == (k + 3 < len(pairs))

    @pytest.mark.parametrize("dense_levels", [None, 0, 100])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_surf_move_to_next_matches_bisect(self, family, dense_levels):
        pairs = sorted(FAMILIES[family])
        if dense_levels == 100:
            pairs = pairs[:100]
        stored = truncated_keys(pairs)
        for real_bits, make in ((0, surf_base), (4, surf_real),
                                (7, lambda ks, **kw: surf_mixed(ks, 5, 7, **kw))):
            built = make(pairs, dense_levels=dense_levels)
            blob = built.to_bytes()
            for surf in (built, SuRF.from_bytes(blob), SuRF.from_bytes(blob, copy=False)):
                for q in near_misses(pairs):
                    want = surf_seek_oracle(pairs, stored, q, real_bits)
                    it, fp = surf.move_to_next(q)
                    if want is None:
                        assert not it.valid, q
                        continue
                    k, want_fp = want
                    assert it.valid and it.key() == stored[k] and fp == want_fp, q
                    if real_bits:
                        cut = len(stored[k])
                        stored_bits = suffix_at(surf._real_view, it.leaf_rank(), real_bits)
                        assert stored_bits == _real_suffix_bits(pairs[k][cut:], real_bits)
                    it.next()
                    assert it.valid == (k + 1 < len(pairs))
                    if it.valid:
                        assert it.key() == stored[k + 1]


class TestAccessCounts:
    #: (node_visits, cache_lines) of the point walk on the query set
    #: below; the access model must not drift with the walk's
    #: implementation.
    EXPECTED = {
        ("email", None): (6323, 12646),
        ("email", 0): (6323, 12646),
        ("u64", None): (5417, 10834),
        ("u64", 0): (5417, 21004),
    }

    @pytest.mark.parametrize(("family", "dense_levels"), sorted(EXPECTED, key=str))
    def test_exact_counts(self, family, dense_levels):
        if family == "email":
            keys = sorted(email_keys(400, seed=7))
        else:
            keys = sorted(random_u64_keys(1000, seed=7))
        queries = (keys[::3] + [k + b"!" for k in keys[::7]]
                   + [k[:-1] for k in keys[::5]] + [b""])
        fst = FST(keys, list(range(len(keys))), dense_levels=dense_levels)
        expected = self.EXPECTED[(family, dense_levels)]
        COUNTERS.start()
        try:
            for q in queries:
                fst.get(q)
        finally:
            scalar = COUNTERS.stop()
        assert (scalar.node_visits, scalar.cache_lines) == expected


class TestFstProperties:
    @given(
        keys=st.lists(
            st.binary(min_size=1, max_size=9), min_size=1, max_size=60, unique=True
        ),
        dense=st.sampled_from([None, 0, 1, 3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_and_order(self, keys, dense):
        pairs = sorted(keys)
        fst = FST(pairs, list(range(len(pairs))), dense_levels=dense)
        for i, k in enumerate(pairs):
            assert fst.get(k) == i
        assert [k for k, _ in fst.items()] == pairs

    @given(
        keys=st.lists(
            st.binary(min_size=1, max_size=8), min_size=2, max_size=40, unique=True
        ),
        probe=st.binary(min_size=0, max_size=9),
    )
    @settings(max_examples=60, deadline=None)
    def test_seek_property(self, keys, probe):
        pairs = sorted(keys)
        fst = FST(pairs, list(range(len(pairs))))
        it = fst.seek(probe)
        if it.valid and it.fp_flag and it.key() != probe:
            it.next()
        idx = bisect.bisect_left(pairs, probe)
        if idx == len(pairs):
            assert not it.valid
        else:
            assert it.valid and it.key() == pairs[idx]

    @given(
        keys=st.lists(
            st.binary(min_size=1, max_size=7), min_size=1, max_size=40, unique=True
        ),
        lo=st.binary(min_size=0, max_size=8),
        hi=st.binary(min_size=0, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_count_property(self, keys, lo, hi):
        pairs = sorted(keys)
        fst = FST(pairs, list(range(len(pairs))))
        expected = (
            bisect.bisect_left(pairs, hi) - bisect.bisect_left(pairs, lo)
            if lo < hi
            else 0
        )
        assert fst.count_range(lo, hi) == expected
