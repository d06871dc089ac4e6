"""Tests for the Fast Succinct Trie (Chapter 3).

Verifies the LOUDS-DS encoding against the paper's worked example,
point/range correctness against brute force across dense/sparse cutoff
settings, count_range, and the ~10 bits-per-node space claim.
"""

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fst import FST, build_trie
from repro.fst.builder import PREFIX_LABEL
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


class TestCountRange:
    @pytest.mark.parametrize("dense_levels", [None, 0, 2])
    def test_count_matches_bisect(self, dense_levels):
        keys = email_keys(500, seed=36)
        fst, pairs = make_fst(keys, dense_levels=dense_levels)
        probes = pairs[::29] + [b"", b"com", b"org", b"\xff"]
        for lo in probes:
            for hi in probes:
                expected = bisect.bisect_left(pairs, hi) - bisect.bisect_left(
                    pairs, lo
                )
                expected = max(0, expected) if lo < hi else 0
                assert fst.count_range(lo, hi) == expected, (lo, hi)

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
