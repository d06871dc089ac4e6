"""Unit and property tests for bit vectors as word arrays and the rank,
select and next-one functions over them.

Every query is checked against a bit-by-bit oracle over the Python list
of bits the words were packed from.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.succinct import (
    check_padding,
    int_view,
    next_one,
    pack_bools,
    rank1,
    rank_lut,
    select1,
    select_in_word,
    select_samples,
)


class Bits:
    """A packed bit vector with its rank LUT and select samples, plus
    the list of bits it came from (the oracle)."""

    def __init__(self, bits, block_bits=64, rate=64):
        self.bits = [int(b) for b in bits]
        self.n = len(self.bits)
        self.array = pack_bools(np.array(self.bits, dtype=np.uint8))
        self.words = int_view(self.array)
        self.lut_array = rank_lut(self.array, self.n, block_bits)
        self.lut = int_view(self.lut_array)
        self.samples_array = select_samples(self.array, self.n, rate)
        self.block_bits = block_bits
        self.rate = rate

    @property
    def total(self):
        return self.lut[-1]

    def rank1(self, i):
        return rank1(self.words, self.n, self.lut, self.block_bits, i)

    def select1(self, r):
        return select1(self.words, self.lut, self.block_bits,
                       int_view(self.samples_array), self.rate, r)


def complement(bits):
    """The bits flipped: ``select1`` over it is select0 over ``bits``."""
    return [1 - b for b in bits]


def naive_rank1(bits, i):
    return sum(bits[: i + 1])


def naive_select1(bits, r):
    return [i for i, b in enumerate(bits) if b][r - 1]


def naive_next_one(bits, pos, end):
    return next((i for i in range(pos, end) if bits[i]), end)


class TestWords:
    def test_empty(self):
        bv = Bits([])
        assert len(bv.array) == 0
        assert bv.total == 0

    def test_pack_roundtrip(self):
        bits = [1, 0, 1, 1, 0, 0, 1]
        bv = Bits(bits)
        assert [(bv.words[i >> 6] >> (i & 63)) & 1 for i in range(7)] == bits

    def test_word_boundary(self):
        bits = [1] * 64 + [0] * 64 + [1, 1]
        bv = Bits(bits)
        assert [bv.rank1(i) for i in (63, 64, 128)] == [64, 64, 65]
        assert bv.total == 66

    def test_zeros(self):
        bv = Bits([0] * 100)
        assert len(bv.array) == 2
        assert bv.total == 0

    def test_in_block_counts_single_word(self):
        """Ones in [start, stop) inside one word are a rank difference."""
        bits = [1, 0, 1, 1, 0, 1]
        bv = Bits(bits)
        for start, stop in ((0, 6), (1, 4), (3, 3)):
            got = bv.rank1(stop - 1) - (bv.rank1(start - 1) if start else 0)
            assert got == sum(bits[start:stop])

    @pytest.mark.parametrize("block_bits", [64, 512])
    def test_in_block_counts_multi_word(self, block_bits):
        bits = ([1, 0] * 100)[:193]
        bv = Bits(bits, block_bits=block_bits)
        assert bv.rank1(192) == sum(bits)
        assert bv.rank1(129) - bv.rank1(59) == sum(bits[60:130])

    def test_words_are_whole(self):
        """A vector is charged whole words: 65 bits take two."""
        assert len(pack_bools(np.ones(65, dtype=np.uint8))) == 2

    def test_pack_bools_matches_per_bit_packing(self):
        bits = [1, 0, 0, 1] * 33
        words = [0] * ((len(bits) + 63) // 64)
        for i, b in enumerate(bits):
            words[i >> 6] |= b << (i & 63)
        assert pack_bools(np.array(bits)).tolist() == words

    @given(st.lists(st.integers(0, 1), min_size=0, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_packed_padding_is_clean(self, bits):
        """Packing fills whole words and leaves every bit past the
        length zero, so a packed vector passes the reader's check."""
        array = pack_bools(np.array(bits, dtype=np.uint8))
        assert len(array) == (len(bits) + 63) // 64
        check_padding(array, len(bits))

    def test_int_view_items_are_python_ints(self):
        view = int_view(np.array([1, (1 << 64) - 1], dtype=np.uint64))
        assert [type(x) for x in view] == [int, int]
        assert view[1] == (1 << 64) - 1

    def test_int_view_of_unaligned_blob_slice(self):
        """A word array read out of a blob at an odd byte offset, as
        the deserializer does, still indexes to its words."""
        words = [0x0123456789ABCDEF, 5, (1 << 63) | 1]
        blob = b"\x00\x00\x00" + np.array(words, dtype=np.uint64).tobytes()
        array = np.frombuffer(blob, dtype=np.uint64, count=3, offset=3)
        assert list(int_view(array)) == words


class TestRank:
    @pytest.mark.parametrize("block_bits", [64, 128, 512])
    def test_rank_matches_naive(self, block_bits):
        rng = np.random.default_rng(7)
        bits = list(rng.integers(0, 2, size=1500))
        bv = Bits(bits, block_bits=block_bits)
        for i in range(0, 1500, 13):
            assert bv.rank1(i) == naive_rank1(bits, i)
            assert i + 1 - bv.rank1(i) == bits[: i + 1].count(0)

    def test_rank_last_position(self):
        bv = Bits([1, 1, 0, 1])
        assert bv.rank1(3) == 3
        assert bv.total == 3

    def test_empty_vector(self):
        assert Bits([]).lut_array.tolist() == [0]

    def test_lut_size_accounting(self):
        words = pack_bools(np.ones(1024, dtype=np.uint8))
        assert len(rank_lut(words, 1024, 512)) - 1 == 2
        assert len(rank_lut(words, 1024, 64)) - 1 == 16

    def test_block_must_be_whole_words(self):
        with pytest.raises(ValueError, match="multiple of 64"):
            rank_lut(pack_bools(np.ones(10, dtype=np.uint8)), 10, 96)

    @pytest.mark.parametrize("block_bits", [64, 512])
    def test_tables_stored_at_the_charged_width(self, block_bits):
        """The LUT is stored at the 32 bits per entry it is charged."""
        bits = np.random.default_rng(3).random(3000) < 0.3
        assert rank_lut(pack_bools(bits), 3000, block_bits).dtype == np.uint32

    def test_tables_read_only_the_first_n_bits(self):
        """A clean trailing word, which the reader accepts, changes
        neither table."""
        bits = np.random.default_rng(5).random(130) < 0.5
        array = pack_bools(bits)
        longer = np.append(array, np.uint64(0))
        check_padding(longer, 130)
        assert rank_lut(longer, 130, 64).tolist() == rank_lut(array, 130, 64).tolist()
        assert select_samples(longer, 130, 4).tolist() == select_samples(array, 130, 4).tolist()


class TestSelect:
    @pytest.mark.parametrize("block_bits", [64, 512])
    def test_select1_matches_naive(self, block_bits):
        rng = np.random.default_rng(11)
        bits = list(rng.integers(0, 2, size=2000))
        bv = Bits(bits, block_bits=block_bits, rate=64)
        for r in range(1, sum(bits) + 1, 7):
            assert bv.select1(r) == naive_select1(bits, r)

    def test_select0(self):
        """select0 is select1 over the complement."""
        bv = Bits(complement([1, 0, 1, 0, 0, 1]))
        assert [bv.select1(r) for r in (1, 2, 3)] == [1, 3, 4]

    def test_select_out_of_range(self):
        bv = Bits([1, 0, 1])
        with pytest.raises(IndexError):
            bv.select1(0)
        with pytest.raises(IndexError):
            bv.select1(3)

    def test_select_across_words(self):
        bits = [0] * 200 + [1] + [0] * 200 + [1]
        bv = Bits(bits, rate=1)
        assert bv.select1(1) == 200
        assert bv.select1(2) == 401

    @pytest.mark.parametrize("rate", [1, 2, 16, 64])
    def test_sample_rates(self, rate):
        bv = Bits([1] * 300, rate=rate)
        for r in (1, 150, 300):
            assert bv.select1(r) == r - 1

    def test_sparse_ones_span_many_blocks(self):
        """Between two samples lie many rank blocks with no ones: the
        bisect over the LUT, not a block scan, finds the right one."""
        bits = ([1] + [0] * 999) * 12
        bv = Bits(bits, block_bits=64, rate=4)
        assert [bv.select1(r) for r in range(1, 13)] == [1000 * k for k in range(12)]

    @pytest.mark.parametrize("rate", [1, 8, 64, 256])
    @pytest.mark.parametrize("bit", [0, 1])
    def test_samples_match_per_sample_loop(self, rate, bit):
        """The one-pass build stores the samples a per-sample loop
        computes, on seeded vectors of every density (select0 samples
        are those of the complement)."""
        rng = np.random.default_rng(rate * 2 + bit)
        for n_bits, density in ((5000, 0.06), (4097, 0.5), (1000, 0.97), (63, 0.5)):
            bits = (rng.random(n_bits) < density).astype(int).tolist()
            target = bits if bit else complement(bits)
            bv = Bits(target, rate=rate)
            assert bv.samples_array.tolist() == loop_samples(bv.array, n_bits, rate)
            assert bv.samples_array.dtype == np.uint32
            assert bv.total == sum(target)


def loop_samples(array, n_bits, rate):
    """Select samples built one sample at a time: a cumulative popcount
    finds each sampled rank's word, and the offset is resolved in it."""
    n_words = (n_bits + 63) // 64
    words = [int(w) for w in array[:n_words]]
    cum = np.cumsum([w.bit_count() for w in words]) if words else np.zeros(0, np.int64)
    total = int(cum[-1]) if n_words else 0
    samples = []
    for r in range(1, total + 1, rate):
        wi = int(np.searchsorted(cum, r, side="left"))
        before = int(cum[wi]) - words[wi].bit_count()
        samples.append((wi << 6) + select_in_word(words[wi], r - before))
    return samples


class TestSelectInWord:
    @given(st.integers(1, (1 << 64) - 1), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_naive(self, word, data):
        k = data.draw(st.integers(1, word.bit_count()))
        naive = [i for i in range(64) if (word >> i) & 1][k - 1]
        assert select_in_word(word, k) == naive

    def test_missing_one_raises(self):
        with pytest.raises(ValueError, match="k set bits"):
            select_in_word(0b1011, 4)
        with pytest.raises(ValueError):
            select_in_word(0, 1)


class TestNextOne:
    def test_ones_at_or_past_end_are_not_found(self):
        bits = [0] * 10 + [1] + [0] * 60 + [1]
        bv = Bits(bits)
        assert next_one(bv.words, 0, 10) == 10
        assert next_one(bv.words, 0, 11) == 10
        assert next_one(bv.words, 11, 71) == 71
        assert next_one(bv.words, 11, 72) == 71
        assert next_one(bv.words, 5, 5) == 5

    @given(st.lists(st.integers(0, 1), min_size=0, max_size=300), st.data())
    @settings(max_examples=60, deadline=None)
    def test_next_one_matches_naive(self, bits, data):
        bv = Bits(bits)
        n = len(bits)
        for pos in range(n + 1):
            end = data.draw(st.integers(pos, n))
            assert next_one(bv.words, pos, end) == naive_next_one(bits, pos, end)

    @given(st.lists(st.integers(0, 1), min_size=0, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_runs_of_ones_are_next_one_over_the_complement(self, bits):
        """The length of the run of ones at ``pos`` is the distance to
        the next one of the complement."""
        flipped = Bits(complement(bits))
        for pos in range(len(bits)):
            naive = 0
            while pos + naive < len(bits) and bits[pos + naive]:
                naive += 1
            assert next_one(flipped.words, pos, len(bits)) - pos == naive


class TestRankSelectProperties:
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=600))
    @settings(max_examples=60, deadline=None)
    def test_rank_inverse_select(self, bits):
        bv = Bits(bits, block_bits=64, rate=8)
        for r in range(1, sum(bits) + 1):
            pos = bv.select1(r)
            assert bits[pos] == 1
            assert bv.rank1(pos) == r

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=600))
    @settings(max_examples=60, deadline=None)
    def test_rank1_and_zeros_match_naive(self, bits):
        bv = Bits(bits, block_bits=128)
        for i in range(0, len(bits), max(1, len(bits) // 10)):
            assert bv.rank1(i) == naive_rank1(bits, i)
            assert i + 1 - bv.rank1(i) == bits[: i + 1].count(0)
