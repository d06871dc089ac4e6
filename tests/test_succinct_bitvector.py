"""Unit and property tests for bit vectors and rank/select supports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.succinct import (
    BitVector,
    BitVectorBuilder,
    RankSupport,
    SelectSupport,
)
from repro.succinct.select import _select_in_word


class TestBitVector:
    def test_empty(self):
        bv = BitVector.from_bits([])
        assert len(bv) == 0
        assert bv.count_ones() == 0

    def test_from_bits_roundtrip(self):
        bits = [1, 0, 1, 1, 0, 0, 1]
        bv = BitVector.from_bits(bits)
        assert len(bv) == 7
        assert [bv[i] for i in range(7)] == bits

    def test_getitem_bounds(self):
        bv = BitVector.from_bits([1, 0])
        with pytest.raises(IndexError):
            bv[2]
        with pytest.raises(IndexError):
            bv[-1]

    def test_word_boundary(self):
        bits = [1] * 64 + [0] * 64 + [1, 1]
        bv = BitVector.from_bits(bits)
        assert bv[63] == 1
        assert bv[64] == 0
        assert bv[128] == 1
        assert bv.count_ones() == 66

    def test_zeros(self):
        bv = BitVector.zeros(100)
        assert len(bv) == 100
        assert bv.count_ones() == 0

    def test_append_run_and_lsb(self):
        b = BitVectorBuilder()
        b.append_run(1, 3)
        b.append_run(0, 2)
        b.append_bits_lsb(0b101, 3)
        bv = b.build()
        assert list(bv) == [1, 1, 1, 0, 0, 1, 0, 1]

    def test_popcount_range_single_word(self):
        bv = BitVector.from_bits([1, 0, 1, 1, 0, 1])
        assert bv.popcount_range(0, 6) == 4
        assert bv.popcount_range(1, 4) == 2
        assert bv.popcount_range(3, 3) == 0

    def test_popcount_range_multi_word(self):
        bits = ([1, 0] * 100)[:193]
        bv = BitVector.from_bits(bits)
        assert bv.popcount_range(0, 193) == sum(bits)
        assert bv.popcount_range(60, 130) == sum(bits[60:130])

    def test_size_bits_word_aligned(self):
        assert BitVector.from_bits([1] * 65).size_bits() == 128


def naive_rank1(bits, i):
    return sum(bits[: i + 1])


class TestRankSupport:
    @pytest.mark.parametrize("block_bits", [64, 128, 512])
    def test_rank_matches_naive(self, block_bits):
        rng = np.random.default_rng(7)
        bits = list(rng.integers(0, 2, size=1500))
        bv = BitVector.from_bits(bits)
        rs = RankSupport(bv, block_bits=block_bits)
        for i in range(0, 1500, 13):
            assert rs.rank1(i) == naive_rank1(bits, i)
            assert rs.rank0(i) == i + 1 - naive_rank1(bits, i)

    def test_rank_last_position(self):
        bits = [1, 1, 0, 1]
        rs = RankSupport(BitVector.from_bits(bits), block_bits=64)
        assert rs.rank1(3) == 3
        assert rs.total_ones() == 3

    def test_empty_vector(self):
        rs = RankSupport(BitVector.from_bits([]))
        assert rs.total_ones() == 0

    def test_lut_size_accounting(self):
        bv = BitVector.from_bits([1] * 1024)
        assert RankSupport(bv, block_bits=512).size_bits() == 2 * 32
        assert RankSupport(bv, block_bits=64).size_bits() == 16 * 32

    @pytest.mark.parametrize("block_bits", [64, 512])
    def test_tables_stored_at_the_charged_width(self, block_bits):
        """The LUT is stored at the 32 bits per entry it is charged."""
        bv = BitVector.from_bools(np.random.default_rng(3).random(3000) < 0.3)
        rs = RankSupport(bv, block_bits=block_bits)
        assert rs.lut.dtype == np.uint32


class TestSelectSupport:
    def test_select1_matches_naive(self):
        rng = np.random.default_rng(11)
        bits = list(rng.integers(0, 2, size=2000))
        bv = BitVector.from_bits(bits)
        ss = SelectSupport(bv, bit=1, sample_rate=64)
        positions = [i for i, b in enumerate(bits) if b]
        for r in range(1, len(positions) + 1, 7):
            assert ss.select(r) == positions[r - 1]

    def test_select0(self):
        bits = [1, 0, 1, 0, 0, 1]
        ss = SelectSupport(BitVector.from_bits(bits), bit=0)
        assert ss.select(1) == 1
        assert ss.select(2) == 3
        assert ss.select(3) == 4

    def test_select_out_of_range(self):
        ss = SelectSupport(BitVector.from_bits([1, 0, 1]), bit=1)
        with pytest.raises(IndexError):
            ss.select(0)
        with pytest.raises(IndexError):
            ss.select(3)

    def test_select_across_words(self):
        bits = [0] * 200 + [1] + [0] * 200 + [1]
        ss = SelectSupport(BitVector.from_bits(bits), bit=1, sample_rate=1)
        assert ss.select(1) == 200
        assert ss.select(2) == 401

    @pytest.mark.parametrize("rate", [1, 2, 16, 64])
    def test_sample_rates(self, rate):
        bits = [1] * 300
        ss = SelectSupport(BitVector.from_bits(bits), bit=1, sample_rate=rate)
        for r in (1, 150, 300):
            assert ss.select(r) == r - 1

    @pytest.mark.parametrize("rate", [1, 8, 64, 256])
    @pytest.mark.parametrize("bit", [0, 1])
    def test_samples_match_per_sample_loop(self, rate, bit):
        """The one-pass build stores the samples the per-sample loop it
        replaced computed, on seeded vectors of every density."""
        rng = np.random.default_rng(rate * 2 + bit)
        for n_bits, density in ((5000, 0.06), (4097, 0.5), (1000, 0.97), (63, 0.5)):
            bv = BitVector.from_bools(rng.random(n_bits) < density)
            ss = SelectSupport(bv, bit=bit, sample_rate=rate)
            expected = loop_samples(bv, bit, rate)
            assert ss.samples.tolist() == expected
            assert ss.samples.dtype == np.uint32
            assert ss.total == int(np.count_nonzero(np.unpackbits(
                bv.words.view(np.uint8), bitorder="little", count=n_bits
            ) == bit))


def loop_samples(bv, bit, rate):
    """Select samples built one sample at a time: a cumulative popcount
    finds each sampled rank's word, and the offset is resolved in it."""
    n_bits = len(bv)
    n_words = (n_bits + 63) // 64
    words = [int(w) for w in bv.words[:n_words]]
    if bit == 0:
        words = [~w & ((1 << 64) - 1) for w in words]
        if n_bits & 63:
            words[-1] &= (1 << (n_bits & 63)) - 1
    cum = np.cumsum([w.bit_count() for w in words]) if words else np.zeros(0, np.int64)
    total = int(cum[-1]) if n_words else 0
    samples = []
    for r in range(1, total + 1, rate):
        wi = int(np.searchsorted(cum, r, side="left"))
        before = int(cum[wi]) - words[wi].bit_count()
        samples.append((wi << 6) + _select_in_word(words[wi], r - before))
    return samples


class TestRankSelectProperties:
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=600))
    @settings(max_examples=60, deadline=None)
    def test_rank_inverse_select(self, bits):
        bv = BitVector.from_bits(bits)
        rs = RankSupport(bv, block_bits=64)
        ss = SelectSupport(bv, bit=1, sample_rate=8)
        ones = sum(bits)
        for r in range(1, ones + 1):
            pos = ss.select(r)
            assert bv.get(pos) == 1
            assert rs.rank1(pos) == r

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=600))
    @settings(max_examples=60, deadline=None)
    def test_rank1_plus_rank0(self, bits):
        bv = BitVector.from_bits(bits)
        rs = RankSupport(bv, block_bits=128)
        for i in range(0, len(bits), max(1, len(bits) // 10)):
            assert rs.rank1(i) + rs.rank0(i) == i + 1
