"""Edge-case coverage for the succinct substrate (PR 1 bugfixes).

Covers the bit-level hot-path contracts: rank bounds checking, padding
validation on untrusted buffers, zero-select over padded last words,
empty/single-bit vectors, builder bulk kernels, and the benchmark
timer's minimum-resolution clamp.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import equi_cost, measure_ops
from repro.fst import FST
from repro.succinct import BitVector, BitVectorBuilder, RankSupport, SelectSupport


class TestRankBounds:
    def setup_method(self):
        self.bv = BitVector.from_bits([1, 0, 1, 1, 0])
        self.rs = RankSupport(self.bv, block_bits=64)

    def test_rank1_negative_raises(self):
        with pytest.raises(IndexError):
            self.rs.rank1(-1)

    def test_rank1_past_end_raises(self):
        with pytest.raises(IndexError):
            self.rs.rank1(len(self.bv))

    def test_rank0_bounds(self):
        with pytest.raises(IndexError):
            self.rs.rank0(-1)
        with pytest.raises(IndexError):
            self.rs.rank0(5)

    def test_in_range_still_works(self):
        assert self.rs.rank1(4) == 3
        assert self.rs.rank0(4) == 2


class TestPaddingValidation:
    def test_dirty_tail_bits_rejected(self):
        words = np.array([0xFF], dtype=np.uint64)  # bits 0-7 set
        with pytest.raises(ValueError, match="padding"):
            BitVector(words, 4)  # bits 4-7 are padding and nonzero

    def test_dirty_extra_word_rejected(self):
        words = np.array([0b1, 0xDEAD], dtype=np.uint64)
        with pytest.raises(ValueError):
            BitVector(words, 1)

    def test_clean_extra_word_allowed(self):
        words = np.array([0b1, 0], dtype=np.uint64)
        bv = BitVector(words, 1)
        assert bv.count_ones() == 1

    def test_exact_boundary_allowed(self):
        words = np.array([(1 << 64) - 1], dtype=np.uint64)
        assert BitVector(words, 64).count_ones() == 64


class TestEmptyAndSingleBit:
    def test_empty_rank_select(self):
        bv = BitVector.from_bits([])
        rs = RankSupport(bv)
        assert rs.total_ones() == 0
        ss = SelectSupport(bv, bit=1)
        assert ss.total == 0
        with pytest.raises(IndexError):
            ss.select(1)

    @pytest.mark.parametrize("bit", [0, 1])
    def test_single_bit_vectors(self, bit):
        bv = BitVector.from_bits([bit])
        rs = RankSupport(bv, block_bits=64)
        assert rs.rank1(0) == bit
        assert rs.rank0(0) == 1 - bit
        ss = SelectSupport(bv, bit=bit)
        assert ss.total == 1
        assert ss.select(1) == 0
        other = SelectSupport(bv, bit=1 - bit)
        assert other.total == 0


class TestZeroSelectWithPadding:
    def test_select0_ignores_padding_zeros(self):
        # 70 bits: last word has 54 padding zeros that must not count.
        bits = [1] * 65 + [0, 1, 0, 1, 0]
        bv = BitVector.from_bits(bits)
        ss = SelectSupport(bv, bit=0, sample_rate=2)
        assert ss.total == 3
        assert ss.select(1) == 65
        assert ss.select(2) == 67
        assert ss.select(3) == 69
        with pytest.raises(IndexError):
            ss.select(4)

    def test_select0_all_ones_partial_word(self):
        bv = BitVector.from_bits([1] * 70)
        ss = SelectSupport(bv, bit=0)
        assert ss.total == 0


class TestSelectValidation:
    @pytest.mark.parametrize("rate", [0, -1, -64])
    def test_nonpositive_sample_rate_rejected(self, rate):
        bv = BitVector.from_bits([1, 0, 1])
        with pytest.raises(ValueError, match="sample_rate"):
            SelectSupport(bv, bit=1, sample_rate=rate)


class TestBuilderBulkKernels:
    def test_append_word_aligned(self):
        b = BitVectorBuilder()
        b.append_word(0xDEADBEEF, 32)
        b.append_word((1 << 64) - 1)
        bv = b.build()
        assert len(bv) == 96
        assert [bv.get(i) for i in range(32)] == [
            (0xDEADBEEF >> i) & 1 for i in range(32)
        ]
        assert all(bv.get(i) for i in range(32, 96))

    def test_append_word_unaligned_straddles_words(self):
        b = BitVectorBuilder()
        b.append(1)
        b.append_word((1 << 64) - 1)  # straddles the word boundary
        b.append_word(0, 3)
        bv = b.build()
        assert len(bv) == 68
        assert bv.count_ones() == 65
        assert bv.popcount_range(0, 65) == 65

    def test_append_run_matches_per_bit(self):
        fast, slow = BitVectorBuilder(), BitVectorBuilder()
        for bit, count in [(1, 3), (0, 130), (1, 200), (0, 1), (1, 64)]:
            fast.append_run(bit, count)
            for _ in range(count):
                slow.append(bit)
        a, b = fast.build(), slow.build()
        assert len(a) == len(b)
        assert np.array_equal(a.words, b.words)

    def test_from_words(self):
        words = np.array([0b1011, 0b1], dtype=np.uint64)
        builder = BitVectorBuilder.from_words(words, 65)
        bv = builder.build()
        assert len(bv) == 65
        assert bv.count_ones() == 4
        assert bv.get(64) == 1

    def test_from_words_too_few_bits(self):
        with pytest.raises(ValueError):
            BitVectorBuilder.from_words([0], 65)

    def test_extend_bools_unaligned(self):
        b = BitVectorBuilder()
        b.append(1)
        b.extend_bools(np.array([0, 1] * 50, dtype=np.uint8))
        bv = b.build()
        assert len(bv) == 101
        assert [bv.get(i) for i in range(101)] == [1] + [0, 1] * 50

    def test_from_bools_matches_from_bits(self):
        bits = [1, 0, 0, 1] * 33
        a = BitVector.from_bools(np.array(bits))
        b = BitVector.from_bits(bits)
        assert len(a) == len(b)
        assert np.array_equal(a.words, b.words)

    @given(st.lists(st.integers(0, 1), min_size=0, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_run_of_ones_matches_naive(self, bits):
        bv = BitVector.from_bits(bits)
        for pos in range(len(bits)):
            naive = 0
            while pos + naive < len(bits) and bits[pos + naive]:
                naive += 1
            assert bv.run_of_ones(pos) == naive


class TestSerializeCorruptPadding:
    def _corrupt_d_isprefix_padding(self, blob: bytes) -> bytes:
        """Set a padding bit of the serialized D-IsPrefixKey vector."""
        offset = 4 + struct.calcsize("<QQQQQQB")
        for _ in range(2):  # skip d_labels, d_haschild
            n_bits, n_bytes = struct.unpack_from("<QQ", blob, offset)
            offset += 16 + n_bytes
        n_bits, n_bytes = struct.unpack_from("<QQ", blob, offset)
        assert n_bits % 64 != 0, "test needs a padded last word"
        corrupted = bytearray(blob)
        corrupted[offset + 16 + n_bytes - 1] |= 0x80  # top padding bit
        return bytes(corrupted)

    def test_corrupted_padding_fails_loudly(self):
        keys = [bytes([i]) * 3 for i in range(1, 40)]
        fst = FST(keys, list(range(len(keys))), dense_levels=1)
        blob = fst.to_bytes()
        assert FST.from_bytes(blob).get(keys[5]) == 5  # sanity: clean loads
        with pytest.raises(ValueError, match="corrupt"):
            FST.from_bytes(self._corrupt_d_isprefix_padding(blob))

    def test_truncated_blob_fails_loudly(self):
        keys = [bytes([i]) * 3 for i in range(1, 10)]
        blob = FST(keys, list(range(len(keys)))).to_bytes()
        with pytest.raises((ValueError, struct.error)):
            FST.from_bytes(blob[: len(blob) // 2])


class TestTimerClamp:
    def test_measure_ops_never_infinite(self):
        m = measure_ops(lambda: None, n_ops=1000)
        assert np.isfinite(m.ops_per_sec)
        assert m.seconds > 0

    def test_equi_cost_finite_for_clamped_measurement(self):
        m = measure_ops(lambda: None, n_ops=1000)
        cost = equi_cost(m.ops_per_sec, 10_000)
        assert np.isfinite(cost)
        assert cost > 0

