"""Edge-case coverage for the succinct substrate (PR 1 bugfixes).

Covers the bit-level hot-path contracts: rank bounds checking, padding
validation on untrusted buffers, zero-select over padded last words
(select1 over a complement whose padding is cleared), empty/single-bit
vectors, and the benchmark timer's minimum-resolution clamp.
"""

import struct

import numpy as np
import pytest

from repro.bench.harness import equi_cost, measure_ops
from repro.fst import FST
from repro.succinct import check_padding, int_view, pack_bools, rank1, rank_lut, select1, select_samples


def packed(bits, block_bits=64, rate=64):
    """``(words, n_bits, lut, samples)`` of a list of bits: the views
    ``rank1`` and ``select1`` read."""
    arr = pack_bools(np.array(bits, dtype=np.uint8))
    n = len(bits)
    return (int_view(arr), n, int_view(rank_lut(arr, n, block_bits)),
            int_view(select_samples(arr, n, rate)))


def select(bits, r, rate=64):
    words, _n, lut, samples = packed(bits, rate=rate)
    return select1(words, lut, 64, samples, rate, r)


class TestRankBounds:
    def setup_method(self):
        self.bits = [1, 0, 1, 1, 0]
        self.words, self.n, self.lut, _ = packed(self.bits)

    def rank(self, i):
        return rank1(self.words, self.n, self.lut, 64, i)

    def test_rank1_negative_raises(self):
        with pytest.raises(IndexError):
            self.rank(-1)

    def test_rank1_past_end_raises(self):
        """Position n is padding (zero in the word): still out of range."""
        with pytest.raises(IndexError):
            self.rank(len(self.bits))

    def test_rank0_bounds(self):
        """Zeros in [0, i] are ``i + 1 - rank1(i)``: the same bounds."""
        with pytest.raises(IndexError):
            self.rank(-1)
        with pytest.raises(IndexError):
            self.rank(5)

    def test_in_range_still_works(self):
        assert self.rank(4) == 3 == sum(self.bits)
        assert 4 + 1 - self.rank(4) == 2 == self.bits.count(0)


class TestPaddingValidation:
    def test_dirty_tail_bits_rejected(self):
        words = np.array([0xFF], dtype=np.uint64)  # bits 0-7 set
        with pytest.raises(ValueError, match="padding"):
            check_padding(words, 4)  # bits 4-7 are padding and nonzero

    def test_dirty_extra_word_rejected(self):
        words = np.array([0b1, 0xDEAD], dtype=np.uint64)
        with pytest.raises(ValueError):
            check_padding(words, 1)

    def test_too_few_words_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            check_padding(np.zeros(1, dtype=np.uint64), 65)

    def test_clean_extra_word_allowed(self):
        words = np.array([0b1, 0], dtype=np.uint64)
        check_padding(words, 1)
        assert rank_lut(words, 1, 64)[-1] == 1

    def test_exact_boundary_allowed(self):
        words = np.array([(1 << 64) - 1], dtype=np.uint64)
        check_padding(words, 64)
        assert rank_lut(words, 64, 64)[-1] == 64


class TestEmptyAndSingleBit:
    def test_empty_rank_select(self):
        words, _n, lut, samples = packed([])
        assert lut[-1] == 0 and len(samples) == 0
        with pytest.raises(IndexError):
            select1(words, lut, 64, samples, 64, 1)

    @pytest.mark.parametrize("bit", [0, 1])
    def test_single_bit_vectors(self, bit):
        words, n, lut, _ = packed([bit])
        assert rank1(words, n, lut, 64, 0) == bit
        assert 1 - rank1(words, n, lut, 64, 0) == 1 - bit
        # Selecting ``bit`` is select1 over the bits, or over their
        # complement for a zero; the other value is not there at all.
        target = [bit] if bit else [1 - bit]
        assert packed(target)[2][-1] == 1
        assert select(target, 1) == 0
        other = [1 - b for b in target]
        assert packed(other)[2][-1] == 0


class TestZeroSelectWithPadding:
    def test_select0_ignores_padding_zeros(self):
        # 70 bits: the last word has 58 padding zeros that must not
        # count — the complement the zeros are selected from is packed
        # from the 70 bits, so its padding is zero, and one complemented
        # word by word (padding set) is rejected.
        bits = [1] * 65 + [0, 1, 0, 1, 0]
        flipped = [1 - b for b in bits]
        arr = pack_bools(np.array(bits, dtype=np.uint8))
        with pytest.raises(ValueError, match="padding"):
            check_padding(~arr, len(bits))
        check_padding(pack_bools(np.array(flipped, dtype=np.uint8)), len(bits))
        assert packed(flipped, rate=2)[2][-1] == 3
        assert [select(flipped, r, rate=2) for r in (1, 2, 3)] == [65, 67, 69]
        with pytest.raises(IndexError):
            select(flipped, 4, rate=2)

    def test_select0_all_ones_partial_word(self):
        assert packed([0] * 70)[2][-1] == 0


class TestSelectValidation:
    @pytest.mark.parametrize("rate", [0, -1, -64])
    def test_nonpositive_sample_rate_rejected(self, rate):
        arr = pack_bools(np.array([1, 0, 1], dtype=np.uint8))
        with pytest.raises(ValueError, match="sample_rate"):
            select_samples(arr, 3, rate)


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

