"""Rank support: constant-time popcount-prefix queries over a bit vector.

This mirrors the customized single-level lookup-table design of FST
(Section 3.6 of the thesis): the bit vector is divided into fixed-length
basic blocks of ``block_bits`` bits, and a 32-bit LUT entry per block
stores the precomputed rank at the block boundary.  FST uses
``block_bits=64`` for LOUDS-Dense (performance: at most one popcount per
query) and ``block_bits=512`` for LOUDS-Sparse (one cache line, 6.25 %
space overhead).
"""

from __future__ import annotations

import numpy as np

from .bitvector import WORD_BITS, BitVector, _popcounts_per_word

#: Dense sampling used by LOUDS-Dense rank structures.
DENSE_RANK_BLOCK_BITS = 64
#: Sparse sampling used by LOUDS-Sparse rank structures (one cache line).
SPARSE_RANK_BLOCK_BITS = 512


def _cumulative_popcounts(bv: BitVector) -> np.ndarray:
    """``cum[k]`` = ones strictly before word ``k``, for every word and
    the end (``uint32``: the entries must fit 32 bits)."""
    n_words = (len(bv) + WORD_BITS - 1) // WORD_BITS
    cum = np.zeros(n_words + 1, dtype=np.int64)
    np.cumsum(_popcounts_per_word(bv.words[:n_words]), out=cum[1:])
    assert cum[-1] < 1 << 32, "rank entries must fit 32 bits"
    return cum.astype(np.uint32)


class RankSupport:
    """rank1/rank0 over an immutable :class:`BitVector`.

    ``rank1(i)`` counts set bits in positions ``[0, i]`` *inclusive*,
    matching the convention used throughout the thesis (e.g. the FST
    navigation formulas in Sections 3.2-3.3).
    """

    __slots__ = ("_bv", "_block_bits", "_lut")

    def __init__(self, bv: BitVector, block_bits: int = SPARSE_RANK_BLOCK_BITS) -> None:
        if block_bits % WORD_BITS != 0:
            raise ValueError("block_bits must be a multiple of 64")
        self._bv = bv
        self._block_bits = block_bits
        words_per_block = block_bits // WORD_BITS
        # lut[k] = number of ones strictly before block k (plus the total
        # at the end), stored at the 32 bits per entry size_bits() charges.
        cum = _cumulative_popcounts(bv)
        self._lut = np.append(cum[: len(cum) - 1 : words_per_block], cum[-1])

    @property
    def lut(self) -> np.ndarray:
        """``lut[k]`` = ones before block ``k`` (``uint32``, one entry per
        block plus the total): what a flat probe inlines rank from."""
        return self._lut

    def rank1(self, i: int) -> int:
        """Number of ones in ``[0, i]``; requires ``0 <= i < len(bv)``."""
        if i < 0 or i >= len(self._bv):
            raise IndexError(
                f"rank index {i} out of range [0, {len(self._bv)})"
            )
        block = i // self._block_bits
        start = block * self._block_bits
        return int(self._lut[block]) + self._bv.popcount_range(start, i + 1)

    def rank0(self, i: int) -> int:
        """Number of zeros in ``[0, i]``; requires ``0 <= i < len(bv)``."""
        return i + 1 - self.rank1(i)

    def total_ones(self) -> int:
        if len(self._bv) == 0:
            return 0
        return self.rank1(len(self._bv) - 1)

    # -- memory accounting ------------------------------------------------

    def size_bits(self) -> int:
        """LUT overhead in bits (32 bits per block entry, as in the paper)."""
        return max(0, len(self._lut) - 1) * 32
