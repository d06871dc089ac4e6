"""Select support: position-of-k-th-bit queries over a bit vector.

This mirrors FST's lightweight sampled-LUT select (Section 3.6): a
single lookup table stores the precomputed answer for every ``rate``-th
query, and the remainder is resolved by a short word-by-word popcount
scan.  The thesis uses a default sampling rate of 64, which costs 1-2 %
space overall on the S-LOUDS vector.

On S-LOUDS one bit in ~16 is set, so the 63 bits past a sample span
about twenty words, and a word-by-word walk over them was a quarter of
a SuRF point probe.  A one-level *block directory* — the number of
target bits before each 512-bit block, 32 bits per block like the rank
LUT (Section 3.6; Navarro & Sadakane's directories in PAPERS.md are the
many-level version) — lets the scan start in the block that holds the
answer: the sample bounds a bisect over the directory from below, and
at most eight words are scanned after it.  The directory is counted in
:meth:`SelectSupport.size_bits` (+0.5 % on a SuRF-Real filter).

Construction is one numpy pass: unpack the words, ``flatnonzero`` the
target bits, and keep every ``sample_rate``-th position; the directory
is one ``searchsorted`` of the block starts into those positions.  Both
tables are stored as ``uint32``, the width :meth:`SelectSupport.size_bits`
charges.  In-word select walks bytes through a 256x8 offset table (at
most 8 steps), the Python analogue of the broadword/PDEP tricks C
implementations use.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .bitvector import WORD_BITS, _WORD_MASK, BitVector

#: Words per directory block (512 bits, one cache line — the sparse
#: rank LUT's granularity).
_BLOCK_WORDS = 8

#: FST's default select sampling rate.
DEFAULT_SELECT_SAMPLE_RATE = 64

# _SELECT_IN_BYTE[b][k-1] = offset of the k-th (1-based) set bit of byte b.
_SELECT_IN_BYTE: list[list[int]] = [
    [off for off in range(8) if (b >> off) & 1] for b in range(256)
]


def _select_in_word(word: int, k: int) -> int:
    """Bit offset of the k-th (1-based) set bit inside ``word``."""
    for base in range(0, WORD_BITS, 8):
        byte = word & 0xFF
        pop = byte.bit_count()
        if k <= pop:
            return base + _SELECT_IN_BYTE[byte][k - 1]
        k -= pop
        word >>= 8
    raise ValueError("word does not contain k set bits")


class SelectSupport:
    """select over an immutable :class:`BitVector` for ones or zeros.

    ``select(r)`` returns the position of the r-th (1-based) target bit.
    Set ``bit=0`` to select zero bits (needed by plain LOUDS trees).
    """

    __slots__ = ("_bv", "_bit", "_rate", "_samples", "_total", "_block_before")

    def __init__(
        self,
        bv: BitVector,
        bit: int = 1,
        sample_rate: int = DEFAULT_SELECT_SAMPLE_RATE,
    ) -> None:
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        if sample_rate < 1:
            raise ValueError(f"sample_rate must be >= 1, got {sample_rate}")
        self._bv = bv
        self._bit = bit
        self._rate = sample_rate
        n_bits = len(bv)
        n_words = (n_bits + WORD_BITS - 1) // WORD_BITS
        assert n_bits < 1 << 32, "select entries must fit 32 bits"
        # Every target bit's position in one pass; the samples are every
        # ``sample_rate``-th of them.
        bits = np.unpackbits(
            bv.words[:n_words].view(np.uint8), bitorder="little", count=n_bits
        )
        positions = np.flatnonzero(bits if bit else bits ^ 1)
        self._total = len(positions)
        self._samples = positions[::sample_rate].astype(np.uint32)
        #: Target bits strictly before each block, searched by ``bisect``
        #: through a memoryview (stored at the 32 bits it is charged).
        block_starts = np.arange(0, n_bits, _BLOCK_WORDS * WORD_BITS)
        before = np.searchsorted(positions, block_starts).astype(np.uint32)
        self._block_before = memoryview(before if len(before) else np.zeros(1, np.uint32))

    @property
    def total(self) -> int:
        """Number of target bits in the vector."""
        return self._total

    @property
    def samples(self) -> np.ndarray:
        """``samples[k]`` = position of target bit ``k * rate + 1``
        (``uint32``): what a flat probe starts its select scan from."""
        return self._samples

    def select(self, r: int) -> int:
        """Position of the r-th (1-based) target bit."""
        if r < 1 or r > self._total:
            raise IndexError(f"select rank {r} out of range [1, {self._total}]")
        # The answer is not before the sampled position, so neither is
        # its block; the directory then names the block outright.
        before = self._block_before
        first = int(self._samples[(r - 1) // self._rate]) // (_BLOCK_WORDS * WORD_BITS)
        block = bisect_left(before, r, first + 1) - 1
        remaining = r - before[block]
        words = self._bv.words
        for word_idx in range(block * _BLOCK_WORDS, len(words)):
            word = int(words[word_idx])
            if self._bit == 0:
                word = ~word & _WORD_MASK
            count = word.bit_count()
            if count >= remaining:
                return (word_idx << 6) + _select_in_word(word, remaining)
            remaining -= count
        raise AssertionError("select scan ran past end of vector")  # pragma: no cover

    # -- memory accounting ------------------------------------------------

    def size_bits(self) -> int:
        """Sampled LUT plus block directory, 32 bits per entry each."""
        return (len(self._samples) + len(self._block_before)) * 32
