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

Construction is vectorized: per-word popcounts come from the shared
16-bit table, a cumulative sum locates each sampled rank's word via one
``searchsorted``, and only the in-word offsets are resolved in Python —
O(n / sample_rate) calls instead of one call per bit.  In-word select
walks bytes through a 256x8 offset table (at most 8 steps), the Python
analogue of the broadword/PDEP tricks C implementations use.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .bitvector import WORD_BITS, _WORD_MASK, BitVector, _popcounts_per_word

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
        per_word = _popcounts_per_word(bv.words[:n_words]).astype(np.int64)
        if bit == 0:
            per_word = WORD_BITS - per_word
            rem = n_bits & 63
            if rem:
                # The last word's padding zeros are not part of the vector.
                per_word[-1] -= WORD_BITS - rem
        cum = np.cumsum(per_word)
        self._total = int(cum[-1]) if n_words else 0
        #: Target bits strictly before each block (a list: ``bisect``
        #: over it is ~10x cheaper than ``np.searchsorted`` per call).
        self._block_before: list[int] = [0] + cum[
            _BLOCK_WORDS - 1 : n_words - 1 : _BLOCK_WORDS
        ].tolist()
        ranks = np.arange(1, self._total + 1, sample_rate, dtype=np.int64)
        word_idx = np.searchsorted(cum, ranks, side="left")
        before = np.zeros(len(ranks), dtype=np.int64)
        np.subtract(cum[word_idx], per_word[word_idx], out=before)
        samples = np.empty(len(ranks), dtype=np.uint64)
        words = bv.words
        for s, (wi, r, b) in enumerate(
            zip(word_idx.tolist(), ranks.tolist(), before.tolist())
        ):
            word = int(words[wi])
            if bit == 0:
                word = ~word & _WORD_MASK
            samples[s] = (wi << 6) + _select_in_word(word, r - b)
        self._samples = samples

    @property
    def total(self) -> int:
        """Number of target bits in the vector."""
        return self._total

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
