"""Bit vectors as plain ``uint64`` word arrays, with rank and select as
functions over them.

A bit vector is its words: bit *i* lives in word ``i // 64`` at shift
``i % 64`` (LSB first), and every bit past its length is zero
(:func:`check_padding`).  Rank and select read the words plus the two
tables of the thesis's Section 3.6, in the form Navarro and Sadakane
state them (PAPERS.md):

* the rank LUT (:func:`rank_lut`): the ones before each block of
  ``block_bits`` bits, plus the total — FST uses 64-bit blocks on
  LOUDS-Dense (at most one popcount per rank) and 512-bit blocks on
  LOUDS-Sparse (one cache line, 6.25 % space);
* the select samples (:func:`select_samples`): the position of every
  ``rate``-th one (64 by default, 1-2 % space on S-LOUDS).

Both tables are ``uint32``, the width ``FST.size_bits`` charges.  The
query functions (:func:`rank1`, :func:`select1`, :func:`next_one`) take
:func:`int_view` memoryviews, whose items are plain Python ints; the
FST's point walk inlines the same arithmetic.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

# 16-bit popcount table for the word-parallel table builds: 256 KiB
# once per process.
_POP16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint32)

# _SELECT_IN_BYTE[b][k-1] = offset of the k-th (1-based) set bit of byte b.
_SELECT_IN_BYTE: list[list[int]] = [
    [off for off in range(8) if (b >> off) & 1] for b in range(256)
]


def int_view(arr: np.ndarray) -> memoryview:
    """A zero-copy memoryview of a contiguous integer array whose items
    index to plain Python ints (a numpy array boxes each element).

    Cast through bytes to the native format: numpy exports an array at
    an unaligned offset — a view into a serialized blob — with a
    standard-size format (``=Q``) that memoryview cannot index.
    """
    return memoryview(arr).cast("B").cast(arr.dtype.char)


def pack_bools(bits: np.ndarray) -> np.ndarray:
    """Pack a 0/1 array into LSB-first ``uint64`` words (zero-padded)."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    pad = (-len(packed)) % 8
    if pad:
        packed = np.concatenate([packed, np.zeros(pad, dtype=np.uint8)])
    return packed.view(np.uint64)


def check_padding(words: np.ndarray, n_bits: int) -> None:
    """Raise ``ValueError`` unless ``words`` holds ``n_bits`` bits and
    every bit past them is zero: a dirty tail would silently corrupt the
    rank LUT's total and every count over the last word."""
    if n_bits > len(words) * 64:
        raise ValueError("n_bits exceeds capacity of words array")
    last, rem = n_bits >> 6, n_bits & 63
    if rem and int(words[last]) >> rem:
        raise ValueError(f"nonzero padding bits past position {n_bits} in last word")
    if words[last + (rem > 0) :].any():
        raise ValueError(f"nonzero words past position {n_bits}")


def rank_lut(words: np.ndarray, n_bits: int, block_bits: int) -> np.ndarray:
    """``lut[k]`` = ones before block ``k`` of ``block_bits`` bits, for
    every block and the end (``uint32``; ``lut[-1]`` is the total)."""
    if block_bits % 64:
        raise ValueError("block_bits must be a multiple of 64")
    n_words = (n_bits + 63) >> 6
    halves = words[:n_words].view(np.uint16).reshape(n_words, 4)
    cum = np.zeros(n_words + 1, dtype=np.int64)
    np.cumsum(_POP16[halves].sum(axis=1, dtype=np.uint32), out=cum[1:])
    assert cum[-1] < 1 << 32, "rank entries must fit 32 bits"
    return np.append(cum[:-1 : block_bits // 64], cum[-1]).astype(np.uint32)


def select_samples(words: np.ndarray, n_bits: int, rate: int) -> np.ndarray:
    """``samples[k]`` = position of the ``(k * rate + 1)``-th one
    (``uint32``), from one unpack of the words."""
    if rate < 1:
        raise ValueError(f"sample_rate must be >= 1, got {rate}")
    assert n_bits < 1 << 32, "select entries must fit 32 bits"
    n_words = (n_bits + 63) >> 6
    bits = np.unpackbits(words[:n_words].view(np.uint8), bitorder="little", count=n_bits)
    return np.flatnonzero(bits)[::rate].astype(np.uint32)


def rank1(words, n_bits: int, lut, block_bits: int, i: int) -> int:
    """Ones in ``[0, i]`` — the thesis's inclusive rank — of an
    ``n_bits``-bit vector, from ``lut = rank_lut(..., block_bits)``."""
    if not 0 <= i < n_bits:
        raise IndexError(f"rank index {i} out of range [0, {n_bits})")
    w = i >> 6
    ones = lut[i // block_bits] + (words[w] & ((2 << (i & 63)) - 1)).bit_count()
    for x in range(i // block_bits * (block_bits >> 6), w):
        ones += words[x].bit_count()
    return ones


def select_in_word(word: int, k: int) -> int:
    """Bit offset of the k-th (1-based) set bit inside ``word``, by
    bytes through an offset table (at most 8 steps): the Python analogue
    of the broadword/PDEP select C implementations use."""
    for base in range(0, 64, 8):
        byte = word & 0xFF
        pop = byte.bit_count()
        if k <= pop:
            return base + _SELECT_IN_BYTE[byte][k - 1]
        k -= pop
        word >>= 8
    raise ValueError("word does not contain k set bits")


def select1(words, lut, block_bits: int, samples, rate: int, r: int) -> int:
    """Position of the r-th (1-based) one, from the rank LUT and the
    select samples at ``rate``.

    The sample of ``r`` bounds a ``bisect`` over the rank LUT from
    below, the LUT names the block that holds the bit, and its words are
    scanned by popcount: at most one block after the bisect.
    """
    if not 1 <= r <= lut[-1]:
        raise IndexError(f"select rank {r} out of range [1, {lut[-1]}]")
    start = samples[(r - 1) // rate]
    if not (r - 1) % rate:
        return start
    b = bisect_left(lut, r, start // block_bits + 1) - 1
    j = r - lut[b]
    w = b * (block_bits >> 6)
    word = words[w]
    ones = word.bit_count()
    while ones < j:
        j -= ones
        w += 1
        word = words[w]
        ones = word.bit_count()
    return (w << 6) + select_in_word(word, j)


def next_one(words, pos: int, end: int) -> int:
    """Position of the first one in ``[pos, end)``, else ``end``: a scan
    a word at a time."""
    if pos >= end:
        return end
    w = pos >> 6
    word = words[w] >> (pos & 63)
    if word:
        return min(pos + (word & -word).bit_length() - 1, end)
    last = (end - 1) >> 6
    while w < last:
        w += 1
        word = words[w]
        if word:
            return min((w << 6) + (word & -word).bit_length() - 1, end)
    return end
