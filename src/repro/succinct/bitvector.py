"""Plain bit vectors backed by numpy ``uint64`` words.

This is the base storage primitive for every succinct structure in the
library (LOUDS, LOUDS-Dense, LOUDS-Sparse, DFUDS).  Bits are addressed
LSB-first within each 64-bit word, so bit *i* lives in word ``i // 64``
at shift ``i % 64``.

The vector itself is append-only during construction (via
:class:`BitVectorBuilder`) and immutable afterwards, matching the static
data structures of the paper.  Construction offers bulk word-level
kernels (``append_word``, ``append_run``, ``from_words``,
:meth:`BitVector.from_bools`) so callers never pay a Python call per
bit; queries use a shared 16-bit popcount table for word-span counts.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

WORD_BITS = 64
_WORD_MASK = (1 << WORD_BITS) - 1

# 16-bit popcount table shared by every rank/select structure in the
# package: 64 KiB once per process.
_POP16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint32)


def _popcounts_per_word(words: np.ndarray) -> np.ndarray:
    """Vector of per-uint64 popcounts computed via the 16-bit table."""
    if len(words) == 0:
        return np.zeros(0, dtype=np.uint32)
    halves = words.view(np.uint16).reshape(len(words), WORD_BITS // 16)
    return _POP16[halves].sum(axis=1, dtype=np.uint32)


def pack_bools(bits: np.ndarray) -> np.ndarray:
    """Pack a 0/1 array into LSB-first ``uint64`` words (zero-padded)."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    pad = (-len(packed)) % 8
    if pad:
        packed = np.concatenate([packed, np.zeros(pad, dtype=np.uint8)])
    return packed.view(np.uint64)


def int_view(arr: np.ndarray) -> memoryview:
    """A zero-copy memoryview of a contiguous integer array whose items
    index to plain Python ints (a numpy array boxes each element).

    Cast through bytes to the native format: numpy exports an array at
    an unaligned offset — a view into a serialized blob — with a
    standard-size format (``=Q``) that memoryview cannot index.
    """
    return memoryview(arr).cast("B").cast(arr.dtype.char)


class BitVector:
    """An immutable sequence of bits.

    Parameters
    ----------
    words:
        The backing ``uint64`` array (LSB-first bit order).
    n_bits:
        Logical length; trailing bits of the last word must be zero
        (enforced — a dirty tail would silently corrupt
        :meth:`count_ones`, rank LUTs, and zero-select).
    """

    __slots__ = ("_words", "_n_bits")

    def __init__(self, words: np.ndarray, n_bits: int) -> None:
        if words.dtype != np.uint64:
            raise TypeError(f"words must be uint64, got {words.dtype}")
        if n_bits > len(words) * WORD_BITS:
            raise ValueError("n_bits exceeds capacity of words array")
        last = n_bits >> 6
        rem = n_bits & 63
        if rem and last < len(words) and int(words[last]) >> rem:
            raise ValueError(
                f"nonzero padding bits past position {n_bits} in last word"
            )
        tail = last + (1 if rem else 0)
        if tail < len(words) and words[tail:].any():
            raise ValueError(f"nonzero words past position {n_bits}")
        self._words = words
        self._n_bits = n_bits

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        """Build a vector from an iterable of 0/1 values."""
        arr = np.fromiter((1 if b else 0 for b in bits), dtype=np.uint8)
        return cls(pack_bools(arr), len(arr))

    @classmethod
    def from_bools(cls, bits: np.ndarray) -> "BitVector":
        """Build a vector from a 0/1 numpy array in one packbits pass."""
        return cls(pack_bools(bits), len(bits))

    @classmethod
    def zeros(cls, n_bits: int) -> "BitVector":
        n_words = (n_bits + WORD_BITS - 1) // WORD_BITS
        return cls(np.zeros(n_words, dtype=np.uint64), n_bits)

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return self._n_bits

    def __getitem__(self, i: int) -> int:
        if i < 0 or i >= self._n_bits:
            raise IndexError(f"bit index {i} out of range [0, {self._n_bits})")
        return (int(self._words[i >> 6]) >> (i & 63)) & 1

    def get(self, i: int) -> int:
        """Unchecked bit read (hot path for rank/select internals)."""
        return (int(self._words[i >> 6]) >> (i & 63)) & 1

    def __iter__(self) -> Iterator[int]:
        for i in range(self._n_bits):
            yield self.get(i)

    @property
    def words(self) -> np.ndarray:
        return self._words

    def word(self, k: int) -> int:
        """The k-th 64-bit word as a Python int."""
        return int(self._words[k])

    def count_ones(self) -> int:
        """Total number of set bits."""
        return int(_popcounts_per_word(self._words).sum())

    def popcount_range(self, start: int, stop: int) -> int:
        """Number of set bits in ``[start, stop)``.

        Small spans (the rank hot path: at most one 512-bit block) use a
        scalar word loop; wide spans batch the interior words through
        the 16-bit popcount table.
        """
        if start >= stop:
            return 0
        total = 0
        first_word, last_word = start >> 6, (stop - 1) >> 6
        if first_word == last_word:
            width = stop - start
            chunk = (int(self._words[first_word]) >> (start & 63)) & ((1 << width) - 1)
            return chunk.bit_count()
        head = int(self._words[first_word]) >> (start & 63)
        total += head.bit_count()
        if last_word - first_word > 8:
            total += int(
                _popcounts_per_word(self._words[first_word + 1 : last_word]).sum()
            )
        else:
            for w in range(first_word + 1, last_word):
                total += int(self._words[w]).bit_count()
        tail_bits = ((stop - 1) & 63) + 1
        tail = int(self._words[last_word]) & ((1 << tail_bits) - 1)
        total += tail.bit_count()
        return total

    def run_of_ones(self, pos: int) -> int:
        """Length of the run of consecutive set bits starting at ``pos``
        (word-wise scan; used for unary degree decoding)."""
        n = self._n_bits
        if pos >= n:
            return 0
        count = 0
        word_idx = pos >> 6
        shift = pos & 63
        n_words = (n + WORD_BITS - 1) >> 6
        while word_idx < n_words:
            # Invert so the first zero becomes the lowest set bit.
            inv = (~(int(self._words[word_idx]) >> shift)) & (_WORD_MASK >> shift)
            if inv:
                count += (inv & -inv).bit_length() - 1
                break
            count += WORD_BITS - shift
            word_idx += 1
            shift = 0
        return min(count, n - pos)

    # -- memory accounting ------------------------------------------------

    def size_bits(self) -> int:
        """Memory footprint of the raw bits (as stored, word-aligned)."""
        return len(self._words) * WORD_BITS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        prefix = "".join(str(self.get(i)) for i in range(min(64, self._n_bits)))
        suffix = "..." if self._n_bits > 64 else ""
        return f"BitVector({self._n_bits} bits: {prefix}{suffix})"


class BitVectorBuilder:
    """Append-only builder producing an immutable :class:`BitVector`.

    Besides the per-bit :meth:`append`, bulk kernels append 64 bits at a
    time: :meth:`append_word` splices a whole word in two shifts and
    :meth:`append_run` emits long runs word-wise, so building from runs
    or precomputed words costs O(n/64) Python operations, not O(n).
    """

    def __init__(self) -> None:
        self._words: list[int] = []
        self._current = 0
        self._n_bits = 0

    @classmethod
    def from_words(cls, words: Iterable[int] | np.ndarray, n_bits: int) -> "BitVectorBuilder":
        """A builder primed with ``n_bits`` bits taken from LSB-first words."""
        if isinstance(words, np.ndarray):
            words = words.tolist()
        builder = cls()
        remaining = n_bits
        for word in words:
            if remaining <= 0:
                break
            builder.append_word(int(word), min(WORD_BITS, remaining))
            remaining -= WORD_BITS
        if remaining > 0:
            raise ValueError("words supply fewer than n_bits bits")
        return builder

    def append(self, bit: int) -> None:
        if bit:
            self._current |= 1 << (self._n_bits & 63)
        self._n_bits += 1
        if (self._n_bits & 63) == 0:
            self._words.append(self._current)
            self._current = 0

    def append_word(self, word: int, width: int = WORD_BITS) -> None:
        """Append the low ``width`` bits of ``word``, LSB first."""
        if not 0 < width <= WORD_BITS:
            if width == 0:
                return
            raise ValueError(f"width must be in [0, {WORD_BITS}], got {width}")
        word &= _WORD_MASK if width == WORD_BITS else (1 << width) - 1
        off = self._n_bits & 63
        self._current |= (word << off) & _WORD_MASK
        self._n_bits += width
        if off + width >= WORD_BITS:
            self._words.append(self._current)
            self._current = word >> (WORD_BITS - off) if off else 0

    def append_run(self, bit: int, count: int) -> None:
        """Append ``count`` copies of ``bit`` (word-wise for long runs)."""
        if count <= 0:
            return
        fill = _WORD_MASK if bit else 0
        while count >= WORD_BITS:
            self.append_word(fill)
            count -= WORD_BITS
        if count:
            self.append_word(fill, count)

    def append_bits_lsb(self, value: int, width: int) -> None:
        """Append the low ``width`` bits of ``value``, LSB first."""
        while width > WORD_BITS:
            self.append_word(value & _WORD_MASK)
            value >>= WORD_BITS
            width -= WORD_BITS
        if width:
            self.append_word(value, width)

    def extend_bools(self, bits: np.ndarray) -> None:
        """Append a 0/1 numpy array through one packbits pass."""
        if len(bits) == 0:
            return
        words = pack_bools(bits)
        n = len(bits)
        for k in range(len(words)):
            self.append_word(int(words[k]), min(WORD_BITS, n - k * WORD_BITS))

    def __len__(self) -> int:
        return self._n_bits

    def build(self) -> BitVector:
        words = list(self._words)
        if self._n_bits & 63:
            words.append(self._current)
        arr = np.array(words, dtype=np.uint64) if words else np.zeros(0, dtype=np.uint64)
        return BitVector(arr, self._n_bits)
