"""A standard Bloom filter (Section 4.2's baseline).

Uses the double-hashing scheme (h1 + i*h2) over a 64-bit FNV-1a base
hash, the same construction RocksDB's full-key Bloom filters use.  The
number of probes is chosen optimally for the configured bits per key
(k = bits_per_key * ln 2).
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

import zlib

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def hash64(key: bytes, seed: int = 0) -> int:
    """Deterministic 64-bit hash of ``key`` (seeded).

    Built from two C-speed CRC32 rounds plus a splitmix-style finaliser
    — a filter probe must not cost a per-byte interpreted loop (the
    paper's point is that Bloom probes are nearly free).
    """
    lo = zlib.crc32(key, seed & 0xFFFFFFFF)
    hi = zlib.crc32(key, (seed >> 32) ^ 0xDEADBEEF & 0xFFFFFFFF)
    h = (lo | (hi << 32)) & _MASK64
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    h = (h ^ (h >> 27)) * 0x94D049BB133111EB & _MASK64
    return h ^ (h >> 31)


def hash64_many(keys: Sequence[bytes], seed: int = 0) -> np.ndarray:
    """:func:`hash64` of every key, as one uint64 array: the CRC rounds
    run through ``map`` and the finaliser is column arithmetic (uint64
    products wrap modulo 2^64, which is the ``& _MASK64`` above)."""
    n = len(keys)
    lo, hi = (
        np.fromiter(map(zlib.crc32, keys, itertools.repeat(start, n)), np.uint64, n)
        for start in (seed & 0xFFFFFFFF, (seed >> 32) ^ 0xDEADBEEF & 0xFFFFFFFF)
    )
    h = lo | (hi << np.uint64(32))
    h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(31))


class BloomFilter:
    """Approximate membership filter with one-sided error."""

    def __init__(
        self,
        keys: Sequence[bytes],
        bits_per_key: float = 10.0,
        expected_keys: int | None = None,
    ) -> None:
        """``expected_keys`` sizes the bit array for filters that are
        filled incrementally after construction (e.g. the hybrid
        index's dynamic-stage filter)."""
        self.n_keys = len(keys)
        self.bits_per_key = bits_per_key
        n_bits = max(64, int(max(len(keys), expected_keys or 0) * bits_per_key))
        self.n_bits = n_bits
        self.k = max(1, round(bits_per_key * math.log(2)))
        self._words = np.zeros((n_bits + 63) // 64, dtype=np.uint64)
        # Python-int mirror of the words: scalar probes read this to
        # avoid boxing a numpy scalar per probe (the batch path gathers
        # from the numpy array directly).  Built lazily on view-backed
        # filters (:meth:`from_bytes` with ``copy=False``).
        self._word_ints: list[int] | None = self._words.tolist()
        self.n_keys = 0
        self.add_many(keys)

    def _probes(self, key: bytes) -> Iterable[int]:
        h1 = hash64(key, 0)
        h2 = hash64(key, _GOLDEN) | 1
        for i in range(self.k):
            yield ((h1 + i * h2) & _MASK64) % self.n_bits

    def _set(self, key: bytes) -> None:
        if not self._words.flags.writeable:
            # A view-backed filter (from_bytes(copy=False)) aliases a
            # caller-owned read-only buffer — typically an mmap'd
            # SSTable.  Mutating it would either raise a cryptic numpy
            # error or silently corrupt the shared file; refuse loudly.
            raise ValueError(
                "cannot insert into a read-only BloomFilter deserialized "
                "with copy=False; reload with copy=True to mutate"
            )
        for bit in self._probes(key):
            self._words[bit >> 6] |= np.uint64(1 << (bit & 63))
            if self._word_ints is not None:
                self._word_ints[bit >> 6] |= 1 << (bit & 63)

    def add(self, key: bytes) -> None:
        """Insert one key incrementally (no rebuild).  Raises on
        read-only view-backed filters, like :meth:`add_many`."""
        self._set(key)
        self.n_keys += 1

    def add_many(self, keys: Sequence[bytes]) -> None:
        """Vectorized bulk insert: all ``k * N`` probe positions are
        computed as one uint64 array and OR-scattered into the word
        array in a single ufunc pass — the write-side twin of
        :meth:`may_contain_many`."""
        n = len(keys)
        if n == 0:
            return
        if not self._words.flags.writeable:
            raise ValueError(
                "cannot insert into a read-only BloomFilter deserialized "
                "with copy=False; reload with copy=True to mutate"
            )
        h1 = hash64_many(keys, 0)
        h2 = hash64_many(keys, _GOLDEN) | np.uint64(1)
        steps = np.arange(self.k, dtype=np.uint64)
        bits = (h1[:, None] + steps[None, :] * h2[:, None]) % np.uint64(self.n_bits)
        flat = bits.ravel()
        masks = np.uint64(1) << (flat & np.uint64(63))
        np.bitwise_or.at(self._words, (flat >> np.uint64(6)).astype(np.int64), masks)
        # The int mirror is stale now; scalar probes rebuild it lazily.
        self._word_ints = None
        self.n_keys += n

    def may_contain(self, key: bytes) -> bool:
        words = self._word_ints
        if words is None:
            words = self._word_ints = self._words.tolist()
        for bit in self._probes(key):
            if not (words[bit >> 6] >> (bit & 63)) & 1:
                return False
        return True

    def may_contain_many(self, keys: Sequence[bytes]) -> list[bool]:
        """Batched :meth:`may_contain`: all ``k * N`` probe positions are
        computed as one uint64 array and tested with a single gather."""
        n = len(keys)
        if n == 0:
            return []
        h1 = np.fromiter((hash64(k, 0) for k in keys), dtype=np.uint64, count=n)
        h2 = np.fromiter(
            (hash64(k, _GOLDEN) | 1 for k in keys), dtype=np.uint64, count=n
        )
        # uint64 arithmetic wraps modulo 2^64, matching ``& _MASK64``.
        steps = np.arange(self.k, dtype=np.uint64)
        bits = (h1[:, None] + steps[None, :] * h2[:, None]) % np.uint64(self.n_bits)
        words = self._words[(bits >> np.uint64(6)).astype(np.int64)]
        present = (words >> (bits & np.uint64(63))) & np.uint64(1)
        return present.all(axis=1).tolist()

    # Bloom filters cannot answer range queries: every range probe must
    # conservatively return True (this is the Figure 4.9 comparison).
    def may_contain_range(self, low: bytes, high: bytes) -> bool:
        return True

    def may_contain_range_many(
        self, pairs: Sequence[tuple[bytes, bytes]]
    ) -> list[bool]:
        return [True] * len(pairs)

    #: SuRF-vocabulary aliases: every filter answers lookup/lookup_range
    #: and may_contain/may_contain_range interchangeably.
    lookup = may_contain
    lookup_range = may_contain_range
    lookup_many = may_contain_many
    lookup_range_many = may_contain_range_many

    def size_bits(self) -> int:
        return self.n_bits

    def memory_bytes(self) -> int:
        return (self.n_bits + 7) // 8

    # -- serialization (persisted per-SSTable by the durable LSM) ---------

    def to_bytes(self) -> bytes:
        """Little-endian header + the raw bit-array words."""
        import struct

        header = struct.pack(
            "<4sQQdI", b"BLM1", self.n_keys, self.n_bits, self.bits_per_key, self.k
        )
        return header + self._words.tobytes()

    @classmethod
    def from_bytes(cls, data, copy: bool = True) -> "BloomFilter":
        """Deserialize from :meth:`to_bytes` output (any bytes-like).

        ``copy=True`` (default): the word array is an owned copy —
        safe to mutate, independent of ``data``'s lifetime.

        ``copy=False``: the word array is an ``np.frombuffer`` *view*
        aliasing ``data`` — zero-copy, read-only (:meth:`_set`
        refuses), and alive only as long as the caller keeps the
        backing buffer alive.  This is the mmap'd-SSTable path.
        """
        import struct

        header_size = struct.calcsize("<4sQQdI")
        magic, n_keys, n_bits, bits_per_key, k = struct.unpack_from(
            "<4sQQdI", data, 0
        )
        if magic != b"BLM1":
            raise ValueError("not a BloomFilter blob (bad magic)")
        words = np.frombuffer(data[header_size:], dtype=np.uint64)
        if copy:
            words = words.copy()
        if len(words) != (n_bits + 63) // 64:
            raise ValueError("corrupt BloomFilter blob: word count mismatch")
        flt = cls.__new__(cls)
        flt.n_keys = n_keys
        flt.bits_per_key = bits_per_key
        flt.n_bits = n_bits
        flt.k = k
        flt._words = words
        # Deferred: scalar probes build the int mirror on first use, so
        # deserializing N filters costs no per-word Python loop.
        flt._word_ints = None
        return flt
