"""A prefix Bloom filter (Section 4.2 related work).

RocksDB's prefix Bloom filters hash a fixed-length key prefix so that
queries constrained to one prefix ("where email starts with com.foo@")
can be filtered.  As the thesis notes, they are inflexible: a point
query for an absent key sharing a present key's prefix always false
positives, and general range queries cannot use them at all.
"""

from __future__ import annotations

from typing import Sequence

from .bloom import BloomFilter


class PrefixBloomFilter:
    """Bloom filter over fixed-length key prefixes."""

    def __init__(
        self,
        keys: Sequence[bytes],
        prefix_len: int,
        bits_per_key: float = 10.0,
    ) -> None:
        if prefix_len < 1:
            raise ValueError("prefix_len must be >= 1")
        self.prefix_len = prefix_len
        prefixes = sorted({k[:prefix_len] for k in keys})
        self._bloom = BloomFilter(prefixes, bits_per_key)

    def may_contain(self, key: bytes) -> bool:
        """Point probe: positive whenever the key's prefix is present."""
        return self._bloom.may_contain(key[: self.prefix_len])

    def may_contain_prefix(self, prefix: bytes) -> bool:
        """Prefix probe; only valid for exactly ``prefix_len`` bytes."""
        if len(prefix) != self.prefix_len:
            return True  # cannot answer: be conservative
        return self._bloom.may_contain(prefix)

    def may_contain_range(self, low: bytes, high: bytes) -> bool:
        """General ranges may span prefixes: conservatively True unless
        both bounds share one filterable prefix."""
        if low[: self.prefix_len] == high[: self.prefix_len]:
            return self.may_contain_prefix(low[: self.prefix_len])
        return True

    #: SuRF-vocabulary aliases (see :class:`~repro.filters.bloom.BloomFilter`).
    lookup = may_contain
    lookup_range = may_contain_range

    def size_bits(self) -> int:
        return self._bloom.size_bits()

    def memory_bytes(self) -> int:
        return self._bloom.memory_bytes()
