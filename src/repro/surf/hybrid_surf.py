"""A modifiable range filter: the hybrid-index extension of SuRF (§4.5).

"For applications that require modifiable range filters, one can
extend SuRF using a hybrid index: a small dynamic trie sits in front of
the SuRF and absorbs all inserts and updates; batch merges periodically
rebuild the SuRF, amortizing the cost of individual modifications."

The dynamic stage here is an exact in-memory set (a B+tree of keys), so
its answers are precise; the static stage is a SuRF with the §4.5
tombstone bit-array for deletions.  Rebuilds need the original keys —
in the motivating LSM deployment those live in the SSTables, so the
retained key list models *storage-resident* data and is excluded from
the filter's memory accounting.
"""

from __future__ import annotations

from typing import Sequence

from ..trees.btree import BPlusTree
from .surf import SuRF, SuffixType


class HybridSuRF:
    """Dual-stage approximate range filter with inserts and deletes."""

    def __init__(
        self,
        keys: Sequence[bytes] = (),
        suffix_type: SuffixType = "real",
        merge_ratio: int = 10,
        min_merge_size: int = 256,
        **surf_kwargs,
    ) -> None:
        if suffix_type == "real" and "real_bits" not in surf_kwargs:
            surf_kwargs["real_bits"] = 4
        self._suffix_type = suffix_type
        self._surf_kwargs = surf_kwargs
        self.merge_ratio = merge_ratio
        self.min_merge_size = min_merge_size
        #: Storage-resident canonical key set (excluded from memory).
        self._static_keys: list[bytes] = sorted(keys)
        #: The static stage's live keys: ``_static_keys`` less deletes.
        self._static_live = set(self._static_keys)
        self.static = self._build_static(self._static_keys)
        self.dynamic = BPlusTree()
        self.merge_count = 0

    def _build_static(self, keys: list[bytes]) -> SuRF:
        return SuRF(keys, suffix_type=self._suffix_type, **self._surf_kwargs)

    # -- mutations ------------------------------------------------------------------

    def insert(self, key: bytes) -> bool:
        """Absorb a new key into the dynamic stage; False (and no
        change) if the key is already live in either stage."""
        if key in self._static_live:
            return False
        inserted = self.dynamic.insert(key, True)
        if inserted and self._should_merge():
            self.merge()
        return inserted

    def delete(self, key: bytes) -> bool:
        """Remove a key: drop it from the dynamic stage or tombstone
        the static filter (the §4.5 delete)."""
        if self.dynamic.delete(key):
            return True
        if key in self._static_live:
            self._static_live.discard(key)
            return self.static.delete(key)
        return False

    def _should_merge(self) -> bool:
        dyn = len(self.dynamic)
        if len(self._static_keys) == 0:
            return dyn >= self.min_merge_size
        return dyn * self.merge_ratio >= len(self._static_keys)

    def merge(self) -> None:
        """Rebuild the SuRF over the merged live key set."""
        merged = sorted(self._static_live.union(k for k, _ in self.dynamic.items()))
        self._static_keys = merged
        self._static_live = set(merged)
        self.static = self._build_static(merged)
        self.dynamic = BPlusTree()
        self.merge_count += 1

    # -- probes ----------------------------------------------------------------------

    def lookup(self, key: bytes) -> bool:
        """One-sided point membership across both stages."""
        if self.dynamic.get(key) is not None:
            return True
        return self.static.lookup(key)

    def lookup_range(self, low: bytes, high: bytes) -> bool:
        """One-sided range membership: any key in [low, high)?"""
        for k, _ in self.dynamic.lower_bound(low):
            if k < high:
                return True
            break
        return self.static.lookup_range(low, high)

    # -- accounting -------------------------------------------------------------------

    def size_bits(self) -> int:
        """Filter memory: the SuRF plus the dynamic-stage tree.  The
        canonical key list models storage-resident data (see module
        docstring) and is excluded, matching the paper's filter-size
        measurements."""
        return self.static.size_bits() + self.dynamic.memory_bytes() * 8

    def memory_bytes(self) -> int:
        return (self.size_bits() + 7) // 8

    def __len__(self) -> int:
        return len(self._static_live) + len(self.dynamic)
