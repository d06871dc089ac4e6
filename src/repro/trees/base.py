"""Common interface for every ordered index in the library.

Keys are always ``bytes`` (64-bit integers are big-endian encoded, see
:mod:`repro.workloads.keys`), and order is byte-wise lexicographic.
Memory is reported through :meth:`OrderedIndex.memory_bytes`, which
models the layout a C implementation of the same structure would use —
this is what makes the paper's memory comparisons meaningful in Python
(see DESIGN.md §1.3).
"""

from __future__ import annotations

import abc
from typing import Any, Iterator, Sequence

#: Modeled size of one pointer / tuple reference (64-bit machine).
POINTER_BYTES = 8
#: Modeled malloc bookkeeping per out-of-node heap allocation.
ALLOC_OVERHEAD_BYTES = 8


def heap_key_bytes(key: bytes, inline_threshold: int = 8) -> int:
    """Modeled heap cost of storing ``key`` outside a node slot in a
    *dynamic* structure.

    Keys up to ``inline_threshold`` bytes (i.e. 64-bit integers) are
    stored inline in the slot and cost nothing extra; longer keys are
    individual heap allocations: length plus allocator header.
    """
    if len(key) <= inline_threshold:
        return 0
    return len(key) + ALLOC_OVERHEAD_BYTES


def packed_key_bytes(key: bytes, inline_threshold: int = 8) -> int:
    """Modeled cost of the same key in a *static* structure: keys are
    concatenated into one array (no per-key allocation) with a 4-byte
    offset entry each — the Compaction Rule's layout."""
    if len(key) <= inline_threshold:
        return 0
    return len(key) + 4


class OrderedIndex(abc.ABC):
    """Abstract ordered key-value index (primary-index semantics).

    ``insert`` rejects duplicate keys (returns False); ``update``
    modifies an existing key's value in place.  Range access goes
    through :meth:`scan` / :meth:`lower_bound`, mirroring the operations
    the thesis benchmarks (YCSB point reads, updates, inserts, scans).
    """

    @abc.abstractmethod
    def insert(self, key: bytes, value: Any) -> bool:
        """Insert a new key; returns False if the key already exists."""

    @abc.abstractmethod
    def get(self, key: bytes) -> Any | None:
        """Point lookup; None if absent."""

    @abc.abstractmethod
    def update(self, key: bytes, value: Any) -> bool:
        """Overwrite an existing key's value; False if absent."""

    @abc.abstractmethod
    def delete(self, key: bytes) -> bool:
        """Remove a key; False if absent."""

    @abc.abstractmethod
    def lower_bound(self, key: bytes) -> Iterator[tuple[bytes, Any]]:
        """Iterate pairs with key >= the argument, in order."""

    @abc.abstractmethod
    def items(self) -> Iterator[tuple[bytes, Any]]:
        """Iterate all pairs in key order."""

    @abc.abstractmethod
    def __len__(self) -> int: ...

    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Modeled memory footprint (C layout), excluding the records."""

    # -- derived operations ------------------------------------------------

    def get_many(self, keys: Sequence[bytes]) -> list[Any | None]:
        """Batched point lookup: one result slot per key, in order.

        The default is a scalar loop so every structure answers the
        batch vocabulary.  A structure overrides it only with a path
        measured to beat this loop, bit-for-bit consistent with
        :meth:`get`.
        """
        return [self.get(key) for key in keys]

    def put(self, key: bytes, value: Any) -> None:
        """Upsert: insert the key or overwrite its value."""
        if not self.insert(key, value):
            self.update(key, value)

    def put_many(self, pairs: Sequence[tuple[bytes, Any]]) -> None:
        """Batched upsert: apply pairs in order (last write wins).

        Like :meth:`get_many`, the default is a scalar loop, and an
        override must be measured to beat it.
        """
        for key, value in pairs:
            self.put(key, value)

    def delete_many(self, keys: Sequence[bytes]) -> list[bool]:
        """Batched delete: one result slot per key, in order.

        A key repeated in the batch is deleted once; later occurrences
        report False, matching the sequential-apply semantics.
        """
        return [self.delete(key) for key in keys]

    def scan(self, key: bytes, count: int) -> list[tuple[bytes, Any]]:
        """Short range scan: first ``count`` pairs with key >= argument."""
        out: list[tuple[bytes, Any]] = []
        for pair in self.lower_bound(key):
            out.append(pair)
            if len(out) >= count:
                break
        return out

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None


class StaticOrderedIndex(OrderedIndex):
    """Base for read-only (D-to-S) structures: mutations raise."""

    def insert(self, key: bytes, value: Any) -> bool:
        raise TypeError(f"{type(self).__name__} is static; rebuild to insert")

    def update(self, key: bytes, value: Any) -> bool:
        raise TypeError(f"{type(self).__name__} is static; rebuild to update")

    def delete(self, key: bytes) -> bool:
        raise TypeError(f"{type(self).__name__} is static; rebuild to delete")
