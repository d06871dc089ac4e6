"""Compact B+tree: the D-to-S Rules applied to the STX B+tree (Ch. 2).

Rule #1 (Compaction): every node is 100 % full — the leaf level is one
contiguous key/value array packed at full fanout.  Rule #2 (Structural
Reduction): internal nodes keep only separator key references; child
*pointers* are gone because nodes at each level are contiguous, so a
child's position is calculated from arithmetic on its parent's index
(the dashed arrows of Figure 2.3).

The structure is built in one pass from a sorted pair list and is
read-only afterwards.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, Sequence

import numpy as np

from ..bench.counters import COUNTERS
from ..trees.base import POINTER_BYTES, StaticOrderedIndex, packed_key_bytes
from ..trees.btree import DEFAULT_NODE_SLOTS


class CompactBPlusTree(StaticOrderedIndex):
    """Static, fully-packed B+tree with calculated child positions."""

    def __init__(
        self,
        pairs: Sequence[tuple[bytes, Any]],
        node_slots: int = DEFAULT_NODE_SLOTS,
    ) -> None:
        """Build from pairs sorted by key (strictly increasing keys)."""
        self._slots = node_slots
        self._keys: list[bytes] = [k for k, _ in pairs]
        self._values: list[Any] = [v for _, v in pairs]
        if any(
            self._keys[i] >= self._keys[i + 1] for i in range(len(self._keys) - 1)
        ):
            raise ValueError("pairs must be sorted by strictly increasing key")
        # Internal levels: level[0] is directly above the leaves; each
        # level stores the first key of every node one level below.
        self._levels: list[list[bytes]] = []
        current = self._keys
        while len(current) > node_slots:
            level = [
                current[i] for i in range(0, len(current), node_slots)
            ]
            self._levels.append(level)
            current = level
        self._levels.reverse()  # top level first

    # -- search -------------------------------------------------------------------

    def _locate(self, key: bytes) -> int:
        """Index of the first leaf entry with key >= the argument."""
        lo = 0  # node index at the current level
        for level in self._levels:
            start = lo * self._slots
            end = min(start + self._slots, len(level))
            COUNTERS.node_visit(
                self._slots * 2 * POINTER_BYTES,
                lines_touched=max(1, (end - start).bit_length()),
            )
            COUNTERS.key_compares(max(1, (end - start).bit_length()))
            # First entry > key, minus one = the child covering key.
            idx = bisect.bisect_right(level, key, start, end) - 1
            if idx < start:
                idx = start
            lo = idx
        start = lo * self._slots
        end = min(start + self._slots, len(self._keys))
        COUNTERS.node_visit(
            self._slots * 2 * POINTER_BYTES,
            lines_touched=max(1, (end - start).bit_length()),
        )
        COUNTERS.key_compares(max(1, (end - start).bit_length()))
        return bisect.bisect_left(self._keys, key, start, end)

    def get(self, key: bytes) -> Any | None:
        if not self._keys:
            return None
        idx = self._locate(key)
        if idx < len(self._keys) and self._keys[idx] == key:
            return self._values[idx]
        return None

    def _key_array(self) -> np.ndarray:
        """Leaf keys as an object array for batched ``searchsorted``
        (dtype=object: numpy 'S' padding would collide keys that differ
        only in trailing NUL bytes).  Built lazily — a query-time
        accelerator excluded from :meth:`memory_bytes`."""
        arr = getattr(self, "_keys_arr", None)
        if arr is None:
            arr = np.empty(len(self._keys), dtype=object)
            arr[:] = self._keys
            self._keys_arr = arr
        return arr

    def get_many(self, keys: Sequence[bytes]) -> list[Any | None]:
        """Batched :meth:`get`: one ``searchsorted`` over the packed
        leaf array answers the whole batch."""
        if not self._keys or not keys:
            return [None] * len(keys)
        queries = np.empty(len(keys), dtype=object)
        queries[:] = list(keys)
        idx = np.searchsorted(self._key_array(), queries, side="left")
        if COUNTERS.enabled:
            for key in keys:
                self._locate(key)
        out: list[Any | None] = [None] * len(keys)
        n = len(self._keys)
        for i, pos in enumerate(idx.tolist()):
            if pos < n and self._keys[pos] == keys[i]:
                out[i] = self._values[pos]
        return out

    def lower_bound(self, key: bytes) -> Iterator[tuple[bytes, Any]]:
        if not self._keys:
            return
        idx = self._locate(key)
        for i in range(idx, len(self._keys)):
            yield self._keys[i], self._values[i]

    def items(self) -> Iterator[tuple[bytes, Any]]:
        yield from zip(self._keys, self._values)

    def __len__(self) -> int:
        return len(self._keys)

    # -- statistics ------------------------------------------------------------------

    @property
    def height(self) -> int:
        return len(self._levels) + 1

    def memory_bytes(self) -> int:
        # Leaves: packed key reference + value slots, no slack; string
        # keys live in one concatenated array with 4-byte offsets.
        total = len(self._keys) * 2 * POINTER_BYTES
        total += sum(packed_key_bytes(k) for k in self._keys)
        # Internal levels: separator key references only (children are
        # located by calculation, not pointers).
        for level in self._levels:
            total += len(level) * POINTER_BYTES
        return total
