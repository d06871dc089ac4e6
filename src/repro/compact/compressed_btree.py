"""Compressed B+tree: the Compression Rule applied on top of Compact
B+tree (Section 2.4).

Only leaf nodes are compressed, so a point query decompresses at most
one node; a CLOCK cache of recently decompressed nodes bounds that
cost.  The thesis uses Snappy; we substitute ``zlib`` level 1 (stdlib,
same fast-block-codec role — see DESIGN.md §1.3).

Values must be 64-bit integers (record pointers), as in the paper's
index workloads, so leaves serialize without an object pickler.
"""

from __future__ import annotations

import bisect
import struct
import zlib
from typing import Any, Iterator, Sequence

import numpy as np

from ..bench.counters import COUNTERS
from ..trees.base import POINTER_BYTES, StaticOrderedIndex
from ..trees.btree import DEFAULT_NODE_SLOTS
from .node_cache import ClockNodeCache

COMPRESSION_LEVEL = 1  # fast codec, like Snappy/LZ4
DEFAULT_CACHE_NODES = 32


def _pack_leaf(keys: Sequence[bytes], values: Sequence[int]) -> bytes:
    """n | value[n] | key_offset[n+1] | key bytes."""
    n = len(keys)
    offsets = [0]
    for k in keys:
        offsets.append(offsets[-1] + len(k))
    return (
        struct.pack("<I", n)
        + struct.pack(f"<{n}q", *values)
        + struct.pack(f"<{n + 1}I", *offsets)
        + b"".join(keys)
    )


def _unpack_leaf(blob: bytes) -> tuple[list[bytes], list[int]]:
    (n,) = struct.unpack_from("<I", blob, 0)
    values = list(struct.unpack_from(f"<{n}q", blob, 4))
    offsets = struct.unpack_from(f"<{n + 1}I", blob, 4 + 8 * n)
    key_base = 4 + 8 * n + 4 * (n + 1)
    keys = [blob[key_base + offsets[i] : key_base + offsets[i + 1]] for i in range(n)]
    return keys, values


class CompressedBPlusTree(StaticOrderedIndex):
    """Static B+tree with zlib-compressed leaves and a CLOCK cache."""

    def __init__(
        self,
        pairs: Sequence[tuple[bytes, Any]],
        node_slots: int = DEFAULT_NODE_SLOTS,
        cache_nodes: int = DEFAULT_CACHE_NODES,
    ) -> None:
        keys = [k for k, _ in pairs]
        if any(keys[i] >= keys[i + 1] for i in range(len(keys) - 1)):
            raise ValueError("pairs must be sorted by strictly increasing key")
        self._slots = node_slots
        self._len = len(pairs)
        self._leaf_blobs: list[bytes] = []
        self._leaf_first_keys: list[bytes] = []
        self._uncompressed_bytes = 0
        for start in range(0, len(pairs), node_slots):
            chunk = pairs[start : start + node_slots]
            raw = _pack_leaf([k for k, _ in chunk], [v for _, v in chunk])
            self._uncompressed_bytes += len(raw)
            self._leaf_blobs.append(zlib.compress(raw, COMPRESSION_LEVEL))
            self._leaf_first_keys.append(chunk[0][0])
        # Separator levels over leaf first-keys (as in CompactBPlusTree).
        self._levels: list[list[bytes]] = []
        current = self._leaf_first_keys
        while len(current) > node_slots:
            current = [current[i] for i in range(0, len(current), node_slots)]
            self._levels.append(current)
        self._levels.reverse()
        self._cache = ClockNodeCache(cache_nodes)
        self._first_keys_arr: np.ndarray | None = None

    # -- leaf access ---------------------------------------------------------------

    def _leaf(self, idx: int) -> tuple[list[bytes], list[int]]:
        return self._cache.get_or_load(
            idx, lambda: _unpack_leaf(zlib.decompress(self._leaf_blobs[idx]))
        )

    def _leaf_index(self, key: bytes) -> int:
        """Index of the leaf that may contain ``key``."""
        idx = bisect.bisect_right(self._leaf_first_keys, key) - 1
        return max(idx, 0)

    # -- queries ----------------------------------------------------------------------

    def get(self, key: bytes) -> Any | None:
        if not self._leaf_blobs:
            return None
        leaf_idx = self._leaf_index(key)
        COUNTERS.node_visit(len(self._leaf_blobs[leaf_idx]))
        keys, values = self._leaf(leaf_idx)
        i = bisect.bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            return values[i]
        return None

    def get_many(self, keys: Sequence[bytes]) -> list[Any | None]:
        """Batched :meth:`get`: one ``searchsorted`` over the leaf
        first-key array routes the whole batch, then each distinct leaf
        is decompressed once and all its queries answered together."""
        if not self._leaf_blobs or not keys:
            return [None] * len(keys)
        first = self._first_keys_arr
        if first is None:
            # dtype=object: 'S' padding would collide trailing-NUL keys.
            first = np.empty(len(self._leaf_first_keys), dtype=object)
            first[:] = self._leaf_first_keys
            self._first_keys_arr = first
        queries = np.empty(len(keys), dtype=object)
        queries[:] = list(keys)
        leaf_idx = np.maximum(
            np.searchsorted(first, queries, side="right") - 1, 0
        )
        out: list[Any | None] = [None] * len(keys)
        # Group by leaf so each node is decompressed at most once.
        order = np.argsort(leaf_idx, kind="stable")
        cur_leaf = -1
        leaf_keys: list[bytes] = []
        leaf_values: list[int] = []
        for qi in order.tolist():
            li = int(leaf_idx[qi])
            if li != cur_leaf:
                if COUNTERS.enabled:
                    COUNTERS.node_visit(len(self._leaf_blobs[li]))
                leaf_keys, leaf_values = self._leaf(li)
                cur_leaf = li
            elif COUNTERS.enabled:
                COUNTERS.node_visit(len(self._leaf_blobs[li]))
            key = keys[qi]
            i = bisect.bisect_left(leaf_keys, key)
            if i < len(leaf_keys) and leaf_keys[i] == key:
                out[qi] = leaf_values[i]
        return out

    def lower_bound(self, key: bytes) -> Iterator[tuple[bytes, Any]]:
        if not self._leaf_blobs:
            return
        leaf_idx = self._leaf_index(key)
        keys, values = self._leaf(leaf_idx)
        i = bisect.bisect_left(keys, key)
        while leaf_idx < len(self._leaf_blobs):
            keys, values = self._leaf(leaf_idx)
            while i < len(keys):
                yield keys[i], values[i]
                i += 1
            leaf_idx += 1
            i = 0

    def items(self) -> Iterator[tuple[bytes, Any]]:
        for leaf_idx in range(len(self._leaf_blobs)):
            keys, values = self._leaf(leaf_idx)
            yield from zip(keys, values)

    def __len__(self) -> int:
        return self._len

    # -- statistics ----------------------------------------------------------------------

    def compression_ratio(self) -> float:
        compressed = sum(len(b) for b in self._leaf_blobs)
        return compressed / self._uncompressed_bytes if self._uncompressed_bytes else 1.0

    def memory_bytes(self) -> int:
        total = sum(len(b) for b in self._leaf_blobs)
        total += len(self._leaf_blobs) * POINTER_BYTES  # blob pointers
        for level in [self._leaf_first_keys, *self._levels]:
            total += len(level) * POINTER_BYTES
        # Cache holds up to `capacity` uncompressed nodes (bounded by
        # the number of distinct nodes it could ever hold).
        avg_node = self._uncompressed_bytes // max(1, len(self._leaf_blobs))
        total += min(self._cache.capacity, len(self._leaf_blobs)) * avg_node
        return total
