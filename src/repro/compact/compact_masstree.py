"""Compact Masstree: the D-to-S Rules applied to Masstree (Figure 2.4).

After Compaction and Structural Reduction, each trie node's internal
B+tree is flattened into a single sorted keyslice array searched with
binary search ("performing a binary search is as fast as searching a
B+tree in Masstree"), and the per-leaf keybags are replaced by one
concatenated suffix byte array per trie node with an offset array
marking suffix starts.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, Sequence

from ..bench.counters import COUNTERS
from ..trees.base import POINTER_BYTES, StaticOrderedIndex
from ..trees.masstree import SLICE_BYTES, slice_key


class _CompactLayer:
    """One flattened trie node: parallel sorted arrays plus a suffix heap."""

    __slots__ = ("slice_keys", "entries", "suffix_bytes", "suffix_offsets")

    def __init__(self) -> None:
        self.slice_keys: list[bytes] = []  # 9-byte encoded slices, sorted
        self.entries: list[Any] = []  # value, or a child _CompactLayer
        # Concatenated suffixes with an offsets array (offsets[i] marks
        # the start of entry i's suffix; one extra sentinel at the end).
        self.suffix_bytes = b""
        self.suffix_offsets: list[int] = []

    def suffix(self, idx: int) -> bytes:
        return self.suffix_bytes[self.suffix_offsets[idx] : self.suffix_offsets[idx + 1]]


class CompactMasstree(StaticOrderedIndex):
    """Static Masstree with flattened layers, built from sorted pairs."""

    def __init__(self, pairs: Sequence[tuple[bytes, Any]]) -> None:
        keys = [k for k, _ in pairs]
        if any(keys[i] >= keys[i + 1] for i in range(len(keys) - 1)):
            raise ValueError("pairs must be sorted by strictly increasing key")
        self._len = len(pairs)
        self._root = self._build(pairs, 0)

    def _build(self, pairs: Sequence[tuple[bytes, Any]], depth: int) -> _CompactLayer:
        layer = _CompactLayer()
        suffixes: list[bytes] = []
        i = 0
        while i < len(pairs):
            fragment = pairs[i][0][depth : depth + SLICE_BYTES]
            skey = slice_key(fragment)
            j = i
            while (
                j < len(pairs)
                and pairs[j][0][depth : depth + SLICE_BYTES] == fragment
            ):
                j += 1
            layer.slice_keys.append(skey)
            if j - i == 1:
                layer.entries.append(pairs[i][1])
                suffixes.append(pairs[i][0][depth + SLICE_BYTES :])
            else:
                layer.entries.append(
                    self._build(pairs[i:j], depth + SLICE_BYTES)
                )
                suffixes.append(b"")
            i = j
        offsets = [0]
        for s in suffixes:
            offsets.append(offsets[-1] + len(s))
        layer.suffix_bytes = b"".join(suffixes)
        layer.suffix_offsets = offsets
        return layer

    # -- queries -----------------------------------------------------------------------

    def get(self, key: bytes) -> Any | None:
        layer = self._root
        depth = 0
        while True:
            skey = slice_key(key[depth : depth + SLICE_BYTES])
            COUNTERS.node_visit(
                len(layer.slice_keys) * 2 * POINTER_BYTES,
                lines_touched=max(1, len(layer.slice_keys).bit_length()),
            )
            COUNTERS.key_compares(max(1, len(layer.slice_keys).bit_length()))
            idx = bisect.bisect_left(layer.slice_keys, skey)
            if idx >= len(layer.slice_keys) or layer.slice_keys[idx] != skey:
                return None
            entry = layer.entries[idx]
            if isinstance(entry, _CompactLayer):
                layer = entry
                depth += SLICE_BYTES
                continue
            COUNTERS.key_compares(1)
            if layer.suffix(idx) == key[depth + SLICE_BYTES :]:
                return entry
            return None

    def _emit_layer(
        self, layer: _CompactLayer, prefix: bytes
    ) -> Iterator[tuple[bytes, Any]]:
        for idx, skey in enumerate(layer.slice_keys):
            fragment = skey[: skey[SLICE_BYTES]]
            entry = layer.entries[idx]
            if isinstance(entry, _CompactLayer):
                yield from self._emit_layer(entry, prefix + fragment)
            else:
                yield prefix + fragment + layer.suffix(idx), entry

    def items(self) -> Iterator[tuple[bytes, Any]]:
        yield from self._emit_layer(self._root, b"")

    def lower_bound(self, key: bytes) -> Iterator[tuple[bytes, Any]]:
        yield from self._lb_layer(self._root, b"", key)

    def _lb_layer(
        self, layer: _CompactLayer, prefix: bytes, key: bytes
    ) -> Iterator[tuple[bytes, Any]]:
        rest = key[len(prefix) :]
        target = slice_key(rest[:SLICE_BYTES])
        start = bisect.bisect_left(layer.slice_keys, target)
        for idx in range(start, len(layer.slice_keys)):
            skey = layer.slice_keys[idx]
            fragment = skey[: skey[SLICE_BYTES]]
            entry = layer.entries[idx]
            if skey == target:
                if isinstance(entry, _CompactLayer):
                    yield from self._lb_layer(entry, prefix + fragment, key)
                else:
                    full = prefix + fragment + layer.suffix(idx)
                    if full >= key:
                        yield full, entry
            elif isinstance(entry, _CompactLayer):
                yield from self._emit_layer(entry, prefix + fragment)
            else:
                yield prefix + fragment + layer.suffix(idx), entry

    def __len__(self) -> int:
        return self._len

    # -- statistics ---------------------------------------------------------------------

    def _walk_layers(self) -> Iterator[_CompactLayer]:
        stack = [self._root]
        while stack:
            layer = stack.pop()
            yield layer
            for entry in layer.entries:
                if isinstance(entry, _CompactLayer):
                    stack.append(entry)

    def memory_bytes(self) -> int:
        """Slice keys (8B) + value/child slots (8B) + length byte per
        entry, plus the exact suffix heap and 4-byte offsets."""
        total = 0
        for layer in self._walk_layers():
            n = len(layer.slice_keys)
            total += n * (SLICE_BYTES + POINTER_BYTES + 1)
            total += len(layer.suffix_bytes)
            total += (n + 1) * 4  # offset array
        return total
