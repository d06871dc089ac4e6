"""Compact ART: the D-to-S Rules applied to the Adaptive Radix Tree.

ART's variable node shapes prevent the contiguous-level trick, so the
Compaction Rule instead *custom-sizes* every node (Section 2.2): a node
with ``n`` children uses Layout 1 (key array + child array, both length
``n``) when ``n <= 227`` and Layout 3 (the flat 256-slot pointer array)
otherwise — the exact crossover at which Layout 3 becomes smaller.
Lazy expansion and path compression carry over from dynamic ART, and
leaves remain 8-byte record pointers.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from ..bench.counters import COUNTERS
from ..trees.base import StaticOrderedIndex

#: Layout 1 beats the 256-slot array while n*(1+8) + 16 < 16 + 256*8.
LAYOUT1_MAX_FANOUT = 227
_HEADER_BYTES = 16
LEAF_BYTES = 8


class _StaticLeaf:
    __slots__ = ("key", "value")

    def __init__(self, key: bytes, value: Any) -> None:
        self.key = key
        self.value = value


class _StaticNode:
    __slots__ = ("prefix", "keys", "children", "terminal")

    def __init__(
        self,
        prefix: bytes,
        keys: list[int],
        children: list[Any],
        terminal: _StaticLeaf | None,
    ) -> None:
        self.prefix = prefix
        self.keys = keys
        self.children = children
        self.terminal = terminal

    def layout_bytes(self) -> int:
        n = len(self.keys) + (1 if self.terminal is not None else 0)
        if n <= LAYOUT1_MAX_FANOUT:
            return _HEADER_BYTES + n * (1 + 8)
        return _HEADER_BYTES + 256 * 8

    def find(self, byte: int) -> Any | None:
        # Layout 1: binary search the custom-sized key array;
        # Layout 3 would index directly — behaviourally identical.
        keys = self.keys
        lo, hi = 0, len(keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if keys[mid] < byte:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(keys) and keys[lo] == byte:
            return self.children[lo]
        return None


def _common_prefix_len(a: bytes, b: bytes, start: int) -> int:
    n = min(len(a), len(b))
    i = start
    while i < n and a[i] == b[i]:
        i += 1
    return i - start


class CompactART(StaticOrderedIndex):
    """Static ART with custom-sized nodes, built from sorted pairs."""

    def __init__(self, pairs: Sequence[tuple[bytes, Any]]) -> None:
        keys = [k for k, _ in pairs]
        if any(keys[i] >= keys[i + 1] for i in range(len(keys) - 1)):
            raise ValueError("pairs must be sorted by strictly increasing key")
        self._len = len(pairs)
        self._root = self._build(pairs, 0) if pairs else None

    def _build(self, pairs: Sequence[tuple[bytes, Any]], depth: int) -> Any:
        if len(pairs) == 1:
            return _StaticLeaf(pairs[0][0], pairs[0][1])  # lazy expansion
        first_key = pairs[0][0]
        last_key = pairs[-1][0]
        # Path compression: extend the shared prefix as far as possible.
        shared = _common_prefix_len(first_key, last_key, depth)
        prefix = first_key[depth : depth + shared]
        depth += shared
        terminal: _StaticLeaf | None = None
        start = 0
        if len(first_key) == depth:
            terminal = _StaticLeaf(first_key, pairs[0][1])
            start = 1
        branch_keys: list[int] = []
        children: list[Any] = []
        group_start = start
        while group_start < len(pairs):
            byte = pairs[group_start][0][depth]
            group_end = group_start
            while group_end < len(pairs) and pairs[group_end][0][depth] == byte:
                group_end += 1
            branch_keys.append(byte)
            children.append(self._build(pairs[group_start:group_end], depth + 1))
            group_start = group_end
        return _StaticNode(prefix, branch_keys, children, terminal)

    # -- queries ----------------------------------------------------------------------

    def get(self, key: bytes) -> Any | None:
        node = self._root
        depth = 0
        while node is not None:
            if isinstance(node, _StaticLeaf):
                COUNTERS.node_visit(LEAF_BYTES, lines_touched=1)
                COUNTERS.key_compares(1)
                return node.value if node.key == key else None
            size = node.layout_bytes()
            COUNTERS.node_visit(size, lines_touched=1 if size <= 128 else 2)
            if node.prefix:
                if key[depth : depth + len(node.prefix)] != node.prefix:
                    return None
                depth += len(node.prefix)
            if depth == len(key):
                return node.terminal.value if node.terminal is not None else None
            node = node.find(key[depth])
            depth += 1
        return None

    def _emit_all(self, node: Any) -> Iterator[tuple[bytes, Any]]:
        if isinstance(node, _StaticLeaf):
            yield node.key, node.value
            return
        if node.terminal is not None:
            yield node.terminal.key, node.terminal.value
        for child in node.children:
            yield from self._emit_all(child)

    def _lb(self, node: Any, path: bytes, key: bytes) -> Iterator[tuple[bytes, Any]]:
        if isinstance(node, _StaticLeaf):
            if node.key >= key:
                yield node.key, node.value
            return
        full = path + node.prefix
        key_prefix = key[: len(full)]
        if full > key_prefix:
            yield from self._emit_all(node)
            return
        if full < key_prefix:
            return
        if len(key) <= len(full):
            yield from self._emit_all(node)
            return
        branch = key[len(full)]
        for byte, child in zip(node.keys, node.children):
            if byte < branch:
                continue
            if byte == branch:
                yield from self._lb(child, full + bytes([byte]), key)
            else:
                yield from self._emit_all(child)

    def lower_bound(self, key: bytes) -> Iterator[tuple[bytes, Any]]:
        if self._root is not None:
            yield from self._lb(self._root, b"", key)

    def items(self) -> Iterator[tuple[bytes, Any]]:
        if self._root is not None:
            yield from self._emit_all(self._root)

    def __len__(self) -> int:
        return self._len

    # -- statistics ----------------------------------------------------------------------

    def memory_bytes(self) -> int:
        total = self._len * LEAF_BYTES
        stack = [self._root] if self._root is not None else []
        while stack:
            node = stack.pop()
            if isinstance(node, _StaticNode):
                total += node.layout_bytes()
                stack.extend(node.children)
        return total
