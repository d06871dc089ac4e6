"""Level-wise trie construction for FST and SuRF (Chapters 3-4).

The builder turns a sorted key list into per-level label / has-child /
louds sequences, independent of the final encoding (LOUDS-Dense or
LOUDS-Sparse).  Two modes:

* ``truncate=False`` — the FST mode: keys are stored completely, so a
  branch terminates exactly where its key ends.
* ``truncate=True``  — the SuRF mode: a subtree holding a single key is
  truncated to its first distinguishing byte (SuRF-Base stores "the
  shared prefix and one more byte for each key", Section 4.1.1); the
  remaining suffix is reported to the caller for optional suffix bits.

A key that is a proper prefix of other keys is represented by the
*prefix-key* pseudo-label :data:`PREFIX_LABEL` placed first in its node
(encoded later as D-IsPrefixKey in dense levels and as the positional
0xFF label in sparse levels: the thesis's ``$``).  Such a key is a
proper prefix of its successor, so its node always holds a second
label — except in the trie of the lone empty key.

The build is column arithmetic over the concatenated keys, with no
per-key Python work.  Every label of the trie is attributed to the
first key whose path runs through it, so key ``i`` emits the labels at
depths ``lcp(i-1, i)`` through its *terminal* depth, where the
longest common prefix with its neighbours decides everything:

* ``m = max(lcp(i-1, i), lcp(i, i+1))`` is the depth of the first node
  that holds no other key's path; a key of length ``m`` is a prefix of
  its successor (or the only key) and terminates there as the
  prefix-key label;
* otherwise the terminal depth is ``m`` when truncating (one byte past
  the shared prefix) and ``len - 1`` when not;
* the first label a key emits opens a new node unless it is the label
  at depth ``lcp(i-1, i)``, which joins key ``i-1``'s node.

Within a depth the labels come out in key order, which is level order,
so a stable sort of the labels by depth lays out every level at once.
Transient memory is O(total key bytes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

#: Pseudo-label marking "the path to this node is itself a key".
#: Sorts before every real label (0..255).
PREFIX_LABEL = -1


@dataclass
class LevelData:
    """The label sequence of one trie level, in level order (a view of
    :class:`BuiltTrie`'s columns)."""

    labels: np.ndarray  # int16; PREFIX_LABEL for the prefix-key label
    has_child: np.ndarray  # bool
    louds: np.ndarray  # bool; True = first label in its node
    values: list[Any]  # one per terminating label, in label order
    n_nodes: int


class SuffixColumn:
    """``suffixes[i]``: the bytes of ``keys[i]`` cut off by truncation
    (empty when the full key is stored), kept as spans of one buffer
    of the concatenated keys."""

    __slots__ = ("_buf", "_start", "_len")

    def __init__(self, buf: np.ndarray, start: np.ndarray, length: np.ndarray) -> None:
        self._buf = buf  # uint8, at least one byte
        self._start = start
        self._len = length

    def __len__(self) -> int:
        return len(self._len)

    def __getitem__(self, i: int) -> bytes:
        start = int(self._start[i])
        return self._buf[start : start + int(self._len[i])].tobytes()

    def leading_bits(self, n_bits: int) -> np.ndarray:
        """The first ``n_bits`` (at most 64) of every suffix, MSB first
        and zero-padded, as one uint64 array: SuRF-Real's suffix bits."""
        width = (n_bits + 7) // 8
        bits = np.zeros(len(self._len), dtype=np.uint64)
        top = len(self._buf) - 1
        for j in range(width):
            byte = np.where(
                self._len > j, self._buf[np.minimum(self._start + j, top)], 0
            )
            bits = (bits << np.uint64(8)) | byte.astype(np.uint64)
        return bits >> np.uint64(width * 8 - n_bits)


@dataclass
class BuiltTrie:
    """Builder output: every level's sequences back to back in level
    order (one column each, cut at ``level_starts``), plus key
    statistics."""

    labels: np.ndarray  # int16; PREFIX_LABEL for the prefix-key label
    has_child: np.ndarray  # bool
    louds: np.ndarray  # bool; True = first label in its node
    #: One per terminating label, in label (leaf) order; by default the
    #: key positions, i.e. the leaf -> key permutation.
    values: list[Any]
    #: Where each level starts in the label columns / in ``values``,
    #: plus the end (``height + 1`` entries each).
    level_starts: np.ndarray
    value_starts: np.ndarray
    node_counts: np.ndarray  # nodes per level
    n_keys: int
    #: ``suffixes[i]`` is the byte suffix of ``keys[i]`` cut off by
    #: truncation (empty when the full key is stored).
    suffixes: SuffixColumn

    @property
    def height(self) -> int:
        return len(self.level_starts) - 1

    @property
    def levels(self) -> list[LevelData]:
        """One view of the columns per level."""
        ls, vs = self.level_starts.tolist(), self.value_starts.tolist()
        return [
            LevelData(self.labels[a:b], self.has_child[a:b], self.louds[a:b], self.values[va:vb], n)
            for a, b, va, vb, n in zip(ls, ls[1:], vs, vs[1:], self.node_counts.tolist())
        ]

    def total_nodes(self) -> int:
        return int(self.node_counts.sum())

    def total_labels(self) -> int:
        return len(self.labels)


def _adjacent_lcp(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Longest common prefix of every pair of neighbouring keys.

    Only the bytes both keys of a pair have are compared (the sum of the
    pairs' shorter lengths), so one long key costs its neighbours'
    lengths, not a row per key; they are compared eight at a time, as
    the unaligned 8-byte words of ``buf`` (which must end in 7 pad
    bytes).  A word XOR viewed as bytes is the bytewise XOR in memory
    order whatever the machine's byte order, so its first non-zero
    byte is where the keys part.
    """
    n = len(lens)
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    shared = np.minimum(lens[:-1], lens[1:])
    lcp = shared.copy()
    words = np.ndarray(len(buf) - 7, dtype=np.uint64, buffer=buf, strides=(1,))
    n_words = (shared + 7) // 8
    pair = np.repeat(np.arange(n - 1), n_words)
    depth = 8 * (np.arange(len(pair)) - np.repeat(np.cumsum(n_words) - n_words, n_words))
    left = starts[:-1][pair] + depth
    diff = words[left] ^ words[left + lens[:-1][pair]]
    hits = np.flatnonzero(diff)
    if hits.size:
        first = np.ones(hits.size, dtype=bool)
        first[1:] = pair[hits[1:]] != pair[hits[:-1]]
        hits = hits[first]
        part = (diff[hits].view(np.uint8).reshape(-1, 8) != 0).argmax(axis=1)
        # A word may run past the shorter key into bytes that differ.
        lcp[pair[hits]] = np.minimum(depth[hits] + part, shared[pair[hits]])
    return lcp


def build_trie(
    keys: Sequence[bytes],
    values: Sequence[Any] | None = None,
    truncate: bool = False,
) -> BuiltTrie:
    """Build level data from sorted, distinct keys.

    ``values[i]`` is attached to ``keys[i]``; defaults to the key index.
    """
    n = len(keys)
    if values is not None and len(values) != n:
        raise ValueError("values must parallel keys")
    lens = np.fromiter(map(len, keys), dtype=np.int64, count=n)
    starts = np.cumsum(lens) - lens
    # Eight pad bytes: the LCP's last word, a prefix key's terminal
    # "byte" and a suffix read past the last key stay inside the buffer.
    buf = np.frombuffer(b"".join(keys) + bytes(8), dtype=np.uint8)
    lcp = _adjacent_lcp(buf, starts, lens)
    # Strictly increasing: the successor is longer than the shared
    # prefix, and either the key ends there or its next byte is smaller.
    if not (
        (lcp < lens[1:])
        & ((lcp == lens[:-1]) | (buf[starts[:-1] + lcp] < buf[starts[1:] + lcp]))
    ).all():
        raise ValueError("keys must be sorted and distinct")

    # Per key: the depth it branches off its predecessor, the depth of
    # its own node (m), and the depth of its terminal label.
    left = np.zeros(n, dtype=np.int64)
    left[1:] = lcp
    m = left.copy()
    m[:-1] = np.maximum(m[:-1], lcp)
    prefix = lens == m
    term = m if truncate else np.where(prefix, m, lens - 1)

    # Every label, grouped by key: key i emits depths left[i]..term[i].
    count = term - left + 1
    last = np.cumsum(count) - 1  # each key's terminal label
    first = last - count + 1
    depth = np.arange(int(count.sum())) - np.repeat(first - left, count)
    labels = buf[np.repeat(starts, count) + depth].astype(np.int16)
    labels[last[prefix]] = PREFIX_LABEL
    has_child = np.ones(len(depth), dtype=bool)
    has_child[last] = False
    louds = np.ones(len(depth), dtype=bool)
    louds[first[1:]] = False

    # Level order is (depth, key): a stable sort by depth (radix-sorted
    # for the usual key lengths); terminal values likewise by depth.
    widths = np.bincount(depth)
    height = len(widths)
    node_counts = np.bincount(depth[louds], minlength=height)
    narrow = np.min_scalar_type(int(lens.max(initial=0)))
    order = np.argsort(depth.astype(narrow), kind="stable")
    labels, has_child, louds = labels[order], has_child[order], louds[order]
    # `$` opens its node, so it is alone there iff the next label opens
    # the next node (or there is none): only {b""} builds such a node.
    node_last = np.append(louds[1:], True)
    assert n == 1 or not (node_last & (labels == PREFIX_LABEL)).any(), (
        "a prefix-key label alone in its node"
    )
    by_term = np.argsort(term.astype(narrow), kind="stable").tolist()
    if values is not None:
        by_term = list(map(values.__getitem__, by_term))

    if truncate:  # what follows the terminal label (nothing after a prefix key)
        suffixes = SuffixColumn(buf, starts + m + 1, np.where(prefix, 0, lens - m - 1))
    else:
        empty = np.zeros(n, dtype=np.int64)
        suffixes = SuffixColumn(np.zeros(1, dtype=np.uint8), empty, empty)
    return BuiltTrie(
        labels=labels,
        has_child=has_child,
        louds=louds,
        values=by_term,
        level_starts=np.concatenate(([0], np.cumsum(widths))),
        value_starts=np.concatenate(([0], np.cumsum(np.bincount(term, minlength=height)))),
        node_counts=node_counts,
        n_keys=n,
        suffixes=suffixes,
    )
