"""The Fast Succinct Trie (Chapter 3): LOUDS-DS encoding + operations.

The upper levels of the trie are encoded with LOUDS-Dense (three
bitmaps per node: D-Labels, D-HasChild, D-IsPrefixKey), the lower
levels with LOUDS-Sparse (S-Labels byte sequence, S-HasChild, S-LOUDS).
The dense/sparse cutoff follows the paper's size-ratio rule with
``R = 64`` by default: the cutoff is the largest level l such that
``dense_size(l) * R <= sparse_size(l)``.

The trie is its arrays: five ``uint64`` bitmaps, the S-Labels bytes,
one ``uint32`` rank LUT per bitmap (Section 3.6: 64-bit blocks on the
dense bitmaps, 512-bit on the sparse ones) and the S-LOUDS select
samples (rate 64).  Every operation reads memoryviews of exactly the
arrays :meth:`FST.size_bits` counts: a point probe is one flat walk
with rank and select inlined (:meth:`FST._lookup`); the iterator, the
range count and the leaf ranks call the rank/select functions of
:mod:`repro.succinct.bitvector` on the same views.  A walk ends at a
terminal's *leaf rank*, its index in label order, which an index FST
maps through its value column and SuRF uses to index its suffix
columns and tombstones.

S-Labels are bytes.  The prefix-key label ``$`` is 0xFF at a node's
first slot: a real 0xFF sorts last in its node, and a node holding
only ``$`` cannot exist (see :mod:`.builder`), so 0xFF at ``start`` is
``$`` iff the node has another label (:func:`_is_dollar`).

The label-search strategy is configurable (``vector`` = the SIMD
stand-in, ``binary``, ``linear``) for the Figure 3.6 ablation.

Supports ``get``, ``seek`` (LowerBound iterator), ``next``, ``items``
and the approximate-free ``count`` used by SuRF's range counts.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Any, Iterator, Sequence

import numpy as np

from ..bench.counters import COUNTERS
from ..succinct.bitvector import (
    int_view,
    next_one,
    pack_bools,
    rank1,
    rank_lut,
    select1,
    select_in_word,
    select_samples,
)
from .builder import PREFIX_LABEL, BuiltTrie, build_trie

FANOUT = 256

#: Default LOUDS-Sparse : LOUDS-Dense size ratio (Section 3.4).
DEFAULT_SIZE_RATIO = 64

_DENSE_RANK_BLOCK = 64
_SPARSE_RANK_BLOCK = 512
_SELECT_SAMPLE = 64
#: Bits per entry of the select block directory :meth:`FST.size_bits`
#: charges; the walks read the S-LOUDS rank LUT in its place.
_SELECT_DIRECTORY_BLOCK = 512

#: The S-Labels byte of ``$``, the prefix-key label.
DOLLAR = 0xFF


def _is_dollar(labels, start: int, end: int) -> bool:
    """Is the first label of the sparse node [start, end) ``$``?"""
    return end - start > 1 and bool(labels[start] == DOLLAR)


def _ones_before(rank: tuple, i: int) -> int:
    """Set bits in ``[0, i)`` of a bitmap given by its ``rank1``
    arguments."""
    return rank1(*rank, i - 1) if i > 0 else 0


def _choose_dense_levels(trie: BuiltTrie, size_ratio: float) -> int:
    """Largest cutoff l with dense_size(l) * R <= sparse_size(l)."""
    # dense_size(l): nodes above l cost 2*256+1 bits each.
    # sparse_size(l): labels at level >= l cost 8+1+1 bits each.
    nodes_above = np.concatenate(([0], np.cumsum(trie.node_counts)))
    labels_below = trie.total_labels() - trie.level_starts
    fits = nodes_above * (2 * FANOUT + 1) * size_ratio <= labels_below * 10
    return int(np.flatnonzero(fits)[-1])


class FST:
    """Static succinct trie mapping byte keys to values."""

    def __init__(
        self,
        keys: Sequence[bytes],
        values: Sequence[Any] | None = None,
        size_ratio: float = DEFAULT_SIZE_RATIO,
        dense_levels: int | None = None,
        truncate: bool = False,
        label_search: str = "binary",
        sparse_rank_block: int = _SPARSE_RANK_BLOCK,
        select_sample: int = _SELECT_SAMPLE,
    ) -> None:
        trie = build_trie(keys, values, truncate=truncate)
        if values is None:  # the key positions: 4 bytes each, not a list
            trie.values = array("I", trie.values)
        self._build(
            trie, truncate, size_ratio, dense_levels, label_search,
            sparse_rank_block, select_sample,
        )

    @classmethod
    def _from_trie(cls, trie: BuiltTrie, truncate: bool, **kwargs) -> "FST":
        """An FST over a trie its caller built and reads on after
        (SuRF takes its suffix bits from the trie's suffix column);
        ``kwargs`` are the constructor's encoding options."""
        fst = cls.__new__(cls)
        fst._build(trie, truncate, **kwargs)
        return fst

    def _build(
        self,
        trie: BuiltTrie,
        truncate: bool,
        size_ratio: float = DEFAULT_SIZE_RATIO,
        dense_levels: int | None = None,
        label_search: str = "binary",
        sparse_rank_block: int = _SPARSE_RANK_BLOCK,
        select_sample: int = _SELECT_SAMPLE,
    ) -> None:
        """Encode ``trie``; the FST keeps none of the builder's columns."""
        if label_search not in ("vector", "binary", "linear"):
            raise ValueError("label_search must be vector|binary|linear")
        self._label_search = label_search
        self.n_keys = trie.n_keys
        self.height = trie.height
        self.truncated = truncate
        #: One value per key in leaf order (default: the key positions,
        #: a ``uint32`` array); None for a trie that stores none
        #: (SuRF's), whose lookups answer the leaf rank itself.
        self.values: Sequence[Any] | None = trie.values
        if dense_levels is None:
            dense_levels = _choose_dense_levels(trie, size_ratio)
        if len(trie.labels) == 1 and trie.labels[0] == PREFIX_LABEL:
            # The lone empty key: a sparse node of only `$` would read
            # as a real 0xFF, so the root is dense (D-IsPrefixKey).
            dense_levels = 1
        self.dense_height = min(dense_levels, trie.height)
        self._encode(trie)
        self._finish(sparse_rank_block, select_sample)

    # -- encoding -------------------------------------------------------------

    def _encode(self, trie: BuiltTrie) -> None:
        dh = self.dense_height
        # The first ``dh`` levels are dense, the rest sparse: each part is
        # one slice of the builder's level-ordered columns.
        cut = int(trie.level_starts[dh])
        # ---- dense levels ----
        # Bitmap assembly is a pure scatter: each real label sets bit
        # (node * 256 + label) in D-Labels (and D-HasChild when it has
        # one), so the whole dense part is encoded with numpy word
        # kernels — no per-bit or per-level Python work.
        labels = trie.labels[:cut].astype(np.int64)
        node_of = np.cumsum(trie.louds[:cut]) - 1  # dense node number
        dense_node_count = int(trie.node_counts[:dh].sum())
        words = dense_node_count * (FANOUT // 64)
        real = labels >= 0  # PREFIX_LABEL has no bitmap position
        child = real & trie.has_child[:cut]
        bitmaps = []
        for mask in (real, child):
            pos = node_of[mask] * FANOUT + labels[mask]
            bits = np.zeros(words, dtype=np.uint64)
            np.bitwise_or.at(
                bits, pos >> 6, np.left_shift(np.uint64(1), (pos & 63).astype(np.uint64))
            )
            bitmaps.append(bits)
        self.d_labels, self.d_haschild = bitmaps
        is_prefix = np.zeros(dense_node_count, dtype=np.uint8)
        is_prefix[node_of[~real]] = 1
        self.d_isprefix = pack_bools(is_prefix)
        self.dense_node_count = dense_node_count
        self.dense_child_count = int(child.sum())

        # ---- sparse levels ----
        # uint8: PREFIX_LABEL (-1) wraps to DOLLAR (0xFF).
        self.s_labels = trie.labels[cut:].astype(np.uint8)
        self.s_haschild = pack_bools(trie.has_child[cut:])
        self.s_louds = pack_bools(trie.louds[cut:])
        self.sparse_node_count = int(trie.node_counts[dh:].sum())

    def _finish(
        self,
        sparse_rank_block: int = _SPARSE_RANK_BLOCK,
        select_sample: int = _SELECT_SAMPLE,
    ) -> None:
        """Build the rank LUTs and the select samples over the encoded
        words and bind the views every walk reads (run after building and
        after loading, :func:`~repro.fst.serialize.fst_from_bytes`).

        The views alias exactly the arrays :meth:`size_bits` counts; the
        FST keeps no other table.
        """
        n_dense = self.dense_node_count * FANOUT
        n_labels = len(self.s_labels)
        bitmaps = (
            (self.d_labels, n_dense, _DENSE_RANK_BLOCK),
            (self.d_haschild, n_dense, _DENSE_RANK_BLOCK),
            (self.d_isprefix, self.dense_node_count, _DENSE_RANK_BLOCK),
            (self.s_haschild, n_labels, sparse_rank_block),
            (self.s_louds, n_labels, sparse_rank_block),
        )
        #: ``rank1`` arguments of each bitmap: (words, bits, LUT, block).
        ranks = [
            (int_view(words), n_bits, int_view(rank_lut(words, n_bits, block)), block)
            for words, n_bits, block in bitmaps
        ]
        self._rank_dl, self._rank_dh, self._rank_dp, self._rank_hc, _ = ranks
        #: Word views of D-Labels, D-HasChild, D-IsPrefixKey, S-HasChild
        #: and S-LOUDS.
        self._dl, self._dh, self._dp, self._hc, self._louds = (rank[0] for rank in ranks)
        dl_lut, dh_lut, dp_lut, hc_lut, louds_lut = (rank[2] for rank in ranks)
        samples = int_view(select_samples(self.s_louds, n_labels, select_sample))
        #: ``select1`` arguments over S-LOUDS: the sparse node starts.
        self._select_louds = (self._louds, louds_lut, sparse_rank_block, samples, select_sample)
        #: Terminals in the dense levels: the leaf rank of the first
        #: sparse terminal.
        self.dense_leaves = dl_lut[-1] - dh_lut[-1] + dp_lut[-1]
        self._walk = (
            self._dl, self._dh, self._dp, dl_lut, dh_lut, dp_lut,
            self.dense_height,
            self.dense_node_count,
            self.s_labels,
            int_view(self.s_labels),
            self._hc, hc_lut, self._louds, louds_lut, samples,
            select_sample,
            sparse_rank_block,
            sparse_rank_block // 64,
            self.dense_leaves,
            self.dense_child_count - self.dense_node_count,
        )

    # -- basic node navigation ---------------------------------------------------

    def _sparse_node_range(self, snode: int) -> tuple[int, int]:
        """Label index range [start, end) of sparse node ``snode``
        (0-based): its S-LOUDS bit, and the next one (nodes are small,
        so a word scan beats a second select)."""
        start = select1(*self._select_louds, snode + 1)
        return start, next_one(self._louds, start + 1, len(self.s_labels))

    # -- leaf ranks ------------------------------------------------------------------

    def _dense_leaf_rank(self, pos: int) -> int:
        """Leaf rank of the dense terminating label at ``pos``."""
        node = pos // FANOUT
        return (
            rank1(*self._rank_dp, node)
            + rank1(*self._rank_dl, pos)
            - rank1(*self._rank_dh, pos)
            - 1
        )

    def _dense_prefix_leaf_rank(self, node: int) -> int:
        """Leaf rank of dense ``node``'s prefix key."""
        first = node * FANOUT
        return (
            rank1(*self._rank_dp, node) - 1
            + _ones_before(self._rank_dl, first)
            - _ones_before(self._rank_dh, first)
        )

    def _sparse_leaf_rank(self, idx: int) -> int:
        """Leaf rank of the sparse terminating label at ``idx``."""
        return self.dense_leaves + idx - rank1(*self._rank_hc, idx)

    # -- point lookup -----------------------------------------------------------------

    def get(self, key: bytes) -> Any | None:
        """Exact-match lookup (None if absent).

        In truncate mode a lookup that exhausts the stored prefix
        returns the stored value — the caller (SuRF) must verify suffix
        bits itself.  A trie without a value column answers the leaf
        rank.
        """
        found = self._lookup(key)
        if found is None:
            return None
        values = self.values
        return found[0] if values is None else values[found[0]]

    def _lookup(self, key: bytes) -> tuple[int, bytes] | None:
        """Returns (leaf rank, remaining_key_after_stored_prefix) or None.

        One flat LOUDS-DS walk (Sections 3.3-3.6) over the views bound
        by :meth:`_finish`.  Each level is a few word reads and integer
        operations, with no function call for rank or select:

        * rank is inlined as ``lut[block] + (word & mask).bit_count()``
          (plus the whole words before ``word`` in its block when the
          sparse block is wider than 64 bits);
        * a sparse node's start is ``select1(node + 1)`` on S-LOUDS: the
          select sample bounds a ``bisect`` over the S-LOUDS rank LUT,
          which names the block that holds the bit; its words are
          scanned by popcount, and the bit is found in its word through
          the byte offset table;
        * the node's end is the next S-LOUDS bit, found by word scan;
        * the label search is the configured ``label_search`` mode,
          past a ``$`` at the node's first slot.
        """
        if self.n_keys == 0:
            return None
        (
            d_labels, d_haschild, d_isprefix, dl_lut, dh_lut, dp_lut,
            dense_height, dense_nodes, s_labels, labels, haschild, hc_lut,
            louds, louds_lut, samples, rate, block, block_words, dense_leaves,
            child_base,
        ) = self._walk
        profiling = COUNTERS.enabled
        n = len(key)
        node = level = 0
        # ---- LOUDS-Dense: a bit test and a rank per level ----
        while level < dense_height:
            # A D-Labels word, the colocated D-HasChild word, and
            # (amortised) the dense rank LUT line.
            if profiling:
                COUNTERS.node_visit(2 * FANOUT // 8, lines_touched=2)
            if level == n:
                w, bit = node >> 6, node & 63
                if not (d_isprefix[w] >> bit) & 1:
                    return None
                # Prefix keys up to this node's, plus the terminal
                # labels of every node before it (node * 256 is a word
                # boundary, so the LUT entry is the whole rank).
                first = node << 2
                rank = (
                    dp_lut[w] + (d_isprefix[w] & ((2 << bit) - 1)).bit_count() - 1
                    + dl_lut[first] - dh_lut[first]
                )
                return rank, b""
            pos = (node << 8) | key[level]
            w = pos >> 6
            bit = 1 << (pos & 63)
            lw = d_labels[w]
            if not lw & bit:
                return None
            hw = d_haschild[w]
            upto = (bit << 1) - 1
            if not hw & bit:
                remaining = key[level + 1 :]
                if remaining and not self.truncated:
                    return None
                pw, pbit = node >> 6, node & 63
                rank = (
                    dp_lut[pw] + (d_isprefix[pw] & ((2 << pbit) - 1)).bit_count()
                    + dl_lut[w] + (lw & upto).bit_count()
                    - dh_lut[w] - (hw & upto).bit_count() - 1
                )
                return rank, remaining
            node = dh_lut[w] + (hw & upto).bit_count()  # global child number
            level += 1
            if node >= dense_nodes:
                break
        else:
            # Ran out of dense levels while still inside them: the trie
            # is fully dense and the key is longer than every path.
            if dense_height == self.height:
                return None
        # ---- LOUDS-Sparse: select, label search and rank per level ----
        n_labels = len(labels)
        last_word = len(louds) - 1
        mode = self._label_search
        snode = node - dense_nodes
        while True:
            # Node start = select1(snode + 1) over S-LOUDS.
            start = samples[snode // rate]
            if snode % rate:
                r = snode + 1
                b = bisect_left(louds_lut, r, start // block + 1) - 1
                j = r - louds_lut[b]
                w = b * block_words
                word = louds[w]
                ones = word.bit_count()
                while ones < j:
                    j -= ones
                    w += 1
                    word = louds[w]
                    ones = word.bit_count()
                start = (w << 6) + (
                    (word & -word).bit_length() - 1 if j == 1 else select_in_word(word, j)
                )
            # Node end = the next S-LOUDS bit (nodes are small).
            p = start + 1
            w = p >> 6
            word = louds[w] >> (p & 63) if p < n_labels else 0
            while not word and w < last_word:
                w += 1
                word = louds[w]
                p = w << 6
            end = p + (word & -word).bit_length() - 1 if word else n_labels
            # The label chunk (SIMD-sized), the S-HasChild word, and the
            # rank/select LUT line; >90 % of nodes fit one 16-label
            # chunk (Section 3.6).
            if profiling:
                COUNTERS.node_visit(
                    end - start + 16, lines_touched=2 + (end - start) // 16
                )
            if level == n:
                if end - start == 1 or labels[start] != DOLLAR:
                    return None
                idx = start  # the prefix-key label: terminal
            else:
                byte = key[level]
                if mode == "binary":
                    # Past the first slot the node is sorted; the first
                    # label is the byte unless it is `$` (_is_dollar).
                    idx = bisect_left(labels, byte, start + 1, end)
                    if idx == end or labels[idx] != byte:
                        if labels[start] != byte or (byte == DOLLAR and end - start > 1):
                            return None
                        idx = start
                elif mode == "linear":
                    idx = start + _is_dollar(labels, start, end)
                    while idx < end and labels[idx] != byte:
                        idx += 1
                    if idx == end:
                        return None
                else:
                    # numpy vectorized equality: the SIMD-search stand-in.
                    lo = start + _is_dollar(labels, start, end)
                    hits = np.flatnonzero(s_labels[lo:end] == byte)
                    if not len(hits):
                        return None
                    idx = lo + int(hits[0])
            # rank1(idx) over S-HasChild.
            w = idx >> 6
            hw = haschild[w]
            bit = idx & 63
            ones = hc_lut[idx // block] + (hw & ((2 << bit) - 1)).bit_count()
            for x in range(idx // block * block_words, w):
                ones += haschild[x].bit_count()
            if not (hw >> bit) & 1:
                remaining = key[level + 1 :]
                if remaining and not self.truncated:
                    return None
                return dense_leaves + idx - ones, remaining
            snode = child_base + ones
            level += 1

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return self.n_keys

    # -- iteration -----------------------------------------------------------------------

    def seek(self, key: bytes) -> "FstIterator":
        """Iterator at the smallest stored entry >= ``key``.

        If the smallest qualifying stored entry is a strict *prefix* of
        ``key`` (possible in truncate mode, or for full tries a shorter
        key), the iterator is positioned there with ``fp_flag`` set, as
        SuRF's moveToNext requires.
        """
        it = FstIterator(self)
        it._seek(key)
        return it

    def iter_all(self) -> "FstIterator":
        it = FstIterator(self)
        it._leftmost_from_root()
        return it

    def items(self) -> Iterator[tuple[bytes, Any]]:
        """All (stored key, value) pairs in order (truncated keys in
        truncate mode)."""
        it = self.iter_all()
        while it.valid:
            yield it.key(), it.value()
            it.next()

    def lower_bound(self, key: bytes) -> Iterator[tuple[bytes, Any]]:
        """Exact lower-bound iteration over complete keys (FST mode)."""
        it = self.seek(key)
        if it.valid and it.fp_flag and it.key() != key:
            it.next()
        while it.valid:
            yield it.key(), it.value()
            it.next()

    # -- counting --------------------------------------------------------------------------

    def count_range(self, low: bytes, high: bytes) -> int:
        """Number of stored keys in [low, high).

        Exact for complete tries; for truncated (SuRF) tries boundary
        prefixes can over-count by at most two (Section 4.1.5).
        """
        if low >= high:
            return 0
        return self._count_before(self.seek(high)) - self._count_before(self.seek(low))

    def _count_before(self, it: "FstIterator") -> int:
        """Stored entries before a seeked iterator's entry, plus a
        constant of the trie — SuRF's ``approxCount`` (Section 4.1.5)
        read off the per-level cursors :meth:`seek` leaves behind.

        Per level, it sums the terminals before that level's *boundary*.
        On a level the iterator's frames cover, the boundary is the
        frame's cursor: a dense node's prefix key sorts before every
        real label of its node, and a last frame under ``fp_flag`` (a
        stored strict prefix of the sought key) counts itself.  Below
        the last frame, or below the root's end once the iterator ran
        past every entry, the boundary is the start of the first child
        whose parent label is not before the level above's boundary.
        The terminals before each level's start are the constant: they
        cancel in :meth:`count_range`'s difference, so no per-level
        table is kept.
        """
        dense_height = self.dense_height
        frames = it.frames
        total = 0
        for level, node, pos, start, _end in frames:
            boundary = start if pos < 0 else pos + (it.fp_flag and level == len(frames) - 1)
            total += self._terminals_before(level, boundary, node, pos >= 0)
        if frames:
            level = len(frames)
        else:  # past every entry: the whole root is before it
            level = 1
            boundary = FANOUT if dense_height else next_one(self._louds, 1, len(self.s_labels))
            total += self._terminals_before(0, boundary, 0, True)
        for level in range(level, self.height):
            # The HasChild bits before the boundary number the children
            # before it (level order; the root is node 0).
            if level - 1 < dense_height:
                child = _ones_before(self._rank_dh, boundary) + 1
            else:
                child = self.dense_child_count + _ones_before(self._rank_hc, boundary) + 1
            snode = child - self.dense_node_count
            if level < dense_height:
                boundary = child * FANOUT
            elif snode < self.sparse_node_count:
                boundary = select1(*self._select_louds, snode + 1)
            else:
                boundary = len(self.s_labels)
            total += self._terminals_before(level, boundary, child, False)
        return total

    def _terminals_before(self, level: int, pos: int, node: int, with_prefix: bool) -> int:
        """Terminals before position ``pos`` of ``level``'s node ``node``
        (``pos`` is a D-Labels bit or an S-Labels index); on a dense
        level, ``node``'s own prefix key counts ``with_prefix``."""
        if level >= self.dense_height:
            return pos - _ones_before(self._rank_hc, pos)
        return (
            _ones_before(self._rank_dl, pos)
            - _ones_before(self._rank_dh, pos)
            + _ones_before(self._rank_dp, node + with_prefix)
        )

    # -- memory ---------------------------------------------------------------------------

    def size_bits(self, value_bits: int = 0) -> int:
        """Encoded size in bits; ``value_bits`` charges per stored value
        (e.g. SuRF suffix width); pointer values are excluded as in the
        paper's index measurements.

        Charged: the bitmaps' words, the S-Labels bytes, 32 bits per
        rank LUT entry (not the total) and per select sample, and the
        select's 32-bit block directory over S-LOUDS, one entry per 512
        bits (the walks read the S-LOUDS rank LUT in its place).
        """
        ranks = (self._rank_dl, self._rank_dh, self._rank_dp, self._rank_hc)
        louds, louds_lut, _block, samples, _rate = self._select_louds
        n_labels = len(self.s_labels)
        words = sum(len(rank[0]) for rank in ranks) + len(louds)
        luts = sum(len(rank[2]) - 1 for rank in ranks) + len(louds_lut) - 1
        directory = -(-n_labels // _SELECT_DIRECTORY_BLOCK)
        return (
            64 * words
            + 8 * n_labels
            + 32 * (luts + len(samples) + directory)
            + self.n_keys * value_bits
        )

    def memory_bytes(self) -> int:
        return (self.size_bits() + 7) // 8

    # -- serialization (values must be non-negative ints) -------------------

    def to_bytes(self) -> bytes:
        """Serialize the encoded trie (see :mod:`repro.fst.serialize`)."""
        from .serialize import fst_to_bytes

        return fst_to_bytes(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "FST":
        from .serialize import fst_from_bytes

        return fst_from_bytes(data)

    def bits_per_node(self) -> float:
        total = self.dense_node_count + self.sparse_node_count
        return self.size_bits() / total if total else 0.0


class FstIterator:
    """Forward iterator with per-level cursors (Section 3.4).

    Frames record ``(level, node, pos, start, end)`` along the path;
    ``pos`` is a bit position (dense) or label index (sparse), with
    ``pos == -1`` denoting a dense node's conceptual prefix-key slot.
    ``start``/``end`` cache the node's extent so moving the cursor
    never repeats rank/select work — the per-level-cursor optimization
    the paper credits for fast range queries.
    """

    __slots__ = ("fst", "frames", "valid", "fp_flag")

    def __init__(self, fst: FST) -> None:
        self.fst = fst
        self.frames: list[tuple[int, int, int, int, int]] = []
        self.valid = False
        self.fp_flag = False

    # -- public API ----------------------------------------------------------------

    def key(self) -> bytes:
        """The stored key bytes at the current position."""
        out = bytearray()
        fst = self.fst
        dense_height = fst.dense_height
        s_labels = fst.s_labels
        for level, node, pos, start, end in self.frames:
            if level < dense_height:
                if pos >= 0:
                    out.append(pos - node * FANOUT)
            elif pos != start or not _is_dollar(s_labels, start, end):
                out.append(s_labels[pos])
        return bytes(out)

    def leaf_rank(self) -> int:
        """The current entry's index in label order."""
        level, node, pos, _s, _e = self.frames[-1]
        fst = self.fst
        if level < fst.dense_height:
            if pos < 0:
                return fst._dense_prefix_leaf_rank(node)
            return fst._dense_leaf_rank(pos)
        return fst._sparse_leaf_rank(pos)

    def value(self) -> Any:
        """The current entry's value (its leaf rank if the trie stores
        no values)."""
        values = self.fst.values
        return self.leaf_rank() if values is None else values[self.leaf_rank()]

    def next(self) -> None:
        """Advance to the next stored entry."""
        self.fp_flag = False
        self._advance_up()

    # -- internals --------------------------------------------------------------------

    def _make_frame(self, level: int, node: int) -> tuple[int, int, int, int, int]:
        """A frame positioned at the node's first entry."""
        fst = self.fst
        if level < fst.dense_height:
            start = node * FANOUT
            end = start + FANOUT
            if fst._dp[node >> 6] >> (node & 63) & 1:
                return (level, node, -1, start, end)
            return (level, node, next_one(fst._dl, start, end), start, end)
        start, end = fst._sparse_node_range(node - fst.dense_node_count)
        return (level, node, start, start, end)

    def _next_pos(self, frame: tuple[int, int, int, int, int]) -> int | None:
        """The next label position within the frame's node, or None."""
        level, node, pos, start, end = frame
        fst = self.fst
        if level < fst.dense_height:
            p = next_one(fst._dl, start if pos < 0 else pos + 1, end)
        else:
            p = pos + 1
        return p if p < end else None

    def _is_terminal(self, frame: tuple[int, int, int, int, int]) -> bool:
        level, node, pos, _s, _e = frame
        fst = self.fst
        if level < fst.dense_height:
            return pos < 0 or not fst._dh[pos >> 6] >> (pos & 63) & 1
        return not fst._hc[pos >> 6] >> (pos & 63) & 1

    def _child_of(self, frame: tuple[int, int, int, int, int]) -> int:
        level, node, pos, _s, _e = frame
        fst = self.fst
        if level < fst.dense_height:
            return rank1(*fst._rank_dh, pos)
        return fst.dense_child_count + rank1(*fst._rank_hc, pos)

    def _descend_leftmost(self, node: int, level: int) -> None:
        """Push frames following smallest labels until a terminal."""
        while True:
            frame = self._make_frame(level, node)
            self.frames.append(frame)
            if self._is_terminal(frame):
                self.valid = True
                return
            node = self._child_of(frame)
            level += 1

    def _leftmost_from_root(self) -> None:
        self.frames = []
        self.fp_flag = False
        if self.fst.n_keys == 0:
            self.valid = False
            return
        self._descend_leftmost(0, 0)

    def _seek(self, key: bytes) -> None:
        fst = self.fst
        self.frames = []
        self.fp_flag = False
        if fst.n_keys == 0:
            self.valid = False
            return
        node = 0
        level = 0
        while True:
            if level == len(key):
                self._descend_leftmost(node, level)
                return
            byte = key[level]
            frame = self._find_label_at_or_after(level, node, byte)
            if frame is None:
                self._advance_up()
                return
            label = self._label_at(frame)
            self.frames.append(frame)
            if label > byte:
                if self._is_terminal(frame):
                    self.valid = True
                    return
                self._descend_leftmost(self._child_of(frame), level + 1)
                return
            # label == byte
            if not self._is_terminal(frame):
                node = self._child_of(frame)
                level += 1
                continue
            # Terminal on the exact path: the stored key is key[:level+1].
            if len(key) == level + 1:
                self.valid = True
                return
            # Stored key is a strict prefix of the search key.
            self.valid = True
            self.fp_flag = True
            return

    def _label_at(self, frame: tuple[int, int, int, int, int]) -> int:
        level, node, pos, _s, _e = frame
        fst = self.fst
        if level < fst.dense_height:
            return pos - node * FANOUT
        return int(fst.s_labels[pos])

    def _find_label_at_or_after(
        self, level: int, node: int, byte: int
    ) -> tuple[int, int, int, int, int] | None:
        """Frame at the smallest real label >= byte within the node
        (the prefix slot is excluded: it is always < byte on a search
        path), or None."""
        fst = self.fst
        if level < fst.dense_height:
            start = node * FANOUT
            end = start + FANOUT
            p = next_one(fst._dl, start + byte, end)
            return (level, node, p, start, end) if p < end else None
        start, end = fst._sparse_node_range(node - fst.dense_node_count)
        s_labels = fst.s_labels
        for i in range(start + _is_dollar(s_labels, start, end), end):
            if s_labels[i] >= byte:
                return (level, node, i, start, end)
        return None

    def _advance_up(self) -> None:
        """Advance the deepest cursor, popping exhausted frames."""
        while self.frames:
            frame = self.frames.pop()
            nxt = self._next_pos(frame)
            if nxt is None:
                continue
            frame = (frame[0], frame[1], nxt, frame[3], frame[4])
            self.frames.append(frame)
            if self._is_terminal(frame):
                self.valid = True
                return
            self._descend_leftmost(self._child_of(frame), frame[0] + 1)
            return
        self.valid = False
