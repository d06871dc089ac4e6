"""The Fast Succinct Trie (Chapter 3): LOUDS-DS encoding + operations.

The upper levels of the trie are encoded with LOUDS-Dense (three
bitmaps per node: D-Labels, D-HasChild, D-IsPrefixKey), the lower
levels with LOUDS-Sparse (S-Labels byte sequence, S-HasChild, S-LOUDS).
The dense/sparse cutoff follows the paper's size-ratio rule with
``R = 64`` by default: the cutoff is the largest level l such that
``dense_size(l) * R <= sparse_size(l)``.

Navigation uses the customized rank/select structures of Section 3.6:
rank blocks of 64 bits on the dense bitmaps and 512 bits on the sparse
ones, select sampling rate 64 on S-LOUDS.  The label-search strategy is
configurable (``vector`` = the SIMD stand-in, ``binary``, ``linear``)
for the Figure 3.6 ablation.

Supports ``get``, ``seek`` (LowerBound iterator), ``next``, ``items``
and the approximate-free ``count`` used by SuRF's range counts.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from ..bench.counters import COUNTERS
from ..succinct.bitvector import BitVector
from ..succinct.rank import RankSupport
from ..succinct.select import SelectSupport
from .builder import PREFIX_LABEL, BuiltTrie, build_trie

FANOUT = 256

#: Default LOUDS-Sparse : LOUDS-Dense size ratio (Section 3.4).
DEFAULT_SIZE_RATIO = 64

_DENSE_RANK_BLOCK = 64
_SPARSE_RANK_BLOCK = 512
_SELECT_SAMPLE = 64


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
        if label_search not in ("vector", "binary", "linear"):
            raise ValueError("label_search must be vector|binary|linear")
        self._label_search = label_search
        self._sparse_rank_block_override = sparse_rank_block
        self._select_sample_override = select_sample
        trie = build_trie(keys, values, truncate=truncate)
        self.n_keys = trie.n_keys
        self.height = trie.height
        self.truncated = truncate
        self.suffixes = trie.suffixes  # used by SuRF; value order
        if dense_levels is None:
            dense_levels = _choose_dense_levels(trie, size_ratio)
        self.dense_height = min(dense_levels, trie.height)
        self._encode(trie)

    # -- encoding -------------------------------------------------------------

    def _encode(self, trie: BuiltTrie) -> None:
        dh = self.dense_height
        # The first ``dh`` levels are dense, the rest sparse: each part is
        # one slice of the builder's level-ordered columns.
        cut = int(trie.level_starts[dh])
        value_cut = int(trie.value_starts[dh])
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
            bitmaps.append(BitVector(bits, dense_node_count * FANOUT))
        self.d_labels, self.d_haschild = bitmaps
        is_prefix = np.zeros(dense_node_count, dtype=np.uint8)
        is_prefix[node_of[~real]] = 1
        self.d_isprefix = BitVector.from_bools(is_prefix)
        # Values are one per terminating label in label order, which is
        # exactly D-Values then S-Values order.
        self.d_values = trie.values[:value_cut]
        self.dense_node_count = dense_node_count
        self.dense_child_count = int(child.sum())
        #: per dense level: starting node number (for count boundaries)
        self._dense_level_node_start = (
            np.cumsum(trie.node_counts[:dh]) - trie.node_counts[:dh]
        ).tolist()
        self._d_labels_rank = RankSupport(self.d_labels, _DENSE_RANK_BLOCK)
        self._d_haschild_rank = RankSupport(self.d_haschild, _DENSE_RANK_BLOCK)
        self._d_isprefix_rank = RankSupport(self.d_isprefix, _DENSE_RANK_BLOCK)

        # ---- sparse levels ----
        self.s_labels = trie.labels[cut:]
        self.s_haschild = BitVector.from_bools(trie.has_child[cut:])
        self.s_louds = BitVector.from_bools(trie.louds[cut:])
        self.s_values = trie.values[value_cut:]
        self.sparse_node_count = int(trie.node_counts[dh:].sum())
        #: per sparse level: starting label index, plus the end (for
        #: count boundaries)
        self._sparse_level_start = (trie.level_starts[dh:] - cut).tolist()
        self._s_haschild_rank = RankSupport(self.s_haschild, self._sparse_block())
        self._s_louds_rank = RankSupport(self.s_louds, self._sparse_block())
        self._s_louds_select = (
            SelectSupport(self.s_louds, bit=1, sample_rate=self._select_rate())
            if len(self.s_louds)
            else None
        )

    def _sparse_block(self) -> int:
        return getattr(self, "_sparse_rank_block_override", _SPARSE_RANK_BLOCK)

    def _select_rate(self) -> int:
        return getattr(self, "_select_sample_override", _SELECT_SAMPLE)

    # -- basic node navigation ---------------------------------------------------

    def _sparse_node_range(self, snode: int) -> tuple[int, int]:
        """Label index range [start, end) of sparse node ``snode`` (0-based)."""
        start = self._s_louds_select.select(snode + 1)
        return start, self._louds_node_end(start)

    def _louds_node_end(self, start: int) -> int:
        """First S-LOUDS set bit after ``start`` (= node end), by local
        word scanning — nodes are small, so this beats a second select."""
        bv = self.s_louds
        n = len(bv)
        pos = start + 1
        if pos >= n:
            return n
        word_idx = pos >> 6
        word = bv.word(word_idx) >> (pos & 63)
        if word:
            return pos + ((word & -word).bit_length() - 1)
        word_idx += 1
        n_words = (n + 63) >> 6
        while word_idx < n_words:
            word = bv.word(word_idx)
            if word:
                return (word_idx << 6) + ((word & -word).bit_length() - 1)
            word_idx += 1
        return n

    def _sparse_find_label(self, start: int, end: int, byte: int) -> int | None:
        """Index of ``byte`` among s_labels[start:end], or None."""
        mode = self._label_search
        if mode == "vector":
            # numpy vectorized equality: the SIMD-search stand-in.
            hits = np.nonzero(self.s_labels[start:end] == byte)[0]
            return start + int(hits[0]) if len(hits) else None
        if mode == "binary":
            lo, hi = start, end
            # Prefix pseudo-label (-1) sorts first; array is sorted.
            while lo < hi:
                mid = (lo + hi) // 2
                if self.s_labels[mid] < byte:
                    lo = mid + 1
                else:
                    hi = mid
            if lo < end and self.s_labels[lo] == byte:
                return lo
            return None
        for i in range(start, end):
            if self.s_labels[i] == byte:
                return i
        return None

    # -- value positions -----------------------------------------------------------

    def _dense_value_index(self, pos: int) -> int:
        """0-based D-Values index for the terminating label at ``pos``."""
        node = pos // FANOUT
        return (
            self._d_isprefix_rank.rank1(node)
            + self._d_labels_rank.rank1(pos)
            - self._d_haschild_rank.rank1(pos)
            - 1
        )

    def _dense_prefix_value_index(self, node: int) -> int:
        """0-based D-Values index of node's prefix-key value."""
        before = node * FANOUT - 1
        labels = self._d_labels_rank.rank1(before) if before >= 0 else 0
        childs = self._d_haschild_rank.rank1(before) if before >= 0 else 0
        return self._d_isprefix_rank.rank1(node) - 1 + labels - childs

    def _sparse_value_index(self, idx: int) -> int:
        """0-based S-Values index for the terminating label at ``idx``."""
        return idx - self._s_haschild_rank.rank1(idx)

    # -- point lookup -----------------------------------------------------------------

    def get(self, key: bytes) -> Any | None:
        """Exact-match lookup (None if absent).

        In truncate mode a lookup that exhausts the stored prefix
        returns the stored value — the caller (SuRF) must verify suffix
        bits itself.
        """
        found = self._lookup(key)
        return found[0] if found is not None else None

    def _lookup(self, key: bytes) -> tuple[Any, bytes] | None:
        """Returns (value, remaining_key_after_stored_prefix) or None."""
        if self.n_keys == 0:
            return None
        node = 0
        level = 0
        # ---- dense walk ----
        while level < self.dense_height:
            # One LOUDS-Dense step: a D-Labels word, the colocated
            # D-HasChild word, and (amortised) the dense rank LUT line.
            COUNTERS.node_visit(2 * FANOUT // 8, lines_touched=2)
            if level == len(key):
                if self.d_isprefix.get(node):
                    return self.d_values[self._dense_prefix_value_index(node)], b""
                return None
            pos = node * FANOUT + key[level]
            if not self.d_labels.get(pos):
                return None
            if not self.d_haschild.get(pos):
                value = self.d_values[self._dense_value_index(pos)]
                remaining = key[level + 1 :]
                if not self.truncated and remaining:
                    return None
                return value, remaining
            node = self._d_haschild_rank.rank1(pos)  # global child number
            level += 1
            if node >= self.dense_node_count:
                break
        else:
            # Ran out of dense levels while still inside them: the trie
            # is fully dense and the key is longer than every path.
            if self.dense_height == self.height:
                return None
        # ---- sparse walk ----
        snode = node - self.dense_node_count
        while True:
            start, end = self._sparse_node_range(snode)
            # One LOUDS-Sparse step: the label chunk (SIMD-sized), the
            # S-HasChild word, and the rank/select LUT line; >90 % of
            # nodes fit one 16-label chunk (Section 3.6).
            COUNTERS.node_visit(
                end - start + 16, lines_touched=2 + (end - start) // 16
            )
            if level == len(key):
                if self.s_labels[start] == PREFIX_LABEL:
                    return self.s_values[self._sparse_value_index(start)], b""
                return None
            idx = self._sparse_find_label(start, end, key[level])
            if idx is None:
                return None
            if not self.s_haschild.get(idx):
                value = self.s_values[self._sparse_value_index(idx)]
                remaining = key[level + 1 :]
                if not self.truncated and remaining:
                    return None
                return value, remaining
            child = self.dense_child_count + self._s_haschild_rank.rank1(idx)
            snode = child - self.dense_node_count
            level += 1

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return self.n_keys

    # -- batched point lookup (level-synchronous traversal) -----------------

    def _dense_value_indexes(self, pos: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_dense_value_index` over bit positions."""
        node = pos // FANOUT
        return (
            self._d_isprefix_rank.rank1_many(node)
            + self._d_labels_rank.rank1_many(pos)
            - self._d_haschild_rank.rank1_many(pos)
            - 1
        )

    def _dense_prefix_value_indexes(self, node: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_dense_prefix_value_index` over node numbers."""
        before = node * FANOUT - 1
        safe = np.maximum(before, 0)
        labels = self._d_labels_rank.rank1_many(safe)
        childs = self._d_haschild_rank.rank1_many(safe)
        root = before < 0
        labels[root] = 0
        childs[root] = 0
        return self._d_isprefix_rank.rank1_many(node) - 1 + labels - childs

    def _sparse_batch_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Lazy accelerators for the batched sparse walk.

        ``node_starts[k]`` is the S-Labels index where sparse node ``k``
        begins (with a sentinel at ``n_labels``), replacing per-key
        select calls with one gather.  ``comp`` is the globally sorted
        composite key ``node * 512 + label + 1`` — node numbers are
        nondecreasing over S-Labels and labels sort within each node, so
        one ``searchsorted`` answers every per-node label search in the
        batch at once.
        """
        tables = getattr(self, "_sparse_tables", None)
        if tables is None:
            n = len(self.s_louds)
            if n:
                bits = np.unpackbits(
                    self.s_louds.words.view(np.uint8), bitorder="little", count=n
                )
                starts = np.flatnonzero(bits).astype(np.int64)
                node_of = np.cumsum(bits, dtype=np.int64) - 1
            else:
                starts = np.zeros(0, dtype=np.int64)
                node_of = np.zeros(0, dtype=np.int64)
            node_starts = np.concatenate([starts, [n]]).astype(np.int64)
            comp = node_of * 512 + self.s_labels.astype(np.int64) + 1
            tables = (node_starts, comp)
            self._sparse_tables = tables
        return tables

    def get_many(self, keys: Sequence[bytes]) -> list[Any | None]:
        """Batched exact-match lookup; one result slot per key.

        Bit-for-bit equivalent to ``[self.get(k) for k in keys]`` but
        executed level-synchronously: the whole batch advances through
        one LOUDS-Dense / LOUDS-Sparse level per step with vectorized
        bitmap tests, ``rank1_many`` kernels and a single
        ``searchsorted`` label search (the BS-tree-style data-parallel
        read path).
        """
        found = self._lookup_many(keys)
        return [f[0] if f is not None else None for f in found]

    def _lookup_many(
        self, keys: Sequence[bytes]
    ) -> list[tuple[Any, bytes] | None]:
        """Batched :meth:`_lookup`: (value, remaining) or None per key."""
        n = len(keys)
        results: list[tuple[Any, bytes] | None] = [None] * n
        if n == 0 or self.n_keys == 0:
            return results
        # Pad the batch into an (n, maxlen) byte matrix so each level
        # step reads its column with one gather.
        lens = np.fromiter((len(k) for k in keys), dtype=np.int64, count=n)
        maxlen = int(lens.max())
        mat = np.zeros((n, max(maxlen, 1)), dtype=np.int64)
        if maxlen:
            buf = np.frombuffer(b"".join(keys), dtype=np.uint8)
            row_starts = np.zeros(n, dtype=np.int64)
            np.cumsum(lens[:-1], out=row_starts[1:])
            rows = np.repeat(np.arange(n), lens)
            mat[rows, np.arange(len(buf)) - np.repeat(row_starts, lens)] = buf
        truncated = self.truncated
        profiling = COUNTERS.enabled
        idx = np.arange(n, dtype=np.int64)  # original slot of each live lane
        node = np.zeros(n, dtype=np.int64)
        level = 0
        # Lanes that leave the dense levels continue in the sparse walk.
        sp_idx_parts: list[np.ndarray] = []
        sp_node_parts: list[np.ndarray] = []
        sp_level_parts: list[np.ndarray] = []

        def to_sparse(lanes: np.ndarray, nodes: np.ndarray, at_level: int) -> None:
            sp_idx_parts.append(lanes)
            sp_node_parts.append(nodes)
            sp_level_parts.append(np.full(len(lanes), at_level, dtype=np.int64))

        # ---- dense walk ----
        while level < self.dense_height and idx.size:
            if profiling:
                for _ in range(len(idx)):
                    COUNTERS.node_visit(2 * FANOUT // 8, lines_touched=2)
            ended = lens[idx] == level
            if ended.any():
                e_idx, e_node = idx[ended], node[ended]
                is_pref = self.d_isprefix.get_many(e_node).astype(bool)
                if is_pref.any():
                    hit_idx = e_idx[is_pref]
                    vidx = self._dense_prefix_value_indexes(e_node[is_pref])
                    for oi, vi in zip(hit_idx.tolist(), vidx.tolist()):
                        results[oi] = (self.d_values[vi], b"")
                keep = ~ended
                idx, node = idx[keep], node[keep]
                if not idx.size:
                    break
            pos = node * FANOUT + mat[idx, level]
            has_label = self.d_labels.get_many(pos).astype(bool)
            idx, pos = idx[has_label], pos[has_label]
            if not idx.size:
                break
            has_child = self.d_haschild.get_many(pos).astype(bool)
            term = ~has_child
            if term.any():
                term_idx = idx[term]
                vidx = self._dense_value_indexes(pos[term])
                for oi, vi in zip(term_idx.tolist(), vidx.tolist()):
                    remaining = keys[oi][level + 1 :]
                    if truncated or not remaining:
                        results[oi] = (self.d_values[vi], remaining)
            idx, pos = idx[has_child], pos[has_child]
            if not idx.size:
                break
            node = self._d_haschild_rank.rank1_many(pos)
            level += 1
            crossed = node >= self.dense_node_count
            if crossed.any():
                to_sparse(idx[crossed], node[crossed], level)
                keep = ~crossed
                idx, node = idx[keep], node[keep]
        # Lanes that exhausted the dense levels: sparse-domain nodes
        # continue below; a lane still inside the dense numbering means
        # the trie is fully dense and the key outruns every stored path
        # (the scalar walk's for/else miss), so it stays None.
        if idx.size:
            crossed = node >= self.dense_node_count
            if crossed.any():
                to_sparse(idx[crossed], node[crossed], level)

        # ---- sparse walk ----
        if not sp_idx_parts:
            return results
        s_idx = np.concatenate(sp_idx_parts)
        snode = np.concatenate(sp_node_parts) - self.dense_node_count
        s_level = np.concatenate(sp_level_parts)
        node_starts, comp = self._sparse_batch_tables()
        n_comp = len(comp)
        s_labels = self.s_labels
        hc_rank = self._s_haschild_rank
        s_values = self.s_values
        while s_idx.size:
            if profiling:
                extents = node_starts[snode + 1] - node_starts[snode]
                for ext in extents.tolist():
                    COUNTERS.node_visit(ext + 16, lines_touched=2 + ext // 16)
            ended = lens[s_idx] == s_level
            if ended.any():
                e_idx = s_idx[ended]
                e_start = node_starts[snode[ended]]
                is_pref = s_labels[e_start] == PREFIX_LABEL
                if is_pref.any():
                    hit_idx = e_idx[is_pref]
                    hit_start = e_start[is_pref]
                    vidx = hit_start - hc_rank.rank1_many(hit_start)
                    for oi, vi in zip(hit_idx.tolist(), vidx.tolist()):
                        results[oi] = (s_values[vi], b"")
                keep = ~ended
                s_idx, snode, s_level = s_idx[keep], snode[keep], s_level[keep]
                if not s_idx.size:
                    break
            target = snode * 512 + mat[s_idx, s_level] + 1
            li = np.searchsorted(comp, target)
            safe_li = np.minimum(li, n_comp - 1)
            found = (li < n_comp) & (comp[safe_li] == target)
            s_idx, snode, s_level, li = (
                s_idx[found],
                snode[found],
                s_level[found],
                li[found],
            )
            if not s_idx.size:
                break
            has_child = self.s_haschild.get_many(li).astype(bool)
            term = ~has_child
            if term.any():
                t_idx, t_level = s_idx[term], s_level[term]
                vidx = li[term] - hc_rank.rank1_many(li[term])
                for oi, vi, lv in zip(
                    t_idx.tolist(), vidx.tolist(), t_level.tolist()
                ):
                    remaining = keys[oi][lv + 1 :]
                    if truncated or not remaining:
                        results[oi] = (s_values[vi], remaining)
            s_idx, s_level, li = s_idx[has_child], s_level[has_child], li[has_child]
            if not s_idx.size:
                break
            child = self.dense_child_count + hc_rank.rank1_many(li)
            snode = child - self.dense_node_count
            s_level = s_level + 1
        return results

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
        return self._count_below(high) - self._count_below(low)

    def _count_below(self, key: bytes) -> int:
        """Number of stored entries with stored key < ``key`` (stored
        prefixes of ``key`` count as smaller only if strictly shorter)."""
        boundaries = self._extend_boundaries(key)
        total = 0
        for level, (kind, pos) in enumerate(boundaries):
            if kind == "dense":
                lvl_start_node = self._dense_level_node_start[level]
                total += self._dense_values_between(lvl_start_node * FANOUT, pos)
            else:
                sl = level - self.dense_height
                total += self._sparse_values_between(
                    self._sparse_level_start[sl], pos
                )
        return total

    def _dense_values_between(self, p1: int, p2: int) -> int:
        """Values at dense positions in [p1, p2) (prefix values count at
        their node's start position)."""
        return self._dense_values_before(p2) - self._dense_values_before(p1)

    def _dense_values_before(self, p: int) -> int:
        if p <= 0:
            return 0
        labels = self._d_labels_rank.rank1(p - 1)
        childs = self._d_haschild_rank.rank1(p - 1)
        prefixes = self._d_isprefix_rank.rank1((p - 1) // FANOUT)
        return labels - childs + prefixes

    def _sparse_values_between(self, i1: int, i2: int) -> int:
        return self._sparse_values_before(i2) - self._sparse_values_before(i1)

    def _sparse_values_before(self, i: int) -> int:
        if i <= 0:
            return 0
        return i - self._s_haschild_rank.rank1(i - 1)

    def _extend_boundaries(self, key: bytes) -> list[tuple[str, int]]:
        """Per-level boundary positions: at each level, the position of
        the first label whose subtree/terminal keys are all >= ``key``.

        Returns one ("dense"|"sparse", position) per level; dense
        positions are absolute D-Labels bit positions and sparse ones
        are S-Labels indexes.
        """
        out: list[tuple[str, int]] = []
        node = 0
        level = 0
        on_path = True  # walked prefix still equals key[:level]
        while level < self.height:
            if level < self.dense_height:
                node_start = node * FANOUT
                if not on_path:
                    # Boundary descends from the previous level boundary:
                    # the first child node at this level not before it.
                    out.append(("dense", node_start))
                    # Everything below follows from `node` leftmost; mark
                    # boundary at this node's start and continue down its
                    # leftmost spine (all its keys are >= key).
                    nxt = self._dense_first_child_at_or_after(node_start)
                    if nxt is None:
                        out.extend(self._tail_boundaries(level + 1))
                        return out
                    node = nxt
                    level += 1
                    continue
                if level == len(key):
                    # key ends here: all entries of this node qualify.
                    out.append(("dense", node_start))
                    on_path = False
                    nxt = self._dense_first_child_at_or_after(node_start)
                    if nxt is None:
                        out.extend(self._tail_boundaries(level + 1))
                        return out
                    node = nxt
                    level += 1
                    continue
                byte = key[level]
                pos = node_start + byte
                out.append(("dense", pos))
                if self.d_labels.get(pos) and self.d_haschild.get(pos):
                    node = self._d_haschild_rank.rank1(pos)
                    level += 1
                    if node >= self.dense_node_count:
                        # Transitioned into sparse levels.
                        continue
                    continue
                # Path diverges (label terminal or absent): boundary for
                # deeper levels = first child subtree at or after pos+1.
                # A terminal label at pos equals a stored prefix <= key:
                # it lies before the boundary, which is pos+1... but the
                # value "between" arithmetic treats [start, pos) so we
                # must advance past pos when its entry sorts < key.
                if self.d_labels.get(pos) and not self.d_haschild.get(pos):
                    # stored key = path+byte; it is < key iff key is longer.
                    if len(key) > level + 1:
                        out[-1] = ("dense", pos + 1)
                nxt = self._dense_first_child_at_or_after(out[-1][1])
                on_path = False
                if nxt is None:
                    out.extend(self._tail_boundaries(level + 1))
                    return out
                node = nxt
                level += 1
                continue
            # ---- sparse levels ----
            snode = node - self.dense_node_count
            start, end = self._sparse_node_range(snode)
            if not on_path:
                out.append(("sparse", start))
                nxt = self._sparse_first_child_at_or_after(start)
                if nxt is None:
                    out.extend(self._tail_boundaries(level + 1))
                    return out
                node = nxt
                level += 1
                continue
            if level == len(key):
                out.append(("sparse", start))
                on_path = False
                nxt = self._sparse_first_child_at_or_after(start)
                if nxt is None:
                    out.extend(self._tail_boundaries(level + 1))
                    return out
                node = nxt
                level += 1
                continue
            byte = key[level]
            # First label >= byte within the node (prefix label -1 < byte).
            idx = end
            for i in range(start, end):
                if self.s_labels[i] >= byte:
                    idx = i
                    break
            out.append(("sparse", idx))
            if idx < end and self.s_labels[idx] == byte:
                if self.s_haschild.get(idx):
                    node = self.dense_child_count + self._s_haschild_rank.rank1(idx)
                    level += 1
                    continue
                if len(key) > level + 1:
                    out[-1] = ("sparse", idx + 1)
            on_path = False
            nxt = self._sparse_first_child_at_or_after(out[-1][1])
            if nxt is None:
                out.extend(self._tail_boundaries(level + 1))
                return out
            node = nxt
            level += 1
        return out

    def _tail_boundaries(self, from_level: int) -> list[tuple[str, int]]:
        """Boundaries at end-of-level for levels >= from_level (no
        further subtree: everything at deeper levels under later nodes
        is past the end... i.e. boundary = level end)."""
        out = []
        for level in range(from_level, self.height):
            if level < self.dense_height:
                nxt = (
                    self._dense_level_node_start[level + 1]
                    if level + 1 < self.dense_height
                    else self.dense_node_count
                )
                out.append(("dense", nxt * FANOUT))
            else:
                sl = level - self.dense_height
                out.append(("sparse", self._sparse_level_start[sl + 1]))
        return out

    def _dense_first_child_at_or_after(self, pos: int) -> int | None:
        """Global node number of the first HasChild branch at dense
        position >= pos, or None."""
        n = len(self.d_haschild)
        while pos < n:
            if self.d_haschild.get(pos):
                return self._d_haschild_rank.rank1(pos)
            # Skip ahead word-wise for speed.
            if (pos & 63) == 0:
                word = self.d_haschild.word(pos >> 6)
                if word == 0:
                    pos += 64
                    continue
            pos += 1
        return None

    def _sparse_first_child_at_or_after(self, idx: int) -> int | None:
        n = len(self.s_haschild)
        while idx < n:
            if self.s_haschild.get(idx):
                return self.dense_child_count + self._s_haschild_rank.rank1(idx)
            if (idx & 63) == 0:
                word = self.s_haschild.word(idx >> 6)
                if word == 0:
                    idx += 64
                    continue
            idx += 1
        return None

    # -- memory ---------------------------------------------------------------------------

    def size_bits(self, value_bits: int = 0) -> int:
        """Encoded size in bits; ``value_bits`` charges per stored value
        (e.g. SuRF suffix width); pointer values are excluded as in the
        paper's index measurements."""
        dense = (
            self.d_labels.size_bits()
            + self.d_haschild.size_bits()
            + self.d_isprefix.size_bits()
            + self._d_labels_rank.size_bits()
            + self._d_haschild_rank.size_bits()
            + self._d_isprefix_rank.size_bits()
        )
        sparse = (
            len(self.s_labels) * 8  # S-Labels byte sequence
            + self.s_haschild.size_bits()
            + self.s_louds.size_bits()
            + self._s_haschild_rank.size_bits()
            + self._s_louds_rank.size_bits()
            + (self._s_louds_select.size_bits() if self._s_louds_select else 0)
        )
        values = (len(self.d_values) + len(self.s_values)) * value_bits
        return dense + sparse + values

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
        for level, node, pos, _start, _end in self.frames:
            if level < dense_height:
                if pos >= 0:
                    out.append(pos - node * FANOUT)
            else:
                label = s_labels[pos]
                if label != PREFIX_LABEL:
                    out.append(label)
        return bytes(out)

    def value(self) -> Any:
        level, node, pos, _s, _e = self.frames[-1]
        fst = self.fst
        if level < fst.dense_height:
            if pos < 0:
                return fst.d_values[fst._dense_prefix_value_index(node)]
            return fst.d_values[fst._dense_value_index(pos)]
        return fst.s_values[fst._sparse_value_index(pos)]

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
            if fst.d_isprefix.get(node):
                return (level, node, -1, start, end)
            pos = start
            d_labels = fst.d_labels
            while pos < end and not d_labels.get(pos):
                pos += 1
            return (level, node, pos, start, end)
        start, end = fst._sparse_node_range(node - fst.dense_node_count)
        return (level, node, start, start, end)

    def _next_pos(self, frame: tuple[int, int, int, int, int]) -> int | None:
        """The next label position within the frame's node, or None."""
        level, node, pos, start, end = frame
        fst = self.fst
        if level < fst.dense_height:
            p = start if pos < 0 else pos + 1
            d_labels = fst.d_labels
            while p < end:
                if d_labels.get(p):
                    return p
                p += 1
            return None
        p = pos + 1
        return p if p < end else None

    def _is_terminal(self, frame: tuple[int, int, int, int, int]) -> bool:
        level, node, pos, _s, _e = frame
        fst = self.fst
        if level < fst.dense_height:
            return pos < 0 or not fst.d_haschild.get(pos)
        return not fst.s_haschild.get(pos)

    def _child_of(self, frame: tuple[int, int, int, int, int]) -> int:
        level, node, pos, _s, _e = frame
        fst = self.fst
        if level < fst.dense_height:
            return fst._d_haschild_rank.rank1(pos)
        return fst.dense_child_count + fst._s_haschild_rank.rank1(pos)

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
            p = start + byte
            d_labels = fst.d_labels
            while p < end:
                if d_labels.get(p):
                    return (level, node, p, start, end)
                p += 1
            return None
        start, end = fst._sparse_node_range(node - fst.dense_node_count)
        s_labels = fst.s_labels
        for i in range(start, end):
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
