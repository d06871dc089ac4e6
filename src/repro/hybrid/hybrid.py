"""The dual-stage Hybrid Index (Chapter 5).

A hybrid index is one logical index made of two physical trees
(Figure 5.1): a small *dynamic stage* that absorbs all writes, and a
compact read-only *static stage* holding the bulk of the entries.  A
Bloom filter over the dynamic stage lets most point reads skip straight
to the static stage.  Periodic merges migrate everything from the
dynamic to the static stage (the merge-all strategy, Section 5.2.2),
triggered when the stage size ratio crosses a threshold (ratio-based
trigger, default 10) or at a fixed dynamic-stage size (constant
trigger).

Primary-index semantics: inserts check key uniqueness across both
stages (the ~30 % insert-throughput cost of Figures 5.3-5.6); updates
of static-stage keys insert a shadowing entry into the dynamic stage.
Secondary-index semantics (``secondary=True``): values are lists, and
updates append in place even in the static stage, so a key never lives
in both stages.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from ..compact import (
    CompactART,
    CompactBPlusTree,
    CompactMasstree,
    CompactSkipList,
    CompressedBPlusTree,
)
from ..filters.bloom import BloomFilter
from ..trees import ART, BPlusTree, GappedBPlusTree, Masstree, OrderedIndex, PagedSkipList
from ..trees.gapped_btree import merge_sorted_columns

_TOMBSTONE = object()

#: Default ratio-based merge trigger (Section 5.3.3 picks 10).
DEFAULT_MERGE_RATIO = 10
#: Dynamic-stage size that forces the first merge when the static
#: stage is still empty.
MIN_MERGE_SIZE = 256
#: Bits per key for the dynamic-stage Bloom filter.
BLOOM_BITS_PER_KEY = 10


class HybridIndex(OrderedIndex):
    """Dual-stage index: dynamic writes, compact static bulk."""

    def __init__(
        self,
        dynamic_factory: Callable[[], OrderedIndex],
        static_factory: Callable[[Sequence[tuple[bytes, Any]]], Any],
        merge_ratio: float = DEFAULT_MERGE_RATIO,
        merge_trigger: str = "ratio",
        merge_strategy: str = "all",
        constant_threshold: int = 4096,
        use_bloom: bool = True,
        secondary: bool = False,
        min_merge_size: int = MIN_MERGE_SIZE,
    ) -> None:
        if merge_trigger not in ("ratio", "constant"):
            raise ValueError("merge_trigger must be 'ratio' or 'constant'")
        if merge_strategy not in ("all", "cold"):
            raise ValueError("merge_strategy must be 'all' or 'cold'")
        self._dynamic_factory = dynamic_factory
        self._static_factory = static_factory
        self.dynamic: OrderedIndex = dynamic_factory()
        self.static = static_factory([])
        self.merge_ratio = merge_ratio
        self.merge_trigger = merge_trigger
        self.merge_strategy = merge_strategy
        self.constant_threshold = constant_threshold
        #: Access counts for merge-cold (Section 5.2.2): tracked only
        #: when the strategy needs them (tracking is itself a cost the
        #: paper charges against merge-cold).
        self._access: dict[bytes, int] = {}
        #: Entries retained by the last merge-cold pass; excluded from
        #: the merge trigger so retention cannot re-trigger it.
        self._retained_hot = 0
        self.use_bloom = use_bloom
        self.secondary = secondary
        self.min_merge_size = min_merge_size
        self._bloom: BloomFilter | None = (
            BloomFilter([], expected_keys=min_merge_size) if use_bloom else None
        )
        self._deleted: set[bytes] = set()
        self._len = 0
        # merge statistics (Figures 5.7/5.8)
        self.merge_count = 0
        self.total_merge_seconds = 0.0
        self.last_merge_seconds = 0.0

    # -- stage plumbing -----------------------------------------------------------

    def _bloom_positive(self, key: bytes) -> bool:
        return self._bloom is None or self._bloom.may_contain(key)

    def _bloom_positive_many(self, keys: Sequence[bytes]) -> list[bool]:
        if self._bloom is None:
            return [True] * len(keys)
        return self._bloom.may_contain_many(keys)

    def _rebuild_bloom(self) -> None:
        """Rebuild the dynamic-stage filter from scratch.

        Called ONLY on merge/reset (when the dynamic stage empties down
        to the retained-hot entries): day-to-day dynamic-stage writes
        go through the incremental :meth:`_dynamic_changed` /
        :meth:`_dynamic_changed_many` paths instead of re-enumerating
        every dynamic key per change.
        """
        if self.use_bloom:
            keys = [k for k, _ in self.dynamic.items()]
            # Size for the dynamic stage's expected capacity before the
            # next merge fires (static/ratio entries).
            expected = max(
                self.min_merge_size, int(len(self.static) / self.merge_ratio) + 1
            )
            self._bloom = BloomFilter(keys, BLOOM_BITS_PER_KEY, expected_keys=expected)

    def _dynamic_changed(self, new_key: bytes | None = None) -> None:
        # Bloom filters cannot delete; adding is enough for correctness
        # (false positives only cost an extra dynamic-stage probe).
        if self.use_bloom and new_key is not None:
            self._bloom.add(new_key)

    def _dynamic_changed_many(self, new_keys: Sequence[bytes]) -> None:
        if self.use_bloom and new_keys:
            self._bloom.add_many(new_keys)

    # -- merge --------------------------------------------------------------------------

    def should_merge(self) -> bool:
        dyn = len(self.dynamic) - self._retained_hot
        if dyn <= 0:
            return False
        if self.merge_trigger == "constant":
            return dyn >= self.constant_threshold
        static_len = len(self.static)
        if static_len == 0:
            return dyn >= self.min_merge_size
        return dyn * self.merge_ratio >= static_len

    def merge(self) -> None:
        """Migrate dynamic-stage entries to the static stage
        (Section 5.2).  Blocking, as in the thesis.

        merge-all moves everything; merge-cold retains entries read at
        least twice since the last merge (they are likely to be read
        again), trading merge frequency for hot-read locality.
        """
        started = time.perf_counter()
        keep_hot: list[tuple[bytes, Any]] = []
        if self.merge_strategy == "cold" and not self.secondary:
            keep_hot = [
                (k, v)
                for k, v in self.dynamic.items()
                if self._access.get(k, 0) >= 2
            ]
        hot_keys = {k for k, _ in keep_hot}
        if hasattr(self.dynamic, "export_columns"):
            merged = self._merge_columns(hot_keys)
        else:
            merged = self._merge_iterative(hot_keys)
        self.static = self._static_factory(merged)
        self.dynamic = self._dynamic_factory()
        for k, v in keep_hot:
            self.dynamic.insert(k, v)
        self._deleted = set()
        self._access = {}
        self._retained_hot = len(keep_hot)
        self._rebuild_bloom()
        self.last_merge_seconds = time.perf_counter() - started
        self.total_merge_seconds += self.last_merge_seconds
        self.merge_count += 1

    def _merge_iterative(self, hot_keys: set[bytes]) -> list[tuple[bytes, Any]]:
        """Python two-iterator merge (any dynamic stage)."""
        merged: list[tuple[bytes, Any]] = []
        dyn_iter = iter(self.dynamic.items())
        stat_iter = iter(self.static.items())
        dyn = next(dyn_iter, None)
        stat = next(stat_iter, None)
        deleted = self._deleted
        while dyn is not None or stat is not None:
            if stat is None or (dyn is not None and dyn[0] <= stat[0]):
                if dyn is not None and stat is not None and dyn[0] == stat[0]:
                    stat = next(stat_iter, None)  # dynamic shadows static
                if dyn[0] not in deleted:
                    merged.append(dyn)
                dyn = next(dyn_iter, None)
            else:
                if stat[0] not in deleted:
                    merged.append(stat)
                stat = next(stat_iter, None)
        if hot_keys:
            merged = [(k, v) for k, v in merged if k not in hot_keys]
        return merged

    def _merge_columns(self, hot_keys: set[bytes]) -> list[tuple[bytes, Any]]:
        """Column merge for dynamic stages that export sorted columns
        (the gapped B+tree): the dyn/static interleave is two
        ``searchsorted`` calls plus a scatter instead of a Python
        iterator zip, and tombstone/hot filtering is one mask pass."""
        dyn_keys, dyn_vals = self.dynamic.export_columns()
        stat_keys = getattr(self.static, "_keys", None)
        stat_vals = getattr(self.static, "_values", None)
        if stat_keys is None or stat_vals is None:
            pairs = list(self.static.items())
            stat_keys = [k for k, _ in pairs]
            stat_vals = [v for _, v in pairs]
        sk = np.empty(len(stat_keys), dtype=object)
        sv = np.empty(len(stat_keys), dtype=object)
        if len(stat_keys):
            sk[:] = list(stat_keys)
            sv[:] = list(stat_vals)
        mk, mv = merge_sorted_columns(sk, sv, dyn_keys, dyn_vals)
        drop = self._deleted | hot_keys
        if drop and len(mk):
            keep = np.fromiter((k not in drop for k in mk), dtype=bool, count=len(mk))
            mk, mv = mk[keep], mv[keep]
        return list(zip(mk.tolist(), mv.tolist()))

    def _maybe_merge(self) -> None:
        if self.should_merge():
            self.merge()

    # -- point operations ----------------------------------------------------------------

    def insert(self, key: bytes, value: Any) -> bool:
        if self.secondary:
            return self._insert_secondary(key, value)
        # Primary: uniqueness check spans both stages.
        if self._bloom_positive(key) and self.dynamic.get(key) is not None:
            return False
        in_static = self.static.get(key) is not None and key not in self._deleted
        if in_static:
            return False
        self._deleted.discard(key)
        self.dynamic.insert(key, value)
        self._len += 1
        self._dynamic_changed(key)
        self._maybe_merge()
        return True

    def _insert_secondary(self, key: bytes, value: Any) -> bool:
        """Secondary index: append to the key's value list, in place
        even when the key lives in the static stage."""
        if self._bloom_positive(key):
            existing = self.dynamic.get(key)
            if existing is not None:
                existing.append(value)
                return True
        static_list = self.static.get(key)
        if static_list is not None and key not in self._deleted:
            static_list.append(value)
            return True
        self._deleted.discard(key)
        self.dynamic.insert(key, [value])
        self._len += 1
        self._dynamic_changed(key)
        self._maybe_merge()
        return True

    def get(self, key: bytes) -> Any | None:
        if self._bloom_positive(key):
            value = self.dynamic.get(key)
            if value is not None:
                if self.merge_strategy == "cold":
                    self._access[key] = self._access.get(key, 0) + 1
                return value
        if key in self._deleted:
            return None
        return self.static.get(key)

    def get_many(self, keys: Sequence[bytes]) -> list[Any | None]:
        """Batched :meth:`get`: one vectorized Bloom probe guards the
        dynamic stage for the whole batch, and static-stage misses go
        down as one static ``get_many``."""
        out: list[Any | None] = [None] * len(keys)
        positive = self._bloom_positive_many(keys)
        track = self.merge_strategy == "cold"
        static_idx: list[int] = []
        for i, key in enumerate(keys):
            if positive[i]:
                value = self.dynamic.get(key)
                if value is not None:
                    if track:
                        self._access[key] = self._access.get(key, 0) + 1
                    out[i] = value
                    continue
            if key not in self._deleted:
                static_idx.append(i)
        values = self.static.get_many([keys[i] for i in static_idx])
        for i, value in zip(static_idx, values):
            out[i] = value
        return out

    def put_many(self, pairs: Sequence[tuple[bytes, Any]]) -> None:
        """Batched upsert (primary semantics): one vectorized Bloom
        probe + one dynamic-stage ``get_many`` classify the batch, the
        whole batch lands in the dynamic stage as one ``put_many``
        (new keys insert, existing keys shadow/overwrite — same as
        sequential put), the Bloom filter absorbs the keys via one
        ``add_many``, and the merge trigger runs once at the end."""
        if self.secondary:
            super().put_many(pairs)  # append-path loop
            return
        dedup = dict(pairs)
        if not dedup:
            return
        keys = list(dedup)
        # Presence classification (for _len), same probe order as get():
        # Bloom-guarded dynamic first, then non-tombstoned static.
        present = [False] * len(keys)
        probe = [i for i, p in enumerate(self._bloom_positive_many(keys)) if p]
        for i, value in zip(probe, self.dynamic.get_many([keys[i] for i in probe])):
            present[i] = value is not None
        static_idx = [
            i
            for i in range(len(keys))
            if not present[i] and keys[i] not in self._deleted
        ]
        values = self.static.get_many([keys[i] for i in static_idx])
        for i, value in zip(static_idx, values):
            present[i] = value is not None
        self._len += len(keys) - sum(present)
        self._deleted.difference_update(keys)
        self.dynamic.put_many(list(dedup.items()))
        self._dynamic_changed_many(keys)
        self._maybe_merge()

    def update(self, key: bytes, value: Any) -> bool:
        if self._bloom_positive(key) and self.dynamic.update(key, value):
            return True
        if key in self._deleted or self.static.get(key) is None:
            return False
        if self.secondary:
            # In-place value update avoids duplicating the key.
            self.static.get(key)[:] = value
            return True
        # Primary: shadow the static entry with a dynamic insert.
        self.dynamic.insert(key, value)
        self._dynamic_changed(key)
        self._maybe_merge()
        return True

    def delete(self, key: bytes) -> bool:
        # A key can live in BOTH stages (an update shadows a static
        # entry with a dynamic insert; a delete + re-insert does too),
        # so a successful dynamic delete must still tombstone the
        # static copy or it resurrects at the next read/scan.
        deleted_dynamic = self._bloom_positive(key) and self.dynamic.delete(key)
        in_static = key not in self._deleted and self.static.get(key) is not None
        if in_static:
            self._deleted.add(key)  # tombstone until the next merge
        if deleted_dynamic or in_static:
            self._len -= 1
            return True
        return False

    # -- range operations ------------------------------------------------------------------

    def lower_bound(self, key: bytes) -> Iterator[tuple[bytes, Any]]:
        """Merged iteration over both stages (dynamic shadows static)."""
        dyn_iter = self.dynamic.lower_bound(key)
        stat_iter = self.static.lower_bound(key)
        dyn = next(dyn_iter, None)
        stat = next(stat_iter, None)
        while dyn is not None or stat is not None:
            if stat is None or (dyn is not None and dyn[0] <= stat[0]):
                if dyn is not None and stat is not None and dyn[0] == stat[0]:
                    stat = next(stat_iter, None)
                if dyn[0] not in self._deleted:
                    yield dyn
                dyn = next(dyn_iter, None)
            else:
                if stat[0] not in self._deleted:
                    yield stat
                stat = next(stat_iter, None)

    def items(self) -> Iterator[tuple[bytes, Any]]:
        yield from self.lower_bound(b"")

    def __len__(self) -> int:
        return self._len

    # -- memory -------------------------------------------------------------------------------

    def memory_bytes(self) -> int:
        total = self.dynamic.memory_bytes() + self.static.memory_bytes()
        if self._bloom is not None:
            total += self._bloom.memory_bytes()
        return total


# -- ready-made hybrid indexes (the four structures of Figures 5.3-5.6) ----


def hybrid_btree(**kwargs) -> HybridIndex:
    """Hybrid B+tree: B+tree front, Compact B+tree bulk."""
    return HybridIndex(BPlusTree, CompactBPlusTree, **kwargs)


def hybrid_gapped(**kwargs) -> HybridIndex:
    """Hybrid Gapped B+tree: the batch-updatable gapped tree as the
    dynamic stage (vectorized ``put_many``; ``merge()`` consumes its
    exported columns), Compact B+tree bulk."""
    return HybridIndex(GappedBPlusTree, CompactBPlusTree, **kwargs)


def hybrid_skiplist(**kwargs) -> HybridIndex:
    """Hybrid Skip List."""
    return HybridIndex(PagedSkipList, CompactSkipList, **kwargs)


def hybrid_art(**kwargs) -> HybridIndex:
    """Hybrid ART."""
    return HybridIndex(ART, CompactART, **kwargs)


def hybrid_masstree(**kwargs) -> HybridIndex:
    """Hybrid Masstree."""
    return HybridIndex(Masstree, CompactMasstree, **kwargs)


def hybrid_compressed_btree(cache_nodes: int = 32, **kwargs) -> HybridIndex:
    """Hybrid-Compressed B+tree: static stage also block-compressed."""
    return HybridIndex(
        BPlusTree,
        lambda pairs: CompressedBPlusTree(pairs, cache_nodes=cache_nodes),
        **kwargs,
    )
