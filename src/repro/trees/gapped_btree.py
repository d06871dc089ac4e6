"""A gapped, batch-updatable B+tree — the data-parallel *write* path.

A batch of writes lands as one vectorized pass, following BS-tree's
gapped node layout (arXiv 2505.01180) and FB+-tree's memory-optimized
update path (arXiv 2503.23397).  It serves two write-heavy roles: the
Hybrid Index dynamic stage (its sorted-column leaves make the dyn/static
merge a column concatenation) and the LSM memtable (a WAL group
commit applies as one vectorized batch insert, and flushing emits the
leaves in order with no sort step).

Layout
------
Two levels: a flat *directory* (a sorted numpy object array of each
leaf's minimum key, searched with ``searchsorted``) over fixed-capacity
*gapped leaves*.  A leaf is three columns of length ``leaf_capacity``:

* ``keys``  — object array, globally non-decreasing across all slots;
* ``vals``  — object array, payload per valid slot;
* ``valid`` — bool array marking real entries.

Invalid slots are *gaps*: each carries a copy of the nearest valid key
to its left (so ``searchsorted`` stays correct over the whole column)
and absorbs nearby inserts without shifting the rest of the leaf.
Batch insert redistributes gaps evenly (``FILL_FACTOR`` occupancy, the
periodic rebalance), and a leaf whose merged payload overflows splits
into as many leaves as the fill factor requires.

Concurrency
-----------
Leaf states and the directory are copy-on-write: a mutation never
writes into a published array — it builds fresh columns and publishes
them with a single attribute store (atomic under the GIL).  A reader
that captured ``self._dir`` therefore owns an immutable, fully
consistent snapshot of the whole tree; :meth:`freeze_view` exposes
exactly that (the LSM engine pins it for scans), and point reads on
the live tree are torn-read-free without any lock — the same contract
the previous dict memtable gave readers for free.

Batch algorithms (the ``put_many`` path)
----------------------------------------
1. last-wins dedup + one sort of the input batch (both C-level: a
   dict build and one ``sorted``);
2. *dense* batches — at least a quarter of the tree's key count —
   skip per-leaf work entirely: the live columns concatenate into one
   flat run, merge with the batch at C speed (two ascending runs
   through Timsort's galloping merge), and every leaf is rebuilt in
   one vectorized pass (:func:`_build_leaves` computes all gap slots
   for all leaves with a handful of numpy kernels).  This is the
   regime LSM memtable drains run in;
3. *sparse* batches walk the directory with ``bisect`` — one search
   per touched leaf, not per key — cutting the batch into contiguous
   per-leaf segments.  A segment that fits the leaf's free slots is
   absorbed into its gaps by the scalar insert's nearest-gap walk
   (once per key on numpy copies for up to three keys, on Python lists
   from four); an overflowing segment merges with the leaf's live run
   and rebalance-splits into fresh ``FILL_FACTOR``-occupied leaves.
   There is no batch delete: ``delete_many`` is the
   :class:`~repro.trees.base.OrderedIndex` loop over ``delete``.

Values are opaque (the LSM memtable stores its ``TOMBSTONE`` sentinel
as an ordinary value).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .base import OrderedIndex, POINTER_BYTES, heap_key_bytes

#: Slots per leaf.  The gapped layout trades node size for shift
#: distance: wider leaves mean fewer directory entries (cheaper COW
#: splices and batch walks) and more keys per touched leaf in a batch,
#: which amortizes the fixed per-leaf absorb cost; shifts stay short
#: because rebalance re-spreads the gaps evenly.  512 slots is the
#: measured throughput knee for the scalar-vs-batch write mix (the gap
#: fraction — and so memory per key — is capacity-independent).
DEFAULT_LEAF_CAPACITY = 512
#: Occupancy after a rebalance: the remaining quarter of each leaf is
#: interleaved gaps for future inserts (BS-tree uses a similar slack).
FILL_FACTOR = 0.75

_LEAF_HEADER_BYTES = 16


def _obj_array(items: Sequence[Any]) -> np.ndarray:
    """A 1-D object ndarray of ``items`` — never letting numpy unpack
    bytes elements into per-byte rows."""
    arr = np.empty(len(items), dtype=object)
    if len(items):
        arr[:] = items
    return arr


class _LeafState:
    """One immutable leaf: published once, never mutated."""

    __slots__ = ("keys", "vals", "valid", "count", "min_key", "_keys_list")

    def __init__(self, keys: np.ndarray, vals: np.ndarray, valid: np.ndarray,
                 count: int, min_key: bytes,
                 keys_list: list | None = None) -> None:
        self.keys = keys
        self.vals = vals
        self.valid = valid
        self.count = count
        self.min_key = min_key
        #: Lazy plain-list mirror of ``keys`` for C ``bisect`` probes —
        #: a pure cache of an immutable column, so sharing and the
        #: benign build race under the GIL are both safe.
        self._keys_list = keys_list

    def key_list(self) -> list:
        kl = self._keys_list
        if kl is None:
            kl = self._keys_list = self.keys.tolist()
        return kl


class _Dir:
    """One immutable tree layout: leaf states plus their separators."""

    __slots__ = ("seps", "seps_list", "leaves", "count")

    def __init__(self, seps: np.ndarray, leaves: tuple[_LeafState, ...],
                 count: int, seps_list: list | None = None) -> None:
        self.seps = seps
        self.seps_list = seps.tolist() if seps_list is None else seps_list
        self.leaves = leaves
        self.count = count


def _empty_leaf(capacity: int) -> _LeafState:
    keys = np.empty(capacity, dtype=object)
    keys[:] = b""
    return _LeafState(
        keys,
        np.empty(capacity, dtype=object),
        np.zeros(capacity, dtype=bool),
        0,
        b"",
    )


def _empty_dir(capacity: int) -> _Dir:
    leaf = _empty_leaf(capacity)
    return _Dir(_obj_array([leaf.min_key]), (leaf,), 0)


def _pack_leaf(keys: np.ndarray, vals: np.ndarray, capacity: int) -> _LeafState:
    """Spread one sorted run (``len <= capacity``) over a fresh leaf
    with evenly interleaved gaps; gap slots repeat their left
    neighbour's key so the column stays sorted."""
    m = len(keys)
    slots = (np.arange(m) * capacity) // m  # strictly increasing, slot 0 first
    counts = np.diff(np.append(slots, capacity))
    full_keys = np.repeat(keys, counts)
    full_vals = np.empty(capacity, dtype=object)
    full_vals[slots] = vals
    valid = np.zeros(capacity, dtype=bool)
    valid[slots] = True
    return _LeafState(full_keys, full_vals, valid, m, keys[0])


def _build_leaves(keys: np.ndarray, vals: np.ndarray,
                  capacity: int) -> list[_LeafState]:
    """Rebalance one sorted run into ``FILL_FACTOR``-occupied leaves.

    All leaves are packed in one vectorized pass (the :func:`_pack_leaf`
    layout, computed for every key at once): per-key gap repeat counts
    come from integer math on flat index arrays, one ``np.repeat``
    materializes every leaf's key column including the gap duplicates,
    and the result is reshaped to one row per leaf — the per-leaf
    states are row views, so a rebuild of L leaves costs a handful of
    C passes plus L constructor calls instead of ~10 numpy kernels per
    leaf."""
    n = len(keys)
    if n == 0:
        return []
    per_leaf = max(1, int(capacity * FILL_FACTOR))
    n_leaves = -(-n // per_leaf)  # ceil
    if n_leaves == 1:
        return [_pack_leaf(keys, vals, capacity)]
    # np.array_split sizing: the first n % L chunks get one extra key.
    base, rem = divmod(n, n_leaves)
    sizes = np.full(n_leaves, base)
    sizes[:rem] += 1
    starts = np.concatenate(([0], np.cumsum(sizes[:-1])))
    # Per key: its leaf-local rank j and leaf occupancy m give its gap
    # slot (j * capacity) // m, exactly as _pack_leaf places it.
    m_per_key = np.repeat(sizes, sizes)
    j = np.arange(n) - np.repeat(starts, sizes)
    slot = (j * capacity) // m_per_key
    next_slot = np.where(j + 1 < m_per_key,
                         ((j + 1) * capacity) // m_per_key, capacity)
    full_keys = np.repeat(keys, next_slot - slot)  # n_leaves * capacity
    mat_keys = full_keys.reshape(n_leaves, capacity)
    flat_vals = np.empty(n_leaves * capacity, dtype=object)
    flat_valid = np.zeros(n_leaves * capacity, dtype=bool)
    gslot = slot + np.repeat(np.arange(n_leaves), sizes) * capacity
    flat_vals[gslot] = vals
    flat_valid[gslot] = True
    mat_vals = flat_vals.reshape(n_leaves, capacity)
    mat_valid = flat_valid.reshape(n_leaves, capacity)
    min_keys = keys[starts].tolist()
    counts = sizes.tolist()
    return [
        _LeafState(mat_keys[r], mat_vals[r], mat_valid[r], counts[r],
                   min_keys[r])
        for r in range(n_leaves)
    ]


def _leaf_columns(state: _LeafState) -> tuple[np.ndarray, np.ndarray]:
    """The leaf's valid (key, value) columns, compacted and sorted."""
    return state.keys[state.valid], state.vals[state.valid]


def _merge_runs(
    a_keys: np.ndarray, a_vals: np.ndarray,
    b_keys: np.ndarray, b_vals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized merge of two sorted runs; on duplicate keys ``b``
    wins (``a``'s copy is dropped first, so no ties remain)."""
    if len(a_keys):
        pos = np.searchsorted(a_keys, b_keys)
        dup = pos < len(a_keys)
        if dup.any():
            dup[dup] = a_keys[pos[dup]] == b_keys[dup]
        if dup.any():
            keep = np.ones(len(a_keys), dtype=bool)
            keep[pos[dup]] = False
            a_keys, a_vals = a_keys[keep], a_vals[keep]
    na, nb = len(a_keys), len(b_keys)
    if na == 0:
        return b_keys, b_vals
    # Scatter interleave: each run's final index is its own rank plus
    # the count of the other run's keys before it (no ties remain).
    at = np.searchsorted(b_keys, a_keys) + np.arange(na)
    bt = np.searchsorted(a_keys, b_keys) + np.arange(nb)
    out_keys = np.empty(na + nb, dtype=object)
    out_vals = np.empty(na + nb, dtype=object)
    out_keys[at] = a_keys
    out_keys[bt] = b_keys
    out_vals[at] = a_vals
    out_vals[bt] = b_vals
    return out_keys, out_vals


#: Public name for the vectorized two-way merge: the Hybrid Index's
#: dynamic/static merge consumes it directly on exported columns.
merge_sorted_columns = _merge_runs


def _route(d: _Dir, key: bytes) -> int:
    """Directory descent: the leaf whose range covers ``key``."""
    return max(bisect.bisect_right(d.seps_list, key) - 1, 0)


def _find_slot(state: _LeafState, key: bytes) -> int:
    """Slot of the valid entry holding ``key``, or -1.

    Gap slots may duplicate ``key`` (they copy neighbour keys), so the
    equal run located by ``bisect`` is scanned for the one valid
    owner; the run is at most gaps-plus-one slots long.
    """
    kl = state.key_list()
    lo = bisect.bisect_left(kl, key)
    hi = bisect.bisect_right(kl, key, lo=lo)
    valid = state.valid
    for j in range(lo, hi):
        if valid[j]:
            return j
    return -1


def _set_value(state: _LeafState, slot: int, value: Any) -> _LeafState:
    """``state`` with the valid entry at ``slot`` overwritten (only the
    value column is copied; keys, validity and the key list are shared)."""
    vals = state.vals.copy()
    vals[slot] = value
    return _LeafState(state.keys, vals, state.valid, state.count,
                      state.min_key, keys_list=state._keys_list)


def _gap_insert(state: _LeafState, key: bytes, value: Any) -> _LeafState:
    """``state`` with ``key`` (absent from its valid slots; the leaf
    has a gap) inserted: the one numpy "nearest gap, shift" walk.

    The slots between the insertion point and the nearer gap move one
    toward it (the gapped layout's point: slots moved is the distance
    to the nearest gap, not n/2).  Numpy copies, because C memcpy of
    the three columns beats a list round-trip for a single key.
    """
    kl = state.key_list()
    lo = bisect.bisect_left(kl, key)
    hi = bisect.bisect_right(kl, key, lo=lo)
    keys = state.keys.copy()
    vals = state.vals.copy()
    valid = state.valid.copy()
    if hi > lo:
        # A gap already carries this exact key (its valid owner was
        # deleted): claim it with no shift; the key list stays exact.
        pos, new_kl = lo, kl
    else:
        gap_r = -1
        for j in range(lo, len(valid)):
            if not valid[j]:
                gap_r = j
                break
        gap_l = -1
        for j in range(lo - 1, -1, -1):
            if not valid[j]:
                gap_l = j
                break
        # The cached key list shifts in lockstep — a short list splice
        # is far cheaper than the full tolist() rebuild the next probe
        # would otherwise pay.
        new_kl = kl.copy()
        if gap_l < 0 or (gap_r >= 0 and gap_r - lo <= lo - 1 - gap_l):
            keys[lo + 1: gap_r + 1] = keys[lo:gap_r]
            vals[lo + 1: gap_r + 1] = vals[lo:gap_r]
            valid[lo + 1: gap_r + 1] = valid[lo:gap_r]
            new_kl[lo + 1: gap_r + 1] = new_kl[lo:gap_r]
            pos = lo
        else:
            keys[gap_l:lo - 1] = keys[gap_l + 1:lo]
            vals[gap_l:lo - 1] = vals[gap_l + 1:lo]
            valid[gap_l:lo - 1] = valid[gap_l + 1:lo]
            new_kl[gap_l:lo - 1] = new_kl[gap_l + 1:lo]
            pos = lo - 1
        new_kl[pos] = key
    keys[pos] = key
    vals[pos] = value
    valid[pos] = True
    min_key = key if state.count == 0 or key < state.min_key else state.min_key
    return _LeafState(keys, vals, valid, state.count + 1, min_key,
                      keys_list=new_kl)


class GappedView:
    """A frozen, read-consistent view over one captured :class:`_Dir`.

    The LSM engine pins one per scan/seek (``copy_mem=True`` views):
    mapping-style reads plus sorted iteration, all over immutable
    state, so a concurrent writer can never tear it.
    """

    __slots__ = ("_dir",)

    def __init__(self, dir_: _Dir) -> None:
        self._dir = dir_

    def __len__(self) -> int:
        return self._dir.count

    def __contains__(self, key: bytes) -> bool:
        leaf = self._dir.leaves[_route(self._dir, key)]
        return _find_slot(leaf, key) >= 0

    def __getitem__(self, key: bytes) -> Any:
        leaf = self._dir.leaves[_route(self._dir, key)]
        slot = _find_slot(leaf, key)
        if slot < 0:
            raise KeyError(key)
        return leaf.vals[slot]

    def get(self, key: bytes, default: Any = None) -> Any:
        leaf = self._dir.leaves[_route(self._dir, key)]
        slot = _find_slot(leaf, key)
        return default if slot < 0 else leaf.vals[slot]

    def items(self) -> Iterator[tuple[bytes, Any]]:
        for leaf in self._dir.leaves:
            slots = np.flatnonzero(leaf.valid)
            yield from zip(leaf.keys[slots].tolist(), leaf.vals[slots].tolist())

    def keys(self) -> Iterator[bytes]:
        for k, _ in self.items():
            yield k


class GappedBPlusTree(OrderedIndex):
    """Gapped, batch-updatable B+tree (numpy columns, COW nodes)."""

    def __init__(
        self,
        pairs: Sequence[tuple[bytes, Any]] = (),
        leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
    ) -> None:
        if leaf_capacity < 8:
            raise ValueError("leaf_capacity must be >= 8")
        self._capacity = leaf_capacity
        self._dir = _empty_dir(leaf_capacity)
        if pairs:
            self.put_many(pairs)

    # -- directory maintenance (writer side) --------------------------------

    def _install(self, leaves: Iterable[_LeafState], count: int) -> None:
        leaves = tuple(leaves)
        if not leaves:
            self._dir = _empty_dir(self._capacity)
            return
        seps_list = [leaf.min_key for leaf in leaves]
        seps = np.empty(len(leaves), dtype=object)
        seps[:] = seps_list
        self._dir = _Dir(seps, leaves, count, seps_list=seps_list)

    def _replace_leaf(self, idx: int, new_leaves: list[_LeafState],
                      count_delta: int) -> None:
        d = self._dir
        if len(new_leaves) == 1 and new_leaves[0].min_key == d.leaves[idx].min_key:
            # Same span, same separator: publish a directory that shares
            # the old seps columns instead of rebuilding them (the
            # common case for every scalar overwrite/absorb/delete).
            leaves = d.leaves[:idx] + (new_leaves[0],) + d.leaves[idx + 1:]
            self._dir = _Dir(d.seps, leaves, d.count + count_delta,
                             seps_list=d.seps_list)
            return
        leaves = d.leaves[:idx] + tuple(new_leaves) + d.leaves[idx + 1:]
        self._install(leaves, d.count + count_delta)

    # -- scalar writes -------------------------------------------------------

    def _leaf_upsert(self, idx: int, key: bytes, value: Any,
                     insert_only: bool, update_only: bool) -> bool:
        """COW upsert into leaf ``idx``; returns whether a write landed.

        The fresh columns are built fully before the single publishing
        store, so readers only ever see the old or the new leaf.
        """
        state = self._dir.leaves[idx]
        slot = _find_slot(state, key)
        if slot >= 0:
            if insert_only:
                return False
            self._replace_leaf(idx, [_set_value(state, slot, value)], 0)
            return True
        if update_only:
            return False
        if state.count >= self._capacity:
            # Full leaf: merge the new pair in and rebalance-split.
            lk, lv = _leaf_columns(state)
            mk, mv = _merge_runs(lk, lv, _obj_array([key]), _obj_array([value]))
            self._replace_leaf(idx, _build_leaves(mk, mv, self._capacity), 1)
            return True
        self._replace_leaf(idx, [_gap_insert(state, key, value)], 1)
        return True

    def insert(self, key: bytes, value: Any) -> bool:
        return self._leaf_upsert(_route(self._dir, key), key, value,
                                 insert_only=True, update_only=False)

    def update(self, key: bytes, value: Any) -> bool:
        return self._leaf_upsert(_route(self._dir, key), key, value,
                                 insert_only=False, update_only=True)

    def put(self, key: bytes, value: Any) -> None:
        """Upsert (the memtable write): insert or overwrite."""
        self._leaf_upsert(_route(self._dir, key), key, value,
                          insert_only=False, update_only=False)

    def delete(self, key: bytes) -> bool:
        idx = _route(self._dir, key)
        state = self._dir.leaves[idx]
        slot = _find_slot(state, key)
        if slot < 0:
            return False
        valid = state.valid.copy()
        valid[slot] = False
        count = state.count - 1
        if count == 0 and len(self._dir.leaves) > 1:
            self._replace_leaf(idx, [], -1)
            return True
        if count and slot == int(np.argmax(state.valid)):
            min_key = state.keys[np.flatnonzero(valid)[0]]
        else:
            min_key = state.min_key if count else b""
        # The slot keeps its key: it is now a gap whose copy of the
        # deleted key preserves column order (and lets a re-insert of
        # the same key reclaim it shift-free).
        new = _LeafState(state.keys, state.vals, valid, count, min_key,
                         keys_list=state._keys_list)
        self._replace_leaf(idx, [new], -1)
        return True

    # -- batch writes (the tentpole) -----------------------------------------

    def _absorb_segment(self, state: _LeafState, bk: list,
                        bv: list) -> tuple[_LeafState, int]:
        """Upsert a sorted segment into one leaf's gaps.

        The caller guarantees the segment fits (``count + len(bk) <=
        capacity``); returns the fresh leaf state and the number of
        *new* keys.  A segment of fewer than four keys loops the scalar
        path's helpers (:func:`_gap_insert` on numpy column copies); from
        four keys on, :meth:`_absorb_segment_list` runs the same walk on
        Python lists.
        """
        if len(bk) >= 4:
            return self._absorb_segment_list(state, bk, bv)
        count = state.count
        for key, value in zip(bk, bv):
            slot = _find_slot(state, key)
            if slot >= 0:
                state = _set_value(state, slot, value)
            else:
                state = _gap_insert(state, key, value)
        return state, state.count - count

    def _absorb_segment_list(self, state: _LeafState, bk: list,
                             bv: list) -> tuple[_LeafState, int]:
        """:func:`_gap_insert`'s walk on Python lists, for every
        segment of four keys or more that fits the leaf.  All three
        columns convert to lists once — per-key list slicing is markedly
        cheaper than numpy slice assignment, which repays the conversion
        from about four keys on.  Two economies the segment's sort order
        allows: the insertion-point search resumes from the previous
        key's slot (``bisect`` with a moving ``lo`` bound), and a single
        equality check on the slot replaces the second bisect — batch
        keys are deduped, so an equal run can only be gap duplicates."""
        cap = self._capacity
        keys_l = state.key_list().copy()
        vals_l = state.vals.tolist()
        valid_l = state.valid.tolist()
        count = state.count
        search_lo = 0
        for key, value in zip(bk, bv):
            lo = bisect.bisect_left(keys_l, key, lo=search_lo)
            search_lo = lo
            if lo < cap and keys_l[lo] == key:
                slot = -1
                j = lo
                while j < cap and keys_l[j] == key:
                    if valid_l[j]:
                        slot = j
                        break
                    j += 1
                if slot >= 0:  # live key: overwrite in place
                    vals_l[slot] = value
                    continue
                pos = lo  # a gap already carries this exact key
            else:
                gap_r = -1
                for j in range(lo, cap):
                    if not valid_l[j]:
                        gap_r = j
                        break
                # The left scan only needs to beat the right gap's
                # distance; stop as soon as it cannot.
                floor = -1 if gap_r < 0 else lo - (gap_r - lo) - 1
                gap_l = -1
                for j in range(lo - 1, max(floor, -1), -1):
                    if not valid_l[j]:
                        gap_l = j
                        break
                if gap_l < 0 or (gap_r >= 0 and gap_r - lo <= lo - 1 - gap_l):
                    keys_l[lo + 1: gap_r + 1] = keys_l[lo:gap_r]
                    vals_l[lo + 1: gap_r + 1] = vals_l[lo:gap_r]
                    valid_l[lo + 1: gap_r + 1] = valid_l[lo:gap_r]
                    pos = lo
                else:
                    keys_l[gap_l:lo - 1] = keys_l[gap_l + 1:lo]
                    vals_l[gap_l:lo - 1] = vals_l[gap_l + 1:lo]
                    valid_l[gap_l:lo - 1] = valid_l[gap_l + 1:lo]
                    pos = lo - 1
            keys_l[pos] = key
            vals_l[pos] = value
            valid_l[pos] = True
            count += 1
        keys = np.empty(cap, dtype=object)
        keys[:] = keys_l
        vals = np.empty(cap, dtype=object)
        vals[:] = vals_l
        valid = np.array(valid_l, dtype=bool)
        if state.count == 0 or bk[0] < state.min_key:
            min_key = bk[0]
        else:
            min_key = state.min_key
        new = _LeafState(keys, vals, valid, count, min_key, keys_list=keys_l)
        return new, count - state.count

    def put_many(self, pairs: Sequence[tuple[bytes, Any]]) -> None:
        """Vectorized bulk upsert: a bisect walk over the directory
        partitions the sorted batch into contiguous per-leaf segments
        (one search per *touched leaf*, not per key); a segment that
        fits is absorbed into its leaf's gaps, one that does not merges
        with the leaf and rebalance-splits it."""
        if not len(pairs):
            return
        # Last-wins dedup + sort, all C-level (dict build, one sort).
        dedup = dict(pairs)
        bk_list = sorted(dedup)
        bv_list = [dedup[k] for k in bk_list]
        d = self._dir
        if d.count == 0:
            self._install(
                _build_leaves(_obj_array(bk_list), _obj_array(bv_list),
                              self._capacity),
                len(bk_list),
            )
            return
        n = len(bk_list)
        if n * 4 >= d.count:
            # Dense batch: the walk would touch nearly every leaf, so a
            # flat whole-tree rebuild is cheaper.  Concatenate the live
            # columns once, merge the two sorted runs at C speed (a dict
            # built from the existing run then updated with the batch
            # run leaves two ascending key runs for Timsort's galloping
            # merge), and repack every leaf in one vectorized pass.
            if len(d.leaves) == 1:
                flat_keys, flat_vals = _leaf_columns(d.leaves[0])
            else:
                live = np.concatenate([leaf.valid for leaf in d.leaves])
                flat_keys = np.concatenate(
                    [leaf.keys for leaf in d.leaves])[live]
                flat_vals = np.concatenate(
                    [leaf.vals for leaf in d.leaves])[live]
            merged = dict(zip(flat_keys.tolist(), flat_vals.tolist()))
            merged.update(zip(bk_list, bv_list))
            mk_list = sorted(merged)
            mv_list = [merged[k] for k in mk_list]
            self._install(
                _build_leaves(_obj_array(mk_list), _obj_array(mv_list),
                              self._capacity),
                len(mk_list),
            )
            return
        seps_list = d.seps_list
        nsep = len(seps_list)
        new_leaves: list[_LeafState] = []
        count = d.count
        prev = 0
        i = 0
        while i < n:
            idx = bisect.bisect_right(seps_list, bk_list[i], lo=prev) - 1
            if idx < 0:
                idx = 0
            # The segment runs to the first key owned by the next leaf.
            if idx + 1 >= nsep:
                e = n
            else:
                e = bisect.bisect_left(bk_list, seps_list[idx + 1], lo=i)
            new_leaves.extend(d.leaves[prev:idx])
            prev = idx + 1
            state = d.leaves[idx]
            if e - i <= self._capacity - state.count:
                new, added = self._absorb_segment(state, bk_list[i:e],
                                                  bv_list[i:e])
                count += added
                new_leaves.append(new)
            else:
                lk, lv = _leaf_columns(state)
                mk, mv = _merge_runs(lk, lv, _obj_array(bk_list[i:e]),
                                     _obj_array(bv_list[i:e]))
                count += len(mk) - state.count
                new_leaves.extend(_build_leaves(mk, mv, self._capacity))
            i = e
        new_leaves.extend(d.leaves[prev:])
        self._install(new_leaves, count)

    # -- reads ---------------------------------------------------------------

    def get(self, key: bytes, default: Any = None) -> Any:
        d = self._dir
        leaf = d.leaves[_route(d, key)]
        slot = _find_slot(leaf, key)
        return default if slot < 0 else leaf.vals[slot]

    def __contains__(self, key: bytes) -> bool:
        # Exact (slot-based) membership: a stored None or sentinel value
        # still counts as present — the memtable contract.
        d = self._dir
        return _find_slot(d.leaves[_route(d, key)], key) >= 0

    def __getitem__(self, key: bytes) -> Any:
        d = self._dir
        leaf = d.leaves[_route(d, key)]
        slot = _find_slot(leaf, key)
        if slot < 0:
            raise KeyError(key)
        return leaf.vals[slot]

    def keys(self) -> Iterator[bytes]:
        for k, _ in self.items():
            yield k

    # -- ordered access ------------------------------------------------------

    def lower_bound(self, key: bytes) -> Iterator[tuple[bytes, Any]]:
        d = self._dir  # captured once: the iteration is over a snapshot
        idx = _route(d, key)
        for i in range(idx, len(d.leaves)):
            state = d.leaves[i]
            start = int(np.searchsorted(state.keys, key, side="left")) if i == idx else 0
            slots = np.flatnonzero(state.valid[start:]) + start
            yield from zip(state.keys[slots].tolist(), state.vals[slots].tolist())

    def items(self) -> Iterator[tuple[bytes, Any]]:
        d = self._dir
        for state in d.leaves:
            slots = np.flatnonzero(state.valid)
            yield from zip(state.keys[slots].tolist(), state.vals[slots].tolist())

    def seek(self, low: bytes, high: bytes | None = None) -> tuple[bytes, Any] | None:
        """Smallest entry with key >= ``low`` (and <= ``high`` if given)."""
        for k, v in self.lower_bound(low):
            if high is not None and k > high:
                return None
            return (k, v)
        return None

    def __len__(self) -> int:
        return self._dir.count

    # -- views / export ------------------------------------------------------

    def freeze_view(self) -> GappedView:
        """A frozen mapping over the current state — O(1): COW means
        capturing the directory *is* the snapshot."""
        return GappedView(self._dir)

    def export_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """All live entries as two sorted object columns (keys, values)
        — the Hybrid merge consumes this as a column concatenation."""
        d = self._dir
        parts = [_leaf_columns(state) for state in d.leaves if state.count]
        if not parts:
            empty = np.empty(0, dtype=object)
            return empty, empty
        return (
            np.concatenate([k for k, _ in parts]),
            np.concatenate([v for _, v in parts]),
        )

    # -- statistics ----------------------------------------------------------

    def leaf_count(self) -> int:
        return len(self._dir.leaves)

    def occupancy(self) -> float:
        d = self._dir
        return d.count / (len(d.leaves) * self._capacity)

    def memory_bytes(self) -> int:
        """Modeled C layout: per leaf, key-reference and value columns
        plus a validity bitmap; a flat separator directory; long keys
        on the heap (valid entries only)."""
        d = self._dir
        leaf_bytes = (
            self._capacity * 2 * POINTER_BYTES  # key refs + values
            + (self._capacity + 7) // 8         # valid bitmap
            + _LEAF_HEADER_BYTES
        )
        total = len(d.leaves) * leaf_bytes
        total += len(d.leaves) * 2 * POINTER_BYTES  # directory entry + sep ref
        total += sum(heap_key_bytes(k) for k, _ in self.items())
        return total
