"""SuRF: the Succinct Range Filter (Chapter 4).

SuRF truncates an FST to minimum-length distinguishing prefixes and
optionally appends per-key suffix bits:

* **SuRF-Base**  — no suffix bits (10-14 bits/key empirically);
* **SuRF-Hash**  — ``n`` LSBs of a key hash: point-query FPR < 2^-n,
  no help for ranges;
* **SuRF-Real**  — the first ``n`` bits of the truncated key suffix:
  helps both point and range queries, but correlated keys weaken it;
* **SuRF-Mixed** — both kinds, stored consecutively.

Operations follow Section 4.1.5: ``lookup``, ``move_to_next``
(LowerBound with an fp_flag for truncated-prefix matches),
``lookup_range`` and the approximate ``count``.  All guarantee
one-sided errors: a negative answer proves absence.
"""

from __future__ import annotations

from typing import Literal, Sequence

import numpy as np

from ..filters.bloom import hash64, hash64_many
from ..fst.fst import FST, FstIterator

SuffixType = Literal["none", "hash", "real", "mixed"]


def _real_suffix_bits(suffix: bytes, n_bits: int) -> int:
    """First ``n_bits`` of ``suffix`` MSB-first, zero-padded."""
    if n_bits == 0:
        return 0
    needed = (n_bits + 7) // 8
    padded = suffix[:needed].ljust(needed, b"\0")
    value = int.from_bytes(padded, "big")
    return value >> (needed * 8 - n_bits)


class SuRF:
    """Succinct Range Filter over a static set of byte keys."""

    def __init__(
        self,
        keys: Sequence[bytes],
        suffix_type: SuffixType = "none",
        hash_bits: int = 0,
        real_bits: int = 0,
        **fst_kwargs,
    ) -> None:
        """Build from sorted, distinct keys.

        ``hash_bits``/``real_bits`` default from the suffix type: pass
        them explicitly to size the filter (Figure 4.4 sweeps these).
        """
        if suffix_type not in ("none", "hash", "real", "mixed"):
            raise ValueError(f"unknown suffix type {suffix_type!r}")
        if suffix_type == "none":
            hash_bits = real_bits = 0
        elif suffix_type == "hash":
            real_bits = 0
            if hash_bits <= 0:
                raise ValueError("SuRF-Hash needs hash_bits > 0")
        elif suffix_type == "real":
            hash_bits = 0
            if real_bits <= 0:
                raise ValueError("SuRF-Real needs real_bits > 0")
        elif suffix_type == "mixed" and (hash_bits <= 0 or real_bits <= 0):
            raise ValueError("SuRF-Mixed needs hash_bits and real_bits > 0")
        if max(hash_bits, real_bits) > 64:
            raise ValueError("suffix bits are stored as 64-bit words")
        self.suffix_type = suffix_type
        self.hash_bits = hash_bits
        self.real_bits = real_bits
        # The FST's values default to the key positions.
        self.fst = FST(keys, truncate=True, **fst_kwargs)
        #: Tombstone bit-array (Section 4.5): allocated on first delete.
        self._tombstones: bytearray | None = None
        # Per-key suffix words, indexed by key position (the FST values),
        # computed for the whole key column at once.  A loaded filter
        # holds zero-copy memoryviews instead; both index to plain ints.
        self._hash_suffixes: list[int] | memoryview = []
        self._real_suffixes: list[int] | memoryview = []
        if hash_bits:
            mask = np.uint64((1 << hash_bits) - 1)
            self._hash_suffixes = (hash64_many(keys) & mask).tolist()
        if real_bits:
            self._real_suffixes = self.fst.suffixes.leading_bits(real_bits).tolist()

    # -- point membership -----------------------------------------------------------

    def lookup(self, key: bytes) -> bool:
        """May ``key`` be in the set?  False proves absence."""
        found = self.fst._lookup(key)
        if found is None:
            return False
        key_index, remaining = found
        if self.is_deleted(key_index):
            return False
        if self.hash_bits:
            mask = (1 << self.hash_bits) - 1
            if hash64(key) & mask != self._hash_suffixes[key_index]:
                return False
        if self.real_bits:
            if (
                _real_suffix_bits(remaining, self.real_bits)
                != self._real_suffixes[key_index]
            ):
                return False
        return True

    __contains__ = lookup
    #: Filter-vocabulary alias: SuRF, Bloom and PrefixBloom all answer
    #: ``may_contain`` / ``may_contain_range`` (one-sided membership).
    may_contain = lookup

    def lookup_many(self, keys: Sequence[bytes]) -> list[bool]:
        """``[self.lookup(k) for k in keys]``: one result per key."""
        return [self.lookup(k) for k in keys]

    #: Filter-vocabulary alias (see :meth:`may_contain`).
    may_contain_many = lookup_many

    # -- range operations ---------------------------------------------------------------

    def move_to_next(self, key: bytes) -> tuple[FstIterator, bool]:
        """Iterator at the smallest stored entry >= ``key`` plus the
        fp_flag indicating the entry is a truncated prefix of ``key``
        (Section 4.1.5)."""
        it = self.fst.seek(key)
        if it.valid and it.fp_flag and self.real_bits:
            # Real suffix bits can disambiguate a prefix match: compare
            # the stored suffix with the query's corresponding bits.
            key_index = it.value()
            stored = self._real_suffixes[key_index]
            query_bits = _real_suffix_bits(
                key[len(it.key()) :], self.real_bits
            )
            if query_bits > stored:
                it.next()
                it.fp_flag = False
        return it, it.valid and it.fp_flag

    def lookup_range(
        self, low: bytes, high: bytes, inclusive_high: bool = False
    ) -> bool:
        """May any key lie in [low, high) (or [low, high])?"""
        if high < low or (high == low and not inclusive_high):
            return False
        it, _fp = self.move_to_next(low)
        if not it.valid:
            return False
        stored = it.key()
        if stored < high:
            return True
        if inclusive_high and stored == high:
            return True
        # A stored *proper* prefix of `high` may stand for a full key
        # below it.  Equality is excluded: that full key extends the
        # stored entry, so it is >= high and outside [low, high).
        return len(stored) < len(high) and high.startswith(stored)

    #: Filter-vocabulary alias (see :meth:`may_contain`).
    may_contain_range = lookup_range

    def lookup_range_many(
        self, pairs: Sequence[tuple[bytes, bytes]]
    ) -> list[bool]:
        """Batched :meth:`lookup_range` (range walks stay scalar: each
        query follows its own seek path)."""
        return [self.lookup_range(low, high) for low, high in pairs]

    #: Filter-vocabulary alias (see :meth:`may_contain`).
    may_contain_range_many = lookup_range_many

    def count(self, low: bytes, high: bytes) -> int:
        """Approximate number of keys in [low, high); can over-count by
        at most two at truncated boundaries, and never under-counts.

        A stored entry that is a proper *prefix* of ``low`` sorts below
        ``low`` (so the trie count excludes it) yet stands for a full
        key that may lie inside the range — include it, keeping the
        error one-sided.  The matching ``high``-boundary prefix is
        already inside the counted interval; at most one leaf can be a
        prefix of each bound, hence the <= 2 over-count.
        """
        if high <= low:
            return 0
        n = self.fst.count_range(low, high)
        it = self.fst.seek(low)
        if it.valid and it.fp_flag:  # truncated prefix of `low`: ambiguous
            n += 1
        return n

    # -- deletion (Section 4.5's tombstone extension) --------------------------------------

    def delete(self, key: bytes) -> bool:
        """Mark a stored key deleted via the tombstone bit-array.

        Section 4.5: "To create a deletable filter, we can introduce an
        additional tombstone bit-array with one bit per key...  the
        cost of a delete is almost the same as that of a lookup."
        Deleting a key the filter never stored is rejected when the
        structure can prove it; prefix-collided deletes share a
        tombstone (one-sided error is preserved: only false *negatives*
        for deleted keys are introduced, never for live ones).
        """
        found = self.fst._lookup(key)
        if found is None:
            return False
        if self._tombstones is None:
            self._tombstones = bytearray((self.fst.n_keys + 7) // 8)
        idx = found[0]
        self._tombstones[idx >> 3] |= 1 << (idx & 7)
        return True

    def is_deleted(self, key_index: int) -> bool:
        if self._tombstones is None:
            return False
        return bool(self._tombstones[key_index >> 3] & (1 << (key_index & 7)))

    # -- memory ---------------------------------------------------------------------------

    def size_bits(self) -> int:
        total = self.fst.size_bits() + self.fst.n_keys * (
            self.hash_bits + self.real_bits
        )
        if self._tombstones is not None:
            total += len(self._tombstones) * 8
        return total

    def memory_bytes(self) -> int:
        return (self.size_bits() + 7) // 8

    def bits_per_key(self) -> float:
        return self.size_bits() / max(1, self.fst.n_keys)

    def to_bytes(self) -> bytes:
        """Serialize the filter for persisting beside an SSTable."""
        from ..fst.serialize import surf_to_bytes

        return surf_to_bytes(self)

    @classmethod
    def from_bytes(cls, data: bytes, copy: bool = True) -> "SuRF":
        from ..fst.serialize import surf_from_bytes

        return surf_from_bytes(data, copy=copy)

    def __len__(self) -> int:
        return self.fst.n_keys


def surf_base(keys: Sequence[bytes], **kw) -> SuRF:
    """SuRF-Base: truncated trie only."""
    return SuRF(keys, suffix_type="none", **kw)


def surf_hash(keys: Sequence[bytes], hash_bits: int = 4, **kw) -> SuRF:
    """SuRF-Hash: hashed key suffixes (point-query FPR < 2^-n)."""
    return SuRF(keys, suffix_type="hash", hash_bits=hash_bits, **kw)


def surf_real(keys: Sequence[bytes], real_bits: int = 4, **kw) -> SuRF:
    """SuRF-Real: real key suffixes (helps point and range queries)."""
    return SuRF(keys, suffix_type="real", real_bits=real_bits, **kw)


def surf_mixed(
    keys: Sequence[bytes], hash_bits: int = 2, real_bits: int = 2, **kw
) -> SuRF:
    """SuRF-Mixed: hashed + real suffix bits stored consecutively."""
    return SuRF(keys, suffix_type="mixed", hash_bits=hash_bits, real_bits=real_bits, **kw)
