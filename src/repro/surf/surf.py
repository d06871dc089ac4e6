"""SuRF: the Succinct Range Filter (Chapter 4).

SuRF truncates an FST to minimum-length distinguishing prefixes and
optionally appends per-key suffix bits:

* **SuRF-Base**  — no suffix bits (10-14 bits/key empirically);
* **SuRF-Hash**  — ``n`` LSBs of a key hash: point-query FPR < 2^-n,
  no help for ranges;
* **SuRF-Real**  — the first ``n`` bits of the truncated key suffix:
  helps both point and range queries, but correlated keys weaken it;
* **SuRF-Mixed** — both kinds, stored consecutively.

The stored filter is what :meth:`SuRF.size_bits` charges: the trie
keeps no value column, and each suffix kind is one column of words
packed at its width, indexed — like the tombstones — by the leaf rank
the trie walk ends at.  An entry may straddle two words
(:func:`suffix_at`).

Operations follow Section 4.1.5: ``lookup``, ``move_to_next``
(LowerBound with an fp_flag for truncated-prefix matches),
``lookup_range`` and the approximate ``count``.  All guarantee
one-sided errors: a negative answer proves absence.
"""

from __future__ import annotations

from typing import Literal, Sequence

import numpy as np

from ..filters.bloom import hash64, hash64_many
from ..fst.builder import build_trie
from ..fst.fst import FST, FstIterator
from ..succinct.bitvector import int_view

SuffixType = Literal["none", "hash", "real", "mixed"]


def packed_words(n: int, width: int) -> int:
    """Words holding ``n`` entries of ``width`` bits."""
    return (n * width + 63) >> 6


def pack_suffixes(values: np.ndarray, width: int) -> np.ndarray:
    """Entry ``i`` of ``values`` (each < 2**width) at bits
    [i*width, (i+1)*width) of one little-endian uint64 bit stream."""
    words = np.zeros(packed_words(len(values), width), dtype=np.uint64)
    bit = np.arange(len(values), dtype=np.uint64) * np.uint64(width)
    at = (bit >> np.uint64(6)).astype(np.intp)
    shift = bit & np.uint64(63)
    np.bitwise_or.at(words, at, values << shift)
    # An entry that crosses a word boundary spills its high bits over.
    spill = shift + np.uint64(width) > 64
    np.bitwise_or.at(
        words, at[spill] + 1, values[spill] >> (np.uint64(64) - shift[spill])
    )
    return words


def suffix_at(words, i: int, width: int) -> int:
    """Entry ``i`` of a :func:`pack_suffixes` column (``words`` indexes
    to plain ints)."""
    bit = i * width
    at = bit >> 6
    shift = bit & 63
    value = words[at] >> shift
    if shift + width > 64:
        value |= words[at + 1] << (64 - shift)
    return value & ((1 << width) - 1)


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
            raise ValueError("a suffix column packs entries of at most 64 bits")
        self.suffix_type = suffix_type
        self.hash_bits = hash_bits
        self.real_bits = real_bits
        trie = build_trie(keys, truncate=True)
        # The trie's default values are the key positions in leaf order
        # (the builder's leaf -> key permutation): one gather puts each
        # suffix column in leaf order, and the FST keeps no values.
        by_leaf = np.asarray(trie.values, dtype=np.intp)
        trie.values = None
        self.fst = FST._from_trie(trie, truncate=True, **fst_kwargs)
        #: Tombstone bit-array (Section 4.5): allocated on first delete.
        self._tombstones: bytearray | None = None
        hash_words = real_words = np.zeros(0, dtype=np.uint64)
        if hash_bits:
            mask = np.uint64((1 << hash_bits) - 1)
            hash_words = pack_suffixes(hash64_many(keys)[by_leaf] & mask, hash_bits)
        if real_bits:
            by_key = trie.suffixes.leading_bits(real_bits)
            real_words = pack_suffixes(by_key[by_leaf], real_bits)
        self._set_words(hash_words, real_words)

    def _set_words(self, hash_words: np.ndarray, real_words: np.ndarray) -> None:
        """Bind the packed suffix columns (built, or views of a loaded
        blob) and the int views lookups read them through."""
        self._hash_words = hash_words
        self._real_words = real_words
        self._hash_view = int_view(hash_words)
        self._real_view = int_view(real_words)

    # -- point membership -----------------------------------------------------------

    def lookup(self, key: bytes) -> bool:
        """May ``key`` be in the set?  False proves absence.

        One trie walk, then the tombstone bit and each suffix entry read
        straight off their words (:meth:`is_deleted`, :func:`suffix_at`
        and :func:`_real_suffix_bits`, inlined: this is every filter
        probe the engine makes).
        """
        found = self.fst._lookup(key)
        if found is None:
            return False
        rank, remaining = found
        tombstones = self._tombstones
        if tombstones is not None and tombstones[rank >> 3] >> (rank & 7) & 1:
            return False
        width = self.hash_bits
        if width:
            words, bit = self._hash_view, rank * width
            at, shift = bit >> 6, bit & 63
            stored = words[at] >> shift
            if shift + width > 64:
                stored |= words[at + 1] << (64 - shift)
            if (hash64(key) ^ stored) & ((1 << width) - 1):
                return False
        width = self.real_bits
        if width:
            words, bit = self._real_view, rank * width
            at, shift = bit >> 6, bit & 63
            stored = words[at] >> shift
            if shift + width > 64:
                stored |= words[at + 1] << (64 - shift)
            # The first `width` bits of what the walk left, MSB first.
            n_bytes = (width + 7) >> 3
            query = int.from_bytes(remaining[:n_bytes].ljust(n_bytes, b"\0"), "big")
            if (query >> ((n_bytes << 3) - width) ^ stored) & ((1 << width) - 1):
                return False
        return True

    __contains__ = lookup
    #: Filter-vocabulary alias: SuRF, Bloom and PrefixBloom all answer
    #: ``may_contain`` / ``may_contain_range`` (one-sided membership).
    may_contain = lookup

    # The ledger's tracer (benchmarks/e2e/tracing.py) patches this name.
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
            stored = suffix_at(self._real_view, it.leaf_rank(), self.real_bits)
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
        fst = self.fst
        it = fst.seek(low)
        n = fst._count_before(fst.seek(high)) - fst._count_before(it)
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
        rank = found[0]
        self._tombstones[rank >> 3] |= 1 << (rank & 7)
        return True

    def is_deleted(self, rank: int) -> bool:
        """Is the key at leaf ``rank`` tombstoned?"""
        if self._tombstones is None:
            return False
        return bool(self._tombstones[rank >> 3] & (1 << (rank & 7)))

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
