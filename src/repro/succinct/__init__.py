"""Succinct data-structure primitives (Chapter 3 substrate).

Bit vectors are ``uint64`` word arrays; rank, select and the next set
bit are functions over those words and their ``uint32`` rank LUT and
select samples (:mod:`.bitvector`).  The succinct-trie baselines of
Figure 3.5 (:mod:`.baseline_tries`) are configurations of, or built on,
the FST.
"""

from .bitvector import (
    check_padding,
    int_view,
    next_one,
    pack_bools,
    rank1,
    rank_lut,
    select1,
    select_in_word,
    select_samples,
)


def __getattr__(name: str):
    # TxTrie builds on FST, which builds on this package: import the
    # baselines lazily to avoid the circular import.
    if name in ("TxTrie", "PathDecomposedTrie"):
        from . import baseline_tries

        return getattr(baseline_tries, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "check_padding",
    "int_view",
    "next_one",
    "pack_bools",
    "rank1",
    "rank_lut",
    "select1",
    "select_in_word",
    "select_samples",
    "TxTrie",
    "PathDecomposedTrie",
]
