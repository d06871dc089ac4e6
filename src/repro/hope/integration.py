"""HOPE integration with search trees (Sections 6.3, 6.5).

Integrating HOPE into a search tree means encoding every key before it
touches the tree (Figure 6.5's encode phase); range queries encode both
bounds, which is sound because the encoding is order-preserving.

The interesting measurement is Figure 6.7: how much each structure
benefits depends on how completely it stores keys — B+tree and T-Tree
(full keys) gain the most, Prefix B+tree and SuRF (partial keys) less,
ART (path-compressed) less still, and HOT (discriminative bits only)
almost nothing.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

from ..surf import SuRF
from .encoder import HopeEncoder


class HopeIndex:
    """Any OrderedIndex with HOPE key compression in front."""

    def __init__(self, index_factory: Callable[[], Any], encoder: HopeEncoder) -> None:
        self.index = index_factory()
        self.encoder = encoder

    def insert(self, key: bytes, value: Any) -> bool:
        return self.index.insert(self.encoder.encode(key), value)

    def get(self, key: bytes) -> Any | None:
        return self.index.get(self.encoder.encode(key))

    def get_many(self, keys: Sequence[bytes]) -> list[Any | None]:
        """Batched :meth:`get`: batch-encode, then batch-query the
        wrapped tree."""
        return self.index.get_many(self.encoder.encode_batch(keys))

    def update(self, key: bytes, value: Any) -> bool:
        return self.index.update(self.encoder.encode(key), value)

    def delete(self, key: bytes) -> bool:
        return self.index.delete(self.encoder.encode(key))

    def scan(self, key: bytes, count: int) -> list[tuple[bytes, Any]]:
        """Scan over *encoded* key space (order matches source order).

        Returned keys are the encoded forms: range queries need only
        ordering and values, not key reconstruction (Section 6.2).
        """
        return self.index.scan(self.encoder.encode(key), count)

    def lower_bound(self, key: bytes) -> Iterator[tuple[bytes, Any]]:
        """Ordered iteration from ``key``; pairs carry *encoded* keys.

        ``key`` may be raw (it is encoded first) or an already-encoded
        bound produced by a previous scan — both sort identically.
        """
        return self.index.lower_bound(self.encoder.encode(key))

    def items(self) -> Iterator[tuple[bytes, Any]]:
        """All (encoded key, value) pairs in encoded == source order."""
        return self.index.items()

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return len(self.index)

    def memory_bytes(self) -> int:
        """Index memory plus the dictionary it must keep resident."""
        return self.index.memory_bytes() + self.encoder.memory_bytes()


class HopeSuRF:
    """SuRF over HOPE-encoded keys (Section 6.5's headline subject)."""

    def __init__(
        self,
        keys: Sequence[bytes],
        encoder: HopeEncoder,
        suffix_type: str = "none",
        **surf_kwargs,
    ) -> None:
        self.encoder = encoder
        encoded = sorted(set(encoder.encode(k) for k in keys))
        self.collisions = len(keys) - len(encoded)
        self.surf = SuRF(encoded, suffix_type=suffix_type, **surf_kwargs)

    def lookup(self, key: bytes) -> bool:
        return self.surf.lookup(self.encoder.encode(key))

    def lookup_range(self, low: bytes, high: bytes, inclusive_high: bool = False) -> bool:
        return self.surf.lookup_range(
            self.encoder.encode(low), self.encoder.encode(high), inclusive_high
        )

    def size_bits(self) -> int:
        return self.surf.size_bits() + self.encoder.memory_bytes() * 8

    def memory_bytes(self) -> int:
        return (self.size_bits() + 7) // 8

    def bits_per_key(self) -> float:
        return self.size_bits() / max(1, len(self.surf))

    def trie_height(self) -> float:
        """Average leaf depth of the underlying FST (Figure 6.16:
        HOPE shortens the trie)."""
        fst = self.surf.fst
        total = count = 0
        it = fst.iter_all()
        while it.valid:
            total += len(it.frames)
            count += 1
            it.next()
        return total / count if count else 0.0
