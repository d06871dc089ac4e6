"""A CLOCK-replacement node cache (Section 2.4).

Compressed structures keep a small cache of recently decompressed
nodes; the thesis approximates LRU with the CLOCK algorithm.  The same
cache fronts the static stage of a hybrid index (Figure 5.9).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Hashable


class ClockNodeCache:
    """Fixed-capacity cache with second-chance (CLOCK) eviction.

    Thread-safe: the LSM engine's background flusher/compactor and any
    number of reader threads (snapshots, the torture fuzzer) share one
    instance, so every structural operation runs under an internal
    lock.  ``loader`` is invoked while the lock is held — loads are
    short (one block decode) and serializing them keeps the hand/slot
    bookkeeping trivially consistent.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.RLock()
        self._slots: list[Hashable | None] = [None] * capacity
        self._ref: list[bool] = [False] * capacity
        self._values: dict[Hashable, tuple[int, Any]] = {}  # key -> (slot, value)
        self._hand = 0
        self.hits = 0
        self.misses = 0

    def get_or_load(self, key: Hashable, loader: Callable[..., Any], *args: Any) -> Any:
        """Return the cached value, invoking ``loader(*args)`` on a miss.

        ``hits`` / ``misses`` move under the lock, one of them per
        call, so they are exact under any number of threads — callers
        that account for cache traffic read them instead of inferring
        a miss from outside (where another thread's miss can land
        between a before/after pair)."""
        with self._lock:
            hit = self._values.get(key)
            if hit is not None:
                slot, value = hit
                self._ref[slot] = True
                self.hits += 1
                return value
            self.misses += 1
            value = loader(*args)
            self._install(key, value)
            return value

    def _install(self, key: Hashable, value: Any) -> None:
        # Advance the clock hand until a slot with a clear ref bit.
        while True:
            if self._slots[self._hand] is None:
                break
            if not self._ref[self._hand]:
                break
            self._ref[self._hand] = False
            self._hand = (self._hand + 1) % self.capacity
        victim = self._slots[self._hand]
        if victim is not None:
            del self._values[victim]
        self._slots[self._hand] = key
        # Install cold (ref bit clear): an entry earns its second chance
        # on its first cache hit, so one-shot nodes evict first.
        self._ref[self._hand] = False
        self._values[key] = (self._hand, value)
        self._hand = (self._hand + 1) % self.capacity

    def evict(self, key: Hashable) -> bool:
        """Drop ``key`` if cached, freeing its slot immediately.

        Lets owners invalidate entries whose backing object is gone
        (e.g. blocks of an SSTable dropped by compaction) instead of
        leaving dead entries to squat on capacity until the hand
        happens around.
        """
        with self._lock:
            hit = self._values.pop(key, None)
            if hit is None:
                return False
            slot, _ = hit
            self._slots[slot] = None
            self._ref[slot] = False
            return True

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._values

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)

    def clear(self) -> None:
        with self._lock:
            self._slots = [None] * self.capacity
            self._ref = [False] * self.capacity
            self._values.clear()
            self._hand = 0
