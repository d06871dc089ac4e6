"""Key routing shared by every layer that places data.

Two routing primitives live here — and *only* here, so the mapping can
never drift between layers:

* :func:`route_key` — the CRC32-modulo shard hash.  The single-node
  server has always placed keys with ``zlib.crc32(key) % n_shards``;
  every on-disk shard directory layout depends on that exact mapping,
  so the server front-end, the load generator and the cluster router
  all import this one function (a golden-value test pins the mapping
  so old data directories stay readable).

* :class:`HashRing` — consistent hashing across *nodes*.  Each node
  owns ``vnodes`` pseudo-random points on a 32-bit ring (CRC32 of
  ``"<node>#<i>"``); a key belongs to the first point clockwise of its
  own CRC32.  Adding or removing one node therefore only moves the keys
  adjacent to that node's points (~1/N of the keyspace), which is what
  makes shard rebalancing incremental instead of a full reshuffle.

Within a node, :func:`route_key` then picks the shard — the cluster
layer composes the two: modulo → *global* shard id, placement map →
group.  :func:`default_placement` derives the initial shard→group map
from the ring (``shard-N`` tokens), and live migration
(:mod:`repro.cluster.membership`) edits the map one shard at a time —
the ring bounds how much data a group add/remove moves, the map makes
the current ownership explicit and mutable.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Sequence


def route_key(key: bytes, n_shards: int) -> int:
    """Stable hash sharding; CRC32 so any client can compute it.

    This is THE shard mapping: changing it orphans every existing
    ``shard-NN`` directory.  See ``tests/test_cluster.py`` for the
    golden values that pin it.
    """
    return zlib.crc32(key) % n_shards


class HashRing:
    """Consistent-hash ring over named nodes.

    Deterministic: the ring is fully defined by the sorted node names
    and ``vnodes``, so every client that knows the topology computes
    identical routes with no coordination.
    """

    def __init__(self, nodes: Sequence[str], vnodes: int = 64) -> None:
        if not nodes:
            raise ValueError("HashRing needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node names")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._nodes = sorted(nodes)
        points: list[tuple[int, str]] = []
        for node in self._nodes:
            for i in range(vnodes):
                points.append((zlib.crc32(f"{node}#{i}".encode()), node))
        # Ties (two vnodes hashing identically) resolve by node name so
        # the ring stays deterministic regardless of insertion order.
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [n for _, n in points]

    @property
    def nodes(self) -> list[str]:
        return list(self._nodes)

    def node_for(self, key: bytes) -> str:
        """The node owning ``key``: first ring point clockwise of it."""
        h = zlib.crc32(key)
        i = bisect.bisect_left(self._hashes, h)
        if i == len(self._hashes):  # wrap past the top of the ring
            i = 0
        return self._owners[i]

    def without(self, node: str) -> "HashRing":
        """The ring after removing ``node`` (for failover re-routing of
        a whole node group, or future rebalancing)."""
        rest = [n for n in self._nodes if n != node]
        return HashRing(rest, vnodes=self.vnodes)


def default_placement(
    groups: Sequence[str], n_shards: int, vnodes: int = 64
) -> dict[int, str]:
    """The derived shard→group ownership map: each global shard id
    lands on the ring via its ``shard-N`` token.  Deterministic from
    the topology, so every client starts with the same map; migrations
    then mutate a *copy* per cluster, never this function's output.
    A golden test pins the default map — changing it strands existing
    multi-group data directories."""
    ring = HashRing(list(groups), vnodes)
    return {s: ring.node_for(b"shard-%d" % s) for s in range(n_shards)}
