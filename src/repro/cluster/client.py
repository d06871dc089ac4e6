"""Cluster-aware client: placement routing + read-your-writes.

A cluster is a set of *replication groups*.  Each group is one primary
:class:`~repro.cluster.node.ClusterServer` plus its WAL-shipping followers
(every node in a group hosts the same shard subset).  Keys hash into a
**global shard space** (:func:`~repro.cluster.routing.route_key` over
``n_shards``); a *placement map* — shard id → group name, seeded from
the consistent-hash ring by
:func:`~repro.cluster.routing.default_placement` and mutated one shard
at a time by live migration — names the owning group.  Every client
derives the same initial map from the topology alone; divergence after
a migration self-heals through redirects.

Reads prefer followers (round-robin) to scale the YCSB-C hot tail
across replicas.  Read-your-writes holds per client session: every
write ack carries the committed per-shard sequence, the client
remembers the latest token per global shard, and follower reads go out
as ``GET_AT`` gated on that token — a follower that has not caught up
answers ``LAGGING`` and the read falls back to the primary (counted in
:attr:`ClusterClient.lagging_reads`).

Ownership moves (PR 10): a node answering ``NOT_OWNER`` means the
shard is not served there — mid-migration (sealed source, uncommitted
target) or after it moved.  The client adopts the redirect hint into
its placement map when one is present and retries; without a hint it
backs off briefly (the handoff write-pause) and retries the same
route.  Retried-and-succeeded operations count in
:attr:`ClusterClient.moved_ops`; nothing surfaces to the caller unless
the retries are exhausted.

Failover is explicit: :meth:`ClusterClient.repoint` swaps a group's
primary after a promotion (see :mod:`repro.cluster.failover`).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..server.client import (
    DEFAULT_MAX_RETRIES,
    FollowerLaggingError,
    KVClient,
    NotOwnerError,
)
from .routing import default_placement, route_key

#: NOT_OWNER redirect budget per operation: enough to ride out a
#: migration handoff pause (seal → detach → commit) with backoff.
NOT_OWNER_RETRIES = 25
NOT_OWNER_BACKOFF = 0.02


@dataclass(frozen=True)
class NodeAddress:
    """One server process/thread the client can dial."""

    name: str
    host: str
    port: int


@dataclass
class GroupTopology:
    """One replication group: a primary and its followers."""

    name: str
    primary: NodeAddress
    followers: list[NodeAddress] = field(default_factory=list)

    def nodes(self) -> list[NodeAddress]:
        return [self.primary, *self.followers]


@dataclass
class ClusterTopology:
    """The full cluster: groups, shard fan-out, shard placement."""

    groups: list[GroupTopology]
    n_shards: int
    vnodes: int = 64
    #: Global shard id -> owning group name.  None derives the default
    #: ring placement; a cluster that migrated shards passes its map.
    placement: dict[int, str] | None = None

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("a cluster needs at least one group")
        names = [g.name for g in self.groups]
        if len(set(names)) != len(names):
            raise ValueError("duplicate group names")
        if self.placement is None:
            self.placement = default_placement(names, self.n_shards, self.vnodes)
        else:
            self.placement = dict(self.placement)
        valid = set(names)
        for shard_id in range(self.n_shards):
            owner = self.placement.get(shard_id)
            if owner not in valid:
                raise ValueError(f"shard {shard_id} placed on unknown group {owner!r}")

    def group(self, name: str) -> GroupTopology:
        for g in self.groups:
            if g.name == name:
                return g
        raise KeyError(name)

    def owner(self, shard_id: int) -> GroupTopology:
        return self.group(self.placement[shard_id])


class ClusterClient:
    """Routes every operation to the right node of the right group.

    Not thread-safe (like :class:`KVClient`); give each worker its own.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        read_from_followers: bool = True,
        timeout: float = 30.0,
        max_retries: int = DEFAULT_MAX_RETRIES,
    ) -> None:
        self.topology = topology
        self.read_from_followers = read_from_followers
        self._timeout = timeout
        self._max_retries = max_retries
        self._conns: dict[tuple[str, int], KVClient] = {}
        #: Session causal tokens: global shard id -> latest acked seq.
        #: Keyed by shard, not (group, shard): the migration contract
        #: is that the receiving group holds the shard's full history
        #: through the handoff, so tokens survive the move.
        self._tokens: dict[int, int] = {}
        self._rr = 0
        #: Follower reads that had to fall back to the primary.
        self.lagging_reads = 0
        #: Operations that needed at least one NOT_OWNER redirect.
        self.moved_ops = 0

    # -- connections -------------------------------------------------------

    def _conn(self, node: NodeAddress) -> KVClient:
        key = (node.host, node.port)
        client = self._conns.get(key)
        if client is None:
            client = KVClient(
                node.host, node.port,
                timeout=self._timeout, max_retries=self._max_retries,
            )
            self._conns[key] = client
        return client

    def _drop_conn(self, node: NodeAddress) -> None:
        client = self._conns.pop((node.host, node.port), None)
        if client is not None:
            try:
                client.close()
            except Exception:
                pass

    def close(self) -> None:
        for client in self._conns.values():
            try:
                client.close()
            except Exception:
                pass
        self._conns.clear()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def retries(self) -> int:
        """Total OVERLOADED retries absorbed across all connections."""
        return sum(c.retries for c in self._conns.values())

    # -- routing -----------------------------------------------------------

    def shard_for(self, key: bytes) -> int:
        return route_key(key, self.topology.n_shards)

    def group_for(self, key: bytes) -> GroupTopology:
        return self.topology.owner(self.shard_for(key))

    def _read_node(self, group: GroupTopology) -> NodeAddress:
        if not self.read_from_followers or not group.followers:
            return group.primary
        self._rr += 1
        return group.followers[self._rr % len(group.followers)]

    def repoint(
        self,
        group_name: str,
        primary: NodeAddress,
        followers: Sequence[NodeAddress] = (),
    ) -> None:
        """Re-point a group after failover: new primary, new follower
        set.  Dead nodes' connections are dropped; causal tokens are
        kept — the promotion contract guarantees the new primary holds
        every acked sequence, so the tokens stay valid."""
        group = self.topology.group(group_name)
        for node in group.nodes():
            self._drop_conn(node)
        group.primary = primary
        group.followers = list(followers)

    def _routed(self, shard_id: int, op: Callable[[GroupTopology], Any]) -> Any:
        """Run ``op`` against the shard's owner, following NOT_OWNER
        redirects: adopt the hint when one names a known group, back
        off briefly when none does (mid-handoff pause)."""
        redirected = False
        last: NotOwnerError | None = None
        for attempt in range(NOT_OWNER_RETRIES):
            group = self.topology.owner(shard_id)
            try:
                result = op(group)
                if redirected:
                    self.moved_ops += 1
                return result
            except NotOwnerError as exc:
                last = exc
                redirected = True
                hint = exc.owner
                known = {g.name for g in self.topology.groups}
                if hint and hint in known and hint != group.name:
                    self.topology.placement[shard_id] = hint
                else:
                    time.sleep(NOT_OWNER_BACKOFF * min(attempt + 1, 10))
        assert last is not None
        raise last

    # -- operations --------------------------------------------------------

    def put(self, key: bytes, value: Any) -> int | None:
        shard_id = self.shard_for(key)

        def op(group: GroupTopology) -> int | None:
            seq = self._conn(group.primary).put(key, value)
            self._note_token(shard_id, seq)
            return seq

        return self._routed(shard_id, op)

    def delete(self, key: bytes) -> int | None:
        shard_id = self.shard_for(key)

        def op(group: GroupTopology) -> int | None:
            seq = self._conn(group.primary).delete(key)
            self._note_token(shard_id, seq)
            return seq

        return self._routed(shard_id, op)

    def _note_token(self, shard_id: int, seq: int | None) -> None:
        if seq is not None and seq > self._tokens.get(shard_id, 0):
            self._tokens[shard_id] = seq

    def get(self, key: bytes) -> Any | None:
        shard_id = self.shard_for(key)

        def op(group: GroupTopology) -> Any | None:
            node = self._read_node(group)
            if node is not group.primary:
                try:
                    return self._conn(node).get_at(
                        key, self._tokens.get(shard_id, 0)
                    )
                except FollowerLaggingError:
                    self.lagging_reads += 1
            return self._conn(group.primary).get(key)

        return self._routed(shard_id, op)

    def get_many(self, keys: Sequence[bytes], missing: Any = None) -> list[Any]:
        """Batched get, fanned out per group (served by primaries: a
        cross-group batch has no single watermark to gate on).  A group
        answering NOT_OWNER (a shard in the batch moved) degrades to
        per-key routed gets for that group's keys."""
        by_group: dict[str, list[int]] = {}
        for i, key in enumerate(keys):
            by_group.setdefault(self.group_for(key).name, []).append(i)
        out: list[Any] = [missing] * len(keys)
        for name, idxs in by_group.items():
            group = self.topology.group(name)
            try:
                values = self._conn(group.primary).get_many(
                    [keys[i] for i in idxs], missing=missing
                )
            except NotOwnerError:
                values = []
                for i in idxs:
                    value = self.get(keys[i])
                    values.append(value if value is not None else missing)
            for i, value in zip(idxs, values):
                out[i] = value
        return out

    def scan(self, low: bytes, count: int) -> list[tuple[bytes, Any]]:
        """Merged scan across groups (groups are disjoint by hash, so a
        straight key merge suffices).  Served by primaries for a
        consistent-as-of-ack picture."""
        per_group = [
            self._conn(g.primary).scan(low, count) for g in self.topology.groups
        ]
        merged = heapq.merge(*per_group, key=lambda kv: kv[0])
        out: list[tuple[bytes, Any]] = []
        for pair in merged:
            out.append(pair)
            if len(out) >= count:
                break
        return out

    def count(self, low: bytes, high: bytes) -> int:
        return sum(
            self._conn(g.primary).count(low, high) for g in self.topology.groups
        )

    def sync(self) -> None:
        for g in self.topology.groups:
            self._conn(g.primary).sync()

    def stats(self) -> dict[str, dict]:
        """Per-node STATS snapshots keyed by node name."""
        out: dict[str, dict] = {}
        for g in self.topology.groups:
            for node in g.nodes():
                out[node.name] = self._conn(node).stats()
        return out
