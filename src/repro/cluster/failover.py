"""In-process cluster harness: nodes, groups, failover, migration.

This is the cluster analogue of
:class:`~repro.server.server.ServerThread`: every node is a full
:class:`~repro.server.server.KVServer` (own engines, own event loop
thread, own port) so tests, the kill matrix, and the benchmarks drive
a real multi-node system in one process — and the subprocess CLI
(``python -m repro.cluster``) runs the very same classes one node per
OS process.

Every node carries a :class:`~repro.cluster.replicator.PrimaryReplication`
from birth, even as a follower: its WAL observers buffer committed
frames from the first sequence onward, so a *promoted* follower can
feed the remaining followers directly — and when a survivor is too far
behind (or restarted empty), the link bootstraps it with a snapshot
resync instead of refusing.

Failover comes in two flavours:

* **explicit** — :meth:`ClusterGroup.promote`: the operator picks the
  survivor; the PROMOTE sync barrier guarantees it holds every acked
  write before it takes the primary role.
* **automatic** (PR 10) — :meth:`Cluster.enable_election` starts one
  :class:`~repro.cluster.membership.LeaseManager` per node: the
  primary heartbeats leases; a follower whose lease expires runs the
  most-caught-up-wins election and promotes itself through the same
  barrier, with term fencing keeping a deposed primary from ever
  acking again.

Shard ownership is a mutable *placement map* (global shard id → group
name), seeded from the consistent-hash ring.
:meth:`Cluster.migrate_shard` drives a live migration: the source
primary ships snapshot + delta to every target node (``MIGRATE``),
then the coordinator detaches the source group and commits the target
group — the only write-unavailability is the seal→commit pause, which
clients ride out via NOT_OWNER retries.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..lsm.fs import FileSystem
from ..server.client import KVClient
from ..server.server import KVServer, ServerThread
from .client import ClusterTopology, GroupTopology, NodeAddress
from .membership import LeaseManager
from .replicator import DEFAULT_LOG_CAP_BYTES, PrimaryReplication
from .routing import default_placement


class ClusterNode:
    """One server (engines + event loop thread) with a replication tap."""

    def __init__(
        self,
        name: str,
        path: str,
        n_shards: int = 2,
        fs: FileSystem | Callable[[int], FileSystem] | None = None,
        role: str = "follower",
        engine_config: dict | None = None,
        queue_limit: int = 1024,
        repl_ack_timeout: float = 30.0,
        host: str = "127.0.0.1",
        shard_ids: Sequence[int] | None = None,
        allow_resync: bool = True,
        log_cap_bytes: int = DEFAULT_LOG_CAP_BYTES,
    ) -> None:
        self.name = name
        self.replication = PrimaryReplication(
            allow_resync=allow_resync, log_cap_bytes=log_cap_bytes
        )
        self.server = KVServer(
            path,
            n_shards=n_shards,
            host=host,
            port=0,
            fs=fs,
            queue_limit=queue_limit,
            engine_config=engine_config,
            role=role,
            replication=self.replication,
            repl_ack_timeout=repl_ack_timeout,
            shard_ids=shard_ids,
        )
        self.thread = ServerThread(self.server)
        self.lease: LeaseManager | None = None
        self._started = False

    def start(self) -> "ClusterNode":
        self.thread.start()
        self._started = True
        return self

    def stop(self, timeout: float = 60.0) -> None:
        if self.lease is not None:
            self.lease.stop()
            self.lease = None
        if self._started:
            self.thread.stop(timeout=timeout)
            self._started = False

    @property
    def role(self) -> str:
        return self.server.role

    @property
    def address(self) -> NodeAddress:
        return NodeAddress(self.name, self.server.host, self.server.port)

    def __repr__(self) -> str:
        return f"ClusterNode({self.name}, role={self.server.role})"


class ClusterGroup:
    """One primary plus its followers, wired for WAL shipping."""

    def __init__(self, name: str, primary: ClusterNode, followers: list[ClusterNode]):
        self.name = name
        self.primary = primary
        self.followers = list(followers)
        #: Demoted/dead ex-primaries, kept so stop() still reaps them.
        self.retired: list[ClusterNode] = []

    def start(self) -> "ClusterGroup":
        # Followers first: the primary's links fetch their watermarks on
        # connect, so the targets must be listening.
        for node in self.followers:
            node.start()
        self.primary.start()
        for node in self.followers:
            addr = node.address
            self.primary.replication.add_follower(addr.host, addr.port)
        # Deterministic harness: "acked" means "replicated" from the
        # first client write on, not from whenever the links attach.
        self.primary.replication.wait_attached()
        return self

    def stop(self, timeout: float = 60.0) -> None:
        # Lease managers first (a mid-shutdown election helps nobody),
        # then the primary so its drain can still reach live followers.
        for node in [self.primary, *self.followers, *self.retired]:
            if node.lease is not None:
                node.lease.stop()
                node.lease = None
        self.primary.stop(timeout=timeout)
        for node in self.followers:
            node.stop(timeout=timeout)
        for node in self.retired:
            node.stop(timeout=timeout)

    def nodes(self) -> list[ClusterNode]:
        return [self.primary, *self.followers]

    def topology(self) -> GroupTopology:
        return GroupTopology(
            self.name,
            self.primary.address,
            [f.address for f in self.followers],
        )

    def enable_election(
        self, lease_interval: float = 0.2, lease_ttl: float = 1.0
    ) -> None:
        """Start one lease manager per live node (idempotent)."""
        for node in self.nodes():
            if node.lease is not None:
                continue
            peers = [
                (peer.name, peer.server.host, peer.server.port)
                for peer in self.nodes()
                if peer is not node
            ]
            node.lease = LeaseManager(
                node.name,
                node.server,
                node.replication,
                peers,
                lease_interval=lease_interval,
                lease_ttl=lease_ttl,
            )
            node.lease.start()

    def refresh_roles(self) -> GroupTopology:
        """Re-derive primary/followers from the nodes' actual roles
        (after a lease-based auto-promotion chose the new primary)."""
        live = [n for n in [*self.nodes(), *self.retired] if n._started]
        primaries = [n for n in live if n.server.role == "primary"]
        if primaries:
            new_primary = max(primaries, key=lambda n: n.server.term)
            if new_primary is not self.primary:
                if self.primary._started:
                    self.retired.append(self.primary)
                elif self.primary in self.retired:
                    pass
                self.retired = [n for n in self.retired if n is not new_primary]
                self.followers = [
                    n for n in live
                    if n is not new_primary and n.server.role == "follower"
                ]
                self.primary = new_primary
        return self.topology()

    def promote(self, follower: ClusterNode) -> GroupTopology:
        """Fail over to ``follower`` (the old primary is presumed dead
        and is dropped from the group).  Returns the new topology for
        :meth:`ClusterClient.repoint`."""
        if follower not in self.followers:
            raise ValueError(f"{follower.name} is not a follower of {self.name}")
        addr = follower.address
        with KVClient(addr.host, addr.port) as client:
            client.promote()
        survivors = [f for f in self.followers if f is not follower]
        self.retired.append(self.primary)
        self.primary = follower
        self.followers = survivors
        for node in survivors:
            peer = node.address
            follower.replication.add_follower(peer.host, peer.port)
        return self.topology()


class Cluster:
    """A set of groups plus the derived (and mutable) shard placement."""

    def __init__(self, groups: list[ClusterGroup], n_shards: int, vnodes: int = 64):
        self.groups = list(groups)
        self.n_shards = n_shards
        self.vnodes = vnodes
        #: Live shard ownership; migrations mutate it.
        self.placement: dict[int, str] = default_placement(
            [g.name for g in self.groups], n_shards, vnodes
        )

    def start(self) -> "Cluster":
        for group in self.groups:
            group.start()
        return self

    def stop(self, timeout: float = 60.0) -> None:
        for group in self.groups:
            group.stop(timeout=timeout)

    def enable_election(
        self, lease_interval: float = 0.2, lease_ttl: float = 1.0
    ) -> None:
        for group in self.groups:
            group.enable_election(lease_interval, lease_ttl)

    def group(self, name: str) -> ClusterGroup:
        for group in self.groups:
            if group.name == name:
                return group
        raise KeyError(name)

    def nodes(self) -> list[ClusterNode]:
        return [node for group in self.groups for node in group.nodes()]

    def topology(self) -> ClusterTopology:
        return ClusterTopology(
            [group.topology() for group in self.groups],
            n_shards=self.n_shards,
            vnodes=self.vnodes,
            placement=dict(self.placement),
        )

    def migrate_shard(self, shard_id: int, dst_name: str) -> int | None:
        """Move one shard to ``dst_name`` under live traffic.

        Sequence: ``MIGRATE`` on the source primary (snapshot + delta +
        seal + final delta → handoff sequence), then ``SHARD_DETACH``
        across the source group (primary first — it waits for its own
        links to hold the tail), then ``MIGRATE_COMMIT`` across the
        target group (primary first, so writes resume immediately).
        Between seal and the target's commit, writes to the shard get
        NOT_OWNER; :class:`~repro.cluster.client.ClusterClient` retries
        through the pause.  A coordinator crash mid-sequence loses no
        data: the shard's full history is durable on the sealed source
        until the detach, and on every target from the handoff on.
        """
        src_name = self.placement[shard_id]
        if src_name == dst_name:
            return None
        src = self.group(src_name)
        dst = self.group(dst_name)
        targets = [
            (node.server.host, node.server.port) for node in dst.nodes()
        ]
        src_addr = src.primary.address
        with KVClient(src_addr.host, src_addr.port) as client:
            handoff_seq = client.migrate(shard_id, dst_name, targets)
        for node in src.nodes():
            addr = node.address
            with KVClient(addr.host, addr.port) as client:
                client.shard_detach(shard_id, dst_name)
        for node in dst.nodes():
            addr = node.address
            with KVClient(addr.host, addr.port) as client:
                client.migrate_commit(shard_id, handoff_seq)
        self.placement[shard_id] = dst_name
        return handoff_seq


def build_local_cluster(
    root: str,
    n_groups: int = 1,
    followers_per_group: int = 2,
    n_shards: int = 2,
    fs_for: Callable[[str, int], FileSystem] | None = None,
    engine_config: dict | None = None,
    queue_limit: int = 1024,
    repl_ack_timeout: float = 30.0,
    allow_resync: bool = True,
    log_cap_bytes: int = DEFAULT_LOG_CAP_BYTES,
) -> Cluster:
    """Assemble (not start) a local cluster under ``root``.

    ``n_shards`` sizes the *global* shard space; each group hosts the
    shards the default placement assigns it (all of them for a single
    group).  ``fs_for(node_name, shard_id)`` supplies each shard's
    filesystem — the hook the kill matrix uses to put a
    :class:`FaultFS` under exactly one node.  With the default None,
    nodes use the real filesystem under ``<root>/<node>/``.
    """
    group_names = [f"g{g}" for g in range(n_groups)]
    placement = default_placement(group_names, n_shards)
    groups = []
    for gname in group_names:
        shard_ids = sorted(s for s, g in placement.items() if g == gname)

        def make_node(role: str, node_name: str) -> ClusterNode:
            fs = None
            if fs_for is not None:
                fs = (lambda name: lambda shard_id: fs_for(name, shard_id))(node_name)
            return ClusterNode(
                node_name,
                f"{root}/{node_name}",
                n_shards=n_shards,
                fs=fs,
                role=role,
                engine_config=dict(engine_config or {}),
                queue_limit=queue_limit,
                repl_ack_timeout=repl_ack_timeout,
                shard_ids=shard_ids,
                allow_resync=allow_resync,
                log_cap_bytes=log_cap_bytes,
            )

        primary = make_node("primary", f"{gname}-n0")
        followers = [
            make_node("follower", f"{gname}-n{i + 1}")
            for i in range(followers_per_group)
        ]
        groups.append(ClusterGroup(gname, primary, followers))
    return Cluster(groups, n_shards=n_shards)
