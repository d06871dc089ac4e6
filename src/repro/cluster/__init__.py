"""Multi-node cluster layer: routing, WAL-shipping replication, failover.

Import structure note: :mod:`repro.server.server` imports only
:mod:`repro.cluster.routing` (the shared ``route_key``), while the node
(a ``KVServer`` subclass), replication and failover modules import the
server package.  Exports are therefore resolved lazily — importing
:mod:`repro.cluster` pulls in nothing but :mod:`.routing`, and the
heavier modules load on first attribute access, which breaks the cycle.
"""

from __future__ import annotations

from .routing import HashRing, route_key

__all__ = [
    "HashRing",
    "route_key",
    "ClusterClient",
    "ClusterTopology",
    "GroupTopology",
    "NodeAddress",
    "PrimaryReplication",
    "ReplicationError",
    "FollowerBehindError",
    "ReplicationFencedError",
    "LeaseManager",
    "build_snapshot",
    "install_snapshot",
    "default_placement",
    "ClusterServer",
    "Cluster",
    "ClusterGroup",
    "ClusterNode",
    "build_local_cluster",
]

_LAZY = {
    "ClusterClient": "client",
    "ClusterTopology": "client",
    "GroupTopology": "client",
    "NodeAddress": "client",
    "PrimaryReplication": "replicator",
    "ReplicationError": "replicator",
    "FollowerBehindError": "replicator",
    "ReplicationFencedError": "replicator",
    "LeaseManager": "membership",
    "build_snapshot": "membership",
    "install_snapshot": "membership",
    "default_placement": "routing",
    "ClusterServer": "node",
    "Cluster": "failover",
    "ClusterGroup": "failover",
    "ClusterNode": "failover",
    "build_local_cluster": "failover",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
