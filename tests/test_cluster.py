"""The replication cluster: routing, WAL shipping, read-your-writes,
explicit failover, and the cluster-wide kill matrix.

The kill matrix is the cluster analogue of the server-level one in
``test_server.py``: the *primary's* shards sit on a ``FaultFS`` that
loses power at every durability point in turn, the follower's disk is
snapshotted at the moment of the crash under all four torn-write
models, and the follower recovered from each snapshot must hold an
exact prefix of the primary's history covering every client-acked
write — because a write is only acked after the follower durably
applied it, promotion can never lose one.
"""

import pytest

from repro.cluster import (
    ClusterClient,
    HashRing,
    build_local_cluster,
    route_key,
)
from repro.lsm import LSMTree
from repro.server import (
    FollowerLaggingError,
    KVClient,
    NotPrimaryError,
    ServerError,
)
from repro.testing.faultfs import CRASH_MODES, FaultFS, MemFS, PowerFailure
from repro.workloads.keys import encode_u64

TINY_CONFIG = dict(
    memtable_entries=16,
    sstable_entries=64,
    block_entries=8,
    level0_limit=2,
    block_cache_blocks=32,
    wal_sync_every=4,
)


def _mem_cluster(followers=2, n_shards=2, n_groups=1, **kw):
    """Assemble+start an all-MemFS cluster; returns (cluster, fss)."""
    fss = {}

    def fs_for(node, shard):
        return fss.setdefault((node, shard), MemFS())

    cluster = build_local_cluster(
        "cl",
        n_groups=n_groups,
        followers_per_group=followers,
        n_shards=n_shards,
        fs_for=fs_for,
        engine_config=kw.pop("engine_config", TINY_CONFIG),
        **kw,
    ).start()
    return cluster, fss


# -- route_key: the one shard mapping ----------------------------------------


class TestRouteKey:
    def test_golden_values_pin_the_mapping(self):
        """Changing these orphans every existing shard-NN directory."""
        assert route_key(b"", 4) == 0
        assert route_key(b"a", 2) == 1
        assert route_key(b"a", 4) == 3
        assert route_key(b"user1000", 4) == 2
        assert route_key(b"user1000", 8) == 6
        assert route_key(b"smoke-000042", 4) == 2
        assert route_key(b"\x00\x01\x02", 8) == 7

    def test_server_uses_the_shared_mapping(self):
        # The server routes with this function object, not a
        # reimplementation that could drift from the cluster's placement.
        import repro.server.server as server_module

        assert server_module.route_key is route_key

    def test_full_shard_coverage(self):
        keys = [encode_u64(i) for i in range(512)]
        for n in (1, 2, 4, 8):
            hit = {route_key(k, n) for k in keys}
            assert hit == set(range(n))


# -- the consistent-hash ring ------------------------------------------------


class TestHashRing:
    KEYS = [b"key-%04d" % i for i in range(2000)]

    def test_deterministic_across_instances_and_order(self):
        a = HashRing(["n1", "n2", "n3"])
        b = HashRing(["n3", "n1", "n2"])
        for key in self.KEYS[:200]:
            assert a.node_for(key) == b.node_for(key)

    def test_every_node_owns_a_fair_share(self):
        ring = HashRing(["n1", "n2", "n3"])
        owned = {n: 0 for n in ring.nodes}
        for key in self.KEYS:
            owned[ring.node_for(key)] += 1
        for node, n in owned.items():
            assert n > len(self.KEYS) * 0.10, f"{node} owns only {n}"

    def test_removal_only_moves_the_dead_nodes_keys(self):
        ring = HashRing(["n1", "n2", "n3", "n4"])
        smaller = ring.without("n3")
        moved = 0
        for key in self.KEYS:
            before = ring.node_for(key)
            after = smaller.node_for(key)
            if before == "n3":
                assert after != "n3"
                moved += 1
            else:
                assert after == before, "a surviving node's key moved"
        assert 0 < moved < len(self.KEYS) // 2

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["a", "a"])
        with pytest.raises(ValueError):
            HashRing(["a"], vnodes=0)


# -- replication: WAL shipping + watermarks ----------------------------------


class TestReplication:
    def test_followers_catch_up_and_serve_reads(self):
        cluster, _ = _mem_cluster(followers=2, n_shards=2)
        try:
            topo = cluster.topology()
            n = 40
            with ClusterClient(topo) as client:
                seqs = {}
                for i in range(n):
                    key = b"k%04d" % i
                    seqs[key] = client.put(key, i)
                assert all(isinstance(s, int) and s > 0 for s in seqs.values())

            # Every ack waited for both followers' durable applies, so
            # their watermarks already cover the primary's history.
            group = cluster.groups[0]
            primary_marks = None
            with KVClient(*_addr(group.primary)) as c:
                primary_marks = c.watermark()
            for follower in group.followers:
                with KVClient(*_addr(follower)) as c:
                    marks = c.watermark()
                    assert not marks.is_primary
                    for shard, (_, applied) in marks.marks.items():
                        assert applied >= primary_marks.marks[shard][1]
                    # Follower reads gated on each write's own token.
                    for key, seq in seqs.items():
                        value = c.get_at(key, seq)
                        assert value == int(key[1:])
        finally:
            cluster.stop()

    def test_follower_rejects_writes(self):
        cluster, _ = _mem_cluster(followers=1)
        try:
            follower = cluster.groups[0].followers[0]
            with KVClient(*_addr(follower)) as c:
                with pytest.raises(NotPrimaryError):
                    c.put(b"nope", 1)
                with pytest.raises(NotPrimaryError):
                    c.delete(b"nope")
        finally:
            cluster.stop()

    def test_lagging_follower_answers_lagging(self):
        cluster, _ = _mem_cluster(followers=1)
        try:
            group = cluster.groups[0]
            with KVClient(*_addr(group.primary)) as c:
                c.put(b"k", 1)
            follower = group.followers[0]
            with KVClient(*_addr(follower)) as c:
                # A token from the future: the follower must refuse
                # rather than serve a stale read.
                with pytest.raises(FollowerLaggingError):
                    c.get_at(b"k", 10_000)
                # Token 0 = unconditional read.
                assert c.get_at(b"k", 0) == 1
        finally:
            cluster.stop()

    def test_cluster_client_falls_back_to_primary_when_lagging(self):
        cluster, _ = _mem_cluster(followers=1)
        try:
            with ClusterClient(cluster.topology()) as client:
                client.put(b"k", 7)
                group = client.group_for(b"k")
                # Poison the session token so the follower must refuse.
                client._tokens[route_key(b"k", 2)] = 10_000
                assert client.get(b"k") == 7
                assert client.lagging_reads == 1
        finally:
            cluster.stop()

    def test_restart_resumes_from_watermark(self):
        """Graceful stop + restart over the same bytes: the follower
        re-attaches at its own watermark (no re-ship, no gap)."""
        cluster, fss = _mem_cluster(followers=1, n_shards=2)
        try:
            with ClusterClient(cluster.topology()) as client:
                for i in range(20):
                    client.put(b"a%03d" % i, i)
        finally:
            cluster.stop()

        cluster2 = build_local_cluster(
            "cl",
            n_groups=1,
            followers_per_group=1,
            n_shards=2,
            fs_for=lambda node, shard: fss[(node, shard)],
            engine_config=TINY_CONFIG,
        ).start()
        try:
            with ClusterClient(cluster2.topology()) as client:
                for i in range(20, 40):
                    client.put(b"a%03d" % i, i)
                for i in range(40):
                    assert client.get(b"a%03d" % i) == i
        finally:
            cluster2.stop()


# -- explicit failover -------------------------------------------------------


class TestFailover:
    def test_promote_and_repoint_keeps_every_ack(self):
        cluster, _ = _mem_cluster(followers=2, n_shards=2)
        try:
            group = cluster.groups[0]
            client = ClusterClient(cluster.topology())
            try:
                for i in range(60):
                    client.put(b"f%04d" % i, i)

                topo = group.promote(group.followers[0])
                client.repoint(group.name, topo.primary, topo.followers)

                # The new primary (with one surviving follower) accepts
                # writes; every pre-failover ack is still readable.
                for i in range(60, 100):
                    client.put(b"f%04d" % i, i)
                for i in range(100):
                    assert client.get(b"f%04d" % i) == i
                assert client.count(b"f", b"g") == 100
                scanned = client.scan(b"f", 200)
                assert [k for k, _ in scanned] == [b"f%04d" % i for i in range(100)]
            finally:
                client.close()
            assert group.primary.role == "primary"
        finally:
            cluster.stop()


def _addr(node):
    a = node.address
    return a.host, a.port


# -- the cluster-wide kill matrix --------------------------------------------


CRASH_CONFIG = dict(
    memtable_entries=8,
    sstable_entries=32,
    block_entries=4,
    level0_limit=2,
    block_cache_blocks=16,
    wal_sync_every=3,
)


def _crash_workload(n_ops=24, seed=21, key_space=8):
    import random

    rng = random.Random(seed)
    ops = []
    for i in range(n_ops):
        key = encode_u64(rng.randrange(key_space))
        if rng.random() < 0.3:
            ops.append(("delete", key, None))
        else:
            ops.append(("put", key, i))
    return ops


def _model_after(ops, k):
    model = {}
    for op, key, value in ops[:k]:
        if op == "put":
            model[key] = value
        else:
            model.pop(key, None)
    return model


class TestClusterKillMatrix:
    """Power-fail the primary at every durability point; the follower
    must hold every client-acked write under all four torn-write
    models of its own simultaneous crash."""

    FOLLOWER_SHARD = "killdb/g0-n1/shard-00"

    def _cluster_run(self, ops, fail_at):
        """1 primary + 1 follower, one shard each; the primary's disk
        power-fails at ``fail_at``.  Returns ``(primary_fs, views,
        acked, max_ack)`` where ``views`` maps each torn-write mode to
        the follower's disk as snapshotted at the moment the client
        gave up on the primary."""
        pfs = FaultFS(fail_at=fail_at)
        ffs = FaultFS(fail_at=None)  # never fails; gives us crashed_view
        cluster = build_local_cluster(
            "killdb",
            n_groups=1,
            followers_per_group=1,
            n_shards=1,
            fs_for=lambda node, shard: pfs if node == "g0-n0" else ffs,
            engine_config=CRASH_CONFIG,
            repl_ack_timeout=10.0,
        )
        acked = 0
        max_ack = 0
        try:
            try:
                cluster.start()
            except PowerFailure:
                views = {m: ffs.crashed_view(m) for m in CRASH_MODES}
                return pfs, views, 0, 0
            addr = cluster.groups[0].primary.address
            client = KVClient(addr.host, addr.port, timeout=30.0)
            try:
                for op, key, value in ops:
                    try:
                        if op == "put":
                            seq = client.put(key, value)
                        else:
                            seq = client.delete(key)
                    except (ServerError, ConnectionError, OSError):
                        break
                    acked += 1
                    max_ack = max(max_ack, seq or 0)
            finally:
                client.close()
            # Snapshot the follower's disk "at the same instant" the
            # primary died — before any graceful drain can fsync more.
            views = {m: ffs.crashed_view(m) for m in CRASH_MODES}
        finally:
            cluster.stop(timeout=60.0)
        return pfs, views, acked, max_ack

    def _count_sync_points(self, ops):
        pfs, _, acked, max_ack = self._cluster_run(ops, fail_at=None)
        assert acked == len(ops)
        assert max_ack == len(ops)  # one record per op, acked in order
        return pfs.sync_points

    def test_primary_killed_at_every_sync_point(self):
        ops = _crash_workload()
        total = self._count_sync_points(ops)
        assert total > 12  # the workload must cross flushes and commits
        for point in range(1, total + 1):
            pfs, views, acked, max_ack = self._cluster_run(ops, fail_at=point)
            if not pfs.crashed:
                assert acked == len(ops)
            for mode, view in views.items():
                recovered = LSMTree.open(
                    self.FOLLOWER_SHARD, fs=view, **CRASH_CONFIG
                )
                k = recovered.last_seq
                # No acked write lost: the ack waited for the
                # follower's durable apply, so even "drop" (every
                # unsynced byte gone) keeps sequence max_ack.
                assert max_ack <= k <= len(ops), (
                    f"point {point} mode {mode} ({pfs.crash_label}): "
                    f"follower recovered seq {k}, client saw ack {max_ack}"
                )
                # Exact prefix: the follower applies the primary's
                # records in sequence order, so its state at seq k must
                # equal the primary's history replayed through op k.
                expected = _model_after(ops, k)
                for key in {key for _, key, _ in ops}:
                    assert recovered.get(key) == expected.get(key), (
                        f"point {point} mode {mode}: key {key!r} diverged"
                    )
                recovered.close()

    def test_promoted_follower_serves_every_ack(self):
        """Full failover at a mid-run crash point: restart the
        follower from its torn disk, promote it, read every ack."""
        ops = _crash_workload()
        total = self._count_sync_points(ops)
        point = total // 2
        pfs, views, acked, max_ack = self._cluster_run(ops, fail_at=point)
        assert pfs.crashed
        for mode in CRASH_MODES:
            from repro.cluster import ClusterServer
            from repro.server import ServerThread

            server = ClusterServer(
                "killdb/g0-n1",
                n_shards=1,
                fs=views[mode],
                engine_config=CRASH_CONFIG,
                role="follower",
            )
            runner = ServerThread(server).start()
            try:
                with KVClient(server.host, server.port) as c:
                    c.promote()
                    applied = c.watermark().marks[0][1]
                    assert applied >= max_ack
                    expected = _model_after(ops, applied)
                    for key in {key for _, key, _ in ops}:
                        assert c.get(key) == expected.get(key)
                    # A promoted node is a primary: it takes writes.
                    assert c.put(b"post-failover", 1) == applied + 1
            finally:
                runner.stop()


# -- membership: snapshot resync ---------------------------------------------


def _restart_follower(cluster, fss, name, shard_ids):
    """Bring a stopped follower back on its surviving MemFS disks."""
    from repro.cluster.failover import ClusterNode

    return ClusterNode(
        name,
        f"cl/{name}",
        n_shards=cluster.n_shards,
        fs=lambda shard, _n=name: fss.setdefault((_n, shard), MemFS()),
        role="follower",
        engine_config=TINY_CONFIG,
        shard_ids=shard_ids,
    ).start()


def _wait_link(replication, port, deadline=30.0, want_state="streaming",
               min_resyncs=1):
    import time

    end = time.monotonic() + deadline
    link = None
    while time.monotonic() < end:
        links = [l for l in replication.stats()["links"] if l["port"] == port]
        link = links[0] if links else None
        if (
            link is not None
            and link["state"] == want_state
            and link["resyncs"] >= min_resyncs
        ):
            return link
        time.sleep(0.05)
    raise AssertionError(f"link never reached {want_state}: {link}")


class TestSnapshotResync:
    def test_trimmed_below_floor_rejoins_under_live_writes(self):
        """A follower that was down while the capped log trimmed past
        its watermark rejoins via snapshot resync — with client writes
        continuing the whole time."""
        cluster, fss = _mem_cluster(
            followers=1, n_shards=2, log_cap_bytes=8 * 1024
        )
        try:
            group = cluster.groups[0]
            primary, follower = group.primary, group.followers[0]
            seqs = {}
            with KVClient(*_addr(primary)) as c:
                for i in range(50):
                    key = b"r%05d" % i
                    seqs[key] = c.put(key, b"v" * 40)
                faddr = follower.address
                follower.stop()
                primary.replication.remove_follower(faddr.host, faddr.port)
                # Far past the 8 KiB cap: the log floor must outrun the
                # dead follower's watermark.
                for i in range(50, 1200):
                    key = b"r%05d" % i
                    seqs[key] = c.put(key, b"v" * 40)
                floors = {
                    int(s): v["floor"]
                    for s, v in c.stats()["cluster"]["replication"]["shards"].items()
                }
                assert all(f > 50 for f in floors.values()), floors

                restarted = _restart_follower(
                    cluster, fss, follower.name, [0, 1]
                )
                group.followers = [restarted]
                primary.replication.add_follower(
                    restarted.server.host, restarted.server.port
                )
                # Live writes while the resync ships.
                for i in range(1200, 1400):
                    key = b"r%05d" % i
                    seqs[key] = c.put(key, b"v" * 40)
                link = _wait_link(primary.replication, restarted.server.port)
                assert link["voting"]
                c.sync()
            # Read-your-writes on the resynced follower at each ack's
            # own token — first write, pre-outage tail, post-resync.
            with KVClient(restarted.server.host, restarted.server.port) as c:
                for key in (b"r00000", b"r00049", b"r01199", b"r01399"):
                    assert c.get_at(key, seqs[key]) == b"v" * 40
        finally:
            cluster.stop()

    def test_empty_disk_follower_bootstraps(self):
        """A brand-new node (nothing on disk) attaches after the log
        trimmed its prefix away: it gets the state as a snapshot, then
        streams.  (With an untrimmed log it would just stream from 0 —
        the small cap forces the snapshot path.)"""
        cluster, fss = _mem_cluster(
            followers=0, n_shards=2, log_cap_bytes=4 * 1024
        )
        try:
            primary = cluster.groups[0].primary
            seqs = {}
            with KVClient(*_addr(primary)) as c:
                for i in range(600):
                    key = b"b%04d" % i
                    seqs[key] = c.put(key, i)
                floors = {
                    int(s): v["floor"]
                    for s, v in c.stats()["cluster"]["replication"]["shards"].items()
                }
                assert all(f > 0 for f in floors.values()), floors
            fresh = _restart_follower(cluster, fss, "fresh", [0, 1])
            try:
                primary.replication.add_follower(
                    fresh.server.host, fresh.server.port
                )
                link = _wait_link(primary.replication, fresh.server.port,
                                  min_resyncs=2)  # one per shard
                assert link["state"] == "streaming"
                with KVClient(*_addr(primary)) as c:
                    c.sync()
                with KVClient(fresh.server.host, fresh.server.port) as c:
                    for key, seq in seqs.items():
                        assert c.get_at(key, seq) == int(key[1:])
            finally:
                fresh.stop()
        finally:
            cluster.stop()

    def test_allow_resync_false_surfaces_typed_error(self):
        """Regression: a behind follower used to kill the sender thread
        silently (writes then hung against a zombie link).  With
        resync disabled the link must park in ``needs_resync`` and
        writes must fail fast with the typed error."""
        cluster, fss = _mem_cluster(
            followers=0, n_shards=2, allow_resync=False,
            log_cap_bytes=2 * 1024,
        )
        try:
            primary = cluster.groups[0].primary
            with KVClient(*_addr(primary)) as c:
                for i in range(500):
                    c.put(b"n%04d" % i, i)
            fresh = _restart_follower(cluster, fss, "late", [0, 1])
            try:
                primary.replication.add_follower(
                    fresh.server.host, fresh.server.port
                )
                import time

                end = time.monotonic() + 30
                while time.monotonic() < end:
                    links = primary.replication.stats()["links"]
                    if links and links[0]["state"] == "needs_resync":
                        break
                    time.sleep(0.05)
                link = primary.replication.stats()["links"][0]
                assert link["state"] == "needs_resync"
                assert "resync" in (link["last_error"] or "")
                with KVClient(*_addr(primary)) as c:
                    with pytest.raises(ServerError, match="resync"):
                        c.put(b"blocked", 1)
            finally:
                fresh.stop()
        finally:
            cluster.stop()


# -- observability: replication fields in STATS ------------------------------


class TestReplicationStats:
    def test_stats_expose_per_follower_replication_state(self):
        cluster, _ = _mem_cluster(followers=1, n_shards=2)
        try:
            primary = cluster.groups[0].primary
            follower = cluster.groups[0].followers[0]
            with KVClient(*_addr(primary)) as c:
                for i in range(30):
                    c.put(b"s%04d" % i, i)
                stats = c.stats()
            section = stats["cluster"]
            assert section["role"] == "primary"
            assert section["term"] == 0
            assert sorted(section["hosted_shards"]) == [0, 1]
            for shard in ("0", "1"):
                st = section["shards"][shard]
                assert st["state"] == "serving"
            repl = section["replication"]
            assert repl["allow_resync"] is True
            assert repl["log_cap_bytes"] > 0
            for shard in ("0", "1"):
                log = repl["shards"][shard]
                assert log["end_seq"] >= 1
                assert log["floor"] >= 0
                assert log["buffered_bytes"] >= 0
                assert log["migration"] is None
                assert log["ingest"] is False
            (link,) = repl["links"]
            assert link["port"] == follower.server.port
            assert link["state"] == "streaming"
            assert link["voting"] is True
            assert link["resyncs"] == 0
            # Every ack waited on the follower, so its durable marks
            # cover the log end.
            for shard in ("0", "1"):
                assert link["durable"][shard] >= repl["shards"][shard]["end_seq"]
            # The follower's own stats carry its side of the story.
            with KVClient(*_addr(follower)) as c:
                fstats = c.stats()["cluster"]
            assert fstats["role"] == "follower"
            for shard in ("0", "1"):
                assert fstats["shards"][shard]["repl_applied"] >= 1
        finally:
            cluster.stop()


# -- placement: golden pins + incremental ownership --------------------------


class TestPlacement:
    def test_golden_default_placements(self):
        """Pins the derived shard→group map: changing the ring or the
        token scheme strands every existing multi-group deployment."""
        from repro.cluster import default_placement

        assert default_placement(["g0"], 4) == {i: "g0" for i in range(4)}
        assert default_placement(["g0", "g1"], 8) == {
            0: "g0", 1: "g0", 2: "g0", 3: "g0",
            4: "g1", 5: "g0", 6: "g1", 7: "g1",
        }
        assert default_placement(["g0", "g1", "g2"], 8) == {
            0: "g0", 1: "g0", 2: "g0", 3: "g0",
            4: "g2", 5: "g2", 6: "g1", 7: "g2",
        }

    def test_adding_a_group_only_pulls_shards_to_it(self):
        """Incremental ownership: growing the cluster never shuffles
        shards between surviving groups."""
        from repro.cluster import default_placement

        for n_shards in (8, 64, 256):
            before = default_placement(["g0", "g1"], n_shards)
            after = default_placement(["g0", "g1", "g2"], n_shards)
            moved = 0
            for shard in range(n_shards):
                if after[shard] != before[shard]:
                    assert after[shard] == "g2", (
                        f"shard {shard} moved {before[shard]}→{after[shard]}"
                    )
                    moved += 1
            assert 0 < moved < n_shards

    def test_removing_a_group_only_scatters_its_shards(self):
        from repro.cluster import default_placement

        n_shards = 128
        before = default_placement(["g0", "g1", "g2"], n_shards)
        after = default_placement(["g0", "g1"], n_shards)
        for shard in range(n_shards):
            if before[shard] != "g2":
                assert after[shard] == before[shard]
            else:
                assert after[shard] in ("g0", "g1")

    def test_property_incremental_ownership_is_bounded(self):
        """Arbitrary group names: a newcomer only ever *pulls* shards
        (never shuffles survivors) — exact, checked per example — and
        takes the 1/(k+1) share the ring promises *on average*.  The
        share of one example is a random variable with a real tail
        (about one draw in a hundred lands past 3x its expectation, and
        a per-example cap made this test find those draws and replay
        them); the mean over the examples is what a broken token scheme
        would move, to k+1 times the expectation."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.cluster import default_placement

        shares: list[float] = []

        @settings(max_examples=50, deadline=None)
        @given(
            groups=st.lists(
                st.text(alphabet="abcdefgh", min_size=1, max_size=8),
                min_size=1, max_size=8, unique=True,
            ),
            newcomer=st.text(alphabet="xyz", min_size=1, max_size=8),
            n_shards=st.sampled_from([16, 64, 256]),
        )
        def check(groups, newcomer, n_shards):
            before = default_placement(groups, n_shards)
            after = default_placement(groups + [newcomer], n_shards)
            moved = [s for s in range(n_shards) if after[s] != before[s]]
            for s in moved:
                assert after[s] == newcomer, (
                    f"shard {s} shuffled {before[s]}->{after[s]} when "
                    f"only {newcomer} joined"
                )
            shares.append(len(moved) * (len(groups) + 1) / n_shards)

        check()
        mean_share = sum(shares) / len(shares)
        assert 0.5 <= mean_share <= 1.5, (
            f"a newcomer takes {mean_share:.2f}x its expected 1/(k+1) share "
            f"on average over {len(shares)} topologies"
        )


# -- live shard migration ----------------------------------------------------


class TestLiveMigration:
    def test_migrate_under_load_zero_failed_ops(self):
        """Move a shard between groups while a client hammers it: no
        operation may fail (NOT_OWNER retries absorb the handoff), at
        least one op must have ridden a redirect, and the move is a
        stall, not an outage: no single put waits 30 s."""
        import threading
        import time

        cluster, _ = _mem_cluster(followers=1, n_shards=4, n_groups=2)
        try:
            assert cluster.placement[0] == "g0"
            acked = {}
            errors = []
            counters = {"longest_put": 0.0}
            stop = threading.Event()

            def writer():
                try:
                    with ClusterClient(cluster.topology()) as c:
                        i = 0
                        while not stop.is_set():
                            key = b"mig-%05d" % i
                            started = time.perf_counter()
                            acked[key] = c.put(key, i)
                            counters["longest_put"] = max(
                                counters["longest_put"], time.perf_counter() - started
                            )
                            i += 1
                        counters["moved_ops"] = c.moved_ops
                except Exception as exc:  # any non-retried failure
                    errors.append(exc)

            thread = threading.Thread(target=writer)
            thread.start()
            time.sleep(0.3)
            handoff = cluster.migrate_shard(0, "g1")
            assert handoff is not None and handoff >= 1
            # Keep writing after the flip so the stale-placement writer
            # provably crosses a redirect.
            time.sleep(0.5)
            stop.set()
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert not errors, errors
            assert counters["moved_ops"] >= 1
            assert counters["longest_put"] < 30.0, counters
            assert cluster.placement[0] == "g1"
            assert any(route_key(k, 4) == 0 for k in acked)

            # Every acked write is readable through the new placement.
            with ClusterClient(cluster.topology()) as c:
                for key, seq in acked.items():
                    assert seq is not None
                    assert c.get(key) == int(key[4:])
                assert c.count(b"mig-", b"mig.\xff") == len(acked)
        finally:
            cluster.stop()

    def test_coordinator_crash_mid_handoff_is_recoverable(self):
        """Coordinator dies between MIGRATE and the detach/commit: the
        shard sits sealed on the source and ingesting on the target.
        Nothing is lost — a recovery pass reads the handoff back off
        the target's watermark and re-drives the remaining steps."""
        cluster, _ = _mem_cluster(followers=1, n_shards=2, n_groups=2)
        try:
            src, dst = cluster.group("g0"), cluster.group("g1")
            seqs = {}
            with KVClient(*_addr(src.primary)) as c:
                for i in range(40):
                    key = b"c%04d" % i
                    seqs[key] = c.put(key, i)
            targets = [
                (n.server.host, n.server.port) for n in dst.nodes()
            ]
            with KVClient(*_addr(src.primary)) as c:
                handoff = c.migrate(0, "g1", targets)
            # -- coordinator crashes here --
            # The handoff sequence is recoverable from the target
            # primary's own watermark (it applied the full delta).
            with KVClient(*_addr(dst.primary)) as c:
                recovered = c.watermark().marks[0][1]
            assert recovered == handoff
            for node in src.nodes():
                with KVClient(*_addr(node)) as c:
                    c.shard_detach(0, "g1")
            for node in dst.nodes():
                with KVClient(*_addr(node)) as c:
                    c.migrate_commit(0, recovered)
            cluster.placement[0] = "g1"
            with ClusterClient(cluster.topology()) as c:
                for key, _ in seqs.items():
                    assert c.get(key) == int(key[1:])
        finally:
            cluster.stop()

    def test_migrate_commit_is_idempotent(self):
        """A retried commit (coordinator crashed after the first one
        landed) answers OK instead of failing the recovery pass."""
        cluster, _ = _mem_cluster(followers=0, n_shards=2, n_groups=2)
        try:
            handoff = cluster.migrate_shard(0, "g1")
            dst = cluster.group("g1")
            with KVClient(*_addr(dst.primary)) as c:
                c.migrate_commit(0, handoff)  # replay: must not raise
        finally:
            cluster.stop()


# -- lease-based election ----------------------------------------------------


class TestLeaseElection:
    def test_auto_promotion_after_primary_death(self):
        import time

        cluster, _ = _mem_cluster(followers=2, n_shards=2)
        try:
            group = cluster.groups[0]
            seqs = {}
            with KVClient(*_addr(group.primary)) as c:
                for i in range(50):
                    key = b"e%04d" % i
                    seqs[key] = c.put(key, i)
            cluster.enable_election(lease_interval=0.05, lease_ttl=0.4)
            time.sleep(0.5)  # leases flowing
            group.primary.stop()
            peers = {n.server.port for n in group.nodes()}

            def elected():
                """The follower whose lease thread has finished its
                election: the event is logged and every peer re-attached.
                (PROMOTE flips the role on the node's loop *before* its
                reply reaches the lease thread, so the role alone says
                the thread may still be between the two.)"""
                for n in group.followers:
                    links = n.replication.stats()["links"]
                    if ("promoted", n.server.term) in n.lease.events and (
                        peers - {n.server.port} <= {link["port"] for link in links}
                    ):
                        return n
                return None

            end = time.monotonic() + 30
            while elected() is None and time.monotonic() < end:
                time.sleep(0.05)
            promoted = [
                n for n in group.followers if n.server.role == "primary"
            ]
            assert promoted, "no follower auto-promoted"
            assert promoted[0].server.term >= 1
            assert ("promoted", promoted[0].server.term) in promoted[0].lease.events
            topo = group.refresh_roles()
            assert topo.primary.name == promoted[0].name
            # Every pre-crash ack survives, and the new primary writes.
            with ClusterClient(cluster.topology()) as c:
                for key, _ in seqs.items():
                    assert c.get(key) == int(key[1:])
                assert c.put(b"post-election", 1) is not None
        finally:
            cluster.stop()

    def test_deposed_primary_is_fenced_on_rejoin(self):
        """The old primary comes back after an election: its stale term
        must be fenced, never acked — split brain is structurally
        impossible, not just unlikely."""
        import time

        cluster, _ = _mem_cluster(followers=2, n_shards=2)
        try:
            group = cluster.groups[0]
            with KVClient(*_addr(group.primary)) as c:
                for i in range(10):
                    c.put(b"d%04d" % i, i)
            old_primary = group.primary
            # Promote a follower out-of-band (term 1); the old primary
            # keeps thinking it leads at term 0.
            with KVClient(*_addr(group.followers[0])) as c:
                c.promote()
            new_primary = group.followers[0]
            assert new_primary.server.term == 1
            # The new primary's lease grant reaches the stale one and
            # demotes it (newer term wins).
            with KVClient(*_addr(old_primary)) as c:
                c.lease(new_primary.server.term, 1000)
            assert old_primary.server.role == "follower"
            assert old_primary.server.term == 1
        finally:
            cluster.stop()

    def test_double_failure_elects_twice(self):
        import time

        cluster, _ = _mem_cluster(followers=2, n_shards=2)
        try:
            group = cluster.groups[0]
            with KVClient(*_addr(group.primary)) as c:
                for i in range(30):
                    c.put(b"t%04d" % i, i)
            cluster.enable_election(lease_interval=0.05, lease_ttl=0.4)
            time.sleep(0.5)

            def wait_new_primary(excluding):
                end = time.monotonic() + 30
                while time.monotonic() < end:
                    live = [
                        n for n in group.nodes()
                        if n._started and n not in excluding
                        and n.server.role == "primary"
                    ]
                    if live:
                        return live[0]
                    time.sleep(0.05)
                raise AssertionError("no promotion")

            first = group.primary
            first.stop()
            second = wait_new_primary({first})
            # Let the second primary's lease grants reach the survivor
            # before killing it too: term monotonicity across elections
            # is only promised to nodes that *observed* the old term.
            survivor = next(
                n for n in group.nodes()
                if n._started and n not in (first, second)
            )
            end = time.monotonic() + 10
            while (
                survivor.server.term < second.server.term
                and time.monotonic() < end
            ):
                time.sleep(0.05)
            assert survivor.server.term >= second.server.term
            second_term = second.server.term
            second.stop()
            third = wait_new_primary({first, second})
            assert third is survivor
            assert third.server.term > second_term >= 1
            group.refresh_roles()
            with KVClient(*_addr(third)) as c:
                for i in range(30):
                    assert c.get(b"t%04d" % i) == i
        finally:
            cluster.stop()


# -- kill matrix: crash during snapshot install ------------------------------


class TestResyncInstallCrash:
    """The follower's disk power-fails mid snapshot-install.  The
    install must be atomic at the manifest flip: the torn disk reopens
    either empty (resync restarts from zero) or fully at the snapshot
    — never a half-state — and the primary keeps serving throughout."""

    def _run(self, fail_at):
        import time

        from repro.cluster import ClusterServer, PrimaryReplication
        from repro.server import ServerThread

        pfs = [MemFS(), MemFS()]
        # Tiny cap: the 60 seed writes must overflow it, so the empty
        # follower is below the floor and has to take the snapshot
        # path (a 4 MiB default cap would let it stream from seq 0 and
        # never exercise the install).
        replication = PrimaryReplication(log_cap_bytes=1024)
        primary = ClusterServer(
            "rsdb/p", n_shards=1, fs=lambda i: pfs[i],
            engine_config=TINY_CONFIG, role="primary",
            replication=replication,
        )
        prunner = ServerThread(primary).start()
        ffs = FaultFS()
        follower = ClusterServer(
            "rsdb/f", n_shards=1, fs=lambda i: ffs,
            engine_config=TINY_CONFIG, role="follower",
        )
        frunner = ServerThread(follower).start()
        # The follower's own boot (fresh WAL, manifest) costs sync
        # points; fail points are counted from *after* boot so they
        # land inside the snapshot install, not server startup.
        boot = ffs.sync_points
        if fail_at is not None:
            ffs.fail_at = boot + fail_at
        try:
            with KVClient(primary.host, primary.port) as c:
                for i in range(60):
                    c.put(b"i%04d" % i, i)
            replication.add_follower(follower.host, follower.port)
            if fail_at is None:
                _wait_link(replication, follower.port)
                with KVClient(primary.host, primary.port) as c:
                    c.sync()
                return ffs.sync_points - boot, None
            # Wait for the install attempt to hit the dead disk, then
            # prove the primary still acks writes (learner is
            # non-voting while broken).
            end = time.monotonic() + 30
            while not ffs.crashed and time.monotonic() < end:
                time.sleep(0.05)
            assert ffs.crashed, "install never reached the fail point"
            with KVClient(primary.host, primary.port) as c:
                assert c.put(b"after-crash", 1) is not None
            views = {m: ffs.crashed_view(m) for m in CRASH_MODES}
            return None, views
        finally:
            frunner.stop()
            prunner.stop()

    def test_install_is_atomic_under_disk_failure(self):
        total, _ = self._run(fail_at=None)
        assert total >= 3  # table bytes + manifest + CURRENT at least
        for point in (1, max(2, total // 2), total):
            _, views = self._run(fail_at=point)
            for mode, view in views.items():
                recovered = LSMTree.open(
                    "rsdb/f/shard-00", fs=view, **TINY_CONFIG
                )
                try:
                    assert recovered.last_seq in (0, 60), (
                        f"point {point} mode {mode}: half-installed "
                        f"snapshot at seq {recovered.last_seq}"
                    )
                    if recovered.last_seq == 60:
                        for i in range(60):
                            assert recovered.get(b"i%04d" % i) == i
                finally:
                    recovered.close()


# -- differential fuzz through the whole cluster -----------------------------


class TestClusterFuzz:
    def test_differential_fuzz_clean(self):
        from repro.testing.adapters import make_adapter
        from repro.testing.differential import run_sequence
        from repro.testing.ops import generate_ops

        adapter = make_adapter("cluster")
        try:
            failure, stats = run_sequence(adapter, generate_ops(5, 250))
            assert failure is None, failure
            assert stats["applied"] == 250
        finally:
            adapter._teardown()
