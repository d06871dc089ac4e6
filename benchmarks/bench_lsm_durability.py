"""Durable LSM engine: what durability costs and what recovery costs.

Three questions the engine (WAL + manifest + on-disk SSTables) must
answer with numbers:

* WAL tax — write throughput across group-commit sizes
  (``wal_sync_every`` 1 / 64 / 512).  fsync-per-record is the
  pathological floor; batched fsync points are the paper-adjacent
  configuration.
* media tax — the same configuration on the in-memory filesystem
  (MemFS, where a path-less engine runs) vs the real filesystem
  isolates serialization cost from actual fsync cost.  Ratios are
  against ``memfs sync_every=512``: the least the engine pays per
  write.
* recovery time — ``LSMTree.open`` on an existing directory replays
  the manifest + WAL tail; reopening must be milliseconds, not a
  rebuild.

The acceptance bar: larger commit groups are not slower than
fsync-per-record on disk, and recovery of a multi-level database
completes in under 5 seconds.
"""

import time

from repro.bench.harness import measure_ops, report, scaled
from repro.lsm import LSMTree
from repro.lsm.fs import MemFS
from repro.workloads.keys import encode_u64

CONFIG = dict(
    memtable_entries=512,
    sstable_entries=4096,
    block_entries=256,
    level0_limit=4,
)


def _fill(db, n, delete_every=7):
    for i in range(n):
        db.put(encode_u64(i * 2_654_435_761 % (1 << 32)), i)
        if i % delete_every == 0:
            db.delete(encode_u64((i // 2) * 2_654_435_761 % (1 << 32)))


def run_experiment(tmp_path):
    n = scaled(20_000)
    rows = []
    stats = {}

    for fs_name, make_fs in (("memfs", lambda: MemFS()), ("disk", lambda: None)):
        for sync_every in (1, 64, 512):
            label = f"durable {fs_name} sync_every={sync_every}"
            counter = [0]

            def run(make_fs=make_fs, sync_every=sync_every, counter=counter):
                counter[0] += 1
                path = str(tmp_path / f"db-{fs_name}-{sync_every}-{counter[0]}")
                db = LSMTree.open(
                    path, fs=make_fs(), wal_sync_every=sync_every, **CONFIG
                )
                _fill(db, n)
                db.close()

            m = measure_ops(run, n, repeats=1)
            rows.append([label, sync_every, m.ops_per_sec])
            stats[(fs_name, sync_every)] = m.ops_per_sec
    base = stats[("memfs", 512)]
    rows = [
        [label, sync_every, f"{ops:,.0f}", f"{base / ops:.2f}x"]
        for label, sync_every, ops in rows
    ]

    # Recovery time: reopen a populated multi-level database.
    path = str(tmp_path / "db-recover")
    db = LSMTree.open(path, wal_sync_every=64, **CONFIG)
    _fill(db, n)
    unsynced_tail = 100
    for i in range(unsynced_tail):  # leave a WAL tail for replay
        db.put(encode_u64(10**9 + i), i)
    db.sync()
    n_tables = sum(len(level) for level in db.levels)
    db.close()
    t0 = time.perf_counter()
    recovered = LSMTree.open(path, wal_sync_every=64, **CONFIG)
    recovery_s = time.perf_counter() - t0
    assert recovered.last_seq == db.last_seq
    recovered.close()
    rows.append(
        [
            f"recovery ({n_tables} tables, {recovered.last_seq:,} seq)",
            "-",
            f"{recovery_s * 1e3:,.1f} ms",
            "-",
        ]
    )
    stats["recovery_s"] = recovery_s
    return rows, stats


def test_lsm_durability(benchmark, tmp_path):
    rows, stats = benchmark.pedantic(
        run_experiment, args=(tmp_path,), rounds=1, iterations=1
    )
    report(
        "lsm_durability",
        "Durable LSM: WAL group-commit cost and recovery time",
        ["configuration", "sync_every", "write ops/s (or time)", "time vs memfs 512"],
        rows,
    )
    # Larger commit groups must not be slower than fsync-per-record.
    assert stats[("disk", 512)] >= stats[("disk", 1)]
    # Recovery replays metadata + WAL tail, never rebuilds tables.
    assert stats["recovery_s"] < 5.0
