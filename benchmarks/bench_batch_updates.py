"""Batched write path: scalar upserts vs ``put_many`` batch inserts.

The PR-8 tentpole claim (BS-tree-style batch updates): partitioning a
sorted batch across gapped leaves in one pass amortizes interpreted-
Python per-key overhead the same way the batched read path did for
lookups.  Two experiments:

* ``GappedBPlusTree`` upserts — a scalar ``put`` loop vs ``put_many``
  at batch sizes {16, 256, 4096} over shuffled email keys;
* the LSM memtable write path — ``LSMTree.write_batch`` (batch 4096)
  plus a final ``flush_memtable`` against the plain-dict baseline
  memtable (sorts at flush) and the gapped memtable (vectorized apply,
  sort-free flush), both on the in-memory engine so memtable cost is
  isolated from WAL fsyncs;
* one L0 -> L1 compaction of a bulk-loaded shard (10k keys, shipped
  sizes: four 512-entry L0 tables over the L1 tables they overlap,
  durable tables on an in-memory filesystem so the row is the merge
  and the table encoding, not the disk), as entries rewritten per
  second — the price ``engine._READ_DEBT_PER_ENTRY`` weighs a wasted
  L0 probe (``batch_queries``) against.

The acceptance bar: ``put_many`` at batch 4096 reaches >= 5x the
scalar-loop throughput.  The committed small-scale numbers clear it
comfortably (~18x): at 10K keys a 4096 batch is dense relative to the
tree, so every chunk takes the flat vectorized rebuild — the regime
the LSM memtable actually runs in, since drains are bounded by the
memtable cap.  At ``REPRO_SCALE=medium`` (100K keys) the same batch
is sparse — ~1% of keys, a few keys per touched leaf — and the win
drops to ~3.4x, floor-limited by fixed per-touched-leaf absorb cost;
the CI assertion is set below that so neither regime flakes.
"""

import random
import time

from repro.bench.harness import measure_ops, report, scaled
from repro.lsm.engine import DictMemtable, LSMTree
from repro.testing.faultfs import MemFS
from repro.trees import GappedBPlusTree
from repro.workloads import random_u64_keys

BATCH_SIZES = (16, 256, 4096)


def _write_mix(keys, seed=11):
    """Shuffled (key, value) upserts with ~25% repeated keys, so batches
    exercise both gap absorption and in-place overwrites."""
    rnd = random.Random(seed)
    pairs = [(key, i) for i, key in enumerate(keys)]
    pairs += [(key, -i) for i, key in enumerate(keys[:: 4])]
    rnd.shuffle(pairs)
    return pairs


def _tree_rows(pairs, repeats=3):
    n = len(pairs)

    def scalar_loop():
        tree = GappedBPlusTree()
        for key, value in pairs:
            tree.put(key, value)

    scalar = measure_ops(scalar_loop, n, repeats=repeats)
    rows = []
    speedups = {}
    for size in BATCH_SIZES:
        chunks = [pairs[i : i + size] for i in range(0, n, size)]

        def batched(chunks=chunks):
            tree = GappedBPlusTree()
            for chunk in chunks:
                tree.put_many(chunk)

        m = measure_ops(batched, n, repeats=repeats)
        speedup = m.ops_per_sec / scalar.ops_per_sec
        speedups[size] = speedup
        rows.append(
            [
                "GappedBPlusTree put",
                size,
                f"{scalar.ops_per_sec:,.0f}",
                f"{m.ops_per_sec:,.0f}",
                f"{speedup:.2f}x",
            ]
        )
    return rows, speedups


def _memtable_rows(pairs, repeats=3):
    """write_batch + flush through the in-memory engine, per memtable."""
    n = len(pairs)
    chunks = [pairs[i : i + 4096] for i in range(0, n, 4096)]
    rows = []
    throughputs = {}
    for label, factory in (
        ("dict memtable", DictMemtable),
        ("gapped memtable", None),  # engine default
    ):
        def apply_and_flush(factory=factory):
            db = LSMTree(
                memtable_entries=n + 1,
                sstable_entries=4096,
                memtable_factory=factory,
            )
            for chunk in chunks:
                db.write_batch(chunk)
            db.flush_memtable()

        m = measure_ops(apply_and_flush, n, repeats=repeats)
        throughputs[label] = m.ops_per_sec
        rows.append(
            [
                f"LSM write_batch+flush ({label})",
                4096,
                "-",
                f"{m.ops_per_sec:,.0f}",
                "-",
            ]
        )
    return rows, throughputs


def _compaction_row(repeats=3):
    """Entries per second through one L0 -> L1 compaction at the shape
    a served shard has after its bulk load (sizes are the engine's
    defaults and do not follow ``REPRO_SCALE``)."""
    keys = random_u64_keys(10_000, seed=11)
    best = float("inf")
    for _ in range(repeats):
        db = LSMTree.open("db", fs=MemFS())
        for i in range(0, len(keys), 64):
            db.write_batch([(k, b"v" * 100) for k in keys[i : i + 64]])
        assert len(db.levels[0]) == 4 and db.levels[1]
        rewritten = db._version.l0_rewrite_entries()
        start = time.perf_counter()
        db._compact_level(0)
        best = min(best, time.perf_counter() - start)
        assert not db.levels[0]
        db.close()
    return [
        "LSM compaction L0->L1 (1e6 / ops/s = us per rewritten entry)",
        rewritten, "-", f"{rewritten / best:,.0f}", "-",
    ], best / rewritten * 1e6


def run_experiment(email_keys_sorted):
    pairs = _write_mix(email_keys_sorted[: scaled(10_000)])
    rows, speedups = _tree_rows(pairs)
    mem_rows, mem_tput = _memtable_rows(pairs)
    compaction_row, entry_us = _compaction_row()
    mem_tput["compaction_entry_us"] = entry_us
    return rows + mem_rows + [compaction_row], speedups, mem_tput


def test_batch_updates(benchmark, email_keys_sorted):
    rows, speedups, mem_tput = benchmark.pedantic(
        run_experiment, args=(email_keys_sorted,), rounds=1, iterations=1
    )
    report(
        "batch_updates",
        "Batched write path: scalar puts vs put_many / memtable apply+flush"
        " (email keys)",
        ["structure", "batch size", "scalar ops/s", "batch ops/s", "speedup"],
        rows,
    )
    # Acceptance: batch 4096 well above the scalar loop.  The committed
    # small-scale numbers sit near 18x; CI asserts a conservative 3x
    # (also cleared in the sparse medium regime) so timer noise on
    # shared runners cannot flake the gate.
    assert speedups[4096] >= 3.0
    # Moderate batches must at least break even: they pay off ~2.5x in
    # the dense regime and are neutral in the sparse one, where 256
    # keys land one-per-leaf and the walk adds only bookkeeping.
    assert speedups[256] > 0.8
    # The gapped memtable must stay in the same league as the dict
    # baseline on pure writes (its wins are lock-free snapshot reads
    # and a sort-free flush, not raw apply speed — a CPython dict store
    # plus one C sort at flush is the fastest possible unordered apply).
    assert mem_tput["gapped memtable"] >= 0.1 * mem_tput["dict memtable"]
