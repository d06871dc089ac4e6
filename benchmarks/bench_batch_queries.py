"""Batched read path: scalar-loop vs native batch throughput.

The claim (BS-tree-style data parallelism): answering a whole key
batch per step amortizes interpreted-Python per-key overhead.  A batch
kernel is kept only where ten alternating pairs show it beating its
scalar loop (EXPERIMENTS.md, "Batch vocabulary audit"); the survivors
are Bloom ``may_contain_many``, Compact and Compressed B+tree
``get_many``, HybridIndex ``get_many`` / ``put_many`` and HopeIndex
``get_many``.  This measures scalar vs batch throughput at batch sizes
{1, 16, 256, 4096} for two of them:

* Bloom probes (one vectorized hash of the batch, one gather for all
  k*N probe positions),
* HOPE(Single)-encoded Compact B+tree gets (batch encode + batch
  searchsorted).

FST and SuRF answer a batch with their one point walk per key (thesis
Ch. 3.3, 4.1), so they have no row: a loop measured against itself.

The ``LSM get`` rows are the engine's own batch read,
``LSMTree.get_many``, against a loop of ``get`` at the widths a server
coalescer delivers ({1, 8, 16, 64, 256}), with no filter and with
SuRF-Real.  The engine holds **one** SSTable of the size the engine
builds by default (4,096 keys, whatever ``REPRO_SCALE`` says), so a
batch's width is also the number of keys its table's filter sees.
Either side probes the filter once per distinct key (this query mix
has no repeats, so that is once per key); ``get_many`` shares the
block fetches of the keys that pass.

The ``L0 depth`` rows hold the same 4,096 keys in one L1 table of a
durable engine (on an in-memory filesystem) under 0 and under 4
overlapping, filterless L0 tables that span the key range
but hold other keys — the state a bulk-loaded shard is left in — so
every present key is searched in ``depth`` tables that do not hold it
before L1 answers.  The ``wasted L0 probe`` row is what one such search
costs at the width the server delivers: (depth 4 - depth 0) / 4 per key
at x8, reported as probes per second.  ``engine._READ_DEBT_PER_ENTRY``
weighs it against ``batch_updates``' compaction row.
"""

import random

from repro.bench.harness import measure_ops, report, scaled
from repro.compact import CompactBPlusTree
from repro.filters.bloom import BloomFilter
from repro.hope import HopeEncoder, HopeIndex
from repro.lsm import LSMTree
from repro.surf import surf_real
from repro.testing.faultfs import MemFS

BATCH_SIZES = (1, 16, 256, 4096)
LSM_WIDTHS = (1, 8, 16, 64, 256)
#: ``LSMTree``'s default ``sstable_entries``: the table size the
#: ``LSM get`` rows are measured at.
LSM_TABLE_KEYS = 4096


def _query_mix(keys, seed=7):
    """Present keys interleaved with near-miss absent keys."""
    rnd = random.Random(seed)
    queries = list(keys)
    for k in keys[:: 2]:
        queries.append(k + b"x")
    rnd.shuffle(queries)
    return queries


def _throughput_rows(name, scalar_fn, batch_fn, queries, repeats=3, sizes=BATCH_SIZES):
    """One row per batch size: scalar loop vs native batch ops/s."""
    n = len(queries)
    scalar_of = {}  # sample length -> the scalar loop over that sample
    rows = []
    speedups = {}
    for size in sizes:
        # Tiny batches pay heavy per-call overhead; measuring them over
        # a query subsample keeps the suite fast without changing the
        # per-op throughput being reported.  The scalar loop is timed
        # over the same sample, so a row compares like with like.
        sample = queries if size >= 256 else queries[: min(n, 2_000)]
        if len(sample) not in scalar_of:
            scalar_of[len(sample)] = measure_ops(
                lambda: scalar_fn(sample), len(sample), repeats=repeats
            )
        scalar = scalar_of[len(sample)]
        chunks = [sample[i : i + size] for i in range(0, len(sample), size)]

        def run_batches(chunks=chunks):
            for chunk in chunks:
                batch_fn(chunk)

        m = measure_ops(run_batches, len(sample), repeats=repeats)
        speedup = m.ops_per_sec / scalar.ops_per_sec
        speedups[size] = (scalar.ops_per_sec, m.ops_per_sec, speedup)
        rows.append(
            [
                name,
                size,
                f"{scalar.ops_per_sec:,.0f}",
                f"{m.ops_per_sec:,.0f}",
                f"{speedup:.2f}x",
            ]
        )
    return rows, speedups


def _one_table_engine(keys, filter_factory):
    db = LSMTree(
        memtable_entries=len(keys) + 1,
        sstable_entries=len(keys) + 1,
        filter_factory=filter_factory,
    )
    db.put_many([(k, i) for i, k in enumerate(keys)])
    db.flush_memtable()
    assert db.table_count() == 1
    return db


#: L0 tables over the L1 table in the ``L0 depth`` rows: the engine's
#: default ``level0_limit``, where a shard sits after a bulk load.
L0_DEPTH = 4


def _layered_engine(keys, depth):
    """``keys`` in one L1 table, under ``depth`` L0 tables whose ranges
    cover every query but which hold none of them."""
    db = LSMTree.open(  # durable tables, as served; the disk is memory
        "db", fs=MemFS(), memtable_entries=len(keys) + 64, sstable_entries=len(keys) + 64
    )
    flushes = db.info()["l0_tables"] + 5  # the fifth L0 table tips L0 into L1
    for part in range(flushes):
        db.put_many([(k, i) for i, k in enumerate(keys[part::flushes])])
        db.flush_memtable()
    span = [(b"\x00", 0), (b"\xff\xff", 0)]
    for table in range(depth):
        others = [(k + bytes([table + 1]), 0) for k in keys[table :: 8]]
        db.put_many(sorted(others + span))
        db.flush_memtable()
    assert [len(level) for level in db.levels] == [depth, 1]
    return db


def _l0_depth_rows(keys):
    """Filterless ``get`` / ``get_many`` at L0 depth 0 and ``L0_DEPTH``,
    and the cost of one wasted L0 probe they imply at x8."""
    keys = keys[:: max(1, len(keys) // LSM_TABLE_KEYS)][:LSM_TABLE_KEYS]
    queries = _query_mix(keys)
    rows = []
    stats = {}
    for depth in (0, L0_DEPTH):
        db = _layered_engine(keys, depth)
        name = f"LSM get, no filter, L0 depth {depth}"
        r, stats[name] = _throughput_rows(
            name, lambda qs: [db.get(q) for q in qs], db.get_many, queries,
            sizes=LSM_WIDTHS,
        )
        rows += r
        db.close()
    shallow, deep = (stats[f"LSM get, no filter, L0 depth {d}"][8][1] for d in (0, L0_DEPTH))
    probe_us = (1e6 / deep - 1e6 / shallow) / L0_DEPTH
    stats["LSM wasted L0 probe us"] = probe_us
    rows.append(
        ["LSM wasted L0 probe, no filter (1e6 / ops/s = us each)", 8, "-",
         f"{1e6 / probe_us:,.0f}", "-"]
    )
    return rows, stats


def _lsm_rows(keys):
    """``LSMTree.get_many`` vs a ``get`` loop, per filter."""
    keys = keys[:: max(1, len(keys) // LSM_TABLE_KEYS)][:LSM_TABLE_KEYS]
    queries = _query_mix(keys)
    rows = []
    stats = {}
    for label, factory in (("no filter", None), ("SuRF-Real", surf_real)):
        db = _one_table_engine(keys, factory)
        r, stats[f"LSM get, {label}"] = _throughput_rows(
            f"LSM get, {label}",
            lambda qs: [db.get(q) for q in qs],
            db.get_many,
            queries,
            sizes=LSM_WIDTHS,
        )
        rows += r
        stats[f"LSM counts, {label}"] = {
            width: (_io_counts(db, lambda qs: [db.get(q) for q in qs], [queries]),
                    _io_counts(db, db.get_many, [queries[i : i + width]
                                                 for i in range(0, len(queries), width)]))
            for width in LSM_WIDTHS
        }
        db.close()
    return rows, stats


def _io_counts(db, read, batches):
    """(block fetches, filter probes) ``read`` makes over ``batches``."""
    db.io.reset()
    for batch in batches:
        read(batch)
    return db.io.block_reads + db.io.cache_hits, db.io.filter_probes


def run_experiment(email_keys_sorted):
    keys = email_keys_sorted[: scaled(10_000)]
    queries = _query_mix(keys)
    rows = []
    stats = {}

    bloom = BloomFilter(keys, bits_per_key=10)
    r, s = _throughput_rows(
        "Bloom probe",
        lambda qs: [bloom.may_contain(q) for q in qs],
        bloom.may_contain_many,
        queries,
    )
    rows += r
    stats["bloom"] = s

    encoder = HopeEncoder.from_sample("single", keys[:: max(1, len(keys) // 256)])
    # Dedup padding collisions (encode is not injective after byte
    # padding); strictly-increasing pairs feed the static tree.
    enc_pairs: dict = {}
    for i, k in enumerate(keys):
        enc_pairs.setdefault(encoder.encode(k), i)
    hope = HopeIndex(
        lambda: CompactBPlusTree(sorted(enc_pairs.items())), encoder
    )
    r, s = _throughput_rows(
        "HOPE+CompactBTree get",
        lambda qs: [hope.get(q) for q in qs],
        hope.get_many,
        queries,
    )
    rows += r
    stats["hope"] = s

    r, s = _lsm_rows(keys)
    rows += r
    stats.update(s)

    r, s = _l0_depth_rows(keys)
    rows += r
    stats.update(s)

    return rows, stats


def test_batch_queries(benchmark, email_keys_sorted):
    rows, stats = benchmark.pedantic(
        run_experiment, args=(email_keys_sorted,), rounds=1, iterations=1
    )
    report(
        "batch_queries",
        "Batched read path: scalar loop vs native batch throughput (email keys)",
        ["structure", "batch size", "scalar ops/s", "batch ops/s", "speedup"],
        rows,
    )
    # Every native batch path must beat its scalar loop at full width.
    for name, s in stats.items():
        if not name.startswith("LSM"):
            assert s[4096][2] > 1.0, f"{name}: batch slower than scalar"
    # From the coalescer's width up get_many must not lose to the loop.
    # Without a filter that is a timing bar it clears by a wide margin
    # (1.6-1.9x at x8 against 0.8 for timer noise; at width 1 the row
    # measures the bookkeeping of one call).  With SuRF-Real the filter
    # probe is >95 % of either side, the ratio is 1.0 by construction
    # and a timing bar on it tripped one small-scale run in four — so
    # the claim is stated on what the engine controls: the same filter
    # probes and no more block fetches than the loop, at every width.
    for width in LSM_WIDTHS[1:]:
        assert stats["LSM get, no filter"][width][2] >= 0.8, f"get_many x{width} loses to get"
    for label in ("no filter", "SuRF-Real"):
        for width, (loop, batch) in stats[f"LSM counts, {label}"].items():
            assert batch[1] == loop[1], f"{label} x{width}: filter probes {batch[1]} != {loop[1]}"
            assert batch[0] <= loop[0], f"{label} x{width}: block fetches {batch[0]} > {loop[0]}"
