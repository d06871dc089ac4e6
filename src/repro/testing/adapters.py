"""Adapters giving every structure one op vocabulary.

The differential executor speaks a single op set (see
:mod:`repro.testing.ops`); each adapter translates it onto one concrete
structure:

* dynamic trees take the ops directly;
* static (D-to-S) structures buffer mutations in a pending dict and
  rebuild lazily before the next read — the executor still diffs every
  read against the oracle, so a bad build or a bad rank/select kernel
  surfaces at the first read after it;
* filters answer membership ops under one-sided-error comparison;
* HOPE-wrapped trees encode keys first; ordered results are compared
  by *value* sequence (encoded keys differ from raw keys, but their
  order must not).

``SKIPPED`` marks ops a structure legitimately cannot express (e.g.
``serialize`` on a pointer-based tree); the executor applies the op to
the oracle regardless so every structure sees the same logical state.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Callable, Sequence

from ..compact import (
    CompactART,
    CompactBPlusTree,
    CompactMasstree,
    CompactSkipList,
    CompressedBPlusTree,
)
from ..filters.bloom import BloomFilter
from ..filters.prefix_bloom import PrefixBloomFilter
from ..fst import FST
from ..hope import HopeEncoder, HopeIndex
from ..hybrid import (
    hybrid_art,
    hybrid_btree,
    hybrid_compressed_btree,
    hybrid_gapped,
    hybrid_masstree,
    hybrid_skiplist,
)
from ..surf import SuRF
from ..trees import (
    ART,
    BPlusTree,
    GappedBPlusTree,
    HOTrie,
    Masstree,
    PagedSkipList,
    PrefixBPlusTree,
    TTree,
)
from ..workloads.keys import email_keys
from .ops import Op

#: Sentinel: the op is outside this structure's vocabulary.
SKIPPED = object()

#: Clamp for iterator-derived range counts (keeps exact adapters from
#: walking arbitrarily large ranges on every ``count`` op).
COUNT_CLAMP = 64


class Adapter:
    """Base adapter: a named structure speaking the common op set."""

    #: "exact" adapters must match the oracle answer bit-for-bit;
    #: "filter" adapters are held to the one-sided-error contract.
    kind = "exact"
    #: "pairs" compares ordered results as (key, value) lists;
    #: "values" compares the value sequence only (HOPE-encoded keys).
    compare = "pairs"

    def __init__(self, name: str) -> None:
        self.name = name
        self.reset()

    def reset(self) -> None:
        raise NotImplementedError

    def apply(self, op: Op) -> Any:
        raise NotImplementedError

    def close(self) -> None:
        """Release external resources (sockets, threads).

        Most adapters are plain in-memory objects and need nothing; the
        server adapters override this to drain their shard workers and
        close their connections.  Idempotent.
        """


def _bounded_pairs(iterator, count: int) -> list[tuple[bytes, Any]]:
    return list(islice(iterator, count))


def _range_answer(index, low: bytes, high: bytes) -> bool:
    first = next(iter(index.lower_bound(low)), None)
    return first is not None and first[0] < high


def _count_answer(index, low: bytes, high: bytes, clamp: int = COUNT_CLAMP) -> int:
    n = 0
    for k, _ in index.lower_bound(low):
        if k >= high or n >= clamp:
            break
        n += 1
    return n


class DynamicAdapter(Adapter):
    """Any mutable OrderedIndex taken as-is."""

    def __init__(self, name: str, factory: Callable[[], Any]) -> None:
        self._factory = factory
        super().__init__(name)

    def reset(self) -> None:
        self.index = self._factory()

    def apply(self, op: Op) -> Any:
        index = self.index
        if op.op == "insert":
            return index.insert(op.key, op.value)
        if op.op == "update":
            return index.update(op.key, op.value)
        if op.op == "delete":
            return index.delete(op.key)
        if op.op == "put_many":
            # OrderedIndex guarantees put_many (native batch kernels
            # override the scalar-loop default in base.py).
            index.put_many(list(zip(op.keys, op.values)))
            return None
        if op.op == "get":
            return index.get(op.key)
        if op.op == "get_many":
            return index.get_many(list(op.keys))
        if op.op == "contains":
            return op.key in index
        if op.op == "lower_bound":
            return _bounded_pairs(index.lower_bound(op.key), op.count)
        if op.op == "scan":
            return index.scan(op.key, op.count)
        if op.op == "range":
            return _range_answer(index, op.key, op.high)
        if op.op == "count":
            return _count_answer(index, op.key, op.high)
        if op.op == "len":
            return len(index)
        if op.op == "items":
            return list(index.items())
        if op.op == "merge":
            if hasattr(index, "merge"):
                index.merge()
                return None
            return SKIPPED
        if op.op == "serialize":
            return SKIPPED
        raise ValueError(f"unknown op {op.op!r}")


class GappedAdapter(DynamicAdapter):
    """GappedBPlusTree: DynamicAdapter plus a real serialize round-trip.

    ``serialize`` replaces the live tree with ``from_bytes(to_bytes())``
    so every later read runs against the deserialized instance — a
    leaf-packing or framing bug surfaces as a differential failure."""

    def apply(self, op: Op) -> Any:
        if op.op == "serialize":
            index = self.index
            self.index = type(index).from_bytes(index.to_bytes())
            return None
        return super().apply(op)


class StaticAdapter(Adapter):
    """D-to-S structure: pending mutations, lazy rebuild on read.

    ``merge`` forces a rebuild; ``serialize`` forces a
    to_bytes/from_bytes round-trip when the structure supports one, so
    later reads run against the deserialized instance.
    """

    def __init__(self, name: str, builder: Callable[[Sequence[tuple[bytes, Any]]], Any]) -> None:
        self._builder = builder
        super().__init__(name)

    def reset(self) -> None:
        self._pending: dict[bytes, Any] = {}
        self._dirty = True
        self.index: Any = None

    def _ensure(self) -> Any:
        if self._dirty:
            pairs = sorted(self._pending.items())
            self.index = self._builder(pairs)
            self._dirty = False
        return self.index

    def apply(self, op: Op) -> Any:
        if op.op == "insert":
            if op.key in self._pending:
                return False
            self._pending[op.key] = op.value
            self._dirty = True
            return True
        if op.op == "update":
            if op.key not in self._pending:
                return False
            self._pending[op.key] = op.value
            self._dirty = True
            return True
        if op.op == "delete":
            if op.key not in self._pending:
                return False
            del self._pending[op.key]
            self._dirty = True
            return True
        if op.op == "put_many":
            self._pending.update(zip(op.keys, op.values))
            self._dirty = True
            return None
        if op.op == "merge":
            self._dirty = True
            self._ensure()
            return None
        if op.op == "serialize":
            index = self._ensure()
            if not hasattr(index, "to_bytes"):
                return SKIPPED
            self.index = type(index).from_bytes(index.to_bytes())
            return None
        index = self._ensure()
        if op.op == "get":
            return index.get(op.key)
        if op.op == "get_many":
            batch = getattr(index, "get_many", None)
            if batch is None:
                return [index.get(k) for k in op.keys]
            return batch(list(op.keys))
        if op.op == "contains":
            return index.get(op.key) is not None
        if op.op == "lower_bound":
            return _bounded_pairs(index.lower_bound(op.key), op.count)
        if op.op == "scan":
            if hasattr(index, "scan"):
                return index.scan(op.key, op.count)
            return _bounded_pairs(index.lower_bound(op.key), op.count)
        if op.op == "range":
            return _range_answer(index, op.key, op.high)
        if op.op == "count":
            return _count_answer(index, op.key, op.high)
        if op.op == "len":
            return len(index)
        if op.op == "items":
            return list(index.items())
        raise ValueError(f"unknown op {op.op!r}")


class FstAdapter(StaticAdapter):
    """FST: like StaticAdapter, but ``count`` uses the native
    ``count_range`` (exact for complete tries) instead of iteration."""

    def __init__(self, name: str = "fst", **fst_kwargs) -> None:
        super().__init__(name, lambda pairs: FST([k for k, _ in pairs], [v for _, v in pairs], **fst_kwargs))

    def apply(self, op: Op) -> Any:
        if op.op == "count":
            index = self._ensure()
            return min(index.count_range(op.key, op.high), COUNT_CLAMP)
        return super().apply(op)


class FilterAdapter(Adapter):
    """Approximate-membership structure under one-sided comparison.

    The pending key set mirrors the oracle's keys exactly; reads
    rebuild lazily.  ``builder`` maps a sorted key list to a filter
    answering ``may_contain`` / ``may_contain_range``.
    """

    kind = "filter"

    def __init__(self, name: str, builder: Callable[[list[bytes]], Any],
                 supports_count: bool = False) -> None:
        self._builder = builder
        self._supports_count = supports_count
        super().__init__(name)

    def reset(self) -> None:
        self._pending: set[bytes] = set()
        self._dirty = True
        self.filter: Any = None

    def _ensure(self) -> Any:
        if self._dirty:
            self.filter = self._builder(sorted(self._pending))
            self._dirty = False
        return self.filter

    def apply(self, op: Op) -> Any:
        if op.op == "insert":
            if op.key in self._pending:
                return False
            self._pending.add(op.key)
            self._dirty = True
            return True
        if op.op == "update":
            return SKIPPED  # filters store no values
        if op.op == "delete":
            if op.key not in self._pending:
                return False
            self._pending.discard(op.key)
            self._dirty = True
            return True
        if op.op == "put_many":
            # Values are dropped, but the key set must keep mirroring
            # the oracle's (the oracle applies the batch regardless, so
            # skipping here would manufacture false negatives later).
            self._pending.update(op.keys)
            self._dirty = True
            return None
        if op.op == "merge":
            self._dirty = True
            self._ensure()
            return None
        if op.op == "serialize":
            flt = self._ensure()
            if not hasattr(flt, "to_bytes"):
                return SKIPPED
            self.filter = type(flt).from_bytes(flt.to_bytes())
            return None
        flt = self._ensure()
        if op.op in ("get", "contains"):
            return bool(flt.may_contain(op.key))
        if op.op == "get_many":
            batch = getattr(flt, "may_contain_many", None)
            scalar = [bool(flt.may_contain(k)) for k in op.keys]
            if batch is None:
                return scalar
            got = [bool(b) for b in batch(list(op.keys))]
            # The one-sided oracle contract alone could mask a batch
            # kernel that diverges from the scalar probe (both answers
            # may be legal false positives): enforce bit-for-bit
            # batch == scalar here so divergence is a shrinkable fuzz
            # failure, not a silent FPR shift.
            if got != scalar:
                raise RuntimeError(
                    f"batch/scalar divergence: batch={got} scalar={scalar}"
                )
            return got
        if op.op in ("lower_bound", "scan"):
            return SKIPPED  # no stored values to iterate
        if op.op == "range":
            return bool(flt.may_contain_range(op.key, op.high))
        if op.op == "count":
            if self._supports_count:
                return flt.count(op.key, op.high)
            return SKIPPED
        if op.op == "len":
            if hasattr(flt, "__len__"):
                return len(flt)
            return SKIPPED
        if op.op == "items":
            return SKIPPED
        raise ValueError(f"unknown op {op.op!r}")


class HopeAdapter(Adapter):
    """HOPE-wrapped dynamic tree: keys are encoded before every op.

    Encoded keys differ from raw keys, so ordered results compare by
    value sequence (``compare = "values"``), which the order-preserving
    property makes sound.  Zero-padding can (rarely) make two distinct
    raw keys encode identically; colliding inserts are absorbed into a
    shadow dict so the adapter still mirrors oracle semantics, and
    ordered ops are skipped while a shadow entry exists.
    """

    compare = "values"

    def __init__(self, name: str, tree_factory: Callable[[], Any],
                 scheme: str = "3grams", dict_limit: int = 256) -> None:
        # Deterministic dictionary: trained once on a fixed email
        # sample (HOPE encoders are complete, so they encode arbitrary
        # byte keys regardless of the training sample).
        self._encoder = HopeEncoder.from_sample(
            scheme, email_keys(256, seed=97), dict_limit=dict_limit
        )
        self._tree_factory = tree_factory
        super().__init__(name)

    def reset(self) -> None:
        self.index = HopeIndex(self._tree_factory, self._encoder)
        #: raw key -> encoded key, for every key the tree itself holds.
        self._enc_of: dict[bytes, bytes] = {}
        #: encoded key -> raw owner.
        self._owner: dict[bytes, bytes] = {}
        #: raw key -> value, for keys whose encoding collided.
        self._shadow: dict[bytes, Any] = {}

    def apply(self, op: Op) -> Any:
        if op.op == "insert":
            if op.key in self._enc_of or op.key in self._shadow:
                return False
            enc = self._encoder.encode(op.key)
            if enc in self._owner:  # padding collision with another raw key
                self._shadow[op.key] = op.value
                return True
            ok = self.index.insert(op.key, op.value)
            if ok:
                self._enc_of[op.key] = enc
                self._owner[enc] = op.key
            return ok
        if op.op == "update":
            if op.key in self._shadow:
                self._shadow[op.key] = op.value
                return True
            if op.key not in self._enc_of:
                return False
            return self.index.update(op.key, op.value)
        if op.op == "put_many":
            # Upsert pair-by-pair through the same collision
            # bookkeeping as insert/update (batch order = last wins).
            for k, v in zip(op.keys, op.values):
                if k in self._shadow:
                    self._shadow[k] = v
                elif k in self._enc_of:
                    self.index.update(k, v)
                else:
                    enc = self._encoder.encode(k)
                    if enc in self._owner:  # padding collision
                        self._shadow[k] = v
                    elif self.index.insert(k, v):
                        self._enc_of[k] = enc
                        self._owner[enc] = k
            return None
        if op.op == "delete":
            if op.key in self._shadow:
                del self._shadow[op.key]
                return True
            if op.key not in self._enc_of:
                return False
            ok = self.index.delete(op.key)
            if ok:
                del self._owner[self._enc_of.pop(op.key)]
            return ok
        if op.op == "get":
            if op.key in self._shadow:
                return self._shadow[op.key]
            if op.key not in self._enc_of:
                return None
            return self.index.get(op.key)
        if op.op == "get_many":
            # Shadowed / absent keys are answered from the collision
            # bookkeeping; the rest go down as one encoded batch.
            out: list[Any] = [None] * len(op.keys)
            batch_idx: list[int] = []
            for j, k in enumerate(op.keys):
                if k in self._shadow:
                    out[j] = self._shadow[k]
                elif k in self._enc_of:
                    batch_idx.append(j)
            if batch_idx:
                values = self.index.get_many([op.keys[j] for j in batch_idx])
                for j, v in zip(batch_idx, values):
                    out[j] = v
            return out
        if op.op == "contains":
            if op.key in self._shadow:
                return True
            return op.key in self.index
        if op.op == "len":
            return len(self.index) + len(self._shadow)
        if op.op in ("lower_bound", "scan", "range", "count", "items"):
            if self._shadow:
                return SKIPPED  # encoded order is incomplete under collisions
            # HopeIndex encodes bounds itself; returned keys are encoded,
            # so range comparisons below use the encoded high bound.
            if op.op == "lower_bound":
                return _bounded_pairs(self.index.lower_bound(op.key), op.count)
            if op.op == "scan":
                return self.index.scan(op.key, op.count)
            if op.op == "items":
                return list(self.index.items())
            enc_high = self._encoder.encode(op.high)
            enc_low = self._encoder.encode(op.key)
            # A query bound whose encoding collides with a stored key of
            # a *different* raw key makes the encoded range ambiguous.
            for enc_bound, raw_bound in ((enc_low, op.key), (enc_high, op.high)):
                if self._owner.get(enc_bound, raw_bound) != raw_bound:
                    return SKIPPED
            if op.op == "range":
                first = next(iter(self.index.lower_bound(op.key)), None)
                return first is not None and first[0] < enc_high
            n = 0
            for enc_k, _ in self.index.lower_bound(op.key):
                if enc_k >= enc_high or n >= COUNT_CLAMP:
                    break
                n += 1
            return n
        if op.op in ("merge", "serialize"):
            return SKIPPED
        raise ValueError(f"unknown op {op.op!r}")


class LsmAdapter(Adapter):
    """The durable LSM engine under the common op vocabulary.

    Runs against an in-memory fault-model filesystem (``MemFS``) with a
    deliberately tiny memtable/level configuration so a fuzz sequence
    of a few hundred ops crosses flushes, WAL rotations, and
    compactions.  The engine keeps no live-key count (tombstones hide
    it), so a ``_present`` set mirrors membership for the insert/
    update/delete return contract and ``len``.  ``merge`` forces a
    memtable flush; ``serialize`` closes the engine and recovers it
    from the filesystem — every read after it runs against recovered
    state, so a WAL/manifest/SSTable round-trip bug surfaces as a
    differential failure.

    With ``background=True`` the same op stream drives the same freeze /
    flush / compaction lifecycle with the engine's threads running it:
    answers must still match the oracle bit-for-bit no matter where the
    flusher and compactor happen to be, because every read pins a
    consistent view.  ``merge`` then waits for the queue to drain and
    ``serialize`` joins the threads before recovering.
    """

    def __init__(
        self, name: str = "lsm", filter_factory=None, background: bool = False
    ) -> None:
        self._filter_factory = filter_factory
        self._background = background
        self._generation = 0
        super().__init__(name)

    def reset(self) -> None:
        from ..lsm import LSMTree
        from .faultfs import MemFS

        self._fs = MemFS()
        self._generation += 1
        self._path = f"lsm-fuzz-{self._generation}"
        self._config = dict(
            memtable_entries=16,
            sstable_entries=64,
            block_entries=8,
            level0_limit=2,
            block_cache_blocks=32,
            wal_sync_every=4,
            filter_factory=self._filter_factory,
            background=self._background,
        )
        self.index = LSMTree.open(self._path, fs=self._fs, **self._config)
        self._present: set[bytes] = set()

    def close(self) -> None:
        self.index.close()

    def apply(self, op: Op) -> Any:
        db = self.index
        if op.op == "insert":
            if op.key in self._present:
                return False
            db.put(op.key, op.value)
            self._present.add(op.key)
            return True
        if op.op == "update":
            if op.key not in self._present:
                return False
            db.put(op.key, op.value)
            return True
        if op.op == "delete":
            if op.key not in self._present:
                return False
            db.delete(op.key)
            self._present.discard(op.key)
            return True
        if op.op == "put_many":
            # One group-committed batch through the WAL and one
            # vectorized memtable apply (the gapped write path).
            db.put_many(list(zip(op.keys, op.values)))
            self._present.update(op.keys)
            return None
        if op.op == "get":
            return db.get(op.key)
        if op.op == "get_many":
            return db.get_many(op.keys)
        if op.op == "contains":
            return db.get(op.key) is not None
        if op.op == "lower_bound":
            return db.scan(op.key, op.count)
        if op.op == "scan":
            return db.scan(op.key, op.count)
        if op.op == "range":
            # The bounded seek: the cursor may stop at ``high`` without
            # fetching a block (``high`` is inclusive there, exclusive
            # in the op vocabulary).
            first = db.seek(op.key, op.high)
            return first is not None and first[0] < op.high
        if op.op == "count":
            hits = db.scan(op.key, COUNT_CLAMP)
            return sum(1 for k, _ in hits if k < op.high)
        if op.op == "len":
            return len(self._present)
        if op.op == "items":
            return db.scan(b"", len(self._present) + 1)
        if op.op == "merge":
            db.flush_memtable()
            return None
        if op.op == "serialize":
            from ..lsm import LSMTree

            db.close()
            self.index = LSMTree.open(self._path, fs=self._fs, **self._config)
            return None
        raise ValueError(f"unknown op {op.op!r}")


class ServerAdapter(Adapter):
    """The sharded KV server driven over a loopback client/server pair.

    Every op crosses the real stack: wire protocol framing, the asyncio
    front-end, hash sharding, the per-shard worker queues, and finally
    the durable engines (each shard on its own ``MemFS``).  ``merge``
    maps to a SYNC request (flush/commit is the server's concern);
    ``serialize`` is a full graceful drain — stop the server, restart
    it over the *same* in-memory filesystems, reconnect — so recovery
    of every shard plus the rebind handshake is exercised mid-sequence.
    ``get_many`` travels as one BATCH_GET, covering the scatter/gather
    and reassembly path.
    """

    def __init__(self, name: str = "server", n_shards: int = 2) -> None:
        self._n_shards = n_shards
        self._runner = None
        self._client = None
        super().__init__(name)

    def _teardown(self) -> None:
        if self._client is not None:
            try:
                self._client.close()
            except Exception:
                pass
            self._client = None
        if self._runner is not None:
            self._runner.stop()
            self._runner = None

    close = _teardown

    def _start(self) -> None:
        from ..server import KVClient, KVServer, ServerThread

        shard_fss = self._fss
        server = KVServer(
            "server-fuzz",
            n_shards=self._n_shards,
            fs=lambda i: shard_fss[i],
            engine_config=self._config,
        )
        self._runner = ServerThread(server).start()
        self._client = KVClient(server.host, server.port)

    def reset(self) -> None:
        from .faultfs import MemFS

        self._teardown()
        self._fss = [MemFS() for _ in range(self._n_shards)]
        self._config = dict(
            memtable_entries=16,
            sstable_entries=64,
            block_entries=8,
            level0_limit=2,
            block_cache_blocks=32,
            wal_sync_every=4,
        )
        self._start()
        self._present: set[bytes] = set()

    def apply(self, op: Op) -> Any:
        client = self._client
        if op.op == "insert":
            if op.key in self._present:
                return False
            client.put(op.key, op.value)
            self._present.add(op.key)
            return True
        if op.op == "update":
            if op.key not in self._present:
                return False
            client.put(op.key, op.value)
            return True
        if op.op == "delete":
            if op.key not in self._present:
                return False
            client.delete(op.key)
            self._present.discard(op.key)
            return True
        if op.op == "put_many":
            # The wire protocol has no batch-put frame; the batch still
            # lands pair-by-pair in op order (last wins per key).
            for k, v in zip(op.keys, op.values):
                client.put(k, v)
            self._present.update(op.keys)
            return None
        if op.op == "get":
            return client.get(op.key)
        if op.op == "get_many":
            return client.get_many(op.keys)
        if op.op == "contains":
            return client.get(op.key) is not None
        if op.op in ("lower_bound", "scan"):
            return client.scan(op.key, op.count)
        if op.op == "range":
            hits = client.scan(op.key, 1)
            return bool(hits) and hits[0][0] < op.high
        if op.op == "count":
            hits = client.scan(op.key, COUNT_CLAMP)
            return sum(1 for k, _ in hits if k < op.high)
        if op.op == "len":
            return len(self._present)
        if op.op == "items":
            return client.scan(b"", len(self._present) + 1)
        if op.op == "merge":
            client.sync()
            return None
        if op.op == "serialize":
            # Graceful drain, then recover every shard from its MemFS.
            self._teardown()
            self._start()
            return None
        raise ValueError(f"unknown op {op.op!r}")


class ClusterAdapter(Adapter):
    """A full replication group (primary + follower) behind the
    cluster client, checked differentially against the oracle.

    Every write crosses the primary's serving stack *and* the WAL
    shipping path (the ack waits for the follower's durable apply);
    every point read goes to the follower as a ``GET_AT`` gated on the
    session's causal token, so read-your-writes is checked on every
    single ``get`` the fuzzer issues.  ``serialize`` is a cluster-wide
    graceful drain: stop both nodes (the primary drains its
    replication link first), then bring the same group back up over
    the surviving ``MemFS`` bytes — follower recovery, the watermark
    handshake, and the resume-from-floor path all run mid-sequence.
    """

    def __init__(self, name: str = "cluster", n_shards: int = 2) -> None:
        self._n_shards = n_shards
        self._cluster = None
        self._client = None
        super().__init__(name)

    def _teardown(self) -> None:
        if self._client is not None:
            try:
                self._client.close()
            except Exception:
                pass
            self._client = None
        if self._cluster is not None:
            self._cluster.stop()
            self._cluster = None

    close = _teardown

    def _start(self) -> None:
        from ..cluster import ClusterClient, build_local_cluster

        fss = self._fss
        self._cluster = build_local_cluster(
            "cluster-fuzz",
            n_groups=1,
            followers_per_group=1,
            n_shards=self._n_shards,
            fs_for=lambda node, shard: fss[(node, shard)],
            engine_config=self._config,
        ).start()
        self._client = ClusterClient(self._cluster.topology())

    def reset(self) -> None:
        from .faultfs import MemFS

        self._teardown()
        self._fss = {
            (f"g0-n{n}", s): MemFS()
            for n in range(2)
            for s in range(self._n_shards)
        }
        self._config = dict(
            memtable_entries=16,
            sstable_entries=64,
            block_entries=8,
            level0_limit=2,
            block_cache_blocks=32,
            wal_sync_every=4,
        )
        self._start()
        self._present: set[bytes] = set()

    def apply(self, op: Op) -> Any:
        client = self._client
        if op.op == "insert":
            if op.key in self._present:
                return False
            client.put(op.key, op.value)
            self._present.add(op.key)
            return True
        if op.op == "update":
            if op.key not in self._present:
                return False
            client.put(op.key, op.value)
            return True
        if op.op == "delete":
            if op.key not in self._present:
                return False
            client.delete(op.key)
            self._present.discard(op.key)
            return True
        if op.op == "put_many":
            for k, v in zip(op.keys, op.values):
                client.put(k, v)
            self._present.update(op.keys)
            return None
        if op.op == "get":
            return client.get(op.key)
        if op.op == "get_many":
            return client.get_many(op.keys)
        if op.op == "contains":
            return client.get(op.key) is not None
        if op.op in ("lower_bound", "scan"):
            return client.scan(op.key, op.count)
        if op.op == "range":
            hits = client.scan(op.key, 1)
            return bool(hits) and hits[0][0] < op.high
        if op.op == "count":
            hits = client.scan(op.key, COUNT_CLAMP)
            return sum(1 for k, _ in hits if k < op.high)
        if op.op == "len":
            return len(self._present)
        if op.op == "items":
            return client.scan(b"", len(self._present) + 1)
        if op.op == "merge":
            client.sync()
            return None
        if op.op == "serialize":
            # Drain the whole group, then recover it from the MemFSes.
            self._teardown()
            self._start()
            return None
        raise ValueError(f"unknown op {op.op!r}")


# -- registry ----------------------------------------------------------------


def _surf_builder(suffix_type: str, **kw) -> Callable[[list[bytes]], SuRF]:
    return lambda keys: SuRF(keys, suffix_type=suffix_type, **kw)


def _lsm_surf_filter(keys: Sequence[bytes]) -> SuRF:
    """Per-SSTable SuRF for the ``lsm_surf`` adapter (real-bit suffixes
    exercise the truncated-prefix seek path)."""
    return SuRF(sorted(keys), suffix_type="real", real_bits=4)


def all_structures() -> dict[str, Callable[[], Adapter]]:
    """Every structure the differential executor can drive."""
    return {
        # dynamic trees (Chapter 2 baselines + HOPE-study extras)
        "btree": lambda: DynamicAdapter("btree", BPlusTree),
        "skiplist": lambda: DynamicAdapter("skiplist", PagedSkipList),
        "art": lambda: DynamicAdapter("art", ART),
        "masstree": lambda: DynamicAdapter("masstree", Masstree),
        "prefix_btree": lambda: DynamicAdapter("prefix_btree", PrefixBPlusTree),
        "hot": lambda: DynamicAdapter("hot", HOTrie),
        "ttree": lambda: DynamicAdapter("ttree", TTree),
        # gapped batch-insert tree (tiny leaves force splits/rebalances)
        "gapped": lambda: GappedAdapter(
            "gapped", lambda: GappedBPlusTree(leaf_capacity=16)
        ),
        # D-to-S compact structures
        "compact_btree": lambda: StaticAdapter("compact_btree", CompactBPlusTree),
        "compact_skiplist": lambda: StaticAdapter("compact_skiplist", CompactSkipList),
        "compact_art": lambda: StaticAdapter("compact_art", CompactART),
        "compact_masstree": lambda: StaticAdapter("compact_masstree", CompactMasstree),
        "compressed_btree": lambda: StaticAdapter("compressed_btree", CompressedBPlusTree),
        # succinct trie
        "fst": lambda: FstAdapter("fst"),
        # filters (one-sided comparison)
        "surf_base": lambda: FilterAdapter(
            "surf_base", _surf_builder("none"), supports_count=True
        ),
        "surf_hash": lambda: FilterAdapter(
            "surf_hash", _surf_builder("hash", hash_bits=8), supports_count=True
        ),
        "surf_real": lambda: FilterAdapter(
            "surf_real", _surf_builder("real", real_bits=8), supports_count=True
        ),
        "bloom": lambda: FilterAdapter(
            "bloom", lambda keys: BloomFilter(keys, bits_per_key=10)
        ),
        "prefix_bloom": lambda: FilterAdapter(
            "prefix_bloom", lambda keys: PrefixBloomFilter(keys, prefix_len=4)
        ),
        # hybrid dual-stage indexes
        "hybrid_btree": lambda: DynamicAdapter(
            "hybrid_btree", lambda: hybrid_btree(min_merge_size=64)
        ),
        "hybrid_skiplist": lambda: DynamicAdapter(
            "hybrid_skiplist", lambda: hybrid_skiplist(min_merge_size=64)
        ),
        "hybrid_art": lambda: DynamicAdapter(
            "hybrid_art", lambda: hybrid_art(min_merge_size=64)
        ),
        "hybrid_masstree": lambda: DynamicAdapter(
            "hybrid_masstree", lambda: hybrid_masstree(min_merge_size=64)
        ),
        "hybrid_compressed_btree": lambda: DynamicAdapter(
            "hybrid_compressed_btree",
            lambda: hybrid_compressed_btree(min_merge_size=64),
        ),
        "hybrid_gapped": lambda: DynamicAdapter(
            "hybrid_gapped", lambda: hybrid_gapped(min_merge_size=64)
        ),
        # HOPE-wrapped trees
        "hope_btree": lambda: HopeAdapter("hope_btree", BPlusTree),
        "hope_art": lambda: HopeAdapter("hope_art", ART, scheme="single"),
        # durable LSM engine (WAL + manifest + on-disk SSTables on MemFS)
        "lsm": lambda: LsmAdapter("lsm"),
        "lsm_bg": lambda: LsmAdapter("lsm_bg", background=True),
        "lsm_surf": lambda: LsmAdapter(
            "lsm_surf",
            filter_factory=lambda keys: _lsm_surf_filter(keys),
        ),
        # the sharded KV server, loopback TCP through the real protocol
        "server": lambda: ServerAdapter("server"),
        # a replication group (primary + follower, follower reads)
        "cluster": lambda: ClusterAdapter("cluster"),
    }


def make_adapter(name: str) -> Adapter:
    registry = all_structures()
    if name not in registry:
        raise KeyError(
            f"unknown structure {name!r}; choose from {sorted(registry)}"
        )
    return registry[name]()
