"""Concurrency torture: readers race a writer over the background LSM.

The single-threaded differential fuzzer (:mod:`.differential`) proves
the engine answers match the oracle when ops are applied one at a
time.  This module attacks the part that harness cannot see: a
``background=True`` engine whose flusher and compactor rewrite levels
*while* reads are in flight.

One writer thread applies a deterministic write-only op sequence —
every op allocates exactly one sequence number, so **op ``i`` commits
at sequence ``i``** (1-based).  Reader threads run concurrently and
check two kinds of invariants:

* **Snapshot consistency** (the strong oracle): a reader pins
  ``engine.snapshot()`` at some sequence ``S`` and requires every read
  through it — full scan, point gets, batched gets, seeks, range
  counts — to equal a model built by replaying exactly ``ops[:S]``.
  Because the snapshot must *replay to the oracle state at pin time*,
  any torn read (a flush or compaction swapping state mid-scan), lost
  update, or premature table unlink is an immediate failure.

* **Raw-read sanity** (the loose oracle): non-snapshot ``get``/
  ``seek``/``scan`` calls race the writer, so their answers are only
  required to be *plausible*: a returned value must be one the op
  sequence actually wrote to that key, and scans must return strictly
  ascending keys.  This catches cross-key corruption and invented
  values without over-constraining legal interleavings.

When a snapshot check fails, the failure is bridged back into the
deterministic differential harness: the write prefix ``ops[:S]`` is
converted to standard :class:`~.ops.Op` records, probes for the
mismatched keys plus a full ``items`` comparison are appended, and the
sequence is replayed through the ``lsm_bg`` adapter with ddmin
shrinking — a state bug (as opposed to a pure race) comes back as a
minimal repro script, same as any other fuzz failure.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .ops import Op, key_universe

#: One torture write op: ("put", key, value) or ("delete", key, None).
WriteOp = tuple[str, bytes, Any]

#: Tiny engine geometry so a short run crosses many freezes, flushes,
#: and compactions (mirrors LsmAdapter's inline config, plus the
#: background lifecycle knobs).
TORTURE_CONFIG = dict(
    memtable_entries=16,
    sstable_entries=64,
    block_entries=8,
    level0_limit=2,
    block_cache_blocks=16,
    wal_sync_every=4,
    background=True,
    max_immutables=2,
    slowdown_sleep=0.0002,
)

#: Snapshot checks each reader makes after the writer's last op.
READ_TAIL_CHECKS = 48


def generate_write_ops(
    seed: int,
    n_ops: int,
    keyspace: str = "int64",
    universe_size: int | None = None,
    delete_fraction: float = 0.25,
) -> list[WriteOp]:
    """A deterministic write-only sequence; op ``i`` == sequence ``i+1``.

    Values encode their own op index (``i + 1``), so any value the
    engine ever returns names the exact write that produced it — the
    raw-read checks lean on that.
    """
    rng = random.Random(seed ^ 0x70871)
    if universe_size is None:
        universe_size = max(32, min(512, n_ops // 3))
    universe = key_universe(keyspace, universe_size, seed)
    ops: list[WriteOp] = []
    for i in range(n_ops):
        key = universe[rng.randrange(len(universe))]
        if rng.random() < delete_fraction:
            ops.append(("delete", key, None))
        else:
            ops.append(("put", key, i + 1))
    return ops


def model_after(ops: Sequence[WriteOp], k: int) -> dict[bytes, Any]:
    """The exact key→value state after the first ``k`` ops."""
    model: dict[bytes, Any] = {}
    for kind, key, value in ops[:k]:
        if kind == "put":
            model[key] = value
        else:
            model.pop(key, None)
    return model


@dataclass
class TortureFailure:
    """One invariant violation observed by a reader thread."""

    kind: str  # "snapshot" | "raw" | "exception"
    seq: int  # snapshot sequence (snapshot kind) or applied floor (raw)
    check: str  # which read diverged (scan/get/seek/count/...)
    expected: Any
    got: Any

    def describe(self) -> str:
        return (
            f"{self.kind} divergence at seq {self.seq} ({self.check})\n"
            f"  expected: {self.expected!r}\n  got:      {self.got!r}"
        )


@dataclass
class TortureResult:
    seed: int
    n_ops: int
    readers: int
    applied: int = 0
    snapshot_checks: int = 0
    raw_checks: int = 0
    elapsed_seconds: float = 0.0
    engine_info: dict = field(default_factory=dict)
    failure: TortureFailure | None = None
    shrunk_ops: list[Op] | None = None
    replay_deterministic: bool | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


class _ReaderState:
    """Per-reader incremental oracle: replays forward as seq grows."""

    def __init__(self, ops: Sequence[WriteOp]) -> None:
        self._ops = ops
        self._model: dict[bytes, Any] = {}
        self._k = 0

    def at(self, seq: int) -> dict[bytes, Any]:
        """Model after ``seq`` ops.  Sequences only grow, so this is an
        O(delta) forward replay, never a restart."""
        if seq < self._k:  # snapshot older than cache: rebuild (rare)
            self._model, self._k = {}, 0
        for kind, key, value in self._ops[self._k : seq]:
            if kind == "put":
                self._model[key] = value
            else:
                self._model.pop(key, None)
        self._k = seq
        return self._model


class _Torture:
    def __init__(
        self,
        seed: int,
        ops: list[WriteOp],
        readers: int,
        engine_config: dict | None,
    ) -> None:
        from ..lsm import LSMTree
        from .faultfs import MemFS

        self.seed = seed
        self.ops = ops
        self.n_readers = readers
        self.fs = MemFS()
        config = dict(TORTURE_CONFIG)
        if engine_config:
            config.update(engine_config)
        self.engine = LSMTree.open("torture-db", fs=self.fs, **config)
        # Every value each key ever takes (plus "absent") — the loose
        # envelope raw reads are checked against.
        self.ever: dict[bytes, set] = {}
        for kind, key, value in ops:
            self.ever.setdefault(key, set())
            if kind == "put":
                self.ever[key].add(value)
        self.keys = sorted(self.ever)
        self.applied = 0  # monotone: ops[:applied] fully acked
        self.stop = threading.Event()
        self.failures: list[TortureFailure] = []
        self.lock = threading.Lock()
        self.snapshot_checks = 0
        self.raw_checks = 0

    # -- failure funnel ----------------------------------------------------

    def _fail(self, kind: str, seq: int, check: str, expected, got) -> None:
        with self.lock:
            self.failures.append(TortureFailure(kind, seq, check, expected, got))
        self.stop.set()

    # -- writer ------------------------------------------------------------

    def _writer(self) -> None:
        try:
            for i, (kind, key, value) in enumerate(self.ops):
                if self.stop.is_set():
                    return
                if kind == "put":
                    self.engine.put(key, value)
                else:
                    self.engine.delete(key)
                self.applied = i + 1
        except Exception as exc:  # engine/WAL error is a hard failure
            self._fail("exception", self.applied, "writer", "no exception", repr(exc))
        finally:
            self.stop.set()

    # -- readers -----------------------------------------------------------

    def _reader(self, idx: int) -> None:
        rng = random.Random((self.seed << 8) ^ (0xB0B + idx))
        oracle = _ReaderState(self.ops)
        try:
            while not self.stop.is_set():
                if rng.random() < 0.6:
                    self._snapshot_check(rng, oracle)
                else:
                    self._raw_check(rng)
            # Read-only tail at the full sequence: every run ends with
            # whole-state snapshot comparisons, and with the writer done
            # only the readers' own wasted L0 probes can ask for a
            # compaction — the read-driven trigger, under pinned snapshots.
            for _ in range(READ_TAIL_CHECKS):
                if self.failures:
                    break
                self._snapshot_check(rng, oracle, hold=0.0)
        except Exception as exc:
            self._fail("exception", self.applied, f"reader-{idx}", "no exception",
                       repr(exc))

    def _snapshot_check(self, rng: random.Random, oracle: _ReaderState,
                        hold: float | None = None) -> None:
        with self.engine.snapshot() as snap:
            seq = snap.seq
            # Hold the pin across a beat so flush/compaction commit
            # underneath — the refcount protocol is what keeps the
            # tables this snapshot reads alive.
            if hold is None:
                hold = rng.random() * 0.002
            if hold:
                time.sleep(hold)
            model = oracle.at(seq)
            expected_items = sorted(model.items())
            got = snap.scan(b"", len(model) + 1)
            if got != expected_items:
                self._fail("snapshot", seq, "scan", expected_items, got)
                return
            sample = [self.keys[rng.randrange(len(self.keys))] for _ in range(4)]
            for key in sample:
                v = snap.get(key)
                if v != model.get(key):
                    self._fail("snapshot", seq, f"get {key!r}", model.get(key), v)
                    return
            batch = snap.get_many(sample)
            if batch != [model.get(k) for k in sample]:
                self._fail("snapshot", seq, f"get_many {sample!r}",
                           [model.get(k) for k in sample], batch)
                return
            low = sample[0]
            want = next(((k, v) for k, v in expected_items if k >= low), None)
            if snap.seek(low) != want:
                self._fail("snapshot", seq, f"seek {low!r}", want, snap.seek(low))
                return
            a, b = sorted((sample[1], sample[2]))
            # LSM range count is approximate by contract (stale versions
            # across runs may be double-counted), but it must never
            # undercount the live keys a pinned snapshot can see.
            want_n = sum(1 for k, _ in expected_items if a <= k < b)
            got_n = snap.count(a, b)
            if got_n < want_n:
                self._fail("snapshot", seq, f"count [{a!r},{b!r})",
                           f">= {want_n}", got_n)
                return
        with self.lock:
            self.snapshot_checks += 1

    def _raw_check(self, rng: random.Random) -> None:
        key = self.keys[rng.randrange(len(self.keys))]
        v = self.engine.get(key)
        if v is not None and v not in self.ever[key]:
            self._fail("raw", self.applied, f"get {key!r}",
                       f"None or one of {sorted(self.ever[key])!r}", v)
            return
        hits = self.engine.scan(key, 1 + rng.randrange(8))
        prev = None
        for k, val in hits:
            if k < key or (prev is not None and k <= prev):
                self._fail("raw", self.applied, f"scan {key!r}",
                           "strictly ascending keys >= low", [k for k, _ in hits])
                return
            if val not in self.ever.get(k, ()):
                self._fail("raw", self.applied, f"scan {key!r} hit {k!r}",
                           f"one of {sorted(self.ever.get(k, ()))!r}", val)
                return
            prev = k
        with self.lock:
            self.raw_checks += 1

    # -- run ---------------------------------------------------------------

    def run(self) -> TortureResult:
        started = time.perf_counter()
        writer = threading.Thread(target=self._writer, name="torture-writer")
        readers = [
            threading.Thread(target=self._reader, args=(i,), name=f"torture-reader-{i}")
            for i in range(self.n_readers)
        ]
        writer.start()
        for t in readers:
            t.start()
        writer.join()
        for t in readers:
            t.join()
        result = TortureResult(
            seed=self.seed,
            n_ops=len(self.ops),
            readers=self.n_readers,
            applied=self.applied,
            snapshot_checks=self.snapshot_checks,
            raw_checks=self.raw_checks,
            failure=self.failures[0] if self.failures else None,
        )
        try:
            if result.ok:
                # Quiesce and take one last full-state reading through a
                # recovered engine: close + reopen over the same fs, then
                # compare against the complete model (durability of the
                # whole torture run, not just in-memory agreement).
                self.engine.wait_idle()
                result.engine_info = self.engine.info()
                self.engine.close()
                from ..lsm import LSMTree

                reopened = LSMTree.open("torture-db", fs=self.fs, **{
                    **TORTURE_CONFIG, "background": False})
                try:
                    model = model_after(self.ops, len(self.ops))
                    got = reopened.scan(b"", len(model) + 1)
                    if got != sorted(model.items()):
                        result.failure = TortureFailure(
                            "snapshot", len(self.ops), "post-recovery scan",
                            sorted(model.items()), got)
                finally:
                    reopened.close()
            else:
                result.engine_info = self.engine.info()
                self.engine.close()
        except Exception as exc:
            if result.failure is None:
                result.failure = TortureFailure(
                    "exception", self.applied, "shutdown", "clean close", repr(exc))
        result.elapsed_seconds = time.perf_counter() - started
        return result


def repro_ops_for(
    write_ops: Sequence[WriteOp], seq: int, probe_keys: Sequence[bytes] = ()
) -> list[Op]:
    """Convert a torture prefix into a differential-harness sequence.

    The adapter vocabulary distinguishes insert/update and skips
    deletes of absent keys, so membership is tracked while translating;
    the resulting sequence drives the engine through the same key/value
    history.  Probes for the diverged keys plus a full ``items``
    comparison are appended so a deterministic state bug fails the
    replay at the same place the torture run did.
    """
    present: set[bytes] = set()
    out: list[Op] = []
    for kind, key, value in write_ops[:seq]:
        if kind == "put":
            out.append(Op("update" if key in present else "insert",
                          key=key, value=value))
            present.add(key)
        elif key in present:
            out.append(Op("delete", key=key))
            present.discard(key)
    for key in probe_keys:
        out.append(Op("get", key=key))
    out.append(Op("items"))
    return out


def run_torture(
    seed: int = 0,
    n_ops: int = 1500,
    readers: int = 3,
    keyspace: str = "int64",
    engine_config: dict | None = None,
    shrink_on_failure: bool = True,
    adapter_factory: Callable | None = None,
) -> TortureResult:
    """Run one seeded torture round; bridge failures to ddmin shrinking.

    If a snapshot invariant fails, the offending prefix is replayed
    deterministically through the ``lsm_bg`` differential adapter.  A
    reproducing replay is shrunk with ddmin (``result.shrunk_ops``,
    ``replay_deterministic=True``); a passing replay marks the failure
    as interleaving-only (``replay_deterministic=False``) and keeps the
    full prefix.
    """
    ops = generate_write_ops(seed, n_ops, keyspace=keyspace)
    result = _Torture(seed, ops, readers, engine_config).run()
    if result.failure is not None and result.failure.kind != "exception":
        from .adapters import make_adapter
        from .differential import fuzz_structure

        factory = adapter_factory or (lambda: make_adapter("lsm_bg"))
        seq = min(max(result.failure.seq, 1), len(ops))
        probe = [k for k in _probe_keys(result.failure) if isinstance(k, bytes)]
        repro = repro_ops_for(ops, seq, probe)
        fuzz = fuzz_structure("lsm_bg", repro, factory,
                              shrink_on_failure=shrink_on_failure)
        result.replay_deterministic = not fuzz.ok
        if not fuzz.ok:
            result.shrunk_ops = fuzz.shrunk_ops or repro
        else:
            result.shrunk_ops = repro
    return result


def _probe_keys(failure: TortureFailure) -> list:
    """Best-effort keys worth probing in the deterministic replay."""
    text = failure.check
    # check strings embed reprs like b'...'; cheapest is to re-parse
    # nothing and just return [] when the check wasn't key-specific.
    for prefix in ("get ", "seek ", "get_many "):
        if text.startswith(prefix):
            try:
                parsed = eval(text[len(prefix):], {"__builtins__": {}}, {})  # noqa: S307
            except Exception:
                return []
            if isinstance(parsed, bytes):
                return [parsed]
            if isinstance(parsed, (list, tuple)):
                return [k for k in parsed if isinstance(k, bytes)]
    return []
