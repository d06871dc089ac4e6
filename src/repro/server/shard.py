"""Per-shard single-writer workers: queueing, group commit.

Each shard owns one durable :class:`~repro.lsm.engine.LSMTree` and one
worker thread — the only thread that ever *writes* to the engine, which
gives single-writer semantics without a server-side write lock.  Point
reads do not come here: the server answers them on the event-loop
thread through the engine's pinned, lock-free read path (see
:mod:`repro.server.server`).  Requests arrive through a *bounded*
queue; a full queue is reported to the caller synchronously (the
server answers ``OVERLOADED``) instead of buffering without limit.

The worker drains its queue in bursts, in arrival order, and coalesces
a run of adjacent writes into **one** :meth:`LSMTree.write_batch` call
— a single WAL group commit fsync acknowledges the whole run.  SCAN,
COUNT, SYNC and the STATS ``info`` probe run one at a time between
write runs, so each observes every write queued before it.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable

from .stats import ServerStats

#: Largest number of requests drained in one burst (and of keys the
#: server hands to one inline ``get_many``).  Bounds the latency a
#: first-in request can accrue while a batch is packed.
MAX_BURST = 256

_SHUTDOWN = object()


class ShardDown(RuntimeError):
    """The shard's worker thread is dead; the request was refused
    immediately instead of queueing forever."""


class ShardRequest:
    """One queued engine operation plus its completion plumbing.

    ``op`` is one of ``write`` (args: list of ``(key, value)`` with
    TOMBSTONE for deletes), ``scan`` (args: ``(low, count)``), ``count``
    (args: ``(low, high)``), ``sync`` or ``info``.  The result (or
    exception) is delivered to ``future`` on ``loop`` via
    ``call_soon_threadsafe``.
    """

    __slots__ = ("op", "args", "future", "loop", "enqueued_at")

    def __init__(self, op: str, args: Any, future: Any, loop: Any) -> None:
        self.op = op
        self.args = args
        self.future = future
        self.loop = loop
        self.enqueued_at = time.perf_counter()


class ShardWorker(threading.Thread):
    """The single thread allowed to write to one shard's engine."""

    def __init__(
        self,
        shard_id: int,
        engine: Any,
        stats: ServerStats,
        queue_limit: int = 1024,
        max_burst: int = MAX_BURST,
    ) -> None:
        super().__init__(name=f"shard-{shard_id}", daemon=True)
        self.shard_id = shard_id
        self.engine = engine
        self.stats = stats
        self.queue: queue.Queue = queue.Queue(maxsize=queue_limit)
        self.max_burst = max_burst
        self.closed = threading.Event()
        #: Exception (if any) that killed the worker loop itself;
        #: per-request engine errors are delivered to their futures.
        self.worker_error: BaseException | None = None
        #: Set when the worker loop died abnormally.  A dead shard
        #: refuses new submissions with :class:`ShardDown` instead of
        #: accepting enqueues nothing will ever drain.
        self.dead = False
        #: Set by stop(): the drain sentinel is (about to be) queued,
        #: so new submissions may never be served — the STATS path
        #: falls back to basic liveness info instead of submitting.
        self.stopping = False

    # -- producer side (event-loop thread) ---------------------------------

    def submit(self, request: ShardRequest) -> bool:
        """Enqueue; False means the bounded queue is full (backpressure).

        Raises :class:`ShardDown` when the worker has died — the caller
        answers with an error reply immediately rather than leaving the
        client waiting on a queue no worker drains.
        """
        if self.dead:
            raise ShardDown(self._down_message())
        try:
            self.queue.put_nowait(request)
        except queue.Full:
            return False
        if self.dead:
            # The worker died between the check above and the enqueue;
            # its death-drain may already have passed our request by.
            # Sweep again — failing an already-failed future is a no-op.
            self._drain_dead()
            raise ShardDown(self._down_message())
        self.stats.record_queue_depth(self.shard_id, self.queue.qsize())
        return True

    def _down_message(self) -> str:
        return f"shard {self.shard_id} is down: {self.worker_error!r}"

    def check_readable(self) -> None:
        """Raise :class:`ShardDown` once the worker is dead, draining
        or closed: its engine may be closed under a reader's feet."""
        if self.dead or self.stopping or self.closed.is_set():
            raise ShardDown(self._down_message())

    def stop(self) -> None:
        """Ask the worker to drain everything queued so far, sync the
        engine, close it, and exit.  Blocking put: the worker is still
        consuming, so space always frees up."""
        self.stopping = True
        if self.dead:
            return  # death path already drained and cleaned up
        self.queue.put(_SHUTDOWN)

    # -- consumer side (this thread) ---------------------------------------

    def run(self) -> None:
        burst: list[Any] = []
        try:
            while True:
                burst = [self.queue.get()]
                while len(burst) < self.max_burst:
                    try:
                        burst.append(self.queue.get_nowait())
                    except queue.Empty:
                        break
                if self._process_burst(burst):
                    return
                burst = []
        except BaseException as exc:  # defensive: loop must never leak silently
            self.worker_error = exc
            self.dead = True
            # Fail whatever was mid-burst (already-completed futures
            # ignore a second delivery) and everything still queued,
            # then keep refusing in submit() — clients get an error
            # reply instead of hanging forever.
            down = ShardDown(self._down_message())
            for item in burst:
                if item is not _SHUTDOWN:
                    self._fail(item, down)
            self._drain_dead()
            self._cleanup()

    def _drain_dead(self) -> None:
        """Fail everything queued on a dead shard (idempotent)."""
        down = ShardDown(self._down_message())
        while True:
            try:
                item = self.queue.get_nowait()
            except queue.Empty:
                return
            if item is not _SHUTDOWN:
                self._fail(item, down)

    def _process_burst(self, burst: list[Any]) -> bool:
        """Handle one drained burst; True when shutdown was reached."""
        i = 0
        while i < len(burst):
            item = burst[i]
            if item is _SHUTDOWN:
                # Everything after the sentinel was enqueued during the
                # drain window; refuse it explicitly.
                for late in burst[i + 1 :]:
                    if late is not _SHUTDOWN:
                        self._fail(late, RuntimeError("shard is shut down"))
                self._cleanup()
                return True
            i += 1
            if item.op != "write":
                self._do_single(item)
                continue
            run = [item]
            while i < len(burst) and burst[i] is not _SHUTDOWN and burst[i].op == "write":
                run.append(burst[i])
                i += 1
            self._do_writes(run)
        return False

    def _do_writes(self, run: list[ShardRequest]) -> None:
        entries: list[tuple[bytes, Any]] = []
        for item in run:
            entries.extend(item.args)
        try:
            # One write_batch == one WAL group commit: a single fsync
            # acknowledges every write in the run.
            last_seq = self.engine.write_batch(entries)
        except Exception as exc:
            for item in run:
                self._fail(item, exc)
            return
        # Every request in the run is acknowledged at the run's final
        # sequence number — the batch committed atomically, so that seq
        # is a valid (if conservative) causal token for each of them.
        self._complete_writes(run, last_seq, len(entries))

    def _do_single(self, item: ShardRequest) -> None:
        try:
            if item.op == "scan":
                low, count = item.args
                result: Any = self.engine.scan(low, count)
            elif item.op == "count":
                low, high = item.args
                result = self.engine.count(low, high)
            elif item.op == "sync":
                self.engine.sync()
                result = None
            elif item.op == "info":
                # Engine detail for STATS, answered on the worker thread
                # so it never races the engine.
                result = self.snapshot_info(engine=True)
            else:
                raise ValueError(f"unknown shard op {item.op!r}")
        except Exception as exc:
            self._fail(item, exc)
            return
        self._complete(item, result)

    def _cleanup(self) -> None:
        """Final sync + close; engine errors (e.g. an injected power
        failure froze the filesystem) must not block the drain."""
        try:
            self.engine.sync()
        except Exception:
            pass
        try:
            self.engine.close()
        except Exception:
            pass
        self.closed.set()

    # -- introspection -----------------------------------------------------

    def snapshot_info(self, engine: bool = False) -> dict[str, Any]:
        """Per-shard STATS entry.  ``engine=True`` adds engine counters
        and must only run on the worker thread (via the ``info`` op)."""
        info: dict[str, Any] = {
            "shard": self.shard_id,
            "alive": self.is_alive() and not self.dead,
            "worker_error": repr(self.worker_error) if self.worker_error else None,
            "queue_depth": self.queue.qsize(),
        }
        if engine:
            try:
                info.update(self.engine.info())
            except Exception as exc:
                info["engine_error"] = repr(exc)
        return info

    # -- completion plumbing ----------------------------------------------

    def _complete(self, item: ShardRequest, result: Any) -> None:
        self.stats.record_op(
            f"shard_{item.op}", time.perf_counter() - item.enqueued_at
        )
        self._deliver(item, lambda fut: fut.set_result(result))

    def _complete_writes(
        self, run: list[ShardRequest], seq: Any, batch_size: int
    ) -> None:
        """Deliver a committed write run at ``seq``: its stats under one
        lock acquisition, and ONE loop wakeup per event loop —
        per-future ``call_soon_threadsafe`` costs a cross-thread wakeup
        each, which dominates once runs grow to dozens of requests."""
        now = time.perf_counter()
        self.stats.record_burst(
            [("shard_write", 1, now - item.enqueued_at) for item in run],
            write_batch=batch_size,
        )
        by_loop: dict[Any, list[Any]] = {}
        for item in run:
            by_loop.setdefault(item.loop, []).append(item.future)
        for loop, futures in by_loop.items():
            def apply(futures=futures) -> None:
                for fut in futures:
                    if not fut.done():
                        fut.set_result(seq)

            try:
                loop.call_soon_threadsafe(apply)
            except RuntimeError:
                pass  # event loop already gone (forced teardown)

    def _fail(self, item: ShardRequest, exc: BaseException) -> None:
        self._deliver(item, lambda fut: fut.set_exception(exc))

    def _deliver(self, item: ShardRequest, action: Callable[[Any], None]) -> None:
        def apply() -> None:
            if not item.future.done():
                action(item.future)

        try:
            item.loop.call_soon_threadsafe(apply)
        except RuntimeError:
            pass  # event loop already gone (forced teardown)
