"""The benchmark's own load generator (layer ``loadgen``).

One process, at most two connections/threads.  Two loop shapes over
the operation streams of :mod:`repro.workloads.ycsb`:

* **closed loop** (saturation): every worker sends its next request
  only when the previous one completed, for a fixed time.  Gives
  ``ops_per_s``.  Latency in this loop is just in-flight / throughput
  and is only kept as ``client.rtt_mean_us`` for the Little's-law
  cross-check.
* **paced loop** (open loop with a bounded worker pool): request *i*
  is due at ``t0 + i / rate`` whatever the system does.  A request
  that is already overdue when a worker frees up was held back by the
  system, and its latency is timed from the due time, so a stall is
  charged to every request it delays.  A request a worker slept for is
  timed from the actual send: the sleep overshoot (asyncio rounds
  timers up to 1 ms) is the generator's, not the system's.  Both kinds
  of lateness are kept as ``loadgen.lag_*``.

Every value embeds a fingerprint of its key and a per-key version, and
keys are split across connections so each key has one writer.  A read
is correct when it returns a well-formed value of that key whose
version lies between the last version *acked* before the read was sent
and the last version *sent* when the reply arrived.
"""

from __future__ import annotations

import asyncio
import itertools
import statistics
import struct
import threading
import time
import zlib
from typing import Any, Callable, Iterable, Sequence

from repro.server.client import ServerError

VALUE_SIZE = 100
_HEADER = struct.Struct(">II")  # crc32(key), version
_PAD = b"." * (VALUE_SIZE - _HEADER.size)

#: A phase gives up once this many operations failed: a dead connection
#: fails every request instantly and would otherwise spin to the deadline.
MAX_ERRORS = 1000
#: Extra wall time a paced phase may take to finish requests already due.
PACED_GRACE = 20.0
#: Width of the slices the saturation throughput is the upper decile of.
RATE_WINDOW = 0.5

OP_ERRORS = (ServerError, ConnectionError, OSError, asyncio.TimeoutError)


def window_counts(times: Iterable[float], start: float, elapsed: float, width: float) -> list[int]:
    """How many of ``times`` fall in each ``width`` slice of
    ``[start, start + elapsed)``; a last partial slice is left out."""
    counts = [0] * int(elapsed / width)
    for at in times:
        window = int((at - start) / width)
        if 0 <= window < len(counts):
            counts[window] += 1
    return counts


def upper_decile(counts: Sequence[int]) -> float | None:
    """Upper decile of per-slice counts, or None with fewer than ten
    slices.  What the shared machine takes away — a stolen vCPU, a
    neighbour's burst — only ever lowers a slice, so the upper decile
    stays put until nine slices in ten are disturbed, where the median
    gives way at one in two."""
    if len(counts) < 10:
        return None
    return statistics.quantiles(counts, n=10)[8]


def make_value(key: bytes, version: int) -> bytes:
    return _HEADER.pack(zlib.crc32(key), version) + _PAD


def value_version(key: bytes, value: Any) -> int | None:
    """The version stored in ``value`` if it is a well-formed value of
    ``key``, else None."""
    if not isinstance(value, bytes) or len(value) != VALUE_SIZE:
        return None
    fingerprint, version = _HEADER.unpack_from(value)
    if fingerprint != zlib.crc32(key) or value[_HEADER.size:] != _PAD:
        return None
    return version


def owner_of(key: bytes, n_parts: int) -> int:
    """Which connection owns ``key``.  Low key bits, so the split is
    independent of the server's CRC32 shard routing."""
    return key[-1] % n_parts


def latency_us(samples: Sequence[float], q: float, min_samples: int = 1) -> float | None:
    """Exact q-quantile in microseconds, or None when the sample is too
    small to have ten values beyond it."""
    if len(samples) < min_samples:
        return None
    ordered = sorted(samples)
    return ordered[min(int(len(ordered) * q), len(ordered) - 1)] * 1e6


class Partition:
    """The keys, model and samples of one connection (or thread).

    Only ever touched by its own connection's workers, which run on one
    thread, so it needs no lock.
    """

    def __init__(self, keys: Iterable[bytes]) -> None:
        self.sent: dict[bytes, int] = dict.fromkeys(keys, 0)
        self.acked: dict[bytes, int] = dict(self.sent)
        self.started = 0
        self.completed = 0
        self.wrong = 0
        self.read_lat: list[float] = []
        self.write_lat: list[float] = []
        self.read_at: list[float] = []  # completion times, parallel to read_lat
        self.write_at: list[float] = []
        self.lag: list[float] = []

    def reset(self) -> None:
        """A fresh system holds version 0 of every key again."""
        self.sent = dict.fromkeys(self.sent, 0)
        self.acked = dict(self.sent)

    def start_phase(self) -> None:
        self.started = self.completed = self.wrong = 0
        self.read_lat, self.write_lat, self.lag = [], [], []
        self.read_at, self.write_at = [], []

    @property
    def errors(self) -> int:
        return self.started - self.completed

    def check(self, key: bytes, value: Any, floor: int) -> bool:
        version = value_version(key, value)
        return version is not None and floor <= version <= self.sent[key]

    def next_version(self, key: bytes) -> int:
        version = self.sent[key] + 1
        self.sent[key] = version
        return version

    def read_done(self, key: bytes, value: Any, floor: int, t_ref: float) -> None:
        now = time.perf_counter()
        self.read_at.append(now)
        self.read_lat.append(now - t_ref)
        self.completed += 1
        if not self.check(key, value, floor):
            self.wrong += 1

    def write_done(self, key: bytes, version: int, t_ref: float) -> None:
        now = time.perf_counter()
        self.write_at.append(now)
        self.write_lat.append(now - t_ref)
        self.completed += 1
        if version > self.acked[key]:
            self.acked[key] = version

    def corrupt_one(self) -> None:
        """Self-test: claim a write that was never sent, so the sweep
        (and every read of that key) must be flagged."""
        key = next(iter(self.sent))
        self.sent[key] += 1
        self.acked[key] += 1


class PhaseResult:
    """Totals of one timed phase across all partitions."""

    def __init__(self, parts: Sequence[Partition], started_at: float, elapsed: float,
                 planned: int | None, cpu_seconds: float) -> None:
        self.started_at = started_at
        self.elapsed = elapsed
        self.completed = sum(p.completed for p in parts)
        started = sum(p.started for p in parts)
        #: A paced request that was due but never completed has failed.
        self.attempted = planned if planned is not None else started
        self.failed = self.attempted - self.completed + sum(p.wrong for p in parts)
        self.read_lat = [s for p in parts for s in p.read_lat]
        self.write_lat = [s for p in parts for s in p.write_lat]
        self.read_at = [s for p in parts for s in p.read_at]
        self.write_at = [s for p in parts for s in p.write_at]
        self.lag = [s for p in parts for s in p.lag]
        #: Generator CPU over the phase (this process, all threads).
        self.cpu_seconds = cpu_seconds

    @property
    def rtt_mean_us(self) -> float:
        samples = self.read_lat + self.write_lat
        return statistics.fmean(samples) * 1e6 if samples else 0.0

    def window_counts(self) -> list[int]:
        """Completions per ``RATE_WINDOW`` slice of the phase."""
        return window_counts(itertools.chain(self.read_at, self.write_at),
                             self.started_at, self.elapsed, RATE_WINDOW)

    @property
    def ops_per_s(self) -> float:
        """Upper decile of the completion rate over ``RATE_WINDOW``
        slices of the phase (see :func:`upper_decile`); the plain rate
        when the phase is too short to slice."""
        best = upper_decile(self.window_counts())
        if best is None:
            return self.completed / self.elapsed if self.elapsed > 0 else 0.0
        return best / RATE_WINDOW


# -- asyncio driver (wire_c / wire_a) ---------------------------------------


class AsyncDriver:
    """Pipelined clients on one event loop, ``depth`` workers each."""

    def __init__(self, clients: Sequence[Any], parts: Sequence[Partition],
                 depth: int, tracer: Any = None) -> None:
        self.clients = clients
        self.parts = parts
        self.depth = depth
        self.tracer = tracer

    async def _do(self, client: Any, part: Partition, op: Any, due: float | None) -> None:
        key, tracer = op.key, self.tracer
        part.started += 1
        t_ref = time.perf_counter() if due is None else due
        span = tracer.begin("client." + op.op, part.started) if tracer else None
        try:
            if op.op == "read":
                floor = part.acked[key]
                part.read_done(key, await client.get(key), floor, t_ref)
            else:
                version = part.next_version(key)
                await client.put(key, make_value(key, version))
                part.write_done(key, version, t_ref)
        except OP_ERRORS:
            pass  # counted as started but not completed
        finally:
            if span is not None:
                tracer.end(span)

    async def closed(self, streams: Sequence[Sequence[Any]], seconds: float) -> PhaseResult:
        for part in self.parts:
            part.start_phase()

        async def worker(client: Any, part: Partition, ops: Any, deadline: float) -> None:
            while time.perf_counter() < deadline and part.errors < MAX_ERRORS:
                await self._do(client, part, next(ops), None)

        cpu0 = time.process_time()
        started = time.perf_counter()
        workers = []
        for client, part, stream in zip(self.clients, self.parts, streams):
            ops = itertools.cycle(stream)  # wraps if the system outruns the stream
            workers += [worker(client, part, ops, started + seconds)
                        for _ in range(self.depth)]
        await asyncio.gather(*workers)
        elapsed = time.perf_counter() - started
        return PhaseResult(self.parts, started, elapsed, None, time.process_time() - cpu0)

    async def paced(self, streams: Sequence[Sequence[tuple[int, Any]]], rate: float) -> PhaseResult:
        """``streams[c]`` holds ``(i, op)``: request ``i`` of the whole
        phase, due at ``t0 + i / rate``, owned by connection ``c``."""
        for part in self.parts:
            part.start_phase()
        planned = sum(len(s) for s in streams)

        async def worker(client: Any, part: Partition, ops: Any, t0: float) -> None:
            for i, op in ops:
                due = t0 + i / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                sent = time.perf_counter()
                part.lag.append(max(0.0, sent - due))
                await self._do(client, part, op, due if delay <= 0 else sent)
                if part.errors >= MAX_ERRORS:
                    return

        cpu0 = time.process_time()
        t0 = time.perf_counter() + 0.01
        tasks = []
        for client, part, stream in zip(self.clients, self.parts, streams):
            ops = iter(stream)
            tasks += [asyncio.ensure_future(worker(client, part, ops, t0))
                      for _ in range(self.depth)]
        _done, pending = await asyncio.wait(tasks, timeout=planned / rate + PACED_GRACE)
        elapsed = time.perf_counter() - t0
        for task in pending:
            task.cancel()
        for outcome in await asyncio.gather(*tasks, return_exceptions=True):
            if isinstance(outcome, Exception) and not isinstance(outcome, asyncio.CancelledError):
                raise outcome
        return PhaseResult(self.parts, t0, elapsed, planned, time.process_time() - cpu0)


# -- threaded driver (repl_a) -------------------------------------------------


class ThreadDriver:
    """One blocking client per thread, one request in flight each."""

    def __init__(self, clients: Sequence[Any], parts: Sequence[Partition],
                 tracer: Any = None) -> None:
        self.clients = clients
        self.parts = parts
        self.tracer = tracer

    def _do(self, client: Any, part: Partition, op: Any, due: float | None) -> None:
        key, tracer = op.key, self.tracer
        part.started += 1
        t_ref = time.perf_counter() if due is None else due
        span = tracer.begin("client." + op.op, part.started) if tracer else None
        try:
            if op.op == "read":
                floor = part.acked[key]
                part.read_done(key, client.get(key), floor, t_ref)
            else:
                version = part.next_version(key)
                client.put(key, make_value(key, version))
                part.write_done(key, version, t_ref)
        except OP_ERRORS:
            pass  # counted as started but not completed
        finally:
            if span is not None:
                tracer.end(span)

    def _run_threads(self, body: Callable, per_thread_args: list[tuple]) -> None:
        failures: list[BaseException] = []

        def guarded(*args: Any) -> None:
            try:
                body(*args)
            except BaseException as exc:  # re-raised on the caller's thread
                failures.append(exc)

        threads = [threading.Thread(target=guarded, args=args, daemon=True)
                   for args in per_thread_args]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]

    def closed(self, streams: Sequence[Sequence[Any]], seconds: float) -> PhaseResult:
        for part in self.parts:
            part.start_phase()

        def loop(client: Any, part: Partition, stream: Sequence[Any], deadline: float) -> None:
            for op in itertools.cycle(stream):
                if time.perf_counter() >= deadline or part.errors >= MAX_ERRORS:
                    return
                self._do(client, part, op, None)

        cpu0 = time.process_time()
        started = time.perf_counter()
        self._run_threads(loop, [
            (c, p, s, started + seconds)
            for c, p, s in zip(self.clients, self.parts, streams)
        ])
        elapsed = time.perf_counter() - started
        return PhaseResult(self.parts, started, elapsed, None, time.process_time() - cpu0)

    def paced(self, streams: Sequence[Sequence[tuple[int, Any]]], rate: float) -> PhaseResult:
        for part in self.parts:
            part.start_phase()
        planned = sum(len(s) for s in streams)

        def loop(client: Any, part: Partition, stream: Any, t0: float, give_up: float) -> None:
            for i, op in stream:
                due = t0 + i / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                now = time.perf_counter()
                if now > give_up or part.errors >= MAX_ERRORS:
                    return
                part.lag.append(max(0.0, now - due))
                self._do(client, part, op, due if delay <= 0 else now)

        cpu0 = time.process_time()
        t0 = time.perf_counter() + 0.01
        give_up = t0 + planned / rate + PACED_GRACE
        self._run_threads(loop, [
            (c, p, s, t0, give_up)
            for c, p, s in zip(self.clients, self.parts, streams)
        ])
        elapsed = time.perf_counter() - t0
        return PhaseResult(self.parts, t0, elapsed, planned, time.process_time() - cpu0)
