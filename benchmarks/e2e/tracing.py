"""Spans recorded from outside the program (the traced run).

The benchmark wraps a fixed list of *public* callables — the wire
codec, the engine's read/write entry points, filter probes, the WAL,
the memtable, the SSTable writer — and records one span per call:
``(name, start, end, parent, op id, batch size, cpu, thread)``.  The
parent is the span that was open in the same thread or asyncio task;
client root spans carry the generator's op id.  Spans stay in memory
and are written out once, after the run.  A layer's *self time* is its
spans' time minus the part their child spans cover.

Nothing here changes ``src/``: wrappers are installed by assigning the
module/class attribute and removed again by :meth:`Tracer.uninstall`.
Server-side spans cannot be tied to one client op from outside (that
needs a trace id in the frame header), so they have no op id.

Each span has two durations.  ``end - start`` is wall clock; in the
in-process traced run every thread shares one GIL, so for a span that
makes a system call (WAL append/fsync) it includes the wait to get the
GIL back, and spans of different threads overlap.  ``cpu`` is the
thread's own CPU time, which is what the ledger adds up: CPU self
times of all layers sum to at most the process's CPU time.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from typing import Any, Callable

# Span record layout (a list, mutated once at the end of the call).
NAME, START, END, PARENT, OP_ID, BATCH, CPU, THREAD = range(8)

#: span name prefix -> ledger layer
LAYER_OF = {
    "client": "client",
    "protocol": "protocol",
    "lsm.get": "lsm_read",
    "lsm.get_many": "lsm_read",
    "lsm.scan": "lsm_read",
    "lsm.seek": "lsm_read",
    "lsm.write_batch": "lsm_write",
    "filter": "filter",
    "wal": "wal",
    "memtable": "memtable",
    "sstable.build": "sstable_build",
    "filter.build": "filter_build",
}


def layer_of(name: str) -> str:
    if name in LAYER_OF:
        return LAYER_OF[name]
    return LAYER_OF[name.split(".", 1)[0]]


def _len_of_arg(index: int) -> Callable[[tuple], int]:
    return lambda args: len(args[index])


class Tracer:
    def __init__(self) -> None:
        #: list.append is atomic under the GIL, so every thread shares it.
        self.spans: list[list] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "e2e_span", default=None
        )
        self._patched: list[tuple[Any, str, Any]] = []

    # -- manual spans (client root spans) ------------------------------------

    def begin(self, name: str, op_id: int | None = None, batch: int = 0):
        # A root span waits for a reply while other tasks run on its
        # thread, so it has no CPU time of its own.
        record = [name, time.perf_counter(), 0.0, self._current.get(), op_id, batch,
                  0.0, threading.get_ident()]
        self.spans.append(record)
        return record, self._current.set(record)

    def end(self, handle) -> None:
        record, token = handle
        record[END] = time.perf_counter()
        self._current.reset(token)

    # -- wrappers --------------------------------------------------------------

    def wrap(self, fn: Callable, name: str, batch_of: Callable[[tuple], int] | None = None):
        spans, current = self.spans, self._current
        clock, cpu_clock, ident = time.perf_counter, time.thread_time, threading.get_ident

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, current.get(), None,
                      batch_of(args) if batch_of else 0, 0.0, ident()]
            spans.append(record)
            token = current.set(record)
            cpu0 = cpu_clock()
            record[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                record[CPU] = cpu_clock() - cpu0
                current.reset(token)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: Any, attr: str, name: str,
              batch_of: Callable[[tuple], int] | None = None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = original.__func__ if isinstance(original, staticmethod) else original
        wrapped: Any = self.wrap(fn, name, batch_of)
        if isinstance(original, staticmethod):
            wrapped = staticmethod(wrapped)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        """Wrap the fixed list of public callables."""
        from repro.lsm import engine, sstable, wal
        from repro.server import protocol
        from repro.surf import SuRF

        for attr in dir(protocol):
            if attr in ("frame", "parse_payload") or attr.startswith(("encode_", "decode_")):
                self.patch(protocol, attr, f"protocol.{attr}")
        tree = engine.LSMTree
        self.patch(tree, "get", "lsm.get")
        self.patch(tree, "get_many", "lsm.get_many", _len_of_arg(1))
        self.patch(tree, "write_batch", "lsm.write_batch", _len_of_arg(1))
        self.patch(tree, "scan", "lsm.scan")
        self.patch(tree, "seek", "lsm.seek")
        self.patch(SuRF, "lookup", "filter.lookup")
        self.patch(SuRF, "lookup_many", "filter.lookup_many", _len_of_arg(1))
        self.patch(SuRF, "move_to_next", "filter.move_to_next")
        self.patch(wal.WalWriter, "append_batch", "wal.append", _len_of_arg(1))
        self.patch(wal.WalWriter, "append_put", "wal.append")
        self.patch(wal.WalWriter, "append_delete", "wal.append")
        self.patch(wal.WalWriter, "sync", "wal.sync")
        for memtable in (engine.GappedMemtable, engine.DictMemtable):
            self.patch(memtable, "put_many", "memtable.put_many", _len_of_arg(1))
            self.patch(memtable, "get", "memtable.get")
        # The engine imported write_sstable by name; patch its reference.
        self.patch(engine, "write_sstable", "sstable.build")
        self.patch(sstable, "write_sstable", "sstable.build")

    def wrap_filter_factory(self, factory: Callable) -> Callable:
        return self.wrap(factory, "filter.build", _len_of_arg(0))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------------

    def self_times(self, since: float = 0.0, until: float = float("inf")) -> dict[str, dict[str, float]]:
        """Per layer, over spans that started inside ``[since, until)``:
        span count, CPU self seconds and wall self seconds (the span's
        own time minus its direct children's), batch items.  A child
        that ran on another thread (a callback scheduled from inside
        the span) is not subtracted."""
        window = [s for s in self.spans if since <= s[START] < until and s[END] > 0.0]
        child_cpu: dict[int, float] = {}
        child_wall: dict[int, float] = {}
        for span in window:
            parent = span[PARENT]
            if parent is not None and parent[THREAD] == span[THREAD]:
                key = id(parent)
                child_cpu[key] = child_cpu.get(key, 0.0) + span[CPU]
                child_wall[key] = child_wall.get(key, 0.0) + span[END] - span[START]
        out: dict[str, dict[str, float]] = {}
        for span in window:
            row = out.setdefault(
                layer_of(span[NAME]), {"spans": 0, "self_s": 0.0, "wall_self_s": 0.0, "items": 0}
            )
            row["spans"] += 1
            row["self_s"] += max(0.0, span[CPU] - child_cpu.get(id(span), 0.0))
            row["wall_self_s"] += max(
                0.0, span[END] - span[START] - child_wall.get(id(span), 0.0)
            )
            row["items"] += span[BATCH]
        return out

    def dump(self, path: str) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op_id", "batch",
                               "cpu", "thread"],
                    "spans": [
                        [s[NAME], s[START], s[END],
                         index.get(id(s[PARENT])) if s[PARENT] is not None else None,
                         s[OP_ID], s[BATCH], s[CPU], s[THREAD]]
                        for s in self.spans
                    ],
                },
                fh,
            )
