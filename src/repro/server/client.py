"""Clients for the sharded key-value server: one request pipeline, two
transports.

:class:`Pipeline` is the whole client minus the socket (sans-IO): it
assigns request ids, frames requests, queues them in order until their
reply arrives, turns the server's bytes back into ``(status, body)``
outcomes (checking each echoed id), holds the ``OVERLOADED`` retry
policy, and is the op table — every operation is one entry naming its
opcode, body encoder and reply decoder.  The two clients add only how
bytes move and how a caller waits:

* :class:`KVClient` — a blocking socket, one request in flight: the
  simplest correct client, for tests, tools and the cluster layer.
* :class:`AsyncKVClient` — an ``asyncio.Protocol``, fully pipelined.
  What is issued in one event-loop tick leaves in **one**
  ``transport.write`` (scheduled once per tick: no timer, no size cap),
  so the server reads it as one burst — one batch lookup per shard, one
  group commit — and replies resolve their futures straight from
  ``data_received``, in send order.  A lone request leaves one loop
  iteration after it was issued.

``OVERLOADED`` is absorbed by a bounded exponential backoff with full
jitter (a herd of clients decorrelates instead of re-arriving in
lockstep); ``client.retries`` counts it, ``max_retries=0`` raises at
once.  Write acks carry the committed sequence number — the causal
token :meth:`Pipeline.get_at` hands a follower for read-your-writes.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Sequence

from . import protocol

#: Backoff schedule for OVERLOADED retries: full jitter over an
#: exponentially growing cap, starting at 1 ms and saturating at 100 ms.
RETRY_BASE_DELAY = 0.001
RETRY_MAX_DELAY = 0.1
DEFAULT_MAX_RETRIES = 8


#: The operations a client resends after OVERLOADED.
_RETRIED = frozenset({
    protocol.GET, protocol.PUT, protocol.DELETE, protocol.BATCH_GET,
    protocol.SCAN, protocol.COUNT, protocol.SYNC, protocol.GET_AT,
})


def _retry_delay(attempt: int) -> float:
    """Full-jitter exponential backoff: uniform over [0, min(cap, base*2^n)]."""
    return random.uniform(
        0.0, min(RETRY_MAX_DELAY, RETRY_BASE_DELAY * (2 ** attempt))
    )


class ServerError(Exception):
    """Non-OK response status from the server."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(
            f"{protocol.STATUS_NAMES.get(status, status)}: {message}"
        )
        self.status = status


class ServerOverloadedError(ServerError):
    """Backpressure: a bounded shard queue was full (and the bounded
    retry schedule, if any, was exhausted)."""


class ServerShuttingDownError(ServerError):
    """The server is draining; no new work is accepted."""


class FollowerLaggingError(ServerError):
    """GET_AT: the follower has not applied the requested sequence yet."""


class NotPrimaryError(ServerError):
    """A write was sent to a follower; re-route to the primary."""


class NotOwnerError(ServerError):
    """The node does not serve this shard (it migrated away, is still
    migrating in, or never lived here).  ``owner`` names the owning
    group when the node knows it — the router updates its placement
    map and retries."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(status, message)
        self.owner = message or None


class FencedError(ServerError):
    """A replication/lease message carried a stale term: a higher-term
    primary exists.  The sender must stop acting as primary."""


_ERRORS = {
    protocol.OVERLOADED: ServerOverloadedError,
    protocol.SHUTTING_DOWN: ServerShuttingDownError,
    protocol.LAGGING: FollowerLaggingError,
    protocol.NOT_PRIMARY: NotPrimaryError,
    protocol.NOT_OWNER: NotOwnerError,
    protocol.FENCED: FencedError,
}


@dataclass
class WatermarkReply:
    """WATERMARK response: role, election term, and per-hosted-shard
    ``(dispatched, applied)`` replication watermarks."""

    is_primary: bool
    term: int
    marks: dict[int, tuple[int, int]]

    def applied_total(self) -> int:
        """Sum of durably applied sequences — the election's
        caught-up-ness score."""
        return sum(applied for _, applied in self.marks.values())


# -- reply decoders ------------------------------------------------------------


def _decode_reply(status: int, body: bytes, decode: Callable | None) -> Any:
    """What an operation returns for the reply ``(status, body)``: the
    decoded OK body, None for NOT_FOUND, the matching error otherwise."""
    if status == protocol.OK:
        return decode(body) if decode is not None else None
    if status == protocol.NOT_FOUND:
        return None
    raise _ERRORS.get(status, ServerError)(status, body.decode("utf-8", "replace"))


def _decode_json(body: bytes) -> dict:
    return json.loads(body.decode())


def _decode_watermark(body: bytes) -> WatermarkReply:
    return WatermarkReply(*protocol.decode_watermarks(body))


class Pipeline:
    """The sans-IO request pipeline and the op table.  A transport
    supplies ``_request(opcode, body, decode)``; every operation
    returns what that returns — the decoded reply (:class:`KVClient`)
    or an awaitable of it (:class:`AsyncKVClient`).

    :meth:`request` takes a *token*; :meth:`feed` and :meth:`fail` hand
    it back as ``(token, outcome)``, the outcome being the reply's
    ``(status, body)`` or the exception the request failed with.
    """

    def __init__(self, max_retries: int = DEFAULT_MAX_RETRIES) -> None:
        self._next_id = 0
        self._pending: deque[tuple[int, Any]] = deque()  # (request id, token)
        self._inbox = bytearray()
        self._max_retries = max_retries
        #: Why no request can be sent any more (stream lost, unframeable
        #: or closed), else None.
        self.error: BaseException | None = None
        #: OVERLOADED responses absorbed by the retry schedule.
        self.retries = 0

    # -- the pipeline --------------------------------------------------------

    def request(self, opcode: int, body: bytes, token: Any) -> bytes:
        """The frame of a new request, now pending.  Framed before it is
        enqueued (an unframeable body raises and changes nothing) and
        enqueued before it is written (no reply finds its request
        unknown)."""
        if self.error is not None:
            raise ConnectionError(f"connection lost: {self.error}")
        request_id = self._next_id = (self._next_id + 1) & 0xFFFFFFFF
        frame = protocol.frame(request_id, opcode, body)
        self._pending.append((request_id, token))
        return frame

    def feed(self, data: bytes) -> list[tuple[Any, Any]]:
        """Bytes from the server: each complete reply settles the oldest
        pending request (a wrong echoed id fails it).  An unframeable
        stream or an unrequested reply fails everything pending, after
        the frames ahead of it settled theirs."""
        buf = self._inbox
        buf += data
        frames: list[tuple[int, int, bytes]] = []
        error: BaseException | None = None
        try:
            del buf[: protocol.parse_frames(buf, frames)]
        except protocol.ProtocolError as exc:
            error = exc
        pending = self._pending
        settled: list[tuple[Any, Any]] = []
        for echoed, status, body in frames:
            if not pending:
                error = protocol.ProtocolError(f"unrequested response {echoed}")
                break
            request_id, token = pending.popleft()
            if echoed == request_id:
                settled.append((token, (status, body)))
            else:
                settled.append((token, protocol.ProtocolError(
                    f"response id {echoed} != expected {request_id}"
                )))
        if error is not None:
            settled += self.fail(error)
        return settled

    def fail(self, error: BaseException) -> list[tuple[Any, Any]]:
        """The stream is gone: every pending request fails, every later
        one is refused."""
        self.error = error
        settled = [
            (token, ConnectionError(f"connection lost: {error}"))
            for _, token in self._pending
        ]
        self._pending.clear()
        return settled

    def _backoff(self, opcode: int, status: int, attempt: int) -> float | None:
        """Seconds to wait before resending a request answered
        ``status``, or None to deliver the answer.  Resending is safe:
        OVERLOADED is answered *before* any engine work is queued, and
        the request's order among those in flight was undefined anyway.
        Cluster and admin operations run their callers' own schedules."""
        if (
            status != protocol.OVERLOADED
            or attempt >= self._max_retries
            or opcode not in _RETRIED
        ):
            return None
        self.retries += 1
        return _retry_delay(attempt)

    # -- operations ----------------------------------------------------------

    def get(self, key: bytes) -> Any:
        body = protocol.encode_key(key)
        return self._request(protocol.GET, body, protocol.decode_value_body)

    def put(self, key: bytes, value: Any) -> Any:
        """Store ``value``; returns the committed sequence number (the
        causal token for :meth:`get_at`)."""
        body = protocol.encode_key_value(key, value)
        return self._request(protocol.PUT, body, protocol.decode_u64_body)

    def delete(self, key: bytes) -> Any:
        return self._request(protocol.DELETE, protocol.encode_key(key),
                             protocol.decode_u64_body)

    def get_many(self, keys: Sequence[bytes], missing: Any = None) -> Any:
        decode = partial(protocol.decode_maybe_values, missing=missing)
        return self._request(protocol.BATCH_GET, protocol.encode_keys(keys), decode)

    def scan(self, low: bytes, count: int) -> Any:
        body = protocol.encode_scan(low, count)
        return self._request(protocol.SCAN, body, protocol.decode_pairs)

    def count(self, low: bytes, high: bytes) -> Any:
        body = protocol.encode_range(low, high)
        return self._request(protocol.COUNT, body, protocol.decode_u64_body)

    def sync(self) -> Any:
        return self._request(protocol.SYNC)

    def stats(self) -> Any:
        return self._request(protocol.STATS, b"", _decode_json)

    def shutdown_server(self) -> Any:
        return self._request(protocol.SHUTDOWN)

    # -- cluster operations ----------------------------------------------------

    def get_at(self, key: bytes, min_seq: int) -> Any:
        """Read ``key`` from a node that has applied at least
        ``min_seq`` (a token from :meth:`put`).  Raises
        :class:`FollowerLaggingError` when the node is behind."""
        body = protocol.encode_get_at(key, min_seq)
        return self._request(protocol.GET_AT, body, protocol.decode_value_body)

    def watermark(self) -> Any:
        """The node's role, term, and per-shard (dispatched, applied)
        replication watermarks, as a :class:`WatermarkReply`."""
        return self._request(protocol.WATERMARK, b"", _decode_watermark)

    def promote(self, new_term: int | None = None) -> Any:
        """Flip a follower to primary (drains queued applies first).
        Returns the node's term after the flip."""
        body = protocol.encode_promote(new_term)
        return self._request(protocol.PROMOTE, body, protocol.decode_u64_body)

    def repl_apply(self, term: int, shard: int, frames: bytes) -> Any:
        """Ship verbatim WAL frames to a follower shard; returns its
        durable applied watermark.  Used by the replication sender."""
        body = protocol.encode_repl_apply(term, shard, frames)
        return self._request(protocol.REPL_APPLY, body, protocol.decode_u64_body)

    # -- membership operations (PR 10) ---------------------------------------

    def snap_begin(self, term: int, shard: int, doc: bytes) -> Any:
        body = protocol.encode_snap_begin(term, shard, doc)
        return self._request(protocol.SNAP_BEGIN, body)

    def snap_chunk(
        self, term: int, shard: int, name: str, offset: int, data: bytes
    ) -> Any:
        body = protocol.encode_snap_chunk(term, shard, name, offset, data)
        return self._request(protocol.SNAP_CHUNK, body)

    def snap_commit(self, term: int, shard: int, snap_seq: int) -> Any:
        """Install the staged snapshot; returns the installed sequence."""
        body = protocol.encode_snap_commit(term, shard, snap_seq)
        return self._request(protocol.SNAP_COMMIT, body, protocol.decode_u64_body)

    def migrate(
        self, shard: int, dst_group: str, targets: Sequence[tuple[str, int]]
    ) -> Any:
        """Drive the source side of a live shard migration; returns the
        handoff sequence once every target holds the shard through it."""
        body = protocol.encode_migrate(shard, dst_group, targets)
        return self._request(protocol.MIGRATE, body, protocol.decode_u64_body)

    def migrate_commit(self, shard: int, handoff_seq: int) -> Any:
        body = protocol.encode_migrate_commit(shard, handoff_seq)
        return self._request(protocol.MIGRATE_COMMIT, body)

    def shard_detach(self, shard: int, forward_group: str = "") -> Any:
        body = protocol.encode_shard_detach(shard, forward_group)
        return self._request(protocol.SHARD_DETACH, body)

    def lease(self, term: int, ttl_ms: int) -> Any:
        """Primary heartbeat: grant a lease for ``ttl_ms``.  Raises
        :class:`FencedError` when the receiver knows a higher term."""
        return self._request(protocol.LEASE, protocol.encode_lease(term, ttl_ms))


class KVClient(Pipeline):
    """The pipeline over a blocking socket: send one frame, read until
    its reply arrived."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        max_retries: int = DEFAULT_MAX_RETRIES,
    ) -> None:
        super().__init__(max_retries)
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "KVClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _call(self, opcode: int, body: bytes = b"") -> tuple[int, bytes]:
        """One round trip: the raw ``(status, body)`` of the reply."""
        outcome: list = []  # the token: feed() hands it back with the outcome
        self._sock.sendall(self.request(opcode, body, outcome))
        while not outcome:
            data = self._sock.recv(1 << 16)
            if data:
                settled = self.feed(data)
            else:
                settled = self.fail(ConnectionError("server closed the connection"))
            for token, result in settled:
                token.append(result)
        if isinstance(outcome[0], BaseException):
            raise outcome[0]
        return outcome[0]

    def _request(
        self, opcode: int, body: bytes = b"", decode: Callable | None = None
    ) -> Any:
        attempt = 0
        while True:
            status, reply = self._call(opcode, body)
            delay = self._backoff(opcode, status, attempt)
            if delay is None:
                return _decode_reply(status, reply, decode)
            time.sleep(delay)
            attempt += 1


class AsyncKVClient(Pipeline, asyncio.Protocol):
    """The pipeline as an asyncio protocol over one connection, safe
    for many coroutines on one event loop.  The first frame queued in a
    loop tick schedules :meth:`_flush`, which writes the tick's frames
    together; between ``pause_writing`` and ``resume_writing`` (the
    transport's buffer over its high-water mark) new requests wait
    instead of buffering without bound."""

    def __init__(self, max_retries: int = DEFAULT_MAX_RETRIES) -> None:
        super().__init__(max_retries)
        self.error = ConnectionError("not connected")
        self._loop = asyncio.get_running_loop()
        self._transport: asyncio.Transport | None = None
        self._outbox: list[bytes] = []  # this tick's frames
        self._writable = asyncio.Event()
        self._closed = self._loop.create_future()

    @classmethod
    async def connect(
        cls, host: str, port: int, max_retries: int = DEFAULT_MAX_RETRIES
    ) -> "AsyncKVClient":
        loop = asyncio.get_running_loop()
        _, client = await loop.create_connection(
            lambda: cls(max_retries=max_retries), host, port
        )
        return client

    async def close(self) -> None:
        if self._transport is not None:
            self._lose(ConnectionError("client closed"))
            self._transport.close()
            await self._closed

    # -- asyncio.Protocol ----------------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport
        sock = transport.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.error = None
        self._writable.set()

    def data_received(self, data: bytes) -> None:
        self._settle(self.feed(data))
        if self.error is not None:  # the stream cannot be framed any more
            self._writable.set()
            self._transport.close()

    def connection_lost(self, exc: BaseException | None) -> None:
        self._lose(exc or ConnectionError("server closed the connection"))
        if not self._closed.done():
            self._closed.set_result(None)

    def pause_writing(self) -> None:
        self._writable.clear()

    def resume_writing(self) -> None:
        self._writable.set()

    # -- the transport half of the pipeline ------------------------------------

    @staticmethod
    def _settle(settled: list[tuple[asyncio.Future, Any]]) -> None:
        for future, outcome in settled:
            if future.done():  # cancelled by its caller
                continue
            if type(outcome) is tuple:
                future.set_result(outcome)
            else:
                future.set_exception(outcome)

    def _lose(self, error: BaseException) -> None:
        """Fail what is in flight and wake who waits to send (once)."""
        if self.error is None:
            self._settle(self.fail(error))
            self._writable.set()

    def _flush(self) -> None:
        frames, self._outbox = self._outbox, []
        if self.error is None:  # else their futures have already failed
            self._transport.write(b"".join(frames))

    def _call(self, opcode: int, body: bytes = b"") -> asyncio.Future:
        """Queue one request for this tick's write; the future of its
        raw ``(status, body)``."""
        future = self._loop.create_future()
        self._outbox.append(self.request(opcode, body, future))
        if len(self._outbox) == 1:
            self._loop.call_soon(self._flush)
        return future

    async def _request(
        self, opcode: int, body: bytes = b"", decode: Callable | None = None
    ) -> Any:
        attempt = 0
        while True:
            while not self._writable.is_set():
                await self._writable.wait()
            status, reply = await self._call(opcode, body)
            delay = self._backoff(opcode, status, attempt)
            if delay is None:
                return _decode_reply(status, reply, decode)
            await asyncio.sleep(delay)
            attempt += 1
