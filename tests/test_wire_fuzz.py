"""Malformed-frame fuzzing of the wire protocol.

The server's contract under garbage input: for every byte stream a
peer can send, each decodable frame is answered (``BAD_REQUEST`` for a
malformed body, never a crash), an unframeable stream drops the
connection — and in all cases the server stays serviceable for the
next well-behaved client.  Nothing here may hang: every check runs
under a socket timeout.
"""

import random
import socket
import struct

import pytest

from repro.cluster.node import ClusterServer
from repro.lsm import TOMBSTONE, wal
from repro.lsm.disk_format import FrameError
from repro.server import FencedError, KVClient, KVServer, ServerThread
from repro.server import protocol
from repro.testing.faultfs import MemFS

TINY_CONFIG = dict(
    memtable_entries=16,
    sstable_entries=64,
    block_entries=8,
    level0_limit=2,
    block_cache_blocks=32,
    wal_sync_every=4,
)

#: Every opcode the server knows, plus a few it never will.
ALL_OPCODES = sorted(protocol.OP_NAMES) + [0, 42, 77, 255]

#: The opcodes only a cluster node serves.
CLUSTER_OPCODES = (
    protocol.REPL_APPLY, protocol.WATERMARK, protocol.PROMOTE, protocol.LEASE,
    protocol.SNAP_BEGIN, protocol.SNAP_CHUNK, protocol.SNAP_COMMIT,
    protocol.MIGRATE, protocol.MIGRATE_COMMIT, protocol.SHARD_DETACH,
)


def _serve(cls, path):
    fss = [MemFS(), MemFS()]
    srv = cls(path, n_shards=2, fs=lambda i: fss[i], engine_config=TINY_CONFIG)
    return srv, ServerThread(srv).start()


@pytest.fixture(scope="module")
def server():
    srv, runner = _serve(KVServer, "fuzz")
    yield srv
    runner.stop()


@pytest.fixture(scope="module")
def cluster_server():
    srv, runner = _serve(ClusterServer, "fuzz-node")
    yield srv
    runner.stop()


def _connect(server, timeout=10.0):
    sock = socket.create_connection((server.host, server.port), timeout=timeout)
    sock.settimeout(timeout)
    return sock


def _recv_response(sock):
    """One framed response, or None if the server closed on us."""
    try:
        prefix = _recv_exact(sock, 4)
    except ConnectionError:
        return None
    if prefix is None:
        return None
    (length,) = struct.unpack("<I", prefix)
    payload = _recv_exact(sock, length)
    if payload is None:
        return None
    return protocol.parse_payload(payload)


def _recv_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


def _still_serviceable(server):
    """The real acceptance criterion: a fresh client works afterwards."""
    with KVClient(server.host, server.port) as client:
        client.put(b"alive", 1)
        assert client.get(b"alive") == 1


class TestMalformedFrames:
    def test_truncated_length_prefix_then_close(self, server):
        sock = _connect(server)
        try:
            sock.sendall(b"\x07\x00")  # half a length prefix, then EOF
            sock.shutdown(socket.SHUT_WR)
            assert _recv_response(sock) is None  # no response, no hang
        finally:
            sock.close()
        _still_serviceable(server)

    def test_truncated_payload_then_close(self, server):
        sock = _connect(server)
        try:
            # Announce 100 bytes, send 3, hang up.
            sock.sendall(struct.pack("<I", 100) + b"abc")
            sock.shutdown(socket.SHUT_WR)
            assert _recv_response(sock) is None
        finally:
            sock.close()
        _still_serviceable(server)

    def test_oversized_declared_length_drops_connection(self, server):
        sock = _connect(server)
        try:
            # Claims a frame bigger than MAX_FRAME_BYTES; the server
            # must refuse to buffer it and drop the connection.
            sock.sendall(struct.pack("<I", protocol.MAX_FRAME_BYTES + 1))
            assert _recv_response(sock) is None
        finally:
            sock.close()
        _still_serviceable(server)

    def test_undersized_declared_length_drops_connection(self, server):
        sock = _connect(server)
        try:
            sock.sendall(struct.pack("<I", 2) + b"xx")  # < header size
            assert _recv_response(sock) is None
        finally:
            sock.close()
        _still_serviceable(server)

    def test_unknown_opcode_answers_bad_request(self, server):
        sock = _connect(server)
        try:
            sock.sendall(protocol.frame(7, 99, b""))
            request_id, status, _ = _recv_response(sock)
            assert request_id == 7
            assert status == protocol.BAD_REQUEST
        finally:
            sock.close()
        _still_serviceable(server)

    def test_cluster_opcodes_are_unknown_to_a_plain_server(self, server):
        """A single-node server serves no cluster opcode: each one, with
        a body its cluster handler would accept, is answered like any
        opcode the server lacks, and the same connection carries on."""
        import json as _json

        doc = {"purpose": "migrate", "snap_seq": 1, "next_table_id": 1,
               "levels": [[]], "files": []}
        bodies = {
            protocol.REPL_APPLY: protocol.encode_repl_apply(
                0, 0, wal.encode_record(1, 1, b"k", b"v")
            ),
            protocol.WATERMARK: b"",
            protocol.PROMOTE: protocol.encode_promote(5),
            protocol.LEASE: protocol.encode_lease(1, 1000),
            protocol.SNAP_BEGIN: protocol.encode_snap_begin(
                0, 0, _json.dumps(doc).encode()
            ),
            protocol.SNAP_CHUNK: protocol.encode_snap_chunk(
                0, 0, "sst-00000001.sst", 0, b"data"
            ),
            protocol.SNAP_COMMIT: protocol.encode_snap_commit(0, 0, 1),
            protocol.MIGRATE: protocol.encode_migrate(0, "g1", [("127.0.0.1", 1)]),
            protocol.MIGRATE_COMMIT: protocol.encode_migrate_commit(0, 1),
            protocol.SHARD_DETACH: protocol.encode_shard_detach(0, "g1"),
        }
        assert sorted(bodies) == sorted(CLUSTER_OPCODES)
        sock = _connect(server)
        try:
            for i, (opcode, body) in enumerate(bodies.items()):
                sock.sendall(protocol.frame(i, opcode, body))
                request_id, status, reply = _recv_response(sock)
                assert (request_id, status) == (i, protocol.BAD_REQUEST)
                assert reply == b"unknown opcode %d" % opcode
            sock.sendall(
                protocol.frame(98, protocol.PUT, protocol.encode_key_value(b"c", 3))
                + protocol.frame(99, protocol.GET, protocol.encode_key(b"c"))
            )
            assert _recv_response(sock)[:2] == (98, protocol.OK)
            assert _recv_response(sock) == (
                99, protocol.OK, protocol.encode_value_body(3)
            )
        finally:
            sock.close()
        _still_serviceable(server)

    @pytest.mark.parametrize("opcode", ALL_OPCODES)
    def test_garbage_body_every_opcode(self, server, cluster_server, opcode):
        """Unparseable bodies for every opcode (known and unknown) get
        an answer — BAD_REQUEST, or a legitimate status for ops whose
        body happens to decode — and the connection stays usable."""
        if opcode in CLUSTER_OPCODES:
            server = cluster_server
        bodies = [
            b"", b"\x00", b"\xff" * 8,
            struct.pack("<I", 2**31) + b"tail",  # huge inner length
            b"\xde\xad\xbe\xef" * 4,
        ]
        sock = _connect(server)
        try:
            for i, body in enumerate(bodies):
                if opcode == protocol.SHUTDOWN:
                    continue  # would legitimately stop the server
                sock.sendall(protocol.frame(i, opcode, body))
                got = _recv_response(sock)
                assert got is not None, (
                    f"opcode {opcode} body {body!r}: connection dropped "
                    "on a well-framed request"
                )
                request_id, status, _ = got
                assert request_id == i
                assert status in (
                    protocol.OK,
                    protocol.NOT_FOUND,
                    protocol.BAD_REQUEST,
                    protocol.ERROR,
                    protocol.NOT_PRIMARY,
                    protocol.LAGGING,
                    protocol.NOT_OWNER,
                    protocol.FENCED,
                )
        finally:
            sock.close()
        _still_serviceable(server)

    def test_repl_apply_garbage_frames_rejected(self, cluster_server):
        """REPL_APPLY is decoded strictly: a CRC-corrupt WAL frame must
        be BAD_REQUEST (a primary is never wrong twice), and on a
        primary the opcode itself is refused."""
        server = cluster_server
        body = protocol.encode_repl_apply(0, 0, b"not-wal-frames-at-all")
        sock = _connect(server)
        try:
            sock.sendall(protocol.frame(1, protocol.REPL_APPLY, body))
            _, status, _ = _recv_response(sock)
            assert status == protocol.BAD_REQUEST  # this node is a primary
        finally:
            sock.close()
        _still_serviceable(server)


class TestMembershipOpcodes:
    """The PR-10 opcodes (SNAP_*, MIGRATE*, SHARD_DETACH, LEASE) are
    stateful; abuse of their state machines must be answered (never a
    crash, never a hang) and leave the server serviceable."""

    def test_snap_chunk_without_begin(self, cluster_server):
        server = cluster_server
        body = protocol.encode_snap_chunk(0, 0, "sst-00000001.sst", 0, b"data")
        sock = _connect(server)
        try:
            sock.sendall(protocol.frame(1, protocol.SNAP_CHUNK, body))
            _, status, _ = _recv_response(sock)
            assert status == protocol.BAD_REQUEST
        finally:
            sock.close()
        _still_serviceable(server)

    def test_snap_commit_without_begin(self, cluster_server):
        server = cluster_server
        body = protocol.encode_snap_commit(0, 0, 10)
        sock = _connect(server)
        try:
            sock.sendall(protocol.frame(1, protocol.SNAP_COMMIT, body))
            _, status, _ = _recv_response(sock)
            assert status == protocol.BAD_REQUEST
        finally:
            sock.close()
        _still_serviceable(server)

    def test_snap_begin_oversized_declared_snapshot(self, cluster_server):
        server = cluster_server
        import json as _json

        from repro.cluster.membership import MAX_SNAPSHOT_BYTES

        doc = {
            "purpose": "migrate",
            "snap_seq": 1,
            "next_table_id": 2,
            "levels": [["sst-00000001.sst"]],
            "files": [{"name": "sst-00000001.sst",
                       "size": MAX_SNAPSHOT_BYTES + 1, "crc": 0}],
        }
        body = protocol.encode_snap_begin(0, 0, _json.dumps(doc).encode())
        sock = _connect(server)
        try:
            sock.sendall(protocol.frame(1, protocol.SNAP_BEGIN, body))
            _, status, _ = _recv_response(sock)
            assert status == protocol.BAD_REQUEST
        finally:
            sock.close()
        _still_serviceable(server)

    def test_snap_begin_path_traversal_name_rejected(self, cluster_server):
        server = cluster_server
        import json as _json

        doc = {
            "purpose": "migrate",
            "snap_seq": 1,
            "next_table_id": 2,
            "levels": [[]],
            "files": [{"name": "../../etc/passwd", "size": 4, "crc": 0}],
        }
        body = protocol.encode_snap_begin(0, 0, _json.dumps(doc).encode())
        sock = _connect(server)
        try:
            sock.sendall(protocol.frame(1, protocol.SNAP_BEGIN, body))
            _, status, _ = _recv_response(sock)
            assert status == protocol.BAD_REQUEST
        finally:
            sock.close()
        _still_serviceable(server)

    def test_migrate_refused_off_primary_shapes(self, cluster_server):
        server = cluster_server
        # Bad shard id, no targets, garbage target strings: all are
        # answered without the server attempting any connection.
        cases = [
            protocol.encode_migrate(99, "g1", [("h", 1)]),
            protocol.encode_migrate(0, "g1", []),
        ]
        sock = _connect(server)
        try:
            for i, body in enumerate(cases):
                sock.sendall(protocol.frame(i, protocol.MIGRATE, body))
                _, status, _ = _recv_response(sock)
                assert status == protocol.BAD_REQUEST
        finally:
            sock.close()
        _still_serviceable(server)

    def test_lease_fencing_state_machine(self):
        """Deliberate LEASE abuse on a throwaway server (a decoded
        lease legitimately mutates term state, so the shared fixture
        must not see one): stale terms are FENCED, an equal-term claim
        against a primary is FENCED, a newer term demotes it."""
        srv, runner = _serve(ClusterServer, "fuzz-lease")
        try:
            with KVClient(srv.host, srv.port) as c:
                c.promote(5)  # primary at term 5
                with pytest.raises(FencedError):
                    c.lease(4, 1000)  # stale term
                with pytest.raises(FencedError):
                    c.lease(5, 1000)  # equal-term split claim
                c.lease(6, 1000)  # newer term: adopt and stand down
                assert not c.watermark().is_primary
                assert c.watermark().term == 6
        finally:
            runner.stop()


class TestRandomFuzz:
    def test_random_byte_streams_never_hang_the_server(
        self, server, cluster_server
    ):
        """Seeded random garbage, interleaved with random valid frames;
        the server must answer or close every time, within timeout.  A
        frame with a cluster opcode goes to the cluster node."""
        rng = random.Random(0xC1A0)
        for round_no in range(30):
            noise = rng.random() < 0.5
            if not noise:
                # SHUTDOWN would legitimately stop the server; a
                # random LEASE body that happens to decode would
                # legitimately adopt its term and demote the shared
                # fuzz primary.  Both are state changes a valid
                # frame is *supposed* to make, so neither belongs
                # in blind fuzzing (LEASE gets garbage bodies in
                # test_garbage_body_every_opcode instead).
                opcode = rng.choice([
                    op for op in ALL_OPCODES
                    if op not in (protocol.SHUTDOWN, protocol.LEASE)
                ])
            clustered = not noise and opcode in CLUSTER_OPCODES
            sock = _connect(cluster_server if clustered else server, timeout=10.0)
            try:
                if noise:
                    # Pure noise (may or may not frame-align).
                    blob = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 200)))
                    sock.sendall(blob)
                else:
                    # A well-framed request with a random opcode/body.
                    body = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64)))
                    sock.sendall(protocol.frame(round_no, opcode, body))
                sock.shutdown(socket.SHUT_WR)
                # Drain whatever comes back until EOF; only a hang fails.
                while True:
                    try:
                        if not sock.recv(4096):
                            break
                    except ConnectionError:
                        break
            finally:
                sock.close()
        _still_serviceable(server)
        _still_serviceable(cluster_server)


# -- the burst decoder against a per-frame reference ------------------------------

POINT_OPCODES = (
    protocol.GET, protocol.GET_AT, protocol.BATCH_GET, protocol.PUT, protocol.DELETE,
)


def _reference_reply(model, opcode, body):
    """What a server that decodes one frame at a time — each body through
    its own ``protocol.decode_*`` — answers, applied to ``model``.  A
    write ack's body (the commit sequence) is not modelled: None."""
    try:
        if opcode == protocol.PUT:
            key, value = protocol.decode_key_value(body)
            if value is TOMBSTONE:
                raise protocol.ProtocolError("cannot PUT a tombstone")
            model[key] = value
            return protocol.OK, None
        if opcode == protocol.DELETE:
            model.pop(protocol.decode_key(body), None)
            return protocol.OK, None
        if opcode == protocol.BATCH_GET:
            values = [model.get(key) for key in protocol.decode_keys(body)]
            return protocol.OK, protocol.encode_maybe_values(values, missing=None)
        if opcode == protocol.GET:
            key = protocol.decode_key(body)
        else:
            key, _ = protocol.decode_get_at(body)
        if key not in model:
            return protocol.NOT_FOUND, b""
        return protocol.OK, protocol.encode_value_body(model[key])
    except (
        protocol.ProtocolError, FrameError, struct.error, IndexError,
        UnicodeDecodeError,
    ) as exc:
        return protocol.BAD_REQUEST, str(exc).encode()


def _pipelined(server, requests):
    """Send ``requests`` as ONE pipelined stream and read every reply —
    the server cuts it into bursts wherever its reads fall."""
    sock = _connect(server, timeout=30.0)
    try:
        sock.sendall(b"".join(
            protocol.frame(i, opcode, body) for i, (opcode, body) in enumerate(requests)
        ))
        replies = []
        for i in range(len(requests)):
            got = _recv_response(sock)
            assert got is not None, f"connection dropped before reply {i}"
            assert got[0] == i
            replies.append(got[1:])
        return replies
    finally:
        sock.close()


def _check_against_reference(server, model, requests):
    """Returns the statuses the server answered with."""
    expected = [_reference_reply(model, opcode, body) for opcode, body in requests]
    replies = _pipelined(server, requests)
    for i, (got, want) in enumerate(zip(replies, expected)):
        status, body = got
        assert status == want[0], (i, requests[i], got, want)
        if want[1] is None:
            assert len(body) == 8  # a commit sequence
        else:
            assert body == want[1], (i, requests[i], got, want)
    return {status for status, _ in replies}


class TestBurstCodecAgainstReference:
    """The burst-level codec reads well-formed point-op bodies in place
    and must answer every body — whole, cut or garbage — exactly as the
    per-body decoders do: ``BAD_REQUEST`` costs one request, never the
    run, the burst or the connection.

    Reads and writes use disjoint keys: a pipelined read may observe a
    *later* write of its key (DESIGN.md §12), which no sequential
    reference reproduces.  Written keys are read back afterwards."""

    READ_KEYS = [b"r-bytes", b"r-int", b"r-str", b""]
    STORED = {b"r-bytes": b"\x00raw\xff", b"r-int": -12345, b"r-str": "héllo", b"": b"empty key"}

    def _load(self, server):
        with KVClient(server.host, server.port) as client:
            for key, value in self.STORED.items():
                client.put(key, value)
        return dict(self.STORED)

    def _read_back(self, server, model, written):
        requests = [(protocol.GET, protocol.encode_key(key)) for key in sorted(written)]
        requests.append((protocol.BATCH_GET, protocol.encode_keys(sorted(written))))
        _check_against_reference(server, model, requests)

    def _whole_bodies(self):
        keys = self.READ_KEYS + [b"r-absent"]
        out = [(protocol.GET, protocol.encode_key(key)) for key in keys]
        out += [(protocol.GET_AT, protocol.encode_get_at(key, 0)) for key in keys]
        out += [
            (protocol.BATCH_GET, protocol.encode_keys(keys)),
            (protocol.BATCH_GET, protocol.encode_keys([])),
            (protocol.DELETE, protocol.encode_key(b"w-gone")),
            (protocol.DELETE, protocol.encode_key(b"w-never")),
        ]
        for i, value in enumerate((b"", b"bytes\x00", 7, -(2**63), "str", "")):
            out.append((protocol.PUT, protocol.encode_key_value(b"w-%d" % i, value)))
        out.append((protocol.PUT, protocol.encode_key_value(b"w-gone", 1)))
        out.append((protocol.PUT, protocol.encode_key_value(b"w-tomb", TOMBSTONE)))
        # Length fields that lie: a value codec tag that does not exist, an
        # int of the wrong width, an empty value encoding.
        out.append((protocol.PUT, protocol.encode_key(b"w-x") + b"\x01\x00\x00\x00\x09"))
        out.append((protocol.PUT, protocol.encode_key(b"w-x") + b"\x03\x00\x00\x00\x01ab"))
        out.append((protocol.PUT, protocol.encode_key(b"w-x") + b"\x00\x00\x00\x00"))
        return out

    def test_whole_cut_and_padded_bodies_answer_as_the_reference(self, server):
        model = self._load(server)
        sentinel = (protocol.GET, protocol.encode_key(b"r-int"))
        requests = []
        for opcode, body in self._whole_bodies():
            for cut in range(len(body) + 1):
                requests.append((opcode, body[:cut]))
            requests.append((opcode, body + b"\x00"))
            requests.append(sentinel)  # the stream behind a bad body is intact
        statuses = _check_against_reference(server, model, requests)
        assert {protocol.OK, protocol.NOT_FOUND, protocol.BAD_REQUEST} <= statuses
        self._read_back(server, model, [k for k in model if k.startswith(b"w-")])
        _still_serviceable(server)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_bodies_answer_as_the_reference(self, server, seed):
        rng = random.Random(seed)
        model = self._load(server)
        whole = self._whole_bodies()
        requests = []
        for _ in range(1500):
            roll = rng.random()
            if roll < 0.4:
                requests.append(rng.choice(whole))
            elif roll < 0.7:  # a whole body with a few bytes flipped
                opcode, body = rng.choice(whole)
                mutated = bytearray(body)
                for _ in range(rng.randrange(1, 4)):
                    if mutated:
                        mutated[rng.randrange(len(mutated))] = rng.randrange(256)
                if opcode in (protocol.PUT, protocol.DELETE) and not bytes(
                    mutated[4:]
                ).startswith(b"w-"):
                    continue  # keep writes off the keys being read
                requests.append((opcode, bytes(mutated)))
            else:
                opcode = rng.choice(POINT_OPCODES)
                noise = bytes(rng.randrange(256) for _ in range(rng.randrange(24)))
                if opcode in (protocol.PUT, protocol.DELETE):
                    noise = protocol.encode_key(b"w-%d" % rng.randrange(4))[:6] + noise
                requests.append((opcode, noise))
        _check_against_reference(server, model, requests)
        self._read_back(server, model, [k for k in model if k.startswith(b"w-")])
        _still_serviceable(server)
