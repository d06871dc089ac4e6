"""Seeded op-sequence generation over the paper's key distributions.

A sequence is a list of :class:`Op` records drawn deterministically
from one integer seed: the same ``(seed, n_ops, keyspace)`` triple
always produces byte-identical sequences, which is what makes replay
and shrinking possible.

Key selection follows the thesis workloads: the key *universe* comes
from :mod:`repro.workloads.keys` (64-bit integers, host-reversed
emails, URLs, or a mix), and *access* is Zipf-distributed so hot keys
are hit repeatedly (YCSB's request distribution).  A fraction of
accesses perturbs the drawn key (byte flip / extend / truncate) to
probe near-miss absent keys — the regime where off-by-one navigation
bugs hide.

Ops are grouped in write/read bursts (geometric lengths) rather than
i.i.d. draws so that structures rebuilt on read (the static D-to-S
variants) amortize rebuilds the way a merge-based deployment would.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Sequence

from ..workloads.keys import email_keys, random_u64_keys, url_keys

#: Ops a sequence may contain.  ``lower_bound`` and ``scan`` carry a
#: ``count`` limit; range ops carry ``high``; ``merge`` forces a stage
#: merge / rebuild; ``serialize`` forces a round trip where the
#: structure has one: the FST, the SuRF variants and the Bloom filter
#: reload from their ``to_bytes()`` blob, the LSM / server / cluster
#: adapters close and recover.  The in-memory trees and the prefix
#: Bloom filter have no wire format and skip it.
OP_NAMES = (
    "insert",
    "update",
    "delete",
    "put_many",
    "get",
    "get_many",
    "contains",
    "lower_bound",
    "scan",
    "range",
    "count",
    "len",
    "items",
    "merge",
    "serialize",
)

_WRITE_OPS = ("insert", "update", "delete", "put_many")
_WRITE_WEIGHTS = (0.54, 0.16, 0.20, 0.10)
_READ_OPS = (
    "get", "contains", "lower_bound", "scan", "range", "count", "len",
    "get_many",
)
_READ_WEIGHTS = (0.36, 0.10, 0.16, 0.10, 0.12, 0.06, 0.06, 0.04)
#: Largest key batch drawn for a ``get_many`` op.
_MAX_BATCH_KEYS = 8

#: Mean burst length for the write/read phase structure.
_MEAN_BURST = 12
#: Probability of an ``items`` (full-iteration) op at a read-burst end.
_ITEMS_PROB = 0.05
#: Probability of a ``merge`` / ``serialize`` op at a burst boundary.
_MERGE_PROB = 0.06
_SERIALIZE_PROB = 0.05
#: Fraction of drawn keys perturbed into near-miss variants.
_PERTURB_PROB = 0.25
#: Zipf skew for key access (YCSB uses 0.99).
_ZIPF_THETA = 0.99


@dataclass(frozen=True)
class Op:
    """One operation of a differential sequence."""

    op: str
    key: bytes | None = None
    value: int | None = None
    high: bytes | None = None
    count: int | None = None
    keys: tuple[bytes, ...] | None = None
    #: Parallel to ``keys`` for ``put_many`` (one value per key;
    #: duplicate keys in a batch are last-wins).
    values: tuple[int, ...] | None = None

    def describe(self) -> str:
        parts = [self.op]
        if self.key is not None:
            parts.append(f"key={self.key!r}")
        if self.keys is not None:
            parts.append(f"keys={list(self.keys)!r}")
        if self.values is not None:
            parts.append(f"values={list(self.values)!r}")
        if self.high is not None:
            parts.append(f"high={self.high!r}")
        if self.value is not None:
            parts.append(f"value={self.value}")
        if self.count is not None:
            parts.append(f"count={self.count}")
        return " ".join(parts)


def key_universe(keyspace: str, n: int, seed: int) -> list[bytes]:
    """Deterministic key pool for a sequence (distinct, unsorted)."""
    if keyspace == "int64":
        return random_u64_keys(n, seed=seed + 11)
    if keyspace == "email":
        return email_keys(n, seed=seed + 13)
    if keyspace == "url":
        return url_keys(n, seed=seed + 17)
    if keyspace == "mixed":
        third = max(1, n // 3)
        pool = (
            random_u64_keys(third, seed=seed + 11)
            + email_keys(third, seed=seed + 13)
            + url_keys(n - 2 * third, seed=seed + 17)
        )
        return pool
    raise KeyError(f"unknown keyspace {keyspace!r}; choose int64|email|url|mixed")


def _zipf_ranks(rng: random.Random, n_items: int, n_draws: int) -> list[int]:
    """Zipf(theta)-distributed ranks in [0, n_items) via inverse CDF."""
    weights = [1.0 / (r + 1) ** _ZIPF_THETA for r in range(n_items)]
    total = sum(weights)
    cum = []
    acc = 0.0
    for w in weights:
        acc += w
        cum.append(acc / total)
    out = []
    for _ in range(n_draws):
        u = rng.random()
        lo, hi = 0, n_items - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cum[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        out.append(lo)
    return out


def _perturb(rng: random.Random, key: bytes) -> bytes:
    """A near-miss variant of ``key`` (deterministic in ``rng``)."""
    mode = rng.randrange(4)
    if mode == 0:  # append a byte
        return key + bytes([rng.randrange(256)])
    if mode == 1 and key:  # drop the last byte
        return key[:-1]
    if mode == 2 and key:  # flip one byte
        i = rng.randrange(len(key))
        return key[:i] + bytes([(key[i] + rng.randrange(1, 256)) % 256]) + key[i + 1 :]
    return bytes([rng.randrange(256)]) + key  # prepend


def generate_ops(
    seed: int,
    n_ops: int,
    keyspace: str = "mixed",
    universe_size: int | None = None,
) -> list[Op]:
    """The deterministic op sequence for ``seed``."""
    rng = random.Random(seed)
    if universe_size is None:
        universe_size = max(64, min(4096, n_ops))
    universe = key_universe(keyspace, universe_size, seed)
    # Shuffle so Zipf-hot ranks are not biased toward one distribution
    # in mixed mode.
    rng.shuffle(universe)
    ranks = _zipf_ranks(rng, len(universe), n_ops + n_ops // 2 + 16)
    rank_iter = iter(ranks)

    def draw_key() -> bytes:
        key = universe[next(rank_iter)]
        if rng.random() < _PERTURB_PROB:
            key = _perturb(rng, key)
        return key

    ops: list[Op] = []
    writing = True
    while len(ops) < n_ops:
        burst = 1 + min(int(rng.expovariate(1.0 / _MEAN_BURST)), 6 * _MEAN_BURST)
        names = _WRITE_OPS if writing else _READ_OPS
        weights = _WRITE_WEIGHTS if writing else _READ_WEIGHTS
        for name in rng.choices(names, weights=weights, k=burst):
            if len(ops) >= n_ops:
                break
            if name in ("insert", "update"):
                ops.append(Op(name, key=draw_key(), value=len(ops)))
            elif name == "put_many":
                # Batched upsert; duplicate keys probe last-wins.
                size = 1 + rng.randrange(_MAX_BATCH_KEYS)
                batch = tuple(draw_key() for _ in range(size))
                values = tuple(
                    len(ops) * _MAX_BATCH_KEYS + j for j in range(size)
                )
                ops.append(Op(name, keys=batch, values=values))
            elif name in ("delete", "get", "contains"):
                ops.append(Op(name, key=draw_key()))
            elif name in ("lower_bound", "scan"):
                ops.append(Op(name, key=draw_key(), count=1 + rng.randrange(32)))
            elif name in ("range", "count"):
                a, b = draw_key(), draw_key()
                low, high = (a, b) if a <= b else (b, a)
                ops.append(Op(name, key=low, high=high))
            elif name == "get_many":
                batch = tuple(
                    draw_key() for _ in range(1 + rng.randrange(_MAX_BATCH_KEYS))
                )
                ops.append(Op(name, keys=batch))
            else:  # len
                ops.append(Op("len"))
        # Burst boundary: occasional structural ops.
        if len(ops) < n_ops and rng.random() < _MERGE_PROB:
            ops.append(Op("merge"))
        if len(ops) < n_ops and rng.random() < _SERIALIZE_PROB:
            ops.append(Op("serialize"))
        if len(ops) < n_ops and not writing and rng.random() < _ITEMS_PROB:
            ops.append(Op("items"))
        writing = not writing
    return ops[:n_ops]


# -- replay scripts ---------------------------------------------------------


def ops_to_json(ops: Sequence[Op], **meta) -> str:
    """Serialize a sequence (keys hex-encoded) plus metadata."""
    records = []
    for op in ops:
        rec: dict = {"op": op.op}
        if op.key is not None:
            rec["key"] = op.key.hex()
        if op.high is not None:
            rec["high"] = op.high.hex()
        if op.value is not None:
            rec["value"] = op.value
        if op.count is not None:
            rec["count"] = op.count
        if op.keys is not None:
            rec["keys"] = [k.hex() for k in op.keys]
        if op.values is not None:
            rec["values"] = list(op.values)
        records.append(rec)
    return json.dumps({**meta, "ops": records}, indent=2)


def ops_from_json(text: str) -> tuple[list[Op], dict]:
    """Inverse of :func:`ops_to_json`: (ops, metadata)."""
    doc = json.loads(text)
    ops = []
    for rec in doc["ops"]:
        if rec["op"] not in OP_NAMES:
            raise ValueError(f"unknown op {rec['op']!r} in replay script")
        ops.append(
            Op(
                rec["op"],
                key=bytes.fromhex(rec["key"]) if "key" in rec else None,
                value=rec.get("value"),
                high=bytes.fromhex(rec["high"]) if "high" in rec else None,
                count=rec.get("count"),
                keys=tuple(bytes.fromhex(h) for h in rec["keys"])
                if "keys" in rec
                else None,
                values=tuple(rec["values"]) if "values" in rec else None,
            )
        )
    meta = {k: v for k, v in doc.items() if k != "ops"}
    return ops, meta
