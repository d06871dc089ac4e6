"""YCSB-style workload generation (Section 2.5, 5.3, and Chapter 6).

The thesis uses YCSB default workloads with Zipfian request
distributions to mimic OLTP index workloads:

* **insert-only** — the load phase, measured as its own workload;
* **A** — 50 % reads / 50 % updates (read/write);
* **C** — 100 % reads (read-only);
* **E** — 95 % short scans / 5 % inserts (scan/insert), scan lengths
  uniform in [50, 100].

An operation is a ``(op, key, extra)`` tuple where ``extra`` is the scan
length for SCAN ops and ``None`` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from .zipf import ScrambledZipfianGenerator, UniformGenerator

OpName = Literal["read", "update", "insert", "scan"]

#: Operation mixes of the YCSB default workloads used by the thesis.
WORKLOAD_MIXES: dict[str, dict[OpName, float]] = {
    "insert-only": {"insert": 1.0},
    "A": {"read": 0.5, "update": 0.5},
    "B": {"read": 0.95, "update": 0.05},
    "C": {"read": 1.0},
    "E": {"scan": 0.95, "insert": 0.05},
}

SCAN_LEN_MIN = 50
SCAN_LEN_MAX = 100


@dataclass
class Operation:
    """A single generated request."""

    op: OpName
    key: bytes
    scan_len: int | None = None


@dataclass
class YcsbWorkload:
    """A generated YCSB run: a load phase plus a query phase.

    ``load_keys`` are inserted first (this is the *insert-only*
    measurement); ``operations`` then run against the loaded index.
    Inserts during the query phase draw from ``insert_pool`` (keys not
    present in the load phase).
    """

    name: str
    load_keys: list[bytes]
    operations: list[Operation]
    insert_pool: list[bytes] = field(default_factory=list)


def generate(
    workload: str,
    keys: Sequence[bytes],
    n_ops: int,
    distribution: str = "zipfian",
    seed: int = 42,
    insert_fraction_of_keys: float = 0.05,
) -> YcsbWorkload:
    """Build a YCSB workload over the given key set.

    For mixes containing inserts, the tail ``insert_fraction_of_keys``
    of ``keys`` is withheld from the load phase and used as the insert
    pool, so query-phase inserts are always new keys.
    """
    if workload not in WORKLOAD_MIXES:
        raise KeyError(f"unknown workload {workload!r}")
    mix = WORKLOAD_MIXES[workload]
    rng = np.random.default_rng(seed)

    has_inserts = "insert" in mix and workload != "insert-only"
    n_withheld = int(len(keys) * insert_fraction_of_keys) if has_inserts else 0
    load_keys = list(keys[: len(keys) - n_withheld])
    insert_pool = list(keys[len(keys) - n_withheld :])

    if workload == "insert-only":
        return YcsbWorkload(workload, list(keys), [], [])

    if distribution == "zipfian":
        chooser = ScrambledZipfianGenerator(len(load_keys), seed=seed)
    elif distribution == "uniform":
        chooser = UniformGenerator(len(load_keys), seed=seed)
    else:
        raise ValueError(f"unknown distribution {distribution!r}")

    op_names = list(mix.keys())
    op_probs = np.array([mix[o] for o in op_names])
    drawn_ops = rng.choice(len(op_names), size=n_ops, p=op_probs)
    ranks = chooser.sample(n_ops)
    scan_lens = rng.integers(SCAN_LEN_MIN, SCAN_LEN_MAX + 1, size=n_ops)

    operations: list[Operation] = []
    insert_cursor = 0
    for i in range(n_ops):
        op = op_names[int(drawn_ops[i])]
        if op == "insert":
            if insert_cursor >= len(insert_pool):
                op = "read"  # pool exhausted: degrade to read
            else:
                operations.append(Operation("insert", insert_pool[insert_cursor]))
                insert_cursor += 1
                continue
        key = load_keys[int(ranks[i])]
        if op == "scan":
            operations.append(Operation("scan", key, int(scan_lens[i])))
        else:
            operations.append(Operation(op, key))
    return YcsbWorkload(workload, load_keys, operations, insert_pool)


def point_query_keys(
    keys: Sequence[bytes],
    n_queries: int,
    present_fraction: float = 0.5,
    distribution: str = "zipfian",
    seed: int = 7,
) -> tuple[list[bytes], list[bytes], list[bytes]]:
    """Split ``keys`` into stored/absent halves and draw query keys.

    Mirrors the SuRF microbenchmark setup (Section 4.3): build the
    filter from a random half of the dataset, then query keys drawn from
    the *entire* dataset so that ~``1 - present_fraction`` of queries
    miss.  Returns ``(stored, absent, queries)``.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(keys))
    n_stored = int(len(keys) * present_fraction)
    stored = [keys[i] for i in order[:n_stored]]
    absent = [keys[i] for i in order[n_stored:]]
    if distribution == "zipfian":
        chooser = ScrambledZipfianGenerator(len(keys), seed=seed + 1)
    else:
        chooser = UniformGenerator(len(keys), seed=seed + 1)
    queries = [keys[int(order[r % len(order)])] for r in chooser.sample(n_queries)]
    return stored, absent, queries
