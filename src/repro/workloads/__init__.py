"""Workload and dataset generators (YCSB, OLTP benchmarks, sensors)."""

from .keys import (
    dataset,
    decode_u64,
    email_keys,
    encode_u64,
    mono_inc_u64_keys,
    random_u64_keys,
    url_keys,
    wiki_keys,
    worst_case_keys,
)
from .ycsb import (
    Operation,
    WORKLOAD_MIXES,
    YcsbWorkload,
    generate,
    point_query_keys,
)
from .zipf import (
    ScrambledZipfianGenerator,
    UniformGenerator,
    ZipfianGenerator,
    fnv1a_64,
)

__all__ = [
    "dataset",
    "decode_u64",
    "email_keys",
    "encode_u64",
    "mono_inc_u64_keys",
    "random_u64_keys",
    "url_keys",
    "wiki_keys",
    "worst_case_keys",
    "Operation",
    "WORKLOAD_MIXES",
    "YcsbWorkload",
    "generate",
    "point_query_keys",
    "ScrambledZipfianGenerator",
    "UniformGenerator",
    "ZipfianGenerator",
    "fnv1a_64",
]
