"""repro: memory-efficient search trees for database management systems.

A from-scratch Python reproduction of Huanchen Zhang's thesis
(CMU-CS-20-101 / the SIGMOD 2021 dissertation-award work): the
Dynamic-to-Static rules, the Fast Succinct Trie, SuRF, the Hybrid
Index, and HOPE — plus every substrate the evaluation needs (dynamic
search trees, an LSM storage engine, a mini H-Store, filters, and the
YCSB/TPC-C workload generators).

Quick start::

    from repro.core import FST, surf_real, hybrid_btree, HopeEncoder

See README.md and DESIGN.md for the architecture and the experiment
index, and ``examples/`` for runnable scenarios.
"""

__version__ = "1.0.0"

__all__ = ["core", "__version__"]


def __getattr__(name: str):
    # ``repro.core`` imports every structure of the thesis (HOPE, the
    # hybrid indexes, the compact trees); a process that only serves
    # or stores keys should not pay for it, so it loads on first use.
    if name == "core":
        import importlib

        return importlib.import_module(".core", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
