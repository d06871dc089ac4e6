"""Dynamic-to-Static compact structures (Chapter 2).

The result of applying the Compaction + Structural Reduction rules to
the four dynamic trees, plus the (optional) Compression rule applied to
the B+tree, and the CLOCK node cache both of those share.

Exports are resolved lazily, on first attribute access: the LSM engine
imports only :class:`ClockNodeCache` (its block cache), and a served
node should not load numpy and the dynamic trees the compact structures
are built from just to get it.  ``from repro.compact import X`` works
as before; it loads the one module that defines ``X``.
"""

from __future__ import annotations

__all__ = [
    "CompactBPlusTree",
    "CompactSkipList",
    "CompactART",
    "CompactMasstree",
    "CompressedBPlusTree",
    "ClockNodeCache",
]

_LAZY = {
    "CompactBPlusTree": "compact_btree",
    "CompactSkipList": "compact_skiplist",
    "CompactART": "compact_art",
    "CompactMasstree": "compact_masstree",
    "CompressedBPlusTree": "compressed_btree",
    "ClockNodeCache": "node_cache",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
