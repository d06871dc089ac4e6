"""LSM-tree storage engine (Chapter 4 substrate): one durable engine,
on POSIX files or, without a path, on a private in-memory filesystem."""

from .engine import IoStats, LSMTree
from .fs import FileSystem, OsFileSystem
from .manifest import ManifestState
from .sstable import DiskSSTable, TOMBSTONE, write_sstable

__all__ = [
    "LSMTree",
    "DiskSSTable",
    "write_sstable",
    "TOMBSTONE",
    "IoStats",
    "FileSystem",
    "OsFileSystem",
    "ManifestState",
]
