"""Filesystem abstraction behind the LSM engine.

Every byte the engine persists flows through this interface, which is
what makes crash testing possible: the production backend
(:class:`OsFileSystem`) maps straight onto POSIX files with real
``fsync``; :class:`MemFS` keeps every file in memory (an engine opened
without a path runs on a private one), and the testing package's
``FaultFS`` layers on it a power failure at any durability point and
replays the surviving bytes.

Durability contract (the engine relies on exactly this):

* ``create`` makes the new file's *name* durable before it returns, so
  records a later ``sync()`` acknowledges in a fresh file (a new WAL
  segment) do not wait on some other operation to persist its
  directory entry.
* ``WritableFile.append`` buffers; the data is guaranteed on stable
  storage only after ``sync()`` returns.
* ``rename`` is atomic (either the old or the new name exists, never a
  mix) and durable once it returns — the classic commit point for
  write-temp → sync → rename installs.
* ``remove``/``mkdir`` are metadata operations with immediate effect.

Paths are ``/``-joined strings; backends may interpret them however
they like as long as the same string round-trips.
"""

from __future__ import annotations

import mmap as _mmap
import os
import threading


class MappedFile:
    """A read-only, zero-copy view of one whole file.

    ``buf`` is the mapping itself (an ``mmap``, or an immutable
    ``bytes`` snapshot on backends without one) and ``view`` a
    :class:`memoryview` over it; slices of ``view`` alias the mapping
    without copying, which is what lets every shard process share one
    page-cache copy of each SSTable.  Blocks open in place over ``buf``
    (:class:`~repro.lsm.disk_format.Block`), and slicing ``buf`` copies.

    Ownership rule (see DESIGN.md "Buffer ownership"): an object built
    over a slice of ``view`` — a filter's ``np.frombuffer`` arrays —
    keeps the underlying buffer alive via the normal buffer protocol.
    ``close()`` sets ``buf`` and ``view`` to None, so every block opened
    over this file raises from then on, and closes the mapping; it
    *tolerates* outstanding exports (``mmap.close`` raises
    :class:`BufferError` while views are exported; on POSIX an
    unlinked-but-mapped file stays readable, so the pages are simply
    reclaimed when the last view dies).
    """

    __slots__ = ("buf", "view", "closed")

    def __init__(self, buf) -> None:
        self.buf = buf
        self.view: memoryview = memoryview(buf)
        self.closed = False

    def __len__(self) -> int:
        return len(self.view) if self.view is not None else 0

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        buf, view, self.buf, self.view = self.buf, self.view, None, None
        try:
            view.release()
            close = getattr(buf, "close", None)
            if close is not None:
                close()
        except BufferError:
            # Outstanding views alias the mapping; the pages stay
            # valid and are released when the last view is GC'd.
            pass


class WritableFile:
    """An append-only file handle with an explicit durability barrier."""

    def append(self, data: bytes) -> None:
        raise NotImplementedError

    def sync(self) -> None:
        """Block until everything appended so far is on stable storage."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class FileSystem:
    """Minimal VFS used by :class:`repro.lsm.engine.LSMTree`."""

    def mkdir(self, path: str) -> None:
        raise NotImplementedError

    def exists(self, path: str) -> bool:
        raise NotImplementedError

    def listdir(self, path: str) -> list[str]:
        raise NotImplementedError

    def read(self, path: str, offset: int = 0, length: int | None = None) -> bytes:
        raise NotImplementedError

    def open_mmap(self, path: str) -> MappedFile:
        """Map ``path`` read-only for zero-copy access.

        The default implementation snapshots the file into one
        immutable ``bytes`` object — correct for any backend (and what
        MemFS/FaultFS rely on, since SSTable files are immutable once
        written), just not page-shared.  :class:`OsFileSystem`
        overrides with a real ``mmap``.
        """
        return MappedFile(self.read(path))

    def create(self, path: str) -> WritableFile:
        """Create (or truncate) ``path`` for appending."""
        raise NotImplementedError

    def rename(self, src: str, dst: str) -> None:
        raise NotImplementedError

    def remove(self, path: str) -> None:
        raise NotImplementedError


def join(*parts: str) -> str:
    return "/".join(p.rstrip("/") for p in parts if p)


class _OsWritableFile(WritableFile):
    def __init__(self, path: str) -> None:
        self._f = open(path, "wb")

    def append(self, data: bytes) -> None:
        self._f.write(data)

    def sync(self) -> None:
        self._f.flush()
        os.fsync(self._f.fileno())

    def close(self) -> None:
        # ``close`` flushes, and closes the descriptor even when that
        # flush fails.
        self._f.close()


def _sync_dir(path: str) -> None:
    """fsync the directory holding ``path``: the step that makes a
    created or renamed directory entry survive power loss."""
    dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


class OsFileSystem(FileSystem):
    """The real thing: POSIX files, ``os.fsync``, atomic ``os.replace``.

    ``create`` and ``rename`` additionally fsync the containing
    directory so the new directory entry itself survives power loss
    (the step naive implementations forget)."""

    def mkdir(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def listdir(self, path: str) -> list[str]:
        return sorted(os.listdir(path))

    def read(self, path: str, offset: int = 0, length: int | None = None) -> bytes:
        with open(path, "rb") as f:
            if offset:
                f.seek(offset)
            return f.read() if length is None else f.read(length)

    def open_mmap(self, path: str) -> MappedFile:
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            if size == 0:
                # Zero-length files cannot be mmap'd; an empty snapshot
                # is equivalent.
                return MappedFile(b"")
            m = _mmap.mmap(f.fileno(), 0, access=_mmap.ACCESS_READ)
        return MappedFile(m)

    def create(self, path: str) -> WritableFile:
        f = _OsWritableFile(path)
        try:
            _sync_dir(path)
        except OSError:
            f.close()
            raise
        return f

    def rename(self, src: str, dst: str) -> None:
        os.replace(src, dst)
        _sync_dir(dst)

    def remove(self, path: str) -> None:
        os.remove(path)


class _MemFile:
    __slots__ = ("synced", "volatile")

    def __init__(self) -> None:
        self.synced = b""
        self.volatile = bytearray()

    @property
    def content(self) -> bytes:
        return self.synced + bytes(self.volatile)


class _MemWritableFile(WritableFile):
    def __init__(self, fs: "MemFS", path: str) -> None:
        self._fs = fs
        self._path = path
        self._open = True

    def append(self, data: bytes) -> None:
        with self._fs._lock:
            self._fs._check_alive()
            if not self._open:
                raise ValueError("file is closed")
            self._fs._files[self._path].volatile += data

    def sync(self) -> None:
        with self._fs._lock:
            self._fs._check_alive()
            self._fs._durability_point(f"sync {self._path}")
            f = self._fs._files.get(self._path)
            if f is not None:
                f.synced += bytes(f.volatile)
                f.volatile = bytearray()

    def close(self) -> None:
        self._open = False


class MemFS(FileSystem):
    """In-memory filesystem with an explicit durable/volatile split.

    Appended bytes sit in a *volatile* tail until ``sync()`` promotes
    them to the *durable* prefix; metadata operations (``create``,
    ``rename``, ``remove``, ``mkdir``) behave like a journaled
    filesystem: atomic and immediately durable.  The split is what the
    testing package's ``FaultFS`` cuts at a power failure.

    Thread-safe: a thread-run engine has its flusher and compactor
    writing tables and manifests while the writer thread appends WAL
    records, so every operation — including the durability point
    counter FaultFS layers on top — runs under one lock, which also
    gives crash injection a single global order across threads.
    """

    def __init__(self) -> None:
        self._files: dict[str, _MemFile] = {}
        self._dirs: set[str] = set()
        self._lock = threading.RLock()

    # -- crash hooks (no-ops here; FaultFS overrides) ----------------------

    def _check_alive(self) -> None:
        pass

    def _durability_point(self, label: str) -> None:
        pass

    # -- FileSystem interface ----------------------------------------------

    def mkdir(self, path: str) -> None:
        with self._lock:
            self._check_alive()
            self._dirs.add(path.rstrip("/"))

    def exists(self, path: str) -> bool:
        with self._lock:
            self._check_alive()
            return path in self._files or path.rstrip("/") in self._dirs

    def listdir(self, path: str) -> list[str]:
        with self._lock:
            self._check_alive()
            prefix = path.rstrip("/") + "/"
            return sorted(
                {
                    name[len(prefix) :].split("/", 1)[0]
                    for name in self._files
                    if name.startswith(prefix)
                }
            )

    def read(self, path: str, offset: int = 0, length: int | None = None) -> bytes:
        with self._lock:
            self._check_alive()
            if path not in self._files:
                raise FileNotFoundError(path)
            data = self._files[path].content
            if length is None:
                return data[offset:]
            return data[offset : offset + length]

    def create(self, path: str) -> WritableFile:
        with self._lock:
            self._check_alive()
            self._files[path] = _MemFile()
            return _MemWritableFile(self, path)

    def rename(self, src: str, dst: str) -> None:
        with self._lock:
            self._check_alive()
            if src not in self._files:
                raise FileNotFoundError(src)
            self._durability_point(f"rename {src} -> {dst}")
            self._files[dst] = self._files.pop(src)

    def remove(self, path: str) -> None:
        with self._lock:
            self._check_alive()
            if path not in self._files:
                raise FileNotFoundError(path)
            del self._files[path]
