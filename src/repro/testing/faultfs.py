"""Fault-injecting filesystem: power failures at every durability point.

:class:`MemFS` implements the :class:`repro.lsm.fs.FileSystem`
interface entirely in memory, but — crucially — models the
durable/volatile split of a real disk: appended bytes sit in a
*volatile* tail until ``sync()`` promotes them to the *durable*
prefix.  Metadata operations (``rename``, ``remove``, ``mkdir``)
behave like a journaled filesystem: atomic and immediately durable.

:class:`FaultFS` adds the crash machinery.  Every durability point —
each ``sync()`` and each ``rename()`` — increments a counter; when the
counter reaches ``fail_at``, the operation does *not* take effect and
:class:`PowerFailure` is raised.  From that moment the filesystem is
frozen (all further access raises), and :meth:`FaultFS.crashed_view`
reconstructs what a machine would find after reboot under a chosen
torn-write model:

* ``"drop"``    — every unsynced tail is lost entirely;
* ``"keep"``    — every unsynced tail survived (the OS got it out);
* ``"torn"``    — half of each unsynced tail survived (a torn write);
* ``"corrupt"`` — the tail survived but one byte flipped in flight.

A recovery procedure is correct iff it restores a state containing
every acknowledged (synced) write and nothing the op stream never
produced — under *all four* models at *every* crash point, which is
exactly what ``tests/test_lsm_durability.py`` enumerates.
"""

from __future__ import annotations

import threading

from ..lsm.fs import FileSystem, WritableFile


class PowerFailure(Exception):
    """The simulated machine lost power mid-operation."""


class _MemFile:
    __slots__ = ("durable", "volatile")

    def __init__(self) -> None:
        self.durable = b""
        self.volatile = bytearray()

    @property
    def content(self) -> bytes:
        return self.durable + bytes(self.volatile)

    def survivor(self, mode: str) -> bytes:
        """Post-crash content under one torn-write model."""
        tail = bytes(self.volatile)
        if mode == "drop" or not tail:
            return self.durable
        if mode == "keep":
            return self.durable + tail
        if mode == "torn":
            return self.durable + tail[: (len(tail) + 1) // 2]
        if mode == "corrupt":
            # Deterministic single-bit-ish damage: flip one byte in the
            # middle of the unsynced tail.
            i = len(tail) // 2
            return self.durable + tail[:i] + bytes([tail[i] ^ 0xA5]) + tail[i + 1 :]
        raise ValueError(f"unknown crash mode {mode!r}")


#: The torn-write models :meth:`FaultFS.crashed_view` accepts.
CRASH_MODES = ("drop", "keep", "torn", "corrupt")


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
                f.durable += bytes(f.volatile)
                f.volatile = bytearray()

    def close(self) -> None:
        self._open = False


class MemFS(FileSystem):
    """In-memory filesystem with an explicit durable/volatile split.

    Thread-safe: a background-mode LSM engine has its flusher and
    compactor writing tables and manifests while the writer thread
    appends WAL records, so every operation — including the durability
    point counter FaultFS layers on top — runs under one lock, which
    also gives crash injection a single global order across threads.
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


class FaultFS(MemFS):
    """MemFS that loses power at the ``fail_at``-th durability point."""

    def __init__(self, fail_at: int | None = None) -> None:
        super().__init__()
        self.fail_at = fail_at
        self.sync_points = 0
        self.crashed = False
        self.crash_label: str | None = None

    def _check_alive(self) -> None:
        if self.crashed:
            raise PowerFailure("filesystem is down (crash already injected)")

    def _durability_point(self, label: str) -> None:
        self.sync_points += 1
        if self.fail_at is not None and self.sync_points >= self.fail_at:
            self.crashed = True
            self.crash_label = label
            raise PowerFailure(f"power failure at point {self.sync_points}: {label}")

    def crashed_view(self, mode: str = "drop") -> MemFS:
        """The filesystem a rebooted machine would mount.

        Durable prefixes survive verbatim; each file's unsynced tail is
        transformed per ``mode`` (see module docstring).  The returned
        :class:`MemFS` is fully live — recovery code runs against it
        without further fault injection.
        """
        if mode not in CRASH_MODES:
            raise ValueError(f"unknown crash mode {mode!r}; choose {CRASH_MODES}")
        view = MemFS()
        with self._lock:
            view._dirs = set(self._dirs)
            for path, f in self._files.items():
                nf = _MemFile()
                nf.durable = f.survivor(mode)
                view._files[path] = nf
        return view
