"""Fault-injecting filesystem: power failures at every durability point.

:class:`~repro.lsm.fs.MemFS` (re-exported here) keeps files in memory
and models the durable/volatile split of a real disk: appended bytes
sit in a *volatile* tail until ``sync()`` promotes them to the
*durable* prefix, and metadata operations are atomic and immediately
durable.

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

from ..lsm.fs import MemFS, _MemFile  # noqa: F401  (MemFS re-exported)


class PowerFailure(Exception):
    """The simulated machine lost power mid-operation."""


#: The torn-write models :meth:`FaultFS.crashed_view` accepts.
CRASH_MODES = ("drop", "keep", "torn", "corrupt")


def _survivor(f: _MemFile, mode: str) -> bytes:
    """A file's post-crash content under one torn-write model."""
    tail = bytes(f.volatile)
    if mode == "drop" or not tail:
        return f.synced
    if mode == "keep":
        return f.synced + tail
    if mode == "torn":
        return f.synced + tail[: (len(tail) + 1) // 2]
    if mode == "corrupt":
        # Deterministic single-bit-ish damage: flip one byte in the
        # middle of the unsynced tail.
        i = len(tail) // 2
        return f.synced + tail[:i] + bytes([tail[i] ^ 0xA5]) + tail[i + 1 :]
    raise ValueError(f"unknown crash mode {mode!r}")


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
                nf.synced = _survivor(f, mode)
                view._files[path] = nf
        return view
