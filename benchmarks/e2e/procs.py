"""Process handling for the ledger benchmark.

Servers run as separate OS processes started through the shipped CLIs
(``python -m repro.server serve`` / ``python -m repro.cluster node``),
so they never share a GIL with the load generator.  Everything a
server needs to be measured from outside lives here: free ports,
readiness by connect-retry, SIGTERM-then-kill teardown, and the
``/proc/<pid>`` readers behind ``server.cpu_frac``, ``rss_peak_mb``
and ``lsm.disk_write_bytes_per_put``.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time

HOST = "127.0.0.1"
SRC_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
)
READY_TIMEOUT = 30.0
TERM_TIMEOUT = 20.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def child_env() -> dict[str, str]:
    """Environment for every child interpreter: the checkout's own
    ``src`` first on the path, unbuffered output."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + extra if extra else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


class ServerProcess:
    """One server OS process.  Its output goes to a log file in the
    work directory, so the pipe can never fill and block the child."""

    def __init__(self, name: str, module_args: list[str], port: int, log_dir: str):
        self.name = name
        self.port = port
        self._argv = [sys.executable, "-m", *module_args]
        self._log_path = os.path.join(log_dir, f"{name}.log")
        self.proc: subprocess.Popen | None = None

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def start(self) -> "ServerProcess":
        with open(self._log_path, "ab") as log:
            self.proc = subprocess.Popen(
                self._argv, stdout=log, stderr=subprocess.STDOUT, env=child_env()
            )
        return self

    def wait_ready(self, timeout: float = READY_TIMEOUT) -> None:
        """Connect-retry until the port accepts, or the child dies."""
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"{self.name} exited with {self.proc.returncode} before "
                    f"listening: {self.log_tail()}"
                )
            try:
                socket.create_connection((HOST, self.port), timeout=1.0).close()
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise TimeoutError(f"{self.name} never listened on {self.port}")
                time.sleep(0.01)

    def log_tail(self, n_bytes: int = 2000) -> str:
        try:
            with open(self._log_path, "rb") as log:
                log.seek(0, os.SEEK_END)
                log.seek(max(0, log.tell() - n_bytes))
                return log.read().decode("utf-8", "replace")
        except OSError:
            return ""

    def kill(self) -> None:
        """SIGKILL and reap (the crash half of the recovery check)."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        if self.proc is not None:
            self.proc.wait()

    def stop(self) -> None:
        """Graceful drain: SIGTERM, then SIGKILL if it overstays."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=TERM_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()


# -- /proc readers -----------------------------------------------------------
#
# Each returns None when the file is unreadable (a hardened container,
# a process that just exited): the metric is then reported as
# unavailable instead of failing the run.


def cpu_seconds(pid: int) -> float | None:
    """utime + stime of ``pid``, all threads."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK
    except (OSError, IndexError, ValueError):
        return None


def peak_rss_mb(pid: int) -> float | None:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, IndexError, ValueError):
        pass
    return None


def io_write_bytes(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/io") as fh:
            for line in fh:
                if line.startswith("write_bytes:"):
                    return int(line.split()[1])
    except (OSError, IndexError, ValueError):
        pass
    return None


def dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass  # compaction unlinked it between listing and stat
    return total
