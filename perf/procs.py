"""Scratch directory, child processes and environment probes.

One ``Scratch`` owns everything a run leaves on the machine: a single
temp root that holds every data dir, and every child process.  Leaving
the ``with`` block — normally, on an exception, on Ctrl-C or SIGTERM —
SIGKILLs the children, waits for them, and removes the root.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

from perf.stats import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Filesystems whose fsync touches no device; numbers taken on them are
#: not what the benchmark claims to measure.
MEMORY_FILESYSTEMS = frozenset({"tmpfs", "ramfs", "devtmpfs"})

_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    # Runs in the child between fork and exec: if the benchmark itself
    # is SIGKILLed (a driver timeout) the kernel kills the daemon too,
    # so not even that path leaves a listener behind.
    ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


def child_env() -> Dict[str, str]:
    """The environment daemons and workers run in: this checkout's
    ``src`` first on the path, never an installed copy."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, ROOT] + ([extra] if extra else [])
    )
    return env


class Scratch:
    """The run's temp root and child processes (a context manager)."""

    def __init__(self, workdir: Optional[str] = None) -> None:
        #: The default parent is the benchmark's own; it is removed
        #: again when this run was the last to use it.
        self._own_base = None if workdir is not None else os.path.join(
            ROOT, "perf", ".work"
        )
        base = workdir if workdir is not None else self._own_base
        os.makedirs(base, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="run-", dir=base)
        self.children: List["subprocess.Popen[bytes]"] = []
        self._previous_sigterm: Any = None

    def __enter__(self) -> "Scratch":
        def on_sigterm(_signum: int, _frame: object) -> None:
            raise SystemExit(143)

        self._previous_sigterm = signal.signal(signal.SIGTERM, on_sigterm)
        return self

    def __exit__(self, *exc: object) -> None:
        try:
            self.kill_all()
        finally:
            shutil.rmtree(self.root, ignore_errors=True)
            if self._own_base is not None:
                try:
                    os.rmdir(self._own_base)
                except OSError:
                    pass  # another run's root is still in it
            signal.signal(signal.SIGTERM, self._previous_sigterm)

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def fresh_dir(self, name: str) -> str:
        path = self.path(name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def spawn(self, args: Sequence[str], log_name: str,
              piped: bool = False) -> "subprocess.Popen[bytes]":
        """Start a tracked child.  Its stderr (and stdout, unless
        ``piped`` connects stdin/stdout to the caller) goes to a log
        file in the scratch root, shown when the child fails."""
        with open(self.path(log_name + ".log"), "ab") as log:
            proc = subprocess.Popen(
                list(args), env=child_env(), cwd=ROOT,
                preexec_fn=_die_with_parent,
                stdin=subprocess.PIPE if piped else subprocess.DEVNULL,
                stdout=subprocess.PIPE if piped else log,
                stderr=log,
            )
        self.children.append(proc)
        return proc

    def kill(self, proc: "subprocess.Popen[bytes]") -> None:
        """SIGKILL one child and reap it."""
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()
        if proc in self.children:
            self.children.remove(proc)

    def kill_all(self) -> None:
        for proc in list(self.children):
            self.kill(proc)

    def log_tail(self, log_name: str, lines: int = 15) -> str:
        try:
            with open(self.path(log_name + ".log"), "r",
                      encoding="utf-8", errors="replace") as handle:
                return "".join(handle.readlines()[-lines:])
        except OSError:
            return ""


class Daemon:
    """One ``python -m repro serve`` subprocess over a data dir."""

    START_TIMEOUT_S = 60.0

    def __init__(self, scratch: Scratch, name: str, store: str,
                 extra: Sequence[str] = ()) -> None:
        self.scratch = scratch
        self.name = name
        self.data_dir = scratch.path(name)
        self.port_file = scratch.path(name + ".port")
        self.command = [
            sys.executable, "-m", "repro", "serve",
            "--data-dir", self.data_dir, "--store", store,
            "--no-http", "--port-file", self.port_file, *extra,
        ]
        self.proc: Optional["subprocess.Popen[bytes]"] = None
        self.port = 0

    def start(self) -> "Daemon":
        """Launch and wait for the port file (written once the listener
        is open, i.e. after supervised start-up recovery)."""
        if os.path.exists(self.port_file):
            os.unlink(self.port_file)
        self.proc = self.scratch.spawn(self.command, self.name)
        deadline = time.monotonic() + self.START_TIMEOUT_S
        while not os.path.exists(self.port_file):
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon {self.name} exited {self.proc.returncode} at "
                    f"start-up:\n{self.scratch.log_tail(self.name)}"
                )
            if time.monotonic() > deadline:
                raise RuntimeError(f"daemon {self.name} never opened a port")
            time.sleep(0.002)
        with open(self.port_file, "r", encoding="utf-8") as handle:
            self.port = json.load(handle)["port"]
        return self

    def sigkill(self) -> None:
        assert self.proc is not None
        self.scratch.kill(self.proc)
        self.proc = None

    def sigterm_drain(self) -> None:
        """Graceful stop; the daemon must exit 0."""
        assert self.proc is not None
        self.proc.send_signal(signal.SIGTERM)
        status = self.proc.wait(timeout=60)
        self.scratch.children.remove(self.proc)
        self.proc = None
        if status != 0:
            raise RuntimeError(
                f"daemon {self.name} drained with status {status}:\n"
                f"{self.scratch.log_tail(self.name)}"
            )

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        return peak_rss_mb(self.proc.pid)


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------
def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def dir_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass  # a temp file renamed away mid-walk
    return total


def file_bytes(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def fsync_ref_ms(directory: str, count: int = 300) -> float:
    """Median milliseconds of a raw 128-byte append + fsync in
    ``directory``: the device floor the WAL force sits on, taken before
    and after each workload so drift in the disk shows as drift."""
    path = os.path.join(directory, "fsync-ref.bin")
    block = b"\0" * 128
    samples = []
    with open(path, "ab") as handle:
        for _ in range(count):
            start = time.perf_counter()
            handle.write(block)
            handle.flush()
            os.fsync(handle.fileno())
            samples.append(time.perf_counter() - start)
    os.unlink(path)
    return median(samples) * 1e3


def filesystem_type(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (longest mount
    point that prefixes it)."""
    path = os.path.realpath(path)
    best, best_type = "", "unknown"
    try:
        with open("/proc/mounts", "r", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                prefix = mount if mount.endswith("/") else mount + "/"
                if (path + "/").startswith(prefix) and len(mount) > len(best):
                    best, best_type = mount, fields[2]
    except OSError:
        pass
    return best_type


def git_commit() -> str:
    """The checkout's commit, or ``unknown`` (the driver's checkout is
    not a git repository)."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(workdir: str, seed: int) -> Dict[str, Any]:
    """What a reader needs to judge whether two result files compare."""
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "filesystem": filesystem_type(workdir),
        "git_commit": git_commit(),
    }
