"""CPU time and peak memory of this process and every process below it,
read from /proc (psutil is not available).

A Ray session started by this process forms one tree: gcs_server, raylet
and the dashboard/log helpers are its children, and every task or actor
worker is a child of the raylet. Summing over the tree therefore
charges the whole cluster's CPU to the workload that ran on it.
"""

from __future__ import annotations

import os
import signal
import time

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    """Fields after the ``(comm)`` of /proc/<pid>/stat: [0] is the state,
    [1] the parent pid, [11]/[12] utime/stime in clock ticks."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def tree_pids(root: int | None = None) -> list[int]:
    """``root`` (default: this process) and all its live descendants."""
    root = os.getpid() if root is None else root
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat_fields(int(name))
        if fields is not None and fields[0] != "Z":
            kids.setdefault(int(fields[1]), []).append(int(name))
    out, i = [root], 0
    while i < len(out):
        out.extend(kids.get(out[i], ()))
        i += 1
    return out


def cpu_seconds(pids: list[int]) -> dict[int, float]:
    """utime+stime per pid (all threads, alive or exited)."""
    out = {}
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            out[pid] = (int(fields[11]) + int(fields[12])) / _TICK
    return out


class CpuMeter:
    """CPU burnt by the process tree between ``start`` and ``stop``.

    A process that exits inside the window loses its share since
    ``start``; the measured phases keep their worker fleets alive, so
    only short-lived helpers can fall through."""

    def __init__(self):
        self._t0: dict[int, float] = {}
        self.seconds = 0.0

    def start(self) -> None:
        self._t0 = cpu_seconds(tree_pids())

    def stop(self) -> float:
        now = cpu_seconds(tree_pids())
        delta = sum(v - self._t0.get(pid, 0.0) for pid, v in now.items())
        self.seconds += delta
        return delta


def peak_rss_mib(pids: list[int] | None = None) -> float:
    """Sum of VmHWM (peak resident set) over the tree, in MiB."""
    total_kb = 0
    for pid in tree_pids() if pids is None else pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def reap_children() -> None:
    """Collect exit statuses of finished direct children (no zombies)."""
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_descendants(timeout_s: float = 20.0) -> int:
    """Wait until no descendant of this process is left, killing any that
    outlive ``timeout_s``. Returns how many had to be killed."""
    me = os.getpid()
    deadline = time.monotonic() + timeout_s
    while True:
        reap_children()
        left = [p for p in tree_pids() if p != me]
        if not left:
            return 0
        if time.monotonic() > deadline:
            break
        time.sleep(0.1)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    end = time.monotonic() + 10.0
    while [p for p in tree_pids() if p != me] and time.monotonic() < end:
        reap_children()
        time.sleep(0.05)
    return len(left)
