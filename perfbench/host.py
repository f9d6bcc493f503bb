"""Host facts the benchmark records and guards it enforces.

* :func:`fingerprint` ties every result to the machine and source tree
  that produced it.
* :func:`peak_rss_mb` sums the high-water RSS of this process and every
  process it started (workers, hosts, the multiprocessing helpers).
* :class:`LeakGuard` asserts that a stack leaves no shared-memory
  segment and no worker or host process behind once it is closed.
"""

from __future__ import annotations

import hashlib
import os
import platform
import time
from pathlib import Path
from typing import Dict, List, Optional, Set

SHM_DIR = Path("/dev/shm")

#: Command-line markers of the multiprocessing helper processes, which
#: live for the whole client process rather than for one stack.
_HELPER_MARKERS = ("multiprocessing.forkserver", "multiprocessing.resource_tracker")


def _git_commit(root: Path) -> Optional[str]:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    try:
        return (root / ".git" / ref[5:]).read_text().strip()
    except OSError:
        packed = root / ".git" / "packed-refs"
        try:
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        except OSError:
            pass
    return None


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(root: Path) -> Dict[str, object]:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
    }


def cpu_times() -> List[int]:
    """The host's aggregate CPU jiffies (user ... steal) from /proc/stat."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:9]
    except OSError:
        return [0] * 8
    return [int(value) for value in fields]


def cpu_shares(before: List[int], after: List[int]) -> tuple:
    """``(busy, stolen)`` shares of host CPU time between two snapshots;
    time stolen by the hypervisor slows every timed number of a run."""
    delta = [b - a for a, b in zip(before, after)]
    total = max(1, sum(delta))
    return (total - delta[3] - delta[4] - delta[7]) / total, delta[7] / total


def _proc_table() -> Dict[int, tuple]:
    """pid -> (ppid, state) for every visible process."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2 :].split()
        table[int(entry)] = (int(fields[1]), fields[0])
    return table


def descendants() -> List[int]:
    """Live (non-zombie) processes descended from this one."""
    table = _proc_table()
    children: Dict[int, List[int]] = {}
    for pid, (ppid, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    found, stack = [], [os.getpid()]
    while stack:
        for child in children.get(stack.pop(), ()):
            stack.append(child)
            if table[child][1] != "Z":
                found.append(child)
    return found


def _is_helper(pid: int) -> bool:
    try:
        cmdline = Path(f"/proc/{pid}/cmdline").read_bytes().decode(errors="replace")
    except OSError:
        return False
    return any(marker in cmdline for marker in _HELPER_MARKERS)


def _vm_hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Summed high-water RSS of this process and all its descendants."""
    pids = [os.getpid()] + descendants()
    return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0


def shm_segments() -> Set[str]:
    try:
        return {name for name in os.listdir(SHM_DIR) if name.startswith("psm_")}
    except OSError:
        return set()


class LeakGuard:
    """Snapshot before a stack is built; :meth:`check` after it closes.

    Returns a list of human-readable leaks (empty when clean).  Process
    exit is polled for a short grace period, because a closed pool may
    still be reaping its last worker when ``close`` returns.
    """

    def __init__(self) -> None:
        self._shm = shm_segments()
        self._procs = set(descendants())

    def check(self, grace_s: float = 5.0) -> List[str]:
        deadline = time.monotonic() + grace_s
        while True:
            procs = [
                pid
                for pid in descendants()
                if pid not in self._procs and not _is_helper(pid)
            ]
            shm = sorted(shm_segments() - self._shm)
            if (not procs and not shm) or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        leaks = [f"process {pid} outlived its stack" for pid in procs]
        leaks += [f"shared-memory segment {name} outlived its stack" for name in shm]
        return leaks


def stop_helpers() -> List[str]:
    """Stop the multiprocessing helper processes and wait for them.

    Returns any descendant still alive afterwards (a leak).
    """
    from multiprocessing import forkserver, resource_tracker

    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + 5.0
    while descendants() and time.monotonic() < deadline:
        time.sleep(0.05)
    return [f"process {pid} outlived the benchmark" for pid in descendants()]
