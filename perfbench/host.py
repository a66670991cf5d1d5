"""Host stamp and resident-memory readings for a benchmark result."""

from __future__ import annotations

import os
import platform
import resource
from pathlib import Path
from typing import Dict, List, Optional


def git_sha(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``root/.git`` without running git
    (None when ``root`` is not a git work tree)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    except OSError:
        pass
    return None


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def stamp(root: Path) -> Dict[str, object]:
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "nproc": nproc(),
        "loadavg_1m_start": round(os.getloadavg()[0], 2),
    }


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _proc_tree(pid: int) -> List[int]:
    """``pid`` and every live descendant, found through ``/proc``."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after its ')'.
        fields = stat[stat.rfind(b")") + 2:].split()
        parents[int(entry)] = int(fields[1])
    tree = [pid]
    for current in tree:
        tree.extend(child for child, ppid in parents.items() if ppid == current)
    return tree


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident memory (VmHWM) of ``pid`` and its
    descendants, read while they are alive."""
    total_kb = 0
    for member in _proc_tree(pid):
        try:
            with open(f"/proc/{member}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0
