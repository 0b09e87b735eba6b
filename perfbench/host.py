"""Host fingerprint, BLAS thread pinning and process-tree memory.

The BLAS pin is a host setting made by the benchmark for every process
it starts: with OpenBLAS free to pick its thread count, a fresh process
on a 2-core host sometimes lands in a mode where one small solve takes
about 100x longer, and stays there.  The program itself does not pin
(an open ROADMAP item); ``blas.unpinned_*`` in the traced run keeps the
defect visible.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path
from typing import Dict, List, Optional

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: thread-count getters exported by the OpenBLAS builds numpy ships with
_BLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads",
)


def pin_blas(env: Dict[str, str]) -> Dict[str, str]:
    """Set every BLAS thread variable of ``env`` to 1; returns ``env``."""
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def child_env(root: Path, *, pinned: bool = True) -> Dict[str, str]:
    """Environment of a program process started by the benchmark.

    ``PYTHONPATH`` points at the checkout's sources (and the checkout
    itself, for the benchmark's own probe scripts).
    """
    env = dict(os.environ)
    if pinned:
        pin_blas(env)
    else:
        for var in BLAS_THREAD_VARS:
            env.pop(var, None)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    return env


def blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS loaded in this process, if known."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {
                line.split()[-1]
                for line in fh
                if "blas" in line.lower() and line.rstrip().split()[-1].startswith("/")
            }
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(seed: int, loadavg: List[float]) -> Dict[str, object]:
    """What a reader needs to compare this run's numbers with another's."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": loadavg,
        "seed": seed,
    }


def _children_map() -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                stat = fh.read()
        except OSError:
            continue  # exited while we looked
        # the command name may hold spaces and parentheses: split after it
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    return children


def process_tree(pid: int) -> List[int]:
    """``pid`` and every live descendant of it."""
    children = _children_map()
    tree, todo = [], [pid]
    while todo:
        current = todo.pop()
        tree.append(current)
        todo.extend(children.get(current, ()))
    return tree


def vm_hwm_kib(pid: int) -> int:
    """Peak resident set size of one process in KiB (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Summed ``VmHWM`` of a process and all its descendants, in MiB.

    Read it while the descendants (pool workers, servers) still run:
    they are never reaped by this process, so ``RUSAGE_CHILDREN``
    would not see them.
    """
    root = os.getpid() if pid is None else pid
    return sum(vm_hwm_kib(p) for p in process_tree(root)) / 1024.0

