"""What the machine and the libraries were doing while a workload ran."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("NLTOMO_WORKERS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# share of the machine's CPU time used by other processes above which a run is not idle
IDLE_LIMIT = 0.05


def loadavg_1min() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def machine_busy_seconds() -> float | None:
    """CPU seconds all processes have used since boot, from /proc/stat."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
    except (OSError, IndexError):
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = (int(v) for v in fields[1:9])
    return (user + nice + system + irq + softirq + steal) / os.sysconf("SC_CLK_TCK")


def _openblas(lib_dir: str) -> dict | None:
    for path in glob.glob(os.path.join(lib_dir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.argtypes, config.argtypes = [], []
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                return {"threads": threads(), "config": config().decode()}
    return None


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def source_digest(src: Path) -> str:
    """sha256 over the program's source files, names and contents."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def record(root: Path, nl) -> dict:
    import numpy
    import scipy

    worker_count = getattr(nl.runner, "worker_count", None)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pool_size": worker_count() if worker_count else None,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "openblas_numpy": _openblas(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs")),
        "openblas_scipy": _openblas(os.path.join(os.path.dirname(scipy.__file__), "..", "scipy.libs")),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root / "src"),
    }


class OtherCpu:
    """Share of the machine's CPU time that other processes used since creation."""

    def __init__(self):
        self.start = time.perf_counter()
        self.busy = machine_busy_seconds()
        self.own = _own_cpu_seconds()

    def share(self) -> float | None:
        busy = machine_busy_seconds()
        if busy is None or self.busy is None:
            return None
        other = (busy - self.busy) - (_own_cpu_seconds() - self.own)
        return max(0.0, other) / ((time.perf_counter() - self.start) * (os.cpu_count() or 1))


def is_idle(share: float | None) -> bool:
    return share is None or share < IDLE_LIMIT


class MachineWatch:
    """Load average and other processes' CPU use around one workload."""

    def __init__(self):
        self.load_before = loadavg_1min()
        self.other = OtherCpu()

    def finish(self) -> dict:
        share = self.other.share()
        return {
            "loadavg_1min_before": self.load_before,
            "loadavg_1min_after": loadavg_1min(),
            "other_cpu_share": share,
            "idle": is_idle(share),
        }


def _own_cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total
