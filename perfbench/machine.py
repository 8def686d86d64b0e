"""Facts about the machine and build, recorded beside every result.

Everything is read from files or from the loaded libraries; nothing is
changed.  A fact that cannot be read is recorded as None.
"""

import ctypes
import os
import platform
import re
from pathlib import Path

import numpy as np

ENV_PATTERN = re.compile(r"(BLAS|OMP_|MKL_|GOTO_|VECLIB_|NUMEXPR_|TUBAL_)")
BLAS_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return None


def cpu_model():
    text = _read("/proc/cpuinfo") or ""
    match = re.search(r"^model name\s*:\s*(.+)$", text, re.MULTILINE)
    return match.group(1).strip() if match else platform.processor() or None


def caches():
    out = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        fields = [_read(index / name) for name in ("level", "type", "size")]
        if all(fields):
            level, kind, size = (f.strip() for f in fields)
            out.append(f"L{level} {kind} {size}")
    return out or None


def blas():
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError, AttributeError):
        return None


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, asked of the library itself."""
    maps = _read("/proc/self/maps") or ""
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit(root):
    """HEAD of the checkout, read from .git without running git."""
    git = Path(root) / ".git"
    head = _read(git / "HEAD")
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(git / ref)
    if direct:
        return direct.strip()
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def facts(root):
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas(),
        "blas_threads": blas_threads(),
        "env": {k: v for k, v in sorted(os.environ.items()) if ENV_PATTERN.search(k)},
        "git_commit": git_commit(root),
    }
