"""Where a number came from: commit, interpreter, host, and the
constructor defaults in force — recorded with every run so a result can
never be quoted without the path that produced it."""

from __future__ import annotations

import inspect
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict


def _git(root: Path, *args: str) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def constructor_defaults(cls) -> Dict[str, str]:
    """The defaults a caller who passes nothing gets, as the public
    signature states them."""
    return {
        name: repr(p.default)
        for name, p in inspect.signature(cls.__init__).parameters.items()
        if p.default is not inspect.Parameter.empty
    }


def collect(root: Path) -> Dict[str, Any]:
    import numpy

    from repro.sched import DevicePool
    from repro.serve import Server

    sha = _git(root, "rev-parse", "HEAD")
    return {
        # An exported checkout (the benchmark driver's) is not a git
        # repository; say so rather than guess.
        "git_sha": sha or "unknown",
        "git_dirty": bool(_git(root, "status", "--porcelain")) if sha else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "argv": sys.argv[1:],
        "server_defaults": constructor_defaults(Server),
        "device_pool_defaults": constructor_defaults(DevicePool),
    }
