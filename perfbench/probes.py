"""Process-level probes that need nothing beyond the standard library.

Wall time, peak RSS and CPU time of a child come from ``os.wait4``; import
costs come from the interpreter's ``-X importtime`` report.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import platform
import subprocess
import sys
import threading
import time

CHILD_TIMEOUT_S = 120.0


@dataclasses.dataclass(frozen=True)
class ChildRun:
    returncode: int
    wall_s: float
    cpu_s: float  # user + system
    peak_rss_mb: float
    stderr: str


def cli_env(root: str) -> dict[str, str]:
    """Environment for ``python -m partsel.cli`` against the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_child(argv: list[str], cwd: str, env: dict[str, str]) -> ChildRun:
    """Run ``argv`` to completion; time it from spawn to exit and read its rusage."""
    err_path = os.path.join(cwd, f".stderr-{os.getpid()}")
    with open(err_path, "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    os.remove(err_path)
    return ChildRun(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stderr=stderr,
    )


def import_times(cwd: str, env: dict[str, str]) -> dict[str, float]:
    """Cumulative import seconds of ``partsel.cli`` and its heavy dependencies.

    ``cli`` is the whole cost of ``import partsel.cli``, whose entry
    includes the ``partsel`` package it imports first. A module the import no
    longer loads reports 0.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import partsel.cli"],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    cumulative: dict[str, float] = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the column header
        name = fields[2].strip()
        cumulative.setdefault(name, int(fields[1]) / 1e6)
    return {
        "cli": cumulative.get("partsel.cli", 0.0),
        "baselines": cumulative.get("partsel.baselines", 0.0),
        "numpy": cumulative.get("numpy", 0.0),
        "click": cumulative.get("click", 0.0),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(module: str) -> str | None:
    from importlib import metadata

    try:
        return metadata.version(module)
    except metadata.PackageNotFoundError:
        return None


def _git_commit(root: str) -> str | None:
    # Only ask git inside a clone, so it never reports an enclosing repository.
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() or None


def _source_digest(root: str) -> str:
    """sha256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "partsel")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def environment(root: str, traced: bool, cli_threads: int | None) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "click": _version("click"),
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root),
        "cli_default_threads": cli_threads,
        "traced": traced,
    }
