"""Running the `mflqg` CLI in child processes, one at a time.

Each child is timed by wall clock from spawn to reap, and its peak
resident set size comes from `os.wait4`. BLAS and OpenMP are held to one
thread in every child so that timings do not depend on how many cores a
neighbour happens to leave free.
"""
from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# a child still running after this long is killed and counted as failed
CHILD_TIMEOUT_S = 120.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass(frozen=True)
class Child:
    exit_code: int
    wall_s: float
    maxrss_mib: float
    log: Path


def run_child(argv: list[str], log: Path) -> Child:
    """Run `python <argv>` to completion; stdout and stderr go to `log`."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, log)


def exit_problems(child: Child) -> list[str]:
    return [] if child.exit_code == 0 else [f"exit code {child.exit_code}"]
