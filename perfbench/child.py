"""Run one CLI invocation as a child process and measure it from outside."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class ChildResult:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str
    stderr: str
    timed_out: bool


def run_cli(src: str, argv: tuple[str, ...]) -> ChildResult:
    """Time ``python -m polarrep.cli <argv> --reproducible`` with ``src`` on the path.

    OpenBLAS runs one thread, so a child keeps to one core.

    Peak memory is this child's own max-RSS from ``os.wait4``;
    ``RUSAGE_CHILDREN`` would give a running maximum over every child reaped
    so far instead.
    """
    env = dict(os.environ)
    # polarrep makes no BLAS call, so OpenBLAS's thread pool only costs start
    # time, which then depends on whether the other core is free.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "polarrep.cli", *argv, "--reproducible"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    err: list[bytes] = []
    err_reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    killer.start()
    err_reader.start()
    try:
        out = proc.stdout.read()
        err_reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        code = proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        err_reader.join()
        proc.stdout.close()
        proc.stderr.close()
    return ChildResult(
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024,
        exit_code=code,
        stdout=out.decode(),
        stderr=b"".join(err).decode(errors="replace"),
        timed_out=code == -9 and wall >= CHILD_TIMEOUT_S,
    )
