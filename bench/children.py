"""Child interpreters: pqlambert CLI processes, import probes and the
``-X importtime`` parse.

Every child runs with ``PQLAMBERT_THREADS`` removed from its environment
and ``PYTHONPATH`` pointing at the checkout's ``src``, one at a time, and
is reaped with ``os.wait4`` so its peak resident set size is known.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# same entry point as the installed `pqlambert` console script
LAUNCH = ("import sys; from pqlambert.cli import main; "
          "sys.argv[0] = 'pqlambert'; main()")


def child_env(src: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PQLAMBERT_THREADS", "PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class ChildResult:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kb: int


def run(cmd: list[str], src: str, tmp: str, timeout: float = 170.0) -> ChildResult:
    """Run one child to completion; stdout and stderr go through files in
    ``tmp`` so a large output cannot block the pipe."""
    out_path, err_path = os.path.join(tmp, "child.out"), os.path.join(tmp, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(src))
        deadline = t0 + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return ChildResult(proc.returncode, stdout, stderr, wall, usage.ru_maxrss)


def cli(argv, src: str, tmp: str) -> ChildResult:
    return run([sys.executable, "-c", LAUNCH, *argv], src, tmp)


def traced_cli(argv, src: str, tmp: str, spans_out: str) -> ChildResult:
    return run([sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"), spans_out, *argv],
               src, tmp)


def timed_import(statements: str, src: str, tmp: str) -> float:
    """Seconds a fresh interpreter spends on ``statements`` (imports plus
    any warm-up calls), measured inside the child."""
    code = ("import time; _t = time.perf_counter()\n" + statements +
            "\nprint(repr(time.perf_counter() - _t))")
    res = run([sys.executable, "-c", code], src, tmp)
    if res.code != 0:
        raise RuntimeError(f"set-up probe failed: {res.stderr.strip()[-300:]}")
    return float(res.stdout.strip().splitlines()[-1])


IMPORTTIME_MODULES = ("pqlambert", "scipy.integrate", "numpy", "click")


def import_times(src: str, tmp: str) -> dict:
    """Cumulative import time in microseconds of each module in
    IMPORTTIME_MODULES during ``import pqlambert.cli``."""
    res = run([sys.executable, "-X", "importtime", "-c", "import pqlambert.cli"], src, tmp)
    if res.code != 0:
        raise RuntimeError(f"importtime probe failed: {res.stderr.strip()[-300:]}")
    out = {}
    for line in res.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        if name in IMPORTTIME_MODULES and name not in out:
            out[name] = int(parts[1].strip())
    return out
