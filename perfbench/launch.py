"""Launching child interpreters and reading their resource use.

Operations start the way the ``sgbh`` console script does, in a fresh
interpreter with ``PYTHONPATH=src``, so no install is needed.  CPU time and
peak resident set come from ``os.wait4``; both include the pool workers a
child started and reaped.
"""

import json
import os
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

CLI_BOOT = "import sys; from sgbh.cli import main; sys.exit(main(sys.argv[1:]))"


@dataclass
class Exit:
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_command(argv):
    return [sys.executable, "-c", CLI_BOOT, *argv]


@contextmanager
def _watched(proc, deadline):
    """Kill ``proc`` at ``deadline`` (monotonic), and never leave it unreaped."""
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        yield
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()


def _wait4(proc):
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run(cmd, env, cwd, log_path, deadline):
    """Run ``cmd`` to completion; stdout and stderr go to ``log_path``."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=log, stderr=subprocess.STDOUT)
        with _watched(proc, deadline):
            usage = _wait4(proc)
        wall = time.perf_counter() - t0
    return Exit(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def run_until_ready(cmd, env, cwd, deadline):
    """Run a child that prints one ``ready <json>`` line when set up.

    Returns the time from launch to that line and the line's JSON payload.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE)
    with proc.stdout, _watched(proc, deadline):
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        _wait4(proc)
    tag, _, payload = line.decode().partition(" ")
    if proc.returncode != 0 or tag != "ready":
        raise RuntimeError(f"set-up probe exited {proc.returncode} after {line!r}")
    return ready, json.loads(payload)
