"""Run CLI jobs in fresh interpreters, each with a timeout and its own rusage.

Jobs are started by a small spawner process (`python3 jobs.py`, driven
over stdin/stdout by `Spawner`). On exec, Linux keeps the peak RSS of the
address space the new program replaces, so a job forked straight from
the harness, which holds the workload's tables and oracles, would report
the harness's peak as its own. The spawner stays small, so a job's
max-RSS is the job's.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional


@dataclass
class JobRun:
    wall_s: float
    exit_status: int  # -9 when killed on timeout
    timed_out: bool
    max_rss_mb: float
    started: float  # time.monotonic() just before the spawn
    stdout: bytes = b""


def run_process(argv: List[str], env: dict, cwd: str, out_path: str,
                timeout_s: float) -> JobRun:
    """Start argv, wait for it with os.wait4 (for its own max-RSS), and kill
    it if it outlives timeout_s. Stdout goes to out_path, stderr is dropped."""
    state = {"done": False, "killed": False}
    lock = threading.Lock()
    with open(out_path, "wb") as out:
        started = time.monotonic()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                stdin=subprocess.DEVNULL, cwd=cwd, env=env)

        def kill() -> None:
            with lock:
                if not state["done"]:
                    proc.kill()
                    state["killed"] = True

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            with lock:
                state["done"] = True
                proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
    return JobRun(wall_s=wall, exit_status=proc.returncode,
                  timed_out=state["killed"], max_rss_mb=usage.ru_maxrss / 1024.0,
                  started=started)


class Spawner:
    """Client of the spawner process; close() stops it and waits for it.
    The spawner leads its own process group, so close() can stop a job
    still running when the harness gives up."""

    def __init__(self, env: dict):
        self.env = env
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True)

    def run(self, argv: List[str], cwd: Path, out_path: Path, timeout_s: float) -> JobRun:
        request = {"argv": argv, "env": self.env, "cwd": str(cwd),
                   "out": str(out_path), "timeout": timeout_s}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("job spawner exited")
        run = JobRun(**json.loads(reply))
        run.stdout = out_path.read_bytes()
        return run

    def close(self) -> None:
        self.proc.stdin.close()  # an idle spawner exits on end of input
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()


def job_failure(run: JobRun, check) -> Optional[str]:
    """Why a finished job counts as failed, or None when its answer is right."""
    if run.timed_out:
        return "timed out after %.1f s" % run.wall_s
    try:
        return check(run.stdout, run.exit_status)
    except Exception as exc:  # a malformed answer must fail the job, not the run
        return "answer check raised %s: %s" % (type(exc).__name__, exc)


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        run = run_process(req["argv"], req["env"], req["cwd"], req["out"], req["timeout"])
        reply = dict(vars(run))
        del reply["stdout"]
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
