"""rigikit benchmark: time to verified CLI results, one fresh process per job.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The workload's inputs are made
from the seed; each job is one `python -m rigikit ...` process, run one
at a time, and every answer is checked (see workloads.py). After one
whole pass over the job list, jobs go on in the same order, round and
round, until S seconds have gone by; a job is never cut short. The last
line of stdout is a JSON object with the keys correct, attempted, failed
and metrics.

--trace 0 reports the end-to-end metrics: setup_s (median cold start of
`import rigikit.cli` in a fresh interpreter, sampled before the jobs and
again before each job), wall_s (sum over the job list of each job's
median wall time), both divided by `slowdown`, which reference.py
gauges, and peak_rss_mb (largest max-RSS of any job).
--trace 1 makes one pass, running each job untraced and then traced
(tracer.py); it requires byte-identical stdout and reports the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

import jobs
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

JOB_TIMEOUT_S = 60.0  # the slowest job takes about 22 s untraced on 2 cores
RUN_BUDGET_S = 160.0  # jobs still unstarted after this count as failed
SETUP_SAMPLES = 5  # cold starts before the jobs; one more before each job
COLD_START = "import rigikit.cli, time; print(repr(time.monotonic()))"
REFERENCE = "reference.py"  # fixed workload that gauges the machine (see `slowdown`)
REFERENCE_ANSWER = b"50616 84266897\n"
REFERENCE_NOMINAL_S = 0.3  # its wall time on the 2-vCPU Xeon of baseline.json

PLAIN = [sys.executable, "-m", "rigikit"]



def traced_prefix(spans: Path, job_id: str) -> list:
    return [sys.executable, str(HERE / "tracer.py"), str(spans), job_id, "--"]


# per-verb sums reported alongside wall_s
VERB_GROUPS = {
    "validate_s": ("validate",),
    "query_s": ("structconst", "rigid"),
    "rank1_s": ("dl", "dualsym"),
}


def fail(msg: str) -> None:
    print("perfbench: %s" % msg, file=sys.stderr)
    sys.exit(2)


def job_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Runner:
    """Runs jobs one at a time under a per-job timeout and a run budget."""

    def __init__(self, spawner, work: Path, started: float,
                 job_timeout_s: float = JOB_TIMEOUT_S):
        self.spawner = spawner
        self.work = work
        self.deadline = started + RUN_BUDGET_S
        self.job_timeout_s = job_timeout_s
        self.attempted = 0
        self.failures = []

    @property
    def fail_ratio(self) -> float:
        return len(self.failures) / max(self.attempted, 1)

    def run(self, job, argv_prefix, tag: str, same_stdout_as=None):
        """Run and check one job; same_stdout_as is a run whose stdout this
        one must repeat byte for byte."""
        self.attempted += 1
        left = self.deadline - time.monotonic()
        if left < 1.0:
            self.failures.append("%s [%s]: not started, run budget spent" % (job.id, tag))
            return None
        out_path = self.work / ("%s.%s.out" % (job.id.replace(":", "_"), tag))
        run = self.spawner.run(argv_prefix + job.args, self.work, out_path,
                               min(self.job_timeout_s, left))
        why = jobs.job_failure(run, job.check)
        if not why and same_stdout_as is not None and run.stdout != same_stdout_as.stdout:
            why = "stdout differs from the untraced run"
        if why:
            self.failures.append("%s [%s]: %s" % (job.id, tag, why))
        print("%-44s %-7s %8.3f s  %6.1f MB  %s" % (job.id, tag, run.wall_s,
              run.max_rss_mb, "ok" if not why else "FAIL " + why), file=sys.stderr)
        return run

    def cold_start(self) -> float:
        """Seconds from spawning a fresh interpreter until `import
        rigikit.cli` returns, read off the shared monotonic clock."""
        run = self.spawner.run([sys.executable, "-c", COLD_START], self.work,
                               self.work / "cold_start.out", JOB_TIMEOUT_S)
        if run.exit_status != 0:
            raise RuntimeError("python -c 'import rigikit.cli' failed")
        return float(run.stdout) - run.started

    def reference(self) -> float:
        """Wall seconds of reference.py in a fresh interpreter."""
        run = self.spawner.run([sys.executable, str(HERE / REFERENCE)], self.work,
                               self.work / "reference.out", JOB_TIMEOUT_S)
        if run.exit_status != 0 or run.stdout != REFERENCE_ANSWER:
            raise RuntimeError("%s failed or printed a wrong checksum" % REFERENCE)
        return run.wall_s


def measure(job_list, runner: Runner, seconds: float, traced: bool) -> dict:
    """One pass over the job list, then (untraced) more jobs in the same
    order, round and round, until `seconds` have gone by; a job is never
    cut short. A traced run makes one pass. After the first pass a job
    starts only if a run half again as slow as its last fits in the run
    budget."""
    walls = {j.id: [] for j in job_list}
    traced_walls = {j.id: [] for j in job_list}
    rss = []
    setup = [runner.cold_start() for _ in range(SETUP_SAMPLES + 1)][1:]  # first warms caches
    reference = []
    span_files = []
    t0 = time.monotonic()
    for n in itertools.count():
        job = job_list[n % len(job_list)]
        if n >= len(job_list):
            now = time.monotonic()
            last = walls[job.id][-1] if walls[job.id] else 0.0
            if traced or now - t0 >= seconds or now + 1.5 * last >= runner.deadline:
                break
        reference.append(runner.reference())
        if not traced:
            setup.append(runner.cold_start())
        plain = runner.run(job, PLAIN, "plain")
        if plain is None:
            continue
        walls[job.id].append(plain.wall_s)
        rss.append(plain.max_rss_mb)
        if not traced:
            continue
        spans = runner.work / ("spans.%s.json" % job.id.replace(":", "_"))
        run = runner.run(job, traced_prefix(spans, job.id), "traced", same_stdout_as=plain)
        if run is None:
            continue
        traced_walls[job.id].append(run.wall_s)
        if spans.exists():
            span_files.append(spans)
    reference.append(runner.reference())
    return {"walls": walls, "traced_walls": traced_walls, "rss": rss, "setup": setup,
            "reference": reference, "span_files": span_files}


def slowdown(m: dict) -> float:
    """The factor job and cold-start times are divided by: the square root of the mean
    reference.py time over REFERENCE_NOMINAL_S.

    A shared machine's speed drifts, CPU time as much as wall time. The
    reference drifts with it only in part, as it runs at other moments
    than the jobs; the square root halves the drift (on a log scale)
    while adding half the reference's own noise (README.md has the
    measurements). No change to the program moves the reference, so a
    program change moves wall_s in full."""
    return math.sqrt(statistics.mean(m["reference"]) / REFERENCE_NOMINAL_S)


def end_to_end(m: dict) -> dict:
    wall = sum(statistics.median(w) for w in m["walls"].values() if w)
    setup = statistics.median(m["setup"])
    print("unscaled wall_s %.4f, setup_s %.4f; mean reference %.4f s"
          % (wall, setup, statistics.mean(m["reference"])), file=sys.stderr)
    return {
        "setup_s": {"value": setup / slowdown(m), "unit": "s"},
        "wall_s": {"value": wall / slowdown(m), "unit": "s"},
        "peak_rss_mb": {"value": max(m["rss"], default=0.0), "unit": "MB"},
    }


def per_layer(job_list, m: dict, runner: Runner, seed: int) -> dict:
    import probe  # imports rigikit
    verbs = {j.id: j.verb for j in job_list}
    out = {"fail_ratio": (runner.fail_ratio, "1"),
           "reference_s": (statistics.mean(m["reference"]), "s")}
    for metric, group in VERB_GROUPS.items():
        out[metric] = (sum(statistics.median(w) for jid, w in m["walls"].items()
                           if w and verbs[jid] in group) / slowdown(m), "s")
    plain = sum(sum(w) for w in m["walls"].values())
    traced = sum(sum(w) for w in m["traced_walls"].values())
    out["trace_overhead"] = (traced / plain if plain else 0.0, "1")
    docs = [json.loads(p.read_text()) for p in m["span_files"]]
    (runner.work / "trace.json").write_text(json.dumps(docs))
    out.update(layers.layer_metrics(docs))
    for name, value in probe.probe(seed).items():
        out[name] = (value, "us")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rigikit" / "cli.py").is_file():
        fail("no rigikit sources under %s; run from a source checkout" % SRC)
    sys.path.insert(0, str(SRC))
    import rigikit
    if Path(rigikit.__file__).resolve().parent != (SRC / "rigikit").resolve():
        fail("imported rigikit from %s, not from this checkout" % rigikit.__file__)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail("unknown workload %r (have %s)" % (args.workload, ", ".join(workloads.WORKLOADS)))

    started = time.monotonic()
    work = HERE / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spawner = jobs.Spawner(job_env())
    try:
        job_list = workloads.WORKLOADS[args.workload](ROOT, work, random.Random(args.seed))
        runner = Runner(spawner, work, started)
        m = measure(job_list, runner, args.seconds, bool(args.trace))
    finally:
        spawner.close()
    for line in runner.failures:
        print("FAILED %s" % line, file=sys.stderr)
    (work / "jobs.json").write_text(json.dumps(
        {j.id: {"verb": j.verb, "plain_s": m["walls"][j.id],
                "traced_s": m["traced_walls"][j.id]} for j in job_list}, indent=1))
    if args.trace:
        metrics = per_layer(job_list, m, runner, args.seed)
    else:
        metrics = end_to_end(m)
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
