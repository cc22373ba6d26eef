"""Self-checks of the benchmark harness.

    python3 perfbench/selfcheck.py

from the root of a source checkout. Checks that
  1. a deliberately wrong expected answer counts as a failed job and
     raises the fail ratio, while the right answer passes;
  2. a job that outlives its timeout is killed, counts as failed, and
     the jobs after it still run;
  3. a job's stdout under tracing is byte-identical to its untraced
     stdout, for one job of each verb the workloads use;
  4. run.py exits non-zero without printing a result in a directory that
     holds only BENCHMARK.json and the benchmark's files.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
import time

import jobs
import run
from run import HERE, ROOT, SRC, PLAIN, Runner, traced_prefix


def pick(job_list, prefix):
    return next(j for j in job_list if j.id.startswith(prefix))


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    work = HERE / ".work" / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rng = random.Random(0)
    tables = workloads.table_queries(ROOT, work, rng)
    lemmas = workloads.lemma_bruteforce(ROOT, work, rng)
    dixons = workloads.dixon_oracles(ROOT, work, rng)
    results = []
    spawner = jobs.Spawner(run.job_env())
    try:
        # 1. wrong expectation
        runner = Runner(spawner, work, time.monotonic())
        right = pick(tables, "rigid:0:psl2_7")
        wrong = workloads.Job(right.id + ":wrong", right.verb, right.args,
                              workloads.exact_answer("N = 167"))
        runner.run(right, PLAIN, "plain")
        ok_ratio = runner.fail_ratio
        runner.run(wrong, PLAIN, "plain")
        results.append(("wrong expected answer raises fail_ratio",
                        ok_ratio == 0 and runner.fail_ratio == 0.5))

        # 2. timeout: a 6 s job under a 0.5 s timeout, then a normal job
        runner = Runner(spawner, work, time.monotonic(), job_timeout_s=0.5)
        slow = pick(lemmas, "lemma:so4_5")
        t0 = time.monotonic()
        killed = runner.run(slow, PLAIN, "plain")
        runner.job_timeout_s = run.JOB_TIMEOUT_S
        after = runner.run(pick(lemmas, "lemma:sl3_3"), PLAIN, "plain")
        results.append(("hung job is killed, fails, and the run goes on",
                        killed.timed_out and time.monotonic() - t0 < 5.0
                        and len(runner.failures) == 1
                        and "timed out" in runner.failures[0]
                        and after is not None and not after.timed_out))

        # 3. stdout identity under tracing, one job per verb
        runner = Runner(spawner, work, time.monotonic())
        sample = [pick(dixons, "dixon:psl2_7"), pick(lemmas, "lemma:so4_3"),
                  pick(tables, "validate:s3"), pick(tables, "structconst:"),
                  pick(tables, "rigid:"), pick(tables, "dl:SL2_13:check"),
                  pick(tables, "dl:GL2_13:emit"), pick(tables, "dualsym:SL2PGL2")]
        for job in sample:
            plain = runner.run(job, PLAIN, "plain")
            runner.run(job, traced_prefix(work / "spans.json", job.id), "traced",
                       same_stdout_as=plain)
        results.append(("traced stdout is byte-identical to untraced",
                        runner.attempted == 2 * len(sample) and not runner.failures))
    finally:
        spawner.close()

    # 4. no sources: exit non-zero, print no result
    bare = work / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "%s/run.py" % HERE.name, "--workload",
                           "table-queries", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    results.append(("no sources: non-zero exit, no result",
                    done.returncode != 0 and '"correct"' not in done.stdout))

    for name, ok in results:
        print("%-50s %s" % (name, "ok" if ok else "FAIL"))
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
