"""Repo benchmark: one workload run, printed as JSON lines.

    python3 perfbench/run.py --workload crawl_html --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each run is a fresh worker process in
its own session (so its own process group) that owns one Ray session
sized to the CPUs in this process's affinity mask.  The run is over only
when no process of that session is alive: processes still alive after a
grace period are killed and the run fails.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the run report (host record, inputs, per-job figures).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import measure, procs  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

# the worker is killed at this age; the session drain below must fit in
# what is left of the 180 s a run may take
RUN_TIMEOUT_S = 150
DRAIN_GRACE_S = 15


def fail(msg: str, code: int = 2) -> int:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "rapidocr_ray", "__init__.py")):
        return fail(f"no rapidocr_ray package under {ROOT}: run from a repo checkout")
    cpus = measure.affinity_cpus()
    if cpus < 2:
        # the fused cascade pool needs a CPU beside its read tasks; at
        # num_cpus=1 the flagship plan makes no progress
        return fail(f"needs at least 2 CPUs in the affinity mask, found {cpus}")

    # short: Ray's unix socket paths live under it (see worker.ray_temp_dir)
    work = os.path.join(ROOT, ".perfbench", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result_path = os.path.join(work, "result.json")
    env = dict(
        os.environ,
        PYTHONPATH=ROOT + os.pathsep + os.environ.get("PYTHONPATH", ""),
        RAY_USAGE_STATS_ENABLED="0",
        # keep idle workers between back-to-back pipelines, as the repo's
        # own bench.py and test session do
        RAY_kill_idle_workers_interval_ms="0",
    )
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", work, "--result", result_path,
    ]
    # a SIGTERM to the launcher must not orphan the run's session
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, start_new_session=True,
        stdin=subprocess.DEVNULL, stdout=sys.stderr, stderr=sys.stderr,
    )
    sid = proc.pid
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        procs.kill_session(sid)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        return fail(f"run exceeded {RUN_TIMEOUT_S}s; its session was killed")
    except BaseException:
        procs.kill_session(sid)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        raise
    t_exit = time.monotonic()
    left = procs.wait_session_gone(sid, DRAIN_GRACE_S)
    run_s = time.monotonic() - t0
    if left:
        names = procs.describe(left)
        procs.kill_session(sid)
        shutil.rmtree(work, ignore_errors=True)
        return fail(
            f"{len(left)} process(es) of the run outlived it by {DRAIN_GRACE_S}s "
            "and were killed:\n  " + "\n  ".join(names),
            code=3,
        )
    if rc != 0 or not os.path.isfile(result_path):
        shutil.rmtree(work, ignore_errors=True)
        return fail(f"worker exited with code {rc}")
    with open(result_path, encoding="utf-8") as f:
        out = json.load(f)
    shutil.rmtree(work, ignore_errors=True)
    out["report"]["run_s"] = run_s
    out["report"]["drain_s"] = t0 + run_s - t_exit
    print(json.dumps({"report": out["report"]}))
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
