"""One workload run inside its own process session (started by run.py).

    python3 -m perfbench.worker --workload NAME --seed N --seconds S
        --trace 0|1 --work DIR --result FILE

Order of a run: generate the inputs (reported as ``gen_s``, not part of
set-up), set up (imports + ``ray.init`` + one untimed warm-up job, the
session's cold first job), run the timed window (or, with ``--trace 1``,
hand over to ``traced.run``), shut Ray down in a ``finally``, then check
every job's outputs.  The result JSON goes to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

from perfbench import measure
from perfbench.trace import Patches

MIN_JOBS = 3
OBJECT_STORE_BYTES = 512 * 1024 * 1024
# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
# <temp>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store
_SOCKET_SUFFIX_LEN = 64


def ray_temp_dir(work_dir: str) -> str:
    """Ray's session directory: inside the run's work directory when the
    socket paths fit, else a short directory under the system temp dir
    (removed again by ``main``)."""
    path = os.path.join(work_dir, "r")
    if len(path.encode()) + _SOCKET_SUFFIX_LEN > 107:
        import tempfile

        path = tempfile.mkdtemp(prefix="pb")
    return path


def start_ray(num_cpus: int, temp_dir: str) -> None:
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
        _temp_dir=temp_dir,
    )
    DataContext.get_current().enable_progress_bars = False


def probe_cascade_pool(patches, record) -> None:
    """Patch ``Dataset.map_batches`` so that ``record`` receives the
    actor-pool size the pipeline asks Ray Data for when it adds the fused
    cascade stage."""
    from ray.data import Dataset

    orig = Dataset.map_batches

    def map_batches(self, fn, *args, **kwargs):
        if getattr(fn, "__name__", "") == "CascadeStage":
            record(kwargs.get("concurrency"))
        return orig(self, fn, *args, **kwargs)

    patches.set(Dataset, "map_batches", map_batches)


def set_up(wl, num_cpus: int, temp_dir: str, pools: list) -> float:
    """``ray.init`` plus the warm-up job: the first job of a fresh session
    pays the session's first-use costs, so the timed jobs start warm."""
    t0 = time.perf_counter()
    start_ray(num_cpus, temp_dir)
    with Patches() as patches:
        probe_cascade_pool(patches, pools.append)
        wl.discard(wl.run_job("warm"))
    return time.perf_counter() - t0


def timed_window(seconds: float, run_job) -> list:
    """Jobs back to back.  A new job starts only if a median job would
    still end inside ``seconds``; at least MIN_JOBS run."""
    jobs = []
    t0 = time.perf_counter()
    while True:
        jobs.append(run_job(len(jobs)))
        elapsed = time.perf_counter() - t0
        typical = measure.median([j.wall_s for j in jobs])
        if len(jobs) >= MIN_JOBS and elapsed + typical > seconds:
            return jobs


def end_to_end(docs: int, jobs: list, setup_s: float, exact_frac: float,
               peak_mb: float) -> dict:
    wall = measure.median([j.wall_s for j in jobs])
    return {
        "docs_per_s": {"value": docs / wall, "unit": "docs/s"},
        "wall_s": {"value": wall, "unit": "s"},
        "first_output_s": {
            "value": measure.median([j.first_output_s for j in jobs]), "unit": "s"
        },
        "text_exact_frac": {"value": exact_frac, "unit": "frac"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_pss_mb": {"value": peak_mb, "unit": "MB"},
    }


def check_jobs(wl, jobs: list):
    total = None
    for job in jobs:
        c = wl.check(job)
        wl.discard(job)
        if total is None:
            total = c
        else:
            total.add(c)
    return total


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    num_cpus = measure.affinity_cpus()
    ticks0 = measure.cpu_ticks()
    with measure.PeakPss(os.getsid(0)) as pss:
        t_imp = time.perf_counter()
        import ray

        import rapidocr_ray.pipelines.extract  # noqa: F401
        import rapidocr_ray.pipelines.queries  # noqa: F401
        import rapidocr_ray.state.manifest  # noqa: F401
        from perfbench import traced
        from perfbench.workloads import WORKLOADS

        imports_s = time.perf_counter() - t_imp

        wl = WORKLOADS[args.workload](args.seed, args.work)
        t_gen = time.perf_counter()
        inputs = wl.prepare()
        temp_dir = ray_temp_dir(args.work)
        pools: list = []
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "inputs": inputs,
            "gen_s": time.perf_counter() - t_gen,
            "imports_s": imports_s,
            "ray_temp_dir_in_checkout": temp_dir.startswith(args.work),
        }
        try:
            setup_s = imports_s + set_up(wl, num_cpus, temp_dir, pools)
            if args.trace:
                result = traced.run(wl, args.seconds, num_cpus, report)
            else:
                jobs = timed_window(args.seconds, wl.run_job)
        finally:
            ray.shutdown()
            if not temp_dir.startswith(args.work):
                shutil.rmtree(temp_dir, ignore_errors=True)
        if not args.trace:
            report["job_walls_s"] = [j.wall_s for j in jobs]
            report["job_wall_s"] = measure.summarize(report["job_walls_s"])
            report["job_first_output_s"] = measure.summarize([j.first_output_s for j in jobs])
            check = check_jobs(wl, jobs)
            report["check_notes"] = check.notes[:10]
        pss.sample()
    if not args.trace:
        result = {
            "correct": check.failed == 0,
            "attempted": check.attempted,
            "failed": check.failed,
            "metrics": end_to_end(
                wl.docs, jobs, setup_s, check.exact / check.attempted, pss.peak_mb
            ),
        }
    report["setup_s"] = setup_s
    report["host"] = measure.host_record(num_cpus)
    report["host"]["cascade_pool"] = pools[-1] if pools else None
    report["host"]["steal_pct"] = measure.steal_pct(ticks0, measure.cpu_ticks())
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump({"report": report, "result": result}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
