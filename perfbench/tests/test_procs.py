import os
import shutil
import subprocess
import sys

from perfbench import procs
from perfbench.measure import session_pids

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# the session leader exits at once and leaves a sleeping child behind,
# the way a Ray worker can outlive the killed process that started Ray
LEAVE_CHILD = (
    "import subprocess, sys;"
    "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])"
)


def test_leftover_process_is_detected_and_killed():
    leader = subprocess.Popen([sys.executable, "-c", LEAVE_CHILD], start_new_session=True)
    leader.wait(timeout=30)
    sid = leader.pid
    left = procs.wait_session_gone(sid, grace_s=1.0)
    assert len(left) == 1 and left[0] != sid
    assert "time.sleep(60)" in procs.describe(left)[0]
    procs.kill_session(sid, grace_s=2.0)
    assert session_pids(sid) == []


def test_clean_session_ends_within_grace():
    leader = subprocess.Popen([sys.executable, "-c", "pass"], start_new_session=True)
    leader.wait(timeout=30)
    assert procs.wait_session_gone(leader.pid, grace_s=5.0) == []


def test_run_refuses_outside_a_checkout(tmp_path):
    # a directory holding only the benchmark: no program to run
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan_ocr",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert res.stdout == ""
    assert "rapidocr_ray" in res.stderr
