"""Summary statistics and host probes, all read from /proc.

Only ``host_record`` imports Ray (for its version), so the run launcher
and the tests can use the rest without a Ray session.
"""

from __future__ import annotations

import math
import os
import sys
import threading

# percentiles considered for the tail figure, highest first
_TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)


def median(xs: list[float]) -> float:
    s = sorted(xs)
    n = len(s)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2


def tail_percentile(xs: list[float], min_beyond: int = 10):
    """(p, value) for the highest candidate percentile that has at least
    ``min_beyond`` samples above it, by nearest rank; None when even the
    lowest candidate has too few samples beyond it."""
    n = len(xs)
    s = sorted(xs)
    for p in _TAIL_CANDIDATES:
        rank = math.ceil(p / 100 * n)  # 1-based nearest rank
        if rank >= 1 and n - rank >= min_beyond:
            return p, s[rank - 1]
    return None


def summarize(xs: list[float]) -> dict:
    """Median with its sample count, plus the tail percentile when there
    are enough samples beyond it."""
    out = {"median": median(xs), "n": len(xs)}
    tail = tail_percentile(xs)
    if tail is not None:
        out[f"p{tail[0]:g}"] = tail[1]
    return out


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies summed over all CPUs, from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already counted in user/nice
    return fields[7], sum(fields[:8])


def steal_pct(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / total if total > 0 else 0.0


def affinity_cpus() -> int:
    return len(os.sched_getaffinity(0))


def host_record(ray_cpus: int | None = None) -> dict:
    import numpy
    import pyarrow
    import ray

    aff = affinity_cpus()
    return {
        "os_cpu_count": os.cpu_count(),
        "affinity_cpus": aff,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "ray_num_cpus": ray_cpus,
        "oversubscribed": ray_cpus is not None and ray_cpus > aff,
        "python": sys.version.split()[0],
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__,
    }


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as f:
            raw = f.read()
    except OSError:
        return None
    # the command name is parenthesised and may hold spaces
    return raw[raw.rindex(")") + 2:].split()


def session_pids(sid: int) -> list[int]:
    """Live (non-zombie) processes whose session id is ``sid``."""
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat_fields(int(name))
        # fields[0] is the state, fields[3] the session id
        if fields and fields[0] != "Z" and int(fields[3]) == sid:
            pids.append(int(name))
    return pids


def pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class PeakPss:
    """Samples the summed PSS of every process in one session on a
    background thread and keeps the peak; use as a context manager."""

    def __init__(self, sid: int, interval_s: float = 1.0):
        self.sid = sid
        self.interval_s = interval_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self) -> int:
        kb = sum(pss_kb(p) for p in session_pids(self.sid))
        self.peak_kb = max(self.peak_kb, kb)
        return kb

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def __enter__(self) -> "PeakPss":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0
