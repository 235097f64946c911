"""Run boundaries: one workload run is one process session.

The launcher starts the run's worker with ``start_new_session=True``, so
the worker, the Ray processes it starts and their Ray workers all share
the worker's session id.  A run is over only when no live process of
that session remains; anything still alive after a grace period is
killed and reported, and the run fails.
"""

from __future__ import annotations

import os
import signal
import time

from perfbench.measure import session_pids


def signal_session(sid: int, sig: int) -> list[int]:
    """Send ``sig`` to every live process of the session; returns them."""
    pids = session_pids(sid)
    for pid in pids:
        try:
            os.kill(pid, sig)
        except ProcessLookupError:
            pass
    return pids


def wait_session_gone(sid: int, grace_s: float, poll_s: float = 0.1) -> list[int]:
    """Wait up to ``grace_s`` for the session to empty.  Returns the pids
    still alive at the deadline (empty when the session ended)."""
    deadline = time.monotonic() + grace_s
    while True:
        alive = session_pids(sid)
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(poll_s)


def kill_session(sid: int, grace_s: float = 5.0) -> list[int]:
    """SIGTERM the session, then SIGKILL what is left after ``grace_s``.
    Returns the pids that needed SIGKILL."""
    signal_session(sid, signal.SIGTERM)
    left = wait_session_gone(sid, grace_s)
    if left:
        signal_session(sid, signal.SIGKILL)
        wait_session_gone(sid, 5.0)
    return left


def describe(pids: list[int]) -> list[str]:
    out = []
    for pid in pids:
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            cmd = "?"
        out.append(f"{pid}: {cmd[:160]}")
    return out
