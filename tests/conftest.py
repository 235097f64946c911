import os

import pytest

# keep idle worker processes alive between Dataset executions (same
# rationale as bench.py): rapid actor-pool churn across tests otherwise
# cold-forks workers per pool and races pool teardown against the next
# pool's resource acquisition.  Must be set before ray.init.
os.environ.setdefault("RAY_kill_idle_workers_interval_ms", "0")


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver contract)."""
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    ray.shutdown()


@pytest.fixture
def by_value():
    """Ship the engine's code by value for one test, as
    ``util.ensure_worker_importable`` does when workers cannot import
    the package (a stubbed negative probe answer); afterwards the
    session's own mode applies again."""
    from rapidocr_ray import util

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(util, "_worker_package_file", lambda: "")
        assert util.ensure_worker_importable() == util.BY_VALUE
        yield
    util.ensure_worker_importable()
