"""How the engine's code ships to Ray workers (``util.ensure_worker_importable``).

By reference once the session's probe has answered that the workers
import the driver's own ``rapidocr_ray`` files (as in this test
session, started from the repo); by value before that, without a
session, on a negative answer, or with several nodes.  Both modes give
the same extraction output."""

import json
import os
import subprocess
import sys
import time

from rapidocr_ray import util

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _by_value_modules() -> list[str]:
    from ray import cloudpickle

    return sorted(
        m
        for m in cloudpickle.list_registry_pickle_by_value()
        if m == "rapidocr_ray" or m.startswith("rapidocr_ray.")
    )


def _loaded_modules() -> list[str]:
    return sorted(m for m in sys.modules if m == "rapidocr_ray" or m.startswith("rapidocr_ray."))


def _answered_mode(timeout: float = 120.0) -> str:
    """The session's mode once its probe has answered."""
    util.ensure_worker_importable()  # starts the probe if none is out
    deadline = time.monotonic() + timeout
    while util._worker_package_file() is None:
        assert time.monotonic() < deadline, "the probe did not answer"
        time.sleep(0.05)
    return util.ensure_worker_importable()


def test_session_ships_the_cascade_by_reference(ray_session):
    from ray import cloudpickle

    from rapidocr_ray.config import PipelineConfig
    from rapidocr_ray.stages.ray_stages import CascadeStage

    assert _answered_mode() == util.BY_REFERENCE
    assert _by_value_modules() == []
    assert len(cloudpickle.dumps(CascadeStage(PipelineConfig()))) < 4096


def test_negative_answer_ships_by_value_until_a_positive_one(ray_session, monkeypatch):
    import ray

    import rapidocr_ray.stages.ray_stages  # noqa: F401 — a loaded module to ship

    _answered_mode()
    own = sys.modules["rapidocr_ray"].__file__
    for answer in ("", "/elsewhere/rapidocr_ray/__init__.py"):
        monkeypatch.setattr(util, "_worker_package_file", lambda a=answer: a)
        assert util.ensure_worker_importable() == util.BY_VALUE
        assert _by_value_modules() == _loaded_modules()
        monkeypatch.setattr(util, "_worker_package_file", lambda: own)
        assert util.ensure_worker_importable() == util.BY_REFERENCE
        assert _by_value_modules() == []

    # the workers' answer holds for one node only
    alive = [n for n in ray.nodes() if n["Alive"]]
    monkeypatch.setattr(ray, "nodes", lambda: alive * 2)
    assert util.ensure_worker_importable() == util.BY_VALUE
    assert _by_value_modules() == _loaded_modules()
    monkeypatch.setattr(ray, "nodes", lambda: alive)
    assert util.ensure_worker_importable() == util.BY_REFERENCE


_NO_SESSION = """
import json, sys
import ray
from ray import cloudpickle
from rapidocr_ray import util
import rapidocr_ray.stages.ray_stages
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "rapidocr_ray")
mode = util.ensure_worker_importable()
print(json.dumps({"mode": mode, "ray_up": ray.is_initialized(),
                  "all_by_value": set(loaded) <= cloudpickle.list_registry_pickle_by_value()}))
"""


def test_no_session_ships_by_value_and_starts_nothing():
    out = subprocess.run(
        [sys.executable, "-c", _NO_SESSION], cwd=REPO, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr[-2000:]
    rep = json.loads(out.stdout.strip().splitlines()[-1])
    assert rep == {"mode": util.BY_VALUE, "ray_up": False, "all_by_value": True}


# the order of a caller that owns the session: Ray first, from a
# directory that is not the repo, and only then the repo on the
# driver's sys.path, so the workers cannot import the package
_OFF_REPO = """
import json, sys, time
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
sys.path.insert(0, sys.argv[1])
from rapidocr_ray import util
from rapidocr_ray.pipelines.extract import extract_pages_table
from rapidocr_ray.sources.pages import synth_pages

def texts():
    df = extract_pages_table(synth_pages(12, seed=5)).to_pandas()
    return sorted(zip(df["url"], df["extracted_text"]))

cold = texts()
deadline = time.monotonic() + 120
while util._worker_package_file() is None:
    assert time.monotonic() < deadline, "the probe did not answer"
    time.sleep(0.05)
mode = util.ensure_worker_importable()
warm = texts()
print(json.dumps({"mode": mode, "cold": cold, "warm": warm}))
ray.shutdown()
"""


def test_off_repo_session_falls_back_to_by_value(ray_session, tmp_path):
    from rapidocr_ray.pipelines.extract import extract_pages_table
    from rapidocr_ray.sources.pages import synth_pages

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "-c", _OFF_REPO, REPO],
        cwd=str(tmp_path),
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    rep = json.loads(out.stdout.strip().splitlines()[-1])
    assert rep["mode"] == util.BY_VALUE
    df = extract_pages_table(synth_pages(12, seed=5)).to_pandas()
    want = [list(r) for r in sorted(zip(df["url"], df["extracted_text"]))]
    assert rep["cold"] == want
    assert rep["warm"] == want


def test_manifest_records_the_mode(ray_session, request, tmp_path):
    """Each run_resumable partition manifest says how its code shipped;
    the output is the same either way."""
    from rapidocr_ray.sources.pages import synth_pages, write_pages_parquet
    from rapidocr_ray.state.manifest import manifest_path, run_resumable

    paths = write_pages_parquet(synth_pages(24, seed=3), str(tmp_path / "in"), n_files=2)
    manifests = {}
    for shipped in (util.BY_REFERENCE, util.BY_VALUE):
        if shipped == util.BY_VALUE:
            request.getfixturevalue("by_value")
        else:
            assert _answered_mode() == util.BY_REFERENCE
        out = str(tmp_path / shipped)
        (m,) = run_resumable(paths, out, files_per_partition=2)["manifests"]
        with open(manifest_path(out, 0), encoding="utf-8") as f:
            assert json.load(f)["code_shipping"] == m["code_shipping"] == shipped
        manifests[shipped] = m
    by_ref, by_val = manifests[util.BY_REFERENCE], manifests[util.BY_VALUE]
    assert by_ref["row_count"] == by_val["row_count"] > 0
    assert by_ref["content_hash"] == by_val["content_hash"]
