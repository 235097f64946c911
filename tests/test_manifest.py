"""Resumable runner: per-partition manifests, atomic writes,
skip-finished semantics (north rule: resume mid-job without
recomputation)."""

import json
import os

import pytest

from rapidocr_ray.sources.pages import synth_pages, write_pages_parquet
from rapidocr_ray.state import manifest as mf


@pytest.fixture(scope="module")
def sharded_input(tmp_path_factory):
    d = tmp_path_factory.mktemp("pages_in")
    table = synth_pages(80, seed=42)
    paths = write_pages_parquet(table, str(d), n_files=4)
    return paths


def test_run_writes_manifests(ray_session, sharded_input, tmp_path):
    out = str(tmp_path / "out")
    report = mf.run_resumable(sharded_input, out)
    assert report["n_partitions"] == 4
    assert report["skipped"] == []
    assert report["row_count"] > 0
    for pid in range(4):
        mpath = mf.manifest_path(out, pid)
        assert os.path.isfile(mpath)
        m = json.load(open(mpath))
        assert m["partition_id"] == pid
        assert m["row_count"] > 0
        assert m["content_hash"]
        assert m["input_files"] == [sharded_input[pid]]
        assert "html" in m["routes"]


def test_resume_skips_finished(ray_session, sharded_input, tmp_path):
    out = str(tmp_path / "out")
    first = mf.run_resumable(sharded_input, out)
    # damage partition 2: remove it entirely (simulated failure)
    import shutil

    shutil.rmtree(mf.partition_dir(out, 2))
    second = mf.run_resumable(sharded_input, out)
    assert sorted(second["skipped"]) == [0, 1, 3]
    # recomputed partition must be byte-equivalent (content_hash lineage)
    h1 = first["manifests"][2]["content_hash"]
    h2 = second["manifests"][2]["content_hash"]
    assert h1 == h2
    assert second["row_count"] == first["row_count"]


def test_each_input_footer_opens_once_per_partition(
    ray_session, sharded_input, tmp_path, monkeypatch
):
    """The driver opens each input file's footer once per partition:
    read_pages plans from it, and the winners pass takes its url bound
    from that plan's row counts instead of reading the footers again."""
    import pyarrow.parquet as pq

    opened = []

    class CountingParquetFile(pq.ParquetFile):
        def __init__(self, source, *args, **kwargs):
            opened.append(str(source))
            super().__init__(source, *args, **kwargs)

    def counting(read):
        def wrapped(where, *args, **kwargs):
            opened.append(str(where))
            return read(where, *args, **kwargs)

        return wrapped

    monkeypatch.setattr(pq, "ParquetFile", CountingParquetFile)
    for name in ("read_metadata", "read_schema"):
        monkeypatch.setattr(pq, name, counting(getattr(pq, name)))
    report = mf.run_resumable(sharded_input, str(tmp_path / "out"), files_per_partition=2)
    assert report["n_partitions"] == 2 and report["row_count"] > 0
    assert sorted(p for p in opened if p in sharded_input) == sorted(sharded_input)


def test_partial_tmp_dir_not_counted(tmp_path):
    out = str(tmp_path / "out")
    os.makedirs(os.path.join(out, "part-00007.tmp"))
    assert mf.completed_partitions(out) == set()


def test_incomplete_partition_without_manifest_not_counted(tmp_path):
    out = str(tmp_path / "out")
    os.makedirs(os.path.join(out, "part-00003"))
    assert mf.completed_partitions(out) == set()

def test_streamed_hash_matches_table_path(ray_session, tmp_path):
    """The commutative digest must be identical whether a partition is
    written table-at-once or streamed block-by-block (the 100-TB path)."""
    import pyarrow as pa

    from rapidocr_ray.pipelines.extract import build_extract_pipeline, read_pages

    d = tmp_path / "pages"
    table = synth_pages(60, seed=9)
    paths = write_pages_parquet(table, str(d), n_files=2)

    result = build_extract_pipeline(read_pages(paths), dedup=True, winners_files=paths)
    collected = pa.concat_tables(
        list(result.iter_batches(batch_format="pyarrow", batch_size=1024))
    )
    m_table = mf.write_partition(str(tmp_path / "out_t"), 0, collected, paths)

    result2 = build_extract_pipeline(read_pages(paths), dedup=True, winners_files=paths)
    m_stream = mf.write_partition_streamed(str(tmp_path / "out_s"), 0, result2, paths)

    assert m_table["content_hash"] == m_stream["content_hash"]
    assert m_table["row_count"] == m_stream["row_count"]
    assert m_table["n_spans"] == m_stream["n_spans"]
    assert m_table["routes"] == m_stream["routes"]


def test_streamed_partition_larger_than_one_block(ray_session, tmp_path):
    """A partition spanning many blocks streams into multiple parquet
    files — no driver-side concat — and the manifest merges partials."""
    d = tmp_path / "pages"
    table = synth_pages(400, seed=13)
    paths = write_pages_parquet(table, str(d), n_files=1)
    report = mf.run_resumable(paths, str(tmp_path / "out"))
    m = report["manifests"][0]
    n_urls = len(set(table.column("url").to_pylist()))
    assert m["row_count"] == n_urls  # latest-capture-wins dedup ran
    assert len(m["output_files"]) > 1  # streamed: one file per output block
    # resume: identical digest on recompute
    import shutil

    shutil.rmtree(mf.partition_dir(str(tmp_path / "out"), 0))
    again = mf.run_resumable(paths, str(tmp_path / "out"))
    assert again["manifests"][0]["content_hash"] == m["content_hash"]


def test_content_hash_order_insensitive():
    import pyarrow as pa

    t1 = pa.table({"url": ["a", "b", "c"], "extracted_text": ["x", "y", "z"]})
    t2 = pa.table({"url": ["c", "a", "b"], "extracted_text": ["z", "x", "y"]})
    t3 = pa.table({"url": ["a", "b", "c"], "extracted_text": ["x", "y", "q"]})
    assert mf.content_hash(t1) == mf.content_hash(t2)
    assert mf.content_hash(t1) != mf.content_hash(t3)
    # duplicates shift the digest (modular sum, not XOR)
    t4 = pa.table({"url": ["a", "a"], "extracted_text": ["x", "x"]})
    t5 = pa.table({"url": ["a"], "extracted_text": ["x"]})
    assert mf.content_hash(t4) != mf.content_hash(t5)


_PARALLEL_STRESS = """
import json, os, sys
os.environ.setdefault("RAY_kill_idle_workers_interval_ms", "0")
import ray
ray.init(address="local", num_cpus=int(sys.argv[1]),
         include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from rapidocr_ray.sources.pages import synth_pages, write_pages_parquet
from rapidocr_ray.state import manifest as mf
d = sys.argv[2]
paths = write_pages_parquet(synth_pages(64, seed=21), os.path.join(d, "in"), n_files=8)
report = mf.run_resumable(paths, os.path.join(d, "out"),
                          files_per_partition=1, partition_parallelism=4)
print(json.dumps({"n": report["n_partitions"], "rows": report["row_count"],
                  "skipped": report["skipped"],
                  "hashes": [report["manifests"][p]["content_hash"]
                             for p in range(report["n_partitions"])]}))
ray.shutdown()
"""


def test_partition_parallelism_4_under_contention(tmp_path):
    """k=4 with 8 UNDERSIZED partitions (1 file / ~8 docs each):

    - 8-CPU session: k=4 runs concurrently — four task-based pipelines
      share a small session with no sizing rule and must not starve
      each other (the 4-CPU actor-pool starvation of r4 is the bug this
      guards, proven at the next size up);
    - 24-CPU session: the same four concurrent pipelines with CPUs to
      spare; must complete with all manifests written.

    Both sizes run in fresh subprocesses (own Ray sessions) inside ONE
    test so the determinism comparison is self-contained (no marker
    files — a parametrized split silently skips the comparison under
    pytest-xdist).  The 300 s timeout is the deadlock detector."""
    import subprocess
    import sys

    reports = {}
    for ncpu in (8, 24):
        d = tmp_path / f"cpu{ncpu}"
        d.mkdir()
        out = subprocess.run(
            [sys.executable, "-c", _PARALLEL_STRESS, str(ncpu), str(d)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert out.returncode == 0, (ncpu, out.stderr[-2000:])
        rep = json.loads(out.stdout.strip().splitlines()[-1])
        assert rep["n"] == 8 and rep["skipped"] == [], ncpu
        assert rep["rows"] > 0, ncpu
        reports[ncpu] = rep
    # determinism across session sizes (k=4 at 8 and at 24 CPUs)
    assert reports[8]["hashes"] == reports[24]["hashes"]
    assert reports[8]["rows"] == reports[24]["rows"]


def _recaptured_input(d):
    """Two files: every row of the first is re-captured later in the
    second, so keep_winners leaves each block of the first file empty."""
    import pyarrow as pa
    import pyarrow.compute as pc

    first = synth_pages(24, seed=31)
    ts = first.column("warc_ts")
    later = pc.cast(pc.add(pc.cast(ts, pa.int64()), 10**12), ts.type)
    second = first.set_column(first.schema.get_field_index("warc_ts"), "warc_ts", later)
    paths = write_pages_parquet(pa.concat_tables([first, second]), str(d), n_files=2)
    return paths, len(set(first.column("url").to_pylist()))


def test_fused_write_with_empty_blocks_matches_table_path(ray_session, tmp_path, monkeypatch):
    """One run_resumable partition runs as ONE operator, the extraction
    map fused with the manifest write; tasks whose rows keep_winners
    dropped write nothing, and the manifest equals write_partition's
    over the same rows."""
    import pyarrow as pa

    from rapidocr_ray.pipelines.extract import build_extract_pipeline, read_pages

    paths, n_urls = _recaptured_input(tmp_path / "pages")
    results, returns = [], []
    streamed = mf.write_partition_streamed
    complete = mf.ManifestDatasink.on_write_complete

    def recording_streamed(out_dir, pid, result, *args, **kwargs):
        results.append(result)
        return streamed(out_dir, pid, result, *args, **kwargs)

    def recording_complete(self, write_result):
        complete(self, write_result)
        returns.extend(self.write_returns)

    monkeypatch.setattr(mf, "write_partition_streamed", recording_streamed)
    monkeypatch.setattr(mf.ManifestDatasink, "on_write_complete", recording_complete)
    report = mf.run_resumable(paths, str(tmp_path / "out"), files_per_partition=2)
    m_stream = report["manifests"][0]

    operators = [
        line for line in results[0].stats().splitlines() if line.startswith("Operator ")
    ]
    assert len(operators) == 1, operators
    assert "MapBatches(CascadeStage)" in operators[0] and "Write" in operators[0]
    assert None in returns  # the first file's blocks kept no rows
    assert m_stream["output_files"] == sorted(r[0] for r in returns if r)

    collected = pa.concat_tables(
        build_extract_pipeline(read_pages(paths), winners_files=paths).iter_batches(
            batch_format="pyarrow", batch_size=1024
        )
    )
    m_table = mf.write_partition(str(tmp_path / "out_t"), 0, collected, paths)
    assert m_stream["row_count"] == m_table["row_count"] == n_urls
    for field in ("n_spans", "routes", "content_hash"):
        assert m_stream[field] == m_table[field], field
    assert m_stream["elapses"].keys() == m_table["elapses"].keys()


def test_empty_partition_writes_explicit_empty_file(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from rapidocr_ray.stages.ray_stages import FINAL_SCHEMA

    path = str(tmp_path / "empty.parquet")
    pq.write_table(synth_pages(4, seed=1).slice(0, 0), path)
    m = mf.run_resumable([path], str(tmp_path / "out"))["manifests"][0]
    assert m["row_count"] == 0 and m["output_files"] == ["data.parquet"]
    written = pq.read_table(os.path.join(mf.partition_dir(str(tmp_path / "out"), 0), "data.parquet"))
    assert written.schema.equals(FINAL_SCHEMA) and written.num_rows == 0


def test_file_hidden_from_driver_raises(ray_session, sharded_input, tmp_path, monkeypatch):
    """A file a task wrote but the driver cannot see (a node-local
    out_dir on a multi-node cluster) fails the partition, naming it."""
    hidden = []
    complete = mf.ManifestDatasink.on_write_complete

    def hiding_complete(self, write_result):
        complete(self, write_result)
        name = next(r[0] for r in self.write_returns if r)
        os.remove(os.path.join(self.tmp, name))
        hidden.append(name)

    monkeypatch.setattr(mf.ManifestDatasink, "on_write_complete", hiding_complete)
    with pytest.raises(RuntimeError, match="shared between driver and workers") as err:
        mf.run_resumable(sharded_input[:1], str(tmp_path / "out"))
    assert hidden and hidden[0] in str(err.value)
    assert mf.completed_partitions(str(tmp_path / "out")) == set()
