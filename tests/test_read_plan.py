"""Every parquet read is planned from the file footers
(``sources/parquet.py``): runs of whole row groups of one file, or row
ranges of one row group.  The tasks are run here in-process (a
``ReadTask`` is a callable), so the planning is checked without a Ray
session, except where a test names ``ray_session``."""

import math
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rapidocr_ray.pipelines.extract import DEFAULT_ROWS_PER_BLOCK, read_pages
from rapidocr_ray.sources import parquet
from rapidocr_ray.sources.pages import PAGES_SCHEMA, synth_pages, write_pages_parquet
from rapidocr_ray.sources.parquet import (
    ParquetSource,
    byte_task_count,
    file_tasks,
    group_runs,
    read_footers,
    row_group_runs,
    table_plan,
)


def _write(path: str, table: pa.Table, row_groups: list[int]) -> str:
    """One parquet file with exactly the given row-group sizes."""
    with pq.ParquetWriter(path, table.schema) as w:
        off = 0
        for n in row_groups:
            w.write_table(table.slice(off, n))
            off += n
    assert pq.ParquetFile(path).metadata.num_row_groups == len(row_groups)
    return path


def _page_tasks(files: list[str], rows_per_block: int) -> list:
    footers = read_footers(files, None)
    plan = [run for f in footers for run in group_runs(f, rows_per_block)]
    return ParquetSource(plan, footers, None).get_read_tasks(0)


def _run_all(plan, footers, columns=None) -> pa.Table:
    tasks = ParquetSource(plan, footers, columns).get_read_tasks(0)
    return pa.concat_tables([b for task in tasks for b in task()])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("pages")
    pages = synth_pages(196, seed=5)
    return [
        # a 100-row group, larger than the 32-row blocks below
        _write(os.path.join(d, "a.parquet"), pages.slice(0, 132), [100, 8, 8, 8, 8]),
        _write(os.path.join(d, "b.parquet"), PAGES_SCHEMA.empty_table(), [0]),
        _write(os.path.join(d, "c.parquet"), pages.slice(132, 64), [16, 16, 16, 16]),
    ]


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """A documents-like table in one row group and in eight."""
    d = tmp_path_factory.mktemp("docs")
    n = 203
    table = pa.table(
        {
            "doc_id": pa.array(range(n), type=pa.int64()),
            "text": [f"word {i} " * (i % 7 + 1) for i in range(n)],
            "lang": ["en", "de", "fr"] * 67 + ["en", "de"],
        }
    )
    one = _write(os.path.join(d, "one.parquet"), table, [n])
    many = _write(os.path.join(d, "many.parquet"), table, [25] * 7 + [28])
    return table, one, many


def test_row_group_runs():
    assert row_group_runs([], 32) == []
    assert row_group_runs([0], 32) == []
    assert row_group_runs([300, 10, 10], 64) == [[0], [1, 2]]
    assert row_group_runs([16] * 5, 32) == [[0, 1], [2], [3, 4]]
    assert row_group_runs([5, 5], 1000) == [[0, 1]]
    # 64-row groups and 128-row blocks: two groups a run, the tail
    # group joins the last run
    runs = row_group_runs([64] * 16 + [21], 128)
    assert len(runs) == 8 and runs[-1] == [14, 15, 16]
    for rows in ([64] * 16 + [21], [1, 200, 3, 3, 90, 7], [7] * 40):
        runs = row_group_runs(rows, 32)
        assert [i for run in runs for i in run] == list(range(len(rows)))


def test_read_tasks_cover_the_files_in_order(files):
    tasks = _page_tasks(files, 32)
    footers = {f: pq.ParquetFile(f).metadata for f in files}
    got = []
    offsets = {f: 0 for f in files}
    for task in tasks:
        # no task spans two files, and none reads the empty file
        (path,) = task.metadata.input_files
        assert path != files[1]
        blocks = list(task())
        rows = sum(b.num_rows for b in blocks)
        assert rows == task.metadata.num_rows > 0
        # the task starts and ends on row-group boundaries of its file,
        # and its bytes are those row groups' uncompressed footer bytes
        md = footers[path]
        starts, bytes_at = [0], [0]
        for i in range(md.num_row_groups):
            starts.append(starts[-1] + md.row_group(i).num_rows)
            bytes_at.append(bytes_at[-1] + md.row_group(i).total_byte_size)
        lo, hi = starts.index(offsets[path]), starts.index(offsets[path] + rows)
        assert task.metadata.size_bytes == bytes_at[hi] - bytes_at[lo]
        offsets[path] += rows
        got.extend(blocks)
    # the 100-row group is whole in one task; c.parquet is two tasks
    assert [t.metadata.num_rows for t in tasks] == [100, 32, 32, 32]
    want = pa.concat_tables([pq.read_table(f) for f in files])
    table = pa.concat_tables(got)
    assert table.schema.field("warc_ts").type == pa.timestamp("us")
    assert table.schema == want.schema
    assert table.equals(want)


def test_read_pages_edge_inputs(files):
    # the same ValueError read_parquet raised for an empty path list
    with pytest.raises(ValueError):
        read_pages([])
    # every file empty: one empty task keeps the files' schema
    (task,) = _page_tasks([files[1]], 32)
    (block,) = list(task())
    assert block.num_rows == 0 and block.schema == PAGES_SCHEMA


def _parent_page_plan(files: list[str], rows_per_block: int) -> list[tuple]:
    """The extraction read's plan before the shared reader, kept verbatim
    (row-group runs of round(rows / rows_per_block) per file, bytes from
    the row groups' total_byte_size): read_pages must not move."""

    def runs_of(rows):
        total = sum(rows)
        if total == 0:
            return []
        n_runs = max(1, int(total / rows_per_block + 0.5))
        runs, start, last = [], 0, -1
        for i, r in enumerate(rows):
            k = min(n_runs - 1, int((start + r / 2) * n_runs / total))
            if k != last:
                runs.append([])
                last = k
            runs[-1].append(i)
            start += r
        return runs

    plan = []
    for path in files:
        md = pq.ParquetFile(path).metadata
        groups = [md.row_group(i) for i in range(md.num_row_groups)]
        for run in runs_of([g.num_rows for g in groups]):
            rows = sum(groups[i].num_rows for i in run)
            size = sum(groups[i].total_byte_size for i in run)
            plan.append((path, run, rows, size))
    return plan


def test_read_pages_plan_is_unchanged(files, tmp_path):
    """read_pages gives the same tasks, row-group runs, rows and bytes
    as the extraction read's own footer plan did before every table
    moved onto the shared reader: on the test files above and on crawl
    shards as the resumable runner writes them (64-row groups)."""
    shards = write_pages_parquet(synth_pages(700, seed=9), str(tmp_path), n_files=3)
    for inputs, rows_per_block in ((files, 32), (shards, DEFAULT_ROWS_PER_BLOCK), (shards, 100)):
        footers = read_footers(inputs, None)
        got = [
            (run.path, run.row_groups, run.num_rows, run.size_bytes)
            for f in footers
            for run in group_runs(f, rows_per_block)
        ]
        assert got == _parent_page_plan(inputs, rows_per_block)
        assert all(run.offset is None for f in footers for run in group_runs(f, rows_per_block))


def test_one_row_group_splits_into_row_ranges(docs):
    table, one, _many = docs
    (f,) = read_footers([one], None)
    plan = file_tasks(f, 4)
    # four ranges of the one row group, equal to a row, in order
    assert [run.row_groups for run in plan] == [[0]] * 4
    assert [(run.offset, run.num_rows) for run in plan] == [(0, 50), (50, 51), (101, 51), (152, 51)]
    # each range carries its share of the group's footer bytes
    assert all(run.size_bytes == f.sizes[0] * run.num_rows // 203 for run in plan)
    got = _run_all(plan, [f])
    assert got.equals(pq.read_table(one))
    # never more tasks than rows
    assert len(file_tasks(f, 10_000)) == 203


def test_multi_row_group_file_is_planned_in_whole_group_runs(docs):
    table, _one, many = docs
    (f,) = read_footers([many], None)
    plan = file_tasks(f, 4)
    assert [run.row_groups for run in plan] == [[0, 1], [2, 3], [4, 5], [6, 7]]
    assert all(run.offset is None for run in plan)
    assert [run.num_rows for run in plan] == [50, 50, 50, 53]
    assert _run_all(plan, [f]).equals(pq.read_table(many))
    # more tasks than row groups: ranges of each group instead
    plan = file_tasks(f, 16)
    assert len(plan) == 16 and all(len(run.row_groups) == 1 for run in plan)
    assert _run_all(plan, [f]).equals(pq.read_table(many))


@pytest.mark.parametrize("columns", [["text", "doc_id"], ["lang"], None])
def test_projected_reads_equal_read_table(docs, columns):
    _table, one, many = docs
    for path, n in ((one, 3), (many, 3), (many, 11)):
        (f,) = read_footers([path], columns)
        want = pq.read_table(path, columns=columns)
        assert f.schema == want.schema
        got = _run_all(file_tasks(f, n), [f], columns)
        assert got.schema == want.schema and got.equals(want)
        # the plan's bytes are the projected columns' only
        md = pq.ParquetFile(path).metadata
        names = set(want.schema.names)
        assert sum(f.sizes) == sum(
            md.row_group(i).column(j).total_uncompressed_size
            for i in range(md.num_row_groups)
            for j in range(md.num_columns)
            if md.row_group(i).column(j).path_in_schema in names
        )
    if columns is not None:
        (full,) = read_footers([one], None)
        (proj,) = read_footers([one], columns)
        assert sum(proj.sizes) < sum(full.sizes)


def test_zero_row_file_keeps_its_projected_schema(tmp_path):
    table = pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
    path = _write(str(tmp_path / "empty.parquet"), table, [0])
    (f,) = read_footers([path], ["text"])
    assert file_tasks(f, 4) == [] and table_plan([f]) == []
    (task,) = ParquetSource([], [f], ["text"]).get_read_tasks(0)
    (block,) = list(task())
    assert block.num_rows == 0
    assert block.schema == pq.read_table(path, columns=["text"]).schema


def test_byte_rule(monkeypatch):
    """Ray's read sizing without its 2 x CPUs step, capped at one wave:
    max(ceil(B / max_block), min(CPUs, ceil(B / min_block)), 1)."""
    from ray.data import DataContext

    ctx = DataContext.get_current().copy()
    ctx.target_min_block_size = 1 << 20
    ctx.target_max_block_size = 128 << 20
    monkeypatch.setattr(DataContext, "get_current", staticmethod(lambda: ctx))
    monkeypatch.setattr(parquet, "session_cpus", lambda: 4)
    mib = 1 << 20
    assert byte_task_count(0) == 1
    assert byte_task_count(1000) == 1  # tiny
    assert byte_task_count(int(1.6 * mib)) == 2  # the curation table
    assert byte_task_count(3 * mib + 1) == 4
    assert byte_task_count(50 * mib) == 4  # capped at one wave
    assert byte_task_count(1000 * mib) == math.ceil(1000 / 128)  # over max block
    monkeypatch.setattr(parquet, "session_cpus", lambda: 16)
    assert byte_task_count(50 * mib) == 16
    ctx.target_max_block_size = 8 << 20
    monkeypatch.setattr(parquet, "session_cpus", lambda: 2)
    assert byte_task_count(50 * mib) == 7


def test_bucket_directory_read_matches_read_parquet(ray_session, tmp_path):
    import numpy as np
    import ray.data

    from rapidocr_ray.sources.writers import read_bucketed_parquet, write_bucketed_parquet

    ids = np.arange(400, dtype=np.int64)
    tbl = pa.table({"doc_id": ids, "v": ids * 3, "s": [f"x{i}" for i in ids]})
    out = str(tmp_path / "bucketed")
    # several blocks, so a bucket directory holds several files
    write_bucketed_parquet(
        ray.data.from_arrow([tbl.slice(i, 100) for i in range(0, 400, 100)]),
        out,
        key="doc_id",
        n_buckets=4,
    )
    def table(ds):
        return pa.concat_tables(ray_session.get(ds.to_arrow_refs()))

    key = [("doc_id", "ascending")]
    for b in range(4):
        got = table(read_bucketed_parquet(out, b))
        # read_parquet parses ``bucket=b`` in the path into a string
        # column; the files themselves hold the rows without it
        hive = table(ray.data.read_parquet(f"{out}/bucket={b}"))
        assert hive.schema.names == got.schema.names + ["bucket"]
        want = table(ray.data.read_parquet(f"{out}/bucket={b}", partitioning=None))
        assert got.schema == want.schema
        assert got.sort_by(key).equals(want.sort_by(key))
