"""read_pages plans its read tasks from parquet footers: whole row
groups of one file per task, about ``rows_per_block`` rows each.  The
tasks are run here in-process (a ``ReadTask`` is a callable), so the
planning is checked without a Ray session."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rapidocr_ray.pipelines.extract import PageFilesSource, read_pages, row_group_runs
from rapidocr_ray.sources.pages import PAGES_SCHEMA, synth_pages


def _write(path: str, table: pa.Table, row_groups: list[int]) -> str:
    """One parquet file with exactly the given row-group sizes."""
    with pq.ParquetWriter(path, table.schema) as w:
        off = 0
        for n in row_groups:
            w.write_table(table.slice(off, n))
            off += n
    assert pq.ParquetFile(path).metadata.num_row_groups == len(row_groups)
    return path


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
    tasks = PageFilesSource(files, 32).get_read_tasks(0)
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
    (task,) = PageFilesSource([files[1]], 32).get_read_tasks(0)
    (block,) = list(task())
    assert block.num_rows == 0 and block.schema == PAGES_SCHEMA
