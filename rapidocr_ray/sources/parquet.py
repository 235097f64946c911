"""Parquet files as Ray Data read tasks planned from their footers.

Every parquet read of the engine goes through here.  The footers are
read once, on the driver, and fix the plan: each ``ReadTask`` is either
a run of whole row groups of one file or, when a file has fewer row
groups than the plan needs, a row range of one row group
(``read_row_group`` + ``slice``).  Each task's ``BlockMetadata``
carries its exact rows and the footer's uncompressed bytes of the
projected columns.  Ray is asked for exactly as many blocks as there
are tasks, so no ``SplitBlocks`` follows the read and it fuses into the
first map; the Dataset's ``target_max_block_size`` is the largest
task's bytes (``set_block_size``).

Task counts:

- ``group_runs``: about ``rows_per_block`` rows a task, whole row
  groups only (``read_pages``, the extraction read);
- ``file_tasks``: a given number of tasks over one file (the page
  synthesizers: ``rows // rows_per_block``);
- ``table_plan``: sized from the projected footer bytes by Ray's own
  sizing fields, at most one wave of the session's CPUs
  (``byte_task_count``; ``read_table``).
"""

from __future__ import annotations

import math
import os
from functools import partial
from typing import NamedTuple

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data
from ray.data.block import BlockMetadata
from ray.data.datasource import ReadTask

from rapidocr_ray.util import ensure_worker_importable, session_cpus

# Floor of the block size told to Ray.  Below ~1 MiB the first-wave
# output guess (2 x target_max_block_size per task) is negligible
# against the object store either way, and a floor keeps Ray from
# slicing a stage's output that grows a little past its input (a PDF
# page re-wrapped as a raster, say).
MIN_TARGET_BLOCK_BYTES = 1 << 20


class Footer(NamedTuple):
    """What a plan needs of one file's footer."""

    path: str
    schema: pa.Schema  # of the projected columns
    rows: list[int]  # per row group
    sizes: list[int]  # per row group: uncompressed bytes of the projected columns


class ReadRun(NamedTuple):
    """One planned read task over one file: the whole row groups
    ``row_groups`` (``offset`` None), or rows ``offset`` to
    ``offset + num_rows`` of the one row group in ``row_groups``."""

    path: str
    row_groups: list[int]
    offset: int | None
    num_rows: int
    size_bytes: int  # uncompressed, projected, from the footer
    schema: pa.Schema


def read_footers(files: list[str], columns: list[str] | None) -> list[Footer]:
    """One footer read per file: row counts and projected bytes per row
    group.  Raises ValueError for an empty file list."""
    if not files:
        raise ValueError("no parquet files to read")
    footers = []
    for path in files:
        with pq.ParquetFile(path) as pf:
            md = pf.metadata
            schema = pf.schema_arrow
        if columns is not None:
            schema = pa.schema([schema.field(c) for c in columns], metadata=schema.metadata)
        keep = set(schema.names)
        rows, sizes = [], []
        for i in range(md.num_row_groups):
            rg = md.row_group(i)
            rows.append(rg.num_rows)
            sizes.append(
                sum(
                    rg.column(j).total_uncompressed_size
                    for j in range(rg.num_columns)
                    if rg.column(j).path_in_schema.split(".")[0] in keep
                )
            )
        footers.append(Footer(path, schema, rows, sizes))
    return footers


def _split_groups(rows: list[int], n_runs: int) -> list[list[int]]:
    """Contiguous runs of row groups (their row counts, in order) for
    ``n_runs`` runs: each row group joins the run its middle row falls
    in.  A run is never empty, so there can be fewer than ``n_runs``."""
    total = sum(rows)
    runs: list[list[int]] = []
    start = 0
    last = -1
    for i, r in enumerate(rows):
        k = min(n_runs - 1, int((start + r / 2) * n_runs / total))
        if k != last:
            runs.append([])
            last = k
        runs[-1].append(i)
        start += r
    return runs


def row_group_runs(rows: list[int], rows_per_block: int) -> list[list[int]]:
    """Split one file's row groups (their row counts, in order) into
    contiguous runs of about ``rows_per_block`` rows.  The file gets
    round(rows / rows_per_block) runs (at least one); each row group
    joins the run its middle row falls in.  A row group is never split,
    so a run can be longer than ``rows_per_block`` by up to one row
    group.  A zero-row file has no run."""
    total = sum(rows)
    if total == 0:
        return []
    return _split_groups(rows, max(1, int(total / rows_per_block + 0.5)))


def _whole_runs(f: Footer, runs: list[list[int]]) -> list[ReadRun]:
    return [
        ReadRun(
            f.path,
            run,
            None,
            sum(f.rows[i] for i in run),
            sum(f.sizes[i] for i in run),
            f.schema,
        )
        for run in runs
    ]


def group_runs(f: Footer, rows_per_block: int) -> list[ReadRun]:
    """``row_group_runs`` of one file as read tasks."""
    return _whole_runs(f, row_group_runs(f.rows, max(1, rows_per_block)))


def file_tasks(f: Footer, n_tasks: int) -> list[ReadRun]:
    """About ``n_tasks`` read tasks over one file (at most one per row).
    With at least that many row groups, the tasks are runs of whole
    row groups; with fewer, each row group is cut into as many row
    ranges as its share of the file's rows, whose sizes differ by at
    most one row.  A zero-row file has no task."""
    total = sum(f.rows)
    if total == 0:
        return []
    n = max(1, min(n_tasks, total))
    if len(f.rows) >= n:
        return _whole_runs(f, _split_groups(f.rows, n))
    plan = []
    for g, (rows, size) in enumerate(zip(f.rows, f.sizes)):
        k = min(rows, max(1, round(n * rows / total)))
        for j in range(k):
            lo, hi = rows * j // k, rows * (j + 1) // k
            plan.append(ReadRun(f.path, [g], lo, hi - lo, size * (hi - lo) // rows, f.schema))
    return plan


def byte_task_count(nbytes: int) -> int:
    """Read tasks for ``nbytes`` of projected table data: Ray's own
    read sizing (``target_max_block_size`` / ``target_min_block_size``
    of the current ``DataContext``) without its "2 x CPUs" step, capped
    at one wave of the session's CPUs."""
    ctx = ray.data.DataContext.get_current()
    over_max = math.ceil(nbytes / ctx.target_max_block_size) if ctx.target_max_block_size else 1
    over_min = math.ceil(nbytes / ctx.target_min_block_size)
    return max(over_max, min(session_cpus(), over_min), 1)


def table_plan(footers: list[Footer]) -> list[ReadRun]:
    """``byte_task_count`` tasks over the files, shared out by their
    bytes; a file with rows gets at least one task."""
    total = sum(sum(f.sizes) for f in footers)
    n = byte_task_count(total)
    return [
        run
        for f in footers
        for run in file_tasks(f, round(n * sum(f.sizes) / total) if total else 1)
    ]


def _read_run(
    path: str, row_groups: list[int], offset: int | None, num_rows: int, columns: list[str] | None
):
    """Body of one read task (``ReadRun``'s fields as plain values, so a
    task ships no class defined here)."""
    with pq.ParquetFile(path) as pf:
        if offset is None:
            return [pf.read_row_groups(row_groups, columns=columns, use_threads=False)]
        (g,) = row_groups
        table = pf.read_row_group(g, columns=columns, use_threads=False)
        return [table.slice(offset, num_rows)]


class ParquetSource(ray.data.Datasource):
    """A fixed footer plan (list of ``ReadRun``) as a Ray ``Datasource``:
    one ``ReadTask`` per run, with the run's exact rows and bytes.  When
    every file is empty (no run), the first file's empty read is the one
    task, so the Dataset keeps the files' projected schema."""

    def __init__(self, plan: list[ReadRun], footers: list[Footer], columns: list[str] | None):
        if not plan:
            f = footers[0]
            plan = [ReadRun(f.path, [], None, 0, 0, f.schema)]
        self.plan = plan
        self.columns = columns

    def get_name(self) -> str:
        # the operator is then named ReadParquet..., like read_parquet's
        return "Parquet"

    def estimate_inmemory_data_size(self) -> int:
        return sum(run.size_bytes for run in self.plan)

    def get_read_tasks(self, parallelism: int) -> list:
        # the plan is fixed by the footers; read_plan asks for exactly
        # len(self.plan) blocks, so ``parallelism`` always equals it
        return [
            ReadTask(
                partial(_read_run, run.path, run.row_groups, run.offset, run.num_rows, self.columns),
                BlockMetadata(
                    num_rows=run.num_rows,
                    size_bytes=run.size_bytes,
                    input_files=[run.path],
                    exec_stats=None,
                ),
                schema=run.schema,
            )
            for run in self.plan
        ]


def set_block_size(ds: "ray.data.Dataset", largest_block_bytes: int) -> "ray.data.Dataset":
    """Tell the Dataset how big its blocks really are.  Before a task
    has finished, Ray guesses every task's output at 2 x
    ``target_max_block_size`` (128 MiB by default), so on a 512 MiB
    object store the first wave of a job is one task.  With the real
    (largest) block size the first wave fills every CPU.  The value is
    never below the largest block: with a smaller one Ray would split
    the read's blocks again, and the split ends the fusion."""
    ds.context.target_max_block_size = max(MIN_TARGET_BLOCK_BYTES, largest_block_bytes)
    return ds


def read_plan(
    plan: list[ReadRun], footers: list[Footer], columns: list[str] | None
) -> "ray.data.Dataset":
    """A footer plan as a Dataset of exactly one block per read task
    (``ParquetSource``)."""
    ensure_worker_importable()
    src = ParquetSource(plan, footers, columns)
    ds = ray.data.read_datasource(src, override_num_blocks=len(src.plan))
    return set_block_size(ds, max(run.size_bytes for run in src.plan))


def parquet_files(path: str) -> list[str]:
    """``path`` itself, or the parquet files under the directory
    ``path`` in sorted order, skipping names that start with ``.`` or
    ``_`` (as Ray's file listing does)."""
    if not os.path.isdir(path):
        return [path]
    found = []
    for root, dirs, names in os.walk(path):
        dirs[:] = [d for d in dirs if not d.startswith((".", "_"))]
        found += [
            os.path.join(root, n)
            for n in names
            if n.endswith(".parquet") and not n.startswith((".", "_"))
        ]
    return sorted(found)


def read_table(path: str, columns: list[str] | None) -> "ray.data.Dataset":
    """A parquet table (one file, or a directory of files read as they
    are: no hive partition column is added) with ``table_plan``'s task
    count."""
    footers = read_footers(parquet_files(path), columns)
    return read_plan(table_plan(footers), footers, columns)
