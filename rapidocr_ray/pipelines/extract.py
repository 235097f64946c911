"""The flagship extraction pipeline as a lazy ray.data.Dataset graph.

    read -> [dedup by url] -> decode/route/html -> cascade
         (det -> cls -> rec -> per-document assembly)

Scale notes (SURVEY.md §4, §7.3):
- the only all-to-all exchange is the optional url dedup; everything
  else is embarrassingly parallel map_batches.  The default dedup
  broadcasts a (url -> latest warc_ts) winner map built from two
  narrow columns, so the payload bytes never enter a shuffle; only
  ``strict`` dedup shuffles full payloads.  When the input is already
  url-unique, pass ``dedup=False`` and the pipeline is shuffle-free.
- one task per block: the dedup filter, decode/route/html and the
  cascade are task-based maps over whole blocks, which Ray Data fuses
  with the read (and with a following write) into one operator.  Every
  CPU of the session runs that task, worker processes are reused
  across tasks and jobs, and no job waits for an actor pool to start.
- crops never leave the task: det, cls, rec and assembly run in one
  call per block, and only text/span rows enter the object store.
  Models are built once per worker process (``CascadeStage``).
- oversized payloads (skew, SURVEY.md §4) become typed error rows in
  decode/route; block size is set at the source
  (``DEFAULT_ROWS_PER_BLOCK``), which makes it the unit of scheduling.
  ``read_pages`` plans one read task per run of whole parquet row
  groups from the file footers and asks Ray for exactly that many
  blocks, so no ``SplitBlocks`` ends the fusion on any input shape; it
  also tells Ray the real block size, so the first wave of tasks fills
  every CPU.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

import pyarrow as pa
import ray.data
from ray.data.block import BlockMetadata
from ray.data.datasource import ReadTask

from rapidocr_ray.config import PipelineConfig
from rapidocr_ray.util import (
    broadcast_get,
    ensure_worker_importable,
    session_cpus,
)
from rapidocr_ray.stages.ray_stages import (
    CascadeStage,
    DecodeRouteExtract,
    add_url_bucket,
    dedup_bucket,
)


def _winners_file_partial(files: list[str] | str):
    """Winners partial over a CHUNK of files: projection read of (url,
    warc_ts) + a vectorized groupby max.  The caller fans out one
    num_cpus=0 task per chunk (VERDICT r4 #4) so a huge unsharded input
    no longer pays a serial footer+column read of every file in one
    process — chunked rather than strictly per-file because the
    per-task overhead (~5-20 ms scheduling + partial transfer) swamps
    tiny files: measured on a 5000-row corpus, 128 single-file tasks
    cost 675 ms vs 277 ms serial, while chunks bounded by session width
    match serial at small scale and parallelize the big one."""
    import pandas as pd
    import pyarrow as _pa
    import pyarrow.parquet as _pq

    if isinstance(files, str):
        files = [files]
    frames = []
    for f in files:
        t = _pq.read_table(f, columns=["url", "warc_ts"])
        frames.append(
            pd.DataFrame(
                {
                    "url": t.column("url").to_pandas(),
                    # int64 epoch MICROseconds — must match keep_winners'
                    # arrow cast (a pandas datetime64 round trip would
                    # silently flip to nanoseconds)
                    "ts": t.column("warc_ts").cast(_pa.int64()).to_pandas(),
                }
            )
        )
    df = pd.concat(frames, ignore_index=True)
    return df.groupby("url", sort=False)["ts"].max()


def _winners_merge(broadcast_limit: int, *partials) -> dict | None:
    """Merge per-file winner partials into the broadcast dict.  Runs AS
    A RAY TASK taking the partial ObjectRefs so the whole winners pass
    (reads AND merge) materializes while the driver builds and starts
    the main pipeline — the first keep_winners call blocks on the
    ObjectRef, by which time it is ready or nearly so (overlapped
    instead of a serial driver phase)."""
    import pandas as pd

    agg = pd.concat(list(partials)).groupby(level=0).max()
    if len(agg) > broadcast_limit:
        # sentinel, not an error: the caller routes to the strict
        # bucketed-groupby plan (scale-safe by default — VERDICT r3)
        return None
    return {u: int(t) for u, t in zip(agg.index.to_numpy(), agg.to_numpy())}


def dedup_by_url(
    ds: "ray.data.Dataset",
    strict: bool = False,
    broadcast_limit: int = 20_000_000,
    winners_files: list[str] | None = None,
) -> "ray.data.Dataset":
    """North-rule exact dedup: latest warc_ts wins per url (groupby-url
    before extraction, SURVEY.md §2.6).

    Default plan is the two-pass winners-broadcast: a column-pruned
    pass aggregates max(warc_ts) per url (tiny shuffle: two narrow
    columns, with parquet projection pushdown the payload bytes are
    never read), the winner map is ray.put ONCE, and the main pass
    filters rows to the winners inside map_batches — the multi-KB/MB
    payload column never enters a shuffle.  Precondition: (url,
    warc_ts) pairs are unique (WARC capture timestamps are); with ties
    both captures would survive, so pass ``strict=True`` to use the
    hash-bucketed groupby plan (payload shuffle, exact under ties).

    At cluster scale the broadcast is valid while distinct urls fit one
    node's heap (~20M urls / few GB); beyond ``broadcast_limit``
    distinct urls the plan FALLS BACK to the strict bucketed-groupby
    plan automatically (identical output when (url, warc_ts) is unique
    — covered by tests), so the default is scale-safe rather than an
    error.  Sharding inputs by url (the resumable runner's layout)
    keeps the faster broadcast plan applicable per shard."""
    ensure_worker_importable()
    if strict:
        return (
            ds.map_batches(add_url_bucket, batch_format="pyarrow")
            .groupby("url_bucket")
            .map_groups(dedup_bucket, batch_format="pyarrow")
            .drop_columns(["url_bucket"])
        )
    import ray as _ray

    # winners pass WITHOUT a Ray groupby: the broadcast path already
    # materializes the winner map on the driver, so an all-to-all sort
    # to pre-group it only adds a ~2s barrier; instead stream the
    # column-pruned (url, warc_ts) batches and max-accumulate in the
    # driver dict directly.  Bounded by the same broadcast_limit guard
    # (beyond it, shard the input by url or use strict=True — at that
    # scale the strict bucketed-groupby plan is the right one anyway).
    import numpy as np
    import pyarrow as _pa
    import pyarrow.compute as _pc
    import pyarrow.parquet as _pq

    if winners_files is not None and len(winners_files) == 0:
        # empty partition group: nothing to read winners from — fall
        # through to the generic-Dataset path (the chunking math below
        # would divide by zero)
        winners_files = None
    if winners_files is not None:
        # source-projection fast path, overlapped with pipeline build
        # (_winners_merge docstring); the winners map is read in the
        # first keep_winners call of each worker process.  Total row count
        # (free footer scan) upper-bounds distinct urls: only when it
        # exceeds the broadcast limit must the driver wait for the
        # winners task to learn whether to fall back — the common
        # (bounded) case keeps the fully overlapped plan.
        # num_cpus=0: the winners pass is a narrow projection read
        # (I/O-bound, seconds) that every extraction task waits on in
        # its first keep_winners call.  Holding no CPU, it starts at
        # once instead of queueing behind the fused extraction tasks
        # of this and of concurrently running partitions, which take
        # every CPU slot of the session.  Reader tasks fan out over
        # file CHUNKS (bounded by session width) so wall time stays
        # flat as file count grows (VERDICT r4 #4) without paying
        # per-task overhead on tiny files; the merge is itself a task
        # over the partial refs, so the driver never blocks.
        n_chunks = min(len(winners_files), max(8, session_cpus()))
        step = (len(winners_files) + n_chunks - 1) // n_chunks
        chunks = [
            winners_files[i : i + step]
            for i in range(0, len(winners_files), step)
        ]
        reader = _ray.remote(num_cpus=0)(_winners_file_partial)
        partial_refs = [reader.remote(c) for c in chunks]
        ref = (
            _ray.remote(num_cpus=0)(_winners_merge)
            .remote(broadcast_limit, *partial_refs)
        )
        # footer row counts on the driver: read_pages reads the same
        # footers there, so a remote fan-out would save the driver
        # nothing and put a task round trip (queued behind the winners
        # readers) before each job's first task.  The column reads
        # above are NOT blocked on.
        rows_upper_bound = sum(_pq.read_metadata(f).num_rows for f in winners_files)
        if rows_upper_bound > broadcast_limit:
            if _ray.get(ref) is None:  # over-limit sentinel
                return dedup_by_url(ds, strict=True)
    else:
        # generic-Dataset path: materialize the input ONCE (the winners
        # scan below would otherwise re-execute the full upstream
        # lineage a second time when the main pass runs — for
        # synthesized pages that meant rendering every glyph twice),
        # then stream the two pruned columns and max-accumulate as
        # per-batch vectorized groupby-max partials.  Timestamps stay
        # int64 (epoch us) on both passes; the driver holds only the
        # (url -> max ts) partials, combined C-level.
        import pandas as _pd

        ds = ds.materialize()
        partials: list = []
        n_pending = 0
        over_limit = False
        for batch in (
            ds.select_columns(["url", "warc_ts"])
            .iter_batches(batch_format="pyarrow", batch_size=65536)
        ):
            df = _pd.DataFrame(
                {
                    "u": batch.column("url").to_pandas(),
                    "t": np.asarray(_pc.cast(batch.column("warc_ts"), _pa.int64())),
                }
            )
            partials.append(df.groupby("u", sort=False)["t"].max())
            n_pending += len(partials[-1])
            if n_pending > max(65536, broadcast_limit // 8):
                combined = _pd.concat(partials).groupby(level=0).max()
                partials, n_pending = [combined], len(combined)
                if len(combined) > broadcast_limit:
                    over_limit = True
                    break
        if not over_limit:
            agg = (
                _pd.concat(partials).groupby(level=0).max()
                if partials
                else _pd.Series(dtype=np.int64)
            )
            over_limit = len(agg) > broadcast_limit
        if over_limit:
            # auto-fallback: distinct urls no longer fit a broadcast —
            # route to the strict bucketed plan on the (already
            # materialized) input instead of erroring (VERDICT r3)
            return dedup_by_url(ds, strict=True)
        winners = {u: int(t) for u, t in zip(agg.index.to_numpy(), agg.to_numpy())}
        ref = _ray.put(winners)

    def keep_winners(batch):
        import numpy as _np
        import pandas as _pd
        import pyarrow as pa
        import pyarrow.compute as pc

        # a pd.Series built once per worker process: Series.map(dict)
        # rebuilds a Series from the WHOLE dict on every call
        # (O(|winners|) per batch, measured 0.5 s/batch at 1M urls),
        # while .map(Series) is a C-level index lookup
        m = broadcast_get(ref, _pd.Series)
        ts = _np.asarray(pc.cast(batch.column("warc_ts"), pa.int64()))
        # vectorized dict lookup (C-level .map); epoch-us values are
        # well under 2^53 so the float64 NaN-for-missing round trip is
        # exact, and -1 never matches a real capture timestamp
        want = (
            batch.column("url")
            .to_pandas()
            .map(m)
            .fillna(-1)
            .to_numpy(dtype=_np.int64)
        )
        return batch.filter(pa.array(want == ts))

    return ds.map_batches(keep_winners, batch_format="pyarrow")


# ONE source of truth for page-block granularity: read_pages' default,
# extract_pages_table's slices and the resumable runner all use it.  A
# block is the unit of scheduling: one fused extraction task each.
DEFAULT_ROWS_PER_BLOCK = 128


# Floor of the block size told to Ray.  Below ~1 MiB the first-wave
# output guess (2 x target_max_block_size per task) is negligible
# against the object store either way, and a floor keeps Ray from
# slicing a stage's output that grows a little past its input (a PDF
# page re-wrapped as a raster, say).
MIN_TARGET_BLOCK_BYTES = 1 << 20


def _set_block_size(ds: "ray.data.Dataset", largest_block_bytes: int) -> "ray.data.Dataset":
    """Tell the Dataset how big its blocks really are.  Before a task
    has finished, Ray guesses every task's output at 2 x
    ``target_max_block_size`` (128 MiB by default), so on a 512 MiB
    object store the first wave of a job is one task.  With the real
    (largest) block size the first wave fills every CPU.  The value is
    never below the largest block: with a smaller one Ray would split
    the read's blocks again, and the split ends the fusion."""
    ds.context.target_max_block_size = max(MIN_TARGET_BLOCK_BYTES, largest_block_bytes)
    return ds


def build_extract_pipeline(
    ds: "ray.data.Dataset",
    cfg: PipelineConfig | None = None,
    dedup: bool = True,
    winners_files: list[str] | None = None,
) -> "ray.data.Dataset":
    """pages Dataset (url, warc_ts, html, text, lang) -> final Dataset
    (FINAL_SCHEMA: url, ..., extracted_text, n_spans, spans, elapses)."""
    cfg = cfg or PipelineConfig()
    ensure_worker_importable()
    # NOTE on block granularity: blocks are the unit of task dispatch,
    # and ds.repartition() is an all-to-all BARRIER that materializes
    # the whole input in the object store (measured: it is what made
    # 64k-doc runs degrade superlinearly).  So this builder does NOT
    # repartition — callers control granularity at the source, where it
    # is free and streaming: footer-planned row-group runs via
    # read_pages, or a sliced from_arrow via extract_pages_table.  Both
    # also set the Dataset's target_max_block_size to the real block
    # size (_set_block_size).
    if dedup:
        ds = dedup_by_url(ds, winners_files=winners_files)
    # Both stages are callable INSTANCES over whole blocks: task-based
    # maps with default resources, which Ray Data fuses with the read
    # and the keep_winners filter into one task per block.  Setting a
    # batch_size, concurrency or num_cpus on either stage splits that
    # fusion (a batch size makes each task wait to bundle blocks; a
    # concurrency makes an actor pool that every job must start).
    for stage in (DecodeRouteExtract(cfg), CascadeStage(cfg)):
        ds = ds.map_batches(stage, batch_format="pyarrow", batch_size=None)
    return ds


def extract_pages_table(table, cfg: PipelineConfig | None = None, dedup: bool = True):
    """Convenience: pyarrow pages table -> final Dataset.  The table is
    sliced into ``DEFAULT_ROWS_PER_BLOCK``-row blocks driver-side
    (from_arrow with a table list emits one block per slice) so the
    pipeline parallelizes without a repartition barrier."""
    slices = [
        table.slice(off, DEFAULT_ROWS_PER_BLOCK)
        for off in range(0, table.num_rows, DEFAULT_ROWS_PER_BLOCK)
    ] or [table]
    ds = _set_block_size(ray.data.from_arrow(slices), max(t.nbytes for t in slices))
    return build_extract_pipeline(ds, cfg=cfg, dedup=dedup)


def _read_row_groups(path: str, row_groups: list[int]):
    """Body of one read task: a run of whole row groups of one file."""
    import pyarrow.parquet as _pq

    with _pq.ParquetFile(path) as pf:
        return [pf.read_row_groups(row_groups, use_threads=False)]


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
    n_runs = max(1, int(total / rows_per_block + 0.5))
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


class ReadRun(NamedTuple):
    """One planned read task: whole row groups of one file."""

    path: str
    row_groups: list[int]
    num_rows: int
    size_bytes: int  # uncompressed, from the footer
    schema: "pa.Schema"


class PageFilesSource(ray.data.Datasource):
    """Page parquet files as read tasks planned from their footers.

    Each ``ReadTask`` reads one ``ReadRun`` (``row_group_runs``) with
    ``ParquetFile.read_row_groups``, and its ``BlockMetadata`` carries
    the run's exact row count and uncompressed bytes.  The footers are
    read once, here: no sampling tasks, no second pass.  A zero-row
    file gets no task; when every file is empty, the first one's empty
    read is the only task, so the Dataset keeps the files' schema.
    Hive-style partition directories add no columns."""

    def __init__(self, files: list[str], rows_per_block: int):
        import pyarrow.parquet as _pq

        if not files:
            raise ValueError("read_pages: no input files")
        self.plan: list[ReadRun] = []
        for path in files:
            with _pq.ParquetFile(path) as pf:
                md = pf.metadata
                schema = pf.schema_arrow
            groups = [md.row_group(i) for i in range(md.num_row_groups)]
            for run in row_group_runs([g.num_rows for g in groups], rows_per_block):
                rows = sum(groups[i].num_rows for i in run)
                size = sum(groups[i].total_byte_size for i in run)
                self.plan.append(ReadRun(path, run, rows, size, schema))
        if not self.plan:
            with _pq.ParquetFile(files[0]) as pf:
                self.plan.append(ReadRun(files[0], [], 0, 0, pf.schema_arrow))

    def get_name(self) -> str:
        # the operator is then named ReadParquet..., like read_parquet's
        return "Parquet"

    def estimate_inmemory_data_size(self) -> int:
        return sum(run.size_bytes for run in self.plan)

    def get_read_tasks(self, parallelism: int) -> list:
        # the plan is fixed by the footers; read_pages asks for exactly
        # len(self.plan) blocks, so ``parallelism`` always equals it
        return [
            ReadTask(
                partial(_read_row_groups, run.path, run.row_groups),
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


def read_pages(files: list[str], rows_per_block: int = DEFAULT_ROWS_PER_BLOCK):
    """Page parquet files -> Dataset of one block per read task, planned
    from the files' footers (``PageFilesSource``): each task is a run of
    whole row groups of about ``rows_per_block`` rows of one file.

    Ray is asked for exactly as many blocks as there are read tasks, so
    the read fuses with the extraction maps into one task per block on
    every input shape.  More blocks than read tasks would make Ray add
    a ``SplitBlocks`` operator after the read, which ends the fusion and
    sends every payload block through the object store.  The Dataset's
    ``target_max_block_size`` is the largest task's bytes
    (``_set_block_size``).

    Blocks can only end at row-group boundaries: write sources with
    small row groups (``sources.pages.write_pages_parquet``,
    ``row_group_size=64``).  The 128-row default was chosen on the det
    corpus at 32 CPUs with the earlier actor-pool plan (64 -> 48.3 s,
    128 -> 28.9 s, 256 -> 35.1 s) and has not been re-measured on the
    fused plan."""
    ensure_worker_importable()
    src = PageFilesSource(files, max(1, rows_per_block))
    ds = ray.data.read_datasource(src, override_num_blocks=len(src.plan))
    return _set_block_size(ds, max(run.size_bytes for run in src.plan))
