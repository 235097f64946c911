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

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from rapidocr_ray.config import PipelineConfig
from rapidocr_ray.sources.parquet import group_runs, read_footers, read_plan, set_block_size
from rapidocr_ray.util import (
    broadcast_get,
    ensure_worker_importable,
    session_cpus,
)
from rapidocr_ray.stages.ray_stages import (
    CascadeStage,
    DecodeRouteExtract,
    dedup_bucket,
)
from rapidocr_ray.stages.tiered import by_key

# distinct urls the winners broadcast may hold; past it dedup_by_url
# falls back to the strict bucketed plan.  Read at call time (tests
# monkeypatch it, as they do ``tiered.BROADCAST_LIMIT``).
WINNERS_LIMIT = 20_000_000

# (url, latest capture) rows of the winners pass; warc_ts as int64
# epoch microseconds, the cast keep_winners compares against
_URL_TS = pa.schema([("url", pa.string()), ("ts", pa.int64())])


def _max_by_url(parts: list[pa.Table]) -> pa.Table:
    """Max ts per url over (url, ts) tables; null urls are one group.
    The empty seed table gives zero parts the same typed answer, and
    ``permissive`` promotion admits large_string url columns."""
    t = pa.concat_tables([_URL_TS.empty_table(), *parts], promote_options="permissive")
    agg = t.group_by("url").aggregate([("ts", "max")])
    return pa.table({"url": agg["url"], "ts": agg["ts_max"]})


def _winners_partial(*sources) -> pa.Table:
    """Winners partial over a chunk of page sources: parquet file paths
    (read with the two-column projection, so no payload byte is read)
    or Arrow blocks of a materialized Dataset (resolved from their
    object refs; only the two columns are touched)."""
    parts = []
    for s in sources:
        t = pq.read_table(s, columns=["url", "warc_ts"]) if isinstance(s, str) else s
        parts.append(
            pa.table({"url": t["url"], "ts": pc.cast(t["warc_ts"], pa.int64())})
        )
    return _max_by_url(parts)


def _winners_merge(limit: int, *partials: pa.Table) -> pd.Series | None:
    """The winners as a ``pd.Series`` (url -> int64 epoch us), the
    object every keep_winners call reads, or None when more than
    ``limit`` distinct urls would be broadcast."""
    agg = _max_by_url(list(partials))
    if agg.num_rows > limit:
        return None
    return pd.Series(agg["ts"].to_numpy(), index=pd.Index(agg["url"].to_pandas()))


def dedup_by_url(
    ds: "ray.data.Dataset",
    strict: bool = False,
    winners_files: list[str] | None = None,
) -> "ray.data.Dataset":
    """North-rule exact dedup: the latest warc_ts wins per url, before
    extraction (SURVEY.md §2.6).  A null url is a url of its own: the
    latest null-url capture is kept, as ``OracleExtractor.run`` does.

    Default plan, the winners broadcast: only the narrow (url, warc_ts)
    columns cross a task boundary, and the payload stays in the fused
    extraction task.
    1. The sources are ``winners_files`` when given (the parquet files
       ``ds`` reads, e.g. ``read_pages(winners_files)``), else the
       Arrow blocks of ``ds.materialize()``, so the main pass does not
       run the upstream lineage a second time.
    2. ``num_cpus=0`` reader tasks, at most ``max(8, session_cpus())``,
       each take the max warc_ts per url over a contiguous chunk of
       sources.  Chunks, not one task per source: per-task overhead
       swamps tiny files, and each concurrent reader may hold a worker
       process of its own (~100 MB).  One merge task, also
       ``num_cpus=0``, combines the partials into a ``pd.Series``.
       Holding no CPU, these tasks start at once instead of queueing
       behind the extraction tasks that fill every CPU slot.
    3. The driver does not wait for them: the first keep_winners call
       of each worker process reads the Series (``broadcast_get``),
       and the filter fuses with the read and the extraction maps.

    Distinct urls are at most ``ds.count()``, which the read plan (or
    the materialized blocks) answers from metadata.  Only when that
    count exceeds ``WINNERS_LIMIT`` does the driver block on the merge,
    which returns None past the limit; the plan then falls back to the
    strict one, so the default stays scale-safe.

    Precondition: (url, warc_ts) pairs are unique, as WARC capture
    timestamps are; under a tie both captures survive.  ``strict=True``
    runs the url-keyed ``tiered.by_key`` plan instead (payload shuffle,
    one row per url even under ties); when the pairs are unique both
    plans give the same rows."""
    ensure_worker_importable()
    if strict:
        return by_key(ds, "url", dedup_bucket, batch_format="pyarrow")
    if winners_files:
        sources = list(winners_files)
    else:
        ds = ds.materialize()
        sources = ds.to_arrow_refs()
    limit = WINNERS_LIMIT
    step = max(1, -(-len(sources) // max(8, session_cpus())))
    reader = ray.remote(num_cpus=0)(_winners_partial)
    partials = [
        reader.remote(*sources[i : i + step]) for i in range(0, len(sources), step)
    ]
    ref = ray.remote(num_cpus=0)(_winners_merge).remote(limit, *partials)
    if ds.count() > limit and ray.get(ref) is None:
        return dedup_by_url(ds, strict=True)

    def keep_winners(batch: pa.Table) -> pa.Table:
        winners = broadcast_get(ref)
        pos = winners.index.get_indexer(batch.column("url").to_pandas())
        ts = pc.cast(batch.column("warc_ts"), pa.int64()).to_numpy()
        hit = np.flatnonzero(pos >= 0)
        keep = np.zeros(batch.num_rows, dtype=bool)
        keep[hit] = winners.to_numpy()[pos[hit]] == ts[hit]
        return batch.filter(pa.array(keep))

    return ds.map_batches(keep_winners, batch_format="pyarrow")


# ONE source of truth for page-block granularity: read_pages' default,
# extract_pages_table's slices and the resumable runner all use it.  A
# block is the unit of scheduling: one fused extraction task each.
DEFAULT_ROWS_PER_BLOCK = 128


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
    # size (set_block_size).
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
    ds = set_block_size(ray.data.from_arrow(slices), max(t.nbytes for t in slices))
    return build_extract_pipeline(ds, cfg=cfg, dedup=dedup)


def read_pages(files: list[str], rows_per_block: int = DEFAULT_ROWS_PER_BLOCK):
    """Page parquet files -> Dataset of one block per read task, planned
    from the files' footers (``sources.parquet.group_runs``): each task
    is a run of whole row groups of about ``rows_per_block`` rows of one
    file.

    Ray is asked for exactly as many blocks as there are read tasks, so
    the read fuses with the extraction maps into one task per block on
    every input shape.  More blocks than read tasks would make Ray add
    a ``SplitBlocks`` operator after the read, which ends the fusion and
    sends every payload block through the object store.  The Dataset's
    ``target_max_block_size`` is the largest task's bytes
    (``set_block_size``).

    Blocks can only end at row-group boundaries: write sources with
    small row groups (``sources.pages.write_pages_parquet``,
    ``row_group_size=64``).  The 128-row default was chosen on the
    earlier actor-pool plan and has not been re-measured on the fused
    plan."""
    footers = read_footers(files, None)
    plan = [run for f in footers for run in group_runs(f, rows_per_block)]
    return read_plan(plan, footers, None)
