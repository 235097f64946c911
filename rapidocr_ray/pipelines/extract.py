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


# distinct urls the winners broadcast may hold; past it dedup_by_url
# falls back to the strict bucketed plan.  Read at call time (tests
# monkeypatch it, as they do ``tiered.BROADCAST_LIMIT``).
WINNERS_LIMIT = 20_000_000


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
    url-keyed ``tiered.by_key`` plan (payload shuffle, exact under ties).

    At cluster scale the broadcast is valid while distinct urls fit one
    node's heap (~20M urls / few GB); beyond ``WINNERS_LIMIT``
    distinct urls the plan FALLS BACK to the strict bucketed-groupby
    plan automatically (identical output when (url, warc_ts) is unique
    — covered by tests), so the default is scale-safe rather than an
    error.  Sharding inputs by url (the resumable runner's layout)
    keeps the faster broadcast plan applicable per shard.

    ``winners_files`` names the parquet files that ``ds`` reads
    (``read_pages(winners_files)``): the winners are read from them
    directly, and the read's planned row count bounds the urls."""
    ensure_worker_importable()
    if strict:
        return by_key(ds, "url", dedup_bucket, batch_format="pyarrow")
    import ray as _ray

    # winners pass WITHOUT a Ray groupby: the broadcast path already
    # materializes the winner map on the driver, so an all-to-all sort
    # to pre-group it only adds a ~2s barrier; instead stream the
    # column-pruned (url, warc_ts) batches and max-accumulate in the
    # driver dict directly.  Bounded by the same WINNERS_LIMIT guard
    # (beyond it, shard the input by url or use strict=True — at that
    # scale the strict bucketed-groupby plan is the right one anyway).
    import numpy as np
    import pyarrow as _pa
    import pyarrow.compute as _pc

    if winners_files is not None and len(winners_files) == 0:
        # empty partition group: nothing to read winners from — fall
        # through to the generic-Dataset path (the chunking math below
        # would divide by zero)
        winners_files = None
    if winners_files is not None:
        # source-projection fast path, overlapped with pipeline build
        # (_winners_merge docstring); the winners map is read in the
        # first keep_winners call of each worker process.  Total row count
        # (the read plan's) upper-bounds distinct urls: only when it
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
            .remote(WINNERS_LIMIT, *partial_refs)
        )
        # the read's planned row count: ``ds`` reads ``winners_files``
        # (read_pages), whose read tasks carry their footer row counts,
        # so count() answers from that metadata without running
        # anything or opening a footer again.  The column reads above
        # are NOT blocked on.
        if ds.count() > WINNERS_LIMIT:
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
            if n_pending > max(65536, WINNERS_LIMIT // 8):
                combined = _pd.concat(partials).groupby(level=0).max()
                partials, n_pending = [combined], len(combined)
                if len(combined) > WINNERS_LIMIT:
                    over_limit = True
                    break
        if not over_limit:
            agg = (
                _pd.concat(partials).groupby(level=0).max()
                if partials
                else _pd.Series(dtype=np.int64)
            )
            over_limit = len(agg) > WINNERS_LIMIT
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
