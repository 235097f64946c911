"""Per-partition checkpoint manifests + the resumable runner.

North rule: "resumable from checkpoint with per-partition lineage +
metrics".  The unit of resume is an INPUT shard (one parquet file or an
explicit file group): each shard's extraction output is written to its
own directory, atomically (write to ``<dir>.tmp`` then rename), with a
JSON manifest carrying lineage:

    {partition_id, input_files, input_span, row_count, n_spans,
     routes, elapses, content_hash, engine_version}

A ``run_resumable`` partition's manifest also records ``code_shipping``:
how its execution shipped the engine's code to the workers,
``"by_reference"`` or ``"by_value"`` (``util.ensure_worker_importable``),
so a run shows whether the by-value fallback fired.

On resume, ``run_resumable`` lists existing manifests, skips finished
partitions, and processes only the remainder — a failed run at shard
k restarts at shard k, never recomputing earlier shards.

Scale shape: the shard's output NEVER materializes on the driver.  The
pipeline streams into ``ManifestDatasink``, the write stage of the one
fused extraction task: each task writes its blocks as one parquet file
into the ``.tmp`` dir and returns that file's metrics and content-hash
partial, and the driver merges the tiny partial dicts.  One Ray
execution per partition; nothing is read back.  The content hash is a
COMMUTATIVE digest (sum of per-row sha256(url || text) mod 2^256), so
per-file partials merge associatively regardless of block order — the
table-at-once ``write_partition`` path and the streamed path produce
identical hashes by construction (covered by tests/test_manifest.py).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from ray.data.block import BlockAccessor
from ray.data.datasource import Datasink

from rapidocr_ray.util import ensure_worker_importable

MANIFEST_NAME = "manifest.json"

_HASH_MOD = 1 << 256


def partition_dir(out_dir: str, partition_id: int) -> str:
    return os.path.join(out_dir, f"part-{partition_id:05d}")


def manifest_path(out_dir: str, partition_id: int) -> str:
    return os.path.join(partition_dir(out_dir, partition_id), MANIFEST_NAME)


def completed_partitions(out_dir: str) -> set[int]:
    done = set()
    if not os.path.isdir(out_dir):
        return done
    for name in os.listdir(out_dir):
        if name.startswith("part-") and not name.endswith(".tmp"):
            mpath = os.path.join(out_dir, name, MANIFEST_NAME)
            if os.path.isfile(mpath):
                done.add(int(name.split("-")[1]))
    return done


def _partial_metrics(table: pa.Table, key: str = "url", value: str = "extracted_text") -> dict:
    """Mergeable metrics + hash partial for one table/batch.

    The hash term per row is sha256(key \\x00 value) read as a 256-bit
    int; partials combine by modular addition, so any partitioning of
    the rows yields the same final digest (duplicates accumulate — a
    repeated row shifts the sum, unlike XOR which would cancel pairs).
    """
    routes: dict[str, int] = {}
    if "route" in table.schema.names:
        vc = pc.value_counts(table.column("route"))
        for item in vc:
            k = item["values"].as_py()
            routes[k or "null"] = routes.get(k or "null", 0) + item["counts"].as_py()
    n_spans = 0
    if "n_spans" in table.schema.names:
        s = pc.sum(table.column("n_spans"))
        n_spans = int(s.as_py() or 0)
    elapses = {}
    for col in ("det_elapse", "cls_elapse", "rec_elapse"):
        if col in table.schema.names:
            s = pc.sum(table.column(col))
            elapses[col] = float(s.as_py() or 0.0)
    joined = pc.binary_join_element_wise(
        pc.fill_null(pc.cast(table.column(key), pa.string()), "None"),
        pc.fill_null(pc.cast(table.column(value), pa.string()), "None"),
        "\x00",
    )
    h = 0
    for v in joined.to_pylist():
        h = (h + int.from_bytes(hashlib.sha256(v.encode("utf-8")).digest(), "big")) % _HASH_MOD
    return {
        "row_count": table.num_rows,
        "n_spans": n_spans,
        "routes": routes,
        "elapses": elapses,
        "hash_int": h,
    }


def _merge_partials(partials: list[dict]) -> dict:
    routes: dict[str, int] = {}
    elapses: dict[str, float] = {}
    rows = spans = h = 0
    for p in partials:
        rows += p["row_count"]
        spans += p["n_spans"]
        h = (h + p["hash_int"]) % _HASH_MOD
        for k, v in p["routes"].items():
            routes[k] = routes.get(k, 0) + v
        for k, v in p["elapses"].items():
            elapses[k] = elapses.get(k, 0.0) + v
    return {
        "row_count": rows,
        "n_spans": spans,
        "routes": routes,
        "elapses": {k: round(v, 6) for k, v in elapses.items()},
        "content_hash": format(h, "064x"),
    }


def content_hash(table: pa.Table, key: str = "url", value: str = "extracted_text") -> str:
    """Order-insensitive digest of (key, value) pairs — the lineage
    field a verifier uses to compare reruns without re-reading rows."""
    return _merge_partials([_partial_metrics(table, key=key, value=value)])["content_hash"]


def _write_manifest(tmp: str, final: str, manifest: dict) -> None:
    with open(os.path.join(tmp, MANIFEST_NAME), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1)
    if os.path.isdir(final):
        shutil.rmtree(final)
    os.rename(tmp, final)


def write_partition(
    out_dir: str,
    partition_id: int,
    table: pa.Table,
    input_files: list[str],
    input_span: tuple[int, int] | None = None,
) -> dict:
    """Atomic table-at-once write: parquet + manifest into <part>.tmp,
    then rename.  For small in-memory results; the streamed path in
    ``run_resumable`` covers shards that must never fit on one node."""
    final = partition_dir(out_dir, partition_id)
    tmp = final + ".tmp"
    if os.path.isdir(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp, exist_ok=True)
    pq.write_table(table, os.path.join(tmp, "data.parquet"))
    manifest = {
        "partition_id": partition_id,
        "input_files": input_files,
        "input_span": list(input_span) if input_span else None,
        "written_at": time.time(),
        **_merge_partials([_partial_metrics(table)]),
    }
    _write_manifest(tmp, final, manifest)
    return manifest


class ManifestDatasink(Datasink):
    """The write stage of the fused extraction task.

    ``write`` runs in each task on that task's output blocks: it writes
    them as one parquet file in ``tmp``, named by the task index (a
    retried task overwrites its own file), and returns ``(file name,
    _partial_metrics)``, or ``None`` when the task kept no rows.
    ``on_write_complete`` runs on the driver once every task is done and
    keeps those returns in ``write_returns``."""

    def __init__(self, tmp: str):
        self.tmp = tmp
        self.write_returns: list = []

    def write(self, blocks, ctx) -> tuple[str, dict] | None:
        tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return None
        table = pa.concat_tables(tables, promote_options="default")
        name = f"task-{ctx.task_idx:05d}.parquet"
        pq.write_table(table, os.path.join(self.tmp, name))
        return name, _partial_metrics(table)

    def on_write_complete(self, write_result) -> None:
        self.write_returns = list(write_result.write_returns)


def write_partition_streamed(
    out_dir: str,
    partition_id: int,
    result,
    input_files: list[str],
    input_span: tuple[int, int] | None = None,
) -> dict:
    """Atomic streamed write of a Dataset partition.

    ``result.write_datasink(ManifestDatasink(tmp))`` runs the pipeline
    and its write as one Ray execution: every extraction task writes
    its own parquet file into ``<part>.tmp`` (resumable output, never
    one giant file) and returns that file's metrics/hash partial.  The
    driver checks that every returned file is visible, merges the
    partials and renames the directory.  Driver memory is O(#files),
    independent of partition row count."""
    from rapidocr_ray.stages.ray_stages import FINAL_SCHEMA

    final = partition_dir(out_dir, partition_id)
    tmp = final + ".tmp"
    if os.path.isdir(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp, exist_ok=True)
    # the mode of this execution: Ray pickles the fused task's code,
    # the sink's class included, when write_datasink starts it
    code_shipping = ensure_worker_importable()
    sink = ManifestDatasink(tmp)
    result.write_datasink(sink)
    written = sorted((r for r in sink.write_returns if r is not None), key=lambda r: r[0])
    missing = [
        name for name, _ in written if not os.path.isfile(os.path.join(tmp, name))
    ]
    if missing:
        # the tasks write worker-side: a node-local out_dir on a
        # multi-node cluster keeps other nodes' files out of the
        # driver's sight, which would be silent data loss
        raise RuntimeError(
            f"write_partition_streamed: workers wrote {missing} but they "
            f"are not visible at {tmp!r} — out_dir must be on a filesystem "
            "shared between driver and workers (NFS / object store); a "
            "node-local path silently drops data"
        )
    if not written:
        # empty stream: keep the partition readable with an explicit
        # empty file
        empty = FINAL_SCHEMA.empty_table()
        pq.write_table(empty, os.path.join(tmp, "data.parquet"))
        written = [("data.parquet", _partial_metrics(empty))]
    manifest = {
        "partition_id": partition_id,
        "input_files": input_files,
        "input_span": list(input_span) if input_span else None,
        "written_at": time.time(),
        "output_files": [name for name, _ in written],
        "code_shipping": code_shipping,
        **_merge_partials([partial for _, partial in written]),
    }
    _write_manifest(tmp, final, manifest)
    return manifest


def run_resumable(
    input_files: list[str],
    out_dir: str,
    cfg=None,
    files_per_partition: int = 1,
    dedup: bool = True,
    partition_parallelism: int = 1,
) -> dict:
    """Extraction over parquet shards with skip-finished semantics.

    Returns the run report: per-partition manifests + totals.  Note the
    dedup scope: latest-capture-wins runs WITHIN a partition (url is
    the partition key of the upstream sharding at production scale, so
    cross-shard duplicates do not occur when inputs are url-sharded;
    for unsharded inputs pass files_per_partition=len(input_files)).

    ``partition_parallelism > 1`` submits that many partitions' pipelines
    concurrently (driver threads; Ray interleaves their fused tasks on
    the one cluster).  At production shard counts this hides each
    partition's ramp and tail (winners pass, last blocks) behind the
    other partitions' compute.  Every pipeline is task-based, so k
    pipelines share the session's CPUs without sizing rules: a task
    holds its CPU only for one block, and none can starve the others."""
    from rapidocr_ray.pipelines.extract import build_extract_pipeline, read_pages

    os.makedirs(out_dir, exist_ok=True)
    groups = [
        input_files[i:i + files_per_partition]
        for i in range(0, len(input_files), files_per_partition)
    ]
    done = completed_partitions(out_dir)
    k = max(1, min(partition_parallelism, len(groups)))

    import threading

    build_lock = threading.Lock()

    def run_partition(pid: int, group: list[str]) -> dict:
        with build_lock:
            # dataset BUILD (footer reads, plan construction) hits
            # lazy imports inside Ray/pyarrow that are not thread-safe;
            # building is milliseconds, so serializing it costs nothing
            # while the EXECUTIONS still overlap
            ds = read_pages(group)
            result = build_extract_pipeline(
                ds, cfg=cfg, dedup=dedup, winners_files=group
            )
        return write_partition_streamed(out_dir, pid, result, group)

    manifests_by_pid: dict[int, dict] = {}
    skipped = []
    pending: list[tuple[int, list[str]]] = []
    for pid, group in enumerate(groups):
        if pid in done:
            skipped.append(pid)
            with open(manifest_path(out_dir, pid), encoding="utf-8") as f:
                manifests_by_pid[pid] = json.load(f)
        else:
            pending.append((pid, group))
    if k > 1 and len(pending) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=k) as pool:
            futs = {
                pid: pool.submit(run_partition, pid, group)
                for pid, group in pending
            }
        for pid, fut in futs.items():
            manifests_by_pid[pid] = fut.result()
    else:
        for pid, group in pending:
            manifests_by_pid[pid] = run_partition(pid, group)
    manifests = [manifests_by_pid[pid] for pid in sorted(manifests_by_pid)]
    return {
        "out_dir": out_dir,
        "n_partitions": len(groups),
        "skipped": skipped,
        "row_count": sum(m["row_count"] for m in manifests),
        "manifests": manifests,
    }
