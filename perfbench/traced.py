"""The traced run: per-layer metrics of one workload.

1. Ray pass.  Untraced and traced jobs alternate in one Ray session.  A
   traced job records spans around the benchmark's own calls into a
   layer (``run_resumable``, the drain, each ``QUERIES[name]``) and,
   through proxies put in place for the length of the job, around
   ``read_pages``, ``build_extract_pipeline``, ``write_partition_streamed``
   and ``Dataset.write_parquet``.  It keeps ``Dataset.stats()`` of every
   Dataset the job holds and counts executions and stats summaries from
   Ray Data's own log records.  The difference between traced and
   untraced job time is the tracing overhead.
2. Serial pass (extraction workloads).  The same input files, no Ray:
   read, latest-capture dedup, ``DecodeRouteExtract(cfg)(batch)`` and
   ``CascadeStage(cfg)(batch)`` in process, with proxies around the
   stage's detector / classifier / recognizer and around the
   ``functions`` entry points ``stages.ray_stages`` calls.  Its output
   must equal the Ray output byte for byte per url.
"""

from __future__ import annotations

import logging
import os
import time

from perfbench import measure, raystats
from perfbench.trace import Patches, Tracer, self_times, total_times

# per-layer metrics and their units, printed for every workload (0 where
# the workload does not reach the layer)
EXTRACT_METRICS = {
    "ray_data.read.wall_s": "s",
    "ray_data.read.blocks": "count",
    "extract.build_s": "s",
    "dedup.kept_frac": "frac",
    "ray_data.cascade_op.wall_s": "s",
    "ray_data.cascade_op.cpu_s": "s",
    "ray_data.cascade_op.pool_size": "count",
    "ray_data.cascade_op.busy_frac": "frac",
    "ray_data.cascade_op.task_wall_max_s": "s",
    "ray_data.cascade_op.skew": "ratio",
    "ray_data.write.wall_s": "s",
    "manifest.partition_s": "s",
    "manifest.post_write_s": "s",
    "manifest.bytes_written": "bytes",
}
SERIAL_METRICS = {
    "serial.wall_s": "s",
    "serial.self_sum_frac": "frac",
    "serial.url_mismatches": "count",
    "read.self_s": "s",
    "dedup.self_s": "s",
    "route.self_s": "s",
    "html.busy_s": "s",
    "html.docs": "count",
    "payload_decode.busy_s": "s",
    "det.busy_s": "s",
    "det.calls": "count",
    "det.boxes": "count",
    "sort_boxes.busy_s": "s",
    "crop.busy_s": "s",
    "cls.busy_s": "s",
    "cls.crops": "count",
    "cls.rot180_frac": "frac",
    "rec.busy_s": "s",
    "rec.crops": "count",
    "assemble.self_s": "s",
    "kernel.docs_per_s": "docs/s",
    "pipeline.core_efficiency": "frac",
}
RUN_METRICS = {
    "trace.overhead_s": "s",
    "trace.overhead_frac": "frac",
    "ray_data.datasets": "count",
    "ray_data.datasets_without_stats": "count",
}


def query_metrics() -> dict[str, str]:
    from perfbench.workloads import CURATION_QUERIES

    out = {}
    for name in CURATION_QUERIES:
        out[f"queries.{name}.s"] = "s"
        out[f"queries.{name}.shuffle_bytes_out"] = "bytes"
    return out


def per_layer_units() -> dict[str, str]:
    return {**EXTRACT_METRICS, **SERIAL_METRICS, **RUN_METRICS, **query_metrics()}


class ExecutionLog(logging.Handler):
    """Counts Dataset executions and the stats summaries Ray Data logs
    for them while ``DataContext.enable_auto_log_stats`` is set."""

    def __init__(self) -> None:
        super().__init__(level=logging.INFO)
        self.started = 0
        self.summaries = 0

    def emit(self, record: logging.LogRecord) -> None:
        msg = record.getMessage()
        if msg.startswith("Starting execution of Dataset"):
            self.started += 1
        elif msg.startswith("Operator ") and (" produced" in msg or "executed in" in msg):
            self.summaries += 1


class RayPassTracer:
    """Proxies for one traced job; ``stats`` collects the parsed
    ``Dataset.stats()`` of every Dataset the job executes."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.stats: list[list[dict]] = []
        self.stats_names: list[str | None] = []
        self.raw_stats: list[str] = []
        self.pools: list[int] = []

    def keep_stats(self, ds, name: str | None = None) -> None:
        text = ds.stats()
        self.raw_stats.append(text)
        self.stats.append(raystats.parse_stats(text))
        self.stats_names.append(name)

    def install(self, patches: Patches) -> None:
        import ray.data

        import rapidocr_ray.pipelines.extract as extract
        import rapidocr_ray.state.manifest as manifest
        from perfbench.worker import probe_cascade_pool

        t = self.tracer
        patches.set(extract, "read_pages", t.wrap(extract.read_pages, "read_pages"))
        patches.set(
            extract,
            "build_extract_pipeline",
            t.wrap(extract.build_extract_pipeline, "build_extract_pipeline"),
        )
        patches.set(
            manifest,
            "write_partition_streamed",
            t.wrap(
                manifest.write_partition_streamed,
                "write_partition_streamed",
                on_result=lambda args, _m: self.keep_stats(args[2]),
            ),
        )
        Dataset = ray.data.Dataset
        patches.set(Dataset, "write_parquet", t.wrap(Dataset.write_parquet, "write_parquet"))
        probe_cascade_pool(patches, self.pools.append)


def _sum(ops: list[dict], key: str) -> float:
    return float(sum(op[key] for op in ops))


def extraction_layers(rt: RayPassTracer, job, job_wall: float) -> dict[str, float]:
    """Per-layer figures of one traced extraction job."""
    ops = [op for stats in rt.stats for op in stats]
    read = raystats.find(ops, "ReadParquet")
    casc = raystats.find(ops, "CascadeStage")
    write = raystats.find(ops, "Write")
    rows_read = _sum(read, "rows_out")
    task_max = max((op["remote_wall"].get("max", 0.0) for op in casc), default=0.0)
    task_total = sum(op["remote_wall"].get("total", 0.0) for op in casc)
    task_n = _sum(casc, "blocks")
    pool = max([p for p in rt.pools if p] or [0])
    spans = rt.tracer.spans
    wps = rt.tracer.named("write_partition_streamed")
    out_dir = job.output if isinstance(job.output, str) else None
    written = 0
    if out_dir and os.path.isdir(out_dir):
        for dirpath, _dirs, files in os.walk(out_dir):
            written += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return {
        "ray_data.read.wall_s": _sum(read, "wall_s"),
        "ray_data.read.blocks": _sum(read, "blocks"),
        "extract.build_s": total_times(spans).get("build_extract_pipeline", 0.0),
        "dedup.kept_frac": _sum(casc, "rows_out") / rows_read if rows_read else 0.0,
        "ray_data.cascade_op.wall_s": _sum(casc, "wall_s"),
        "ray_data.cascade_op.cpu_s": sum(op["remote_cpu"].get("total", 0.0) for op in casc),
        "ray_data.cascade_op.pool_size": float(pool),
        "ray_data.cascade_op.busy_frac": task_total / (pool * job_wall) if pool else 0.0,
        "ray_data.cascade_op.task_wall_max_s": task_max,
        "ray_data.cascade_op.skew": task_max / (task_total / task_n) if task_total else 0.0,
        "ray_data.write.wall_s": _sum(write, "wall_s"),
        "manifest.partition_s": (
            measure.median([s["end"] - s["start"] for s in wps]) if wps else 0.0
        ),
        "manifest.post_write_s": self_times(spans).get("write_partition_streamed", 0.0),
        "manifest.bytes_written": float(written),
    }


def query_layers(rt: RayPassTracer) -> dict[str, float]:
    totals = total_times(rt.tracer.spans)
    out = {}
    for name, stats in zip(rt.stats_names, rt.stats):
        out[f"queries.{name}.s"] = totals.get(f"query:{name}", 0.0)
        out[f"queries.{name}.shuffle_bytes_out"] = float(
            sum(op["bytes_out"] for op in stats if raystats.is_all_to_all(op) and not op["cached"])
        )
    return out


def traced_job(wl, i: int, log: ExecutionLog):
    """One job with every proxy in place; returns (job, per-layer dict)."""
    from ray.data import DataContext

    from perfbench.workloads import CurationOps

    rt = RayPassTracer(Tracer())
    ctx = DataContext.get_current()
    # read when each Dataset is created, so set before the job builds any
    ctx.enable_auto_log_stats = True
    started0, summaries0 = log.started, log.summaries
    try:
        with Patches() as patches:
            rt.install(patches)
            with rt.tracer.span("job"):
                job = wl.run_job(i, rt)
    finally:
        ctx.enable_auto_log_stats = False
    if isinstance(wl, CurationOps):
        layers = query_layers(rt)
    else:
        layers = extraction_layers(rt, job, job.wall_s)
    executed = log.started - started0
    layers["ray_data.datasets"] = float(executed)
    layers["ray_data.datasets_without_stats"] = float(
        max(0, executed - (log.summaries - summaries0))
        + sum(1 for text in rt.raw_stats if not text.strip())
    )
    return job, layers


def serial_pass(wl) -> tuple[dict, dict[str, float]]:
    """In-process pass over the workload's input files.  Returns
    ({url: (route, err, text)}, per-layer figures)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import rapidocr_ray.stages.ray_stages as rs
    from rapidocr_ray.config import PipelineConfig

    cfg = PipelineConfig()
    tracer = Tracer()

    def count_boxes(_args, boxes):
        tracer.count("det.calls")
        tracer.count("det.boxes", len(boxes))

    def count_cls(args, result):
        labels = result[1]
        tracer.count("cls.crops", len(labels))
        tracer.count("cls.rot180", sum(1 for label, _score in labels if label == "180"))

    def count_rec(args, _result):
        tracer.count("rec.crops", len(args[0]))

    out: dict = {}
    with Patches() as patches:
        patches.set(rs, "extract_main_text", tracer.wrap(
            rs.extract_main_text, "html", on_result=lambda a, r: tracer.count("html.docs")
        ))
        patches.set(rs, "decode_page_image", tracer.wrap(rs.decode_page_image, "payload_decode"))
        patches.set(rs, "sorted_boxes", tracer.wrap(rs.sorted_boxes, "sort_boxes"))
        patches.set(rs, "crop_box", tracer.wrap(rs.crop_box, "crop"))
        route = rs.DecodeRouteExtract(cfg)
        cascade = rs.CascadeStage(cfg)
        cascade.detector = tracer.wrap(cascade.detector, "det", on_result=count_boxes)
        cascade.classifier = tracer.wrap(cascade.classifier, "cls", on_result=count_cls)
        cascade.recognizer = tracer.wrap(cascade.recognizer, "rec", on_result=count_rec)
        route_call = tracer.wrap(route, "route")
        cascade_call = tracer.wrap(cascade, "cascade")
        with tracer.span("serial") as root:
            with tracer.span("read"):
                table = pa.concat_tables([pq.read_table(f) for f in wl.files])
            with tracer.span("dedup"):
                table = rs.dedup_bucket(table)
            for off in range(0, table.num_rows, cfg.Ray.batch_size_docs):
                routed = route_call(table.slice(off, cfg.Ray.batch_size_docs))
                for off2 in range(0, routed.num_rows, cfg.Ray.batch_size_bitmap):
                    res = cascade_call(routed.slice(off2, cfg.Ray.batch_size_bitmap))
                    for r in res.select(["url", "route", "err", "extracted_text"]).to_pylist():
                        out[r["url"]] = (r["route"], r["err"], r["extracted_text"])
    wall = root["end"] - root["start"]
    selfs = self_times(tracer.spans)
    totals = total_times(tracer.spans)
    layer_self = sum(v for k, v in selfs.items() if k != "serial")
    crops = tracer.counts.get("cls.crops", 0)
    layers = {
        "serial.wall_s": wall,
        "serial.self_sum_frac": layer_self / wall,
        "read.self_s": selfs.get("read", 0.0),
        "dedup.self_s": selfs.get("dedup", 0.0),
        "route.self_s": selfs.get("route", 0.0),
        "html.busy_s": totals.get("html", 0.0),
        "html.docs": tracer.counts.get("html.docs", 0.0),
        "payload_decode.busy_s": totals.get("payload_decode", 0.0),
        "det.busy_s": totals.get("det", 0.0),
        "det.calls": tracer.counts.get("det.calls", 0.0),
        "det.boxes": tracer.counts.get("det.boxes", 0.0),
        "sort_boxes.busy_s": totals.get("sort_boxes", 0.0),
        "crop.busy_s": totals.get("crop", 0.0),
        "cls.busy_s": totals.get("cls", 0.0),
        "cls.crops": crops,
        "cls.rot180_frac": tracer.counts.get("cls.rot180", 0.0) / crops if crops else 0.0,
        "rec.busy_s": totals.get("rec", 0.0),
        "rec.crops": tracer.counts.get("rec.crops", 0.0),
        "assemble.self_s": selfs.get("cascade", 0.0),
        "kernel.docs_per_s": len(wl.expected) / wall,
    }
    return out, layers


def mismatches(wl, job, serial_out: dict) -> int:
    ray_rows = wl.read_output(job).to_pylist()
    ray_out = {r["url"]: (r["route"], r["err"], r["extracted_text"]) for r in ray_rows}
    return sum(1 for url, v in serial_out.items() if ray_out.get(url) != v) + sum(
        1 for url in ray_out if url not in serial_out
    )


def run(wl, seconds: float, num_cpus: int, report: dict) -> dict:
    """Traced run of one workload in the caller's Ray session."""
    from perfbench.worker import MIN_JOBS, check_jobs
    from perfbench.workloads import CurationOps

    log = ExecutionLog()
    ray_logger = logging.getLogger("ray.data")
    ray_logger.addHandler(log)
    plain, traced = [], []
    layer_samples: list[dict] = []
    t0 = time.perf_counter()
    try:
        while True:
            plain.append(wl.run_job(len(plain) + len(traced)))
            job, layers = traced_job(wl, len(plain) + len(traced), log)
            traced.append(job)
            layer_samples.append(layers)
            elapsed = time.perf_counter() - t0
            pair = plain[-1].wall_s + traced[-1].wall_s
            if len(traced) >= max(2, MIN_JOBS // 2) and elapsed + pair > seconds:
                break
    finally:
        ray_logger.removeHandler(log)

    units = per_layer_units()
    metrics = {name: 0.0 for name in units}
    for name in layer_samples[0]:
        metrics[name] = measure.median([s[name] for s in layer_samples])
    plain_wall = measure.median([j.wall_s for j in plain])
    traced_wall = measure.median([j.wall_s for j in traced])
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall

    bad = 0
    if not isinstance(wl, CurationOps):
        serial_out, serial_layers = serial_pass(wl)
        metrics.update(serial_layers)
        bad = sum(mismatches(wl, job, serial_out) for job in traced)
        metrics["serial.url_mismatches"] = float(bad)
        metrics["pipeline.core_efficiency"] = (wl.docs / plain_wall) / (
            num_cpus * metrics["kernel.docs_per_s"]
        )
    check = check_jobs(wl, plain + traced)
    check.failed += bad
    report["traced"] = {
        "plain_jobs": len(plain),
        "traced_jobs": len(traced),
        "plain_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "check_notes": check.notes[:10],
    }
    return {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
