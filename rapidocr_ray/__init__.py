"""rapidocr_ray — a from-scratch, Ray-Data-native main-content extraction engine.

Re-realizes the query/data-processing capabilities of the reference
(BobLd/RapidOCR, surveyed in SURVEY.md) over Common-Crawl-style Parquet
tables ``(url, warc_ts, html, text, lang)`` as a streaming
``ray.data.Dataset`` pipeline:

- ``map_batches`` over zero-copy Arrow batches for all per-document
  transforms (decode/route, HTML boilerplate strip, det post-process,
  crop fan-out, assembly);
- one fused task per input block for read -> dedup filter ->
  decode/route -> det -> cls -> rec -> assembly (model state built once
  per worker process and reused by its tasks, the Ray analog of the
  reference's ``lru_cache`` model registry,
  ocrweb_multi/rapidocr/rapid_ocr_api.py:53-61);
- explicit partitioning: groupby-url dedup before extraction,
  skew-aware routing of oversized payloads, per-partition checkpoint
  manifests for resume.

Nothing here calls ``ray.init()``/``ray.shutdown()`` — session
ownership belongs to the caller (bench.py, CLI, test fixture).
"""

from rapidocr_ray.config import PipelineConfig

__version__ = "0.1.0"

__all__ = ["PipelineConfig", "__version__"]
