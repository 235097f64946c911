"""Result writers/sinks (S6/S7 analogs).

- ``render_boxes``: draw det boxes onto the page bitmap (the
  draw_text_det_res debug sink, ch_ppocr_v3_det/utils.py:239-245) —
  box outlines burned in at a mid-gray level.
- ``render_stage``: optional map_batches debug stage producing an
  RBMP-encoded ``rendered`` column from final spans.
- ``result_to_json`` / ``decode_data_url``: the JSON encoder
  (ocrweb/rapidocr_web/api.py:26-32, numpy-aware) and the base64
  data-URL ingest adapter (ocrweb/rapidocr_web/task.py:30-37).
- ``write_results``: partitioned parquet sink (primary sink; one
  directory per run with shard files, resumable layout in
  state/manifest.py).
"""

from __future__ import annotations

import base64
import json

import numpy as np
import pyarrow as pa

# module-level bind, NOT a function-level import: this module can ship
# to workers by value, where a live `import rapidocr_ray...` inside a
# function fails off-repo-CWD
from rapidocr_ray.functions.hashing import crc_bucket
from rapidocr_ray.glyphs import GLYPH_H, GLYPHS, render_line
from rapidocr_ray.sources.parquet import read_table

BOX_GRAY = 128


def render_boxes(img: np.ndarray, boxes: list) -> np.ndarray:
    """Burn box outlines (1-px, gray) into a copy of the page."""
    out = img.copy()
    h, w = out.shape
    for box in boxes:
        b = np.asarray(box).reshape(4, 2).astype(np.int64)
        x0 = int(np.clip(b[:, 0].min(), 0, w - 1))
        x1 = int(np.clip(b[:, 0].max(), 0, w - 1))
        y0 = int(np.clip(b[:, 1].min(), 0, h - 1))
        y1 = int(np.clip(b[:, 1].max(), 0, h - 1))
        out[y0, x0:x1 + 1] = BOX_GRAY
        out[y1, x0:x1 + 1] = BOX_GRAY
        out[y0:y1 + 1, x0] = BOX_GRAY
        out[y0:y1 + 1, x1] = BOX_GRAY
    return out


def result_to_json(obj) -> str:
    """Numpy-aware JSON encoder (S7: default=tolist,
    ocrweb_multi/utils/utils.py:20-27)."""

    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, (np.floating,)):
            return float(o)
        if isinstance(o, bytes):
            return base64.b64encode(o).decode()
        return str(o)

    return json.dumps(obj, default=default)


def decode_data_url(data_url: str) -> bytes:
    """S4 ingest adapter: 'data:*;base64,<payload>' -> bytes
    (task.py:30-37 split-on-comma semantics)."""
    if "," in data_url:
        data_url = data_url.split(",", 1)[1]
    return base64.b64decode(data_url)


def render_page_with_text(
    img: np.ndarray,
    spans: list,
    text_score: float = 0.5,
) -> np.ndarray:
    """``draw_ocr_box_txt`` analog (python/demo.py:16-87): a (h, 2w)
    side-by-side debug canvas — left half is the page with each box
    interior blended 50% toward a per-box deterministic gray (the
    ``random.seed(0)`` color analog), right half is a white canvas with
    the box outline and the recognized text re-rendered from the glyph
    alphabet, scaled to ~0.8x the box height (the reference's font-size
    rule) and stacked vertically when box_height > 2*box_width.

    ``spans`` is a list of dicts with ``box`` (4x2), ``text``,
    ``score`` — the final-span layout the cascade emits.  Spans under
    ``text_score`` are skipped, matching demo.py:31-32.  Grayscale
    throughout (the engine's pages are single-channel); no PIL/cv2.
    """
    h, w = img.shape
    left = img.astype(np.uint16)
    right = np.full((h, w), 255, dtype=np.uint8)
    rng = np.random.default_rng(0)

    def _paste(canvas, y0, x0, patch, invert=True):
        ph, pw = patch.shape
        y1, x1 = min(h, y0 + ph), min(w, x0 + pw)
        if y1 <= y0 or x1 <= x0:
            return
        view = patch[: y1 - y0, : x1 - x0]
        if invert:  # glyphs are ink=255 on 0; right canvas is white
            canvas[y0:y1, x0:x1] = np.minimum(
                canvas[y0:y1, x0:x1], 255 - view
            )
        else:
            canvas[y0:y1, x0:x1] = view

    for span in spans:
        score = float(span.get("score", 1.0))
        if score < text_score:
            continue
        b = np.asarray(span["box"], dtype=np.float64).reshape(4, 2)
        gray = int(rng.integers(0, 256))
        x0 = int(np.clip(b[:, 0].min(), 0, w - 1))
        x1 = int(np.clip(b[:, 0].max(), 0, w - 1))
        y0 = int(np.clip(b[:, 1].min(), 0, h - 1))
        y1 = int(np.clip(b[:, 1].max(), 0, h - 1))
        # left: 50% blend of the box interior toward the box color
        # (Image.blend(image, img_left, 0.5) over the filled polygon)
        left[y0:y1 + 1, x0:x1 + 1] = (left[y0:y1 + 1, x0:x1 + 1] + gray) // 2
        # right: outline at the box color
        right[y0, x0:x1 + 1] = gray
        right[y1, x0:x1 + 1] = gray
        right[y0:y1 + 1, x0] = gray
        right[y0:y1 + 1, x1] = gray
        text = span.get("text") or ""
        text = "".join(c for c in text if c in GLYPHS)
        if not text:
            continue
        box_h = float(np.hypot(*(b[0] - b[3])))
        box_w = float(np.hypot(*(b[0] - b[1])))
        if box_h > 2 * box_w:
            # vertical text: one char per row, font ~0.9*box_width
            s = max(1, int(round(box_w * 0.9 / GLYPH_H)))
            cur_y = int(b[0][1])
            for c in text:
                patch = np.repeat(np.repeat(GLYPHS[c] * 255, s, 0), s, 1)
                _paste(right, cur_y, int(b[0][0]) + 3, patch)
                cur_y += patch.shape[0]
        else:
            s = max(1, int(round(box_h * 0.8 / GLYPH_H)))
            line = render_line(text)
            patch = np.repeat(np.repeat(line, s, 0), s, 1)
            _paste(right, int(b[0][1]), int(b[0][0]), patch)

    out = np.empty((h, 2 * w), dtype=np.uint8)
    out[:, :w] = left.astype(np.uint8)
    out[:, w:] = right
    return out


def write_results(ds, out_dir: str, min_rows_per_file: int = 100_000):
    """Primary sink: directory of parquet shards (never one giant
    file).  For resumable multi-shard runs use
    state.manifest.run_resumable instead."""
    try:
        ds.write_parquet(out_dir, min_rows_per_file=min_rows_per_file)
    except TypeError:  # older Ray releases
        ds.write_parquet(out_dir)
    return out_dir


def _splitmix64(v: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer: full-avalanche mixing so bucket
    assignment uses ALL key bits (a bare multiplicative hash mod a
    power-of-two n_buckets depends only on the key's LOW bits — strided
    key populations would collapse into one bucket, review finding)."""
    with np.errstate(over="ignore"):
        v = (v + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
        v = ((v ^ (v >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)).astype(
            np.uint64
        )
        v = ((v ^ (v >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)).astype(
            np.uint64
        )
        return v ^ (v >> np.uint64(31))


def write_bucketed_parquet(ds, out_dir: str, key: str, n_buckets: int = 16):
    """Hash-bucketed sink: rows land in ``bucket=NN/`` directories —
    downstream consumers that bucket the SAME key with the SAME
    n_buckets can join or dedup per-bucket with NO shuffle (the 100-TB
    co-location tool: pay the partitioned write once, skip the
    all-to-all on every later join).  Bucket contract, exactly:
    integer keys -> splitmix64(uint64(key)) % n_buckets; string keys ->
    crc32(utf8(key)) % n_buckets.  Null keys are a loud ValueError (a
    silent null bucket would pair wrongly in downstream joins).
    Hive-style ``partition_cols`` so ``read_bucketed_parquet`` prunes
    whole directories at the read."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        col = batch.column(key)
        if col.null_count:
            raise ValueError(f"bucket key column {key!r} contains nulls")
        if pa.types.is_integer(col.type):
            v = np.asarray(col).astype(np.uint64)
            b = (_splitmix64(v) % np.uint64(n_buckets)).astype(np.int64)
        else:
            b = crc_bucket(col, n_buckets)
        return batch.append_column("bucket", pa.array(b, type=pa.int64()))

    ds.map_batches(add_bucket, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["bucket"]
    )
    return out_dir


def read_bucketed_parquet(out_dir: str, bucket: int):
    """Read ONE bucket directory (path-pruned — no other bucket's bytes
    leave storage).  A bucket that received no rows has no directory
    (hive layout); it reads as an empty, schema-less dataset rather
    than FileNotFoundError so the iterate-all-buckets consumer pattern
    survives skew and small inputs.  The files are read as written: the
    ``bucket=NN`` directory name adds no column."""
    import os

    import ray.data

    path = f"{out_dir}/bucket={bucket}"
    if not os.path.isdir(path):
        return ray.data.from_arrow(pa.table({}))
    return read_table(path, None)
