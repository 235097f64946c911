"""Single-process oracle — the reference-shaped per-document loop.

This is the ``RapidOCR.__call__``-style implementation
(rapid_ocr_api.py:56-107 traced in SURVEY.md §3.1): one document at a
time, no Ray, no cross-document batching.  It shares the per-operator
kernels with the distributed pipeline, so the byte-identical-per-url
test (FIXTURES.md, verification protocol) checks exactly what can
differ: orchestration — batching, shuffles, task fusion, block order.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pyarrow as pa

from rapidocr_ray.config import PipelineConfig
from rapidocr_ray.functions.html import extract_main_text
from rapidocr_ray.functions.imgproc import (
    crop_box,
    sorted_boxes,
    use_det_bypass,
    whole_image_box,
)
from rapidocr_ray.functions.codecs import decode_page_image
from rapidocr_ray.stages.cascade import (
    TextClassifier,
    TextDetector,
    TextRecognizer,
    apply_most_angle,
)
from rapidocr_ray.functions.pdf import parse_pdf
from rapidocr_ray.glyphs import encode_rbmp
from rapidocr_ray.stages.ray_stages import (
    CASCADE_ROUTES,
    FINAL_SCHEMA,
    maybe_gunzip,
    sniff_route,
)
from rapidocr_ray.state.models import ModelRegistry


class OracleExtractor:
    """One-document-at-a-time extractor with the reference's control
    flow; all three stage objects built once (state creation, SURVEY.md
    §3.1 step 1)."""

    def __init__(self, cfg: PipelineConfig | None = None):
        self.cfg = cfg or PipelineConfig()
        self.registry = ModelRegistry(self.cfg.Global.backend)
        self.detector = TextDetector(self.cfg.Det, self.registry)
        self.classifier = TextClassifier(self.cfg.Cls, self.registry)
        self.recognizer = TextRecognizer(self.cfg.Rec, self.registry)

    def extract_one(self, url, warc_ts, payload, lang) -> dict:
        g = self.cfg.Global
        row = {
            "url": url, "warc_ts": warc_ts, "lang": lang,
            "route": None, "err": None, "extracted_text": None,
            "n_spans": 0, "spans": "[]",
            "det_elapse": None, "cls_elapse": None, "rec_elapse": None,
        }
        payload, gz_err = maybe_gunzip(payload, g.max_payload_bytes)
        if gz_err is not None:
            row.update(route="error", err=gz_err)
            return row
        route, err = sniff_route(payload)
        max_bytes = g.max_payload_bytes
        if payload is not None and len(payload) > max_bytes:
            route, err = "error", f"payload exceeds max_payload_bytes ({max_bytes})"
        row["route"], row["err"] = route, err
        if route == "html":
            row["extracted_text"] = extract_main_text(
                payload.decode("utf-8", errors="replace"), self.cfg.Html
            )
            return row
        if route == "pdf":
            # same fan-out as DecodeRouteExtract: born-digital -> text,
            # scanned -> RBMP-wrapped raster into the cascade below
            try:
                kind, content = parse_pdf(payload)
            except (ValueError, NotImplementedError) as exc:
                row.update(route="error", err=str(exc))
                return row
            if kind == "text":
                row.update(route="pdf_text", extracted_text=content)
                return row
            route = "pdf_raster"
            row["route"] = route
            payload = encode_rbmp(content)
        if route not in CASCADE_ROUTES:
            return row
        t0 = time.perf_counter()
        try:
            img = decode_page_image(payload)
        except (ValueError, NotImplementedError) as exc:
            row.update(route="error", err=str(exc))
            return row
        h, w = img.shape
        # M17 routing (rapid_ocr_api.py:69-77)
        if not g.use_det or use_det_bypass(h, w, g.min_height, g.width_height_ratio):
            boxes = [whole_image_box(h, w)]
        else:
            det_boxes = self.detector(img, lang)
            if len(det_boxes) == 0:  # M18 empty short-circuit
                row["det_elapse"] = time.perf_counter() - t0
                return row
            boxes = sorted_boxes(det_boxes)  # M8
        row["det_elapse"] = time.perf_counter() - t0
        crops = [crop_box(img, np.asarray(b)) for b in boxes]  # M9
        if g.use_cls:
            t1 = time.perf_counter()
            if g.use_most_angle:
                # A4 mostAngle (OcrLite.cpp:150-160): per-document vote
                # over the unrotated crops, rotate all or none
                cls_res = self.classifier.classify_only(crops, lang)
                crops = apply_most_angle(crops, cls_res)
            else:
                crops, _cls_res = self.classifier(crops, lang)
            row["cls_elapse"] = time.perf_counter() - t1
        t2 = time.perf_counter()
        rec_res = self.recognizer(crops, lang)
        row["rec_elapse"] = time.perf_counter() - t2
        # J1 positional zip + M15 score filter (rapid_ocr_api.py:176-183)
        kept = [
            (box, text, score)
            for box, (text, score) in zip(boxes, rec_res)
            if score >= g.text_score
        ]
        if not kept:
            return row  # extracted_text stays None (M18)
        row["extracted_text"] = "\n".join(t for _, t, _s in kept)  # A5
        row["n_spans"] = len(kept)
        row["spans"] = json.dumps(
            [
                {
                    "box": [int(v) for v in np.asarray(b).reshape(-1)],
                    "text": t,
                    "score": s,
                }
                for b, t, s in kept
            ]
        )
        return row

    def run(self, pages: pa.Table, dedup: bool = True) -> pa.Table:
        """Sequential run over a pages table; dedup = latest warc_ts per
        url (same rule as pipelines.extract.dedup_by_url)."""
        records = pages.to_pylist()
        if dedup:
            best: dict[str, dict] = {}
            for r in records:
                prev = best.get(r["url"])
                if prev is None or r["warc_ts"] > prev["warc_ts"]:
                    best[r["url"]] = r
            records = list(best.values())
        rows = [
            self.extract_one(r["url"], r["warc_ts"], r["html"], r["lang"])
            for r in records
        ]
        cols = {f.name: [r[f.name] for r in rows] for f in FINAL_SCHEMA}
        return pa.table(cols, schema=FINAL_SCHEMA)
