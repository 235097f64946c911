"""Ray Data stages of the extraction pipeline.

The reference's single-process cascade (rapid_ocr_api.py:56-107) runs
as two callable stages that Ray Data fuses, together with the read and
the dedup filter, into ONE task per input block:

    decode/route/html  ->  cascade (det -> cls -> rec -> per-document
    assembly)

``DecodeRouteExtract`` emits one *document* row per page in
``UNIFIED_SCHEMA``; ``CascadeStage`` turns those rows into
``FINAL_SCHEMA`` rows.  Crops never leave the task, so the pipeline has
no all-to-all operation after dedup.  Both stages are passed to
``map_batches`` as instances and work in ``__call__`` per block,
batched ACROSS documents and grouped by ``lang`` for model dispatch
(J3); the model registry is built once per worker process (T1/T3
analog, see ``CascadeStage``).  Batch composition cannot change
results: pad width (A1) only adds blank timesteps, which the CTC
decode drops.
"""

from __future__ import annotations

import json
import struct
import time
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from rapidocr_ray.config import PipelineConfig
from rapidocr_ray.functions.html import extract_main_text
from rapidocr_ray.functions.imgproc import (
    crop_box,
    rotate180,
    sorted_boxes,
    use_det_bypass,
    whole_image_box,
)
from rapidocr_ray.functions.codecs import decode_page_image
from rapidocr_ray.functions.pdf import PDF_MAGIC, parse_pdf
from rapidocr_ray.glyphs import MAGIC, encode_rbmp, is_rbmp

# routes whose payload column carries a decodable page bitmap for the
# det->cls->rec cascade (pdf_raster = scanned-PDF raster re-wrapped as
# RBMP by DecodeRouteExtract)
CASCADE_ROUTES = ("bitmap", "pdf_raster")

# known BITMAPINFOHEADER-family sizes at offset 14 — the extra check
# that keeps the weak 2-byte "BM" magic from swallowing text payloads
_DIB_SIZES = tuple(
    struct.pack("<I", s) for s in (12, 40, 52, 56, 64, 108, 124)
)
from rapidocr_ray.stages.cascade import (
    TextClassifier,
    TextDetector,
    TextRecognizer,
    most_angle,
)
from rapidocr_ray.state.models import ModelRegistry
from rapidocr_ray.util import lru_cache_get, process_cache

# DecodeRouteExtract -> CascadeStage row format: one row per document,
# exactly the columns the cascade reads
UNIFIED_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("lang", pa.string()),
        ("route", pa.string()),
        ("err", pa.string()),
        ("extracted_text", pa.string()),
        ("payload", pa.binary()),
    ]
)

FINAL_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("lang", pa.string()),
        ("route", pa.string()),
        ("err", pa.string()),
        ("extracted_text", pa.string()),
        ("n_spans", pa.int32()),
        ("spans", pa.string()),
        ("det_elapse", pa.float64()),
        ("cls_elapse", pa.float64()),
        ("rec_elapse", pa.float64()),
    ]
)


def rows_to_table(rows: list[dict]) -> pa.Table:
    cols = {f.name: [r.get(f.name) for r in rows] for f in FINAL_SCHEMA}
    return pa.table(cols, schema=FINAL_SCHEMA)


GZIP_MAGIC = b"\x1f\x8b"


def maybe_gunzip(
    payload: bytes | None, max_bytes: int
) -> tuple[bytes | None, str | None]:
    """Transparent content-encoding layer shared by the Ray stage and
    the oracle: gzip-wrapped crawl payloads (1f 8b — Common-Crawl
    bodies frequently arrive Content-Encoding: gzip) decompress BEFORE
    routing, bounded by max_payload_bytes so a decompression bomb
    becomes a typed error row, never a worker OOM.  Non-gzip payloads
    pass through untouched."""
    if payload is None or bytes(payload[:2]) != GZIP_MAGIC:
        return payload, None
    # RFC 1952: a gzip file is a CONCATENATION of members (gzip.decompress
    # semantics) — loop members so multi-member bodies don't silently
    # truncate to the first one
    remaining = bytes(payload)
    parts: list[bytes] = []
    total = 0
    while remaining[:2] == GZIP_MAGIC:
        d = zlib.decompressobj(wbits=31)
        try:
            out = d.decompress(remaining, max_bytes + 1 - total)
        except zlib.error as exc:
            return None, f"corrupt gzip payload ({exc})"
        total += len(out)
        if total > max_bytes:
            return None, f"decompressed payload exceeds max_payload_bytes ({max_bytes})"
        if not d.eof:
            return None, "corrupt gzip payload (truncated stream)"
        parts.append(out)
        remaining = d.unused_data
    if remaining:
        return None, "corrupt gzip payload (trailing garbage after member)"
    return b"".join(parts), None


def sniff_route(payload: bytes | None) -> tuple[str, str | None]:
    """S1 LoadImage container sniffing (utils.py:94-152) -> (route, err).

    Magic-byte routing: RBMP bitmaps take the cascade path, markup takes
    the HTML fast path, empty/undecodable payloads become typed error
    rows instead of raising (LoadImageError, utils.py:154)."""
    if payload is None or len(payload) == 0:
        return "empty", "empty payload"
    if is_rbmp(payload):
        return "bitmap", None
    # real image containers decode via the pure-numpy codecs
    # (functions/codecs.py + functions/jpeg.py — incl. the GIF
    # first-frame path the reference special-cases,
    # ocrweb_multi/rapidocr/main.py:29-40); unsupported container
    # features surface as typed error rows from the decode itself.
    # TIFF decodes for real (uncompressed/PackBits); WebP routes to the
    # codec so its NAMED NotImplementedError becomes the error column —
    # crawl triage can count tiff/webp instead of "unrecognized".
    if (
        payload[:4] in (b"\x89PNG", b"GIF8", b"II*\x00", b"MM\x00*")
        or payload[:3] == b"\xff\xd8\xff"
        or (payload[:4] == b"RIFF" and payload[8:12] == b"WEBP")
    ):
        return "bitmap", None
    if payload[:2] == b"BM" and len(payload) >= 54 and payload[14:18] in _DIB_SIZES:
        return "bitmap", None
    if payload[:5] == PDF_MAGIC:
        # PDF payloads split downstream: born-digital (text operators)
        # extract directly like html; scanned (image XObject) rasters
        # re-enter the cascade as bitmap payloads (north rule: "routes
        # PDF/binary payloads through rasterize -> det -> cls -> rec")
        return "pdf", None
    head = payload[:4096]
    try:
        snippet = head.decode("utf-8")
    except UnicodeDecodeError:
        return "error", "undecodable payload"
    if "<" in snippet:
        return "html", None
    return "error", "unrecognized payload format"


def sniff_routes_batch(payloads: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized S1 routing over a whole binary column: the columnar
    form of ``sniff_route`` (kept row-wise for the oracle).  Returns
    (route, err) object ndarrays.  Magic prefixes, emptiness and the
    utf-8 head check all run as Arrow kernels; only batches that
    actually contain invalid-utf-8 text heads fall back to the
    row-wise decode for those rows (semantics preserved exactly)."""
    n = len(payloads)
    routes = np.full(n, "error", dtype=object)
    errs = np.full(n, None, dtype=object)

    null_mask = pc.is_null(payloads).to_numpy(zero_copy_only=False)
    lengths = pc.fill_null(pc.binary_length(payloads), 0).to_numpy(zero_copy_only=False)
    empty = null_mask | (lengths == 0)
    routes[empty] = "empty"
    errs[empty] = "empty payload"

    def _magic(m: bytes) -> np.ndarray:
        eq = pc.equal(
            pc.binary_slice(payloads, 0, len(m)), pa.scalar(m, type=pa.binary())
        )
        return pc.fill_null(eq, False).to_numpy(zero_copy_only=False) & ~empty

    bitmap = (
        _magic(MAGIC)
        | _magic(b"\x89PNG")
        | _magic(b"GIF8")
        | _magic(b"\xff\xd8\xff")
        | _magic(b"II*\x00")
        | _magic(b"MM\x00*")
    )
    # WebP = RIFF container with WEBP fourcc at offset 8 (routes to the
    # codec's named NotImplementedError, same as the row-wise sniff)
    riff = _magic(b"RIFF") & (lengths >= 12)
    if riff.any():
        fourcc = pc.binary_slice(payloads, 8, 12)
        webp_eq = pc.fill_null(
            pc.equal(fourcc, pa.scalar(b"WEBP", type=pa.binary())), False
        ).to_numpy(zero_copy_only=False)
        bitmap |= riff & webp_eq
    # BMP: "BM" alone is too weak a magic (plain text can start with
    # it); require a known DIB header size at offset 14 like the
    # row-wise sniff does
    bm = _magic(b"BM") & (lengths >= 54)
    if bm.any():
        dib = pc.binary_slice(payloads, 14, 18)
        dib_ok = np.zeros(n, dtype=bool)
        for s in _DIB_SIZES:
            eq = pc.fill_null(pc.equal(dib, pa.scalar(s, type=pa.binary())), False)
            dib_ok |= eq.to_numpy(zero_copy_only=False)
        bitmap |= bm & dib_ok
    routes[bitmap] = "bitmap"
    errs[bitmap] = None
    pdf = _magic(PDF_MAGIC) & ~bitmap
    routes[pdf] = "pdf"
    errs[pdf] = None
    rest = ~(empty | bitmap | pdf)
    rest_idx = np.flatnonzero(rest)
    if len(rest_idx):
        heads = pc.binary_slice(payloads.take(pa.array(rest_idx)), 0, 4096)
        try:
            snippets = heads.cast(pa.string())  # validates utf-8 in C
            has_lt = pc.match_substring(snippets, "<").to_numpy(zero_copy_only=False)
            routes[rest_idx[has_lt]] = "html"
            errs[rest_idx[~has_lt]] = "unrecognized payload format"
        except pa.ArrowInvalid:
            # rare: some head is invalid utf-8 (binary junk or a split
            # multibyte char) — decide those rows exactly as the
            # row-wise sniff does
            head_bytes = heads.to_pylist()
            for j, i in enumerate(rest_idx):
                try:
                    snippet = head_bytes[j].decode("utf-8")
                except UnicodeDecodeError:
                    errs[i] = "undecodable payload"
                    continue
                if "<" in snippet:
                    routes[i] = "html"
                else:
                    errs[i] = "unrecognized payload format"
    return routes, errs


class DecodeRouteExtract:
    """Stage 1 (a stateless callable carrying the config): sniff payload
    -> route; run the HTML fast path inline for html rows (it is
    orders of magnitude cheaper than the cascade — SURVEY.md §6);
    bitmap payloads ride along untouched.

    Routing is fully columnar (``sniff_routes_batch``); the only
    per-row Python left is the HTML parse itself, which is inherently
    row-wise."""

    def __init__(self, cfg: PipelineConfig | None = None):
        self.cfg = cfg or PipelineConfig()

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        payloads = batch.column("html").combine_chunks()
        max_bytes = self.cfg.Global.max_payload_bytes

        # transparent gzip layer: only batches that actually contain
        # gzip rows pay the row materialization (the invalid-utf-8
        # fallback pattern); inner payloads then route normally
        gz_errs: dict[int, str] = {}
        gz_flag = pc.fill_null(
            pc.equal(
                pc.binary_slice(payloads, 0, 2),
                pa.scalar(GZIP_MAGIC, type=pa.binary()),
            ),
            False,
        ).to_numpy(zero_copy_only=False)
        if gz_flag.any():
            vals = payloads.to_pylist()
            for i in np.flatnonzero(gz_flag):
                vals[i], err = maybe_gunzip(vals[i], max_bytes)
                if err is not None:
                    gz_errs[int(i)] = err
            payloads = pa.array(vals, type=pa.binary())

        routes, errs = sniff_routes_batch(payloads)
        for i, err in gz_errs.items():
            routes[i] = "error"
            errs[i] = err
        # skew guard: an oversized blob would monopolize a cascade
        # task; surface it as a typed error row (overrides the sniff)
        lengths = pc.fill_null(pc.binary_length(payloads), 0).to_numpy(
            zero_copy_only=False
        )
        over = lengths > max_bytes
        routes[over] = "error"
        errs[over] = f"payload exceeds max_payload_bytes ({max_bytes})"

        extracted = np.full(n, None, dtype=object)
        html_idx = np.flatnonzero(routes == "html")
        if len(html_idx):
            html_payloads = payloads.take(pa.array(html_idx)).to_pylist()
            for i, payload in zip(html_idx, html_payloads):
                extracted[i] = extract_main_text(
                    payload.decode("utf-8", errors="replace"), self.cfg.Html
                )

        # PDF fan-out: born-digital -> inline text extraction
        # (pdf_text, the html-fast-path analog); scanned -> the raster
        # re-wraps as an RBMP payload and rides the cascade route
        # (pdf_raster); malformed/unsupported -> typed error rows
        pdf_idx = np.flatnonzero(routes == "pdf")
        if len(pdf_idx):
            rewrapped: dict[int, bytes] = {}
            pdf_payloads = payloads.take(pa.array(pdf_idx)).to_pylist()
            for i, payload in zip(pdf_idx, pdf_payloads):
                try:
                    kind, content = parse_pdf(payload)
                except (ValueError, NotImplementedError) as exc:
                    routes[i] = "error"
                    errs[i] = str(exc)
                    continue
                if kind == "text":
                    routes[i] = "pdf_text"
                    extracted[i] = content
                else:
                    routes[i] = "pdf_raster"
                    rewrapped[int(i)] = encode_rbmp(content)
            if rewrapped:
                vals = payloads.to_pylist()
                for i, b in rewrapped.items():
                    vals[i] = b
                payloads = pa.array(vals, type=pa.binary())

        bitmap_mask = np.isin(routes, CASCADE_ROUTES)
        if bitmap_mask.all():
            payload_col = payloads  # zero-copy pass-through (det corpora)
        else:
            payload_col = pc.if_else(
                pa.array(bitmap_mask), payloads, pa.nulls(n, type=pa.binary())
            )
        cols: dict[str, pa.Array] = {
            "url": batch.column("url"),
            "warc_ts": batch.column("warc_ts"),
            "lang": batch.column("lang"),
            "route": pa.array(routes, type=pa.string()),
            "err": pa.array(errs, type=pa.string()),
            "extracted_text": pa.array(extracted, type=pa.string()),
            "payload": payload_col,
        }
        arrays = [cols[f.name].cast(f.type) for f in UNIFIED_SCHEMA]
        return pa.Table.from_arrays(arrays, schema=UNIFIED_SCHEMA)


class CascadeStage:
    """Fused det -> cls -> rec stage (the only extraction plan).  The
    reference's stage boundaries are per-doc function calls inside one
    process (SURVEY.md §3.1 'all the boundaries are ours to draw');
    fusing them into one call per block means crop payloads NEVER enter
    the object store — only text/span rows leave the task — while
    cls/rec still batch ACROSS the documents of the block (M16/A1
    micro-batching is batch-composition-invariant, tested in
    tests/test_cascade.py::test_batch_composition_invariant).

    Because every region of a document is produced and consumed inside
    ONE call, the stage also performs the per-document assembly
    (J1/M15/A5/A6) and emits FINAL_SCHEMA rows directly, so the
    pipeline has NO all-to-all operation after dedup.

    An instance pickles as its config alone; unpickling re-runs
    ``__init__``, which takes the ``ModelRegistry`` for the backend from
    the worker process's cache.  Models are therefore built once per
    worker process (the T1/T3 analog), not once per task."""

    def __init__(self, cfg: PipelineConfig | None = None):
        self.cfg = cfg or PipelineConfig()
        backend = self.cfg.Global.backend
        self.registry = lru_cache_get(
            process_cache("model_registries"), backend, lambda: ModelRegistry(backend)
        )
        self.detector = TextDetector(self.cfg.Det, self.registry)
        self.classifier = TextClassifier(self.cfg.Cls, self.registry)
        self.recognizer = TextRecognizer(self.cfg.Rec, self.registry)

    def __reduce__(self):
        return (type(self), (self.cfg,))

    def __call__(self, batch: pa.Table) -> pa.Table:
        g = self.cfg.Global
        docs: list[dict] = []
        # per-doc det + crop fan-out, crops held in task memory
        pending: list[tuple[int, int, "np.ndarray", list[int], str]] = []
        # (doc_idx, region_idx, crop, box, lang)
        # columnar row access: the payload column is read as zero-copy
        # arrow buffers; a to_pylist would copy every page of the block
        # into python bytes inside the fused task
        meta = batch.drop_columns(["payload"]).to_pylist()
        payload_col = batch.column("payload").combine_chunks()
        for i, row in enumerate(meta):
            final = {
                "url": row["url"],
                "warc_ts": row["warc_ts"],
                "lang": row["lang"],
                "route": row["route"],
                "err": row["err"],
                "extracted_text": row["extracted_text"],
                "n_spans": 0,
                "spans": "[]",
                "det_elapse": None,
                "cls_elapse": None,
                "rec_elapse": None,
            }
            if row["route"] not in CASCADE_ROUTES or row["err"] is not None:
                docs.append(final)
                continue
            t0 = time.perf_counter()
            try:
                pay = payload_col[i]
                buf = pay.as_buffer() if pay.is_valid else b""
                img = decode_page_image(buf)
            except (ValueError, NotImplementedError) as exc:
                final.update(route="error", err=str(exc))
                docs.append(final)
                continue
            h, w = img.shape
            if not g.use_det or use_det_bypass(h, w, g.min_height, g.width_height_ratio):
                boxes = [whole_image_box(h, w)]
            else:
                det_boxes = self.detector(img, row["lang"])
                boxes = sorted_boxes(det_boxes) if len(det_boxes) else []
            final["det_elapse"] = time.perf_counter() - t0
            doc_idx = len(docs)
            docs.append(final)
            for ridx, box in enumerate(boxes):
                crop = crop_box(img, np.asarray(box))
                pending.append(
                    (doc_idx, ridx, crop,
                     [int(v) for v in np.asarray(box).reshape(-1)],
                     row["lang"] or "en")
                )
        # cls + rec across all docs in the batch, grouped by lang (J3)
        by_lang: dict[str, list[int]] = {}
        for i, item in enumerate(pending):
            by_lang.setdefault(item[4], []).append(i)
        rec_results: dict[int, tuple[str, float, float, float]] = {}
        for lang, idxs in by_lang.items():
            crops = [pending[i][2] for i in idxs]
            cls_elapse = 0.0
            if g.use_cls:
                t1 = time.perf_counter()
                if g.use_most_angle:
                    # A4 mostAngle (OcrLite.cpp:150-160): classify the
                    # UNROTATED crops, vote once per DOCUMENT, rotate a
                    # doc's crops all-or-none
                    cls_res = self.classifier.classify_only(crops, lang)
                    doc_positions: dict[int, list[int]] = {}
                    for pos, i in enumerate(idxs):
                        doc_positions.setdefault(pending[i][0], []).append(pos)
                    for dpos in doc_positions.values():
                        if most_angle([cls_res[p] for p in dpos]) == "180":
                            for p in dpos:
                                crops[p] = rotate180(crops[p])
                else:
                    crops, _cls_res = self.classifier(crops, lang)
                cls_elapse = (time.perf_counter() - t1) / max(1, len(idxs))
            t2 = time.perf_counter()
            decoded = self.recognizer(crops, lang)
            rec_elapse = (time.perf_counter() - t2) / max(1, len(idxs))
            for i, (text, score) in zip(idxs, decoded):
                rec_results[i] = (text, score, cls_elapse, rec_elapse)
        # in-task assembly (J1/M15/A5/A6): regions are already ordered
        # per doc by region_idx (construction order)
        spans_by_doc: dict[int, list] = {}
        for i, (doc_idx, ridx, _crop, box, _lang) in enumerate(pending):
            text, score, cls_el, rec_el = rec_results[i]
            spans_by_doc.setdefault(doc_idx, []).append(
                (ridx, box, text, score, cls_el, rec_el)
            )
        for doc_idx, regions in spans_by_doc.items():
            final = docs[doc_idx]
            regions.sort(key=lambda r: r[0])
            kept = [r for r in regions if r[3] >= g.text_score]  # M15
            if kept:
                final["extracted_text"] = "\n".join(r[2] for r in kept)  # A5
                final["n_spans"] = len(kept)
                final["spans"] = json.dumps(
                    [{"box": r[1], "text": r[2], "score": r[3]} for r in kept]
                )
            else:
                final["extracted_text"] = None  # M18
            if g.use_cls:
                final["cls_elapse"] = float(sum(r[4] for r in regions))
            final["rec_elapse"] = float(sum(r[5] for r in regions))
        return rows_to_table(docs)


def dedup_bucket(group: pa.Table) -> pa.Table:
    """Vectorized latest-capture-wins over ONE url bucket: arrow-native
    sort (url asc, warc_ts desc) + keep-first-per-url via a boundary
    mask — no per-url python calls (a per-url map_groups pays ~1 ms of
    framework overhead per url) and no pandas copy of the multi-KB/MB
    payload bytes.  A null url is a url of its own (``key_bucket``
    puts it in the bucket of ""): the latest null-url capture is kept,
    as ``OracleExtractor.run`` keeps it."""
    idx = pc.sort_indices(
        group, sort_keys=[("url", "ascending"), ("warc_ts", "descending")]
    )
    s = group.take(idx)
    urls = s.column("url").combine_chunks()
    n = len(urls)
    if n == 0:
        return s
    cur, prev = urls.slice(1, n - 1), urls.slice(0, n - 1)
    # a url starts where the value changes (null where either side is
    # null) or where validity changes (null against "" included)
    changed = pc.or_(
        pc.fill_null(pc.not_equal(cur, prev), False),
        pc.not_equal(pc.is_valid(cur), pc.is_valid(prev)),
    )
    return s.filter(pa.concat_arrays([pa.array([True]), changed]))
