"""Deterministic synthesis of the Common-Crawl-style ``pages`` table.

BASELINE.json input_hint schema:
``(url: string, warc_ts: timestamp[us], html: binary, text: string,
lang: string)``.  The ``html`` column is an opaque payload: UTF-8 HTML
for web pages, RBMP bitmaps standing in for rasterized PDFs
(glyphs.py), or empty/garbage bytes for the error-path rows (the
test_zeros / test_empty analogs, python/tests/test_all_ort.py:30-41).

Two generators:

- ``pages_from_documents``: wraps the driver's ``documents.parquet``
  rows (sf-scaled, TESTDATA.md) into pages deterministically.  Routing
  is ``doc_id % 20``: 0-15 html, 16-18 single-line bitmap (the M17
  det-bypass route), 19 empty payload.  Because each html page holds
  its document text as exactly one content block and each bitmap page
  renders it as exactly one text line, the extracted text must equal
  ``documents.text`` byte-for-byte — giving the driver a plain-SQL
  oracle for the full extraction pipeline.

- ``synth_pages``: seed-derived corpus with multi-line and rotated
  bitmaps (the det -> cls -> rec path), multi-block html, duplicate
  urls (dedup), and edge rows.  Used by pytest goldens and bench.
"""

from __future__ import annotations

import datetime as _dt

import numpy as np
import pyarrow as pa

from rapidocr_ray import glyphs
from rapidocr_ray.functions.html import make_page_html
# module-level (not lazy inside the function): workers can receive this
# module by VALUE via ensure_worker_importable, where a runtime
# `import rapidocr_ray...` inside a function body cannot resolve
from rapidocr_ray.functions.pdf import encode_pdf_scanned, encode_pdf_text
from rapidocr_ray.sources.parquet import file_tasks, read_footers, read_plan

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

# the documents columns the page synthesizers read
DOCUMENT_COLUMNS = ["doc_id", "text", "lang"]

_BASE_TS = _dt.datetime(2026, 1, 1, 0, 0, 0)

_WORDS = (
    "data table query scan filter join merge sort group window stream batch "
    "row column value key hash range index vector model text page line block "
    "fast slow big small order part whole north south spark ray arrow engine"
).split()


def _ts(offset_s: int) -> _dt.datetime:
    return _BASE_TS + _dt.timedelta(seconds=int(offset_s))


def doc_url(doc_id: int) -> str:
    return f"https://docs.example/{doc_id}"


def documents_ds(sf_dir: str, rows_per_block: int):
    """``documents.parquet`` pruned to the (doc_id, text, lang) columns
    the page synthesizers consume, as rows // ``rows_per_block`` read
    tasks (at least one; row ranges of its row groups,
    ``sources.parquet.file_tasks``).  Ray gets exactly that many
    blocks, so the read fuses with the synthesis map that follows."""
    (f,) = read_footers([f"{sf_dir}/documents.parquet"], DOCUMENT_COLUMNS)
    n_tasks = max(1, sum(f.rows) // max(1, rows_per_block))
    return read_plan(file_tasks(f, n_tasks), [f], DOCUMENT_COLUMNS)


def pages_ds_from_documents(sf_dir: str, rows_per_block: int = 128):
    """Distributed pages synthesis: documents.parquet read as a Dataset
    (pruned to the three consumed columns) with payload rendering inside
    map_batches — the flagship input is never materialized driver-side,
    matching how a real pages table would stream straight off storage."""
    return documents_ds(sf_dir, rows_per_block).map_batches(
        pages_from_documents, batch_format="pyarrow"
    )


def pages_from_documents(doc_table: pa.Table) -> pa.Table:
    """documents(doc_id, text, lang, ...) -> pages table, 1 row per doc."""
    doc_ids = doc_table.column("doc_id").to_pylist()
    texts = doc_table.column("text").to_pylist()
    langs = doc_table.column("lang").to_pylist()
    urls, tss, payloads, raw_texts, out_langs = [], [], [], [], []
    for doc_id, text, lang in zip(doc_ids, texts, langs):
        urls.append(doc_url(doc_id))
        tss.append(_ts(doc_id))
        raw_texts.append(text)
        out_langs.append(lang)
        m = doc_id % 20
        if m < 16:  # html route
            payloads.append(make_page_html([text], title=f"doc {doc_id}").encode())
        elif m < 19:  # single-line bitmap -> M17 det-bypass route
            page = glyphs.render_page([text], margin=8, line_gap=32)
            payloads.append(glyphs.encode_rbmp(page))
        else:  # empty payload -> error/null route (test_zeros analog)
            payloads.append(b"")
    return pa.table(
        {
            "url": urls,
            "warc_ts": tss,
            "html": payloads,
            "text": raw_texts,
            "lang": out_langs,
        },
        schema=PAGES_SCHEMA,
    )


def _rand_text(rng: np.random.Generator, n_words: int) -> str:
    return " ".join(_WORDS[i] for i in rng.integers(0, len(_WORDS), n_words))


def wrap_lines(text: str, width: int = 48) -> list[str]:
    """Greedy word-wrap at <= width chars (no leading/trailing spaces)."""
    lines: list[str] = []
    cur: list[str] = []
    cur_len = 0
    for word in text.split(" "):
        add = len(word) + (1 if cur else 0)
        if cur and cur_len + add > width:
            lines.append(" ".join(cur))
            cur, cur_len = [word], len(word)
        else:
            cur.append(word)
            cur_len += add
    if cur:
        lines.append(" ".join(cur))
    return lines


_LANGS = ("en", "zh", "es", "de", "fr")


def synth_pages(n: int, seed: int = 42) -> pa.Table:
    """Seed-derived mixed corpus; every row reproducible from (seed, i)."""
    urls, tss, payloads, raw_texts, out_langs = [], [], [], [], []
    for i in range(n):
        rng = np.random.default_rng(seed * 1_000_003 + i)
        lang = _LANGS[i % len(_LANGS)]
        kind = i % 20
        url = f"https://site{i % 7}.example/p/{i}"
        ts = _ts(i)
        text = _rand_text(rng, int(rng.integers(20, 80)))
        if kind < 14:  # html, 1-3 content blocks
            n_blocks = 1 + int(rng.integers(0, 3))
            blocks = [_rand_text(rng, int(rng.integers(8, 30))) for _ in range(n_blocks)]
            payload = make_page_html(blocks, title=f"p{i}").encode()
        elif kind < 16:  # multi-line bitmap (det path)
            lines = wrap_lines(_rand_text(rng, int(rng.integers(6, 24))), width=48)
            rot = bool(rng.random() < 0.25)
            page = glyphs.render_page(lines, margin=28, line_gap=32, rotate180=rot)
            payload = glyphs.encode_rbmp(page)
        elif kind == 16:  # single-line bitmap (M17 bypass path)
            line = _rand_text(rng, int(rng.integers(3, 10)))
            page = glyphs.render_page([line], margin=8, line_gap=32)
            payload = glyphs.encode_rbmp(page)
        elif kind == 17:  # duplicate url: same url as row i-1, later capture
            url = f"https://site{(i - 1) % 7}.example/p/{i - 1}"
            ts = _ts(i - 1 + 100_000)  # strictly later than the original
            blocks = [_rand_text(rng, int(rng.integers(8, 30)))]
            payload = make_page_html(blocks, title=f"dup{i}").encode()
        elif kind == 18:  # empty payload (test_zeros analog)
            payload = b""
        else:  # garbage bytes (LoadImageError analog)
            payload = bytes(rng.integers(1, 255, 64, dtype=np.uint8))
        urls.append(url)
        tss.append(ts)
        payloads.append(payload)
        raw_texts.append(text)
        out_langs.append(lang)
    return pa.table(
        {
            "url": urls,
            "warc_ts": tss,
            "html": payloads,
            "text": raw_texts,
            "lang": out_langs,
        },
        schema=PAGES_SCHEMA,
    )


def write_pages_parquet(
    table: pa.Table, out_dir: str, n_files: int = 4, row_group_size: int = 64
) -> list[str]:
    """Write the pages table as n_files parquet shards (the unit of the
    resumable runner's partitioning, state/manifest.py).

    Small row groups matter: row groups are the split points of
    ``read_pages`` (pipelines/extract.py, ``sources.parquet.group_runs``),
    which reads each file as runs of whole row groups, one block each,
    so cascade-sized row groups give fine-grained tasks without a
    repartition barrier."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    rows = table.num_rows
    per = (rows + n_files - 1) // n_files
    for k in range(n_files):
        shard = table.slice(k * per, per)
        if shard.num_rows == 0:
            break
        path = os.path.join(out_dir, f"pages-{k:05d}.parquet")
        pq.write_table(shard, path, row_group_size=row_group_size)
        paths.append(path)
    return paths


def pdf_pages_from_documents(doc_table: pa.Table) -> pa.Table:
    """documents -> pages whose payloads are REAL PDFs (functions/pdf):
    doc_id % 3 == 0 -> born-digital (text operators; the pdf_text fast
    path), 1 -> scanned (DeviceGray raster of the rendered glyph page;
    rides the cascade as pdf_raster), 2 -> a well-formed but
    contentless PDF (typed error route).  Stream filter chains AND
    /Predictor variants rotate deterministically by doc_id (flate /
    ascii85+flate / lzw / runlength / asciihex; predictor 2 = TIFF
    differencing, 12 = PNG Up, 15 = PNG per-row filter rotation incl.
    Average/Paeth) so every transport filter and predictor decodes
    inside the worker pipeline.  Extraction must equal
    ``documents.text`` byte-for-byte on routes 0/1 — the plain-SQL
    oracle for the PDF layer."""
    _CHAINS = (  # (decode-order filters, /Predictor)
        (("flate",), 1),
        (("ascii85", "flate"), 1),
        (("lzw",), 1),
        (("runlength",), 1),
        (("asciihex",), 1),
        (("flate",), 2),
        (("flate",), 12),
        (("lzw",), 15),
    )
    doc_ids = doc_table.column("doc_id").to_pylist()
    texts = doc_table.column("text").to_pylist()
    langs = doc_table.column("lang").to_pylist()
    urls, tss, payloads = [], [], []
    for doc_id, text in zip(doc_ids, texts):
        urls.append(doc_url(doc_id))
        tss.append(_ts(doc_id))
        m = doc_id % 3
        chain, pred = _CHAINS[(doc_id // 3) % len(_CHAINS)]
        if m == 0:
            payloads.append(encode_pdf_text([text], filters=chain, predictor=pred))
        elif m == 1:
            page = glyphs.render_page([text], margin=8, line_gap=32)
            payloads.append(encode_pdf_scanned(page, filters=chain, predictor=pred))
        else:
            payloads.append(b"%PDF-1.4\n1 0 obj\n<< >>\nendobj\n")
    return pa.table(
        {
            "url": urls,
            "warc_ts": tss,
            "html": payloads,
            "text": texts,
            "lang": langs,
        },
        schema=PAGES_SCHEMA,
    )


def pdf_pages_ds_from_documents(sf_dir: str, rows_per_block: int = 128):
    """Distributed variant of pdf_pages_from_documents (same shape as
    pages_ds_from_documents: pruned read, synthesis inside the task)."""
    return documents_ds(sf_dir, rows_per_block).map_batches(
        pdf_pages_from_documents, batch_format="pyarrow"
    )
