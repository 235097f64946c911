"""Seeded input generators for the three benchmark workloads.

The program under test only ever sees the files written here; the
expected outputs come from the generator, never from the program.  The
same seed gives byte-identical files, another seed a different corpus.

The ``documents`` table mimics the shape of the sf0.1 testdata table
(5,000 docs; 10-100 words over a 30-word vocabulary; ~5% near-duplicate
docs that copy an earlier doc's text and append " dup"; lang skewed to
"en"; ``source = src{doc_id % 20}``), so the benchmark needs no data
outside its checkout.
"""

from __future__ import annotations

import datetime as dt
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB = (
    "spark window merge table column vector stream value data small join "
    "filter big group hash customer sort order slow line part fast row the "
    "agg key query a scan batch"
).split()
LANGS = ("en", "zh", "es", "fr", "de")
LANG_P = (0.41, 0.15, 0.15, 0.15, 0.14)
DUP_SHARE = 0.05
# parquet row groups bound the blocks read_pages can split a file into
ROW_GROUP_SIZE = 64

DOCUMENTS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("text", pa.string()),
        ("lang", pa.string()),
        ("source", pa.string()),
        ("n_chars", pa.int64()),
    ]
)


def _words(rng: np.random.Generator, n: int) -> str:
    return " ".join(VOCAB[i] for i in rng.integers(0, len(VOCAB), n))


def make_documents(n: int, seed: int) -> pa.Table:
    """sf0.1-shaped ``documents`` table, rows in a seed-permuted order."""
    rng = np.random.default_rng([seed, 1])
    texts = [_words(rng, int(k)) for k in rng.integers(10, 101, n)]
    for i in np.flatnonzero(rng.random(n) < DUP_SHARE):
        if i > 0:
            texts[i] = texts[int(rng.integers(0, i))] + " dup"
    langs = rng.choice(len(LANGS), size=n, p=LANG_P)
    order = rng.permutation(n)
    return pa.table(
        {
            "doc_id": order.astype(np.int64),
            "text": [texts[i] for i in order],
            "lang": [LANGS[langs[i]] for i in order],
            "source": [f"src{i % 20}" for i in order],
            "n_chars": [len(texts[i]) for i in order],
        },
        schema=DOCUMENTS_SCHEMA,
    )


def expected_route(doc_id: int) -> str:
    """Route ``sources.pages.pages_from_documents`` gives a doc."""
    m = doc_id % 20
    return "html" if m < 16 else ("bitmap" if m < 19 else "empty")


def _write_shards(shards: list[pa.Table], out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for k, shard in enumerate(shards):
        path = os.path.join(out_dir, f"pages-{k:05d}.parquet")
        pq.write_table(shard, path, row_group_size=ROW_GROUP_SIZE)
        paths.append(path)
    return paths


def make_crawl(docs: pa.Table, seed: int, n_shards: int, out_dir: str):
    """Crawl shards built from ``docs`` by the repo's page synthesis, plus
    a seed-chosen share of re-captured html urls: an older capture with
    other text, written to the same shard as the newer capture (dedup is
    per ``run_resumable`` partition).

    Returns (files, expected) with expected = {url: (route, text)}; the
    text is the newest capture's, None for empty payloads."""
    from rapidocr_ray.functions.html import make_page_html
    from rapidocr_ray.sources.pages import PAGES_SCHEMA, pages_from_documents

    rng = np.random.default_rng([seed, 2])
    docs = docs.sort_by("doc_id")
    pages = pages_from_documents(docs)
    doc_ids = docs.column("doc_id").to_numpy()
    texts = docs.column("text").to_pylist()
    n = len(doc_ids)
    recapture_share = float(rng.uniform(0.05, 0.15))
    html_rows = np.flatnonzero(doc_ids % 20 < 16)
    picked = np.sort(
        rng.choice(html_rows, size=int(recapture_share * len(html_rows)), replace=False)
    )
    old_texts = [_words(rng, int(rng.integers(10, 60))) for _ in picked]
    old = pa.table(
        {
            "url": pages.column("url").take(pa.array(picked)),
            "warc_ts": [
                ts - dt.timedelta(days=1)
                for ts in pages.column("warc_ts").take(pa.array(picked)).to_pylist()
            ],
            "html": [
                make_page_html([t], title=f"old {int(doc_ids[i])}").encode()
                for i, t in zip(picked, old_texts)
            ],
            "text": old_texts,
            "lang": pages.column("lang").take(pa.array(picked)),
        },
        schema=PAGES_SCHEMA,
    )
    shard_of = np.concatenate([doc_ids * n_shards // n, doc_ids[picked] * n_shards // n])
    allrows = pa.concat_tables([pages, old])
    shards = []
    for k in range(n_shards):
        idx = np.flatnonzero(shard_of == k)
        shards.append(allrows.take(pa.array(rng.permutation(idx))))
    expected = {}
    for doc_id, url, text in zip(doc_ids, pages.column("url").to_pylist(), texts):
        route = expected_route(int(doc_id))
        expected[url] = (route, None if route == "empty" else text)
    return _write_shards(shards, out_dir), expected, len(picked)


def make_scan(n: int, seed: int, n_shards: int, out_dir: str):
    """Multi-line bitmap pages (5-8 lines, ~20% rotated 180 degrees) for
    the det -> cls -> rec path.  Returns (files, expected, n_rotated).

    Reading order is the image's top-to-bottom order (sorted_boxes), so
    on a page rotated 180 degrees the expected lines come out reversed,
    each one turned upright by cls."""
    from rapidocr_ray.glyphs import encode_rbmp, render_page
    from rapidocr_ray.sources.pages import PAGES_SCHEMA, wrap_lines

    rng = np.random.default_rng([seed, 3])
    base = dt.datetime(2026, 1, 1)
    rows = {"url": [], "warc_ts": [], "html": [], "text": [], "lang": []}
    expected = {}
    n_rot = 0
    for i in range(n):
        lines = wrap_lines(_words(rng, int(rng.integers(36, 56))), width=40)[:8]
        rot = bool(rng.random() < 0.2)
        n_rot += rot
        page = render_page(lines, margin=28, line_gap=32, rotate180=rot)
        url = f"https://scan.example/{seed}/{i}"
        text = "\n".join(lines)
        rows["url"].append(url)
        rows["warc_ts"].append(base + dt.timedelta(seconds=i))
        rows["html"].append(encode_rbmp(page))
        rows["text"].append(text)
        rows["lang"].append("en")
        expected[url] = ("bitmap", "\n".join(reversed(lines)) if rot else text)
    table = pa.table(rows, schema=PAGES_SCHEMA)
    per = -(-n // n_shards)
    shards = [table.slice(k * per, per) for k in range(n_shards) if k * per < n]
    return _write_shards(shards, out_dir), expected, n_rot


def write_documents(docs: pa.Table, sf_dir: str) -> str:
    os.makedirs(sf_dir, exist_ok=True)
    path = os.path.join(sf_dir, "documents.parquet")
    pq.write_table(docs, path)
    return path
