"""The per-url byte-identical invariant: Ray Data pipeline vs the
single-process oracle over the same synthetic corpus (FIXTURES.md,
verification protocol), plus dedup semantics and the documents
roundtrip that backs the driver's SQL oracle."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rapidocr_ray.pipelines.oracle import OracleExtractor
from rapidocr_ray.sources.pages import pages_from_documents, synth_pages

SF_DIR = "/root/testdata/sf0.001"


def _to_sorted_pandas(table):
    df = table.to_pandas() if isinstance(table, pa.Table) else table
    return df.sort_values("url").reset_index(drop=True)


@pytest.fixture(scope="module")
def synth_result(ray_session):
    from rapidocr_ray.pipelines.extract import extract_pages_table

    pages = synth_pages(120, seed=42)
    got = _to_sorted_pandas(extract_pages_table(pages).to_pandas())
    want = _to_sorted_pandas(OracleExtractor().run(pages))
    return pages, got, want


COMPARE_COLS = ["url", "route", "err", "extracted_text", "n_spans", "spans", "lang"]


def test_ray_matches_oracle_byte_identical(synth_result):
    _, got, want = synth_result
    assert len(got) == len(want)
    for col in COMPARE_COLS:
        g = got[col].fillna("<NULL>").tolist()
        w = want[col].fillna("<NULL>").tolist()
        assert g == w, f"column {col} diverges"


def test_dedup_latest_capture_wins(synth_result):
    pages, got, _ = synth_result
    n_unique = len(set(pages.column("url").to_pylist()))
    assert len(got) == n_unique
    # duplicated urls (kind 17 in synth_pages) must carry the LATER
    # capture's content: the duplicate is html titled dup{i}
    dup_urls = [u for u in pages.column("url").to_pylist()
                if pages.column("url").to_pylist().count(u) > 1]
    assert dup_urls, "fixture should contain duplicates"
    sub = got[got.url.isin(set(dup_urls))]
    assert (sub.route == "html").all()


def test_route_mix_covered(synth_result):
    _, got, _ = synth_result
    routes = set(got.route)
    assert {"html", "bitmap", "empty", "error"} <= routes


def test_documents_roundtrip_matches_source_text(ray_session):
    """pages_from_documents: extraction must recover documents.text
    byte-for-byte (html single-block and bitmap single-line routes) —
    this is what makes the driver's plain-SQL oracle valid."""
    from rapidocr_ray.pipelines.extract import extract_pages_table

    docs = pq.read_table(f"{SF_DIR}/documents.parquet")
    pages = pages_from_documents(docs)
    got = _to_sorted_pandas(extract_pages_table(pages, dedup=False).to_pandas())
    texts = dict(zip(docs.column("doc_id").to_pylist(), docs.column("text").to_pylist()))
    checked = 0
    for _, row in got.iterrows():
        doc_id = int(row.url.rsplit("/", 1)[1])
        if doc_id % 20 < 19:  # html or bitmap route
            assert row.extracted_text == texts[doc_id], (doc_id, row.route)
            checked += 1
        else:
            assert row.route == "empty" and row.extracted_text is None
    assert checked > 0


def test_entry_smoke(ray_session):
    import importlib
    import sys

    sys.path.insert(0, "/root/repo")
    entry_mod = importlib.import_module("__ray_entry__")
    result = entry_mod.entry()
    import ray.data

    assert isinstance(result, (ray.data.Dataset, pa.Table)) or hasattr(result, "shape")

def test_most_angle_flag_ray_vs_oracle(ray_session):
    """A4 mostAngle as a wired config flag (Global.use_most_angle): on
    a mixed-rotation page (2 of 3 lines upside down) the per-document
    vote rotates all-or-none — Ray and the oracle must agree byte-for-
    byte under the flag, and the voted result must differ from the
    per-crop default (proving the flag actually routes)."""
    import datetime as dt

    import numpy as np

    from rapidocr_ray import glyphs
    from rapidocr_ray.config import PipelineConfig
    from rapidocr_ray.pipelines.extract import extract_pages_table

    lines = ["hello world", "upside down line", "also flipped here"]
    imgs = [glyphs.render_line(t) for t in lines]
    imgs[1] = imgs[1][::-1, ::-1].copy()  # rotate 180
    imgs[2] = imgs[2][::-1, ::-1].copy()
    margin, gap = 8, 32
    width = max(64, max(im.shape[1] for im in imgs)) + 2 * margin
    height = 2 * margin + sum(im.shape[0] for im in imgs) + gap * (len(imgs) - 1)
    page = np.zeros((height, width), dtype=np.uint8)
    y = margin
    for im in imgs:
        page[y:y + im.shape[0], margin:margin + im.shape[1]] = im
        y += im.shape[0] + gap
    pages = pa.table(
        {
            "url": ["https://mixed.example/1"],
            "warc_ts": [dt.datetime(2026, 1, 1)],
            "html": [glyphs.encode_rbmp(page)],
            "text": ["mixed"],
            "lang": ["en"],
        }
    )

    cfg = PipelineConfig().with_overrides(use_most_angle=True)
    got = _to_sorted_pandas(extract_pages_table(pages, cfg=cfg).to_pandas())
    want = _to_sorted_pandas(OracleExtractor(cfg).run(pages))
    for col in COMPARE_COLS:
        assert got[col].fillna("<N>").tolist() == want[col].fillna("<N>").tolist(), col

    # the vote (majority 180) must change the output vs per-crop cls
    default = _to_sorted_pandas(extract_pages_table(pages).to_pandas())
    assert got.extracted_text.tolist() != default.extracted_text.tolist()


def test_real_container_pages_match_rbmp(ray_session):
    """PNG/GIF/BMP/TIFF/baseline-JPEG/progressive-JPEG pages (the
    pure-numpy codecs) must extract byte-identical text to the same
    page encoded as RBMP, through both the Ray pipeline and the oracle;
    truncated JPEG and WebP surface as typed error rows."""
    import numpy as np

    from rapidocr_ray.functions.codecs import (
        encode_bmp,
        encode_bmp_packed,
        encode_bmp_rle4,
        encode_bmp_rle8,
        encode_gif,
        encode_png,
        encode_tiff,
        encode_tiff_jpeg,
        encode_tiff_tiled,
    )
    from rapidocr_ray.glyphs import encode_rbmp, render_page
    from rapidocr_ray.pipelines.extract import extract_pages_table

    from rapidocr_ray.functions.jpeg import encode_jpeg, encode_jpeg_progressive
    from rapidocr_ray.functions.webp import encode_webp

    img = render_page(["container codec line"], margin=12)
    now = 1_700_000_000_000_000
    payloads = {
        "rbmp": encode_rbmp(img),
        "png": encode_png(img),
        "gif": encode_gif(img),
        "bmp": encode_bmp(img),
        "bmp-rle": encode_bmp_rle8(img),
        "jpg": encode_jpeg(img, quality=95),
        "jpg-prog": encode_jpeg_progressive(img, quality=95),
        "tiff": encode_tiff(img, compression="packbits"),
        "tiff-lzw": encode_tiff(img, compression="lzw", predictor=2),
        "tiff-defl": encode_tiff(img, compression="deflate"),
        "tiff-tiled": encode_tiff_tiled(img, (32, 32), "lzw"),
        "tiff-16": encode_tiff((img.astype(np.uint16) << 8), "deflate"),
        # glyph pages are binary; q=100 JPEG error (<=4 gray levels of
        # ringing) cannot flip the 128 threshold, so text stays exact
        "tiff-jpeg": encode_tiff_jpeg(img, rows_per_strip=32, quality=100,
                                      shared_tables=True),
        # 4-bit / 1-bit palette BMPs: glyph pages are 0/255 bilevel, so
        # index grids reproduce them exactly (15*17=255)
        "bmp-rle4": encode_bmp_rle4((img > 127).astype(np.uint8) * 15),
        "bmp-1bit": encode_bmp_packed((img > 127).astype(np.uint8), 1),
        "webpl": encode_webp(img),
        "jpeg": b"\xff\xd8\xff\xe0fake-jpeg",  # truncated -> error row
        "webp": b"RIFF\x10\x00\x00\x00WEBPVP8 " + b"\x00" * 24,  # lossy: named stub
    }
    pages = pa.table(
        {
            "url": [f"https://t/{k}" for k in payloads],
            "warc_ts": pa.array([now] * len(payloads), type=pa.timestamp("us")),
            "html": list(payloads.values()),
            "text": [None] * len(payloads),
            "lang": ["en"] * len(payloads),
        }
    )
    got = _to_sorted_pandas(extract_pages_table(pages, dedup=False).to_pandas())
    want = _to_sorted_pandas(OracleExtractor().run(pages))
    for col in COMPARE_COLS:
        assert got[col].fillna("x").tolist() == want[col].fillna("x").tolist(), col
    by_url = got.set_index("url")
    expected = by_url.loc["https://t/rbmp", "extracted_text"]
    assert expected == "container codec line"
    for k in ("png", "gif", "bmp", "bmp-rle", "jpg", "jpg-prog", "tiff",
              "tiff-lzw", "tiff-defl", "tiff-tiled", "tiff-16", "tiff-jpeg",
              "bmp-rle4", "bmp-1bit", "webpl"):
        assert by_url.loc[f"https://t/{k}", "extracted_text"] == expected, k
        assert by_url.loc[f"https://t/{k}", "route"] == "bitmap"
    assert by_url.loc["https://t/jpeg", "route"] == "error"
    assert "jpeg" in by_url.loc["https://t/jpeg", "err"]
    assert "webp" in by_url.loc["https://t/webp", "err"]


def test_gzip_payloads_transparent(ray_session):
    """Content-Encoding layer parity: gzip-wrapped HTML and image
    payloads extract byte-identically to their raw twins through BOTH
    the Ray pipeline and the oracle; corrupt gzip and a decompression
    bomb become typed error rows on both sides."""
    import gzip as _gzip

    import numpy as np

    from rapidocr_ray.config import PipelineConfig
    from rapidocr_ray.functions.codecs import encode_png
    from rapidocr_ray.glyphs import render_page
    from rapidocr_ray.pipelines.extract import extract_pages_table

    html = (
        b"<html><body><div><p>"
        + b"gzip transparent body text with enough words to win scoring. " * 4
        + b"</p></div><div><a href='/x'>nav</a></div></body></html>"
    )
    img = render_page(["gzip bitmap line"], margin=12)
    png = encode_png(img)
    cfg = PipelineConfig.from_dict({"Global": {"max_payload_bytes": 200_000}})
    bomb = _gzip.compress(b"\x00" * 1_000_000)  # inflates past the cap
    now = 1_700_000_000_000_000
    payloads = {
        "html-raw": html,
        "html-gz": _gzip.compress(html),
        "png-raw": png,
        "png-gz": _gzip.compress(png),
        "gz-corrupt": b"\x1f\x8b\x08\x00garbage-not-deflate",
        "gz-bomb": bomb,
    }
    pages = pa.table(
        {
            "url": [f"https://gz/{k}" for k in payloads],
            "warc_ts": pa.array([now] * len(payloads), type=pa.timestamp("us")),
            "html": list(payloads.values()),
            "text": [None] * len(payloads),
            "lang": ["en"] * len(payloads),
        }
    )
    got = _to_sorted_pandas(extract_pages_table(pages, dedup=False, cfg=cfg).to_pandas())
    want = _to_sorted_pandas(OracleExtractor(cfg).run(pages))
    for col in COMPARE_COLS:
        assert got[col].fillna("x").tolist() == want[col].fillna("x").tolist(), col
    by_url = got.set_index("url")
    assert (
        by_url.loc["https://gz/html-gz", "extracted_text"]
        == by_url.loc["https://gz/html-raw", "extracted_text"]
    )
    assert by_url.loc["https://gz/html-gz", "route"] == "html"
    assert (
        by_url.loc["https://gz/png-gz", "extracted_text"]
        == by_url.loc["https://gz/png-raw", "extracted_text"]
        == "gzip bitmap line"
    )
    assert by_url.loc["https://gz/gz-corrupt", "route"] == "error"
    assert "gzip" in by_url.loc["https://gz/gz-corrupt", "err"]
    assert by_url.loc["https://gz/gz-bomb", "route"] == "error"
    assert "max_payload_bytes" in by_url.loc["https://gz/gz-bomb", "err"]


def test_dedup_empty_winners_files_falls_back(ray_session):
    """winners_files=[] (an empty partition group) reads the winners
    from the Dataset's own blocks, as winners_files=None does."""
    import ray.data

    from rapidocr_ray.pipelines.extract import dedup_by_url
    from rapidocr_ray.sources.pages import synth_pages

    pages = synth_pages(20, seed=3)
    out = dedup_by_url(ray.data.from_arrow(pages), winners_files=[]).to_pandas()
    assert len(out) == len(set(pages.column("url").to_pylist()))


def test_gzip_multi_member_concatenates():
    """RFC 1952: a gzip body is a concatenation of members — both
    members must decode (gzip.decompress semantics), and trailing
    non-gzip garbage after a member is a typed error."""
    import gzip as _gzip

    from rapidocr_ray.stages.ray_stages import maybe_gunzip

    a, b = b"<html>first ", b"second</html>"
    out, err = maybe_gunzip(_gzip.compress(a) + _gzip.compress(b), 1 << 20)
    assert err is None and out == a + b
    out2, err2 = maybe_gunzip(_gzip.compress(a) + b"not-gzip-tail", 1 << 20)
    assert out2 is None and "gzip" in err2
    # bomb across members still bounded
    out3, err3 = maybe_gunzip(
        _gzip.compress(b"\x00" * 600) + _gzip.compress(b"\x00" * 600), 1000
    )
    assert out3 is None and "max_payload_bytes" in err3


def test_extraction_is_one_fused_operator(ray_session, tmp_path):
    """read -> keep_winners -> decode/route -> cascade is ONE task-based
    operator (a batch_size or concurrency on a stage would split it),
    and its output is still the oracle's per url."""
    from rapidocr_ray.pipelines.extract import build_extract_pipeline, read_pages
    from rapidocr_ray.sources.pages import write_pages_parquet

    pages = synth_pages(60, seed=3)
    files = write_pages_parquet(pages, str(tmp_path), n_files=3, row_group_size=8)
    ds = build_extract_pipeline(read_pages(files), winners_files=files).materialize()

    operators = [
        line for line in ds.stats().splitlines() if line.startswith("Operator ")
    ]
    assert len(operators) == 1, operators
    assert "ReadParquet" in operators[0]
    assert "MapBatches(CascadeStage)" in operators[0]

    got = _to_sorted_pandas(ds.to_pandas())
    want = _to_sorted_pandas(OracleExtractor().run(pages))
    assert {"html", "bitmap"} <= set(got.route)
    for col in COMPARE_COLS:
        assert got[col].fillna("<NULL>").tolist() == want[col].fillna("<NULL>").tolist(), col


def test_read_fuses_when_blocks_outnumber_files(ray_session, tmp_path):
    """Two files read as more blocks than files (the crawl-shard shape)
    still run as ONE operator: read_pages plans whole row-group runs
    from the footers and asks Ray for exactly that many blocks, so no
    SplitBlocks operator follows the read.  The Dataset's block size is
    the largest read task's bytes, not Ray's 128 MiB default."""
    from ray.data import DataContext

    from rapidocr_ray.pipelines.extract import build_extract_pipeline, read_pages
    from rapidocr_ray.sources.pages import write_pages_parquet
    from rapidocr_ray.sources.parquet import group_runs, read_footers

    pages = synth_pages(60, seed=5)
    files = write_pages_parquet(pages, str(tmp_path), n_files=2, row_group_size=4)
    plan = [run for f in read_footers(files, None) for run in group_runs(f, 8)]
    assert len(plan) > len(files)
    ds = build_extract_pipeline(read_pages(files, rows_per_block=8), winners_files=files)
    ds = ds.materialize()

    operators = [
        line for line in ds.stats().splitlines() if line.startswith("Operator ")
    ]
    assert len(operators) == 1, operators
    assert "ReadParquet" in operators[0]
    assert "MapBatches(CascadeStage)" in operators[0]
    assert f"{len(plan)} tasks executed" in operators[0]

    got = _to_sorted_pandas(ds.to_pandas())
    want = _to_sorted_pandas(OracleExtractor().run(pages))
    for col in COMPARE_COLS:
        assert got[col].fillna("<NULL>").tolist() == want[col].fillna("<NULL>").tolist(), col

    default = DataContext.get_current().target_max_block_size
    assert default == 128 * 1024 * 1024  # the session's context is untouched
    target = read_pages(files, rows_per_block=8).context.target_max_block_size
    assert max(run.size_bytes for run in plan) <= target < default


def test_shipped_cascade_stage_shares_the_process_registry(by_value):
    """A CascadeStage shipped by value (as to every extraction task)
    takes its ModelRegistry from the process cache: models are built
    once per worker process, not once per task."""
    from ray import cloudpickle

    from rapidocr_ray.config import PipelineConfig
    from rapidocr_ray.stages.ray_stages import CascadeStage
    from rapidocr_ray.util import ensure_worker_importable

    # by-value pickling unpickles fresh copies of the module globals
    # on every round trip, exactly as on a worker
    ensure_worker_importable()
    stage = CascadeStage(PipelineConfig())
    a = cloudpickle.loads(cloudpickle.dumps(stage))
    b = cloudpickle.loads(cloudpickle.dumps(stage))
    assert a.registry is b.registry
    assert a.cfg == stage.cfg
    contract = PipelineConfig().with_overrides(backend="contract")
    c = cloudpickle.loads(cloudpickle.dumps(CascadeStage(contract)))
    assert c.registry.backend == "contract" and c.registry is not a.registry
