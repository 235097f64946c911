"""Round-4 surface: TIFF/WebP containers, dedup_by_url auto-fallback,
zero-copy embedding stacking, dup_groups block scaling, LRU broadcast
caches, rolling-fingerprint ASCII filtering, parallel resumable runs."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rapidocr_ray.functions.codecs import (
    decode_tiff,
    encode_tiff,
    flatten_alpha,
    decode_page_image,
    rgb_to_gray,
)
from rapidocr_ray.util import lru_cache_get, stack_list_column


# ---------------------------------------------------------------------------
# TIFF codec
# ---------------------------------------------------------------------------


def _rng():
    return np.random.default_rng(404)


def test_tiff_gray_roundtrip_none_and_packbits():
    g = _rng().integers(0, 256, (150, 97), dtype=np.uint8)
    g[:40] = 255  # long runs exercise PackBits RLE
    g[40:60] = 0
    assert (decode_tiff(encode_tiff(g)) == g).all()
    assert (decode_tiff(encode_tiff(g, compression="packbits")) == g).all()


def test_tiff_white_is_zero():
    g = _rng().integers(0, 256, (33, 41), dtype=np.uint8)
    inv = (255 - g.astype(np.int32)).astype(np.uint8)
    assert (decode_tiff(encode_tiff(inv, photometric=0)) == g).all()


def test_tiff_rgb_and_rgba_match_luma_rules():
    rng = _rng()
    rgb = rng.integers(0, 256, (77, 133, 3), dtype=np.uint8)
    assert (decode_tiff(encode_tiff(rgb)) == rgb_to_gray(rgb)).all()
    assert (
        decode_tiff(encode_tiff(rgb, compression="packbits")) == rgb_to_gray(rgb)
    ).all()
    rgba = rng.integers(0, 256, (30, 31, 4), dtype=np.uint8)
    assert (decode_tiff(encode_tiff(rgba)) == rgb_to_gray(flatten_alpha(rgba))).all()


def test_tiff_multi_strip_boundaries():
    # > 64 rows forces multiple strips (encode_tiff rows_per_strip=64)
    g = _rng().integers(0, 256, (200, 50), dtype=np.uint8)
    assert (decode_tiff(encode_tiff(g, compression="packbits")) == g).all()


def test_tiff_dispatches_via_decode_page_image():
    g = _rng().integers(0, 256, (20, 20), dtype=np.uint8)
    assert (decode_page_image(encode_tiff(g)) == g).all()


def test_tiff_typed_errors():
    g = np.zeros((8, 8), dtype=np.uint8)
    data = bytearray(encode_tiff(g))
    # flip the Compression tag value (tag 259, inline SHORT) to
    # JPEG-in-TIFF (7) — which DECODES since round 5, so a strip that
    # is not actually a JPEG stream is the typed corrupt-chunk error;
    # an unknown compression id (99) stays the named stub
    import struct

    (ifd_off,) = struct.unpack_from("<I", data, 4)
    (n,) = struct.unpack_from("<H", data, ifd_off)
    tag259 = None
    for e in range(n):
        base = ifd_off + 2 + 12 * e
        (tag,) = struct.unpack_from("<H", data, base)
        if tag == 259:
            tag259 = base
            struct.pack_into("<H", data, base + 8, 7)
    with pytest.raises(ValueError, match="JPEG chunk without SOI"):
        decode_tiff(bytes(data))
    struct.pack_into("<H", data, tag259 + 8, 99)
    with pytest.raises(NotImplementedError, match="compression 99"):
        decode_tiff(bytes(data))
    with pytest.raises(ValueError):
        decode_tiff(b"II*\x00" + b"\xff" * 16)


def test_webp_named_error_and_routing():
    webp = b"RIFF" + b"\x10\x00\x00\x00" + b"WEBP" + b"VP8 " + b"\x00" * 24
    with pytest.raises(NotImplementedError, match="webp"):
        decode_page_image(webp)
    from rapidocr_ray.stages.multimodal import decode_image
    from rapidocr_ray.stages.ray_stages import sniff_route, sniff_routes_batch

    with pytest.raises(NotImplementedError, match="webp"):
        decode_image(webp)
    tif = encode_tiff(np.zeros((5, 5), dtype=np.uint8))
    assert sniff_route(webp) == ("bitmap", None)
    assert sniff_route(tif) == ("bitmap", None)
    routes, errs = sniff_routes_batch(pa.array([webp, tif], type=pa.binary()))
    assert list(routes) == ["bitmap", "bitmap"]
    # plain RIFF (wav) stays a non-image: NOT routed to the cascade
    wav = b"RIFF" + b"\x10\x00\x00\x00" + b"WAVE" + b"\x00" * 24
    assert sniff_route(wav)[0] != "bitmap"


# ---------------------------------------------------------------------------
# util helpers
# ---------------------------------------------------------------------------


def test_stack_list_column_zero_copy_paths():
    mats = np.arange(24, dtype=np.float64).reshape(6, 4)
    for typ in (
        pa.list_(pa.float64()),
        pa.list_(pa.float32()),
        pa.large_list(pa.float64()),
    ):
        arr = pa.array([list(r) for r in mats], type=typ)
        got = stack_list_column(arr)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, mats)
    fixed = pa.array([list(r) for r in mats], type=pa.list_(pa.float64(), 4))
    np.testing.assert_array_equal(stack_list_column(fixed), mats)
    # sliced chunked column (offsets != 0) must still be exact
    t = pa.table({"embedding": pa.array([list(r) for r in mats])})
    sliced = t.slice(2, 3).column("embedding")
    np.testing.assert_array_equal(stack_list_column(sliced), mats[2:5])
    # ragged fallback
    ragged = pa.array([[1.0, 2.0], [3.0]], type=pa.list_(pa.float64()))
    with pytest.raises(ValueError):
        stack_list_column(ragged)


def test_lru_cache_get_bounded_and_recency():
    cache = {}
    builds = []

    def build(k):
        return lambda: builds.append(k) or k

    for k in "abcd":
        assert lru_cache_get(cache, k, build(k), maxsize=3) == k
    assert "a" not in cache and len(cache) == 3  # a evicted (oldest)
    lru_cache_get(cache, "b", build("b"), maxsize=3)  # hit: refresh b
    lru_cache_get(cache, "e", build("e"), maxsize=3)  # evicts c, not b
    assert "c" not in cache and "b" in cache
    assert builds == list("abcde")  # hits never rebuild


def test_dup_groups_round_blocks_scales():
    from rapidocr_ray.stages.dedup import _round_blocks

    assert _round_blocks(100) == 16
    assert _round_blocks(16 * 65536) == 16
    assert _round_blocks(64 * 65536) == 64
    assert _round_blocks(10**9) == -(-(10**9) // 65536)


# ---------------------------------------------------------------------------
# dedup_by_url auto-fallback (VERDICT r3 #3)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pages_files(ray_session, tmp_path_factory):
    from rapidocr_ray.sources.pages import synth_pages, write_pages_parquet

    pages = synth_pages(80, seed=7)
    d = tmp_path_factory.mktemp("dedup_fallback")
    write_pages_parquet(pages, str(d), n_files=4)
    import glob

    return sorted(glob.glob(str(d / "*.parquet")))


def _dedup_result(files, **kwargs):
    from rapidocr_ray.pipelines.extract import dedup_by_url, read_pages

    df = dedup_by_url(read_pages(files), **kwargs).to_pandas()
    return df.sort_values(["url"]).reset_index(drop=True)


def test_dedup_fallback_matches_broadcast_byte_for_byte(pages_files, monkeypatch):
    from rapidocr_ray.pipelines import extract

    base = _dedup_result(pages_files, winners_files=pages_files)
    monkeypatch.setattr(extract, "WINNERS_LIMIT", 3)
    # winners read from the files: tiny limit -> strict bucketed plan
    fb1 = _dedup_result(pages_files, winners_files=pages_files)
    # winners read from the materialized blocks: same fallback
    fb2 = _dedup_result(pages_files)
    strict = _dedup_result(pages_files, strict=True)
    for other in (fb1, fb2, strict):
        assert list(base.columns) == list(other.columns)
        assert base.equals(other)


# ---------------------------------------------------------------------------
# rolling fingerprints: non-ASCII docs filtered, not fatal (ADVICE r3)
# ---------------------------------------------------------------------------


def test_rolling_fingerprints_filters_non_ascii(ray_session, tmp_path):
    from rapidocr_ray.functions.textstats import rolling_fingerprint
    from rapidocr_ray.pipelines.queries import q_rolling_fingerprints

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": ["plain ascii document body", "café au lait", "x" * 40],
        }
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    out = q_rolling_fingerprints(str(tmp_path)).to_pandas()
    assert sorted(out.doc_id) == [1, 3]  # doc 2 (non-ASCII) filtered
    want = {i: rolling_fingerprint(t) for i, t in zip([1, 3], [docs.column("text")[0].as_py(), "x" * 40])}
    got = dict(zip(out.doc_id, out.fp_roll))
    assert got == want


# ---------------------------------------------------------------------------
# resumable runner: partition parallelism equivalence (VERDICT r3 #10)
# ---------------------------------------------------------------------------


def test_run_resumable_parallel_matches_serial(ray_session, pages_files, tmp_path):
    from rapidocr_ray.state.manifest import run_resumable

    a = run_resumable(
        pages_files, str(tmp_path / "serial"), files_per_partition=2
    )
    b = run_resumable(
        pages_files,
        str(tmp_path / "parallel"),
        files_per_partition=2,
        partition_parallelism=2,
    )
    assert a["n_partitions"] == b["n_partitions"] == 2
    assert a["row_count"] == b["row_count"]
    for ma, mb in zip(a["manifests"], b["manifests"]):
        assert ma["partition_id"] == mb["partition_id"]
        assert ma["content_hash"] == mb["content_hash"]
        assert ma["row_count"] == mb["row_count"]
    # resume over the parallel dir skips everything
    again = run_resumable(
        pages_files,
        str(tmp_path / "parallel"),
        files_per_partition=2,
        partition_parallelism=2,
    )
    assert len(again["skipped"]) == 2

