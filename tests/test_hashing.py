"""MinHash / SimHash / shingling kernels."""

import numpy as np
import pytest

from rapidocr_ray.functions import hashing as hx


def test_crc_bucket_matches_zlib():
    import zlib

    import pyarrow as pa

    keys = ["", "a", "example.com", "naïve café", "日本語", "a b\x01c"]
    want = [zlib.crc32(k.encode()) % 64 for k in keys]
    got = hx.crc_bucket(keys, 64)
    assert got.dtype == np.int64 and got.tolist() == want
    # Arrow arrays (plain and chunked) hash the same as their values
    assert hx.crc_bucket(pa.array(keys), 64).tolist() == want
    assert hx.crc_bucket(pa.chunked_array([keys[:2], keys[2:]]), 64).tolist() == want
    assert hx.crc_bucket([], 7).dtype == np.int64


def test_word_shingles():
    assert hx.word_shingles("a b c d", 3) == ["a b c", "b c d"]
    assert hx.word_shingles("a b", 3) == ["a b"]
    assert hx.word_shingles("", 3) == []


def test_shingle_set_distinct_sorted():
    arr = hx.shingle_set_hashes("a b c a b c a b c", 3)
    assert arr.size == 3  # {'a b c', 'b c a', 'c a b'}
    assert (np.diff(arr.astype(np.float64)) > 0).all()


def test_jaccard_exact():
    a = np.array([1, 2, 3, 4], dtype=np.uint64)
    b = np.array([3, 4, 5, 6], dtype=np.uint64)
    assert hx.jaccard(a, b) == 2 / 6
    assert hx.jaccard(a, a) == 1.0
    assert hx.jaccard(np.array([], dtype=np.uint64), a) == 0.0


def test_minhash_estimates_jaccard():
    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(200)]
    base = " ".join(words)
    # ~30% token replacement
    mutated = " ".join(
        w if rng.random() > 0.3 else f"x{i}" for i, w in enumerate(words)
    )
    sa = hx.shingle_set_hashes(base)
    sb = hx.shingle_set_hashes(mutated)
    true_j = hx.jaccard(sa, sb)
    mh = hx.MinHasher(n_perm=256)
    est = float((mh.signature(sa) == mh.signature(sb)).mean())
    assert est == pytest.approx(true_j, abs=0.1)


def test_minhash_deterministic():
    mh1 = hx.MinHasher(n_perm=64, seed=7)
    mh2 = hx.MinHasher(n_perm=64, seed=7)
    sh = hx.shingle_set_hashes("alpha beta gamma delta epsilon")
    assert (mh1.signature(sh) == mh2.signature(sh)).all()


def test_band_keys_shape_and_collision():
    mh = hx.MinHasher(n_perm=128)
    sh = hx.shingle_set_hashes("alpha beta gamma delta epsilon")
    keys = mh.band_keys(mh.signature(sh), n_bands=32)
    assert len(keys) == 32
    assert len({b for b, _ in keys}) == 32
    # identical docs share all band keys
    keys2 = mh.band_keys(mh.signature(sh), n_bands=32)
    assert keys == keys2


def test_simhash_similar_texts_close():
    sh = hx.SimHasher()
    a = sh.signature("the quick brown fox jumps over the lazy dog")
    b = sh.signature("the quick brown fox jumps over the lazy cat")
    c = sh.signature("completely different words entirely here now")
    assert hx.hamming64(a, b) < hx.hamming64(a, c)
    assert hx.hamming64(a, a) == 0
