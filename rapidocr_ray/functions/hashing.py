"""Hashing kernels for near-duplicate detection: shingling, MinHash,
SimHash.  Pure numpy, deterministic, vectorized per document.

Design for scale (ray_guide aggregation pattern): all of these emit
per-document signatures inside ``map_batches``; the expensive work
(banding, bucket groupby, pair verification) happens on the much
smaller signature stream, never on raw text twice.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np

_MERSENNE = (1 << 61) - 1


def _stable_hash64(s: str) -> int:
    """First 8 md5 bytes, little-endian.  md5 (rather than blake2b)
    so SQL oracles can reproduce the exact value: this equals DuckDB's
    ``md5_number_upper(s)`` for any UTF-8 string, which makes every
    token/shingle-hash-derived signature (SimHash in particular)
    independently checkable end-to-end from the documents table."""
    return int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "little")


def crc_bucket(values, n_buckets: int) -> np.ndarray:
    """Stable bucket of each string key: ``zlib.crc32(utf8(v)) %
    n_buckets`` as int64 — the bucket directory of the hash-bucketed
    parquet sink, a persisted layout (shuffles use ``tiered.by_key``).
    ``values`` is any iterable of str or an Arrow array.  INTENTIONAL
    per-value Python loop: there is no vectorized Arrow crc32, and the
    callers run it over already-collapsed per-batch partials."""
    if hasattr(values, "to_pylist"):
        values = values.to_pylist()
    return np.fromiter(
        (zlib.crc32(v.encode()) % n_buckets for v in values), dtype=np.int64
    )


def word_shingles(text: str, k: int = 3) -> list[str]:
    """k-gram word shingles (distinct, order-insensitive set semantics
    left to the caller)."""
    words = text.split(" ")
    if len(words) < k:
        return [" ".join(words)] if words != [""] else []
    return [" ".join(words[i:i + k]) for i in range(len(words) - k + 1)]


def shingle_set_hashes(text: str, k: int = 3) -> np.ndarray:
    """Distinct shingle 64-bit hashes, sorted (deterministic)."""
    hs = {_stable_hash64(s) for s in word_shingles(text, k)}
    return np.fromiter(sorted(hs), dtype=np.uint64, count=len(hs))


class MinHasher:
    """n_perm multiply-shift MinHash over shingle hashes.  Seeded
    parameters are generated once, in ``__init__``.

    The permutation family is multiply-shift hashing
    h_i(x) = (a_i * x + b_i) with native uint64 wraparound (a_i odd) —
    a standard universal family that vectorizes to one numpy matmul-
    shaped op, no object-dtype bignum math."""

    def __init__(self, n_perm: int = 128, seed: int = 7):
        rng = np.random.default_rng(seed)
        self.a = (rng.integers(1, 1 << 63, n_perm, dtype=np.uint64) << np.uint64(1)) | np.uint64(1)
        self.b = rng.integers(0, 1 << 63, n_perm, dtype=np.uint64)
        self.n_perm = n_perm

    def signature(self, shingles: np.ndarray) -> np.ndarray:
        """uint64 shingle hashes -> uint64 [n_perm] signature."""
        if shingles.size == 0:
            return np.full(self.n_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        with np.errstate(over="ignore"):
            vals = self.a[:, None] * shingles[None, :] + self.b[:, None]
        return vals.min(axis=1)

    def band_hash_matrix(self, mat: np.ndarray, n_bands: int = 32) -> np.ndarray:
        """Vectorized LSH banding for a whole batch: (n_docs, n_perm)
        uint64 signatures -> (n_docs, n_bands) uint64 band hashes.

        Equal band chunks hash equal (the LSH property); the mix is a
        murmur-style xor-multiply fold over the r values of each band
        plus a band-id term so identical chunks in different bands
        don't collide.  One numpy pass over the batch — no per-row
        python (the round-2 band explode hot spot)."""
        n, n_perm = mat.shape
        assert n_perm == self.n_perm
        r = n_perm // n_bands
        chunks = mat.reshape(n, n_bands, r)
        m1 = np.uint64(0xFF51AFD7ED558CCD)
        m2 = np.uint64(0xC4CEB9FE1A85EC53)
        h = (np.arange(n_bands, dtype=np.uint64) * m2 + np.uint64(0x9E3779B97F4A7C15))[
            None, :
        ].repeat(n, axis=0)
        with np.errstate(over="ignore"):
            for j in range(r):  # r is small (4 at 128/32); docs axis vectorized
                h = (h ^ chunks[:, :, j]) * m1
                h ^= h >> np.uint64(33)
                h *= m2
            h ^= h >> np.uint64(29)
        return h

    def band_keys(self, sig: np.ndarray, n_bands: int = 32) -> list[tuple[int, int]]:
        """LSH banding: [(band_id, band_hash)] — equal keys = candidates.
        Single-row convenience over band_hash_matrix (same hashes)."""
        h = self.band_hash_matrix(sig[None, :], n_bands)[0]
        return [(band, int(h[band])) for band in range(n_bands)]


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Exact Jaccard of two sorted distinct-hash arrays."""
    if a.size == 0 and b.size == 0:
        return 1.0
    inter = np.intersect1d(a, b, assume_unique=True).size
    union = a.size + b.size - inter
    return inter / union if union else 0.0


class SimHasher:
    """64-bit SimHash over word features (token unigram hashes)."""

    def __init__(self, n_bits: int = 64):
        self.n_bits = n_bits

    def signature(self, text: str) -> int:
        toks = [t for t in text.split(" ") if t]
        if not toks:
            return 0
        hs = np.fromiter(
            (_stable_hash64(t) for t in toks), dtype=np.uint64, count=len(toks)
        )
        shifts = np.arange(self.n_bits, dtype=np.uint64)[None, :]
        bits = (hs[:, None] >> shifts) & np.uint64(1)
        acc = (2 * bits.astype(np.int64) - 1).sum(axis=0)
        weights = (np.uint64(1) << shifts[0])[acc > 0]
        return int(np.bitwise_or.reduce(weights)) if len(weights) else 0


def hamming64(a: int, b: int) -> int:
    return int(bin(a ^ b).count("1"))
