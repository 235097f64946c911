"""Round-5 resampling/weighting ops: temperature resample (alpha=0.5),
Zipf slope, soft-dedup weights — edge cases + randomized oracle parity."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from rapidocr_ray.pipelines import queries as q
from rapidocr_ray.stages import tiered


def _docs_dir(tmp_path, ids, texts, langs=None, name="docs"):
    tbl = pa.table(
        {
            "doc_id": pa.array(ids, type=pa.int64()),
            "text": texts,
            "lang": langs or ["en"] * len(ids),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        }
    )
    d = tmp_path / name
    d.mkdir()
    pq.write_table(tbl, str(d / "documents.parquet"))
    return str(d)


def _oracle(sf_dir, name):
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf_dir}/documents.parquet')"
    )
    return con.execute(q.ORACLE_SQL[name]).df()


def _compare(got, want_df):
    df = got.to_pandas()
    cols = sorted(df.columns)
    assert cols == sorted(want_df.columns), (cols, sorted(want_df.columns))
    a = df[cols].sort_values(cols).reset_index(drop=True)
    b = want_df[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    return df


def test_temperature_resample_caps_rare_lang(ray_session, tmp_path):
    """Skewed 90/9/1 corpus: the rarest lang upsamples past 1 so its
    rate pins at the 1e6 cap (every doc kept); the dominant lang's rate
    lands strictly below 1e6 (downsampled); oracle parity throughout."""
    langs = ["en"] * 90 + ["fr"] * 9 + ["de"] * 1
    ids = list(range(100))
    d = _docs_dir(tmp_path, ids, [f"t {i}" for i in ids], langs)
    df = _compare(q.QUERIES["temperature_resample"](d), _oracle(d, "temperature_resample"))
    rates = df.groupby("lang")["rate_micro"].first()
    assert rates["de"] == 1_000_000  # capped: every de doc survives
    assert (df[df.lang == "de"].doc_id == 99).all() and len(df[df.lang == "de"]) == 1
    assert rates["en"] < 1_000_000  # dominant lang downsampled
    # monotone: rarer lang never gets a lower rate than a commoner one
    assert rates["de"] >= rates["fr"] >= rates["en"]


def test_temperature_resample_single_lang_keeps_all(ray_session, tmp_path):
    """One lang: q = 1, rate = N/N = 1e6 — the resample is the identity."""
    ids = list(range(37))
    d = _docs_dir(tmp_path, ids, [f"x {i}" for i in ids])
    df = _compare(q.QUERIES["temperature_resample"](d), _oracle(d, "temperature_resample"))
    assert len(df) == 37
    assert (df.rate_micro == 1_000_000).all()


def test_zipf_slope_known_distribution(ray_session, tmp_path):
    """Planted counts 64/32/16/8/4/2/1 over rank 1..7 give an exact
    log2-geometric law: slope = -log10(2)*k / log10(rank) fit — the
    integer-pinned OLS must be negative and match the oracle; a
    degenerate one-token lang pins slope 0 (den == 0)."""
    texts, langs, ids = [], [], []
    # en: token t{r} appears 2^(7-r) times, spread over several docs
    i = 0
    for r in range(1, 8):
        reps = 2 ** (7 - r)
        words = (f"t{r} " * reps).strip()
        texts.append(words)
        langs.append("en")
        ids.append(i)
        i += 1
    # de: a single distinct token -> kk=1, den=0, slope pinned to 0
    texts.append("solo solo solo")
    langs.append("de")
    ids.append(i)
    d = _docs_dir(tmp_path, ids, texts, langs)
    df = _compare(q.QUERIES["zipf_slope"](d), _oracle(d, "zipf_slope"))
    row = df.set_index("lang")
    assert row.loc["en", "n_terms"] == 7
    assert row.loc["en", "zipf_slope_micro"] < -900_000  # ~ -1 for 2^-r law
    assert row.loc["de", "n_terms"] == 1
    assert row.loc["de", "zipf_slope_micro"] == 0


def test_zipf_slope_uniform_counts_is_zero(ray_session, tmp_path):
    """All tokens equally frequent: y constant -> covariance 0 -> slope 0
    (numerator exactly 0, not a rounding artifact)."""
    d = _docs_dir(tmp_path, [0, 1], ["a b c d", "a b c d"])
    df = _compare(q.QUERIES["zipf_slope"](d), _oracle(d, "zipf_slope"))
    assert df.zipf_slope_micro.tolist() == [0]
    assert df.n_terms.tolist() == [4]


def test_soft_dedup_weights_cluster_sizes(ray_session, tmp_path):
    """Clusters of size 1/2/4 -> weights 1e6 / 5e5 / 25e4, every member
    emitted (soft dedup never drops rows)."""
    texts = ["unique"] + ["pair"] * 2 + ["quad"] * 4
    ids = list(range(7))
    d = _docs_dir(tmp_path, ids, texts)
    df = _compare(q.QUERIES["soft_dedup_weights"](d), _oracle(d, "soft_dedup_weights"))
    assert len(df) == 7
    w = df.set_index("doc_id").weight_micro
    assert w[0] == 1_000_000
    assert (w[[1, 2]] == 500_000).all()
    assert (w[[3, 4, 5, 6]] == 250_000).all()
    # expectation-preserving: sum over each cluster == 1e6 exactly for
    # power-of-two sizes (floor division exact)
    assert df.groupby("n_dups").weight_micro.sum().loc[4] == 1_000_000


def test_resample_ops_randomized_cross_check(ray_session, tmp_path):
    """Seeded random corpus (vocab-skewed texts, random langs incl. one
    rare lang, planted exact dup clusters) — all three ops must match
    DuckDB bit-for-bit."""
    rng = np.random.default_rng(20260820)
    vocab = np.array([f"w{i}" for i in range(50)])
    pvals = (1.0 / np.arange(1, 51)) / np.sum(1.0 / np.arange(1, 51))
    n = 300
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(3, 30), p=pvals))
        for _ in range(n)
    ]
    # plant dup clusters
    for j in range(0, 30, 3):
        texts[j + 1] = texts[j]
        texts[j + 2] = texts[j]
    langs = list(rng.choice(["en", "fr", "es"], size=n, p=[0.7, 0.25, 0.05]))
    langs[0] = "zz"  # singleton lang: rate cap + kk small
    d = _docs_dir(tmp_path, list(range(n)), texts, langs)
    for name in ("temperature_resample", "zipf_slope", "soft_dedup_weights"):
        _compare(q.QUERIES[name](d), _oracle(d, name))


def test_audio_cross_codec_decode_equality():
    """The five dedup containers (u8/i16/i32/f32/stereo-i16) of the same
    8-bit-quantized signal must decode to bit-identical float32 mono —
    the invariant q_audio_sample_dup_groups' single-group hash rests on."""
    import numpy as np

    from rapidocr_ray.functions.codecs import decode_wav, encode_wav_pcm

    for gk in (0, 7, 28):
        n = 40 + gk % 3
        s8 = ((gk * 37 + np.arange(n, dtype=np.int64) * 11) % 256) - 128
        payloads = [
            encode_wav_pcm((s8 + 128).astype(np.uint8), "u8"),
            encode_wav_pcm((s8 * 256).astype("<i2"), "i16"),
            encode_wav_pcm((s8 * 256 * 65536).astype("<i4"), "i32"),
            encode_wav_pcm((s8.astype(np.float64) / 128.0).astype("<f4"), "f32"),
            encode_wav_pcm(
                np.repeat((s8 * 256).astype("<i2"), 2), "i16", n_channels=2
            ),
        ]
        ref = None
        for i, p in enumerate(payloads):
            x, rate, _ = decode_wav(p)
            assert len(x) == n and rate == 8000
            if ref is None:
                ref = x.tobytes()
            else:
                assert x.tobytes() == ref, f"container {i} diverges at gk={gk}"


def test_audio_dup_groups_odd_length_word_alignment():
    """An odd-byte u8 data chunk exercises the RIFF pad byte: the padded
    container must still decode to the exact sample count."""
    import numpy as np

    from rapidocr_ray.functions.codecs import decode_wav, encode_wav_pcm

    s8 = np.array([1, -2, 3], dtype=np.int64)  # 3 bytes as u8 -> pad
    p = encode_wav_pcm((s8 + 128).astype(np.uint8), "u8")
    assert len(p) % 2 == 0
    x, _, _ = decode_wav(p)
    assert len(x) == 3


def test_temperature_resample_negative_doc_ids(ray_session, tmp_path):
    """Corpus doc_ids are non-negative by contract, but the oracle's
    HUGEINT positive-mod hash must still equal numpy's uint64 wrap on
    negatives (the recurring mod-keyed-oracle pitfall)."""
    ids = [-7, -3, -1, 0, 2, 5, 9, 11]
    d = _docs_dir(tmp_path, ids, [f"t {abs(i)}" for i in ids])
    _compare(q.QUERIES["temperature_resample"](d), _oracle(d, "temperature_resample"))


def test_nb_auto_fallback_at_zero_limit(ray_session, tmp_path, monkeypatch):
    """BROADCAST_LIMIT = 0 must route q_nb_classify through the bucketed
    plan automatically (not raise) and return the identical result."""
    texts = [f"aaa w{i % 5}" if i % 2 else f"xxx v{i % 3}" for i in range(40)]
    langs = ["en" if i % 2 else "fr" for i in range(40)]
    tbl = pa.table(
        {
            "doc_id": pa.array(list(range(40)), type=pa.int64()),
            "text": texts,
            "lang": langs,
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        }
    )
    d = tmp_path / "nbfb"
    d.mkdir()
    pq.write_table(tbl, str(d / "documents.parquet"))
    a = (
        q.q_nb_classify(str(d))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    monkeypatch.setattr(tiered, "BROADCAST_LIMIT", 0)
    b = (
        q.q_nb_classify(str(d))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)


def test_bigram_auto_fallback_at_zero_limit(ray_session, tmp_path, monkeypatch):
    """BROADCAST_LIMIT = 0 must route q_bigram_logprob through the
    bucketed plan (reusing the materialized count table) and return the
    identical result."""
    d = _docs_dir(
        tmp_path,
        [0, 1, 2],
        ["a b a b c", "b c b", "solo"],
        name="bgfb",
    )
    a = (
        q.q_bigram_logprob(d)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    monkeypatch.setattr(tiered, "BROADCAST_LIMIT", 0)
    b = (
        q.q_bigram_logprob(d)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)


def test_dataset_split_deterministic_and_exhaustive(ray_session, tmp_path):
    """Every doc gets exactly one split; negative ids hash identically
    on both engines; re-running yields the same assignment."""
    ids = list(range(-5, 400))
    d = _docs_dir(tmp_path, ids, [f"t {abs(i)}" for i in ids])
    df = _compare(q.QUERIES["dataset_split"](d), _oracle(d, "dataset_split"))
    assert len(df) == len(ids)
    assert set(df.split) <= {"train", "val", "test"}
    df2 = q.QUERIES["dataset_split"](d).to_pandas()
    pd.testing.assert_frame_equal(
        df.sort_values("doc_id").reset_index(drop=True),
        df2.sort_values("doc_id").reset_index(drop=True)[df.columns],
        check_dtype=False,
    )
