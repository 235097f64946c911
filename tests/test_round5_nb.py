"""Distributed Naive Bayes train+classify: separability, tie-breaks,
oracle parity, and broadcast==bucketed equality."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from rapidocr_ray.pipelines import queries as q
from rapidocr_ray.stages import tiered


def _docs_dir(tmp_path, ids, texts, langs, name="docs"):
    tbl = pa.table(
        {
            "doc_id": pa.array(ids, type=pa.int64()),
            "text": texts,
            "lang": langs,
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        }
    )
    d = tmp_path / name
    d.mkdir()
    pq.write_table(tbl, str(d / "documents.parquet"))
    return str(d)


def _oracle(sf_dir):
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf_dir}/documents.parquet')"
    )
    return con.execute(q.ORACLE_SQL["nb_classify"]).df()


def _compare(got, want_df):
    df = got.to_pandas()
    cols = sorted(df.columns)
    assert cols == sorted(want_df.columns), (cols, sorted(want_df.columns))
    a = df[cols].sort_values(cols).reset_index(drop=True)
    b = want_df[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    return df


def test_nb_separable_corpus_perfect_train_accuracy(ray_session, tmp_path):
    """Disjoint vocabularies per lang: the classifier must recover every
    label on the training set (and match the oracle)."""
    texts, langs, ids = [], [], []
    for i in range(20):
        texts.append(f"aaa bbb ccc w{i % 4}")
        langs.append("en")
        ids.append(i)
    for i in range(20, 35):
        texts.append(f"xxx yyy zzz v{i % 3}")
        langs.append("fr")
        ids.append(i)
    d = _docs_dir(tmp_path, ids, texts, langs)
    df = _compare(q.QUERIES["nb_classify"](d), _oracle(d))
    assert (df.lang == df.nb_pred).all()


def test_nb_tie_breaks_lang_asc(ray_session, tmp_path):
    """Perfectly symmetric two-lang corpus: every doc scores identically
    under both labels, so every prediction must fall to the ASC lang —
    on BOTH engines (the tie-break is part of the contract)."""
    d = _docs_dir(
        tmp_path,
        [0, 1],
        ["tok", "tok"],
        ["bb", "aa"],
    )
    df = _compare(q.QUERIES["nb_classify"](d), _oracle(d))
    assert (df.nb_pred == "aa").all()


def test_nb_empty_text_gets_prior_only(ray_session, tmp_path):
    """Empty text splits to the '' token on both engines; a lang-skewed
    prior must decide the prediction for it."""
    texts = ["", "common common", "common common", "common common"]
    langs = ["en", "fr", "fr", "fr"]
    d = _docs_dir(tmp_path, [0, 1, 2, 3], texts, langs)
    df = _compare(q.QUERIES["nb_classify"](d), _oracle(d))
    assert len(df) == 4


def test_nb_bucketed_equals_broadcast(ray_session, tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    vocab = {
        "en": [f"e{i}" for i in range(30)],
        "fr": [f"f{i}" for i in range(30)],
        "es": [f"s{i}" for i in range(30)],
    }
    shared = [f"c{i}" for i in range(10)]
    texts, langs, ids = [], [], []
    for i in range(120):
        lang = ["en", "fr", "es"][i % 3]
        own = rng.choice(vocab[lang], size=rng.integers(2, 8))
        mix = rng.choice(shared, size=rng.integers(0, 4))
        texts.append(" ".join(list(own) + list(mix)))
        langs.append(lang)
        ids.append(i)
    d = _docs_dir(tmp_path, ids, texts, langs)
    a = (
        q.QUERIES["nb_classify"](d)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    monkeypatch.setattr(tiered, "BROADCAST_LIMIT", 0)
    b = (
        q.QUERIES["nb_classify"](d)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)
    monkeypatch.undo()
    # and both match the oracle
    _compare(q.QUERIES["nb_classify"](d), _oracle(d))


def test_nb_randomized_cross_check(ray_session, tmp_path):
    """Seeded random corpus with overlapping skewed vocabularies and a
    singleton lang — bit-exact oracle parity."""
    rng = np.random.default_rng(20260820)
    vocab = np.array([f"w{i}" for i in range(60)])
    pv = (1.0 / np.arange(1, 61)) / np.sum(1.0 / np.arange(1, 61))
    n = 200
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(1, 25), p=pv)) for _ in range(n)
    ]
    langs = list(rng.choice(["en", "fr", "es", "de"], size=n, p=[0.5, 0.3, 0.15, 0.05]))
    langs[0] = "zz"
    d = _docs_dir(tmp_path, list(range(n)), texts, langs)
    _compare(q.QUERIES["nb_classify"](d), _oracle(d))


def test_bigram_logprob_hand_computed(ray_session, tmp_path):
    """'a b a b' + 'c': V=3; pairs: (a b)x2, (b a)x1.  lp(a b) =
    floor(log10(3/(2+3))*1e6), lp(b a) = floor(log10(2/(2+3))*1e6);
    doc 1 has no pairs -> (0, 0).  Oracle parity + exact values."""
    import math

    d = _docs_dir(tmp_path, [0, 1], ["a b a b", "c"], ["en", "en"])
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{d}/documents.parquet')"
    )
    want = con.execute(q.ORACLE_SQL["bigram_logprob"]).df()
    df = _compare(q.QUERIES["bigram_logprob"](d), want)
    r = df.set_index("doc_id")
    lp_ab = math.floor(math.log10(3 / 5) * 1e6)
    lp_ba = math.floor(math.log10(2 / 5) * 1e6)
    assert r.loc[0, "n_bigrams"] == 3
    assert r.loc[0, "bigram_lp_micro_sum"] == 2 * lp_ab + lp_ba
    assert r.loc[1, "n_bigrams"] == 0 and r.loc[1, "bigram_lp_micro_sum"] == 0


def test_bigram_bucketed_equals_broadcast_randomized(ray_session, tmp_path, monkeypatch):
    rng = np.random.default_rng(99)
    vocab = np.array([f"w{i}" for i in range(20)])
    n = 150
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(1, 15))) for _ in range(n)
    ]
    texts[3] = ""  # empty -> one '' token, zero pairs
    d = _docs_dir(tmp_path, list(range(n)), texts, ["en"] * n)
    a = (
        q.QUERIES["bigram_logprob"](d)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    monkeypatch.setattr(tiered, "BROADCAST_LIMIT", 0)
    b = (
        q.QUERIES["bigram_logprob"](d)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)
    monkeypatch.undo()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{d}/documents.parquet')"
    )
    want = con.execute(q.ORACLE_SQL["bigram_logprob"]).df()
    _compare(q.QUERIES["bigram_logprob"](d), want)


def test_bpe_train_merges_hand_traced(ray_session, tmp_path):
    """'x y x y x y' x3 docs: round 1 merges 'x y' (count 9, greedy
    leftmost); round 2 must merge the MERGED token with its neighbor —
    pinning that merged tokens re-enter the pair pool."""
    d = _docs_dir(tmp_path, [0, 1, 2], ["x y x y x y"] * 3, ["en"] * 3)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{d}/documents.parquet')"
    )
    want = con.execute(q.ORACLE_SQL["bpe_train_merges"]).df()
    df = _compare(q.QUERIES["bpe_train_merges"](d), want)
    r = df.set_index("it")
    assert r.loc[1, "pair"] == "x\x01y" and r.loc[1, "pair_count"] == 9
    # after round 1 every doc is [xy, xy, xy]: round 2 pair = (xy, xy),
    # count 6 (two adjacencies per doc)
    assert r.loc[2, "pair"] == "x\x01y\x01x\x01y"
    assert r.loc[2, "pair_count"] == 6


def test_bpe_greedy_same_token_run_parity(ray_session, tmp_path):
    """'a a a a a' (5 tokens): pair (a,a) matches at 4 consecutive
    positions; greedy leftmost keeps offsets 0 and 2 -> [aa, aa, a].
    Count reported for round 1 is 4 (pre-merge adjacency count); round
    2's recount must see [aa, aa, a] on both engines."""
    d = _docs_dir(tmp_path, [0], ["a a a a a"], ["en"])
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{d}/documents.parquet')"
    )
    want = con.execute(q.ORACLE_SQL["bpe_train_merges"]).df()
    df = _compare(q.QUERIES["bpe_train_merges"](d), want)
    r = df.set_index("it")
    assert r.loc[1, "pair"] == "a\x01a" and r.loc[1, "pair_count"] == 4
    # round 2 recount on [aa, aa, a]: (aa,aa) and (aa,a) tie at 1;
    # pair-ASC picks the shorter key (prefix sorts first) -> (aa, a)
    assert r.loc[2, "pair"] == "a\x01a\x01a" and r.loc[2, "pair_count"] == 1
    # round 3 on [aa, aaa]: the single remaining adjacency
    assert r.loc[3, "pair"] == "a\x01a\x01a\x01a\x01a"
    assert r.loc[3, "pair_count"] == 1


def test_bpe_randomized_cross_check(ray_session, tmp_path):
    rng = np.random.default_rng(20260820)
    vocab = np.array([f"w{i}" for i in range(12)])
    pv = (1.0 / np.arange(1, 13)) / np.sum(1.0 / np.arange(1, 13))
    n = 120
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(1, 20), p=pv))
        for _ in range(n)
    ]
    texts[5] = "w0 w0 w0 w0 w0 w0"  # same-token run stress
    d = _docs_dir(tmp_path, list(range(n)), texts, ["en"] * n)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{d}/documents.parquet')"
    )
    want = con.execute(q.ORACLE_SQL["bpe_train_merges"]).df()
    df = _compare(q.QUERIES["bpe_train_merges"](d), want)
    assert len(df) == 3


def _emb_dir(tmp_path, ids, vecs, name="emb"):
    tbl = pa.table(
        {
            "vec_id": pa.array(ids, type=pa.int64()),
            "embedding": pa.array(
                [np.asarray(v, dtype=np.float32).tolist() for v in vecs],
                type=pa.list_(pa.float32()),
            ),
            "label": pa.array([0] * len(ids), type=pa.int32()),
        }
    )
    d = tmp_path / name
    d.mkdir()
    pq.write_table(tbl, str(d / "embeddings.parquet"))
    return str(d)


def _km_oracle(sf_dir):
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM read_parquet('{sf_dir}/embeddings.parquet')"
    )
    return con.execute(q.ORACLE_SQL["kmeans_int_iters"]).df()


def test_kmeans_recovers_planted_clusters(ray_session, tmp_path):
    """Four tight well-separated blobs, seeds one-per-blob (smallest
    vec_ids 0..3 land in distinct blobs): Lloyd must assign every
    member to its blob and match the oracle bit-for-bit; negative
    coordinates exercise the truncating `//` centroid mean."""
    rng = np.random.default_rng(5)
    centers = np.array(
        [[5.0] * 8, [-5.0] * 8, [5.0] * 4 + [-5.0] * 4, [-5.0] * 4 + [5.0] * 4]
    )
    ids, vecs = [], []
    for j in range(4):
        ids.append(j)  # seed for blob j
        vecs.append(centers[j])
    nid = 4
    for j in range(4):
        for _ in range(20):
            ids.append(nid)
            vecs.append(centers[j] + rng.normal(0, 0.3, size=8))
            nid += 1
    d = _emb_dir(tmp_path, ids, vecs)
    df = q.QUERIES["kmeans_int_iters"](d).to_pandas()
    want = _km_oracle(d)
    cols = sorted(df.columns)
    a = df[cols].sort_values(cols).reset_index(drop=True)
    b = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    # blob membership recovered exactly (separation >> noise)
    r = df.set_index("vec_id").cluster
    for j in range(4):
        members = [j] + [4 + j * 20 + t for t in range(20)]
        assert (r[members] == r[j]).all()
    assert r[[0, 1, 2, 3]].nunique() == 4


def test_kmeans_empty_cluster_keeps_seed(ray_session, tmp_path):
    """A seed with no nearby points loses every assignment round; its
    centroid must carry over unchanged (COALESCE pin) on both engines."""
    vecs = [
        [100.0, 100.0],  # vec 0: isolated seed — nothing assigns closer to others? it keeps itself
        [0.0, 0.0],
        [0.1, 0.1],
        [0.2, 0.0],
        [-0.1, 0.0],
        [0.0, 0.1],
        [50.0, 50.0],  # between, but nearer the origin blob? no - nearer 100? equidistantish
    ]
    ids = list(range(len(vecs)))
    d = _emb_dir(tmp_path, ids, vecs)
    df = q.QUERIES["kmeans_int_iters"](d).to_pandas()
    want = _km_oracle(d)
    cols = sorted(df.columns)
    pd.testing.assert_frame_equal(
        df[cols].sort_values(cols).reset_index(drop=True),
        want[cols].sort_values(cols).reset_index(drop=True),
        check_dtype=False,
    )


def test_kmeans_randomized_cross_check(ray_session, tmp_path):
    """Seeded random embeddings incl. negatives and near-ties — 3 Lloyd
    rounds must match the unrolled oracle bit-for-bit."""
    rng = np.random.default_rng(20260820)
    n, dim = 120, 16
    vecs = rng.normal(0, 1, size=(n, dim))
    vecs[10] = vecs[11]  # exact duplicate -> identical dist rows
    d = _emb_dir(tmp_path, list(range(n)), vecs)
    df = q.QUERIES["kmeans_int_iters"](d).to_pandas()
    want = _km_oracle(d)
    cols = sorted(df.columns)
    pd.testing.assert_frame_equal(
        df[cols].sort_values(cols).reset_index(drop=True),
        want[cols].sort_values(cols).reset_index(drop=True),
        check_dtype=False,
    )


def _bpe_apply_scalar(tokens, merges):
    """Reference scalar greedy leftmost merge (one doc)."""
    sep = "\x01"
    for key in merges:
        out = []
        i = 0
        while i < len(tokens):
            if i + 1 < len(tokens) and tokens[i] + sep + tokens[i + 1] == key:
                out.append(key)
                i += 2
            else:
                out.append(tokens[i])
                i += 1
        tokens = out
    return tokens


def test_bpe_apply_merges_property_vs_scalar():
    """Vectorized batch merge == per-doc scalar greedy on random corpora
    with adversarial same-token runs and chained merge keys."""
    import numpy as np

    from rapidocr_ray.pipelines.queries import _bpe_apply_merges

    rng = np.random.default_rng(42)
    vocab = ["a", "b", "c", "ab"]
    for trial in range(60):
        docs = [
            [vocab[rng.integers(0, len(vocab))] for _ in range(rng.integers(1, 12))]
            for _ in range(rng.integers(1, 8))
        ]
        merges = ["a\x01a", "a\x01b", "a\x01a\x01a\x01a", "b\x01c"][
            : rng.integers(1, 5)
        ]
        flat = np.array([t for d in docs for t in d], dtype=object)
        lens = np.array([len(d) for d in docs], dtype=np.int64)
        got_flat, got_lens = _bpe_apply_merges(flat, lens, merges)
        want_docs = [_bpe_apply_scalar(list(d), merges) for d in docs]
        want_flat = [t for d in want_docs for t in d]
        assert got_flat.tolist() == want_flat, (trial, docs, merges)
        assert got_lens.tolist() == [len(d) for d in want_docs]


def test_kmeans_helpers_handle_empty_batches():
    """An empty pyarrow batch quantizes to (0, dim) and assigns to zero
    rows instead of failing to broadcast against the centroids."""
    empty = pa.table({"vec_id": pa.array([], type=pa.int64()),
                      "embedding": pa.array([], type=pa.list_(pa.float32()))})
    emb = q._kmeans_quant(empty, 1_000_000, 3)
    assert emb.shape == (0, 3) and emb.dtype == np.int64
    best, dist = q._kmeans_assign(emb, np.zeros((4, 3), dtype=np.int64))
    assert best.shape == dist.shape == (0,)
    one = pa.table({"vec_id": pa.array([7], type=pa.int64()),
                    "embedding": pa.array([[0.5, -0.25, 0.0]], type=pa.list_(pa.float32()))})
    emb = q._kmeans_quant(one, 1_000_000, 3)
    assert emb.tolist() == [[500000, -250000, 0]]
    # equidistant from centroids 0 and 1: the lowest id wins
    best, dist = q._kmeans_assign(emb, np.array([[0, 0, 0], [1_000_000, -500_000, 0]]))
    assert best.tolist() == [0] and dist.tolist() == [500000**2 + 250000**2]
