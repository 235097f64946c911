"""Round-5 web-curation widening: PII redaction, paragraph-level exact
dedup, PSL-lite domain rollup, URL canonicalization dedup."""

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rapidocr_ray.pipelines import queries as q

SF = "/root/testdata/sf0.001"
NEW = [
    "pii_redaction",
    "paragraph_dedup",
    "domain_stats",
    "url_canonical_dedup",
    "unigram_logprob",
    "incremental_dedup",
]


def _docs_dir(tmp_path, ids, texts, langs=None, sources=None, name="docs"):
    tbl = pa.table(
        {
            "doc_id": pa.array(ids, type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
            "lang": pa.array(langs or ["en"] * len(ids), type=pa.string()),
            "source": pa.array(sources or ["src0"] * len(ids), type=pa.string()),
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


def _compare(got_ds, want_df):
    df = got_ds.to_pandas()
    cols = sorted(df.columns)
    assert cols == sorted(want_df.columns), (cols, sorted(want_df.columns))
    a = df[cols].sort_values(cols).reset_index(drop=True)
    b = want_df[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    return df


@pytest.mark.parametrize("name", NEW)
def test_curation_queries_match_duckdb_at_sf(ray_session, name):
    _compare(q.QUERIES[name](SF), _oracle(SF, name))


def test_pii_redaction_adversarial_text(ray_session, tmp_path):
    """Text that ALREADY carries pii-looking strings (emails with dotted
    local parts, boundary-adjacent IPs, too-long octets): counts and the
    redacted-text md5 must still match the RE2 oracle exactly."""
    d = _docs_dir(
        tmp_path,
        [0, 1, 2, 3],
        [
            "reach a.b-c@sub.domain.co or x@y.io now",
            "ip 1.2.3.4 and weird 999.999.999.999 plus 1.2.3.4.5",
            "not-an-email @nope.com and trailing dot a@b.com.",
            "plain words only",
        ],
    )
    df = _compare(q.QUERIES["pii_redaction"](d), _oracle(d, "pii_redaction"))
    # doc 0 text contributes 2 extra emails on top of the synthesized ones
    base = df[df.doc_id == 3]
    assert int(df[df.doc_id == 0].n_emails.iloc[0]) == int(base.n_emails.iloc[0]) + 2


def test_paragraph_dedup_within_and_cross_doc(ray_session, tmp_path):
    """A paragraph repeated INSIDE one doc keeps only its first
    instance; a later doc repeating an earlier doc's paragraph drops
    it; double spaces / short tails chunk identically to the SQL."""
    p = "a b c d e f g h"  # exactly one 8-word paragraph
    d = _docs_dir(
        tmp_path,
        [0, 1, 2],
        [
            p + " " + p,  # self-dup: second instance dropped
            p + " unique tail words here",  # cross-doc dup of p
            "x  y z",  # double space -> empty token, 1 short paragraph
        ],
    )
    df = _compare(q.QUERIES["paragraph_dedup"](d), _oracle(d, "paragraph_dedup"))
    by = df.set_index("doc_id")
    assert (int(by.loc[0].n_paras), int(by.loc[0].n_kept)) == (2, 1)
    assert int(by.loc[1].n_kept) == int(by.loc[1].n_paras) - 1
    assert (int(by.loc[2].n_paras), int(by.loc[2].n_kept)) == (1, 1)


def test_domain_stats_psl_rollup(ray_session, tmp_path):
    """PSL-lite: hosts under .co.uk roll up to label.co.uk (three
    labels), the rest to the last two labels; www and wN hosts under
    one registrable domain count as distinct hosts."""
    # doc_ids chosen so %5 residues hit com (0,5) and co.uk (4,9,14)
    d = _docs_dir(
        tmp_path,
        [0, 5, 4, 9, 14],
        ["t"] * 5,
        langs=["en", "de", "en", "en", "fr"],
        sources=["s"] * 5,
    )
    df = _compare(q.QUERIES["domain_stats"](d), _oracle(d, "domain_stats"))
    by = df.set_index("domain")
    assert set(by.index) == {"s-site.com", "s-site.co.uk"}
    assert int(by.loc["s-site.com"].n_docs) == 2
    assert int(by.loc["s-site.com"].n_hosts) == 2  # www. and w5.
    assert int(by.loc["s-site.co.uk"].n_langs) == 2


def test_url_canonical_dedup_latest_wins(ray_session, tmp_path):
    """Groups collide on doc_id%97: the max doc_id in each canonical
    group wins and n_dups counts every messy variant."""
    ids = list(range(300))
    d = _docs_dir(tmp_path, ids, ["t"] * len(ids))
    df = _compare(
        q.QUERIES["url_canonical_dedup"](d), _oracle(d, "url_canonical_dedup")
    )
    assert len(df) == 97
    assert int(df.n_dups.sum()) == len(ids)
    # every canonical url is scheme://lower-host/path with no junk
    assert df.canon_url.str.match(r"^https://docs\.example/a/\d+$").all()
    g12 = df[df.canon_url == "https://docs.example/a/12"]
    assert int(g12.doc_id.iloc[0]) == 206  # max id with id%97==12 under 300


def test_curation_ops_empty_inputs(ray_session, tmp_path):
    """Empty documents table: every new op returns exactly what DuckDB
    returns (zero rows), never crashing (the ROLLUP bug class)."""
    d = _docs_dir(tmp_path, [], [])
    for name in NEW:
        got = q.QUERIES[name](d).to_pandas()
        assert len(got) == len(_oracle(d, name)) == 0, name


def test_join_ops_empty_inputs(ray_session, tmp_path):
    """range_join over an empty events table and doc_embedding_join
    over empty documents+embeddings: zero rows, no crash."""
    d_ev = _events_dir(tmp_path, [])
    got = q.QUERIES["range_join"](d_ev).to_pandas()
    assert len(got) == len(_oracle_events(d_ev, "range_join")) == 0

    d = tmp_path / "both"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "text": pa.array([], type=pa.string()),
                "lang": pa.array([], type=pa.string()),
                "source": pa.array([], type=pa.string()),
                "n_chars": pa.array([], type=pa.int64()),
            }
        ),
        str(d / "documents.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array([], type=pa.int64()),
                "embedding": pa.array([], type=pa.list_(pa.float32())),
                "label": pa.array([], type=pa.int32()),
            }
        ),
        str(d / "embeddings.parquet"),
    )
    con = duckdb.connect()
    for t in ("documents", "embeddings"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{d}/{t}.parquet')"
        )
    got = q.QUERIES["doc_embedding_join"](str(d)).to_pandas()
    assert len(got) == len(con.execute(q.ORACLE_SQL["doc_embedding_join"]).df()) == 0


def test_unigram_logprob_fallback_matches_broadcast(ray_session, monkeypatch):
    """BROADCAST_LIMIT = 0 forces the token-bucketed attach shuffle; the
    result must equal the broadcast plan bit-for-bit."""
    from rapidocr_ray.pipelines.queries import q_unigram_logprob
    from rapidocr_ray.stages import tiered

    a = (
        q_unigram_logprob(SF)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    monkeypatch.setattr(tiered, "BROADCAST_LIMIT", 0)
    b = (
        q_unigram_logprob(SF)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)


def test_unigram_logprob_planted_counts(ray_session, tmp_path):
    """Known vocabulary: 'a' appears 3x, 'b' 1x across 2 docs (N=4) —
    per-token scores are floor(log10(3/4)*1e6) and floor(log10(1/4)*1e6),
    summed per doc as exact int64."""
    import math

    d = _docs_dir(tmp_path, [0, 1], ["a a b", "a"])
    df = _compare(q.QUERIES["unigram_logprob"](d), _oracle(d, "unigram_logprob"))
    la = math.floor(math.log10(3 / 4) * 1e6)
    lb = math.floor(math.log10(1 / 4) * 1e6)
    by = df.set_index("doc_id")
    assert int(by.loc[0].logprob_micro_sum) == 2 * la + lb
    assert int(by.loc[1].logprob_micro_sum) == la
    assert (int(by.loc[0].n_tokens), int(by.loc[1].n_tokens)) == (3, 1)


def test_incremental_dedup_planted_and_tiny_bloom(ray_session, tmp_path):
    """A new doc sharing its first 8 words with a prior-snapshot doc is
    flagged; differing word 8 is not.  A 64-bit Bloom (false positives
    near-certain) must STILL produce the exact output — the verify
    join, not the sketch, owns correctness."""
    from rapidocr_ray.pipelines.queries import q_incremental_dedup

    head = "w1 w2 w3 w4 w5 w6 w7 w8"
    d = _docs_dir(
        tmp_path,
        [0, 1, 2, 3],  # 0, 3 are prior (doc_id%3==0)
        [head + " prior tail", head + " new tail", "w1 w2 w3 w4 w5 w6 w7 DIFF x", "other prior"],
    )
    df = _compare(q.QUERIES["incremental_dedup"](d), _oracle(d, "incremental_dedup"))
    by = df.set_index("doc_id")
    assert int(by.loc[1].is_dup) == 1
    assert int(by.loc[2].is_dup) == 0
    tiny = (
        q_incremental_dedup(d, n_bits_log2=6)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        df.sort_values("doc_id").reset_index(drop=True), tiny[df.columns],
        check_dtype=False,
    )


def _events_dir(tmp_path, rows):
    """rows: (event_id, ts_str, user_id, event_type, value)."""
    import numpy as np

    tbl = pa.table(
        {
            "event_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "ts": pa.array(
                [np.datetime64(r[1], "us") for r in rows], type=pa.timestamp("us")
            ),
            "user_id": pa.array([r[2] for r in rows], type=pa.int64()),
            "event_type": pa.array([r[3] for r in rows], type=pa.string()),
            "value": pa.array([r[4] for r in rows], type=pa.float64()),
            "props": pa.array(["{}"] * len(rows), type=pa.string()),
        }
    )
    d = tmp_path / "ev"
    d.mkdir()
    pq.write_table(tbl, str(d / "events.parquet"))
    return str(d)


def _oracle_events(sf_dir, name):
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf_dir}/events.parquet')"
    )
    return con.execute(q.ORACLE_SQL[name]).df()


def test_range_join_matches_duckdb_at_sf(ray_session):
    _compare(q.QUERIES["range_join"](SF), _oracle_events(SF, "range_join"))


def test_doc_embedding_join_matches_duckdb_at_sf(ray_session):
    """Cross-modal bucketed join: the embedding is reduced to its exact
    norm BEFORE the shuffle; the corpus's unit vectors split
    999999/1000000 micro so both float-pin branches are exercised."""
    con = duckdb.connect()
    for t in ("documents", "embeddings"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    df = _compare(
        q.QUERIES["doc_embedding_join"](SF),
        con.execute(q.ORACLE_SQL["doc_embedding_join"]).df(),
    )
    assert set(df.norm_micro.unique()) == {999999, 1000000}
    assert 0 < int(df.keep.sum()) < len(df)


def test_range_join_boundary_semantics(ray_session, tmp_path):
    """Half-open [ts-1h, ts): an event exactly 1h before IS counted, an
    event at the same instant is NOT, other users never leak in, and a
    purchase with no user history emits (0, 0)."""
    d = _events_dir(
        tmp_path,
        [
            (0, "2024-01-01T11:00:00", 1, "view", 10.0),      # exactly -1h: in
            (1, "2024-01-01T11:30:00", 1, "view", 20.0),      # in window
            (2, "2024-01-01T12:00:00", 1, "view", 40.0),      # same instant: out
            (3, "2024-01-01T12:00:00", 1, "purchase", 99.0),  # probe
            (4, "2024-01-01T11:45:00", 2, "view", 80.0),      # other user
            (5, "2024-01-01T10:00:00", 3, "purchase", 5.0),   # no history
        ],
    )
    df = _compare(q.QUERIES["range_join"](d), _oracle_events(d, "range_join"))
    by = df.set_index("event_id")
    assert (int(by.loc[3].n_prior), int(by.loc[3].prior_value_cents)) == (2, 3000)
    assert (int(by.loc[5].n_prior), int(by.loc[5].prior_value_cents)) == (0, 0)


def test_curation_randomized_cross_check(ray_session, tmp_path):
    """Randomized corpus (seeded): texts mix plain words, pii-shaped
    fragments (emails/IPs/near-misses), tiny shared vocab (forces
    paragraph + leading-key collisions), and weird spacing — every new
    operator must still match DuckDB exactly."""
    import numpy as np

    r = np.random.default_rng(20260818)
    vocab = ["alpha", "beta", "gamma", "x", "9.9.9.9", "a@b.io", "dot.", "@", "1.2",
             "u.v@w.example.net", "999.1.1.1", "co", "uk"]
    texts = []
    for _ in range(200):
        k = int(r.integers(1, 30))
        words = [vocab[int(i)] for i in r.integers(0, len(vocab), k)]
        t = " ".join(words)
        if r.random() < 0.2:
            t += "  "  # trailing double space -> empty tokens
        texts.append(t)
    ids = list(range(200))
    langs = [["en", "de", "fr"][int(i)] for i in r.integers(0, 3, 200)]
    srcs = [f"s{int(i)}" for i in r.integers(0, 4, 200)]
    d = _docs_dir(tmp_path, ids, texts, langs=langs, sources=srcs)
    for name in NEW:
        _compare(q.QUERIES[name](d), _oracle(d, name)), name


@pytest.mark.parametrize(
    "name",
    ["incremental_dedup", "events_rollup", "sliding_window", "paragraph_dedup",
     "link_graph_stats"],
)
def test_union_queries_survive_strict_iter(ray_session, name):
    """Every union-bearing query must yield through iter_batches —
    the strict consumer path asserts on mixed arrow/pandas block types
    that to_pandas() silently tolerates (incremental_dedup shipped
    with exactly this bug; the driver comparison could not see it)."""
    n = 0
    for b in q.QUERIES[name](SF).iter_batches(batch_format="pyarrow"):
        n += b.num_rows
    assert n > 0


def test_range_join_randomized_cross_check(ray_session, tmp_path):
    """Seeded random events: few users (dense windows), second-scale
    ts jitter with deliberate same-instant storms, purchases mixed
    through — every window count and cents sum must match DuckDB."""
    import numpy as np

    r = np.random.default_rng(55_2026)
    rows = []
    base = np.datetime64("2024-03-01T00:00:00", "us")
    for eid in range(600):
        uid = int(r.integers(0, 6))
        # cluster timestamps so [ts-1h, ts) windows overlap heavily;
        # 10% land on an exact shared second (tie storm)
        sec = int(r.integers(0, 7200))
        if r.random() < 0.1:
            sec = (sec // 600) * 600
        ts = base + np.timedelta64(sec, "s")
        et = "purchase" if r.random() < 0.3 else "view"
        rows.append((eid, str(ts), uid, et, float(r.integers(1, 10000)) / 100.0))
    d = _events_dir(tmp_path, rows)
    df = _compare(q.QUERIES["range_join"](d), _oracle_events(d, "range_join"))
    assert df.n_prior.max() > 10  # dense windows actually exercised


def test_paragraph_dedup_multibatch_shuffle(ray_session, tmp_path):
    """Force many batches/buckets: winners must be GLOBAL minima, not
    per-batch minima — 200 docs all sharing one paragraph keep exactly
    one instance corpus-wide."""
    ids = list(range(200))
    d = _docs_dir(tmp_path, ids, ["same eight word text for all docs here"] * 200)
    df = _compare(q.QUERIES["paragraph_dedup"](d), _oracle(d, "paragraph_dedup"))
    assert int(df.n_kept.sum()) == 1
    assert int(df[df.doc_id == 0].n_kept.iloc[0]) == 1


def test_bm25_topk_bigint_fallback_matches_vectorized(ray_session, tmp_path):
    """The Python-int fallback (forced) must equal the int64 vectorized
    path row-for-row, and both must equal the DuckDB HUGEINT oracle —
    the fallback is the path a 100-TB corpus would take once
    18·dl_max·N leaves int64 headroom."""
    texts = [
        f"vector stream {'window ' * (i % 5)}filler pad row agg {'x ' * (i % 7)}key"
        for i in range(120)
    ]
    d = _docs_dir(tmp_path, list(range(120)), texts)
    fast = q.QUERIES["bm25_topk"](d).to_pandas()
    slow = q.q_bm25_topk(d, force_bigint=True).to_pandas()
    cols = sorted(fast.columns)
    pd.testing.assert_frame_equal(
        fast[cols].sort_values(cols).reset_index(drop=True),
        slow[cols].sort_values(cols).reset_index(drop=True),
    )
    _compare(q.QUERIES["bm25_topk"](d), _oracle(d, "bm25_topk"))


def test_bm25_topk_empty_and_no_candidates(ray_session, tmp_path):
    """Empty corpus and query-term-free corpus both return zero rows
    with the stable (doc_id, bm25_micro) schema, matching DuckDB."""
    d0 = _docs_dir(tmp_path, [], [], name="docs_empty")
    got = q.QUERIES["bm25_topk"](d0).to_pandas()
    assert len(got) == len(_oracle(d0, "bm25_topk")) == 0
    assert sorted(got.columns) == ["bm25_micro", "doc_id"]
    d1 = _docs_dir(tmp_path, [1, 2], ["no query terms here", "plain filler"], name="docs_nocand")
    got1 = q.QUERIES["bm25_topk"](d1).to_pandas()
    # zero-row Dataset.to_pandas drops columns (Ray quirk, shared across
    # the registry) so only row count is asserted on the Dataset path
    assert len(got1) == len(_oracle(d1, "bm25_topk")) == 0


def test_bpe_token_stats_unicode_and_edge_text(ray_session, tmp_path):
    """The RE2 pre-tokenizer must agree with DuckDB on unicode letters,
    mixed digit/punct runs, multi-space and empty-ish text."""
    texts = [
        "Hello, world! 42 foo's bar",
        "  multi  space\ttab then",
        "naïve café 北京 123abc",
        "x",
        "(((punct))) --- 0.5%",
    ]
    d = _docs_dir(tmp_path, list(range(5)), texts)
    df = _compare(q.QUERIES["bpe_token_stats"](d), _oracle(d, "bpe_token_stats"))
    assert len(df) == 5
    assert (df.n_bpe_tokens > 0).all()


def test_ccnet_buckets_boundary_ties_and_empty(ray_session, tmp_path):
    """Many docs sharing the exact boundary score must land in the same
    bucket on both sides (assignment compares VALUES, not ranks), and an
    empty corpus returns the stable 3-column schema with zero rows."""
    # 30 docs over 3 score classes: 12 identical low, 12 identical mid
    # (straddles the 1/3 boundary), 6 high
    texts = (
        ["rare rare rare"] * 12
        + ["common common common"] * 12
        + ["common rare mix pad"] * 6
    )
    d = _docs_dir(tmp_path, list(range(30)), texts)
    df = _compare(q.QUERIES["ccnet_buckets"](d), _oracle(d, "ccnet_buckets"))
    # every doc with an identical score shares one bucket
    assert (df.groupby("avg_lp_micro").bucket.nunique() == 1).all()
    d0 = _docs_dir(tmp_path, [], [], name="docs_empty_ccnet")
    got = q.QUERIES["ccnet_buckets"](d0)
    got_df = got.to_pandas() if hasattr(got, "to_pandas") else got
    assert len(got_df) == len(_oracle(d0, "ccnet_buckets")) == 0
    assert sorted(got_df.columns) == ["avg_lp_micro", "bucket", "doc_id"]


def test_blocklist_filter_word_boundaries(ray_session, tmp_path):
    """\\b semantics: 'table' must NOT match blocked 'able'; 'slow' as a
    whole word must; punctuation-adjacent hits count."""
    texts = [
        "table stable tables",          # clean: 'able' only as substring
        "slow query",                   # 1 hit
        "so slow, slow!",               # 2 hits (punctuation boundaries)
        "junkyard junk-food junk",      # 'junkyard' no, 'junk-food'+'junk' yes
        "able",                         # whole-word at string edges
    ]
    d = _docs_dir(tmp_path, list(range(5)), texts)
    df = _compare(q.QUERIES["blocklist_filter"](d), _oracle(d, "blocklist_filter"))
    by = df.set_index("doc_id").sort_index()
    assert list(by.n_blocked) == [0, 1, 2, 2, 1]
    assert list(by.is_clean) == [1, 0, 0, 0, 0]


def test_epoch_shuffle_permutation_collisions_multibatch(ray_session, tmp_path):
    """3000 docs (many batches/cells): positions must be the exact
    permutation 0..n-1 and match ROW_NUMBER; ids 5 and 5+2^32 share a
    32-bit hash, pinning the doc_id tiebreak."""
    import numpy as np

    ids = list(range(3000)) + [5 + (1 << 32)]
    d = _docs_dir(tmp_path, ids, ["t"] * len(ids))
    df = _compare(q.QUERIES["epoch_shuffle"](d), _oracle(d, "epoch_shuffle"))
    pos = np.sort(df.position.to_numpy())
    assert (pos == np.arange(len(ids))).all()
    by = df.set_index("doc_id")
    # identical hash -> smaller doc_id ranks first (adjacent positions)
    assert int(by.loc[5].position) + 1 == int(by.loc[5 + (1 << 32)].position)


def test_bpe_merge_pairs_doc_boundaries(ray_session, tmp_path):
    """Pairs never straddle documents: 'b a' would win if doc edges
    leaked ('... b'|'a ...' x many docs); single-token docs contribute
    nothing; ties order by pair text."""
    texts = ["a b"] * 5 + ["b"] * 10 + ["a"] * 10 + ["c d", "c d"]
    d = _docs_dir(tmp_path, list(range(len(texts))), texts)
    df = _compare(q.QUERIES["bpe_merge_pairs"](d), _oracle(d, "bpe_merge_pairs"))
    top = df.sort_values(["cnt", "pair"], ascending=[False, True]).reset_index(drop=True)
    assert (top.pair.iloc[0], int(top.cnt.iloc[0])) == ("a b", 5)
    assert (top.pair.iloc[1], int(top.cnt.iloc[1])) == ("c d", 2)
    assert "b a" not in set(top.pair)


def test_image_pixel_dup_groups_cross_container(ray_session, tmp_path):
    """Every pixel group must span all containers present among its
    doc_ids — one wrong pixel in any lossless codec splits a group.
    60 docs -> groups of sizes ceil/floor(60/37) with containers
    doc_id%6; also pins that DIFFERENT group keys never collide."""
    ids = list(range(60))
    d = _docs_dir(tmp_path, ids, ["t"] * len(ids))
    df = _compare(
        q.QUERIES["image_pixel_dup_groups"](d), _oracle(d, "image_pixel_dup_groups")
    )
    assert len(df) == 37  # 37 distinct renders -> exactly 37 pixel groups
    assert int(df.n_dups.sum()) == 60


def test_dsir_weights_direction_and_oracle(ray_session, tmp_path):
    """Target docs (id%3==0) repeating a target-only token must score
    HIGHER than raw docs of the same length; values match the smoothed
    log-ratio oracle exactly."""
    texts = []
    for i in range(30):
        texts.append("target token here" if i % 3 == 0 else "random filler words")
    d = _docs_dir(tmp_path, list(range(30)), texts)
    df = _compare(q.QUERIES["dsir_weights"](d), _oracle(d, "dsir_weights"))
    by = df.set_index("doc_id").sort_index()
    tgt = by[by.index % 3 == 0].dsir_micro_sum
    raw = by[by.index % 3 != 0].dsir_micro_sum
    assert tgt.min() > raw.max()


def test_span_dedup_removal_semantics(ray_session, tmp_path):
    """All-occurrence semantics: a shared 16-char span vanishes from
    BOTH docs (first occurrence included); a self-repeat inside one doc
    counts as duplicated; <16-char docs and unique docs pass through;
    codepoint masks hold on multi-byte text."""
    import hashlib

    span = "ABCDEFGHIJKLMNOP"  # exactly 16 chars
    texts = [
        "xx" + span + "yy",          # shares span with doc 1
        span,                        # removed entirely -> md5('')
        span + span,                 # self-repeat: both instances dup
        "short doc",                 # <16 chars, untouched
        "unique sixteen-char windows only here, no repeats at all q",
        "naïve café 北京 unicode pad " + span,  # multibyte + shared span
    ]
    d = _docs_dir(tmp_path, list(range(len(texts))), texts)
    df = _compare(q.QUERIES["span_dedup_removal"](d), _oracle(d, "span_dedup_removal"))
    by = df.set_index("doc_id").sort_index()
    assert int(by.loc[1].n_kept_chars) == 0
    assert by.loc[1].kept_md5 == hashlib.md5(b"").hexdigest()
    assert int(by.loc[2].n_kept_chars) == 0  # self-repeat fully covered
    assert int(by.loc[3].n_kept_chars) == len("short doc")
    assert by.loc[3].kept_md5 == hashlib.md5(b"short doc").hexdigest()
    assert int(by.loc[0].n_kept_chars) == 4  # xx + yy survive
    assert by.loc[0].kept_md5 == hashlib.md5(b"xxyy").hexdigest()


def test_negative_doc_ids_match_oracle(ray_session, tmp_path):
    """Contract parity for representable int64 ids (review finding):
    Python/numpy mod is non-negative, DuckDB % keeps sign — the oracles
    carry explicit positive-mod arithmetic so negative doc_ids hash and
    group identically on both sides."""
    ids = [-5, -1, 0, 3, 7, 32, (1 << 33), (1 << 40) + 1]
    d = _docs_dir(tmp_path, ids, ["t"] * len(ids))
    _compare(q.QUERIES["epoch_shuffle"](d), _oracle(d, "epoch_shuffle"))
    _compare(
        q.QUERIES["image_pixel_dup_groups"](d), _oracle(d, "image_pixel_dup_groups")
    )
    _compare(
        q.QUERIES["video_pixel_dup_groups"](d), _oracle(d, "video_pixel_dup_groups")
    )


def test_lang_percentile_rank_ties_and_multibatch(ray_session, tmp_path):
    """Tie storms (many docs sharing one (lang, n_chars)) must rank by
    doc_id contiguously from the group's base offset; per-lang ranks
    are dense 0..n_lang-1; 2000 docs force many batches."""
    import numpy as np

    ids = list(range(2000))
    texts = ["x" * (i % 7 + 1) for i in ids]  # 7 distinct lengths
    langs = ["en" if i % 3 else "de" for i in ids]
    d = _docs_dir(tmp_path, ids, texts, langs=langs)
    df = _compare(
        q.QUERIES["lang_percentile_rank"](d), _oracle(d, "lang_percentile_rank")
    )
    for lang, g in df.groupby("lang"):
        r = np.sort(g["rank"].to_numpy())
        assert (r == np.arange(len(g))).all(), lang


def test_video_pixel_dup_groups_cross_container(ray_session, tmp_path):
    """RBMP stream, AVI/MJPG-q100 and animated GIF of the same frames
    must share one pixel group — a demuxer or decoder divergence in any
    container splits groups."""
    ids = list(range(69))  # 3 full rotations of 23 content keys
    d = _docs_dir(tmp_path, ids, ["t"] * len(ids))
    df = _compare(
        q.QUERIES["video_pixel_dup_groups"](d), _oracle(d, "video_pixel_dup_groups")
    )
    assert len(df) == 23
    assert int(df.n_dups.sum()) == 69
    assert (df.n_containers == 3).all()  # every group spans all 3 containers


@pytest.mark.parametrize(
    "name",
    [
        "bm25_topk",
        "ccnet_buckets",
        "dsir_weights",
        "bpe_merge_pairs",
        "span_dedup_removal",
        "epoch_shuffle",
        "lang_percentile_rank",
        "blocklist_filter",
        "bpe_token_stats",
    ],
)
def test_new_text_ops_randomized_cross_check(ray_session, tmp_path, name):
    """Seeded random corpus (vocab skew, repeated phrases, empty-ish
    and unicode docs, random langs): every round-5 text operator must
    match its DuckDB oracle — the committed form of the review pass's
    adversarial fuzz."""
    import numpy as np

    r = np.random.default_rng(77_2026)
    vocab = ["vector", "stream", "window", "table", "slow", "able", "x",
             "naïve", "北京", "agg", "row", "scan", "the", "a"]
    texts = []
    for i in range(120):
        n = int(r.integers(1, 40))
        words = [vocab[int(r.integers(0, len(vocab)))] for _ in range(n)]
        if r.random() < 0.3:  # plant repeated phrases for span/pair dups
            words += ["vector", "stream", "window", "table", "slow"]
        texts.append(" ".join(words))
    langs = [["en", "de", "zh"][int(r.integers(0, 3))] for _ in range(120)]
    d = _docs_dir(tmp_path, list(range(120)), texts, langs=langs)
    _compare(q.QUERIES[name](d), _oracle(d, name))
