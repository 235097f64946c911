"""Registry contract: every oracle key has a query, callables run at
sf0.001 (full DuckDB comparison is the driver's job; tests/verify do a
spot check on one cheap query)."""

import duckdb
import pandas as pd
import pytest

from rapidocr_ray.pipelines.queries import ORACLE_SQL, QUERIES

SF = "/root/testdata/sf0.001"
TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def test_oracle_keys_subset_of_queries():
    assert set(ORACLE_SQL) <= set(QUERIES)


def test_rows_only_queries_documented():
    rows_only = set(QUERIES) - set(ORACLE_SQL)
    # every rows-only query must be approximate or non-SQL by nature
    assert rows_only == {
        "ann_ivf_topk",
    }


@pytest.mark.parametrize(
    "name",
    ["route_counts", "token_counts", "dedup_latest_wins", "topk_per_group", "asof_join"],
)
def test_cheap_query_matches_duckdb(ray_session, name):
    out = QUERIES[name](SF)
    df = out.to_pandas()
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    odf = con.execute(ORACLE_SQL[name]).df()
    cols = sorted(df.columns)
    assert cols == sorted(odf.columns)
    a = df[cols].sort_values(cols).reset_index(drop=True)
    b = odf[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


@pytest.mark.parametrize(
    "name",
    [
        "image_features",
        "ann_ivf_invariant",
        "video_frame_stats",
        "curation_filter",
        "audio_features",
        "decontam_flags",
        "length_quantiles_per_lang",
        "props_extract_stats",
        "orders_antijoin",
        "user_running_totals",
        "ann_ivf_seeded_topk",
        "heavy_hitter_tokens",
        "lang_distinct_hll",
        "link_graph_stats",
        "domain_pagerank",
        "rank_weighted_sample",
        "sequence_packing",
        "bm25_topk",
        "semantic_dup_groups",
        "bpe_token_stats",
        "ccnet_buckets",
        "blocklist_filter",
        "epoch_shuffle",
        "bpe_merge_pairs",
        "image_pixel_dup_groups",
        "dsir_weights",
        "span_dedup_removal",
        "lang_percentile_rank",
        "video_pixel_dup_groups",
        "orders_left_outer_agg",
        "temperature_resample",
        "zipf_slope",
        "soft_dedup_weights",
        "nb_classify",
        "gopher_quality_filter",
        "audio_sample_dup_groups",
        "user_event_gaps",
        "bigram_logprob",
        "snapshot_full_outer",
        "bpe_train_merges",
        "kmeans_int_iters",
        "events_cube",
        "user_running_totals_salted",
        "dataset_split",
        "decontam_overlap_frac",
    ],
)
def test_new_oracle_queries_match_duckdb(ray_session, name):
    """Round-3/4 additions: the glyph-analytic image feature bins, the
    IVF ordering invariant, and the frame-sampling video stats must
    hash-match their DuckDB oracles."""
    out = QUERIES[name](SF)
    df = out.to_pandas()
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    odf = con.execute(ORACLE_SQL[name]).df()
    cols = sorted(df.columns)
    assert cols == sorted(odf.columns)
    a = df[cols].sort_values(cols).reset_index(drop=True)
    b = odf[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_revenue_bucketed_fallback_matches_broadcast(ray_session, monkeypatch):
    """CUSTOMER_BROADCAST_LIMIT = 0 forces the bucketed shuffle join;
    result must equal the broadcast plan."""
    from rapidocr_ray.pipelines import queries
    from rapidocr_ray.pipelines.queries import q_revenue_by_mktsegment

    a = (
        q_revenue_by_mktsegment(SF)
        .to_pandas()
        .sort_values("c_mktsegment")
        .reset_index(drop=True)
    )
    monkeypatch.setattr(queries, "CUSTOMER_BROADCAST_LIMIT", 0)
    b = (
        q_revenue_by_mktsegment(SF)
        .to_pandas()
        .sort_values("c_mktsegment")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
